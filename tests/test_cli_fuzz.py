"""Malformed datasets and outputs never end a command in a traceback.

Each example builds a two-entry flat tree of 32x32 phantoms, applies one
mutation and runs ``segment``, ``eval``, ``roc`` and ``sweep --l-grid 7:7``
through ``cli.main``: every failure must come back as exit code 1 or 2.
"""

import tempfile
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vesselmf import generate_phantom, write_pnm
from vesselmf.cli import main

# the six PNM files of the tree: (entry, suffix)
FILES = [(e, s) for e in ("a", "b") for s in (".ppm", "_fov.pgm", "_gt.pgm")]
MUTATIONS = ("truncate", "flip_header_byte", "swap_image_and_mask", "delete",
             "one_field_line", "output_is_a_file")
OUTPUTS = {"segment": "--out", "eval": "--report", "roc": "--out",
           "sweep": "--report"}


@cache
def _tree_bytes():
    """File name -> bytes of the unmutated tree, manifest included."""
    files = {}
    for seed, entry in enumerate(("a", "b"), 1):
        p = generate_phantom(size=32, seed=seed, fov_radius=11)
        for suffix, image in ((".ppm", p.rgb), ("_fov.pgm", p.fov),
                              ("_gt.pgm", p.vessels)):
            files[entry + suffix] = write_pnm(image)
    files["manifest.csv"] = b"".join(
        f"{e}.ppm,{e}_fov.pgm,{e}_gt.pgm\n".encode() for e in ("a", "b"))
    return files


def _mutate(root: Path, mutation, target, where, xor):
    """Apply ``mutation`` to file ``target`` of FILES (``len(FILES)``: the
    manifest, for a deletion) at relative position ``where``."""
    entry, suffix = FILES[target % len(FILES)]
    path = root / (entry + suffix)
    data = path.read_bytes()
    if mutation == "truncate":
        path.write_bytes(data[:int(where * len(data))])
    elif mutation == "flip_header_byte":
        raster = 32 * 32 * (3 if suffix == ".ppm" else 1)
        i = int(where * (len(data) - raster))
        path.write_bytes(data[:i] + bytes([data[i] ^ xor]) + data[i + 1:])
    elif mutation == "swap_image_and_mask":
        image, mask = root / f"{entry}.ppm", root / f"{entry}_fov.pgm"
        image_bytes = image.read_bytes()
        image.write_bytes(mask.read_bytes())
        mask.write_bytes(image_bytes)
    elif mutation == "delete":
        (root / "manifest.csv" if target >= len(FILES) else path).unlink()
    elif mutation == "one_field_line":
        lines = (root / "manifest.csv").read_text().splitlines()
        lines[target % 2] = lines[target % 2].split(",")[0]
        (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    elif mutation == "output_is_a_file":
        for command in OUTPUTS:
            (root / "out" / command).write_text("")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutation=st.sampled_from(MUTATIONS),
       target=st.integers(0, len(FILES)),
       where=st.floats(0.0, 1.0, exclude_max=True),
       xor=st.integers(1, 255))
def test_no_exception_escapes_main(mutation, target, where, xor):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        for name, data in _tree_bytes().items():
            (root / name).write_bytes(data)
        _mutate(root, mutation, target, where, xor)
        for command, flag in OUTPUTS.items():
            out = root / "out" / command
            argv = [command, "--dataset-dir", str(root / "manifest.csv"),
                    "--layout", "flat",
                    flag, str(out / "r.csv" if flag == "--report" else out)]
            if command == "sweep":
                argv += ["--l-grid", "7:7"]
            assert main(argv) in (0, 1, 2), (mutation, command)
