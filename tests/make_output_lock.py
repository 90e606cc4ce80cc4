"""Generate the output lock: SHA-256 digests of the pipeline's outputs.

The matrix is ``generate_phantom(size, seed=3)`` for four sizes, three
(sigma, L) kernels and both Otsu scopes, each run with the cutoff unset,
so the pipeline's own area-scaled small-component rule applies.  Per case
the lock holds the digests of the vessel map, of the normalized response's
256 levels and of the raw response as float64 bytes, plus ``k_star`` and
the sorted degenerate flags.  It also
holds the digest of every file one 64x64 ``segment --dump-mfr
--dump-stages`` run writes.  FFT round-off may differ between numpy
versions, so the lock records numpy's ``major.minor``; only the raw
response depends on it.  Run as a script to (re)write
tests/fixtures/output_lock.json.
"""

import hashlib
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from vesselmf import (
    KernelParams,
    PipelineParams,
    build_bank,
    cli,
    generate_phantom,
    run_pipeline,
    write_pnm,
)

SEED = 3
SIZES = (64, 128, 301, 584)
KERNELS = ((0.57, 8), (1.5, 9), (1.14, 7))
SCOPES = ("full-image", "fov-only")
DUMP_SIZE = 64

FIXTURE = Path(__file__).parent / "fixtures" / "output_lock.json"


def numpy_version() -> str:
    """The running numpy's ``major.minor``."""
    return ".".join(np.__version__.split(".")[:2])


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def case_ids():
    """``size/sigma/L/scope`` of every case, in lock order."""
    return [f"{size}/{sigma}/{length}/{scope}" for size in SIZES
            for sigma, length in KERNELS for scope in SCOPES]


@lru_cache(maxsize=1)
def _phantom(size):
    return generate_phantom(size, seed=SEED)


def run_case(case_id: str) -> dict:
    """The locked outputs of one case."""
    size, sigma, length, scope = case_id.split("/")
    size = int(size)
    phantom = _phantom(size)
    params = PipelineParams(
        kernel=KernelParams(sigma=float(sigma), length=int(length)),
        otsu_scope=scope,
    )
    result = run_pipeline(phantom.rgb, phantom.fov, params,
                          build_bank(params.kernel))
    return {
        "vessel_map": _sha256(result.vessel_map.data),
        "levels": _sha256(result.mfr_image.levels),
        "response": _sha256(result.mfr.astype("<f8")),
        "k_star": result.diagnostics.k_star,
        "flags": sorted(result.degenerate_flags),
    }


def dump_digests(work_dir: Path, encoding: str = "binary") -> dict:
    """Digest of each file that one ``segment --dump-mfr --dump-stages``
    run writes on a 64x64 phantom, by path relative to its ``--out``.

    ``encoding`` is the ``write_pnm`` format of the phantom and its mask;
    both encodings decode to the same images, so the digests are the same.
    """
    phantom = generate_phantom(DUMP_SIZE, seed=SEED)
    (work_dir / "p.ppm").write_bytes(write_pnm(phantom.rgb, encoding))
    (work_dir / "p_mask.pgm").write_bytes(write_pnm(phantom.fov, encoding))
    (work_dir / "manifest.csv").write_text("p.ppm,p_mask.pgm\n")
    out = work_dir / "out"
    code = cli.main(["segment", "--dataset-dir",
                     str(work_dir / "manifest.csv"), "--out", str(out),
                     "--dump-mfr", "--dump-stages"])
    if code != 0:
        raise RuntimeError(f"segment exited {code}")
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        dumps = dump_digests(Path(tmp))
    payload = {
        "numpy": numpy_version(),
        "cases": {case_id: run_case(case_id) for case_id in case_ids()},
        "segment_dump": dumps,
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
