"""Batch CLI: dataset discovery, subcommands, report determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import vesselmf
from vesselmf import (
    KernelParams,
    PipelineParams,
    build_bank,
    generate_phantom,
    read_pnm,
    run_pipeline,
    write_pnm,
)
from vesselmf.cli import (
    _PIPELINE_FLAGS,
    DatasetError,
    ThreadCountError,
    _thread_count,
    build_parser,
    discover_dataset,
    main,
    resolve_pipeline_params,
)


def _write(path, image):
    path.write_bytes(write_pnm(image))


def _make_drive_tree(root, n=2, size=48):
    """DRIVE-style triples built from phantoms; gt = the pipeline's own
    output so an eval run reproduces a perfect score."""
    root.mkdir(parents=True, exist_ok=True)
    params = PipelineParams(
        kernel=KernelParams(sigma=1.5, length=9, n_orientations=4),
        min_component_size=6,
    )
    bank = build_bank(params.kernel)
    for i in range(1, n + 1):
        phantom = generate_phantom(size=size, seed=i, fov_radius=size // 2 - 5)
        result = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        _write(root / f"{i:02d}_test.ppm", phantom.rgb)
        _write(root / f"{i:02d}_test_mask.pgm", phantom.fov)
        _write(root / f"{i:02d}_manual1.pgm", result.vessel_map)
    return params


PIPE_FLAGS = ["--sigma", "1.5", "--length", "9", "--orientations", "4",
              "--min-size", "6"]


class TestDiscover:
    def test_empty_directory_warns(self, tmp_path, capsys):
        manifest = discover_dataset(tmp_path, "drive")
        assert len(manifest) == 0
        assert "warning" in capsys.readouterr().err

    def test_drive_layout(self, tmp_path):
        _make_drive_tree(tmp_path / "drive", n=3)
        manifest = discover_dataset(tmp_path / "drive", "drive")
        assert [e.id for e in manifest] == [
            "01_test", "02_test", "03_test"]
        assert all(e.ground_truth_path is not None for e in manifest)

    def test_drive_nested_directories(self, tmp_path):
        root = tmp_path / "drive"
        (root / "images").mkdir(parents=True)
        (root / "mask").mkdir()
        phantom = generate_phantom(size=32, fov_radius=12)
        _write(root / "images" / "01_test.ppm", phantom.rgb)
        _write(root / "mask" / "01_test_mask.pgm", phantom.fov)
        manifest = discover_dataset(root, "drive")
        assert len(manifest) == 1
        assert manifest[0].ground_truth_path is None

    def test_missing_mask_names_id(self, tmp_path):
        root = tmp_path / "drive"
        root.mkdir()
        phantom = generate_phantom(size=32, fov_radius=12)
        _write(root / "01_test.ppm", phantom.rgb)
        _write(root / "01_test_mask.pgm", phantom.fov)
        _write(root / "02_test.ppm", phantom.rgb)
        with pytest.raises(DatasetError) as err:
            discover_dataset(root, "drive")
        assert "02_test" in str(err.value)

    def test_stare_layout(self, tmp_path):
        root = tmp_path / "stare"
        root.mkdir()
        phantom = generate_phantom(size=32, fov_radius=12)
        _write(root / "im0001.ppm", phantom.rgb)
        _write(root / "im0001.mask.pgm", phantom.fov)
        _write(root / "im0001.ah.pgm", phantom.vessels)
        manifest = discover_dataset(root, "stare")
        assert [e.id for e in manifest] == ["im0001"]
        assert manifest[0].ground_truth_path.name == "im0001.ah.pgm"

    def test_flat_manifest(self, tmp_path):
        phantom = generate_phantom(size=32, fov_radius=12)
        _write(tmp_path / "img.ppm", phantom.rgb)
        _write(tmp_path / "fov.pgm", phantom.fov)
        _write(tmp_path / "gt.pgm", phantom.vessels)
        listing = tmp_path / "manifest.csv"
        listing.write_text("# comment line\nimg.ppm,fov.pgm,gt.pgm\n")
        manifest = discover_dataset(listing, "flat")
        assert len(manifest) == 1
        assert manifest[0].id == "img"

    def test_flat_missing_file_listed(self, tmp_path):
        listing = tmp_path / "manifest.csv"
        listing.write_text("missing.ppm,fov.pgm\n")
        with pytest.raises(DatasetError) as err:
            discover_dataset(listing, "flat")
        assert "missing" in str(err.value)

    def test_flat_duplicate_id_rejected(self, tmp_path):
        phantom = generate_phantom(size=32, fov_radius=12)
        (tmp_path / "b").mkdir()
        for folder in (tmp_path, tmp_path / "b"):
            _write(folder / "img.ppm", phantom.rgb)
        _write(tmp_path / "fov.pgm", phantom.fov)
        listing = tmp_path / "manifest.csv"
        listing.write_text("img.ppm,fov.pgm\nb/img.ppm,fov.pgm\n")
        with pytest.raises(DatasetError) as err:
            discover_dataset(listing, "flat")
        assert "duplicate dataset id 'img'" in str(err.value)


class TestSegmentCommand:
    def test_writes_vessel_maps(self, tmp_path):
        _make_drive_tree(tmp_path / "data")
        out = tmp_path / "out"
        code = main(["segment", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--out", str(out),
                     "--dump-mfr", *PIPE_FLAGS])
        assert code == 0
        vessels = read_pnm((out / "01_test_vessels.pgm").read_bytes())
        assert set(np.unique(vessels.data)) <= {0.0, 1.0}
        assert (out / "01_test_mfr.pgm").exists()

    def test_stage_dumps(self, tmp_path):
        _make_drive_tree(tmp_path / "data", n=1)
        out = tmp_path / "out"
        code = main(["segment", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--out", str(out),
                     "--dump-stages", "--dump-mfr", *PIPE_FLAGS])
        assert code == 0
        stage_dir = out / "01_test_stages"
        assert (stage_dir / "06_masked.pgm").read_bytes() == \
            (out / "01_test_vessels.pgm").read_bytes()
        assert (stage_dir / "03_mfr.pgm").read_bytes() == \
            (out / "01_test_mfr.pgm").read_bytes()
        names = sorted(p.name for p in stage_dir.iterdir())
        assert names == [
            "01_gray.pgm", "02_enhanced.pgm", "03_mfr.pgm",
            "04_threshold.pgm", "05_length_filtered.pgm", "06_masked.pgm",
            "07_complement.pgm",
        ]
        masked = read_pnm((stage_dir / "06_masked.pgm").read_bytes())
        inverted = read_pnm((stage_dir / "07_complement.pgm").read_bytes())
        assert np.allclose(masked.data + inverted.data, 1.0)


class TestEvalCommand:
    def test_perfect_rows_against_own_output(self, tmp_path):
        _make_drive_tree(tmp_path / "data")
        report = tmp_path / "report.csv"
        code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--report", str(report),
                     *PIPE_FLAGS])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "image,specificity,sensitivity,accuracy,rmsd,mad_diff,auc"
        row = lines[2].split(",")
        assert row[0] == "01_test"
        assert row[1:5] == ["1.0000", "1.0000", "1.0000", "0.0000"]
        assert lines[-1].startswith("Average,1.0000,1.0000,1.0000,0.0000")

    def test_byte_identical_reports(self, tmp_path):
        _make_drive_tree(tmp_path / "data")
        args = ["eval", "--dataset-dir", str(tmp_path / "data"),
                "--layout", "drive", *PIPE_FLAGS]
        r1 = tmp_path / "a.csv"
        r2 = tmp_path / "b.csv"
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--report", str(r2), "--threads", "2"]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_default_and_given_length_write_one_report(self, tmp_path):
        """``--length 8`` is the default L; the header prints it alike."""
        _make_drive_tree(tmp_path / "data", n=1, size=32)
        args = ["eval", "--dataset-dir", str(tmp_path / "data"),
                "--layout", "drive", "--orientations", "4"]
        r1 = tmp_path / "a.csv"
        r2 = tmp_path / "b.csv"
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--report", str(r2), "--length", "8"]) == 0
        assert r1.read_text().splitlines()[0] == (
            "# vesselmf eval sigma=0.57 length=8 x_limit=6.99 orientations=4 "
            "min_size=auto otsu_scope=full-image")
        assert r1.read_bytes() == r2.read_bytes()

    def test_json_format(self, tmp_path):
        _make_drive_tree(tmp_path / "data", n=1)
        report = tmp_path / "report.json"
        code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--report", str(report),
                     "--format", "json", *PIPE_FLAGS])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["rows"][0]["accuracy"] == 1.0
        assert payload["rows"][-1]["image"] == "Average"

    def test_missing_gt_nonzero_exit(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        phantom = generate_phantom(size=32, fov_radius=12)
        _write(root / "01_test.ppm", phantom.rgb)
        _write(root / "01_test_mask.pgm", phantom.fov)
        report = tmp_path / "report.csv"
        code = main(["eval", "--dataset-dir", str(root), "--layout", "drive",
                     "--report", str(report), *PIPE_FLAGS])
        assert code == 1
        # partial results flushed; the header restates the run's settings
        # although no entry succeeded
        assert report.read_text().splitlines() == [
            "# vesselmf eval sigma=1.5 length=9 x_limit=6.99 orientations=4 "
            "min_size=6 otsu_scope=full-image",
            "image,specificity,sensitivity,accuracy,rmsd,mad_diff,auc"]

    @pytest.mark.parametrize("command,out_flag,out,report", [
        ("eval", "--report", "report.csv", "report.csv"),
        ("roc", "--out", "roc", "roc/roc_summary.csv"),
    ])
    @pytest.mark.parametrize("min_size,token", [
        ([], "min_size=auto"), (["--min-size", "0"], "min_size=0"),
    ], ids=["unset", "zero"])
    def test_header_names_the_cutoff(self, tmp_path, command, out_flag, out,
                                     report, min_size, token):
        """An unset cutoff is the pipeline's area rule, whatever the image
        sizes; an explicit 0 is printed as given."""
        _make_drive_tree(tmp_path / "data", n=1, size=32)
        code = main([command, "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", out_flag, str(tmp_path / out),
                     "--sigma", "1.5", "--length", "9", "--orientations", "4",
                     *min_size])
        assert code == 0
        header = (tmp_path / report).read_text().splitlines()[0].split()
        assert header[:3] == ["#", "vesselmf", command]
        assert [t for t in header if t.startswith("min_size=")] == [token]

    def test_config_file_and_flag_override(self, tmp_path):
        _make_drive_tree(tmp_path / "data", n=1)
        config = tmp_path / "run.cfg"
        config.write_text(
            "sigma = 1.5\nlength = 9\norientations = 4\nmin-size = 6\n")
        report = tmp_path / "report.csv"
        code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--report", str(report),
                     "--config", str(config)])
        assert code == 0
        meta = report.read_text().splitlines()[0]
        assert "sigma=1.5" in meta
        # flags win over the file
        code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--report", str(report),
                     "--config", str(config), "--sigma", "2.0"])
        assert code == 0
        assert "sigma=2 " in report.read_text().splitlines()[0]


class TestRocCommand:
    def test_curves_and_summary(self, tmp_path):
        _make_drive_tree(tmp_path / "data")
        out = tmp_path / "roc"
        code = main(["roc", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--out", str(out), *PIPE_FLAGS])
        assert code == 0
        curve = (out / "01_test_roc.csv").read_text().splitlines()
        assert curve[0] == "fpr,tpr"
        assert curve[1] == "0.000000,0.000000"
        assert curve[-1] == "1.000000,1.000000"
        summary = (out / "roc_summary.csv").read_text().splitlines()
        assert summary[1] == "image,auc"
        assert summary[-1].startswith("Average,")


class TestSweepCommand:
    def test_length_scan_report(self, tmp_path):
        _make_drive_tree(tmp_path / "data", n=1, size=40)
        report = tmp_path / "sweep.csv"
        code = main(["sweep", "--dataset-dir", str(tmp_path / "data"),
                     "--layout", "drive", "--report", str(report),
                     "--l-grid", "7:9", *PIPE_FLAGS])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "x_limit,sigma,L,mean_accuracy"
        assert len(lines) == 4
        assert [line.split(",")[2] for line in lines[1:]] == ["7", "8", "9"]

    @pytest.mark.parametrize("grids,rows,report_sha256,best", [
        (["--round1-x", "5:9:2", "--round1-sigma", "0.5:3:0.5"], 315,
         "ce96bdd52a927b9d0dac216ef055ef4e41968f02e234cbe77f41ca9775cfc08c",
         "best: x_limit=8.93 sigma=1.14 L=7 mean_accuracy=0.993042"),
        (["--l-grid", "3:11", "--sigma", "1.14", "--x-limit", "8.93"], 9,
         "e0c2cfed5d34a2a3f7b267df4907e722c914e5493ee66a5bf59f403e6db78a04",
         "best: x_limit=8.93 sigma=1.14 L=3 mean_accuracy=0.995056"),
    ], ids=["three-round", "length-scan"])
    def test_criterion_9_reports_are_pinned(self, tmp_path, capsys, grids,
                                            rows, report_sha256, best):
        """The criterion-9 set as a flat PNM manifest: the report bytes and
        the best line of both searches are locked."""
        lines = []
        for s in (1, 2, 3, 4):
            phantom = generate_phantom(size=64, seed=s, fov_radius=26)
            for name, image in ((f"p{s}.ppm", phantom.rgb),
                                (f"p{s}_fov.pgm", phantom.fov),
                                (f"p{s}_gt.pgm", phantom.vessels)):
                _write(tmp_path / name, image)
            lines.append(f"p{s}.ppm,p{s}_fov.pgm,p{s}_gt.pgm")
        listing = tmp_path / "manifest.csv"
        listing.write_text("\n".join(lines) + "\n")
        report = tmp_path / "sweep.csv"
        code = main(["sweep", "--dataset-dir", str(listing), "--layout", "flat",
                     "--report", str(report), "--length", "7",
                     "--orientations", "6", "--min-size", "8", *grids])
        assert code == 0
        assert capsys.readouterr().out == best + "\n"
        data = report.read_bytes()
        assert len(data.splitlines()) == rows + 1
        assert hashlib.sha256(data).hexdigest() == report_sha256


def test_sweep_scores_mixed_sizes_as_eval_does(tmp_path, capsys):
    """On a manifest of a 256x256 and a 128x128 image, a one-point sweep
    reports the Average accuracy that eval reports at the same params: each
    image is scored at its own area-scaled cutoff (6 and 1 pixels)."""
    lines = []
    for size in (256, 128):
        phantom = generate_phantom(size, seed=1, noise_sigma=0.08)
        for name, image in ((f"p{size}.ppm", phantom.rgb),
                            (f"p{size}_fov.pgm", phantom.fov),
                            (f"p{size}_gt.pgm", phantom.vessels)):
            _write(tmp_path / name, image)
        lines.append(f"p{size}.ppm,p{size}_fov.pgm,p{size}_gt.pgm")
    listing = tmp_path / "manifest.csv"
    listing.write_text("\n".join(lines) + "\n")
    dataset = ["--dataset-dir", str(listing), "--layout", "flat",
               "--sigma", "0.57"]

    assert main(["sweep", *dataset, "--report", str(tmp_path / "s.csv"),
                 "--l-grid", "4:4"]) == 0
    swept = float(capsys.readouterr().out.split("mean_accuracy=")[1])
    assert main(["eval", *dataset, "--report", str(tmp_path / "e.csv"),
                 "--length", "4"]) == 0
    average = (tmp_path / "e.csv").read_text().splitlines()[-1].split(",")
    assert f"{swept:.4f}" == average[3]


class TestKernelCommand:
    def test_dump_matrices_zero_sum(self, tmp_path):
        out = tmp_path / "kernels"
        code = main(["kernel", "dump", "--out", str(out),
                     "--sigma", "0.57", "--length", "8"])
        assert code == 0
        texts = sorted(out.glob("kernel_*.txt"))
        heats = sorted(out.glob("kernel_*.pgm"))
        assert len(texts) == 12 and len(heats) == 12
        for path in texts:
            rows = [line.split() for line in
                    path.read_text().splitlines()[1:]]
            total = sum(float(v) for row in rows for v in row)
            assert abs(total) <= 1e-9


def test_unknown_config_key_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    code = main(["kernel", "dump", "--out", str(tmp_path / "k"),
                 "--config", str(bad)])
    assert code == 2


def test_threads_env_var(tmp_path, monkeypatch):
    _make_drive_tree(tmp_path / "data", n=2)
    monkeypatch.setenv("VESSELMF_THREADS", "3")
    r1 = tmp_path / "a.csv"
    code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(r1), *PIPE_FLAGS])
    assert code == 0
    assert r1.read_text().splitlines()[2].split(",")[0] == "01_test"


@pytest.mark.parametrize("flag,env,expected", [
    (None, None, 1), (None, "2", 2), (3, "bogus", 3), (None, " 4 ", 4),
])
def test_thread_count_sources(monkeypatch, flag, env, expected):
    if env is None:
        monkeypatch.delenv("VESSELMF_THREADS", raising=False)
    else:
        monkeypatch.setenv("VESSELMF_THREADS", env)
    assert _thread_count(argparse.Namespace(threads=flag)) == expected


@pytest.mark.parametrize("flag,env", [
    (0, None), (-2, None), (None, "-1"), (None, "0"), (None, "two"), (None, "1.5"),
])
def test_bad_thread_count_rejected(monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("VESSELMF_THREADS", raising=False)
    else:
        monkeypatch.setenv("VESSELMF_THREADS", env)
    with pytest.raises(ThreadCountError):
        _thread_count(argparse.Namespace(threads=flag))


def test_bad_thread_count_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VESSELMF_THREADS", "-3")
    code = main(["eval", "--dataset-dir", str(tmp_path / "absent"),
                 "--layout", "drive", "--report", str(tmp_path / "r.csv")])
    assert code == 2
    assert "VESSELMF_THREADS must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_cli_import_loads_no_scipy():
    """Start-up cost: importing the CLI must not pull in scipy."""
    src = str(Path(vesselmf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, vesselmf.cli; "
            "print(vesselmf.cli.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, timeout=120, check=True)
    loaded_from, scipy_modules = run.stdout.splitlines()
    assert Path(loaded_from).resolve().parent == Path(vesselmf.__file__).resolve().parent
    assert scipy_modules == "[]"


def _patch_everywhere(monkeypatch, module, name, replacement):
    """Put ``replacement`` wherever a vesselmf module holds ``module.name``."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "vesselmf":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, replacement)


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a vesselmf module holds it; the returned
    list gets one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, module, name, counted)
    return calls


def _forbid_reads(monkeypatch):
    """Fail the test if any image file is decoded."""
    def read_pnm(*args, **kwargs):
        raise AssertionError("read_pnm called")
    _patch_everywhere(monkeypatch, vesselmf.pnm, "read_pnm", read_pnm)


def test_eval_quantizes_and_normalizes_each_mfr_once(tmp_path, monkeypatch):
    _make_drive_tree(tmp_path / "data", n=2)
    quantized = _count_calls(monkeypatch, vesselmf.image, "quantize_levels")
    normalized = _count_calls(monkeypatch, vesselmf.response, "normalize_response")
    code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(tmp_path / "r.csv"),
                 *PIPE_FLAGS])
    assert code == 0
    assert len(quantized) == 2
    assert len(normalized) == 2


def test_segment_dumps_quantize_each_gray_image_once(tmp_path, monkeypatch):
    _make_drive_tree(tmp_path / "data", n=2)
    quantized = _count_calls(monkeypatch, vesselmf.image, "quantize_levels")
    normalized = _count_calls(monkeypatch, vesselmf.response, "normalize_response")
    code = main(["segment", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--out", str(tmp_path / "out"),
                 "--dump-mfr", "--dump-stages", *PIPE_FLAGS])
    assert code == 0
    # 01_gray, 02_enhanced and the MFR, which the histogram, the binarize
    # step, 03_mfr.pgm and <id>_mfr.pgm share
    assert len(quantized) == 3 * 2
    assert len(normalized) == 2


@pytest.mark.parametrize("command,out_flag", [
    ("segment", "--out"), ("eval", "--report"), ("roc", "--out"),
])
def test_bank_built_once_per_command(tmp_path, monkeypatch, command, out_flag):
    _make_drive_tree(tmp_path / "data", n=2)
    built = _count_calls(monkeypatch, vesselmf.kernels, "build_bank")
    code = main([command, "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", out_flag, str(tmp_path / "out"),
                 *PIPE_FLAGS])
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_bad_config_exits_2_before_any_image_is_read(
        tmp_path, monkeypatch, capsys, command):
    _make_drive_tree(tmp_path / "data", n=2)
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma = 1.5\nnonsense = 1\n")
    reads = _count_calls(monkeypatch, vesselmf.pnm, "read_pnm")
    code = main([command, "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(tmp_path / "r.csv"),
                 "--config", str(bad)])
    assert code == 2
    assert reads == []
    assert capsys.readouterr().err == f"error: {bad}:2: unknown key 'nonsense'\n"
    assert not (tmp_path / "r.csv").exists()


def _run_with_config(tmp_path, command, config):
    """``command`` on an empty dataset, with ``--config config``."""
    if command == "kernel":
        argv = ["kernel", "dump", "--out", str(tmp_path / "out")]
    else:
        out_flag = "--report" if command in ("eval", "sweep") else "--out"
        argv = [command, "--dataset-dir", str(tmp_path), "--layout", "drive",
                out_flag, str(tmp_path / "out")]
    return main(argv + ["--config", str(config)])


COMMANDS = ["segment", "eval", "roc", "sweep", "kernel"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name,reason", [
    ("nope.cfg", "No such file or directory"),
    (".", "Is a directory"),
    ("latin1.cfg", "not UTF-8 text"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, command, name, reason):
    config = tmp_path / name
    (tmp_path / "latin1.cfg").write_bytes(
        "sigma = 1.5  # \xb5m\n".encode("latin-1"))
    code = _run_with_config(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {config}: cannot read config: {reason}\n")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("line,message", [
    ("orientations = x", "orientations must be int, got 'x'"),
    ("sigma = 1,5", "sigma must be float, got '1,5'"),
    ("clahe-bins = 2.5", "clahe-bins must be int, got '2.5'"),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, line,
                                            message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"# kernel\n{line}\n")
    code = _run_with_config(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}:2: {message}\n"


@pytest.mark.parametrize("flag,spec,message", [
    ("--l-grid", "5", "grid '5' must be lo:hi"),
    ("--l-grid", "1:3:1", "grid '1:3:1' must be lo:hi"),
    ("--l-grid", "7.5:9", "grid '7.5:9' must be lo:hi"),
    ("--l-grid", "9:7", "lo 9 exceeds hi 7"),
    ("--round1-x", "1:2", "grid '1:2' must be lo:hi:step"),
    ("--round1-x", "a:2:0.5", "grid 'a:2:0.5' must be lo:hi:step"),
    ("--round1-x", "1:2:0", "step must be positive"),
    ("--round1-x", "1:inf:1", "grid hi must be finite, got inf"),
    ("--round1-x", "1:nan:1", "grid hi must be finite, got nan"),
    ("--round1-sigma", "0.5:10:1e-12",
     "grid 0.5:10:1e-12 holds more than 10000 values"),
    ("--l-grid", "1:20000", "grid 1:20000:1 holds more than 10000 values"),
])
def test_bad_sweep_grid_exits_2_before_any_image_is_read(
        tmp_path, monkeypatch, capsys, flag, spec, message):
    _make_drive_tree(tmp_path / "data", n=2)
    reads = _count_calls(monkeypatch, vesselmf.pnm, "read_pnm")
    code = main(["sweep", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(tmp_path / "s.csv"),
                 flag, spec])
    assert code == 2
    assert reads == []
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--round1-x", "0:2:0.5"], "--round1-x: x_limit must be positive, got 0"),
    (["--round1-sigma=-1:2:0.5"],
     "--round1-sigma: sigma must be positive, got -1"),
    (["--l-grid", "0:5"], "--l-grid: length must be at least 1, got 0"),
    (["--l-grid=-3:-1"], "--l-grid: length must be at least 1, got -3"),
    (["--round1-sigma", "1e-200:1:0.5"],
     "--round1-sigma: sigma 1e-200 is out of range for the 15x17 kernel grid"),
    (["--orientations", "181"], "n_orientations must be in 1..180, got 181"),
])
def test_sweep_outside_the_kernel_domain_exits_2_before_any_image_is_read(
        tmp_path, monkeypatch, capsys, flags, message):
    _make_drive_tree(tmp_path / "data", n=2)
    _forbid_reads(monkeypatch)
    code = main(["sweep", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(tmp_path / "s.csv"),
                 *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


def test_kernel_dump_of_too_many_orientations_writes_nothing(tmp_path, capsys):
    code = main(["kernel", "dump", "--out", str(tmp_path / "k"),
                 "--orientations", "2000"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: n_orientations must be in 1..180, got 2000\n")
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("sigma", ["1e-200", "1e+200"])
def test_kernel_dump_of_an_unformable_sigma_writes_nothing(tmp_path, capsys,
                                                          sigma):
    """At 1e-200, 2 sigma^2 underflows to 0 and the weights would be NaN; at
    1e200, sigma**2 raises OverflowError."""
    code = main(["kernel", "dump", "--out", str(tmp_path / "k"),
                 "--sigma", sigma])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: sigma {sigma} is out of range for the 15x17 kernel grid\n")
    assert not (tmp_path / "k").exists()


def test_sweep_of_an_empty_dataset_exits_2(tmp_path, capsys):
    listing = tmp_path / "manifest.csv"
    listing.write_text("# no entries\n")
    code = main(["sweep", "--dataset-dir", str(listing), "--layout", "flat",
                 "--report", str(tmp_path / "s.csv"), "--l-grid", "7:7"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"warning: empty manifest {listing}\n"
        "error: sweep needs a non-empty dataset\n")
    assert not (tmp_path / "s.csv").exists()


def test_default_sweep_logs_unbuildable_banks_as_na(tmp_path, capsys):
    """The default round-1 grids start at x_limit 0.5, where the support is
    one column and the profile is flat: those 20 combinations have no bank,
    log NA and are never the best."""
    _make_drive_tree(tmp_path / "data", n=2)
    report = tmp_path / "s.csv"
    code = main(["sweep", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(report), *PIPE_FLAGS])
    assert code == 0
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    assert [row[0] for row in rows if row[3] == "NA"] == ["0.5"] * 20
    assert len(rows) > 400
    best = capsys.readouterr().out
    assert best.startswith("best: x_limit=") and "NA" not in best
    assert not best.startswith("best: x_limit=0.5 ")


def test_nan_sigma_flag_exits_2_before_any_image_is_read(
        tmp_path, monkeypatch, capsys):
    _make_drive_tree(tmp_path / "data", n=2)
    reads = _count_calls(monkeypatch, vesselmf.pnm, "read_pnm")
    code = main(["eval", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(tmp_path / "r.csv"),
                 "--sigma", "nan"])
    assert code == 2
    assert reads == []
    assert capsys.readouterr().err == "error: sigma must be finite, got nan\n"
    assert not (tmp_path / "r.csv").exists()


def test_nan_sigma_config_line_exits_2(tmp_path, capsys):
    config = tmp_path / "nan.cfg"
    config.write_text("sigma = nan\n")
    assert _run_with_config(tmp_path, "kernel", config) == 2
    assert capsys.readouterr().err == "error: sigma must be finite, got nan\n"
    assert not (tmp_path / "out").exists()


# per pipeline setting: a value other than its default, and a second one
SETTING_VALUES = {
    "sigma": ("1.5", "2.5"), "length": ("9", "11"), "x-limit": ("5", "4"),
    "orientations": ("6", "8"), "min-size": ("7", "9"),
    "otsu-scope": ("fov-only", "full-image"),
    "clahe-tiles": ("4", "2"), "clahe-clip": ("0.02", "0.05"),
    "clahe-bins": ("128", "64"),
}


@pytest.mark.parametrize("key", list(_PIPELINE_FLAGS))
def test_flag_and_config_line_resolve_alike(tmp_path, key):
    value, other = SETTING_VALUES[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")

    def resolve(*argv):
        return resolve_pipeline_params(build_parser().parse_args(
            ["kernel", "dump", "--out", str(tmp_path / "out"), *argv]))

    by_flag = resolve(f"--{key}", value)
    assert by_flag != resolve()
    assert resolve("--config", str(config)) == by_flag
    overridden = resolve("--config", str(config), f"--{key}", other)
    assert overridden == resolve(f"--{key}", other) != by_flag


@pytest.mark.parametrize("command,argv", [
    ("segment", ["--out", "F"]),
    ("roc", ["--out", "F"]),
    ("kernel", ["dump", "--out", "F"]),
    ("eval", ["--report", "F/r.csv"]),
    ("sweep", ["--report", "F/r.csv", "--l-grid", "7:7"]),
], ids=["segment", "roc", "kernel", "eval", "sweep"])
def test_output_path_that_cannot_be_created_exits_2(
        tmp_path, monkeypatch, capsys, command, argv):
    """An existing file F where the output directory goes is a one-line
    error, raised before any image is loaded."""
    _make_drive_tree(tmp_path / "data", n=1, size=32)
    (tmp_path / "F").write_text("")
    monkeypatch.chdir(tmp_path)
    loads = _count_calls(monkeypatch, vesselmf.cli, "_load_entry")
    dataset = [] if command == "kernel" else [
        "--dataset-dir", str(tmp_path / "data"), "--layout", "drive"]
    assert main([command, *argv, *dataset]) == 2
    assert loads == []
    assert capsys.readouterr().err == "error: F: File exists\n"


def test_one_thread_runs_the_pipeline_on_the_calling_thread(
        tmp_path, monkeypatch):
    # Keep the serial path: running one thread through a one-worker pool
    # raised the peak RSS of the STARE-size segment benchmark from 100.5 to
    # 115.4 MB (+15%).
    _make_drive_tree(tmp_path / "data", n=2)
    threads = []
    original = vesselmf.cli.run_pipeline

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(vesselmf.cli, "run_pipeline", recorded)
    code = main(["segment", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--out", str(tmp_path / "out"),
                 *PIPE_FLAGS])
    assert code == 0
    assert threads == [threading.get_ident()] * 2


def test_sweep_and_eval_name_the_truncated_entry(tmp_path, capsys):
    phantom = generate_phantom(size=48, fov_radius=19)
    (tmp_path / "a.ppm").write_bytes(write_pnm(phantom.rgb)[:-10])
    _write(tmp_path / "a_fov.pgm", phantom.fov)
    _write(tmp_path / "a_gt.pgm", phantom.vessels)
    listing = tmp_path / "manifest.csv"
    listing.write_text("a.ppm,a_fov.pgm,a_gt.pgm\n")
    dataset = ["--dataset-dir", str(listing), "--layout", "flat"]
    truncated = ("error: a: raster truncated: need 6912 bytes, found 6902 "
                 "(byte offset 6915)\n")

    code = main(["sweep", *dataset, "--report", str(tmp_path / "s.csv"),
                 "--l-grid", "7:8", *PIPE_FLAGS])
    assert code == 2
    assert capsys.readouterr().err == truncated

    code = main(["eval", *dataset, "--report", str(tmp_path / "e.csv"),
                 *PIPE_FLAGS])
    assert code == 1
    assert capsys.readouterr().err == truncated + "failed: a\n"


@pytest.mark.parametrize("bad,file,message", [
    ("01", "01_manual1.pgm",
     "image and ground truth differ in size: 40x40 vs 40x30"),
    ("02", "02_manual1.pgm",
     "image and ground truth differ in size: 40x40 vs 40x30"),
    ("02", "02_test_mask.pgm",
     "image and FOV mask differ in size: 40x40 vs 40x30"),
], ids=["first-gt", "second-gt", "second-fov"])
def test_sweep_names_the_entry_it_cannot_prepare(tmp_path, capsys, monkeypatch,
                                                 bad, file, message):
    for i in ("01", "02"):
        phantom = generate_phantom(size=40, seed=int(i))
        _write(tmp_path / f"{i}_test.ppm", phantom.rgb)
        _write(tmp_path / f"{i}_test_mask.pgm", phantom.fov)
        _write(tmp_path / f"{i}_manual1.pgm", phantom.vessels)
    cropped = read_pnm((tmp_path / file).read_bytes())
    _write(tmp_path / file, type(cropped).from_array(cropped.data[:30]))
    combos = _count_calls(monkeypatch, vesselmf.sweep, "evaluate_combo")
    code = main(["sweep", "--dataset-dir", str(tmp_path), "--layout", "drive",
                 "--report", str(tmp_path / "s.csv"), *PIPE_FLAGS])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}_test: {message}\n"
    assert combos == []


def test_sweep_stops_at_the_first_entry_that_fails(tmp_path, capsys,
                                                   monkeypatch):
    """Each entry is loaded and prepared before the next is read: a bad FOV
    in 01 is named although 02 cannot even be decoded."""
    for i in ("01", "02"):
        phantom = generate_phantom(size=40, seed=int(i))
        _write(tmp_path / f"{i}_test.ppm", phantom.rgb)
        _write(tmp_path / f"{i}_test_mask.pgm", phantom.fov)
        _write(tmp_path / f"{i}_manual1.pgm", phantom.vessels)
    fov = read_pnm((tmp_path / "01_test_mask.pgm").read_bytes())
    _write(tmp_path / "01_test_mask.pgm", type(fov).from_array(fov.data[:30]))
    truncated = (tmp_path / "02_test.ppm").read_bytes()[:-10]
    (tmp_path / "02_test.ppm").write_bytes(truncated)
    combos = _count_calls(monkeypatch, vesselmf.sweep, "evaluate_combo")
    code = main(["sweep", "--dataset-dir", str(tmp_path), "--layout", "drive",
                 "--report", str(tmp_path / "s.csv"), *PIPE_FLAGS])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 01_test: image and FOV mask differ in size: 40x40 vs 40x30\n")
    assert combos == []


def test_sweep_fine_rounds_stay_inside_the_round_1_grid(tmp_path, capsys):
    """A sigma grid below 0.01 is searched as given: the fine windows are
    clipped to the round-1 bounds and to nothing else."""
    _make_drive_tree(tmp_path / "data", n=2)
    report = tmp_path / "s.csv"
    code = main(["sweep", "--dataset-dir", str(tmp_path / "data"),
                 "--layout", "drive", "--report", str(report),
                 "--round1-x", "5:7:2", "--round1-sigma", "0.001:0.005:0.002",
                 *PIPE_FLAGS])
    assert code == 0
    assert capsys.readouterr().out.startswith("best: x_limit=")
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    assert len(rows) > 6
    assert all(0.001 <= float(row[1]) <= 0.005 for row in rows)
    assert all(5 <= float(row[0]) <= 7 for row in rows)


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m vesselmf`` works from a checkout with only PYTHONPATH set."""
    src = str(Path(vesselmf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "kernels"
    subprocess.run([sys.executable, "-m", "vesselmf", "kernel", "dump",
                    "--out", str(out)], env=env, timeout=120, check=True)
    assert len(list(out.glob("kernel_*.txt"))) == 12
