"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
inline).  Criterion 8 reproduces the published dataset averages with
``vesselmf eval`` and only runs when VESSELMF_DRIVE_DIR / VESSELMF_STARE_DIR
point at PNM-converted copies of the datasets; it is skipped otherwise.  The
same eval helper also runs on small phantom trees in both layouts.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vesselmf import (
    BinaryImage,
    GrayImage,
    GridSpec,
    KernelParams,
    PipelineParams,
    auc,
    basic_metrics,
    build_bank,
    confusion,
    evaluate_combo,
    evaluate_pair,
    generate_phantom,
    kernel_at_angle,
    length_filter,
    otsu_threshold,
    roc_curve,
    run_pipeline,
    three_round_search,
    write_pnm,
)
from vesselmf import cli
from vesselmf.sweep import PreparedDataset, _window, prepare_image

from test_metrics import rmsd_oracle
from test_response import correlate, naive_convolve
from test_segment import flood_fill_components

FIXTURE = Path(__file__).parent / "fixtures" / "kernel_golden.json"


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_1_otsu_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    hists = rng.integers(0, 1001, size=(1000, 256))
    hists[hists.sum(axis=1) == 0, 0] = 1

    ours = np.array([
        otsu_threshold(h).k_star
        for h in hists
    ])

    # Brute-force maximizer: for every split k, class weights and means are
    # evaluated directly from raw slice sums (vectorized across histograms,
    # exhaustive over k, no cumulative reuse); smallest-k tie break.
    H = hists.astype(np.float64)
    levels = np.arange(256.0)
    totals = H.sum(axis=1)
    mu_t = (H @ levels) / totals
    best_val = np.full(len(H), -1.0)
    best_k = np.zeros(len(H), dtype=int)
    for k in range(256):
        n0 = H[:, :k + 1].sum(axis=1)
        n1 = H[:, k + 1:].sum(axis=1)
        ok = (n0 > 0) & (n1 > 0)
        if not ok.any():
            continue
        m0 = (H[:, :k + 1] @ levels[:k + 1]) / np.maximum(n0, 1e-300)
        m1 = (H[:, k + 1:] @ levels[k + 1:]) / np.maximum(n1, 1e-300)
        sb = (n0 / totals) * (m0 - mu_t) ** 2 + (n1 / totals) * (m1 - mu_t) ** 2
        better = ok & (sb > best_val)
        best_val[better] = sb[better]
        best_k[better] = k

    elapsed = time.perf_counter() - start
    matches = int(np.sum(ours == best_k))
    _report(1, "otsu oracle equivalence",
            matches == 1000 and elapsed < 2.0,
            f"{matches}/1000 exact, {elapsed:.2f}s")


def test_criterion_2_kernel_zero_sum_and_half_turn():
    worst_sum = 0.0
    worst_shift = 0.0
    for sigma, length in ((0.57, 8), (1.57, 9)):
        params = KernelParams(sigma=sigma, length=length)
        for kernel in build_bank(params).kernels:
            worst_sum = max(worst_sum, abs(kernel.weights.sum()))
            shifted = kernel_at_angle(params, kernel.theta + 180.0)
            worst_shift = max(
                worst_shift, np.abs(shifted.weights - kernel.weights).max())
    _report(2, "kernel zero-sum / half-turn",
            worst_sum <= 1e-9 and worst_shift <= 1e-12,
            f"max |sum| = {worst_sum:.2e}, max shift diff = {worst_shift:.2e}")


def test_criterion_3_kernel_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    params = KernelParams(sigma=golden["sigma"], length=golden["length"],
                          x_limit=golden["x_limit"],
                          grid_rows=golden["rows"], grid_cols=golden["cols"])
    ours = kernel_at_angle(params, golden["theta_degrees"]).weights
    ref = np.array(golden["weights"])
    tol = 1e-12 * np.maximum(np.abs(ref), 1e-18)
    worst = np.max(np.abs(ours - ref) - tol)
    _report(3, "kernel golden fixture", bool(np.all(np.abs(ours - ref) <= tol)),
            f"worst excess over tolerance = {worst:.2e}")


def test_criterion_4_convolution_oracle():
    rng = np.random.default_rng(77)
    bank = build_bank(KernelParams(sigma=0.57, length=8))
    worst = 0.0
    for _ in range(50):
        img = GrayImage.from_array(rng.random((32, 32)))
        for kernel in bank.kernels:
            diff = np.abs(correlate(img, kernel) - naive_convolve(img, kernel))
            worst = max(worst, float(diff.max()))
    _report(4, "convolution oracle", worst <= 1e-9,
            f"50 images x 12 kernels, max |diff| = {worst:.2e}")


def test_criterion_5_connected_component_oracle():
    rng = np.random.default_rng(88)
    mismatches = 0
    for _ in range(100):
        data = rng.random((64, 64)) < float(rng.uniform(0.2, 0.5))
        min_size = int(rng.integers(1, 15))
        got = length_filter(BinaryImage.from_array(data), min_size)
        labels, sizes = flood_fill_components(data)
        expected = np.zeros_like(data)
        for lab in range(1, len(sizes)):
            if sizes[lab] >= min_size:
                expected |= labels == lab
        if not np.array_equal(got.data, expected):
            mismatches += 1
    _report(5, "connected-component oracle", mismatches == 0,
            f"{100 - mismatches}/100 exact")


def test_criterion_6_phantom_end_to_end():
    start = time.perf_counter()
    phantom = generate_phantom(size=128, seed=21)
    params = PipelineParams(kernel=KernelParams(sigma=1.5, length=9),
                            min_component_size=30)
    bank = build_bank(params.kernel)
    first = run_pipeline(phantom.rgb, phantom.fov, params, bank)
    second = run_pipeline(phantom.rgb, phantom.fov, params, bank)
    elapsed = time.perf_counter() - start

    sens, _, acc = basic_metrics(confusion(first.vessel_map, phantom.vessels))
    deterministic = np.array_equal(first.vessel_map.data,
                                   second.vessel_map.data)
    _report(6, "phantom end-to-end",
            acc >= 0.95 and sens >= 0.70 and deterministic and elapsed < 5.0,
            f"accuracy = {acc:.4f}, sensitivity = {sens:.4f}, "
            f"{elapsed:.2f}s, deterministic = {deterministic}")


def test_criterion_7_metrics_closed_forms():
    rng = np.random.default_rng(99)
    identity_ok = True
    for _ in range(100):
        seg = BinaryImage.from_array(rng.random((16, 16)) < 0.5)
        gt = BinaryImage.from_array(rng.random((16, 16)) < 0.5)
        scope = BinaryImage.from_array(rng.random((16, 16)) < 0.7)
        for where in (None, scope):
            if evaluate_pair(seg, gt, scope=where).rmsd != \
                    rmsd_oracle(seg, gt, where):
                identity_ok = False

    arr = rng.random((12, 12)) < 0.4
    seg = BinaryImage.from_array(arr)
    report = evaluate_pair(seg, seg,
                           response=GrayImage.from_array(arr.astype(float)))
    perfect_ok = (report.sensitivity, report.specificity, report.accuracy,
                  report.rmsd) == (1.0, 1.0, 1.0, 0.0)

    separating = auc(roc_curve(GrayImage.from_array(arr.astype(float)), seg))
    gt2 = BinaryImage.from_array(np.eye(8, dtype=bool))
    diagonal = auc(roc_curve(GrayImage.from_array(np.full((8, 8), 0.5)), gt2))
    auc_ok = separating == 1.0 and abs(diagonal - 0.5) <= 1e-12

    _report(7, "metrics closed forms",
            identity_ok and perfect_ok and auc_ok,
            f"rmsd = pixel oracle on 100 pairs, with and without scope = "
            f"{identity_ok}, "
            f"perfect = {perfect_ok}, sep AUC = {separating}, "
            f"diag AUC = {diagonal}")


def _dataset_average(root, layout: str, sigma: float, length: int,
                     report: Path):
    """``vesselmf eval`` on a dataset at min size 30 over the full image:
    the Average row's (specificity, accuracy) and the image ids it covers."""
    code = cli.main(["eval", "--dataset-dir", str(root), "--layout", layout,
                     "--min-size", "30", "--sigma", str(sigma),
                     "--length", str(length), "--format", "json",
                     "--report", str(report)])
    assert code == 0
    rows = json.loads(report.read_text())["rows"]
    if not rows:
        pytest.skip(f"no images found under {root}")
    average = rows[-1]
    assert average["image"] == "Average"
    return (average["specificity"], average["accuracy"],
            [row["image"] for row in rows[:-1]])


# layout -> (image, FOV mask, ground truth, id) of image number i
_TREE_NAMES = {
    "drive": ("{:02d}_test.ppm", "{:02d}_test_mask.pgm", "{:02d}_manual1.pgm",
              "{:02d}_test"),
    "stare": ("im{:04d}.ppm", "im{:04d}.mask.pgm", "im{:04d}.ah.pgm",
              "im{:04d}"),
}


def _write_tree(root, layout: str, fov_rows: int = 128):
    """Two 128x128 phantoms in ``layout``; each FOV mask keeps its first
    ``fov_rows`` rows.  Returns the image ids."""
    *files, image_id = _TREE_NAMES[layout]
    for i in (1, 2):
        phantom = generate_phantom(size=128, seed=i)
        fov = BinaryImage.from_array(phantom.fov.data[:fov_rows])
        for name, image in zip(files, (phantom.rgb, fov, phantom.vessels)):
            (root / name.format(i)).write_bytes(write_pnm(image))
    return [image_id.format(i) for i in (1, 2)]


@pytest.mark.parametrize("layout,sigma,length", [
    ("drive", 0.57, 8), ("stare", 1.57, 9)])
def test_dataset_average_runs_eval_on_each_layout(tmp_path, layout, sigma,
                                                  length):
    """The criterion-8 helper on a two-image phantom tree; the published
    targets are not checked."""
    assert sorted(_TREE_NAMES) == sorted(cli._LAYOUTS)
    image_ids = _write_tree(tmp_path, layout)
    spec, acc, ids = _dataset_average(tmp_path, layout, sigma, length,
                                      tmp_path / "report.json")
    assert np.isfinite(spec) and np.isfinite(acc)
    assert ids == image_ids


def test_dataset_average_fails_when_every_image_fails(tmp_path):
    """A pipeline error on every image fails the criterion-8 helper; only an
    empty dataset skips it."""
    _write_tree(tmp_path, "drive", fov_rows=100)
    with pytest.raises(BaseException) as err:  # a skip is a BaseException
        _dataset_average(tmp_path, "drive", 0.57, 8,
                         tmp_path / "report.json")
    assert err.type is AssertionError


def test_dataset_average_skips_an_empty_dataset(tmp_path):
    with pytest.raises(pytest.skip.Exception):
        _dataset_average(tmp_path, "drive", 0.57, 8,
                         tmp_path / "report.json")


def test_criterion_8_published_dataset_averages(tmp_path):
    drive_dir = os.environ.get("VESSELMF_DRIVE_DIR")
    stare_dir = os.environ.get("VESSELMF_STARE_DIR")
    if not drive_dir and not stare_dir:
        print("ACCEPTANCE 8 published dataset averages: SKIP "
              "(set VESSELMF_DRIVE_DIR / VESSELMF_STARE_DIR to PNM datasets)")
        pytest.skip("user-supplied datasets not available")

    details = []
    ok = True
    if drive_dir:
        spec, acc, _ = _dataset_average(drive_dir, "drive", sigma=0.57,
                                        length=8,
                                        report=tmp_path / "drive.json")
        ok &= abs(acc - 0.9577) <= 0.02 and abs(spec - 0.9850) <= 0.02
        details.append(f"DRIVE acc = {acc:.4f} (target 0.9577 +/- 0.02), "
                       f"spec = {spec:.4f} (target 0.9850 +/- 0.02)")
    if stare_dir:
        _, acc, _ = _dataset_average(stare_dir, "stare", sigma=1.57, length=9,
                                     report=tmp_path / "stare.json")
        ok &= abs(acc - 0.9513) <= 0.02
        details.append(f"STARE acc = {acc:.4f} (target 0.9513 +/- 0.02)")
    _report(8, "published dataset averages", ok, "; ".join(details))


def test_criterion_9_sweep_shape():
    start = time.perf_counter()
    phantoms = [generate_phantom(size=64, seed=s, fov_radius=26)
                for s in (1, 2, 3, 4)]
    dataset = [(p.rgb, p.fov, p.vessels) for p in phantoms]
    base = PipelineParams(
        kernel=KernelParams(sigma=1.0, length=7, n_orientations=6),
        min_component_size=8,
    )
    rx = GridSpec(5.0, 9.0, 2.0)
    rs = GridSpec(0.5, 3.0, 0.5)
    prepared = PreparedDataset(base, [prepare_image(image, fov, gt, base)
                                      for image, fov, gt in dataset])
    result = three_round_search(prepared, rx, rs)

    # predicted per-round evaluation counts via the same inclusive-endpoint
    # window arithmetic the search specifies
    n1 = len(rx.values()) * len(rs.values())
    b1x, b1s = result.round_bests[0][:2]
    n2 = (len(_window(b1x, 0.5, 0.1, rx.lo, rx.hi).values())
          * len(_window(b1s, 0.5, 0.1, rs.lo, rs.hi).values()))
    b2x, b2s = result.round_bests[1][:2]
    n3 = (len(_window(b2x, 0.1, 0.01, rx.lo, rx.hi).values())
          * len(_window(b2s, 0.1, 0.01, rs.lo, rs.hi).values()))
    counts_ok = len(result.evaluations) == n1 + n2 + n3

    # exhaustive fine-grid oracle over sigma at the search's final x_limit
    final_x = result.best[0]
    grid = [round(rs.lo + 0.01 * i, 10)
            for i in range(int(round((rs.hi - rs.lo) / 0.01)) + 1)]
    accs = [evaluate_combo(prepared, build_bank(replace(
                base.kernel, x_limit=final_x, sigma=s, length=7.0)))
            for s in grid]
    oracle_sigma = grid[int(np.argmax(accs))]
    sigma_ok = abs(result.best[1] - oracle_sigma) <= 0.1 + 1e-9

    elapsed = time.perf_counter() - start
    _report(9, "sweep shape",
            counts_ok and sigma_ok and elapsed < 600.0,
            f"evals = {len(result.evaluations)} (predicted {n1 + n2 + n3}), "
            f"final sigma = {result.best[1]:.2f} vs oracle {oracle_sigma:.2f}, "
            f"{elapsed:.0f}s")
