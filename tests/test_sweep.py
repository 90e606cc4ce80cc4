"""Grid arithmetic and search behavior on small phantom sets."""

from dataclasses import replace

import numpy as np
import pytest

import vesselmf
from vesselmf import (
    BinaryImage,
    GridSpec,
    KernelParams,
    PipelineParams,
    RgbImage,
    SweepError,
    basic_metrics,
    build_bank,
    confusion,
    evaluate_combo,
    generate_phantom,
    length_search,
    run_pipeline,
    three_round_search,
)
from vesselmf.sweep import (MAX_GRID_VALUES, PreparedDataset, _scorer,
                            _window, prepare_image)

from test_cli import _count_calls


def _prepared(dataset, base):
    """The PreparedDataset of (image, fov, gt) triples at ``base``."""
    return PreparedDataset(base, [prepare_image(image, fov, gt, base)
                                  for image, fov, gt in dataset])


def _bank(base, x_limit, sigma, length):
    """The bank the sweep scores for (x_limit, sigma, length) at ``base``."""
    return build_bank(replace(base.kernel, x_limit=float(x_limit),
                              sigma=float(sigma), length=float(length)))


@pytest.fixture(scope="module")
def small_dataset():
    phantoms = [generate_phantom(size=48, seed=s, fov_radius=19)
                for s in (1, 2)]
    return [(p.rgb, p.fov, p.vessels) for p in phantoms]


@pytest.fixture(scope="module")
def base_params():
    return PipelineParams(
        kernel=KernelParams(sigma=1.0, length=7, n_orientations=4),
        min_component_size=6,
    )


class TestGridSpec:
    def test_inclusive_endpoints(self):
        assert GridSpec(0.5, 10.0, 0.5).values() == pytest.approx(
            [0.5 + 0.5 * i for i in range(20)])

    def test_single_point(self):
        assert GridSpec(2.0, 2.0, 0.1).values() == [2.0]

    def test_window_widths(self):
        # +/-0.5 at step 0.1 and +/-0.1 at step 0.01, away from the bounds
        assert len(_window(2.0, 0.5, 0.1, 0.5, 10.0).values()) == 11
        assert len(_window(2.0, 0.1, 0.01, 0.5, 10.0).values()) == 21

    def test_window_clamps_to_bounds(self):
        w = _window(0.5, 0.5, 0.1, 0.5, 10.0)
        assert w.lo == 0.5
        assert len(w.values()) == 6

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("lo,hi,step,message", [
        (float("nan"), 1.0, 0.5, "grid lo must be finite, got nan"),
        (0.0, float("inf"), 0.5, "grid hi must be finite, got inf"),
        (0.0, 1.0, float("-inf"), "grid step must be finite, got -inf"),
        (0.5, 10.0, 1e-12, "grid 0.5:10:1e-12 holds more than 10000 values"),
        (-1e308, 1e308, 1.0, "grid -1e+308:1e+308:1 holds more than 10000 values"),
        (1, MAX_GRID_VALUES + 1, 1, "grid 1:10001:1 holds more than 10000 values"),
    ])
    def test_unusable_grid_named(self, lo, hi, step, message):
        with pytest.raises(ValueError) as err:
            GridSpec(lo, hi, step)
        assert str(err.value) == message

    def test_grid_at_the_cap(self):
        assert len(GridSpec(1, MAX_GRID_VALUES, 1).values()) == MAX_GRID_VALUES


class TestEvaluateCombo:
    def test_single_image_mean(self, small_dataset, base_params):
        one = small_dataset[:1]
        bank = build_bank(base_params.kernel)
        mean = evaluate_combo(_prepared(one, base_params), bank)
        image, fov, gt = one[0]
        result = run_pipeline(image, fov, base_params, bank)
        _, _, acc = basic_metrics(confusion(result.vessel_map, gt))
        assert mean == acc

    def test_duplicated_image_same_mean(self, small_dataset, base_params):
        one = small_dataset[:1]
        bank = build_bank(base_params.kernel)
        assert evaluate_combo(_prepared(one * 3, base_params),
                              bank) == pytest.approx(
            evaluate_combo(_prepared(one, base_params), bank), abs=1e-12)

    def test_matched_scale_beats_oversized(self, small_dataset, base_params):
        # phantom vessels have a 1.5 px profile; a 5 px kernel is mismatched
        prepared = _prepared(small_dataset, base_params)
        good = evaluate_combo(prepared, _bank(base_params, 7.0, 1.5, 7))
        bad = evaluate_combo(prepared, _bank(base_params, 7.0, 5.0, 7))
        assert good >= bad

    def test_empty_dataset_rejected(self, base_params):
        with pytest.raises(SweepError) as err:
            PreparedDataset(base_params, [])
        assert str(err.value) == "sweep needs a non-empty dataset"

    def test_failure_names_image(self, small_dataset, base_params):
        prepared = _prepared(small_dataset, base_params)
        spectrum, fov, gt = prepared.images[1]
        # a hand-built entry whose ground truth has another size
        prepared.images[1] = (spectrum, fov,
                              BinaryImage.from_array(gt.data[:-1]))
        with pytest.raises(SweepError) as err:
            evaluate_combo(prepared, build_bank(base_params.kernel))
        assert str(err.value) == (
            "combo x=6.99 sigma=1.0 L=7: image #1 failed: segmentation and "
            "ground truth differ in size: 48x48 vs 48x47")


class TestThreeRoundSearch:
    def test_degenerate_single_point_grids(self, small_dataset, base_params):
        res = three_round_search(_prepared(small_dataset, base_params),
                                 GridSpec(7.0, 7.0, 1.0),
                                 GridSpec(1.2, 1.2, 1.0))
        # every round's window clamps to the single-point bounds
        assert len(res.evaluations) == 3
        assert res.best[:2] == (7.0, 1.2)
        assert all(rb[:2] == (7.0, 1.2) for rb in res.round_bests)

    def test_no_buildable_bank_is_an_error(self, small_dataset, base_params):
        # x_limit 0.5 leaves one support column: a flat profile
        with pytest.raises(SweepError) as err:
            three_round_search(_prepared(small_dataset, base_params),
                               GridSpec(0.5, 0.5, 1.0), GridSpec(1.0, 2.0, 1.0))
        assert str(err.value) == ("none of 2 combinations has a kernel bank "
                                  "that can be built")

    def test_rounds_never_regress(self, small_dataset, base_params):
        res = three_round_search(_prepared(small_dataset, base_params),
                                 GridSpec(5.0, 9.0, 2.0),
                                 GridSpec(0.5, 2.5, 1.0))
        accs = [rb[3] for rb in res.round_bests]
        assert accs[1] >= accs[0]
        assert accs[2] >= accs[1]
        assert res.best[3] == max(e[3] for e in res.evaluations)

    def test_log_length_matches_grid_arithmetic(self, small_dataset,
                                                base_params):
        rx = GridSpec(5.0, 9.0, 2.0)
        rs = GridSpec(0.5, 2.5, 1.0)
        res = three_round_search(_prepared(small_dataset, base_params), rx, rs)
        n1 = len(rx.values()) * len(rs.values())
        bx, bs = res.round_bests[0][:2]
        n2 = (len(_window(bx, 0.5, 0.1, rx.lo, rx.hi).values())
              * len(_window(bs, 0.5, 0.1, rs.lo, rs.hi).values()))
        bx, bs = res.round_bests[1][:2]
        n3 = (len(_window(bx, 0.1, 0.01, rx.lo, rx.hi).values())
              * len(_window(bs, 0.1, 0.01, rs.lo, rs.hi).values()))
        assert len(res.evaluations) == n1 + n2 + n3

    def test_order_invariant(self, small_dataset, base_params):
        grids = (GridSpec(7.0, 9.0, 2.0), GridSpec(0.8, 1.8, 0.5))
        a = three_round_search(_prepared(small_dataset, base_params), *grids)
        b = three_round_search(
            _prepared(list(reversed(small_dataset)), base_params), *grids)
        assert a.best == b.best


class TestLengthSearch:
    def test_single_length(self, small_dataset, base_params):
        res = length_search(_prepared(small_dataset, base_params), [5])
        assert res.best[2] == 5.0
        assert len(res.evaluations) == 1

    def test_longer_beats_unit_length(self, small_dataset, base_params):
        res = length_search(_prepared(small_dataset, base_params), [1, 9])
        by_length = {e[2]: e[3] for e in res.evaluations}
        assert by_length[9.0] >= by_length[1.0]

    def test_smallest_length_tie_break(self, base_params):
        # an all-background phantom segments to all-false for every length,
        # so every accuracy ties and the smallest length must win
        phantom = generate_phantom(size=48, strokes=[], noise_sigma=0.0,
                                   fov_radius=19)
        gt = phantom.vessels
        res = length_search(
            _prepared([(phantom.rgb, phantom.fov, gt)], base_params), [3, 5, 7])
        accs = {e[3] for e in res.evaluations}
        assert len(accs) == 1
        assert res.best[2] == 3.0

    def test_empty_grid_rejected(self, small_dataset, base_params):
        with pytest.raises(SweepError):
            length_search(_prepared(small_dataset, base_params), [])


def _criterion_9_set():
    phantoms = [generate_phantom(size=64, seed=s, fov_radius=26)
                for s in (1, 2, 3, 4)]
    return [(p.rgb, p.fov, p.vessels) for p in phantoms]


def _criterion_9_base():
    return PipelineParams(
        kernel=KernelParams(sigma=1.0, length=7, n_orientations=6),
        min_component_size=8,
    )


def _count_kernel_transforms(monkeypatch, kernel_shape):
    """One list entry per ``np.fft.rfft2`` call on a kernel-sized array."""
    original = np.fft.rfft2
    calls = []

    def counted(a, *args, **kwargs):
        if np.shape(a) == kernel_shape:
            calls.append(kwargs.get("s"))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counted)
    return calls


@pytest.fixture(scope="module")
def criterion_9_run():
    """The criterion-9 search once, with the per-layer calls counted."""
    base = _criterion_9_base()
    with pytest.MonkeyPatch.context() as mp:
        counts = {
            "gray": _count_calls(mp, vesselmf.preprocess, "pca_grayscale"),
            "clahe": _count_calls(mp, vesselmf.preprocess, "clahe"),
            "bank": _count_calls(mp, vesselmf.kernels, "build_bank"),
            "combo": _count_calls(mp, vesselmf.sweep, "evaluate_combo"),
            "kernel_rfft2": _count_kernel_transforms(
                mp, (base.kernel.grid_rows, base.kernel.grid_cols)),
        }
        result = three_round_search(_prepared(_criterion_9_set(), base),
                                    GridSpec(5.0, 9.0, 2.0),
                                    GridSpec(0.5, 3.0, 0.5))
    return result, counts


class TestPreparedSearch:
    def test_repeated_combinations_evaluated_once(self, criterion_9_run):
        result, counts = criterion_9_run
        keys = {e[:3] for e in result.evaluations}
        # each round re-visits the previous round's center: 315 log entries,
        # 308 distinct (x, sigma, L); most x_limit steps move no grid cell
        # across the truncation, so those hold only 97 distinct banks
        assert len(result.evaluations) == 315
        assert len(keys) == 308
        evaluated = [(b.params.x_limit, b.params.sigma, b.params.length)
                     for _, b in counts["combo"]]
        assert len(evaluated) == len(set(evaluated)) == 97
        assert set(evaluated) <= keys
        banks = {tuple(k.weights.tobytes() for k in bank.kernels)
                 for _, bank in counts["combo"]}
        assert len(banks) == 97

    def test_invariants_computed_once(self, criterion_9_run):
        result, counts = criterion_9_run
        assert len(counts["gray"]) == len(counts["clahe"]) == 4
        # one bank per log entry: it is built to key the score by weights
        assert len(counts["bank"]) == len(result.evaluations) == 315
        # all four images share one transform shape; one bank's kernels
        # are transformed once, however many combinations share it
        assert len(counts["kernel_rfft2"]) == 6 * 97

    def test_every_log_entry_equals_a_fresh_evaluation(self, criterion_9_run):
        result, _ = criterion_9_run
        base = _criterion_9_base()
        prepared = _prepared(_criterion_9_set(), base)
        fresh = {}
        for x, s, length, acc in result.evaluations:
            if (x, s, length) not in fresh:
                fresh[x, s, length] = evaluate_combo(
                    prepared, _bank(base, x, s, length))
            assert acc == fresh[x, s, length], (x, s, length)
        assert len(fresh) == 308

    @pytest.mark.parametrize("x_limits,evaluations", [
        ((5.0, 5.05), 1),       # no grid cell has 5 < |x| <= 5.05
        ((7.42, 7.43), 2),      # a cell and its mirror, in two kernels
    ], ids=["same-bank", "one-cell-apart"])
    def test_x_limits_are_evaluated_once_per_bank(
            self, monkeypatch, x_limits, evaluations):
        base = _criterion_9_base()
        banks = [_bank(base, x, 1.0, 7) for x in x_limits]
        support_cells = sum(int((a.support != b.support).sum()) for a, b in
                            zip(banks[0].kernels, banks[1].kernels))
        assert support_cells == (0 if evaluations == 1 else 4)
        combos = _count_calls(monkeypatch, vesselmf.sweep, "evaluate_combo")
        score = _scorer(_prepared(_criterion_9_set()[:2], base))
        scores = [score(x, 1.0, 7) for x in x_limits]
        assert len(combos) == evaluations
        assert [b.params.x_limit for _, b in combos] == \
            list(x_limits[:evaluations])
        if evaluations == 1:
            assert scores[0] == scores[1]

    @pytest.mark.parametrize("grid,shape", [
        ({"grid_rows": 19}, (19, 15)),
        ({"grid_cols": 13}, (17, 13)),
    ], ids=["grid_rows", "grid_cols"])
    def test_params_must_match_the_prepared_base(self, small_dataset,
                                                 base_params, grid, shape):
        """The image spectra were padded for the base's kernel grid; a bank
        built on another grid is an error, not a shifted response."""
        prepared = _prepared(small_dataset, base_params)
        bank = build_bank(replace(base_params.kernel, **grid))
        with pytest.raises(SweepError) as err:
            evaluate_combo(prepared, bank)
        assert str(err.value) == (f"kernel shape {shape} differs from the "
                                  "prepared kernel grid (17, 15)")


def _mixed_size_set():
    """Two 64x64 phantoms and one cropped to 48x56: two transform shapes."""
    dataset = [(p.rgb, p.fov, p.vessels) for p in
               (generate_phantom(size=64, seed=s, fov_radius=26) for s in (1, 2))]
    p = generate_phantom(size=64, seed=3, fov_radius=26)
    dataset.append(tuple(cls.from_array(im.data[:56, :48]) for cls, im in
                         ((RgbImage, p.rgb), (BinaryImage, p.fov),
                          (BinaryImage, p.vessels))))
    return dataset


@pytest.mark.parametrize("params", [
    PipelineParams(kernel=KernelParams(sigma=1.2, length=7, n_orientations=6),
                   min_component_size=8),
    PipelineParams(kernel=KernelParams(sigma=2.0, length=9, x_limit=5.0,
                                       n_orientations=4),
                   min_component_size=5, otsu_scope="fov-only"),
], ids=["pca", "fov-only"])
def test_prepared_combo_equals_per_image_pipeline(params, monkeypatch):
    dataset = _mixed_size_set()
    bank = build_bank(params.kernel)
    accuracies = []
    for image, fov, gt in dataset:
        result = run_pipeline(image, fov, params, bank)
        accuracies.append(basic_metrics(confusion(result.vessel_map, gt))[2])
    prepared = _prepared(dataset, params)
    transforms = _count_kernel_transforms(monkeypatch, (17, 15))
    assert evaluate_combo(prepared, bank) == float(np.mean(accuracies))
    assert len(transforms) == 2 * params.kernel.n_orientations
