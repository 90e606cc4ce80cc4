"""Thresholding, component filtering and the end-to-end pipeline."""

import numpy as np
import pytest

import vesselmf.segment
from vesselmf import (
    BinaryImage,
    GrayImage,
    KernelParams,
    PipelineParams,
    PipelineStageError,
    apply_mask,
    basic_metrics,
    binarize,
    build_bank,
    build_histogram,
    complement,
    confusion,
    default_min_component_size,
    generate_phantom,
    length_filter,
    normalize_response,
    otsu_curves,
    otsu_threshold,
    quantize_levels,
    run_pipeline,
)


def brute_force_otsu(counts: np.ndarray) -> int:
    """Exhaustive split scan evaluating the between-class variance directly
    from raw slice sums at every level; smallest-k tie break."""
    counts = counts.astype(np.float64)
    levels = np.arange(256.0)
    total = counts.sum()
    mu_t = (counts @ levels) / total
    best_k, best_val = 0, -1.0
    for k in range(256):
        n0 = counts[: k + 1].sum()
        n1 = counts[k + 1:].sum()
        if n0 == 0 or n1 == 0:
            continue
        m0 = (counts[: k + 1] @ levels[: k + 1]) / n0
        m1 = (counts[k + 1:] @ levels[k + 1:]) / n1
        w0 = n0 / total
        w1 = n1 / total
        val = w0 * (m0 - mu_t) ** 2 + w1 * (m1 - mu_t) ** 2
        if val > best_val:
            best_val, best_k = val, k
    return best_k


def flood_fill_components(data: np.ndarray):
    """Label 8-connected components with an explicit stack-based flood fill."""
    labels = np.zeros(data.shape, dtype=int)
    sizes = [0]
    next_label = 0
    h, w = data.shape
    for r0 in range(h):
        for c0 in range(w):
            if not data[r0, c0] or labels[r0, c0]:
                continue
            next_label += 1
            sizes.append(0)
            stack = [(r0, c0)]
            labels[r0, c0] = next_label
            while stack:
                r, c = stack.pop()
                sizes[next_label] += 1
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if (0 <= rr < h and 0 <= cc < w and data[rr, cc]
                                and not labels[rr, cc]):
                            labels[rr, cc] = next_label
                            stack.append((rr, cc))
    return labels, sizes


def _total_variance(counts):
    """Variance of the level distribution, straight from the counts."""
    levels = np.arange(256.0)
    p = counts / counts.sum()
    return ((levels - levels @ p) ** 2) @ p


class TestHistogram:
    def test_all_zero_pixels(self):
        h = build_histogram(GrayImage.from_array(np.zeros((2, 2))))
        assert h.shape == (256,)
        assert h[0] == 4
        assert h.sum() == 4

    def test_extremes(self):
        h = build_histogram(GrayImage.from_array(np.array([[0.0, 1.0]])))
        assert h[0] == 1
        assert h[255] == 1

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        h = build_histogram(GrayImage.from_array(rng.random((13, 9))))
        assert (h / h.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_masked_counting(self):
        img = GrayImage.from_array(np.array([[0.0, 1.0]]))
        mask = BinaryImage.from_array(np.array([[True, False]]))
        h = build_histogram(img, mask)
        assert h.sum() == 1
        assert h[0] == 1

    def test_empty_mask_rejected(self):
        img = GrayImage.from_array(np.zeros((2, 2)))
        mask = BinaryImage.from_array(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            build_histogram(img, mask)


class TestOtsu:
    def test_two_spike_smallest_k(self):
        counts = np.zeros(256, dtype=int)
        counts[50] = 10
        counts[200] = 10
        diag = otsu_threshold(counts)
        assert diag.k_star == 50
        assert diag.eta == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_on_random_histograms(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            counts = rng.integers(0, 1001, 256)
            if counts.sum() == 0:
                counts[0] = 1
            assert otsu_threshold(counts).k_star == brute_force_otsu(counts)

    def test_single_bin_degenerate(self):
        counts = np.zeros(256, dtype=int)
        counts[42] = 7
        valid, _, _, _, sigma_b2 = otsu_curves(counts)
        assert not valid.any()
        assert not sigma_b2.any()
        diag = otsu_threshold(counts)
        assert diag.degenerate
        assert diag.k_star == 42
        assert diag.eta == 0.0

    def test_mixture_identities_every_split(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 50, 256)
        valid, omega0, mu0, mu1, sigma_b2 = otsu_curves(counts)
        levels = np.arange(256.0)
        mu_t = levels @ (counts / counts.sum())
        for k in np.flatnonzero(valid):
            w0, w1 = omega0[k], 1.0 - omega0[k]
            assert w0 + w1 == pytest.approx(1.0, abs=1e-12)
            assert w0 * mu0[k] + w1 * mu1[k] == pytest.approx(mu_t, abs=1e-9)

    def test_eta_argmax_equals_sigma_b2_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            counts = rng.integers(0, 200, 256)
            counts[counts < 150] = 0   # sparse histograms too
            if np.count_nonzero(counts) < 2:
                counts[[10, 200]] = 5
            _, _, _, _, sigma_b2 = otsu_curves(counts)
            eta_curve = sigma_b2 / _total_variance(counts)
            diag = otsu_threshold(counts)
            assert int(np.argmax(eta_curve)) == int(np.argmax(sigma_b2))
            assert diag.k_star == int(np.argmax(sigma_b2))
            assert diag.eta == pytest.approx(eta_curve[diag.k_star], rel=1e-12)

    def test_variance_decomposition(self):
        # total variance = between-class + weighted within-class variance at
        # every split, the within-class variances taken straight from the
        # counts
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 100, 256)
        valid, _, _, _, sigma_b2 = otsu_curves(counts)
        sigma_t2 = _total_variance(counts)
        levels = np.arange(256, dtype=np.float64)
        for k in np.flatnonzero(valid):
            within = 0.0
            for part in (slice(0, k + 1), slice(k + 1, 256)):
                w = counts[part].astype(np.float64)
                mean = levels[part] @ w / w.sum()
                within += ((levels[part] - mean) ** 2 @ w) / counts.sum()
            assert sigma_b2[k] + within == pytest.approx(sigma_t2, rel=1e-9)


def test_levels_are_the_uint8_quantization_kept_after_first_use():
    rng = np.random.default_rng(11)
    img = GrayImage.from_array(rng.random((9, 7)))
    levels = img.levels
    assert levels.dtype == np.uint8
    assert np.array_equal(levels, quantize_levels(img.data))
    assert img.levels is levels


class TestBinarize:
    def test_threshold_zero_keeps_nonzero(self):
        img = GrayImage.from_array(np.array([[0.0, 1.0, 0.0, 1.0]]))
        out = binarize(img, 0)
        assert out.data.tolist() == [[False, True, False, True]]

    def test_threshold_255_all_false(self):
        img = GrayImage.from_array(np.array([[0.0, 0.5, 1.0]]))
        assert not binarize(img, 255).data.any()

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(10)
        img = GrayImage.from_array(rng.random((8, 8)))
        prev = binarize(img, 0).data
        for k in range(1, 256, 16):
            cur = binarize(img, k).data
            assert not np.any(cur & ~prev)
            prev = cur


class TestLengthFilter:
    def test_isolated_pixel_removed(self):
        data = np.zeros((5, 5), dtype=bool)
        data[2, 2] = True
        out = length_filter(BinaryImage.from_array(data), 2)
        assert not out.data.any()

    def test_diagonal_chain_survives(self):
        data = np.zeros((6, 6), dtype=bool)
        for i in range(5):
            data[i, i] = True
        out = length_filter(BinaryImage.from_array(data), 5)
        assert np.count_nonzero(out.data) == 5

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data = rng.random((64, 64)) < 0.35
            min_size = int(rng.integers(1, 12))
            got = length_filter(BinaryImage.from_array(data), min_size)
            labels, sizes = flood_fill_components(data)
            expected = np.zeros_like(data)
            for lab in range(1, len(sizes)):
                if sizes[lab] >= min_size:
                    expected |= labels == lab
            assert np.array_equal(got.data, expected)

    def test_idempotent_and_subset(self):
        rng = np.random.default_rng(12)
        data = rng.random((32, 32)) < 0.3
        img = BinaryImage.from_array(data)
        once = length_filter(img, 6)
        twice = length_filter(once, 6)
        assert np.array_equal(once.data, twice.data)
        assert not np.any(once.data & ~data)


class TestMaskComplement:
    def test_mask_all_true_identity(self):
        rng = np.random.default_rng(13)
        img = BinaryImage.from_array(rng.random((6, 6)) < 0.5)
        fov = BinaryImage.from_array(np.ones((6, 6), dtype=bool))
        assert np.array_equal(apply_mask(img, fov).data, img.data)

    def test_mask_all_false(self):
        img = BinaryImage.from_array(np.ones((3, 3), dtype=bool))
        fov = BinaryImage.from_array(np.zeros((3, 3), dtype=bool))
        assert not apply_mask(img, fov).data.any()

    def test_mask_commutative_idempotent(self):
        rng = np.random.default_rng(14)
        a = BinaryImage.from_array(rng.random((5, 5)) < 0.5)
        b = BinaryImage.from_array(rng.random((5, 5)) < 0.5)
        assert np.array_equal(apply_mask(a, b).data, apply_mask(b, a).data)
        assert np.array_equal(apply_mask(a, a).data, a.data)

    def test_mask_dimension_mismatch(self):
        a = BinaryImage.from_array(np.ones((2, 2), dtype=bool))
        b = BinaryImage.from_array(np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            apply_mask(a, b)

    def test_complement_involution_and_popcount(self):
        rng = np.random.default_rng(15)
        img = BinaryImage.from_array(rng.random((7, 7)) < 0.4)
        flipped = complement(img)
        assert np.array_equal(complement(flipped).data, img.data)
        assert (np.count_nonzero(img.data)
                + np.count_nonzero(flipped.data)) == 49
        all_true = BinaryImage.from_array(np.ones((2, 2), dtype=bool))
        assert not complement(all_true).data.any()


def _phantom_params(sigma=1.5, length=9, min_size=30):
    return PipelineParams(
        kernel=KernelParams(sigma=sigma, length=length),
        min_component_size=min_size,
    )


class TestPipeline:
    def test_phantom_accuracy(self):
        phantom = generate_phantom(size=128, seed=21)
        params = _phantom_params()
        bank = build_bank(params.kernel)
        result = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        sens, spec, acc = basic_metrics(
            confusion(result.vessel_map, phantom.vessels))
        assert acc >= 0.95
        assert sens >= 0.70
        assert not result.vessel_map.data[~phantom.fov.data].any()

    def test_all_background_degenerate_path(self):
        phantom = generate_phantom(size=64, strokes=[], noise_sigma=0.0)
        params = _phantom_params()
        bank = build_bank(params.kernel)
        result = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        assert not result.vessel_map.data.any()
        assert "normalize_response" in result.degenerate_flags

    def test_deterministic(self):
        phantom = generate_phantom(size=96, seed=3)
        params = _phantom_params()
        bank = build_bank(params.kernel)
        a = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        b = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        assert np.array_equal(a.vessel_map.data, b.vessel_map.data)
        assert a.diagnostics.k_star == b.diagnostics.k_star

    def test_fov_only_otsu_scope(self):
        phantom = generate_phantom(size=96, seed=4)
        params = PipelineParams(
            kernel=KernelParams(sigma=1.5, length=9),
            min_component_size=20,
            otsu_scope="fov-only",
        )
        bank = build_bank(params.kernel)
        result = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        assert np.count_nonzero(result.vessel_map.data) > 0

    def test_stage_error_carries_stage_name(self):
        phantom = generate_phantom(size=96, seed=5)
        params = _phantom_params()
        bank = build_bank(KernelParams(sigma=1.5, length=9,
                                       grid_rows=101, grid_cols=101))
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(phantom.rgb, phantom.fov, params, bank)
        assert err.value.stage == "max_response"

    def test_stages_in_order_from_the_run_that_returns_the_map(self):
        phantom = generate_phantom(size=96, seed=6)
        params = _phantom_params()
        bank = build_bank(params.kernel)
        seen = []
        result = run_pipeline(phantom.rgb, phantom.fov, params, bank,
                              lambda name, image: seen.append((name, image)))
        stages = dict(seen)
        assert [name for name, _ in seen] == [
            "01_gray", "02_enhanced", "03_mfr", "04_threshold",
            "05_length_filtered", "06_masked", "07_complement",
        ]
        assert stages["06_masked"] is result.vessel_map
        assert np.array_equal(stages["07_complement"].data, ~result.vessel_map.data)
        assert stages["03_mfr"] is result.mfr_image
        assert np.array_equal(result.mfr_image.data,
                              normalize_response(result.mfr).data)
        again = run_pipeline(phantom.rgb, phantom.fov, params, bank)
        assert np.array_equal(again.vessel_map.data, result.vessel_map.data)

    def test_callback_error_reaches_caller_and_stops_the_run(self, monkeypatch):
        phantom = generate_phantom(size=64, seed=7)
        params = _phantom_params()
        bank = build_bank(params.kernel)
        histograms = []

        def counted(*args):
            histograms.append(args)
            return build_histogram(*args)

        monkeypatch.setattr(vesselmf.segment, "build_histogram", counted)

        class Stop(Exception):
            pass

        def on_stage(name, image):
            if name == "03_mfr":
                raise Stop(name)

        with pytest.raises(Stop) as err:
            run_pipeline(phantom.rgb, phantom.fov, params, bank, on_stage)
        assert type(err.value) is Stop
        assert histograms == []
        run_pipeline(phantom.rgb, phantom.fov, params, bank)
        assert len(histograms) == 1

    def test_dimension_mismatch_rejected(self):
        phantom = generate_phantom(size=64)
        other = generate_phantom(size=96)
        params = _phantom_params()
        bank = build_bank(params.kernel)
        with pytest.raises(ValueError):
            run_pipeline(phantom.rgb, other.fov, params, bank)


def test_default_min_component_size_scaling():
    assert default_min_component_size(565, 584) == 30
    assert default_min_component_size(565 * 2, 584 * 2) == 120
    assert default_min_component_size(10, 10) == 0
