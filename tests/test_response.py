"""Filter response against a brute-force direct-sum convolution oracle."""

import numpy as np
import pytest

from vesselmf import (
    GrayImage,
    KernelParams,
    build_bank,
    max_response,
    normalize_response,
)
from vesselmf.kernels import KernelBank
from vesselmf.response import image_spectrum, kernel_spectra, spectrum_response


def correlate(image: GrayImage, kernel) -> np.ndarray:
    """One kernel's correlation: ``max_response`` over a one-kernel bank,
    which reads only the bank's kernels."""
    return max_response(image, KernelBank(None, (kernel,)))


def naive_convolve(image: GrayImage, kernel) -> np.ndarray:
    """Per-pixel direct sum over the padded window; deliberately dumb."""
    kh, kw = kernel.weights.shape
    pr, pc = kh // 2, kw // 2
    padded = np.pad(image.data, ((pr, pr), (pc, pc)), mode="edge")
    out = np.empty((image.height, image.width))
    for r in range(image.height):
        for c in range(image.width):
            out[r, c] = float(np.sum(padded[r:r + kh, c:c + kw] * kernel.weights))
    return out


def shifted_sum_correlate(image: GrayImage, kernel) -> np.ndarray:
    """The direct sum of ``naive_convolve``, one kernel offset at a time."""
    kh, kw = kernel.weights.shape
    padded = np.pad(image.data, ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="edge")
    out = np.zeros((image.height, image.width))
    for dv in range(kh):
        for du in range(kw):
            out += kernel.weights[dv, du] * padded[dv:dv + image.height,
                                                   du:du + image.width]
    return out


@pytest.fixture(scope="module")
def bank():
    return build_bank(KernelParams(sigma=1.0, length=7))


class TestConvolve:
    def test_constant_image_zero_response(self, bank):
        img = GrayImage.from_array(np.full((24, 24), 0.63))
        for kernel in bank.kernels:
            assert np.abs(correlate(img, kernel)).max() <= 1e-9

    def test_matches_naive_oracle_including_borders(self):
        rng = np.random.default_rng(42)
        img = GrayImage.from_array(rng.random((32, 32)))
        bank = build_bank(KernelParams(sigma=1.2, length=9))
        kernel = bank.kernels[3]   # 45 deg
        fast = correlate(img, kernel)
        assert np.abs(fast - naive_convolve(img, kernel)).max() <= 1e-9

    def test_correlation_peak_on_embedded_pattern(self, bank):
        kernel = bank.kernels[2]
        kh, kw = kernel.weights.shape
        assert np.abs(kernel.weights).max() < 0.5
        # a constant field contributes nothing (zero-sum weights), so adding
        # the pattern on top of 0.5 keeps values in [0, 1] while the center
        # response stays sum(weights^2)
        field = np.full((41, 41), 0.5)
        r0 = (41 - kh) // 2
        c0 = (41 - kw) // 2
        field[r0:r0 + kh, c0:c0 + kw] += kernel.weights
        out = correlate(GrayImage.from_array(field), kernel)
        expected = float(np.sum(kernel.weights ** 2))
        assert expected > 0
        assert out[20, 20] == pytest.approx(expected, abs=1e-12)

    def test_linearity_on_interior(self, bank):
        rng = np.random.default_rng(1)
        a, b = 0.4, 0.3
        i1 = rng.random((20, 20))
        i2 = rng.random((20, 20))
        kernel = bank.kernels[5]
        combined = correlate(GrayImage.from_array(a * i1 + b * i2), kernel)
        split = (a * correlate(GrayImage.from_array(i1), kernel)
                 + b * correlate(GrayImage.from_array(i2), kernel))
        assert np.abs(combined - split)[5:-5, 5:-5].max() <= 1e-9

    def test_image_smaller_than_kernel_rejected(self, bank):
        img = GrayImage.from_array(np.zeros((10, 10)))
        with pytest.raises(ValueError):
            correlate(img, bank.kernels[0])


class TestFftPath:
    """The FFT correlation at sizes that stress padding and transform length."""

    def test_shifted_sum_is_the_naive_sum(self, bank):
        img = GrayImage.from_array(np.random.default_rng(6).random((19, 23)))
        for kernel in bank.kernels[:3]:
            assert np.abs(shifted_sum_correlate(img, kernel)
                          - naive_convolve(img, kernel)).max() <= 1e-12

    @pytest.mark.parametrize("height,width,oracle", [
        (17, 15, naive_convolve),          # exactly kernel-sized
        (61, 67, naive_convolve),          # prime dimensions
        (584, 565, shifted_sum_correlate),  # DRIVE frame: 600x579 padded
    ])
    def test_awkward_sizes_match_direct_sum(self, height, width, oracle):
        bank = build_bank(KernelParams(sigma=1.5, length=9))
        assert bank.kernels[0].weights.shape == (17, 15)
        rng = np.random.default_rng(height * width)
        img = GrayImage.from_array(rng.random((height, width)))
        expected = np.stack([oracle(img, k) for k in bank.kernels])
        for kernel, want in zip(bank.kernels, expected):
            assert np.abs(correlate(img, kernel) - want).max() <= 1e-9
        resp = max_response(img, bank)
        assert np.abs(resp - expected.max(axis=0)).max() <= 1e-9

    def test_one_row_short_of_kernel_rejected(self):
        bank = build_bank(KernelParams(sigma=1.5, length=9))
        img = GrayImage.from_array(np.full((16, 15), 0.5))
        with pytest.raises(ValueError, match="smaller than kernel"):
            max_response(img, bank)

    @pytest.mark.parametrize("value", [1 / 3, 0.63])
    @pytest.mark.parametrize("height,width", [(17, 15), (37, 29), (61, 67)])
    def test_constant_image_exactly_constant_response(self, bank, value,
                                                      height, width):
        img = GrayImage.from_array(np.full((height, width), value))
        resp = max_response(img, bank)
        assert np.ptp(resp) == 0
        assert normalize_response(resp).degenerate

    def test_duplicated_kernels_give_the_one_kernel_response(self, bank):
        dup = KernelBank(params=bank.params, kernels=(bank.kernels[4],) * 3)
        img = GrayImage.from_array(np.random.default_rng(7).random((40, 33)))
        resp = max_response(img, dup)
        assert np.array_equal(resp, correlate(img, bank.kernels[4]))

    def test_kernel_spectra_are_read_not_written(self, bank):
        img = GrayImage.from_array(np.random.default_rng(8).random((40, 33)))
        spectrum = image_spectrum(img, bank.kernels[0].weights.shape)
        conj_spectra = list(kernel_spectra(bank.kernels, spectrum.shape))
        before = [k.copy() for k in conj_spectra]
        first = spectrum_response(spectrum, conj_spectra)
        second = spectrum_response(spectrum, conj_spectra)
        assert first.tobytes() == second.tobytes()
        assert all(k.tobytes() == b.tobytes()
                   for k, b in zip(conj_spectra, before))


def _stripe_image(size=48, col=24, depth=0.5, sigma=1.2, background=0.9):
    cols = np.arange(size, dtype=float)
    dip = depth * np.exp(-((cols - col) ** 2) / (2 * sigma ** 2))
    return GrayImage.from_array(np.tile(background - dip, (size, 1)))


class TestMaxResponse:
    def test_single_kernel_bank_equals_correlate(self):
        params = KernelParams(sigma=1.0, length=7, n_orientations=1)
        bank1 = build_bank(params)
        rng = np.random.default_rng(2)
        img = GrayImage.from_array(rng.random((20, 20)))
        resp = max_response(img, bank1)
        assert np.array_equal(resp, correlate(img, bank1.kernels[0]))

    def test_vertical_stripe_picks_vertical_kernel(self, bank):
        img = _stripe_image()
        per_kernel = np.stack([correlate(img, k) for k in bank.kernels])
        # the winning kernel's length axis is vertical: orientation 0
        assert np.all(np.argmax(per_kernel[:, 16:32, 24], axis=0) == 0)

    def test_max_dominates_each_orientation(self, bank):
        rng = np.random.default_rng(3)
        img = GrayImage.from_array(rng.random((24, 24)))
        resp = max_response(img, bank)
        for kernel in bank.kernels:
            assert np.all(resp >= correlate(img, kernel) - 1e-12)

    def test_mirror_flips_winning_orientation(self, bank):
        # a diagonal stripe flipped left-right maps theta to 180 - theta
        size = 49
        rows, cols = np.meshgrid(np.arange(size), np.arange(size),
                                 indexing="ij")
        dist = np.abs(rows - cols) / np.sqrt(2.0)
        img = GrayImage.from_array(
            0.9 - 0.5 * np.exp(-(dist ** 2) / (2 * 1.2 ** 2)))
        flipped = GrayImage.from_array(img.data[:, ::-1])
        n = len(bank.kernels)
        center = size // 2
        base = np.stack([correlate(img, k) for k in bank.kernels])
        mirror = np.stack([correlate(flipped, k) for k in bank.kernels])
        for r in range(center - 4, center + 5):
            i = int(np.argmax(base[:, r, r]))
            j = int(np.argmax(mirror[:, r, size - 1 - r]))
            assert (i + j) % n == 0


class TestNormalizeResponse:
    def test_affine_map(self):
        out = normalize_response(np.array([[-2.0, 0.0, 2.0]]))
        assert np.allclose(out.data, [[0.0, 0.5, 1.0]])
        assert not out.degenerate

    def test_constant_response_degenerate(self):
        out = normalize_response(np.full((2, 2), 3.7))
        assert out.degenerate
        assert np.all(out.data == 0.0)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(6, 6))
        out = normalize_response(vals)
        flat_in = vals.ravel()
        flat_out = out.data.ravel()
        order = np.argsort(flat_in)
        assert np.all(np.diff(flat_out[order]) >= 0)
