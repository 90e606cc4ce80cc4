"""Gray conversion and CLAHE against hand-derived and independent oracles."""

import numpy as np
import pytest

from vesselmf import ClaheParams, GrayImage, RgbImage, clahe, pca_grayscale


def _rgb(arr):
    return RgbImage.from_array(np.asarray(arr, dtype=np.uint8))


class TestPcaGrayscale:
    def test_pure_gray_input_equals_normalized_channel(self):
        rng = np.random.default_rng(5)
        channel = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        out = pca_grayscale(_rgb(np.repeat(channel[:, :, None], 3, axis=2)))
        c = channel.astype(float)
        expected = (c - c.min()) / (c.max() - c.min())
        assert np.allclose(out.data, expected, atol=1e-9)
        assert not out.degenerate

    def test_constant_image_degenerate(self):
        out = pca_grayscale(_rgb(np.full((4, 4, 3), 77)))
        assert out.degenerate
        assert np.all(out.data == 0.5)

    def test_two_pixel_image_against_hand_eigensolver(self):
        # Pixels (255,0,0) and (0,255,0) scale to (1,0,0) and (0,1,0).
        # Centered pixels are +/-(0.5,-0.5,0); the covariance then has the
        # single nonzero eigenvalue 0.5 with eigenvector (1,-1,0)/sqrt(2)
        # after the positive-first-entry tie break, so the projections are
        # +/-1/sqrt(2) and min-max normalization gives [1, 0].
        img = _rgb([[[255, 0, 0], [0, 255, 0]]])
        cov = np.array([[0.25, -0.25, 0.0], [-0.25, 0.25, 0.0], [0, 0, 0]])
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.allclose(evals, [0.5, 0.0, 0.0], atol=1e-12)

        out = pca_grayscale(img)
        assert np.allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_output_range_exactly_unit_interval(self):
        rng = np.random.default_rng(6)
        out = pca_grayscale(_rgb(rng.integers(0, 256, (16, 16, 3))))
        assert out.data.min() == 0.0
        assert out.data.max() == 1.0

    def test_invariant_under_pixel_permutation(self):
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 256, (6, 6, 3), dtype=np.uint8)
        perm = rng.permutation(36)
        shuffled = arr.reshape(36, 3)[perm].reshape(6, 6, 3)
        base = pca_grayscale(_rgb(arr)).data.reshape(36)
        out = pca_grayscale(_rgb(shuffled)).data.reshape(36)
        assert np.allclose(out, base[perm], atol=1e-12)


class TestClahe:
    def test_constant_image_nearly_unchanged(self):
        params = ClaheParams(tiles=2, clip_limit=0.001, bins=256)
        img = GrayImage.from_array(np.full((32, 32), 0.7))
        out = clahe(img, params)
        assert np.abs(out.data - 0.7).max() <= 1.0 / params.bins

    def test_single_tile_no_clip_is_global_equalization(self):
        rng = np.random.default_rng(8)
        data = rng.random((12, 12))
        params = ClaheParams(tiles=1, clip_limit=1.0, bins=64)
        out = clahe(GrayImage.from_array(data), params)

        # independent oracle: empirical CDF over quantized levels
        bins = np.minimum((data * params.bins).astype(int), params.bins - 1)
        expected = np.array([
            np.count_nonzero(bins <= b) for b in bins.ravel()
        ]).reshape(data.shape) / data.size
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_two_level_cdf_mapping(self):
        # 50/50 split of 0.2 and 0.8: inclusive CDF maps them to 0.5 and 1.0
        data = np.array([[0.2, 0.8], [0.8, 0.2]])
        params = ClaheParams(tiles=1, clip_limit=1.0, bins=256)
        out = clahe(GrayImage.from_array(data), params)
        assert np.allclose(out.data[data == 0.2], 0.5, atol=1e-12)
        assert np.allclose(out.data[data == 0.8], 1.0, atol=1e-12)

    def test_preserves_unit_range(self):
        rng = np.random.default_rng(9)
        out = clahe(GrayImage.from_array(rng.random((40, 40))), ClaheParams())
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0

    def test_tile_mapping_monotone(self):
        # two pixels in the same tile ordered by value stay ordered
        rng = np.random.default_rng(10)
        data = np.sort(rng.random((16, 16)), axis=1)
        params = ClaheParams(tiles=1, clip_limit=0.5, bins=128)
        out = clahe(GrayImage.from_array(data), params)
        assert np.all(np.diff(out.data, axis=1) >= -1e-12)

    def test_image_smaller_than_grid_rejected(self):
        img = GrayImage.from_array(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            clahe(img, ClaheParams(tiles=8))

    def test_bilinear_blend_between_tiles(self):
        # 8x16 image, 2x2 tiles whose top and bottom rows are alike.  Row 1
        # of each tile row (image rows 1 and 5) holds 0.6 everywhere; the
        # rest of the left tiles is 0.1 and of the right tiles 0.9.  With 4
        # bins and no clipping the left mappings send 0.6 to CDF 1.0 and the
        # right ones to 8/32 = 0.25, so along those rows the output must
        # ramp linearly from 1.0 to 0.25 between the tile centers at
        # columns 4 and 12, with flat replication outside them.
        data = np.empty((8, 16))
        data[:, :8] = 0.1
        data[:, 8:] = 0.9
        data[[1, 5], :] = 0.6
        params = ClaheParams(tiles=2, clip_limit=1.0, bins=4)
        out = clahe(GrayImage.from_array(data), params)
        cols = np.arange(16)
        frac = np.clip((cols - 4) / 8.0, 0.0, 1.0)
        expected = (1 - frac) * 1.0 + frac * 0.25
        assert np.allclose(out.data[[1, 5]], expected, atol=1e-12)
