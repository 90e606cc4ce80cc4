"""Kernel construction against the arbitrary-precision golden fixture."""

import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vesselmf import (
    KernelBank,
    KernelConstructionError,
    KernelParams,
    build_bank,
    gaussian_profile,
    kernel_at_angle,
)
from vesselmf.kernels import _rotated_grid

FIXTURE = Path(__file__).parent / "fixtures" / "kernel_golden.json"

DRIVE = KernelParams(sigma=0.57, length=8)
STARE = KernelParams(sigma=1.57, length=9)


class TestGaussianProfile:
    def test_peak_at_zero(self):
        for sigma in (0.3, 0.57, 1.57, 5.0):
            assert gaussian_profile(0.0, sigma) == 1.0

    def test_one_sigma_point(self):
        assert gaussian_profile(2.0, 2.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_truncation_point_high_precision(self):
        # independent 50-digit evaluation of exp(-6.99^2 / (2 * 1.57^2))
        from mpmath import mp, mpf
        mp.dps = 50
        expected = float(mp.e ** (-(mpf("6.99") ** 2) / (2 * mpf("1.57") ** 2)))
        got = gaussian_profile(6.99, 1.57)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_profile(1.0, 0.0)

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_rejects_sigma_whose_exponent_is_not_finite(self, sigma):
        with pytest.raises(ValueError, match=re.escape(f"sigma {sigma:g} is out")):
            gaussian_profile(1.0, sigma)

    def test_small_formable_sigma_is_finite_without_warning(self):
        assert gaussian_profile(np.array([0.0, 1.0]), 1.2e-153).tolist() == [1.0, 0.0]


class TestKernelConstruction:
    def test_support_at_theta_zero_drive(self):
        k = build_bank(DRIVE).kernels[0]
        rows, cols = k.support.shape
        assert (rows, cols) == (17, 15)
        uu = np.arange(cols) - cols // 2
        vv = np.arange(rows) - rows // 2
        expected = (np.abs(uu)[None, :] <= 6.99) & (np.abs(vv)[:, None] <= 4.0)
        assert np.array_equal(k.support, expected)

    def test_center_column_below_extreme_columns(self):
        k = build_bank(DRIVE).kernels[0]
        mid_row = k.weights[8]
        assert mid_row[7] < mid_row[1]
        assert mid_row[7] < mid_row[13]

    @pytest.mark.parametrize("params", [DRIVE, STARE], ids=["drive", "stare"])
    def test_zero_sum_all_orientations(self, params):
        bank = build_bank(params)
        for k in bank.kernels:
            assert abs(k.weights.sum()) <= 1e-9

    def test_golden_fixture_elementwise(self):
        golden = json.loads(FIXTURE.read_text())
        params = KernelParams(
            sigma=golden["sigma"], length=golden["length"],
            x_limit=golden["x_limit"], grid_rows=golden["rows"],
            grid_cols=golden["cols"],
        )
        ours = kernel_at_angle(params, golden["theta_degrees"]).weights
        ref = np.array(golden["weights"])
        assert ours.shape == ref.shape
        tol = 1e-12 * np.maximum(np.abs(ref), 1e-18)
        assert np.all(np.abs(ours - ref) <= tol)

    def test_evenness_at_theta_zero(self):
        k = build_bank(STARE).kernels[0]
        assert np.array_equal(k.weights, k.weights[:, ::-1])
        assert np.array_equal(k.weights, k.weights[::-1, :])

    def test_weight_nondecreasing_in_abs_x(self):
        k = build_bank(DRIVE).kernels[0]
        row = k.weights[8]
        sup = k.support[8]
        xs = np.abs(np.arange(15) - 7)[sup]
        order = np.argsort(xs)
        assert np.all(np.diff(row[sup][order]) >= 0)

    def test_support_monotone_in_length(self):
        small = kernel_at_angle(KernelParams(sigma=1.0, length=3), 37.0)
        large = kernel_at_angle(KernelParams(sigma=1.0, length=9), 37.0)
        assert np.all(large.support | ~small.support)

    def test_half_turn_periodicity(self):
        for params in (DRIVE, STARE):
            for base in build_bank(params).kernels:
                shifted = kernel_at_angle(params, base.theta + 180.0)
                assert np.abs(shifted.weights - base.weights).max() <= 1e-12

    def test_flat_profile_rejected(self):
        # single support column at x = 0 makes every profile value equal
        with pytest.raises(KernelConstructionError):
            kernel_at_angle(
                KernelParams(sigma=1.0, length=5, x_limit=0.5,
                             grid_cols=1, grid_rows=5), 0.0)


class TestBank:
    def test_default_bank_angles(self):
        bank = build_bank(DRIVE)
        assert len(bank.kernels) == 12
        assert [k.theta for k in bank.kernels] == [15.0 * i for i in range(12)]

    def test_single_orientation(self):
        bank = build_bank(KernelParams(sigma=1.0, length=5, n_orientations=1))
        assert len(bank.kernels) == 1
        assert bank.kernels[0].theta == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=0.0, length=8)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, length=0)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, length=8, grid_cols=14)

    @pytest.mark.parametrize("field,value,message", [
        ("sigma", float("nan"), "sigma must be finite, got nan"),
        ("length", float("nan"), "length must be finite, got nan"),
        ("x_limit", float("inf"), "x_limit must be finite, got inf"),
        ("sigma", float("-inf"), "sigma must be positive, got -inf"),
        ("x_limit", 0.0, "x_limit must be positive, got 0"),
    ])
    def test_non_finite_params_rejected(self, field, value, message):
        kwargs = {"sigma": 1.0, "length": 8.0, field: value}
        with pytest.raises(ValueError) as err:
            KernelParams(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("sigma,cols,rows", [
        (1e-200, 15, 17),   # 2 sigma^2 underflows to 0: NaN weights
        (1e-160, 15, 17),   # x^2 / (2 sigma^2) overflows
        (6e-154, 31, 33),   # fine on 15x17, overflows at this grid's corner
        (1e154, 15, 17),    # 2 sigma^2 overflows
        (1e200, 15, 17),    # sigma**2 raises OverflowError
    ])
    def test_sigma_out_of_range_for_its_grid_rejected(self, sigma, cols, rows):
        with pytest.raises(ValueError) as err:
            KernelParams(sigma=sigma, length=8.0, grid_cols=cols,
                         grid_rows=rows)
        assert str(err.value) == (
            f"sigma {sigma:g} is out of range for the {cols}x{rows} kernel grid")

    @pytest.mark.parametrize("sigma", [1.2e-153, 6e-154])
    def test_smallest_accepted_sigmas_build_finite_weights(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bank = build_bank(KernelParams(sigma=sigma, length=8.0))
        for k in bank.kernels:
            assert np.isfinite(k.weights).all()

    @pytest.mark.parametrize("field,value,message", [
        ("length", 0, "length must be at least 1, got 0"),
        ("x_limit", -0.5, "x_limit must be positive, got -0.5"),
        ("n_orientations", 0, "n_orientations must be in 1..180, got 0"),
        ("n_orientations", 181, "n_orientations must be in 1..180, got 181"),
    ])
    def test_out_of_range_params_name_the_value(self, field, value, message):
        kwargs = {"sigma": 1.0, "length": 8.0, field: value}
        with pytest.raises(ValueError) as err:
            KernelParams(**kwargs)
        assert str(err.value) == message

    def test_empty_bank_is_named(self):
        """A bank without kernels fails where it is made, not later inside
        the filter response with an unrelated error."""
        with pytest.raises(KernelConstructionError,
                           match="^empty kernel bank for KernelParams"):
            KernelBank(DRIVE, ())

    def test_one_degree_steps_are_the_finest_bank(self):
        bank = build_bank(KernelParams(sigma=1.0, length=8,
                                       n_orientations=180))
        assert len(bank.kernels) == 180


class TestRotatedGridCache:
    def test_cached_grid_is_read_only(self):
        for grid in _rotated_grid(15, 17, 30.0):
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0] = 0.0

    def test_bank_after_other_grids_equals_a_fresh_build(self):
        golden = json.loads(FIXTURE.read_text())
        params = KernelParams(
            sigma=golden["sigma"], length=golden["length"],
            x_limit=golden["x_limit"], grid_rows=golden["rows"],
            grid_cols=golden["cols"],
        )
        _rotated_grid.cache_clear()
        fresh = [kernel_at_angle(params, i * 15.0) for i in range(12)]
        _rotated_grid.cache_clear()
        # other sizes, the transposed one included, and other angles first
        for cols, rows in ((17, 15), (15, 19), (13, 17)):
            build_bank(replace(params, grid_cols=cols, grid_rows=rows))
        build_bank(replace(params, n_orientations=8))
        bank = build_bank(params)
        for kernel, expected in zip(bank.kernels, fresh, strict=True):
            assert kernel.theta == expected.theta
            assert np.array_equal(kernel.weights, expected.weights)
            assert np.array_equal(kernel.support, expected.support)
        ref = np.array(golden["weights"])
        tol = 1e-12 * np.maximum(np.abs(ref), 1e-18)
        assert np.all(np.abs(bank.kernels[0].weights - ref) <= tol)


def test_fixture_matches_fresh_oracle_run():
    """The committed fixture must reproduce from the generator script."""
    import make_kernel_golden as gen

    golden = json.loads(FIXTURE.read_text())
    assert golden["weights"] == gen.golden_matrix()
