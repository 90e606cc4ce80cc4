"""Oriented matched-filter kernels for dark line segments on a bright field.

Each kernel samples a truncated Gaussian cross-profile on an odd-sized
integer grid.  The raw profile is inverted by subtracting every value from
the profile maximum (so a dark vessel produces a positive response), then
mean-centered over the support (so a constant background produces zero
response), and finally divided by the sum of the inverted profile to damp
bright non-vessel structure.  Rotated copies at evenly spaced angles cover
all vessel directions; a cell belongs to a kernel's support when its
rotated coordinates fall inside the truncation window ``|x| <= x_limit``
and ``|y| <= length/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Most orientations a bank may hold: one kernel per degree of the half turn.
MAX_ORIENTATIONS = 180


class KernelConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class KernelParams:
    """Matched-filter parameterization.

    sigma          scale of the Gaussian cross-profile (pixels)
    length         vessel segment length covered by one kernel (pixels)
    x_limit        half-width at which the profile tails are truncated
    n_orientations number of rotated kernels spanning 180 degrees, at most
                   MAX_ORIENTATIONS
    grid_cols      grid width; spans the profile axis at orientation 0
    grid_rows      grid height; spans the length axis at orientation 0
    """

    sigma: float
    length: float
    x_limit: float = 6.99
    n_orientations: int = 12
    grid_cols: int = 15
    grid_rows: int = 17

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma:g}")
        if self.x_limit <= 0:
            raise ValueError(f"x_limit must be positive, got {self.x_limit:g}")
        if self.length < 1:
            raise ValueError(f"length must be at least 1, got {self.length:g}")
        for name in ("sigma", "length", "x_limit"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        corner = (self.grid_cols // 2) ** 2 + (self.grid_rows // 2) ** 2
        _check_sigma(self.sigma, corner,
                     f"the {self.grid_cols}x{self.grid_rows} kernel grid")
        if not 1 <= self.n_orientations <= MAX_ORIENTATIONS:
            raise ValueError(
                f"n_orientations must be in 1..{MAX_ORIENTATIONS}, "
                f"got {self.n_orientations}")
        if self.grid_cols < 1 or self.grid_cols % 2 == 0:
            raise ValueError("grid_cols must be odd so a center cell exists")
        if self.grid_rows < 1 or self.grid_rows % 2 == 0:
            raise ValueError("grid_rows must be odd so a center cell exists")


@dataclass
class Kernel:
    """One realized orientation: weight matrix plus its support mask."""

    theta: float                # degrees
    weights: np.ndarray         # (grid_rows, grid_cols), zero outside support
    support: np.ndarray         # same shape, bool


@dataclass
class KernelBank:
    """All orientations for one parameter set, angles increasing from 0."""

    params: KernelParams
    kernels: tuple

    def __post_init__(self):
        if not self.kernels:
            raise KernelConstructionError(
                f"empty kernel bank for {self.params}")


def _check_sigma(sigma: float, max_x_sq: float, where: str):
    """Raise unless 2 sigma^2 and x^2 / (2 sigma^2) for x^2 up to ``max_x_sq``
    are finite floats; else the weights come out NaN (or sigma**2 raises)."""
    if not max_x_sq / np.finfo(np.float64).max < 2.0 * sigma * sigma < math.inf:
        raise ValueError(f"sigma {sigma:g} is out of range for {where}")


def gaussian_profile(x, sigma: float):
    """exp(-x^2 / (2 sigma^2)); accepts scalars or arrays."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    x_sq = x ** 2
    top = float(x_sq.max(initial=0.0))
    _check_sigma(sigma, top, f"x^2 up to {top:g}")
    out = np.exp(-x_sq / (2.0 * sigma ** 2))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=MAX_ORIENTATIONS)
def _rotated_grid(grid_cols: int, grid_rows: int, theta_degrees: float):
    """Rotated cell centers (x, y) of one grid, read-only: a sweep builds
    the same orientations for every combination."""
    u = np.arange(grid_cols, dtype=np.float64) - grid_cols // 2
    v = np.arange(grid_rows, dtype=np.float64) - grid_rows // 2
    uu, vv = np.meshgrid(u, v)

    t = math.radians(theta_degrees)
    cos_t, sin_t = math.cos(t), math.sin(t)
    x = uu * cos_t - vv * sin_t
    y = uu * sin_t + vv * cos_t
    x.flags.writeable = y.flags.writeable = False
    return x, y


def kernel_at_angle(params: KernelParams, theta_degrees: float) -> Kernel:
    """Build the weight matrix for one orientation.

    Grid cells sit at integer offsets (u, v) from the center cell; the cell
    is classified by rotating its own center, [x, y] = [u, v] times the
    transposed rotation matrix for ``theta``.  The inversion, centering and
    normalization steps run over support cells only.
    """
    x, y = _rotated_grid(params.grid_cols, params.grid_rows, theta_degrees)

    # The pad absorbs rotation round-off for cells landing exactly on the
    # truncation boundary (e.g. |y| = length/2 at axis-aligned angles), so
    # kernels at theta and theta + 180 share their support exactly.
    pad = 1e-9
    support = ((np.abs(x) <= params.x_limit + pad)
               & (np.abs(y) <= params.length / 2.0 + pad))
    if not support.any():
        raise KernelConstructionError(
            f"empty kernel support for {params} at theta={theta_degrees}"
        )

    profile = gaussian_profile(x[support], params.sigma)
    inverted = profile.max() - profile
    normaliser = inverted.sum()
    if normaliser <= 0.0:
        raise KernelConstructionError(
            f"degenerate flat profile (zero normaliser) for {params} "
            f"at theta={theta_degrees}"
        )

    weights = np.zeros_like(x)
    weights[support] = (inverted - inverted.mean()) / normaliser
    return Kernel(theta=float(theta_degrees), weights=weights, support=support)


def build_bank(params: KernelParams) -> KernelBank:
    """All ``n_orientations`` kernels, 0 degrees upward in equal steps."""
    return KernelBank(params=params, kernels=tuple(
        kernel_at_angle(params, i * (180.0 / params.n_orientations))
        for i in range(params.n_orientations)))
