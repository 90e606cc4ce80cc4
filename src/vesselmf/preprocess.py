"""Color-to-gray conversion and contrast enhancement.

The gray conversion projects each pixel's RGB vector onto the eigenvectors
of the channel covariance and blends the projections with eigenvalue
weights, so the output preserves whatever chromatic contrast the image
actually has.  The enhancement step is contrast-limited adaptive histogram
equalization with bilinear blending between tile mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage, RgbImage


@dataclass(frozen=True)
class ClaheParams:
    """Tile grid, clip limit (fraction of the tile pixel count) and histogram size."""

    tiles_x: int = 8
    tiles_y: int = 8
    clip_limit: float = 0.01
    bins: int = 256

    def __post_init__(self):
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError("tile counts must be at least 1")
        if not 0.0 < self.clip_limit <= 1.0:
            raise ValueError("clip_limit must be in (0, 1]")
        if self.bins < 2:
            raise ValueError("bins must be at least 2")


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector orientation: positive sum, then positive
    first nonzero entry on ties."""
    s = vec.sum()
    if abs(s) > 1e-12:
        return vec if s > 0 else -vec
    for v in vec:
        if abs(v) > 1e-12:
            return vec if v > 0 else -vec
    return vec


def pca_grayscale(image: RgbImage) -> GrayImage:
    """Project RGB pixels onto the channel-covariance eigenbasis.

    Channels are scaled to [0, 1] and mean-centered; the gray value of a
    pixel is the eigenvalue-weighted sum of its projections onto the unit
    eigenvectors, min-max normalized over the image.  A constant image has
    no eigenstructure and comes back as a flat 0.5 raster with the
    degenerate flag set.
    """
    pixels = image.data.reshape(-1, 3)
    if np.all(pixels == pixels[0]):
        flat = np.full((image.height, image.width), 0.5)
        return GrayImage.from_array(flat, degenerate=True)

    centered = pixels / 255.0
    centered -= centered.mean(axis=0)
    cov = centered.T @ centered / len(centered)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    evals = np.clip(evals[order], 0.0, None)
    basis = np.stack([_fix_sign(evecs[:, k]) for k in order], axis=1)

    weights = evals / evals.sum()
    gray = centered @ (basis @ weights)
    lo, hi = gray.min(), gray.max()
    if hi - lo <= 0.0:
        flat = np.full((image.height, image.width), 0.5)
        return GrayImage.from_array(flat, degenerate=True)
    gray = (gray - lo) / (hi - lo)
    return GrayImage.from_array(gray.reshape(image.height, image.width))


def _tile_mapping(bin_idx: np.ndarray, params: ClaheParams) -> np.ndarray:
    """Equalization lookup for one tile: clip, redistribute, cumulate."""
    hist = np.bincount(bin_idx.ravel(), minlength=params.bins).astype(np.float64)
    n = bin_idx.size
    limit = params.clip_limit * n
    excess = np.clip(hist - limit, 0.0, None).sum()
    hist = np.minimum(hist, limit) + excess / params.bins
    return np.cumsum(hist) / n


def _center_weights(length: int, edges: np.ndarray):
    """Indices of the bracketing tiles and blend fractions per coordinate."""
    centers = (edges[:-1] + edges[1:]) / 2.0
    coords = np.arange(length, dtype=np.float64)
    if len(centers) == 1:
        idx = np.zeros(length, dtype=np.intp)
        return idx, idx, np.zeros(length)
    upper = np.searchsorted(centers, coords, side="right")
    i0 = np.clip(upper - 1, 0, len(centers) - 2)
    i1 = i0 + 1
    frac = (coords - centers[i0]) / (centers[i1] - centers[i0])
    return i0, i1, np.clip(frac, 0.0, 1.0)


def clahe(image: GrayImage, params: ClaheParams = ClaheParams()) -> GrayImage:
    """Contrast-limited adaptive histogram equalization.

    Per-tile histograms are clipped at ``clip_limit`` times the tile pixel
    count with the excess spread uniformly over all bins; each output pixel
    blends the four surrounding tile equalization mappings bilinearly, with
    edge tiles replicated beyond the outermost tile centers.
    """
    h, w = image.height, image.width
    if h < params.tiles_y or w < params.tiles_x:
        raise ValueError(
            f"image {w}x{h} smaller than tile grid "
            f"{params.tiles_x}x{params.tiles_y}"
        )

    bin_idx = np.minimum((image.data * params.bins).astype(np.intp), params.bins - 1)
    row_edges = np.round(np.linspace(0, h, params.tiles_y + 1)).astype(int)
    col_edges = np.round(np.linspace(0, w, params.tiles_x + 1)).astype(int)

    mappings = np.empty((params.tiles_y, params.tiles_x, params.bins))
    for ti in range(params.tiles_y):
        for tj in range(params.tiles_x):
            tile = bin_idx[row_edges[ti]:row_edges[ti + 1],
                           col_edges[tj]:col_edges[tj + 1]]
            mappings[ti, tj] = _tile_mapping(tile, params)

    r0, r1, fy = _center_weights(h, row_edges)
    c0, c1, fx = _center_weights(w, col_edges)
    fy = fy[:, None]
    fx = fx[None, :]

    top = ((1 - fx) * mappings[r0[:, None], c0[None, :], bin_idx]
           + fx * mappings[r0[:, None], c1[None, :], bin_idx])
    bottom = ((1 - fx) * mappings[r1[:, None], c0[None, :], bin_idx]
              + fx * mappings[r1[:, None], c1[None, :], bin_idx])
    out = (1 - fy) * top + fy * bottom
    return GrayImage.from_array(out)
