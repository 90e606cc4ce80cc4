"""Raster containers shared across the pipeline.

All images are row-major numpy arrays wrapped with their dimensions:
8-bit color (``RgbImage``), unit-interval gray (``GrayImage``) and boolean
masks (``BinaryImage``).  Instances are treated as immutable values after
construction; none of the pipeline stages write into an input array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerated float overshoot before a gray image is rejected as out of range.
_RANGE_SLACK = 1e-9


@dataclass
class RgbImage:
    """8-bit color raster; ``data`` has shape (height, width, 3)."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.uint8)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if arr.shape != (self.height, self.width, 3):
            raise ValueError(
                f"rgb data shape {arr.shape} does not match "
                f"{self.height}x{self.width}x3"
            )
        self.data = arr

    @classmethod
    def from_array(cls, arr) -> "RgbImage":
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) array, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], data=arr)


@dataclass
class GrayImage:
    """Real-valued raster with every sample in [0, 1].

    ``degenerate`` marks images produced by a stage that hit its
    flat-input fallback (constant color image, constant filter response).
    ``levels`` is the 256-level quantization every consumer reads.
    """

    width: int
    height: int
    data: np.ndarray
    degenerate: bool = False
    _levels: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"gray data shape {arr.shape} does not match "
                f"{self.height}x{self.width}"
            )
        lo, hi = arr.min(), arr.max()
        if lo < -_RANGE_SLACK or hi > 1.0 + _RANGE_SLACK:
            raise ValueError(f"gray values outside [0, 1]: min={lo}, max={hi}")
        if lo < 0.0 or hi > 1.0:
            arr = np.clip(arr, 0.0, 1.0)
        self.data = arr

    @classmethod
    def from_array(cls, arr, degenerate: bool = False) -> "GrayImage":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], data=arr,
                   degenerate=degenerate)

    @property
    def levels(self) -> np.ndarray:
        """``quantize_levels(data)`` as uint8, computed on first use and kept."""
        if self._levels is None:
            self._levels = quantize_levels(self.data).astype(np.uint8)
        return self._levels


@dataclass
class BinaryImage:
    """Boolean raster; True marks foreground (vessel) pixels."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=bool)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"binary data shape {arr.shape} does not match "
                f"{self.height}x{self.width}"
            )
        self.data = arr

    @classmethod
    def from_array(cls, arr) -> "BinaryImage":
        arr = np.asarray(arr, dtype=bool)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], data=arr)

    def count(self) -> int:
        return int(np.count_nonzero(self.data))


def quantize_levels(values: np.ndarray) -> np.ndarray:
    """Map unit-interval values onto the 256 gray levels, rounding half up."""
    return np.floor(np.asarray(values, dtype=np.float64) * 255.0 + 0.5).astype(np.int64)


def load_mask(image) -> BinaryImage:
    """Binarize a decoded mask image: True where luminance exceeds 0.5.

    Published field-of-view masks are binary; the fixed 0.5 threshold only
    absorbs resampling artifacts from format conversion.
    """
    if isinstance(image, GrayImage):
        lum = image.data
    elif isinstance(image, RgbImage):
        lum = image.data.astype(np.float64).mean(axis=2) / 255.0
    else:
        raise TypeError(f"cannot binarize {type(image).__name__}")
    return BinaryImage.from_array(lum > 0.5)
