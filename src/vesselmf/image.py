"""Raster containers shared across the pipeline.

All images are row-major numpy arrays whose shape is their size: 8-bit
color (``RgbImage``), unit-interval gray (``GrayImage``) and boolean masks
(``BinaryImage``).  Instances are treated as immutable values after
construction; none of the pipeline stages write into an input array.
``check_same_size`` is the one size check between two images.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerated float overshoot before a gray image is rejected as out of range.
_RANGE_SLACK = 1e-9


@dataclass
class _Raster:
    """``data`` converted to the class's dtype, (height, width[, 3])."""

    data: np.ndarray

    _dtype = None           # set by each image class
    _channels = None        # 3 for a color raster, None for a 2-D one

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=self._dtype)
        if self._channels is None:
            if arr.ndim != 2:
                raise ValueError(f"expected 2-D array, got shape {arr.shape}")
        elif arr.ndim != 3 or arr.shape[2] != self._channels:
            raise ValueError(f"expected (h, w, 3) array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image dimensions must be at least 1x1")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_array(cls, arr, **kwargs):
        """``cls(arr, **kwargs)``, the constructor callers use."""
        return cls(arr, **kwargs)


def check_same_size(a, b, what: str):
    """Raise ``ValueError`` unless images ``a`` and ``b`` have one size;
    ``what`` names the two images in the message."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"{what} differ in size: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


@dataclass
class RgbImage(_Raster):
    """8-bit color raster; ``data`` has shape (height, width, 3)."""

    _dtype = np.uint8
    _channels = 3


@dataclass
class GrayImage(_Raster):
    """Real-valued raster with every sample in [0, 1].

    ``degenerate`` marks images produced by a stage that hit its
    flat-input fallback (constant color image, constant filter response).
    ``levels`` is the 256-level quantization every consumer reads.
    """

    _dtype = np.float64
    degenerate: bool = False
    _levels: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        super().__post_init__()
        arr = self.data
        lo, hi = arr.min(), arr.max()
        # written so that NaN, which fails every comparison, is rejected
        if not (lo >= -_RANGE_SLACK and hi <= 1.0 + _RANGE_SLACK):
            raise ValueError(f"gray values outside [0, 1]: min={lo}, max={hi}")
        if lo < 0.0 or hi > 1.0:
            self.data = np.clip(arr, 0.0, 1.0)

    @property
    def levels(self) -> np.ndarray:
        """``quantize_levels(data)`` as uint8, computed on first use and kept."""
        if self._levels is None:
            self._levels = quantize_levels(self.data).astype(np.uint8)
        return self._levels


@dataclass
class BinaryImage(_Raster):
    """Boolean raster; True marks foreground (vessel) pixels."""

    _dtype = bool


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
