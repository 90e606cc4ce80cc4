"""Filter response aggregation across the oriented kernel bank.

Correlation runs by FFT: ``image_spectrum`` and ``kernel_spectra`` prepare
the two transforms, and ``spectrum_response`` is the one loop that
multiplies them, inverts and keeps the running maximum over orientations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage
from .kernels import KernelBank


def _smooth_size(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c that is at least ``n``: a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass
class ImageSpectrum:
    """Spectrum of one image, prepared for correlation with kernels of one
    grid shape: the image is shifted by its top-left pixel, edge-padded by
    the kernel half-size and zero-padded to a 5-smooth transform ``shape``.
    ``height`` x ``width`` is the image, where correlations are cropped."""

    data: np.ndarray                # rfft2 of the padded image, complex128
    shape: tuple[int, int]          # transform shape
    height: int
    width: int


def image_spectrum(image: GrayImage, kernel_shape) -> ImageSpectrum:
    """Transform the image once for kernels of grid shape (rows, cols).

    The edge padding makes each correlation the edge-replicated one, and
    the zero padding keeps the circular wrap-around out of the crop.
    Raises ``ValueError`` for an image smaller than the kernel.
    """
    kh, kw = kernel_shape
    if image.height < kh or image.width < kw:
        raise ValueError(
            f"image {image.width}x{image.height} smaller than kernel {kw}x{kh}"
        )
    data = image.data
    padded = np.pad(data - data[0, 0], ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="edge")
    shape = (_smooth_size(padded.shape[0]), _smooth_size(padded.shape[1]))
    return ImageSpectrum(data=np.fft.rfft2(padded, s=shape), shape=shape,
                         height=image.height, width=image.width)


def kernel_spectra(kernels, shape):
    """Yield the conjugate spectrum of each kernel at transform ``shape``."""
    for kernel in kernels:
        product = np.fft.rfft2(kernel.weights, s=shape)
        np.conjugate(product, out=product)
        yield product


def spectrum_response(spectrum: ImageSpectrum, conj_spectra) -> np.ndarray:
    """Pointwise maximum over the correlations with each kernel.

    ``conj_spectra`` are the conjugate kernel spectra at ``spectrum.shape``
    in orientation order; they are read, not written, so one list serves
    any number of images.  Returns the (height, width) float64 response.
    """
    product = np.empty_like(spectrum.data)
    for index, conj_k in enumerate(conj_spectra):
        # conj(K) * spectrum, in that operand order: the reverse order
        # differs in the last bit, which would move the response.
        np.multiply(conj_k, spectrum.data, out=product)
        response = np.fft.irfft2(product, s=spectrum.shape)[:spectrum.height,
                                                             :spectrum.width]
        if index == 0:
            best = response.copy()
        else:
            np.maximum(best, response, out=best)
    return best


def max_response(image: GrayImage, bank: KernelBank) -> np.ndarray:
    """Pointwise maximum over all orientation responses, a (height, width)
    float64 array.

    Each orientation's response is the correlation of the image with its
    kernel, out(r, c) = sum over grid offsets (dv, du) of
    weights(dv, du) * img(r + dv, c + du), with out-of-bounds pixels
    replicated from the nearest edge and weights indexed from the kernel
    center.  The image is shifted by its top-left pixel first.  The kernels
    sum to zero, so the shift changes the sum only by round-off, and a
    constant image becomes exact zeros: its response is exactly constant
    rather than FFT round-off that normalization would stretch to [0, 1].
    It runs by FFT: the image spectrum is taken once, and each kernel
    spectrum is computed when its orientation comes up.  Raises
    ``ValueError`` for an image smaller than the kernel.
    """
    spectrum = image_spectrum(image, bank.kernels[0].weights.shape)
    return spectrum_response(
        spectrum, kernel_spectra(bank.kernels, spectrum.shape))


def normalize_response(response: np.ndarray) -> GrayImage:
    """Min-max map of the raw response to [0, 1].

    A constant response carries no contrast to stretch; it maps to all
    zeros with the degenerate flag set.
    """
    lo = response.min()
    hi = response.max()
    if hi - lo <= 0.0:
        return GrayImage.from_array(np.zeros_like(response), degenerate=True)
    return GrayImage.from_array((response - lo) / (hi - lo))
