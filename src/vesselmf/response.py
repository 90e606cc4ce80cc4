"""Filter response aggregation across the oriented kernel bank.

Correlation runs by FFT: ``image_spectrum`` and ``kernel_spectra`` prepare
the two transforms, and ``spectrum_response`` is the one loop that
multiplies them, inverts and keeps the running maximum over orientations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage
from .kernels import Kernel, KernelBank


@dataclass
class ResponseImage:
    """Per-pixel maximum filter response and the orientation that won it."""

    width: int
    height: int
    response: np.ndarray            # (height, width) float64, unbounded
    best_orientation: np.ndarray    # (height, width) orientation indices


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
    """Yield the conjugate spectrum of each kernel at transform ``shape``,
    each a new array."""
    for kernel in kernels:
        product = np.fft.rfft2(kernel.weights, s=shape)
        np.conjugate(product, out=product)
        yield product


def convolve(image: GrayImage, kernel: Kernel) -> np.ndarray:
    """Correlation of the image with one kernel, computed by FFT.

    out(r, c) = sum over grid offsets (dv, du) of
    weights(dv, du) * img(r + dv, c + du), with out-of-bounds pixels
    replicated from the nearest edge and weights indexed from the kernel
    center.  The image is shifted by its top-left pixel first.  The kernels
    sum to zero, so the shift changes the sum only by round-off, and a
    constant image becomes exact zeros: its response is exactly constant
    rather than FFT round-off that normalization would stretch to [0, 1].
    Raises ``ValueError`` for an image smaller than the kernel.
    """
    spectrum = image_spectrum(image, kernel.weights.shape)
    return spectrum_response(
        spectrum, kernel_spectra([kernel], spectrum.shape)).response


def spectrum_response(spectrum: ImageSpectrum, conj_spectra) -> ResponseImage:
    """Pointwise maximum over the correlations with each kernel.

    ``conj_spectra`` are the conjugate kernel spectra at ``spectrum.shape``
    in orientation order.  Each is multiplied by the image spectrum in
    place, so they are overwritten: keep that order, ``conj(K) *=
    spectrum``, since ``spectrum * conj(K)`` differs in the last bit.  A
    running maximum and argmax are kept, so no orientation stack is built.
    Ties go to the lowest orientation index (a later orientation must be
    strictly greater), which keeps the winner map deterministic.
    """
    for index, product in enumerate(conj_spectra):
        product *= spectrum.data
        response = np.fft.irfft2(product, s=spectrum.shape)[:spectrum.height,
                                                             :spectrum.width]
        if index == 0:
            best = response.copy()
            winner = np.zeros(best.shape, dtype=np.intp)
            better = np.empty(best.shape, dtype=bool)
        else:
            np.greater(response, best, out=better)
            np.maximum(best, response, out=best)
            np.copyto(winner, index, where=better)
    return ResponseImage(
        width=spectrum.width,
        height=spectrum.height,
        response=best,
        best_orientation=winner,
    )


def max_response(image: GrayImage, bank: KernelBank) -> ResponseImage:
    """Pointwise maximum over all orientation responses.

    Each orientation's response is the FFT correlation of ``convolve``:
    the image spectrum is taken once, and each kernel spectrum is computed
    when its orientation comes up.
    """
    spectrum = image_spectrum(image, bank.kernels[0].weights.shape)
    return spectrum_response(
        spectrum, kernel_spectra(bank.kernels, spectrum.shape))


def normalize_response(resp: ResponseImage) -> GrayImage:
    """Min-max map of the response to [0, 1].

    A constant response carries no contrast to stretch; it maps to all
    zeros with the degenerate flag set.
    """
    lo = resp.response.min()
    hi = resp.response.max()
    if hi - lo <= 0.0:
        return GrayImage.from_array(
            np.zeros_like(resp.response), degenerate=True
        )
    return GrayImage.from_array((resp.response - lo) / (hi - lo))
