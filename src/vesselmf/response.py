"""Filter response aggregation across the oriented kernel bank."""

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


def _correlations(image: GrayImage, kernels):
    """Yield the correlation of the image with each kernel, in order.

    The kernels share one grid shape.  The image is shifted by one of its own
    pixels, edge-padded by the kernel half-size and zero-padded to a 5-smooth
    size; its spectrum is taken once, and each kernel's correlation is the
    inverse transform of that spectrum times the conjugate of the kernel's,
    cropped to the image.  The edge padding makes the result the
    edge-replicated correlation, and the zero padding keeps the circular
    wrap-around out of the crop.
    """
    kh, kw = kernels[0].weights.shape
    if image.height < kh or image.width < kw:
        raise ValueError(
            f"image {image.width}x{image.height} smaller than kernel {kw}x{kh}"
        )
    data = image.data
    padded = np.pad(data - data[0, 0], ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="edge")
    shape = (_smooth_size(padded.shape[0]), _smooth_size(padded.shape[1]))
    spectrum = np.fft.rfft2(padded, s=shape)
    for kernel in kernels:
        product = np.fft.rfft2(kernel.weights, s=shape)
        np.conjugate(product, out=product)
        product *= spectrum
        yield np.fft.irfft2(product, s=shape)[:image.height, :image.width]


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
    return next(_correlations(image, [kernel])).copy()


def max_response(image: GrayImage, bank: KernelBank) -> ResponseImage:
    """Pointwise maximum over all orientation responses.

    Each orientation's response is the FFT correlation of ``convolve``; a
    running maximum and argmax are kept, so no orientation stack is built.
    Ties go to the lowest orientation index (a later orientation must be
    strictly greater), which keeps the winner map deterministic.
    """
    responses = _correlations(image, bank.kernels)
    best = next(responses).copy()
    winner = np.zeros(best.shape, dtype=np.intp)
    better = np.empty(best.shape, dtype=bool)
    for index, response in enumerate(responses, start=1):
        np.greater(response, best, out=better)
        np.maximum(best, response, out=best)
        np.copyto(winner, index, where=better)
    return ResponseImage(
        width=image.width,
        height=image.height,
        response=best,
        best_orientation=winner,
    )


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
