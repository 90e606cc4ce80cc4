"""From filter response to the final vessel map.

The response image is quantized to 256 levels, thresholded at the level
maximizing between-class variance, cleaned of small connected components,
and clipped to the camera field of view.  ``run_pipeline`` runs every
stage, preprocessing and filtering included, in one declared order, and
hands each intermediate image to an optional ``on_stage(name, image)``
callback (the CLI's stage dumps) or drops it.  The stages before and after
the filter are their own functions, ``enhance_stages`` and
``response_stages``, so a parameter sweep can run the first once per image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image import BinaryImage, GrayImage, RgbImage
from .kernels import KernelBank, KernelParams
from .preprocess import ClaheParams, clahe, luma_grayscale, pca_grayscale
from .response import ResponseImage, max_response, normalize_response

# DRIVE frame size; the small-component cutoff scales with image area
# relative to it.
_REFERENCE_AREA = 565 * 584


@dataclass
class Histogram:
    """256-level gray histogram: raw counts and their total."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (256,):
            raise ValueError(f"expected 256 bins, got shape {counts.shape}")
        if counts.min() < 0:
            raise ValueError("negative bin count")
        if int(counts.sum()) != self.total or self.total < 1:
            raise ValueError("total does not match bin counts")
        self.counts = counts


@dataclass
class ThresholdDiagnostics:
    """Chosen level plus the class statistics behind it.

    omega0/omega1 are the class probabilities at the chosen split, mu0/mu1
    the class mean levels, mu_t the overall mean, sigma_b2 the between-class
    variance at the split, sigma_t2 the total variance and eta their ratio.
    ``degenerate`` marks single-level histograms where every split is empty
    on one side.
    """

    k_star: int
    omega0: float
    omega1: float
    mu0: float
    mu1: float
    mu_t: float
    sigma_b2: float
    sigma_t2: float
    eta: float
    degenerate: bool = False


@dataclass
class PipelineParams:
    """Everything the per-image pipeline needs besides the kernel bank."""

    kernel: KernelParams
    clahe: ClaheParams = field(default_factory=ClaheParams)
    min_component_size: int = 30
    otsu_scope: str = "full-image"   # or "fov-only"
    gray_mode: str = "pca"           # "luma" is a CLI fallback, not evaluated

    def __post_init__(self):
        if self.min_component_size < 0:
            raise ValueError("min_component_size must be non-negative")
        if self.otsu_scope not in ("full-image", "fov-only"):
            raise ValueError(f"unknown otsu_scope {self.otsu_scope!r}")
        if self.gray_mode not in ("pca", "luma"):
            raise ValueError(f"unknown gray_mode {self.gray_mode!r}")


@dataclass
class SegmentationResult:
    vessel_map: BinaryImage          # vessel = True, False outside the FOV
    mfr: ResponseImage               # raw response and winning orientation
    mfr_image: GrayImage             # mfr normalized to [0, 1]; Otsu's input
    diagnostics: ThresholdDiagnostics
    degenerate_flags: set = field(default_factory=set)


class PipelineStageError(RuntimeError):
    """Failure inside one pipeline stage, labelled with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.__cause__ = cause


def default_min_component_size(width: int, height: int, base: int = 30) -> int:
    """Scale the small-component cutoff by image area relative to DRIVE."""
    return max(0, round(base * (width * height) / _REFERENCE_AREA))


def build_histogram(image: GrayImage, mask: BinaryImage | None = None) -> Histogram:
    """Count quantized levels, optionally over mask-true pixels only."""
    levels = image.levels
    if mask is not None:
        if (mask.width, mask.height) != (image.width, image.height):
            raise ValueError("mask dimensions do not match image")
        levels = levels[mask.data]
        if levels.size == 0:
            raise ValueError("empty masked region: no pixels to count")
    counts = np.bincount(levels.ravel(), minlength=256)
    return Histogram(counts=counts, total=int(counts.sum()))


def otsu_curves(h: Histogram):
    """Per-split class statistics for every candidate level k.

    Returns (valid, omega0, mu0, mu1, sigma_b2) arrays of length 256, where
    ``valid[k]`` is True when both classes at split k are populated.  Splits
    put levels <= k in the background class and levels > k in the object
    class.
    """
    counts = h.counts
    total = h.total
    levels = np.arange(256, dtype=np.int64)

    c0 = np.cumsum(counts)                     # pixels at or below k
    s0 = np.cumsum(counts * levels)            # level mass at or below k
    s_total = int(s0[-1])
    mu_t = s_total / total

    valid = (c0 > 0) & (c0 < total)
    omega0 = c0 / total
    omega1 = 1.0 - omega0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = np.where(c0 > 0, s0 / np.maximum(c0, 1), 0.0)
        mu1 = np.where(c0 < total, (s_total - s0) / np.maximum(total - c0, 1), 0.0)
    sigma_b2 = np.where(
        valid,
        omega0 * (mu0 - mu_t) ** 2 + omega1 * (mu1 - mu_t) ** 2,
        0.0,
    )
    return valid, omega0, mu0, mu1, sigma_b2


def otsu_threshold(h: Histogram) -> ThresholdDiagnostics:
    """Level maximizing between-class variance; ties break to the smallest k.

    Downstream binarization puts a pixel in the object class when its level
    is strictly above ``k_star``.
    """
    counts = h.counts
    total = h.total
    levels = np.arange(256, dtype=np.float64)
    p = counts / total
    mu_t = float(levels @ p)
    sigma_t2 = float(((levels - mu_t) ** 2) @ p)

    valid, omega0, mu0, mu1, sigma_b2 = otsu_curves(h)

    if not valid.any():
        # Single populated level: no split separates anything.
        k = int(np.flatnonzero(counts)[0])
        return ThresholdDiagnostics(
            k_star=k, omega0=1.0, omega1=0.0, mu0=float(k), mu1=0.0,
            mu_t=mu_t, sigma_b2=0.0, sigma_t2=sigma_t2, eta=0.0,
            degenerate=True,
        )

    scored = np.where(valid, sigma_b2, -1.0)
    k = int(np.argmax(scored))   # first maximum = smallest k
    best = float(sigma_b2[k])
    eta = best / sigma_t2 if sigma_t2 > 0 else 0.0
    return ThresholdDiagnostics(
        k_star=k,
        omega0=float(omega0[k]),
        omega1=float(1.0 - omega0[k]),
        mu0=float(mu0[k]),
        mu1=float(mu1[k]),
        mu_t=mu_t,
        sigma_b2=best,
        sigma_t2=sigma_t2,
        eta=float(eta),
    )


def binarize(image: GrayImage, k_star: int,
             mask: BinaryImage | None = None) -> BinaryImage:
    """True where the quantized level is strictly above ``k_star``."""
    out = image.levels > k_star
    if mask is not None:
        if (mask.width, mask.height) != (image.width, image.height):
            raise ValueError("mask dimensions do not match image")
        out &= mask.data
    return BinaryImage.from_array(out)


def _root_labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Smallest node of each node's connected component, for edges (u, v).

    Union-find over whole arrays: each round hooks the larger root of every
    edge whose ends have different roots onto the smaller one, then jumps
    pointers until every node points at its root.
    """
    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        split = ru != rv
        if not split.any():
            return parent
        u, v = u[split], v[split]
        ru, rv = ru[split], rv[split]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def length_filter(image: BinaryImage, min_size: int) -> BinaryImage:
    """Drop 8-connected foreground components smaller than ``min_size``.

    Components are labelled over row runs: runs on neighbouring rows that
    touch, diagonals included, are joined by union-find, and a component's
    size is the sum of its run lengths.
    """
    data = image.data
    if min_size <= 1 or not data.any():
        return BinaryImage.from_array(data.copy())
    height, width = data.shape
    # One False column on each side keeps runs of adjacent rows apart; a
    # run's key is its position in the flattened padded rows.
    stride = width + 2
    flat = np.zeros((height, stride), dtype=bool)
    flat[:, 1:-1] = data
    flat = flat.ravel()
    starts = np.flatnonzero(flat[1:] & ~flat[:-1]) + 1
    ends = np.flatnonzero(flat[:-1] & ~flat[1:])
    # Runs of the row above touching run b are those ending at or right of
    # column start(b) - 1 and starting at or left of column end(b) + 1: one
    # contiguous slice [first, stop) of the raster-ordered runs.
    first = np.searchsorted(ends, starts - stride - 1, side="left")
    stop = np.searchsorted(starts, ends - stride + 1, side="right")
    touching = np.maximum(stop - first, 0)
    below = np.repeat(np.arange(starts.size), touching)
    offsets = np.arange(below.size) - np.repeat(
        np.cumsum(touching) - touching, touching)
    above = np.repeat(first, touching) + offsets
    roots = _root_labels(above, below, starts.size)
    lengths = ends - starts + 1
    sizes = np.bincount(roots, weights=lengths, minlength=starts.size)
    out = np.zeros_like(data)
    out[data] = np.repeat(sizes[roots] >= min_size, lengths)
    return BinaryImage.from_array(out)


def apply_mask(image: BinaryImage, fov: BinaryImage) -> BinaryImage:
    """Pixelwise AND with the field-of-view mask."""
    if (image.width, image.height) != (fov.width, fov.height):
        raise ValueError(
            f"mask {fov.width}x{fov.height} does not match "
            f"image {image.width}x{image.height}"
        )
    return BinaryImage.from_array(image.data & fov.data)


def complement(image: BinaryImage) -> BinaryImage:
    """Pixelwise NOT."""
    return BinaryImage.from_array(~image.data)


def _skip(name, image):
    """Stage callback that keeps nothing."""


def run_stage(name: str, fn, *args):
    """``fn(*args)``, with any failure raised as a ``PipelineStageError``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def enhance_stages(rgb: RgbImage, fov: BinaryImage, params: PipelineParams,
                   flags: set, on_stage=_skip):
    """The stages before the filter, 01_gray and 02_enhanced: returns the
    enhanced image.  Checks first that the FOV mask fits the image."""
    if (rgb.width, rgb.height) != (fov.width, fov.height):
        raise ValueError("FOV mask dimensions do not match image")
    if params.gray_mode == "luma":
        gray = run_stage("grayscale", luma_grayscale, rgb)
    else:
        gray = run_stage("pca_grayscale", pca_grayscale, rgb)
    if gray.degenerate:
        flags.add("pca_grayscale")
    on_stage("01_gray", gray)

    enhanced = run_stage("clahe", clahe, gray, params.clahe)
    on_stage("02_enhanced", enhanced)
    return enhanced


def response_stages(resp: ResponseImage, fov: BinaryImage,
                    params: PipelineParams, flags: set,
                    on_stage=_skip) -> SegmentationResult:
    """The stages after the filter, 03_mfr to 07_complement: returns the
    SegmentationResult."""
    norm = run_stage("normalize_response", normalize_response, resp)
    if norm.degenerate:
        flags.add("normalize_response")
    on_stage("03_mfr", norm)

    hist_mask = fov if params.otsu_scope == "fov-only" else None
    hist = run_stage("build_histogram", build_histogram, norm, hist_mask)
    diag = run_stage("otsu_threshold", otsu_threshold, hist)
    if diag.degenerate:
        flags.add("otsu_threshold")

    binary = run_stage("binarize", binarize, norm, diag.k_star)
    on_stage("04_threshold", binary)
    cleaned = run_stage("length_filter", length_filter, binary,
                        params.min_component_size)
    on_stage("05_length_filtered", cleaned)
    vessels = run_stage("apply_mask", apply_mask, cleaned, fov)
    on_stage("06_masked", vessels)
    on_stage("07_complement", complement(vessels))

    return SegmentationResult(vessel_map=vessels, mfr=resp, mfr_image=norm,
                              diagnostics=diag, degenerate_flags=flags)


def run_pipeline(rgb: RgbImage, fov: BinaryImage, params: PipelineParams,
                 bank: KernelBank, on_stage=None) -> SegmentationResult:
    """Full per-image run: gray, enhance, filter, threshold, clean, mask.

    The stages, in order: 01_gray, 02_enhanced, 03_mfr (the normalized
    response), 04_threshold, 05_length_filtered, 06_masked (the vessel map)
    and 07_complement, the inverted rendering some figures show.  The vessel
    map keeps vessel-as-True polarity throughout.  ``on_stage(name,
    image)``, when given, is called with each as it is produced; what it
    raises reaches the caller unwrapped and stops the run.  Deterministic:
    identical inputs give bit-identical maps.  No intermediate is kept
    beyond what the result holds.
    """
    on_stage = on_stage or _skip
    flags: set[str] = set()
    enhanced = enhance_stages(rgb, fov, params, flags, on_stage)
    resp = run_stage("max_response", max_response, enhanced, bank)
    return response_stages(resp, fov, params, flags, on_stage)
