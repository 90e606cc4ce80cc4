"""Coarse-to-fine parameter search maximizing mean segmentation accuracy.

The truncation half-width and profile scale are searched jointly over three
rounds: a coarse grid, then a window of +/-0.5 at step 0.1 around the best
point, then +/-0.1 at step 0.01; both fine windows are clipped to the
round-1 bounds, so they never leave the round-1 grid.  The segment length
gets its own one-dimensional integer scan.

The searched values (x_limit, sigma, length) change only the kernel bank,
so the searches take a ``PreparedDataset``: per image, ``prepare_image``
runs the gray conversion, CLAHE (``segment.enhance_stages``) and the padded
image spectrum once.  Library use is ``three_round_search(prepared, rx,
rs)`` on ``prepared = PreparedDataset(base, [prepare_image(image, fov, gt,
base) for image, fov, gt in dataset])``.  Per combination
the search builds the bank from the base's kernel with the searched values;
``evaluate_combo(prepared, bank)`` scores each distinct bank once under the
base's settings, taking its conjugate kernel spectra once per transform
shape and running per image only ``response.spectrum_response`` and
``segment.response_stages``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .image import check_same_size
from .kernels import KernelBank, KernelConstructionError, build_bank
from .metrics import basic_metrics, confusion
from .response import image_spectrum, kernel_spectra, spectrum_response
from .segment import PipelineParams, enhance_stages, response_stages, run_stage

# Most values one grid may hold; the default round-1 grids hold 20.
MAX_GRID_VALUES = 10_000


class SweepError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """One inclusive-endpoint arithmetic grid: lo, lo+step, ... <= hi."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        for name in ("lo", "hi", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"grid {name} must be finite, got {getattr(self, name)}")
        if self.lo > self.hi:
            raise ValueError(f"lo {self.lo} exceeds hi {self.hi}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        # more than MAX_GRID_VALUES values, counted without building them
        if self._span() >= MAX_GRID_VALUES:
            raise ValueError(
                f"grid {self.lo:g}:{self.hi:g}:{self.step:g} holds more than "
                f"{MAX_GRID_VALUES} values")

    def _span(self) -> float:
        return (self.hi - self.lo) / self.step + 1e-9

    def values(self) -> list[float]:
        n = int(math.floor(self._span())) + 1
        return [self.lo + i * self.step for i in range(n)]


@dataclass
class SweepResult:
    """Full evaluation log plus the argmax tuple and per-round winners.

    Every entry is (x_limit, sigma, length, mean_accuracy); the log keeps
    grid order, so a round's center, visited again by the next round,
    appears once per round.  The accuracy is None for a combination whose
    kernel bank cannot be built; such an entry is never a best.
    """

    evaluations: list
    best: tuple
    round_bests: list


@dataclass
class PreparedDataset:
    """What no searched parameter changes, computed once per search.

    ``images`` holds one ``prepare_image`` triple per dataset image, in
    dataset order, and may not be empty.  ``base`` holds the settings the
    spectra were built with (CLAHE, kernel grid), the settings every bank is
    scored under (Otsu scope, component size; an unset size follows each
    image's area, as in ``run_pipeline``), and the values a search holds
    fixed: the length of ``three_round_search``, the x_limit and sigma of
    ``length_search``.
    """

    base: PipelineParams
    images: list

    def __post_init__(self):
        if not self.images:
            raise SweepError("sweep needs a non-empty dataset")


def prepare_image(image, fov, gt, base: PipelineParams):
    """The (ImageSpectrum, fov, gt) triple of one (image, fov, gt): its gray
    conversion, CLAHE and image spectrum for kernels of the base's grid."""
    check_same_size(image, gt, "image and ground truth")
    enhanced = enhance_stages(image, fov, base, set())
    spectrum = run_stage("max_response", image_spectrum, enhanced,
                         (base.kernel.grid_rows, base.kernel.grid_cols))
    return spectrum, fov, gt


def evaluate_combo(prepared: PreparedDataset, bank: KernelBank) -> float:
    """Mean accuracy of the bank over the prepared images, under the
    prepared base's settings.  The image spectra were padded for the base's
    kernel grid, so every kernel of the bank must have that shape."""
    grid = (prepared.base.kernel.grid_rows, prepared.base.kernel.grid_cols)
    for kernel in bank.kernels:
        if kernel.weights.shape != grid:
            raise SweepError(f"kernel shape {kernel.weights.shape} differs "
                             f"from the prepared kernel grid {grid}")
    spectra = {}        # transform shape -> conjugate kernel spectra
    accuracies = []
    for index, (spectrum, fov, gt) in enumerate(prepared.images):
        try:
            if spectrum.shape not in spectra:
                spectra[spectrum.shape] = list(
                    kernel_spectra(bank.kernels, spectrum.shape))
            resp = run_stage("max_response", spectrum_response, spectrum,
                             spectra[spectrum.shape])
            result = response_stages(resp, fov, prepared.base, set())
            _, _, acc = basic_metrics(confusion(result.vessel_map, gt))
            if acc is None:
                raise ValueError("accuracy undefined (no pixels)")
        except Exception as exc:
            raise SweepError(
                f"combo x={bank.params.x_limit} sigma={bank.params.sigma} "
                f"L={bank.params.length}: image #{index} failed: {exc}"
            ) from exc
        accuracies.append(acc)
    return float(np.mean(accuracies))


def _scorer(prepared: PreparedDataset):
    """Mean accuracy by (x_limit, sigma, length) at the prepared base, or
    None where the kernel bank cannot be built (e.g. a flat profile); a bank
    whose weights an earlier combination had (a round's center, or an
    x_limit step that moves no grid cell across the truncation) is not
    evaluated again, as the score depends only on them."""
    by_weights = {}     # the bank's weight bytes -> score

    def score(x, sigma, length) -> float | None:
        try:
            bank = build_bank(replace(
                prepared.base.kernel, x_limit=float(x), sigma=float(sigma),
                length=float(length)))
        except KernelConstructionError:
            return None
        weights = tuple(k.weights.tobytes() for k in bank.kernels)
        if weights not in by_weights:
            by_weights[weights] = evaluate_combo(prepared, bank)
        return by_weights[weights]

    return score


def _run_grid(score, xs, sigmas, length, log):
    log.extend((x, s, length, score(x, s, length))
               for x in xs for s in sigmas)


def _window(center: float, radius: float, step: float,
            lo_bound: float, hi_bound: float) -> GridSpec:
    return GridSpec(max(center - radius, lo_bound),
                    min(center + radius, hi_bound), step)


def three_round_search(prepared: PreparedDataset, round1_x: GridSpec,
                       round1_sigma: GridSpec) -> SweepResult:
    """Joint (x_limit, sigma) search at the prepared base's length.

    Round 2 re-grids +/-0.5 around the round-1 winner at step 0.1 and round
    3 re-grids +/-0.1 at step 0.01, both clipped to the round-1 bounds so
    the search never leaves the round-1 grid.  Ties at every stage break
    to the lexicographically smallest (x, sigma).
    """
    score = _scorer(prepared)
    length = prepared.base.kernel.length
    log: list = []
    round_bests = []

    _run_grid(score, round1_x.values(), round1_sigma.values(), length, log)
    round_bests.append(_argmax(log))

    for radius, step in ((0.5, 0.1), (0.1, 0.01)):
        bx, bs = round_bests[-1][0], round_bests[-1][1]
        grid_x = _window(bx, radius, step, round1_x.lo, round1_x.hi)
        grid_s = _window(bs, radius, step, round1_sigma.lo, round1_sigma.hi)
        start = len(log)
        _run_grid(score, grid_x.values(), grid_s.values(), length, log)
        round_bests.append(_argmax(log[start:]))

    return SweepResult(evaluations=log, best=_argmax(log),
                       round_bests=round_bests)


def length_search(prepared: PreparedDataset, lengths) -> SweepResult:
    """Scan integer segment lengths at the prepared base's (x_limit, sigma).

    Ties break to the smallest length.
    """
    lengths = list(lengths)
    if not lengths:
        raise SweepError("empty length grid")
    score = _scorer(prepared)
    log: list = []
    x = prepared.base.kernel.x_limit
    s = prepared.base.kernel.sigma
    for length in lengths:
        log.append((x, s, float(length), score(x, s, length)))
    best = max(_defined(log), key=lambda e: (e[3], -e[2]))
    return SweepResult(evaluations=log, best=best, round_bests=[best])


def _defined(entries):
    """The entries with an accuracy; a SweepError when there is none."""
    defined = [e for e in entries if e[3] is not None]
    if not defined:
        raise SweepError(f"none of {len(entries)} combinations has a kernel "
                         "bank that can be built")
    return defined


def _argmax(entries):
    """Highest accuracy; ties to the lexicographically smallest (x, sigma)."""
    entries = _defined(entries)
    top = max(e[3] for e in entries)
    return min((e for e in entries if e[3] == top), key=lambda e: (e[0], e[1]))
