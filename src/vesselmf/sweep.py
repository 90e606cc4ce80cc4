"""Coarse-to-fine parameter search maximizing mean segmentation accuracy.

The truncation half-width and profile scale are searched jointly over three
rounds: a coarse grid, then a window of +/-0.5 at step 0.1 around the best
point (clamped to the coarse bounds), then +/-0.1 at step 0.01.  The
segment length gets its own one-dimensional integer scan.

The searched values (x_limit, sigma, length) change only the kernel bank,
so each search first runs ``prepare``: per image, the gray conversion,
CLAHE (``segment.enhance_stages``) and the padded image spectrum, once.
``evaluate_combo`` then builds the bank and its conjugate kernel spectra
once per combination and transform shape, and per image runs only
``response.spectrum_response`` and ``segment.response_stages``.  A
combination a search visits again (each round's center) is scored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import build_bank
from .metrics import basic_metrics, confusion
from .response import image_spectrum, kernel_spectra, spectrum_response
from .segment import PipelineParams, enhance_stages, response_stages, run_stage

# Lower clamp for both searched axes; keeps sigma and the truncation
# half-width positive in the fine rounds.
_MIN_AXIS_VALUE = 0.01


class SweepError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """One inclusive-endpoint arithmetic grid: lo, lo+step, ... <= hi."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"lo {self.lo} exceeds hi {self.hi}")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def values(self) -> list[float]:
        n = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return [self.lo + i * self.step for i in range(n)]


@dataclass
class SweepResult:
    """Full evaluation log plus the argmax tuple and per-round winners.

    Every entry is (x_limit, sigma, length, mean_accuracy); the log keeps
    grid order, so a round's center, visited again by the next round,
    appears once per round.
    """

    evaluations: list
    best: tuple
    round_bests: list


@dataclass
class PreparedDataset:
    """What no searched parameter changes, computed once per search.

    ``images`` holds one (ImageSpectrum, fov, gt) triple per dataset image,
    in dataset order; ``base`` holds the settings the spectra were built
    with.
    """

    base: PipelineParams
    images: list


def _prepared_settings(params: PipelineParams) -> dict:
    """The settings an image spectrum depends on."""
    return {"gray_mode": params.gray_mode, "clahe": params.clahe,
            "grid_rows": params.kernel.grid_rows,
            "grid_cols": params.kernel.grid_cols}


def prepare(dataset, base: PipelineParams) -> PreparedDataset:
    """Gray conversion, CLAHE and image spectrum of each (image, fov, gt).

    A bad image fails here, once, with its index, before any combination
    is evaluated.
    """
    if not dataset:
        raise SweepError("empty dataset")
    kernel_shape = (base.kernel.grid_rows, base.kernel.grid_cols)
    images = []
    for index, (image, fov, gt) in enumerate(dataset):
        try:
            if (gt.width, gt.height) != (image.width, image.height):
                raise ValueError("ground truth dimensions do not match image")
            enhanced = enhance_stages(image, fov, base, set())
            spectrum = run_stage("max_response", image_spectrum, enhanced,
                                 kernel_shape)
        except Exception as exc:
            raise SweepError(f"image #{index} failed: {exc}") from exc
        images.append((spectrum, fov, gt))
    return PreparedDataset(base=base, images=images)


def evaluate_combo(prepared: PreparedDataset, params: PipelineParams) -> float:
    """Mean accuracy of the pipeline over the prepared images.

    ``params`` may differ from the prepared base only in what comes after
    the image spectrum: the kernel's x_limit, sigma, length and number of
    orientations, the Otsu scope and the component size.
    """
    prepared_with = _prepared_settings(prepared.base)
    for name, value in _prepared_settings(params).items():
        if value != prepared_with[name]:
            raise SweepError(
                f"{name}={value!r} differs from the prepared "
                f"{name}={prepared_with[name]!r}"
            )
    bank = build_bank(params.kernel)
    spectra = {}        # transform shape -> conjugate kernel spectra
    accuracies = []
    for index, (spectrum, fov, gt) in enumerate(prepared.images):
        try:
            if spectrum.shape not in spectra:
                spectra[spectrum.shape] = list(
                    kernel_spectra(bank.kernels, spectrum.shape))
            products = (k.copy() for k in spectra[spectrum.shape])
            resp = run_stage("max_response", spectrum_response, spectrum,
                             products)
            result = response_stages(resp, fov, params, set())
            _, _, acc = basic_metrics(confusion(result.vessel_map, gt))
            if acc is None:
                raise ValueError("accuracy undefined (no pixels)")
        except Exception as exc:
            raise SweepError(
                f"combo x={params.kernel.x_limit} sigma={params.kernel.sigma} "
                f"L={params.kernel.length}: image #{index} failed: {exc}"
            ) from exc
        accuracies.append(acc)
    return float(np.mean(accuracies))


def _combo_params(base: PipelineParams, x_limit, sigma, length) -> PipelineParams:
    kernel = replace(base.kernel, x_limit=float(x_limit), sigma=float(sigma),
                     length=float(length))
    return replace(base, kernel=kernel)


def _scorer(dataset, base: PipelineParams):
    """Mean accuracy by (x_limit, sigma, length), over a dataset prepared
    once; a combination asked for again is not evaluated again."""
    prepared = prepare(dataset, base)
    scores = {}

    def score(x, sigma, length) -> float:
        key = (float(x), float(sigma), float(length))
        if key not in scores:
            scores[key] = evaluate_combo(prepared, _combo_params(base, *key))
        return scores[key]

    return score


def _run_grid(score, xs, sigmas, length, log):
    best = None
    for x in xs:
        for s in sigmas:
            acc = score(x, s, length)
            log.append((x, s, length, acc))
            if best is None or acc > best[3]:
                best = (x, s, length, acc)
    return best


def _window(center: float, radius: float, step: float,
            lo_bound: float | None, hi_bound: float | None) -> GridSpec:
    lo = center - radius
    hi = center + radius
    if lo_bound is not None:
        lo = max(lo, lo_bound)
    if hi_bound is not None:
        hi = min(hi, hi_bound)
    lo = max(lo, _MIN_AXIS_VALUE)
    return GridSpec(lo=lo, hi=hi, step=step)


def three_round_search(dataset, round1_x: GridSpec, round1_sigma: GridSpec,
                       length: float, base: PipelineParams) -> SweepResult:
    """Joint (x_limit, sigma) search at fixed length.

    Round 2 re-grids +/-0.5 around the round-1 winner at step 0.1 and round
    3 re-grids +/-0.1 at step 0.01, both clamped to the round-1 bounds so
    the search never leaves the declared domain.  Ties at every stage break
    to the lexicographically smallest (x, sigma).
    """
    score = _scorer(dataset, base)
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


def length_search(dataset, lengths, base: PipelineParams) -> SweepResult:
    """Scan integer segment lengths at fixed (x_limit, sigma).

    Ties break to the smallest length.
    """
    lengths = list(lengths)
    if not lengths:
        raise SweepError("empty length grid")
    score = _scorer(dataset, base)
    log: list = []
    x = base.kernel.x_limit
    s = base.kernel.sigma
    for length in lengths:
        log.append((x, s, float(length), score(x, s, length)))
    best = max(log, key=lambda e: (e[3], -e[2]))
    return SweepResult(evaluations=log, best=best, round_bests=[best])


def _argmax(entries):
    """Highest accuracy; ties to the lexicographically smallest (x, sigma)."""
    top = max(e[3] for e in entries)
    return min((e for e in entries if e[3] == top), key=lambda e: (e[0], e[1]))
