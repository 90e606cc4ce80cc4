"""Pixelwise evaluation of a segmentation against ground truth.

Confusion counts, the usual three ratios, root-mean-square difference,
the square-root mean-absolute-dispersion statistic, and ROC/AUC over the
quantized response levels.  Zero-denominator metrics are reported as None
rather than coerced to 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import BinaryImage, GrayImage, check_same_size


class UndefinedRocError(ValueError):
    """Ground truth is single-class inside the scope; no curve exists."""


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    """One image's scores; None marks an undefined (0/0) metric."""

    sensitivity: float | None
    specificity: float | None
    accuracy: float | None
    rmsd: float | None
    mad_diff: float | None           # |mad(seg) - mad(gt)|
    auc: float | None = None


def _in_scope(image, scope: BinaryImage | None) -> np.ndarray:
    """The image's pixels where the scope is True (all pixels when absent)."""
    if scope is None:
        return image.data
    check_same_size(image, scope, "image and scope")
    return image.data[scope.data]


def confusion(seg: BinaryImage, gt: BinaryImage,
              scope: BinaryImage | None = None) -> ConfusionCounts:
    """Count agreement over scope-true pixels (all pixels when absent)."""
    check_same_size(seg, gt, "segmentation and ground truth")
    s, g = _in_scope(seg, scope), _in_scope(gt, scope)
    return ConfusionCounts(
        tp=int(np.count_nonzero(s & g)),
        tn=int(np.count_nonzero(~s & ~g)),
        fp=int(np.count_nonzero(s & ~g)),
        fn=int(np.count_nonzero(~s & g)),
    )


def basic_metrics(c: ConfusionCounts):
    """(sensitivity, specificity, accuracy); None where a denominator is 0."""
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp > 0 else None
    acc = (c.tp + c.tn) / c.total if c.total > 0 else None
    return sens, spec, acc


def rmsd(seg: BinaryImage, gt: BinaryImage,
         scope: BinaryImage | None = None) -> float | None:
    """Root mean square of the pixel differences over scope-true pixels (all
    pixels when absent); 0 iff the maps coincide there, None for an empty
    scope."""
    check_same_size(seg, gt, "segmentation and ground truth")
    diff = (_in_scope(seg, scope).astype(np.float64)
            - _in_scope(gt, scope).astype(np.float64))
    if diff.size == 0:
        return None
    return float(np.sqrt(np.mean(diff ** 2)))


def mad(image, *, scope: BinaryImage | None = None) -> float | None:
    """Square root of the mean absolute deviation from the image mean, over
    scope-true pixels (all pixels when absent); None for an empty scope.

    The comparison statistic between two maps is the absolute difference
    of their values.
    """
    data = np.asarray(_in_scope(image, scope), dtype=np.float64)
    if data.size == 0:
        return None
    return float(np.sqrt(np.mean(np.abs(data - data.mean()))))


def roc_curve(response: GrayImage, gt: BinaryImage,
              scope: BinaryImage | None = None) -> np.ndarray:
    """Sweep the 256 quantized levels descending; classify level > t as vessel.

    Returns the (n, 2) float64 array of (fpr, tpr) points, one per
    threshold, sorted by fpr, with (0, 0) prepended and (1, 1) appended.
    """
    check_same_size(response, gt, "response and ground truth")
    levels = response.levels
    truth = gt.data
    if scope is not None:
        check_same_size(response, scope, "image and scope")
        levels = levels[scope.data]
        truth = truth[scope.data]
    levels = levels.ravel()
    truth = truth.ravel()

    pos = int(np.count_nonzero(truth))
    neg = truth.size - pos
    if pos == 0 or neg == 0:
        raise UndefinedRocError(
            "ROC curve undefined: ground truth is single-class in scope"
        )

    pos_hist = np.bincount(levels[truth], minlength=256)
    neg_hist = np.bincount(levels[~truth], minlength=256)
    # pixels with level > t, accumulated from the top level downward
    pos_above = np.cumsum(pos_hist[::-1])[::-1] - pos_hist
    neg_above = np.cumsum(neg_hist[::-1])[::-1] - neg_hist

    points = [(0.0, 0.0)]
    for t in range(255, -1, -1):
        points.append((neg_above[t] / neg, pos_above[t] / pos))
    points.append((1.0, 1.0))
    return np.array(points, dtype=np.float64)


def auc(points: np.ndarray) -> float:
    """Trapezoidal area under the (fpr, tpr) points of ``roc_curve``."""
    fpr = points[:, 0]
    tpr = points[:, 1]
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)


def evaluate_pair(seg: BinaryImage, gt: BinaryImage,
                  response: GrayImage | None = None,
                  scope: BinaryImage | None = None) -> MetricsReport:
    """Assemble the full per-image report; AUC only when a response is given.

    ``scope``, when given, restricts every metric to its True pixels.
    """
    sens, spec, acc = basic_metrics(confusion(seg, gt, scope))
    # One scope over two same-size maps: both mads are None or neither is.
    mad_seg, mad_gt = mad(seg, scope=scope), mad(gt, scope=scope)
    area = None
    if response is not None:
        try:
            area = auc(roc_curve(response, gt, scope))
        except UndefinedRocError:
            area = None
    return MetricsReport(
        sensitivity=sens,
        specificity=spec,
        accuracy=acc,
        rmsd=rmsd(seg, gt, scope),
        mad_diff=None if mad_seg is None else abs(mad_seg - mad_gt),
        auc=area,
    )
