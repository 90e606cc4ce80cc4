"""Confusion metrics, dispersion statistics, and ROC/AUC behavior."""

import numpy as np
import pytest

from vesselmf import (
    BinaryImage,
    ConfusionCounts,
    GrayImage,
    UndefinedRocError,
    auc,
    basic_metrics,
    complement,
    confusion,
    evaluate_pair,
    mad,
    rmsd,
    roc_curve,
)


def _binary(rows):
    return BinaryImage.from_array(np.asarray(rows, dtype=bool))


class TestConfusion:
    def test_perfect_match(self):
        rng = np.random.default_rng(0)
        img = _binary(rng.random((8, 8)) < 0.5)
        c = confusion(img, img)
        assert c.fp == 0 and c.fn == 0
        assert c.tp + c.tn == 64

    def test_hand_count(self):
        seg = _binary([[1, 0, 1, 0]])
        gt = _binary([[1, 1, 0, 0]])
        c = confusion(seg, gt)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_complement_swaps_counts(self):
        rng = np.random.default_rng(1)
        seg = _binary(rng.random((10, 10)) < 0.4)
        gt = _binary(rng.random((10, 10)) < 0.4)
        c = confusion(seg, gt)
        cc = confusion(complement(seg), gt)
        assert (cc.tp, cc.fn) == (c.fn, c.tp)
        assert (cc.tn, cc.fp) == (c.fp, c.tn)

    def test_scope_restriction(self):
        seg = _binary([[1, 1]])
        gt = _binary([[1, 0]])
        scope = _binary([[1, 0]])
        c = confusion(seg, gt, scope)
        assert c.total == 1
        assert c.tp == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            confusion(_binary([[1]]), _binary([[1, 0]]))


class TestBasicMetrics:
    def test_balanced_counts(self):
        sens, spec, acc = basic_metrics(ConfusionCounts(tp=1, tn=1, fp=1, fn=1))
        assert (sens, spec, acc) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        sens, spec, acc = basic_metrics(ConfusionCounts(tp=5, tn=5, fp=0, fn=0))
        assert (sens, spec, acc) == (1.0, 1.0, 1.0)

    def test_undefined_marked_none(self):
        sens, spec, acc = basic_metrics(ConfusionCounts(tp=0, tn=4, fp=0, fn=0))
        assert sens is None
        assert spec == 1.0
        assert acc == 1.0

    def test_accuracy_complement_identity(self):
        rng = np.random.default_rng(2)
        seg = _binary(rng.random((12, 12)) < 0.5)
        gt = _binary(rng.random((12, 12)) < 0.5)
        c = confusion(seg, gt)
        _, _, acc = basic_metrics(c)
        assert acc == pytest.approx(1.0 - (c.fp + c.fn) / c.total, abs=1e-12)
        assert 0.0 <= acc <= 1.0


class TestRmsdMad:
    def test_rmsd_zero_on_match(self):
        img = _binary([[1, 0], [0, 1]])
        assert rmsd(img, img) == 0.0

    def test_rmsd_closed_form(self):
        seg = _binary([[1, 0, 1, 0]])
        gt = _binary([[1, 1, 0, 0]])
        assert rmsd(seg, gt) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_rmsd_confusion_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seg = _binary(rng.random((16, 16)) < 0.5)
            gt = _binary(rng.random((16, 16)) < 0.5)
            c = confusion(seg, gt)
            assert rmsd(seg, gt) ** 2 * 256 == pytest.approx(c.fp + c.fn,
                                                             abs=1e-9)

    def test_mad_constant_zero(self):
        assert mad(GrayImage.from_array(np.full((4, 4), 0.3))) == 0.0

    def test_mad_binary_closed_form(self):
        for q, n_ones in ((0.25, 4), (0.5, 8), (0.75, 12)):
            data = np.zeros(16, dtype=bool)
            data[:n_ones] = True
            img = _binary(data.reshape(4, 4))
            assert mad(img) == pytest.approx(np.sqrt(2 * q * (1 - q)),
                                             abs=1e-12)

    def test_mad_diff_identical_images(self):
        rng = np.random.default_rng(4)
        img = _binary(rng.random((8, 8)) < 0.3)
        assert abs(mad(img) - mad(img)) == 0.0


class TestRoc:
    def test_perfect_separation(self):
        rng = np.random.default_rng(5)
        gt_arr = rng.random((10, 10)) < 0.3
        gt = _binary(gt_arr)
        response = GrayImage.from_array(gt_arr.astype(float))
        points = roc_curve(response, gt)
        assert any(f == 0.0 and t == 1.0 for f, t in points)
        assert auc(points) == pytest.approx(1.0, abs=1e-12)

    def test_constant_response_diagonal(self):
        gt = _binary([[1, 0], [0, 1]])
        response = GrayImage.from_array(np.full((2, 2), 0.5))
        points = roc_curve(response, gt)
        interior = points[1:-1]
        assert set(map(tuple, interior)) <= {(0.0, 0.0), (1.0, 1.0)}
        assert auc(points) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_points(self):
        rng = np.random.default_rng(6)
        response = GrayImage.from_array(rng.random((20, 20)))
        gt = _binary(rng.random((20, 20)) < 0.4)
        points = roc_curve(response, gt)
        assert points.dtype == np.float64 and points.shape == (258, 2)
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)
        assert tuple(points[0]) == (0.0, 0.0)
        assert tuple(points[-1]) == (1.0, 1.0)

    def test_random_response_auc_near_half(self):
        rng = np.random.default_rng(7)
        response = GrayImage.from_array(rng.random((100, 100)))
        gt = _binary(rng.random((100, 100)) < 0.5)
        points = roc_curve(response, gt)
        assert auc(points) == pytest.approx(0.5, abs=0.05)

    def test_single_class_gt_undefined(self):
        response = GrayImage.from_array(np.random.default_rng(8).random((4, 4)))
        with pytest.raises(UndefinedRocError):
            roc_curve(response, _binary(np.ones((4, 4))))
        with pytest.raises(UndefinedRocError):
            roc_curve(response, _binary(np.zeros((4, 4))))

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        base = rng.random((30, 30))
        gt = _binary(rng.random((30, 30)) < 0.4)
        a = auc(roc_curve(GrayImage.from_array(base), gt))
        # strictly monotone transform preserves the level ordering; with
        # 256-level quantization the curve can shift by at most one bin
        transformed = GrayImage.from_array(base ** 3)
        b = auc(roc_curve(GrayImage.from_array(transformed.data), gt))
        assert a == pytest.approx(b, abs=0.02)

    def test_scoped_curve(self):
        response = GrayImage.from_array(
            np.array([[1.0, 0.0], [1.0, 0.0]]))
        gt = _binary([[1, 0], [0, 1]])
        scope = _binary([[1, 1], [0, 0]])
        points = roc_curve(response, gt, scope)
        assert auc(points) == pytest.approx(1.0, abs=1e-12)


class TestEvaluatePair:
    def test_perfect_report(self):
        rng = np.random.default_rng(10)
        arr = rng.random((8, 8)) < 0.4
        seg = _binary(arr)
        report = evaluate_pair(seg, seg,
                               response=GrayImage.from_array(arr.astype(float)))
        assert (report.sensitivity, report.specificity,
                report.accuracy, report.rmsd) == (1.0, 1.0, 1.0, 0.0)
        assert report.mad_diff == 0.0
        assert report.auc == pytest.approx(1.0, abs=1e-12)

    def test_undefined_auc_reported_none(self):
        seg = _binary(np.ones((3, 3)))
        report = evaluate_pair(seg, seg,
                               response=GrayImage.from_array(np.ones((3, 3))))
        assert report.auc is None

    def test_scope_covers_every_metric(self):
        gt = _binary(np.zeros((4, 4)))
        arr = np.zeros((4, 4), dtype=bool)
        arr[0, 0] = True
        seg = _binary(arr)
        scope = _binary(~arr)     # the one segmented pixel lies outside
        scoped = evaluate_pair(seg, gt, scope=scope)
        assert (scoped.accuracy, scoped.rmsd, scoped.mad_diff) == (1.0, 0.0, 0.0)
        full = evaluate_pair(seg, gt)
        assert full.accuracy == 15 / 16
        assert full.rmsd == 0.25
        assert full.mad_diff == pytest.approx(np.sqrt(30 / 256), abs=1e-12)

    def test_empty_scope_leaves_every_metric_undefined(self):
        seg = _binary(np.ones((3, 3)))
        gt = _binary(np.zeros((3, 3)))
        report = evaluate_pair(seg, gt, scope=_binary(np.zeros((3, 3))))
        assert (report.accuracy, report.rmsd, report.mad_diff) == (None,) * 3
