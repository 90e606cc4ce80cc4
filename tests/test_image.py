"""Image containers: size from the array, dtype and range checks, and the
one size-mismatch message every stage reports."""

from dataclasses import fields

import numpy as np
import pytest

import vesselmf.image
from vesselmf import (
    BinaryImage,
    GrayImage,
    KernelParams,
    PipelineParams,
    RgbImage,
    apply_mask,
    build_bank,
    build_histogram,
    confusion,
    generate_phantom,
    roc_curve,
    run_pipeline,
    write_pnm,
)
from vesselmf.cli import main
from vesselmf.image import check_same_size


@pytest.mark.parametrize("cls,shape", [
    (RgbImage, (3, 5, 3)), (GrayImage, (3, 5)), (BinaryImage, (3, 5))])
def test_size_comes_from_the_array(cls, shape):
    image = cls.from_array(np.zeros(shape))
    assert (image.width, image.height) == (5, 3)


@pytest.mark.parametrize("cls", [RgbImage, GrayImage, BinaryImage])
def test_no_size_fields(cls):
    assert not {"width", "height"} & {f.name for f in fields(cls)}


@pytest.mark.parametrize("cls,dtype", [
    (RgbImage, np.uint8), (GrayImage, np.float64), (BinaryImage, bool)])
def test_data_takes_the_class_dtype(cls, dtype):
    shape = (2, 2, 3) if cls is RgbImage else (2, 2)
    assert cls.from_array(np.ones(shape, dtype=np.int64)).data.dtype == dtype


@pytest.mark.parametrize("cls,shape,message", [
    (GrayImage, (0, 4), "image dimensions must be at least 1x1"),
    (BinaryImage, (4, 0), "image dimensions must be at least 1x1"),
    (RgbImage, (0, 4, 3), "image dimensions must be at least 1x1"),
    (GrayImage, (4,), "expected 2-D array, got shape (4,)"),
    (BinaryImage, (2, 2, 3), "expected 2-D array, got shape (2, 2, 3)"),
    (RgbImage, (2, 2), "expected (h, w, 3) array, got shape (2, 2)"),
    (RgbImage, (2, 2, 4), "expected (h, w, 3) array, got shape (2, 2, 4)"),
])
def test_bad_shapes_rejected(cls, shape, message):
    with pytest.raises(ValueError) as err:
        cls.from_array(np.zeros(shape))
    assert str(err.value) == message


def test_gray_overshoot_within_slack_is_clipped():
    image = GrayImage.from_array(np.array([[-5e-10, 0.5, 1.0 + 5e-10]]))
    assert image.data.tolist() == [[0.0, 0.5, 1.0]]


@pytest.mark.parametrize("value", [-1e-6, 1.0 + 1e-6, np.nan])
def test_gray_out_of_range_rejected(value):
    with pytest.raises(ValueError, match=r"gray values outside \[0, 1\]"):
        GrayImage.from_array(np.array([[0.5, value]]))


def test_gray_keeps_its_degenerate_flag():
    assert GrayImage.from_array(np.zeros((1, 1)), degenerate=True).degenerate
    assert not GrayImage.from_array(np.zeros((1, 1))).degenerate


def test_levels_are_computed_once(monkeypatch):
    calls = []
    original = vesselmf.image.quantize_levels

    def counted(values):
        calls.append(values)
        return original(values)

    monkeypatch.setattr(vesselmf.image, "quantize_levels", counted)
    image = GrayImage.from_array(np.array([[0.0, 0.5, 1.0]]))
    assert image.levels.tolist() == [[0, 128, 255]]
    assert image.levels is image.levels
    assert len(calls) == 1


def _ones(cls, width, height):
    shape = (height, width, 3) if cls is RgbImage else (height, width)
    return cls.from_array(np.ones(shape))


def test_check_same_size_message():
    check_same_size(_ones(RgbImage, 4, 3), _ones(BinaryImage, 4, 3), "x")
    with pytest.raises(ValueError) as err:
        check_same_size(_ones(GrayImage, 4, 3), _ones(BinaryImage, 3, 4),
                        "these")
    assert str(err.value) == "these differ in size: 4x3 vs 3x4"


@pytest.mark.parametrize("call,message", [
    (lambda: apply_mask(_ones(BinaryImage, 4, 3), _ones(BinaryImage, 4, 2)),
     "image and FOV mask differ in size: 4x3 vs 4x2"),
    (lambda: build_histogram(_ones(GrayImage, 4, 3),
                             _ones(BinaryImage, 5, 3)),
     "image and mask differ in size: 4x3 vs 5x3"),
    (lambda: confusion(_ones(BinaryImage, 4, 3), _ones(BinaryImage, 3, 3)),
     "segmentation and ground truth differ in size: 4x3 vs 3x3"),
    (lambda: roc_curve(_ones(GrayImage, 4, 3), _ones(BinaryImage, 4, 2)),
     "response and ground truth differ in size: 4x3 vs 4x2"),
    (lambda: confusion(_ones(BinaryImage, 4, 3), _ones(BinaryImage, 4, 3),
                       _ones(BinaryImage, 2, 2)),
     "image and scope differ in size: 4x3 vs 2x2"),
])
def test_stages_report_a_size_mismatch_alike(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_run_pipeline_rejects_a_fov_of_another_size():
    phantom = generate_phantom(size=40)
    params = PipelineParams(kernel=KernelParams(sigma=1.5, length=9))
    fov = BinaryImage.from_array(phantom.fov.data[:, :32])
    with pytest.raises(ValueError) as err:
        run_pipeline(phantom.rgb, fov, params, build_bank(params.kernel))
    assert str(err.value) == "image and FOV mask differ in size: 40x40 vs 32x40"


def test_cli_names_the_entry_whose_fov_differs_in_size(tmp_path, capsys):
    phantom = generate_phantom(size=40)
    (tmp_path / "01_test.ppm").write_bytes(write_pnm(phantom.rgb))
    (tmp_path / "01_test_mask.pgm").write_bytes(write_pnm(
        BinaryImage.from_array(phantom.fov.data[:32])))
    code = main(["segment", "--dataset-dir", str(tmp_path), "--layout",
                 "drive", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: 01_test: image and FOV mask differ in size: 40x40 vs 40x32\n"
        "failed: 01_test\n")
