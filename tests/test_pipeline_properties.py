"""Property tests of the component filter and the per-image pipeline.

``length_filter`` is checked against the flood-fill labelling of
``test_segment`` on generated masks; the pipeline against its contracts: the
vessel map stays inside the FOV, and inputs it cannot process fail with a
``PipelineStageError`` naming the stage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_segment import flood_fill_components
from vesselmf import (
    BinaryImage,
    KernelParams,
    PipelineParams,
    PipelineStageError,
    RgbImage,
    build_bank,
    length_filter,
    run_pipeline,
)

PROPERTY = settings(max_examples=150, deadline=None)


# -- length_filter against the flood-fill oracle --------------------------------

def checkerboard(h, w):
    return np.add.outer(np.arange(h), np.arange(w)) % 2 == 0


def comb(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[0] = True
    mask[:, ::2] = True
    return mask


def serpentine(h, w):
    """Full rows joined by one pixel at alternating ends: one long path."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def single_row(h, w):
    return np.ones((1, w), dtype=bool)


def single_column(h, w):
    return np.ones((h, 1), dtype=bool)


def all_true(h, w):
    return np.ones((h, w), dtype=bool)


SIDE = st.integers(1, 40)
MASKS = st.one_of(
    arrays(bool, st.tuples(SIDE, SIDE)),
    st.builds(lambda shape, density, seed: np.random.default_rng(seed).random(shape) < density,
              st.tuples(SIDE, SIDE), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1)),
    st.builds(lambda make, h, w: make(h, w),
              st.sampled_from([checkerboard, comb, serpentine, single_row,
                               single_column, all_true]),
              SIDE, SIDE),
)


def oracle_filter(data, min_size):
    labels, sizes = flood_fill_components(data)
    keep = np.array(sizes) >= min_size
    keep[0] = False
    return keep[labels]


@PROPERTY
@given(MASKS, st.integers(0, 60))
def test_length_filter_matches_flood_fill(data, min_size):
    got = length_filter(BinaryImage.from_array(data), min_size)
    expected = data if min_size <= 1 else oracle_filter(data, min_size)
    assert np.array_equal(got.data, expected)


@pytest.mark.parametrize("make", [checkerboard, comb, serpentine, all_true])
def test_length_filter_keeps_one_spanning_component(make):
    data = make(57, 43)
    count = int(data.sum())
    image = BinaryImage.from_array(data)
    assert np.array_equal(length_filter(image, count).data, data)
    assert not length_filter(image, count + 1).data.any()


# -- pipeline contracts ---------------------------------------------------------

BANKS = {
    sigma_length: build_bank(KernelParams(sigma=sigma_length[0],
                                          length=sigma_length[1]))
    for sigma_length in [(0.57, 8), (1.0, 7), (1.57, 9)]
}


def rgb_images(rows, cols):
    return st.builds(
        RgbImage.from_array,
        arrays(np.uint8, st.tuples(rows, cols, st.just(3))),
    )


def pipeline_params(sigma_length, otsu_scope, min_size=30):
    return PipelineParams(
        kernel=KernelParams(sigma=sigma_length[0], length=sigma_length[1]),
        min_component_size=min_size, otsu_scope=otsu_scope,
    )


@PROPERTY
@given(st.data(), st.sampled_from(sorted(BANKS)),
       st.sampled_from(["full-image", "fov-only"]), st.integers(0, 40))
def test_vessel_map_inside_fov(data, sigma_length, otsu_scope, min_size):
    rgb = data.draw(rgb_images(st.integers(17, 40), st.integers(15, 40)))
    fov = data.draw(arrays(bool, (rgb.height, rgb.width)))
    if otsu_scope == "fov-only" and not fov.any():
        fov[rgb.height // 2, rgb.width // 2] = True
    result = run_pipeline(rgb, BinaryImage.from_array(fov),
                          pipeline_params(sigma_length, otsu_scope, min_size),
                          BANKS[sigma_length])
    assert not np.any(result.vessel_map.data & ~fov)


SMALLER_THAN_KERNEL = st.one_of(
    st.tuples(st.integers(8, 16), st.integers(8, 40)),
    st.tuples(st.integers(8, 40), st.integers(8, 14)),
)


@PROPERTY
@given(st.data(), st.sampled_from(sorted(BANKS)))
def test_image_smaller_than_kernel_names_max_response(data, sigma_length):
    rows, cols = data.draw(SMALLER_THAN_KERNEL)
    rgb = data.draw(rgb_images(st.just(rows), st.just(cols)))
    fov = BinaryImage.from_array(np.ones((rows, cols), dtype=bool))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(rgb, fov, pipeline_params(sigma_length, "full-image"),
                     BANKS[sigma_length])
    assert err.value.stage == "max_response"
    assert isinstance(err.value.__cause__, ValueError)


@PROPERTY
@given(rgb_images(st.integers(17, 40), st.integers(15, 40)),
       st.sampled_from(sorted(BANKS)))
def test_all_false_fov_names_build_histogram(rgb, sigma_length):
    fov = BinaryImage.from_array(np.zeros((rgb.height, rgb.width), dtype=bool))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(rgb, fov, pipeline_params(sigma_length, "fov-only"),
                     BANKS[sigma_length])
    assert err.value.stage == "build_histogram"
    assert isinstance(err.value.__cause__, ValueError)
