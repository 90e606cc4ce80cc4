"""Metamorphic properties of the oriented filter response.

The bank is closed under mirroring: a kernel at angle theta mirrored about
either image axis is the kernel at 180 - theta, which is orientation
``(n - k) mod n`` of an n-orientation bank, and every kernel is symmetric
under a half turn.  So flipping the image left-right or up-down flips the
response, and a 180-degree rotation rotates it.  The response is linear in
the image, and halving the image is exact in floating point, so the
response halves exactly.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vesselmf import (
    GrayImage,
    KernelConstructionError,
    KernelParams,
    build_bank,
    max_response,
)

PROPERTY = settings(max_examples=40, deadline=None)

# name -> the image transform, which the response follows
RELATIONS = {
    "left-right flip": lambda a: a[:, ::-1],
    "up-down flip": lambda a: a[::-1],
    "180-degree rotation": lambda a: a[::-1, ::-1],
}


def _noise(shape, seed=0):
    return np.random.default_rng(seed).random(shape)


# the paper's DRIVE bank on a square, an odd and a transform-padded size
PAPER_CASES = [
    example(data=_noise(shape), bank=build_bank(KernelParams(0.57, 8)))
    for shape in ((64, 64), (97, 100), (128, 131))
]


def _with_paper_cases(test):
    for case in PAPER_CASES:
        test = case(test)
    return test


@st.composite
def banks(draw):
    """A kernel bank on the default 17 x 15 grid; flat profiles are skipped."""
    params = KernelParams(
        sigma=draw(st.floats(0.3, 4.0)),
        length=draw(st.integers(1, 16)),
        x_limit=draw(st.floats(1.0, 8.0)),
        n_orientations=draw(st.integers(1, 24)),
    )
    try:
        return build_bank(params)
    except KernelConstructionError:
        assume(False)


@st.composite
def images(draw):
    """Uniform noise, at least the kernel grid in each direction."""
    shape = (draw(st.integers(17, 131)), draw(st.integers(15, 131)))
    return _noise(shape, draw(st.integers(0, 2 ** 32 - 1)))


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@PROPERTY
@given(data=images(), bank=banks())
@_with_paper_cases
def test_response_follows_flips_and_half_turns(relation, data, bank):
    move = RELATIONS[relation]
    base = max_response(GrayImage.from_array(data), bank)
    moved = max_response(GrayImage.from_array(move(data)), bank)
    assert np.max(np.abs(moved - move(base))) <= 1e-12


@PROPERTY
@given(data=images(), bank=banks())
@_with_paper_cases
def test_halving_the_image_halves_the_response_exactly(data, bank):
    base = max_response(GrayImage.from_array(data), bank)
    half = max_response(GrayImage.from_array(0.5 * data), bank)
    assert np.array_equal(half, 0.5 * base)
