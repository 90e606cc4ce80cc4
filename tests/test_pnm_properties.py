"""Property tests of the PNM codec.

The ASCII raster decoder is checked against a sample-by-sample scan with the
header tokenizer, which is kept here as the oracle.  Its block size is drawn
down to one byte, so line breaks, comments, junk bytes and the last sample
land on block edges.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vesselmf import (
    BinaryImage,
    GrayImage,
    PnmDecodeError,
    RgbImage,
    pnm,
    read_pnm,
    write_pnm,
)

PROPERTY = settings(max_examples=300, deadline=None)


def oracle_decode_ascii(data, pos, count, maxval):
    """One tokenizer call per sample: the reference the vectorized scan must
    match in samples, error message and error offset."""
    tok = pnm._Tokenizer(data, pos)
    samples = []
    for _ in range(count):
        value = tok.next_uint("sample")
        if value > maxval:
            raise PnmDecodeError(f"sample {value} exceeds maxval {maxval}", tok.last_at)
        samples.append(value)
    return np.array(samples, dtype=np.int64)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PnmDecodeError as exc:
        return "error", (str(exc), exc.offset)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    elif isinstance(got[1], np.ndarray):
        assert np.array_equal(got[1], want[1])
    else:
        assert type(got[1]) is type(want[1])
        assert np.array_equal(got[1].data, want[1].data)


def read_with_oracle(data):
    with mock.patch.object(pnm, "_decode_ascii", oracle_decode_ascii):
        return read_pnm(data)


# -- generated ASCII payloads ------------------------------------------------

WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"])
COMMENT = st.builds(
    lambda text, end: b"#" + text + end,
    st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r", b""]),
)
SEPARATOR = st.lists(st.one_of(WHITESPACE, COMMENT), min_size=1, max_size=3) \
    .map(b"".join)
JUNK = st.sampled_from([b"x", b"-", b"+", b".", b"\x00", b"\xff", b"P"])
TOKEN = st.one_of(
    st.integers(0, 300).map(lambda v: str(v).encode()),
    st.builds(lambda zeros, v: b"0" * zeros + str(v).encode(),
              st.integers(1, 4), st.integers(0, 300)),
    st.text("0123456789", min_size=4, max_size=25).map(str.encode),
)
# Mostly well-formed samples, sometimes a separator is left out or a junk
# byte is put in.
PIECE = st.one_of(
    st.tuples(st.just(b""), TOKEN),
    st.tuples(SEPARATOR, TOKEN),
    st.tuples(SEPARATOR, TOKEN),
    st.tuples(SEPARATOR, TOKEN),
    st.tuples(JUNK, TOKEN),
)


@st.composite
def ascii_payloads(draw):
    magic = draw(st.sampled_from([b"P2", b"P3"]))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([1, 9, 99, 100, 200, 255]))
    count = width * height * (3 if magic == b"P3" else 1)
    size = draw(st.sampled_from([count, count, count - 1, count + 1, count + 2]))
    pieces = draw(st.lists(PIECE, min_size=size, max_size=size))
    header = b" ".join([magic, b"%d" % width, b"%d" % height, b"%d" % maxval])
    raster = b"".join(sep + token for sep, token in pieces)
    trailing = st.one_of(st.just(b""), SEPARATOR, JUNK, st.binary(max_size=8))
    return header + draw(SEPARATOR) + raster + draw(trailing)


# Tiny blocks, and the default, under which these payloads are one block.
BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 16, pnm._ASCII_BLOCK])


@PROPERTY
@given(ascii_payloads(), BLOCKS)
def test_ascii_decode_matches_per_sample_oracle(data, block):
    with mock.patch.object(pnm, "_ASCII_BLOCK", block):
        got = outcome(read_pnm, data)
    assert_same(got, outcome(read_with_oracle, data))


RASTER_BYTES = st.lists(st.sampled_from(list(b"0123456789 \t\n\r#x\x00")),
                        max_size=40).map(bytes)


@PROPERTY
@given(RASTER_BYTES, st.integers(1, 6), st.sampled_from([1, 9, 100, 255]), BLOCKS)
def test_ascii_raster_bytes_match_oracle(raster, count, maxval, block):
    data = b"P2 9 9 255" + raster
    with mock.patch.object(pnm, "_ASCII_BLOCK", block):
        got = outcome(pnm._decode_ascii, data, 10, count, maxval)
    assert_same(got, outcome(oracle_decode_ascii, data, 10, count, maxval))


# -- arbitrary input ---------------------------------------------------------

ANY_PAYLOAD = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]), st.binary(max_size=64))
    .map(b"".join),
    st.tuples(st.sampled_from([b"P2 2 2 255", b"P3 1 2 9", b"P5 2 1 200 ",
                               b"P6 1 1 255\n"]),
              st.binary(max_size=64)).map(b"".join),
)


@PROPERTY
@given(ANY_PAYLOAD)
def test_arbitrary_bytes_raise_only_decode_errors_in_range(data):
    try:
        read_pnm(data)
    except PnmDecodeError as exc:
        assert 0 <= exc.offset <= len(data)


# -- round trips -------------------------------------------------------------

SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 8))
FORMATS = st.sampled_from(["ascii", "binary"])


@PROPERTY
@given(SHAPES.flatmap(lambda hw: arrays(np.uint8, hw + (3,))), FORMATS)
def test_rgb_write_read_identity(pixels, fmt):
    image = read_pnm(write_pnm(RgbImage.from_array(pixels), fmt))
    assert isinstance(image, RgbImage)
    assert np.array_equal(image.data, pixels)


@PROPERTY
@given(SHAPES.flatmap(lambda hw: arrays(np.uint8, hw)), FORMATS)
def test_gray_write_read_identity(levels, fmt):
    quantized = levels / 255.0
    image = read_pnm(write_pnm(GrayImage.from_array(quantized), fmt))
    assert isinstance(image, GrayImage)
    assert np.array_equal(image.data, quantized)


@PROPERTY
@given(SHAPES.flatmap(lambda hw: arrays(np.bool_, hw)), FORMATS)
def test_binary_write_read_identity(mask, fmt):
    image = read_pnm(write_pnm(BinaryImage.from_array(mask), fmt))
    assert np.array_equal(image.data, mask.astype(np.float64))
