"""PNM codec: header grammar, round trips, error offsets, mask binarization."""

import tracemalloc

import numpy as np
import pytest

from vesselmf import (
    BinaryImage,
    GrayImage,
    PnmDecodeError,
    RgbImage,
    load_mask,
    read_pnm,
    write_pnm,
)
from vesselmf.image import quantize_levels
from vesselmf.phantom import generate_phantom


def test_p5_decode_values():
    img = read_pnm(b"P5 2 2 255 " + bytes([0, 128, 255, 64]))
    assert isinstance(img, GrayImage)
    assert (img.width, img.height) == (2, 2)
    assert np.allclose(img.data, np.array([[0, 128], [255, 64]]) / 255.0)


def test_p3_ascii_decode():
    img = read_pnm(b"P3 1 1 255 10 20 30")
    assert isinstance(img, RgbImage)
    assert img.data.tolist() == [[[10, 20, 30]]]


def test_p2_ascii_decode_with_comments():
    payload = b"P2 # magic\n# a comment line\n 3 1 # dims\n100\n0 50 100\n"
    img = read_pnm(payload)
    assert isinstance(img, GrayImage)
    assert np.allclose(img.data, [[0.0, 0.5, 1.0]])


def test_p6_round_trip_identity():
    rng = np.random.default_rng(11)
    rgb = RgbImage.from_array(rng.integers(0, 256, (5, 7, 3), dtype=np.uint8))
    payload = write_pnm(rgb, "binary")
    assert write_pnm(read_pnm(payload), "binary") == payload


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_gray_round_trip_on_quantized(fmt):
    rng = np.random.default_rng(3)
    quantized = rng.integers(0, 256, (6, 4)) / 255.0
    img = GrayImage.from_array(quantized)
    decoded = read_pnm(write_pnm(img, fmt))
    assert np.allclose(decoded.data, img.data)


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_rgb_round_trip_both_formats(fmt):
    rng = np.random.default_rng(4)
    rgb = RgbImage.from_array(rng.integers(0, 256, (3, 3, 3), dtype=np.uint8))
    decoded = read_pnm(write_pnm(rgb, fmt))
    assert np.array_equal(decoded.data, rgb.data)


def test_binary_written_as_0_255():
    img = BinaryImage.from_array(np.array([[True, False]]))
    payload = write_pnm(img, "binary")
    assert payload.endswith(bytes([255, 0]))
    back = read_pnm(payload)
    assert np.allclose(back.data, [[1.0, 0.0]])


def test_gray_half_quantizes_to_128():
    img = GrayImage.from_array(np.array([[0.5]]))
    assert write_pnm(img, "binary")[-1] == 128


def test_maxval_scaling_gray():
    img = read_pnm(b"P5 2 1 100 " + bytes([0, 100]))
    assert np.allclose(img.data, [[0.0, 1.0]])


def test_maxval_scaling_color():
    img = read_pnm(b"P3 1 1 100 0 50 100")
    assert img.data.tolist() == [[[0, 128, 255]]]


def test_bad_magic_offset_zero():
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(b"P7 1 1 255 \x00")
    assert err.value.offset == 0


def test_maxval_too_large_rejected():
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(b"P5 1 1 65535 \x00\x00")
    assert "maxval" in str(err.value)
    assert err.value.offset == 7


@pytest.mark.parametrize("payload,message,offset", [
    (b"P2 0 5 255 1", "invalid dimensions 0x5", 3),
    (b"P2 5 0 255 1", "invalid dimensions 5x0", 5),
    (b"P2 5 5 0 1", "maxval 0 outside [1, 255]", 7),
])
def test_header_range_errors_name_the_number_out_of_range(payload, message,
                                                          offset):
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(payload)
    assert str(err.value) == f"{message} (byte offset {offset})"


@pytest.mark.parametrize("what,payload,offset", [
    ("width", b"P2 " + b"1" * 5000 + b" 1 255 0", 3),
    ("height", b"P2 1 #c\n" + b"1" * 5000 + b" 255 0", 8),
    ("maxval", b"P5 1 1 " + b"1" * 5000 + b" \x00", 7),
    ("width", b"P6 " + b"9" * 19 + b" 1 255 abc", 3),
])
def test_overlong_header_number_rejected_at_first_digit(what, payload, offset):
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(payload)
    assert str(err.value).startswith(f"{what} has more than 18 significant digits")
    assert err.value.offset == offset


def test_header_leading_zeros_are_not_significant():
    img = read_pnm(b"P2 " + b"0" * 5000 + b"1 1 00255 7")
    assert np.allclose(img.data, [[7 / 255.0]])


def test_truncated_binary_payload():
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(b"P5 2 2 255 " + bytes([1, 2]))
    assert "truncated" in str(err.value)


def test_truncated_ascii_payload():
    with pytest.raises(PnmDecodeError):
        read_pnm(b"P2 2 2 255 1 2 3")


def test_ascii_sample_above_maxval():
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(b"P2 1 1 100 101")
    assert "exceeds maxval" in str(err.value)
    assert err.value.offset == 11     # the sample's first digit


@pytest.mark.parametrize("payload,value,offset", [
    (b"P2 2 1 255 7 #x 9\n0256", "256", 18),
    (b"P2 2 1 255 7#\n12345678901234567890 x", "12345678901234567890", 14),
    (b"P3 1 1 99 1 2 100", "100", 14),
])
def test_ascii_above_maxval_names_exact_value_and_first_digit(payload, value, offset):
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(payload)
    assert str(err.value).startswith(f"sample {value} exceeds maxval")
    assert err.value.offset == offset


@pytest.mark.parametrize("magic", [b"P2", b"P3"])
@pytest.mark.parametrize("raster,message,offset", [
    (b"1 2 3", "unexpected end of data reading sample", 28),
    (b"1 x 3", "expected decimal sample", 25),
    (b"1 300 3", "sample 300 exceeds maxval 255", 25),
])
def test_ascii_header_claiming_more_samples_than_the_data_holds(
        magic, raster, message, offset):
    # 10^12 claimed samples: the decode must not allocate for all of them.
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(magic + b" 1000000 1000000 255 " + raster)
    assert str(err.value) == f"{message} (byte offset {offset})"


def _join_ascii(image):
    """The ASCII raster as the original per-sample join wrote it."""
    if isinstance(image, RgbImage):
        flat, per_row, magic = image.data, image.width * 3, "P3"
    elif isinstance(image, GrayImage):
        flat, per_row, magic = quantize_levels(image.data), image.width, "P2"
    else:
        flat, per_row, magic = np.where(image.data, 255, 0), image.width, "P2"
    rows = flat.reshape(-1, per_row)
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return f"{magic}\n{image.width} {image.height}\n255\n{body}\n".encode("ascii")


@pytest.mark.parametrize("height,width", [(1, 1), (1, 6), (5, 1), (7, 9)])
def test_ascii_encoder_matches_join_expression(height, width):
    rng = np.random.default_rng(height * 100 + width)
    for image in (
        RgbImage.from_array(rng.integers(0, 256, (height, width, 3), dtype=np.uint8)),
        GrayImage.from_array(rng.random((height, width))),
        BinaryImage.from_array(rng.random((height, width)) < 0.5),
    ):
        assert write_pnm(image, "ascii") == _join_ascii(image)


def test_never_reads_past_declared_payload():
    payload = b"P5 2 1 255 " + bytes([9, 9]) + b"trailing junk"
    img = read_pnm(payload)
    assert np.allclose(img.data, [[9 / 255.0, 9 / 255.0]])


@pytest.mark.parametrize("payload", [
    b"P2 2 1 255 9 9x", b"P2 2 1 255 9 9#", b"P3 1 1 255 1 2 3\xff 999",
])
def test_ascii_never_reads_past_last_sample(payload):
    assert read_pnm(payload).data.size in (2, 3)


def test_ascii_decode_memory_is_bounded_by_block_not_file():
    # STARE size; a whole-file scan holds about 7.8x the file in temporaries.
    rgb = RgbImage.from_array(generate_phantom(size=700, seed=1).rgb.data[:605])
    payload = write_pnm(rgb, "ascii")
    tracemalloc.start()
    try:
        image = read_pnm(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(image.data, rgb.data)
    assert peak < 2 * len(payload), (peak, len(payload))


@pytest.mark.parametrize("form", ["binary", "ascii"])
def test_color_maxval_rescale_memory_is_bounded_by_raster(form):
    # The rescale is a table lookup, with no float copy of the raster.
    rgb = np.minimum(generate_phantom(size=700, seed=1).rgb.data[:605], 254)
    payload = write_pnm(RgbImage.from_array(rgb), form).replace(
        b"\n255\n", b"\n254\n", 1)
    tracemalloc.start()
    try:
        image = read_pnm(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.floor(rgb * 255.0 / 254 + 0.5).astype(np.uint8)
    assert np.array_equal(image.data, expected)
    assert peak < len(payload) + 2 * rgb.size, (peak, len(payload))


def test_load_mask_white_black():
    white = GrayImage.from_array(np.ones((2, 2)))
    black = GrayImage.from_array(np.zeros((2, 2)))
    assert load_mask(white).data.all()
    assert not load_mask(black).data.any()


def test_load_mask_threshold_rule():
    img = GrayImage.from_array(np.array([[0.6, 0.4]]))
    assert load_mask(img).data.tolist() == [[True, False]]


def test_load_mask_rgb():
    arr = np.zeros((1, 2, 3), dtype=np.uint8)
    arr[0, 0] = 200
    assert load_mask(RgbImage.from_array(arr)).data.tolist() == [[True, False]]
