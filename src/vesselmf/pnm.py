"""Bit-exact codec for the portable-anymap family (PGM/PPM, 8-bit).

Supported magics: P2/P3 (ASCII) and P5/P6 (binary).  The header grammar is
the Netpbm one: magic, then width, height and maxval as ASCII decimals
separated by whitespace; ``#`` starts a comment running to end of line and
may appear wherever whitespace may.  A binary raster begins after exactly
one whitespace byte following maxval.  Decode errors always name the byte
offset at which parsing failed.

Only maxval <= 255 is accepted (the fundus datasets are 8 bits/plane);
gray samples decode to v/maxval, color samples are rescaled to 0..255.
"""

from __future__ import annotations

import numpy as np

from .image import BinaryImage, GrayImage, RgbImage

_WHITESPACE = b" \t\n\r\x0b\x0c"
_MAGICS = {b"P2", b"P3", b"P5", b"P6"}
# No width, height or maxval with more significant digits can be valid; the
# bound also keeps every header number and product clear of the
# interpreter's limit on int/str conversion (4300 digits by default).
_MAX_HEADER_DIGITS = 18


class PnmDecodeError(ValueError):
    """Malformed or truncated PNM payload; carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class _Tokenizer:
    """Whitespace/comment-aware scanner over the header."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def _skip_separators(self):
        data = self.data
        n = len(data)
        while self.pos < n:
            b = data[self.pos]
            if b in _WHITESPACE:
                self.pos += 1
            elif b == ord("#"):
                while self.pos < n and data[self.pos] not in (0x0A, 0x0D):
                    self.pos += 1
            else:
                return

    def next_uint(self, what: str, max_digits: int | None = None) -> int:
        """The next decimal number; more than ``max_digits`` significant
        digits is an error at its first digit."""
        self._skip_separators()
        if self.pos >= len(self.data):
            raise PnmDecodeError(f"unexpected end of data reading {what}", self.pos)
        start = self.pos
        while self.pos < len(self.data) and 0x30 <= self.data[self.pos] <= 0x39:
            self.pos += 1
        if self.pos == start:
            raise PnmDecodeError(f"expected decimal {what}", start)
        self.last_at = start
        digits = self.data[start:self.pos].lstrip(b"0")
        if max_digits is not None and len(digits) > max_digits:
            raise PnmDecodeError(
                f"{what} has more than {max_digits} significant digits", start)
        return int(digits or b"0")


# Bytes that are neither a decimal digit nor whitespace: '#' or malformed.
_NOT_SAMPLE_OR_SPACE = np.ones(256, dtype=bool)
_NOT_SAMPLE_OR_SPACE[list(b"0123456789" + _WHITESPACE)] = False
# ASCII raster bytes per numpy pass, which holds ~8 bytes of temporaries each.
_ASCII_BLOCK = 1 << 18


def _comment_bytes(raw: np.ndarray) -> np.ndarray:
    """True for every byte from a ``#`` up to (not including) the next CR/LF."""
    hashes = np.flatnonzero(raw == ord("#"))
    breaks = np.flatnonzero((raw == 0x0A) | (raw == 0x0D))
    ends = np.append(breaks, raw.size)[np.searchsorted(breaks, hashes)]
    # A '#' inside a comment adds nothing: keep the first per line end.
    first = np.ones(hashes.size, dtype=bool)
    first[1:] = ends[1:] != ends[:-1]
    marks = np.zeros(raw.size + 1, dtype=np.int8)
    marks[hashes[first]] = 1
    marks[ends[first]] = -1
    return np.cumsum(marks[:-1], dtype=np.int8).view(bool)


def _block_end(data: bytes, start: int) -> int:
    """Just past the first CR or LF from byte ``start + _ASCII_BLOCK - 1`` on,
    else the end of the data: no comment or digit run spans a line break."""
    for at in range(start + _ASCII_BLOCK - 1, len(data), _ASCII_BLOCK):
        breaks = [data.find(b, at, at + _ASCII_BLOCK) for b in (b"\n", b"\r")]
        if max(breaks) >= 0:
            return min(i for i in breaks if i >= 0) + 1
    return len(data)


def _decode_ascii(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` decimal samples of the ASCII raster at ``pos``.

    Samples are digit runs separated by whitespace and comments.  Errors are
    raised in byte order, as a sample-by-sample scan would meet them: a byte
    that is neither (``expected decimal sample``), the end of the data before
    ``count`` samples, or a sample above ``maxval`` (offset of its first
    digit).  Bytes after the last sample's digits do not affect the result.
    The raster is scanned in line-aligned blocks of ``_ASCII_BLOCK`` bytes.
    """
    # The bytes left hold fewer samples than this, so a header that claims
    # more than the data holds allocates no more than the data's size.
    samples = np.empty(min(count, len(data) - pos + 1), dtype=np.uint16)
    n = 0
    while n < count and pos < len(data):
        end = _block_end(data, pos)
        n += _decode_block(data, pos, end, samples[n:], maxval)
        pos = end
    if n < count:
        raise PnmDecodeError("unexpected end of data reading sample", len(data))
    return samples


def _decode_block(data: bytes, pos: int, end: int, out, maxval: int) -> int:
    """Write the samples of ``data[pos:end]``, at most ``out.size``, to the
    front of ``out`` and return how many; raise its first error."""
    raw = np.frombuffer(data, dtype=np.uint8, count=end - pos, offset=pos)
    comment = _comment_bytes(raw) if data.find(b"#", pos, end) >= 0 else None

    # Digit values with every other byte 0, behind two zero bytes; is_digit
    # is padded by one False on each side so runs start and stop inside it.
    digits = np.zeros(raw.size + 2, dtype=np.uint8)
    np.subtract(raw, ord("0"), out=digits[2:])
    padded = np.zeros(raw.size + 2, dtype=bool)
    is_digit = padded[1:-1]
    np.less(digits[2:], 10, out=is_digit)
    if comment is not None:
        is_digit &= ~comment
    digits[2:] *= is_digit
    starts = np.flatnonzero(is_digit > padded[:-2])
    last = np.flatnonzero(is_digit > padded[2:])

    # Only bytes before the last sample can make the raster malformed.
    count = out.size
    scan = int(starts[count - 1]) if starts.size >= count else raw.size
    bad = _NOT_SAMPLE_OR_SPACE[raw[:scan]]
    if comment is not None:
        bad &= ~comment[:scan]
    at = int(np.argmax(bad)) if bad.any() else None
    n = min(starts.size, count) if at is None else int(np.searchsorted(starts, at))
    starts, last = starts[:n], last[:n]

    # A sample's value is its last three digits; maxval <= 255, so any
    # nonzero digit before those puts it above maxval.  The byte before a
    # run is 0 in ``digits``, but two before a one-digit run may not be.
    span = last - starts
    samples = out[:n]
    samples[...] = digits[:-2][last]
    samples[span < 2] = 0
    samples *= 10
    samples += digits[1:-1][last]
    samples *= 10
    samples += digits[2:][last]
    long = np.flatnonzero(span > 2)
    if long.size:
        bounds = np.column_stack((starts[long], last[long] - 2)).ravel()
        lead = np.maximum.reduceat(digits[2:], bounds)[::2]
        samples[long[lead > 0]] = maxval + 1
    over = samples > maxval
    if over.any():
        k = int(np.argmax(over))
        first, stop = pos + int(starts[k]), pos + int(last[k]) + 1
        value = data[first:stop].lstrip(b"0").decode("ascii")
        raise PnmDecodeError(f"sample {value} exceeds maxval {maxval}", first)
    if at is not None:
        raise PnmDecodeError("expected decimal sample", pos + at)
    return n


def read_pnm(data: bytes):
    """Decode a PNM byte sequence into an RgbImage (P3/P6) or GrayImage (P2/P5)."""
    data = bytes(data)
    magic = data[:2]
    if magic not in _MAGICS:
        raise PnmDecodeError(f"unsupported or missing PNM magic {magic!r}", 0)
    ascii_raster = magic in (b"P2", b"P3")
    color = magic in (b"P3", b"P6")

    tok = _Tokenizer(data, pos=2)
    width = tok.next_uint("width", _MAX_HEADER_DIGITS)
    width_at = tok.last_at
    height = tok.next_uint("height", _MAX_HEADER_DIGITS)
    height_at = tok.last_at
    maxval = tok.next_uint("maxval", _MAX_HEADER_DIGITS)
    if width < 1 or height < 1:
        raise PnmDecodeError(f"invalid dimensions {width}x{height}",
                             width_at if width < 1 else height_at)
    if maxval < 1 or maxval > 255:
        raise PnmDecodeError(f"maxval {maxval} outside [1, 255]", tok.last_at)

    channels = 3 if color else 1
    count = width * height * channels

    if ascii_raster:
        samples = _decode_ascii(data, tok.pos, count, maxval)
    else:
        if tok.pos >= len(data) or data[tok.pos] not in _WHITESPACE:
            raise PnmDecodeError("expected single whitespace before raster", tok.pos)
        start = tok.pos + 1
        if len(data) - start < count:
            raise PnmDecodeError(
                f"raster truncated: need {count} bytes, found {len(data) - start}",
                len(data),
            )
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
        if samples.max(initial=0) > maxval:
            bad = start + int(np.argmax(samples > maxval))
            raise PnmDecodeError(f"sample exceeds maxval {maxval}", bad)

    if color:
        rgb = samples.reshape(height, width, 3)
        if maxval != 255:
            # One lookup table per maxval, not a float copy of every sample.
            scale = np.floor(np.arange(maxval + 1) * 255.0 / maxval + 0.5)
            rgb = scale.astype(np.uint8)[rgb]
        return RgbImage.from_array(rgb.astype(np.uint8))
    gray = samples.reshape(height, width).astype(np.float64) / maxval
    return GrayImage.from_array(gray)


# Decimal digits and a space for every 8-bit sample, NUL-padded to 4 bytes.
_SAMPLE_TEXT = np.frombuffer(
    b"".join(f"{v} ".encode("ascii").ljust(4, b"\0") for v in range(256)),
    dtype=np.uint8,
).reshape(256, 4)
_SAMPLE_KEEP = _SAMPLE_TEXT > 0
_SAMPLE_DIGITS = _SAMPLE_KEEP.sum(axis=1) - 1


def write_pnm(image, format: str = "binary") -> bytes:
    """Encode an image as PNM bytes.

    Gray values are quantized by round(v*255); BinaryImage is written as
    0/255 gray.  ``format`` selects the ASCII (P2/P3) or binary (P5/P6)
    raster encoding.  Output always uses maxval 255 and re-decodes to the
    same quantized image.
    """
    if format not in ("ascii", "binary"):
        raise ValueError(f"format must be 'ascii' or 'binary', got {format!r}")

    if isinstance(image, RgbImage):
        flat = image.data.reshape(-1).astype(np.uint8)
        color = True
    elif isinstance(image, GrayImage):
        flat = image.levels.reshape(-1)
        color = False
    elif isinstance(image, BinaryImage):
        flat = np.where(image.data, 255, 0).reshape(-1).astype(np.uint8)
        color = False
    else:
        raise TypeError(f"cannot encode {type(image).__name__}")

    if format == "binary":
        magic = "P6" if color else "P5"
        header = f"{magic}\n{image.width} {image.height}\n255\n".encode("ascii")
        return header + flat.tobytes()

    magic = "P3" if color else "P2"
    header = f"{magic}\n{image.width} {image.height}\n255\n".encode("ascii")
    rows = flat.reshape(image.height, -1)
    # The space after each row's last sample becomes the newline ending it.
    text = _SAMPLE_TEXT[rows]
    text[np.arange(image.height), -1, _SAMPLE_DIGITS[rows[:, -1]]] = ord("\n")
    return header + text[_SAMPLE_KEEP[rows]].tobytes()
