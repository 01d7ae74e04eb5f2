"""PGM image files: reads binary P5 and ASCII P2, writes P5; maxval up to 255.

Pixels map linearly to [0, 1] on read; writing quantizes to the nearest of
256 levels after clamping, so a write/read round trip is exact to 1/255.
Parse failures report the byte offset of the offending data.
"""

import numpy as np

from .deconvolution import GrayImage
from .errors import MalformedFile

_WHITESPACE = b" \t\r\n\v\f"


class _Tokens:
    """Header tokenizer that skips comments and tracks byte offsets."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.start = 0  # offset of the last token read

    def _skip_separators(self) -> None:
        while self.pos < len(self.data):
            byte = self.data[self.pos:self.pos + 1]
            if byte in (b"#",):
                end = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if end < 0 else end + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self, what: str) -> bytes:
        self._skip_separators()
        if self.pos >= len(self.data):
            raise MalformedFile(f"unexpected end of file while reading {what}", self.pos)
        self.start = self.pos
        while self.pos < len(self.data) and self.data[self.pos:self.pos + 1] not in _WHITESPACE:
            self.pos += 1
        return self.data[self.start:self.pos]

    def next_int(self, what: str) -> int:
        token = self.next_token(what)
        # ASCII digits only: int() would also take a sign and digit-group underscores
        if not token.isdigit():
            raise MalformedFile(f"invalid {what} {token!r}", self.start)
        try:
            return int(token)
        except ValueError:  # past int()'s limit on the number of digits
            raise MalformedFile(f"{what} has {len(token)} digits", self.start) from None


def read_pgm(path) -> GrayImage:
    """Read a P2 or P5 PGM file into a GrayImage with values in [0, 1]."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc.strerror}", 0) from exc
    tokens = _Tokens(data)
    magic = tokens.next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise MalformedFile(f"unsupported magic number {magic!r}", 0)
    width = tokens.next_int("width")
    height = tokens.next_int("height")
    maxval = tokens.next_int("maxval")
    if width < 1 or height < 1:
        raise MalformedFile(f"invalid dimensions {width} x {height}", tokens.pos)
    if not 1 <= maxval <= 255:
        raise MalformedFile(f"maxval {maxval} outside supported range 1..255", tokens.pos)
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if tokens.pos >= len(data) or data[tokens.pos:tokens.pos + 1] not in _WHITESPACE:
            raise MalformedFile("missing raster separator", tokens.pos)
        start = tokens.pos + 1
        raster = data[start:start + count]
        if len(raster) < count:
            raise MalformedFile(
                f"raster truncated: expected {count} bytes, found {len(raster)}",
                start + len(raster),
            )
        values = np.frombuffer(raster, dtype=np.uint8).astype(float)
        over = np.flatnonzero(values > maxval)
        if len(over):
            raise MalformedFile(f"pixel {over[0]} exceeds maxval {maxval}", start + int(over[0]))
    else:
        values = np.empty(count)
        for i in range(count):
            value = tokens.next_int("pixel value")
            if value > maxval:
                raise MalformedFile(f"pixel {i} value {value} exceeds maxval {maxval}", tokens.start)
            values[i] = value
    return GrayImage((values / maxval).reshape(height, width))


def write_pgm(image: GrayImage, path) -> None:
    """Write a GrayImage as a binary P5 file with maxval 255."""
    quantized = np.rint(np.clip(image.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n"
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(quantized.tobytes())
