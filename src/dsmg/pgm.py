"""PGM image files: reads binary P5 and ASCII P2, writes P5; maxval up to 255.

Pixels map linearly to [0, 1] on read; writing quantizes to the nearest of
256 levels after clamping, so a write/read round trip is exact to 1/255.
One compiled pattern scans the header and the P2 raster token by token. No
size in the header is trusted before the data: each raster array is built
from the bytes or tokens actually read. Parse failures report the byte
offset of the offending data.
"""

import re

import numpy as np

from .deconvolution import GrayImage
from .errors import MalformedFile, _ascii_int, _read_bytes

# whitespace (in a bytes pattern \s is ASCII " \t\n\r\v\f") and '#' comments,
# then one token. A comment runs to its newline, so a match never ends inside
# one; the token group is None only at the end of the data.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)?")


def _next_token(tokens, what: str) -> re.Match:
    match = next(tokens)
    if match[1] is None:
        raise MalformedFile(f"unexpected end of file while reading {what}", match.end())
    return match


def _next_int(tokens, what: str) -> tuple[int, re.Match]:
    """The next token as a decimal integer, and its match for the byte offsets."""
    match = _next_token(tokens, what)
    try:
        return _ascii_int(match[1]), match
    except ValueError as exc:
        raise MalformedFile(f"bad {what}: {exc}", match.start(1)) from None


def read_pgm(path) -> GrayImage:
    """Read a P2 or P5 PGM file into a GrayImage with values in [0, 1]."""
    data = _read_bytes(path)
    tokens = _TOKEN.finditer(data)
    magic = _next_token(tokens, "magic number")[1]
    if magic not in (b"P2", b"P5"):
        raise MalformedFile(f"unsupported magic number {magic!r}", 0)
    width, _ = _next_int(tokens, "width")
    height, _ = _next_int(tokens, "height")
    maxval, header = _next_int(tokens, "maxval")
    end = header.end()
    if width < 1 or height < 1:
        raise MalformedFile(f"invalid dimensions {width} x {height}", end)
    if not 1 <= maxval <= 255:
        raise MalformedFile(f"maxval {maxval} outside supported range 1..255", end)
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if not data[end:end + 1].isspace():
            raise MalformedFile("missing raster separator", end)
        start = end + 1
        raster = np.frombuffer(data[start:start + count], dtype=np.uint8)
        if len(raster) < count:
            raise MalformedFile(
                f"raster truncated: expected {count} bytes, found {len(raster)}",
                start + len(raster),
            )
        over = np.flatnonzero(raster > maxval)
        if len(over):
            raise MalformedFile(f"pixel {over[0]} exceeds maxval {maxval}", start + int(over[0]))
    else:
        raster = []
        for i in range(count):
            value, match = _next_int(tokens, "pixel value")
            if value > maxval:
                raise MalformedFile(
                    f"pixel {i} value {value} exceeds maxval {maxval}", match.start(1)
                )
            raster.append(value)
    return GrayImage((np.asarray(raster) / maxval).reshape(height, width))


def write_pgm(image: GrayImage, path) -> None:
    """Write a GrayImage as a binary P5 file with maxval 255."""
    quantized = np.rint(np.clip(image.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n"
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(quantized.tobytes())
