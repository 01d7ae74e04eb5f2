"""PGM reader/writer: round trips, format equivalence, malformed inputs."""

import numpy as np
import pytest

from dsmg import GrayImage, MalformedFile, read_pgm, write_pgm


def test_single_white_pixel_round_trip(tmp_path):
    path = tmp_path / "white.pgm"
    write_pgm(GrayImage(np.array([[1.0]])), path)
    back = read_pgm(path)
    assert back.width == 1 and back.height == 1
    assert back.pixels[0, 0] == 1.0


def test_ramp_p2_p5_equivalence(tmp_path):
    image = GrayImage(np.array([[0.0, 1.0 / 3.0], [2.0 / 3.0, 1.0]]))
    binary_path = tmp_path / "ramp5.pgm"
    ascii_path = tmp_path / "ramp2.pgm"
    write_pgm(image, binary_path)
    # write_pgm writes P5 only; the P2 twin is spelled out byte for byte
    ascii_path.write_bytes(b"P2\n2 2\n255\n0 85 170 255\n")
    assert binary_path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
    from_binary = read_pgm(binary_path)
    from_ascii = read_pgm(ascii_path)
    assert np.array_equal(from_binary.pixels, from_ascii.pixels)


def test_random_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    image = GrayImage(rng.uniform(size=(8, 8)))
    path = tmp_path / "rand.pgm"
    write_pgm(image, path)
    back = read_pgm(path)
    assert np.max(np.abs(back.pixels - image.pixels)) <= 1.0 / 255.0


def test_out_of_range_values_clamped_on_write(tmp_path):
    image = GrayImage(np.array([[-1.0, 2.0]]))
    path = tmp_path / "clamp.pgm"
    write_pgm(image, path)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, [[0.0, 1.0]])


def test_comments_and_small_maxval(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P2\n# a comment\n2 1\n# another\n100\n0 50\n")
    back = read_pgm(path)
    assert back.pixels[0, 0] == 0.0
    assert back.pixels[0, 1] == pytest.approx(0.5)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(MalformedFile) as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == 0


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(MalformedFile) as excinfo:
        read_pgm(path)
    assert "truncated" in str(excinfo.value)
    assert excinfo.value.offset > 0


@pytest.mark.parametrize(
    "content, offset, message",
    [(b"P2\n0 1\n255\n", 10, "invalid dimensions 0 x 1"),
     (b"P5\n3 0\n255\n", 10, "invalid dimensions 3 x 0"),
     (b"P5\n1 1\n255", 10, "missing raster separator")],
    ids=["zero-width", "zero-height", "p5-ends-at-maxval"],
)
def test_bad_header_end_reported_after_maxval(tmp_path, content, offset, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    with pytest.raises(MalformedFile, match=message) as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == offset


def test_oversized_maxval_rejected(tmp_path):
    path = tmp_path / "big.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n1000\n")
    with pytest.raises(MalformedFile):
        read_pgm(path)


def test_non_numeric_header_rejected(tmp_path):
    path = tmp_path / "junk.pgm"
    path.write_bytes(b"P2\nwide tall\n255\n0\n")
    with pytest.raises(MalformedFile):
        read_pgm(path)


def test_pixel_above_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P2\n1 1\n10\n11\n")
    with pytest.raises(MalformedFile):
        read_pgm(path)


@pytest.mark.parametrize(
    "content",
    [
        b"P5\n4 1\n100\n" + bytes([1, 2, 200, 3]),
        b"P2\n3 1\n100\n1 200 3\n",
        b"P2\n2 1\n255\n5 -7\n",
    ],
    ids=["p5-above-maxval", "p2-above-maxval", "p2-negative"],
)
def test_bad_pixel_reported_at_its_own_offset(tmp_path, content):
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    with pytest.raises(MalformedFile) as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == 13


@pytest.mark.parametrize(
    "content, offset",
    [(b"P2\n2 1\n1_0\n+5 1_0\n", 7), (b"P2\n+5 1\n255\n0 0 0 0 0\n", 3)],
    ids=["underscore-maxval", "signed-width"],
)
def test_non_digit_integer_reported_at_token_start(tmp_path, content, offset):
    # int() would read "1_0" as 10 and "+5" as 5
    path = tmp_path / "signed.pgm"
    path.write_bytes(content)
    with pytest.raises(MalformedFile) as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == offset


@pytest.mark.parametrize(
    "content, offset",
    [(b"P2\n1 1\n255\n" + b"0" * 5000 + b"7\n", 11), (b"P2\n" + b"9" * 5000 + b" 1\n255\n0\n", 3)],
    ids=["pixel", "width"],
)
def test_integer_past_int_digit_limit_reported_at_token_start(tmp_path, content, offset):
    # int() refuses strings of more than 4300 digits with a ValueError
    path = tmp_path / "long.pgm"
    path.write_bytes(content)
    with pytest.raises(MalformedFile) as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == offset


def test_empty_file_reported_at_magic_number(tmp_path):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"")
    with pytest.raises(MalformedFile, match="end of file while reading magic number") as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == 0


def test_oversized_p2_header_reads_only_the_pixels_present(tmp_path):
    # numpy refuses a 10**18-pixel array outright, so sizing the raster from
    # the header would raise MemoryError before the missing pixel were found
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P2\n1000000000 1000000000\n255\n1 2 3\n")
    with pytest.raises(MalformedFile, match="end of file while reading pixel value") as excinfo:
        read_pgm(path)
    assert excinfo.value.offset == 35
