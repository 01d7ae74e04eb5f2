"""Text-matrix and PGM parsers: the bulk matrix parse against the row loop, byte fuzzing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmg import MalformedFile, pgm
from dsmg.cli import _load_rows, load_matrix

FUZZ = settings(max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def write_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parsers") / "file"

    def write(content: bytes) -> str:
        path.write_bytes(content)
        return str(path)

    return write


def mutated(files):
    """Files with one byte replaced by one to three drawn bytes."""
    def splice(case):
        content, at, patch = case
        at %= len(content) + 1
        return content[:at] + patch + content[at + 1:]

    return st.tuples(files, st.integers(0, 10**6), st.binary(min_size=1, max_size=3)).map(splice)


def outcome(read):
    """Array bytes and shape of a successful read, or the offset of its MalformedFile."""
    try:
        data = read()
    except MalformedFile as exc:
        return "MalformedFile", exc.offset
    return data.shape, data.tobytes()


# -- text matrices ---------------------------------------------------------

_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ENTRY = st.one_of(
    _FLOAT, _FLOAT, _FLOAT,
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "-1e999", "1e-400", "1_0", "#", "1e",
                     ".", "-", "+.5", "1.5E+3", "-0", "0x1", "1,5", "\x1c"]),
)
_SEP = st.sampled_from([" ", "\t", "  ", " \t", "\x0c", "\x1c", "\x0b"])
_BREAK = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n \n", "\r\r\n", "\x0c", "\x1c"])


@st.composite
def text_matrices(draw) -> bytes:
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = draw(st.sampled_from(
        [f"{rows} {cols}"] * 4 + [f" {rows}\t{cols} ", f"{rows}", f"+{rows} {cols}",
                                  f"{rows} {cols} 1", f"{rows}_0 {cols}", f"{rows}\r{cols}"]
    ))
    body_rows = draw(st.sampled_from([rows] * 4 + [0, rows - 1, rows + 1]))
    lines = [header]
    for _ in range(body_rows):
        count = draw(st.sampled_from([cols] * 4 + [cols - 1, cols + 1]))
        entries = draw(st.lists(_ENTRY, min_size=count, max_size=count))
        line = draw(st.sampled_from(["", " ", "\t"]))
        for entry in entries:
            line += draw(_SEP) if line.strip() else ""
            line += entry
        lines.append(line + draw(st.sampled_from(["", "", " "])))
    text = draw(st.sampled_from(["", "", "\n", " \r\n"]))
    for line in lines:
        text += line + draw(_BREAK)
    return text.encode("ascii")


@given(content=text_matrices())
@FUZZ
def test_load_matrix_matches_row_loop(write_file, content):
    path = write_file(content)
    assert outcome(lambda: load_matrix(path)) == outcome(lambda: _load_rows(path, content))


@given(content=st.one_of(st.binary(max_size=64), mutated(text_matrices())))
@FUZZ
def test_load_matrix_raises_only_malformed_file_inside_the_file(write_file, content):
    try:
        load_matrix(write_file(content))
    except MalformedFile as exc:
        assert 0 <= exc.offset <= len(content)


# -- ASCII PGM -------------------------------------------------------------

@st.composite
def p2_files(draw) -> bytes:
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 7, 100, 255]))
    header = f"P2\n{width} {height}\n{maxval}"
    count = width * height + draw(st.sampled_from([0] * 4 + [-1, 1, 5]))
    pixel = st.one_of(
        st.integers(0, maxval).map(str), st.integers(0, maxval).map(str),
        st.integers(0, maxval + 2).map(lambda v: f"00{v}"),
        st.sampled_from(["-1", "+1", "1_0", "#c\n", "x", "1.0", "\x1c", "١", "9" * 5000]),
    )
    sep = st.sampled_from([" ", "\n", "\t", "\r\n", "\x0b", "\x0c", "  ", " # c\n"])
    raster = "".join(draw(sep) + draw(pixel) for _ in range(max(count, 0)))
    return (header + raster + draw(st.sampled_from(["", "\n", " #\n", " x"]))).encode()


@given(content=st.one_of(
    st.binary(max_size=64).map(lambda raw: b"P2" + raw),
    st.binary(max_size=64).map(lambda raw: b"P5" + raw),
    mutated(p2_files()),
))
@FUZZ
def test_read_pgm_raises_only_malformed_file_inside_the_file(write_file, content):
    try:
        pgm.read_pgm(write_file(content))
    except MalformedFile as exc:
        assert 0 <= exc.offset <= len(content)


# -- both readers ----------------------------------------------------------


@pytest.mark.parametrize("read", [load_matrix, pgm.read_pgm], ids=["text", "pgm"])
@pytest.mark.parametrize("name", ["missing", "directory"])
def test_unreadable_file_is_malformed_at_offset_0(tmp_path, read, name):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    with pytest.raises(MalformedFile, match=f"^cannot read {path}: ") as excinfo:
        read(path)
    assert excinfo.value.offset == 0
