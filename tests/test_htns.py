import contextlib
import io
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcp.htns import _CHUNK_LINES, _write, dump_htns, parse_htns, read_htns, write_htns


def test_round_trip_random(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    path = tmp_path / "t.htns"
    write_htns(path, t)
    back = read_htns(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)  # bit-exact


def test_round_trip_special_values(tmp_path):
    t = np.array([[0.1, -1e-300], [1e300, 7.0]], dtype=complex)
    t[0, 0] += 1j * (1 / 3)
    path = tmp_path / "m.htns"
    write_htns(path, t)
    assert np.array_equal(read_htns(path), t)


def test_header_layout():
    t = np.arange(6, dtype=complex).reshape(2, 3)
    lines = dump_htns(t).splitlines()
    assert lines[0] == "2"
    assert lines[1] == "2 3"
    assert len(lines) == 2 + 6
    assert lines[2].split() == ["0", "0"]


def test_row_major_order():
    text = "2\n2 2\n1 0\n2 0\n3 0\n4 0\n"
    t = parse_htns(text)
    # mode 1 slowest: entry order (0,0), (0,1), (1,0), (1,1)
    assert t[0, 0] == 1 and t[0, 1] == 2 and t[1, 0] == 3 and t[1, 1] == 4


def test_vector_and_high_order(tmp_path):
    v = np.array([1 + 2j, -3.5], dtype=complex)
    p = tmp_path / "v.htns"
    write_htns(p, v)
    assert np.array_equal(read_htns(p), v)
    t4 = np.zeros((2, 1, 2, 2), dtype=complex)
    t4[1, 0, 1, 0] = 1j
    p4 = tmp_path / "t4.htns"
    write_htns(p4, t4)
    assert np.array_equal(read_htns(p4), t4)


@pytest.mark.parametrize("text", [
    "",
    "2\n2 2\n1 0\n",                    # too few entries
    "2\n2\n1 0\n2 0\n3 0\n4 0\n",       # wrong dims count
    "x\n2 2\n" + "1 0\n" * 4,           # bad order line
    "2\n2 2\n" + "1 0\n" * 3 + "1\n",   # malformed entry
    "1\n0\n",                           # nonpositive dim
])
def test_malformed_rejected(text):
    with pytest.raises(ValueError):
        parse_htns(text)


def test_malformed_messages_unchanged():
    with pytest.raises(ValueError, match="truncated header"):
        parse_htns("")
    with pytest.raises(ValueError, match="expected 4 entries, got 1"):
        parse_htns("2\n2 2\n1 0\n")
    with pytest.raises(ValueError, match="expected 2 dims, got 1"):
        parse_htns("2\n2\n1 0\n2 0\n3 0\n4 0\n")
    with pytest.raises(ValueError, match="first line must be the number of modes"):
        parse_htns("x\n2 2\n" + "1 0\n" * 4)
    with pytest.raises(ValueError, match="entry 3: expected 're im'"):
        parse_htns("2\n2 2\n" + "1 0\n" * 3 + "1\n")
    with pytest.raises(ValueError, match="dims must be positive"):
        parse_htns("1\n0\n")


def test_token_total_matching_but_lines_malformed():
    # four tokens for two entries, but split 3 + 1 across the lines
    with pytest.raises(ValueError, match="entry 0: expected 're im'"):
        parse_htns("1\n2\n1 2 3\n4\n")


def test_non_numeric_entry_named():
    with pytest.raises(ValueError, match="entry 1"):
        parse_htns("1\n2\n1 0\n1 x\n")


def test_more_entries_than_dims():
    with pytest.raises(ValueError, match="expected 2 entries, got 3"):
        parse_htns("1\n2\n1 0\n2 0\n3 0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_entry_named(value):
    with pytest.raises(ValueError, match="entry 2: non-finite value"):
        parse_htns(f"1\n4\n1 0\n2 0\n0 {value}\n4 0\n")


def test_blank_lines_between_entries_skipped():
    t = parse_htns("\n1\n\n3\n1 0\n\n   \n2 -1\n\t\n3 0.5\n\n")
    assert np.array_equal(t, np.array([1, 2 - 1j, 3 + 0.5j]))


def test_chunk_of_only_blank_lines_skipped():
    t = parse_htns("1\n2\n" + "\n" * _CHUNK_LINES + "1 2\n\n3 4\n")
    assert np.array_equal(t, np.array([1 + 2j, 3 + 4j]))


def test_crlf_line_endings(tmp_path):
    text = "2\r\n1 2\r\n1 0\r\n0.25 -2\r\n"
    expected = np.array([[1, 0.25 - 2j]])
    assert np.array_equal(parse_htns(text), expected)
    path = tmp_path / "crlf.htns"
    path.write_bytes(text.encode())
    assert np.array_equal(read_htns(path), expected)


def test_file_object_input(tmp_path):
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    path = tmp_path / "f.htns"
    write_htns(path, t)
    with open(path) as fh:
        assert np.array_equal(read_htns(fh), t)
    assert np.array_equal(read_htns(io.StringIO(dump_htns(t))), t)


@pytest.mark.parametrize("shape", [
    (20, 20, 20),
    # crosses the parser's chunk boundary with a partial last chunk
    (2, _CHUNK_LINES // 2 + 3),
])
def test_round_trip_bit_exact_large(tmp_path, shape):
    rng = np.random.default_rng(4)
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t.flat[::97] *= 1e-300
    path = tmp_path / "big.htns"
    write_htns(path, t)
    back = read_htns(path)
    assert back.shape == t.shape
    assert np.array_equal(back.view(np.float64), t.view(np.float64))


# every finite double, with -0.0, subnormals and the extremes drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
     1.7976931348623157e308, -1.7976931348623157e308])


@settings(deadline=None, max_examples=200)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
def test_round_trip_bit_exact_property(shape, data):
    count = 2 * int(np.prod(shape))
    parts = data.draw(st.lists(FINITE, min_size=count, max_size=count))
    t = np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)
    back = parse_htns(dump_htns(t))
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()  # bit for bit, -0.0 included


def reference_dump(tensor) -> str:
    # one format(x, ".17g") per value, joined line by line
    t = np.ascontiguousarray(np.asarray(tensor, dtype=np.complex128))
    lines = [str(t.ndim), " ".join(str(n) for n in t.shape)]
    lines += [f"{format(v.real, '.17g')} {format(v.imag, '.17g')}" for v in t.ravel().tolist()]
    return "\n".join(lines) + "\n"


# non-finite values are refused (test_writer_refuses_a_non_finite_entry)
@settings(deadline=None, max_examples=200)
@given(pairs=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20))
def test_entry_lines_are_17g(pairs):
    t = np.array(pairs, dtype=np.float64).view(np.complex128)
    lines = dump_htns(t).splitlines()[2:]
    assert lines == [f"{format(re, '.17g')} {format(im, '.17g')}" for re, im in pairs]


@pytest.mark.parametrize("shape", [
    (2, _CHUNK_LINES // 2 + 3),   # a partial last chunk
    (2, _CHUNK_LINES),            # exactly two chunks
])
def test_dump_matches_reference_join(shape):
    rng = np.random.default_rng(5)
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert dump_htns(t) == reference_dump(t)


@pytest.mark.parametrize("shape", [(), (3, 0, 2), (0,)])
def test_writer_refuses_what_the_reader_refuses(tmp_path, shape):
    t = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match="HTNS1: dims must be positive"):
        dump_htns(t)
    path = tmp_path / "t.htns"
    with pytest.raises(ValueError, match="HTNS1: dims must be positive"):
        write_htns(path, t)
    assert not path.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_writer_refuses_a_non_finite_entry(tmp_path, bad):
    # the reader refuses 'nan 0' and 'inf 0', so the writer does not write them
    t = np.ones((2, 3), dtype=complex)
    t[1, 2] = bad
    with pytest.raises(ValueError, match=r"HTNS1: non-finite entry at index \(1, 2\)"):
        dump_htns(t)
    path = tmp_path / "t.htns"
    with pytest.raises(ValueError, match=r"HTNS1: non-finite entry at index \(1, 2\)"):
        write_htns(path, t)
    assert not path.exists()


def test_file_bytes_equal_dump(tmp_path):
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, _CHUNK_LINES // 3 + 5)) * 1e-200
    path = tmp_path / "w.htns"
    write_htns(path, t)
    assert path.read_bytes() == dump_htns(t).encode()


class RecordingFile:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_writes_bounded_by_chunk():
    t = np.ones((5, _CHUNK_LINES // 2), dtype=complex)
    fh = RecordingFile()
    _write(fh, t)
    assert "".join(fh.writes) == dump_htns(t)
    assert max(w.count("\n") for w in fh.writes[1:]) <= _CHUNK_LINES
    assert len(fh.writes) == 1 + 3  # the header, then 5/2 chunks rounded up


BIG = 40_000  # entries; more than two of the writer's chunks


def big_text(bad_line=None):
    """An HTNS1 vector of BIG entries, entry 20000 replaced by bad_line."""
    lines = [f"{i} {-i / 3!r}\n" for i in range(BIG)]
    if bad_line is not None:
        lines[20_000] = bad_line
    return f"1\n{BIG}\n" + "".join(lines)


@contextlib.contextmanager
def pipe_reader(text: str):
    """A text stream on an os.pipe that a writer thread feeds with text."""
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with os.fdopen(write_fd, "wb") as w:
                w.write(text.encode())
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with os.fdopen(read_fd, "r") as fh:
            assert not fh.seekable()
            yield fh
    finally:
        writer.join()


def read_each_way(text, tmp_path):
    """read_htns's outcome on text through a path, an open file, a file that
    next() has read from, and a pipe."""
    path = tmp_path / "big.htns"
    path.write_text(text)
    yield lambda: read_htns(path)
    with open(path) as fh:
        yield lambda: read_htns(fh)
    path.write_text("# a line the caller skips\n" + text)
    with open(path) as fh:
        next(fh)
        yield lambda: read_htns(fh)
    with pipe_reader(text) as fh:
        yield lambda: read_htns(fh)


@pytest.mark.parametrize("bad_line, message", [
    ("1 x\n", "entry 20000: values must be numbers, got '1 x'"),
    ("1 2 3\n", "entry 20000: expected 're im'"),
    ("0 nan\n", "entry 20000: non-finite value"),
])
def test_bad_entry_past_the_first_chunk_named(tmp_path, bad_line, message):
    for read in read_each_way(big_text(bad_line), tmp_path):
        with pytest.raises(ValueError, match=f"^HTNS1: {message}$"):
            read()


def test_large_file_round_trips_each_way(tmp_path):
    i = np.arange(BIG, dtype=np.float64)
    for read in read_each_way(big_text(), tmp_path):
        assert read().tobytes() == (i - 1j * (i / 3)).tobytes()


@pytest.mark.parametrize("block", ["", "\n", "\n  \n\t\n"])
def test_empty_entry_block_refused_without_warning(block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^HTNS1: expected 3 entries, got 0$"):
            parse_htns("1\n3\n" + block)
