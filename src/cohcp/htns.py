"""HTNS1 text format for dense complex hypermatrices.

Layout::

    line 1:  d                      (number of modes)
    line 2:  n_1 n_2 ... n_d        (dims, space separated)
    then prod(n_k) lines of "re im" in row-major order (mode 1 slowest)

Values are written as ``%.17g``, which round-trips IEEE doubles exactly.
Blank lines are skipped on reading.
"""

from __future__ import annotations

import io
import math
import warnings

import numpy as np

from .core import finite_tensor

# entry lines formatted per write; bounds the writer's working memory
_CHUNK_LINES = 1 << 14


def dump_htns(tensor) -> str:
    buf = io.StringIO()
    _write(buf, _writable(tensor))
    return buf.getvalue()


def write_htns(path, tensor) -> None:
    """Write a hypermatrix to an HTNS1 text file."""
    t = _writable(tensor)  # before opening, so a refused tensor leaves no file
    with open(path, "w") as fh:
        _write(fh, t)


def _writable(tensor) -> np.ndarray:
    """The tensor as C-contiguous complex128, refusing what ``read_htns``
    refuses: a 0-d tensor, one with no entries or a non-finite entry."""
    t = finite_tensor(tensor, "HTNS1")
    if t.ndim == 0 or t.size == 0:
        raise ValueError("HTNS1: dims must be positive")
    return np.ascontiguousarray(t)


def _write(fh, t: np.ndarray) -> None:
    """Write the ``_writable`` tensor t: the header, then the entries
    ``_CHUNK_LINES`` lines per write, each chunk formatted by one ``%`` call
    on its Python floats."""
    fh.write(f"{t.ndim}\n{' '.join(str(n) for n in t.shape)}\n")
    flat = t.reshape(-1).view(np.float64)
    for start in range(0, flat.size, 2 * _CHUNK_LINES):
        values = flat[start:start + 2 * _CHUNK_LINES].tolist()
        fh.write(("%.17g %.17g\n" * (len(values) // 2)) % tuple(values))


def parse_htns(text: str) -> np.ndarray:
    return read_htns(io.StringIO(text, newline=None))


def read_htns(path_or_file) -> np.ndarray:
    """Read an HTNS1 text file into a complex hypermatrix.

    Rejects a malformed header, a wrong entry count, an entry line that is
    not exactly ``re im``, and non-finite values, naming the entry.
    """
    if hasattr(path_or_file, "read"):
        return _read(path_or_file)
    with open(path_or_file, "r") as fh:
        return _read(fh)


def _read(fh) -> np.ndarray:
    header = []
    while len(header) < 2 and (ln := fh.readline()):
        if ln.strip():
            header.append(ln.strip())
    if len(header) < 2:
        raise ValueError("HTNS1: truncated header")
    try:
        d = int(header[0])
    except ValueError:
        raise ValueError("HTNS1: first line must be the number of modes")
    dims = header[1].split()
    if len(dims) != d:
        raise ValueError(f"HTNS1: expected {d} dims, got {len(dims)}")
    try:
        shape = tuple(int(n) for n in dims)
    except ValueError:
        raise ValueError("HTNS1: dims must be integers")
    if d < 1 or any(n < 1 for n in shape):
        raise ValueError("HTNS1: dims must be positive")
    count = math.prod(shape)
    try:  # a pipe cannot tell its place, nor a file that next() is reading,
        start, body = fh.tell(), fh
    except OSError:  # so their lines are kept for naming a bad entry
        body = fh.readlines()
    try:
        with warnings.catch_warnings():  # no entries: the count check refuses them
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.size and data.shape[1] != 2:
        # name the first offending entry with a per-line scan
        if body is fh:
            fh.seek(start)
        for i, ln in enumerate(ln for ln in body if ln.strip()):
            if len(ln.split()) != 2:
                raise ValueError(f"HTNS1: entry {i}: expected 're im'")
            try:
                np.loadtxt([ln], dtype=np.float64, comments=None)
            except ValueError:
                raise ValueError(f"HTNS1: entry {i}: values must be numbers, "
                                 f"got {ln.strip()!r}")
        # no input is known to reach this: lines that each parse also parse as one block
        raise ValueError("HTNS1: unreadable entries from entry 0")
    if len(data) != count:
        raise ValueError(f"HTNS1: expected {count} entries, got {len(data)}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"HTNS1: entry {bad[0]}: non-finite value")
    return data.view(np.complex128).reshape(shape)
