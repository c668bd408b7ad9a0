"""Sparse linear algebra over F2.

Matrices are (row, col) positions, given as pairs or as an (nnz x 2) array;
rank and solve reduce the columns, as Python-int bitsets over rows (xor at C
speed), left to right against the pivots so far, keyed by their top bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PreimageMismatch


def _as_array(entries):
    """(nnz x 2) int64 array of (row, col) positions from an array or pairs."""
    if isinstance(entries, np.ndarray):
        return entries.reshape(-1, 2).astype(np.int64, copy=False)
    return np.array(list(entries), dtype=np.int64).reshape(-1, 2)


@dataclass
class SparseF2Matrix:
    rows: int
    cols: int
    entries: set = field(default_factory=set)  # (row, col) pairs or an (nnz x 2) array

    def __post_init__(self):
        e = _as_array(self.entries)
        bad = (e < 0).any(axis=1) | (e[:, 0] >= self.rows) | (e[:, 1] >= self.cols)
        if bad.any():
            r, c = e[bad.argmax()].tolist()
            raise DimensionMismatch(f"entry {(r, c)} outside {self.rows}x{self.cols}")

    def transpose(self):
        return SparseF2Matrix(self.cols, self.rows, _as_array(self.entries)[:, ::-1])


def _distinct(entries):
    """The positions sorted by (col, row), each once, as an (nnz x 2) array."""
    e = _as_array(entries)
    e = e[np.lexsort(e.T)]
    return e[np.diff(e, axis=0, prepend=-1).any(axis=1)]


def _columns(e):
    """Yield (col, bitset) for each nonempty column of ``_distinct`` output,
    bit r set for each of its rows.  Columns are built as the reduction asks
    for them, so one that reduces to zero is freed at once."""
    col, v = None, 0
    for r, c in zip(*e.T.tolist()):
        if c != col:
            if v:
                yield col, v
            col, v = c, 0
        v |= 1 << r
    if v:
        yield col, v


def _reduce(v, tag, pivots):
    """Xor pivots ({top bit: (column, tag)}) into ``v`` and its tag until
    the top bit of ``v`` is no pivot's."""
    while v and (p := pivots.get(v.bit_length())):
        v, tag = v ^ p[0], tag ^ p[1]
    return v, tag


def _pivots(columns, tagged):
    """Column reduction of (col, bitset) pairs, left to right, to {top bit:
    (reduced column, tag)}, whose length is the rank.  A ``tagged`` column
    starts with tag 1 << col, so a tag marks the columns summed into it."""
    pivots = {}
    for c, v in columns:
        v, tag = _reduce(v, 1 << c if tagged else 0, pivots)
        if v:
            pivots[v.bit_length()] = (v, tag)
    return pivots


def f2_rank(matrix):
    """Rank over F2 by column reduction."""
    return rank_from_entries(matrix.rows, matrix.cols, matrix.entries)


def rank_from_entries(rows, cols, entries):
    """f2_rank without building the dataclass; entries are pairs or an array."""
    return len(_pivots(_columns(_distinct(entries)), tagged=False))


def f2_solve(matrix, b):
    """Any solution x of matrix @ x = b over F2, or None if b is not in the span.

    ``b`` is an iterable of 0/1 of length ``matrix.rows``; the result is a
    list of 0/1 of length ``matrix.cols``.  The preimage is checked by a
    matrix product before it is returned.
    """
    b = np.fromiter(b, dtype=np.int64) & 1
    if len(b) != matrix.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {matrix.rows}")
    e = _distinct(matrix.entries)
    rhs = int.from_bytes(np.packbits(b, bitorder="little").tobytes(), "little")
    rest, tag = _reduce(rhs, 0, _pivots(_columns(e), tagged=True))
    if rest:
        return None
    x = np.frombuffer(tag.to_bytes((matrix.cols + 7) // 8, "little"), dtype=np.uint8)
    x = np.unpackbits(x, count=matrix.cols, bitorder="little")
    if (np.bincount(e[x[e[:, 1]] == 1, 0], minlength=matrix.rows) & 1 != b).any():
        raise PreimageMismatch("column reduction returned x with matrix @ x != b")
    return x.tolist()
