"""Sparse linear algebra over F2.

Matrices are (row, col) positions, given as pairs or as an (nnz x 2) array;
rank and solve reduce the columns, as Python-int bitsets over rows (xor at C
speed), left to right against the pivots so far, keyed by their top bit.
``rank_from_entries`` can also hand back the pivots' top rows, which the
homology ranks clear from the next block down.  ``ColumnSpan`` keeps the
pivots between batches of columns, so a solve can grow its matrix until
the right-hand side lies in its span; ``f2_solve`` is its one-batch case.
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
    """The positions sorted by (col, row), each once, as an (nnz x 2) array.
    Positions already so, as ``slice_boundary`` gives them, are checked in
    one pass and not sorted again."""
    e = _as_array(entries)
    step = np.diff(e, axis=0)
    if not ((step[:, 1] > 0) | ((step[:, 1] == 0) & (step[:, 0] > 0))).all():
        e = e[np.lexsort(e.T)]
        e = e[np.diff(e, axis=0, prepend=-1).any(axis=1)]
    return e


def _columns(e):
    """Yield (col, bitset) for each nonzero column of (row, col) positions
    grouped by column, as ``_distinct`` gives them, bit r flipped for each
    listing of row r.  Columns are built as the reduction asks for them, so
    one that reduces to zero is freed at once."""
    col, v = None, 0
    for r, c in zip(*e.T.tolist()):
        if c != col:
            if v:
                yield col, v
            col, v = c, 0
        v ^= 1 << r
    if v:
        yield col, v


def _reduce(v, tag, pivots):
    """Xor pivots ({top bit: (column, tag)}) into ``v`` and its tag until
    the top bit of ``v`` is no pivot's."""
    while v and (p := pivots.get(v.bit_length())):
        v, tag = v ^ p[0], tag ^ p[1]
    return v, tag


def _extend(pivots, columns, tagged):
    """Column reduction of (col, bitset) pairs, left to right, into
    ``pivots`` ({top bit: (reduced column, tag)}), in place.  A ``tagged``
    column starts with tag 1 << col, so a tag marks the columns summed into
    it."""
    for c, v in columns:
        v, tag = _reduce(v, 1 << c if tagged else 0, pivots)
        if v:
            pivots[v.bit_length()] = (v, tag)
    return pivots


def _bits(tag, cols):
    """The 0/1 uint8 array of the low ``cols`` bits of a tag."""
    x = np.frombuffer(tag.to_bytes((cols + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(x, count=cols, bitorder="little")


def _check_preimage(e, x, b):
    """Raise unless the columns of ``e`` that ``x`` selects sum to ``b``."""
    if (np.bincount(e[x[e[:, 1]] == 1, 0], minlength=len(b)) & 1 != b).any():
        raise PreimageMismatch("column reduction returned x with matrix @ x != b")


def f2_rank(matrix):
    """Rank over F2 by column reduction."""
    return rank_from_entries(matrix.rows, matrix.cols, matrix.entries)


def rank_from_entries(rows, cols, entries, pivot_rows=None):
    """f2_rank without building the dataclass; entries are pairs or an array.

    If ``pivot_rows`` is a list, the top row of each reduced pivot column is
    appended to it, in no particular order: each is the highest row of a
    nonzero sum of columns, and they are distinct, one per unit of rank.
    """
    pivots = _extend({}, _columns(_distinct(entries)), tagged=False)
    if pivot_rows is not None:
        pivot_rows.extend(top - 1 for top in pivots)
    return len(pivots)


class ColumnSpan:
    """Solve A z = b over F2 while the columns of A arrive in batches.

    ``b`` is given by the distinct rows where it is 1.  Columns are numbered
    in the order they are added, and each batch is reduced into the tagged
    pivots of the columns before it, with b's residue kept against them, so
    a batch costs the reduction of its own columns only.  A later batch may
    reach rows no earlier column has.
    """

    def __init__(self, b_rows):
        self._b_rows = np.asarray(b_rows, dtype=np.int64)
        self.rows = int(self._b_rows.max()) + 1 if len(self._b_rows) else 0
        self.cols = 0
        self._rest = sum(1 << r for r in self._b_rows.tolist())
        self._tag = 0
        self._pivots = {}
        self._blocks = [np.zeros((0, 2), dtype=np.int64)]

    @property
    def rank(self):
        return len(self._pivots)

    def add(self, rows, cols, entries):
        """Append ``cols`` columns, numbered from the columns so far, and
        grow to ``rows`` rows.  ``entries`` are their (row, col) positions,
        with columns counted from 0 in the batch; as in a sum over F2, a
        position listed twice cancels.  Returns whether b now lies in the
        span."""
        e = _as_array(entries)
        if len(e) and (e.min() < 0 or e[:, 0].max() >= rows or e[:, 1].max() >= cols):
            raise DimensionMismatch(f"an entry lies outside {rows}x{cols}")
        e = e[np.argsort(e[:, 1], kind="stable")] + (0, self.cols)
        self.rows, self.cols = max(self.rows, rows), self.cols + cols
        self._blocks.append(e)
        _extend(self._pivots, _columns(e), tagged=True)
        self._rest, self._tag = _reduce(self._rest, self._tag, self._pivots)
        return not self._rest

    def preimage(self):
        """The 0/1 array z over the columns so far with A z = b, checked by a
        matrix product, or None while b lies outside their span."""
        if self._rest:
            return None
        z = _bits(self._tag, self.cols)
        b = np.zeros(self.rows, dtype=np.int64)
        b[self._b_rows] = 1
        _check_preimage(np.concatenate(self._blocks), z, b)
        return z


def f2_solve(matrix, b):
    """Any solution x of matrix @ x = b over F2, or None if b is not in the span.

    ``b`` is an iterable of 0/1 of length ``matrix.rows``; the result is a
    list of 0/1 of length ``matrix.cols``.  A position listed twice counts
    once.  One ``ColumnSpan`` batch: the preimage is checked by a matrix
    product before it is returned.
    """
    b = np.fromiter(b, dtype=np.int64) & 1
    if len(b) != matrix.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {matrix.rows}")
    span = ColumnSpan(np.flatnonzero(b))
    span.add(matrix.rows, matrix.cols, _distinct(matrix.entries))
    x = span.preimage()
    return None if x is None else x.tolist()
