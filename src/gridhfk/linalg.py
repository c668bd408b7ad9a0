"""Sparse linear algebra over F2.

Matrices are (row, col) positions, given as pairs or as an (nnz x 2) array;
rank and solve reduce the columns, as Python-int bitsets over rows (xor at C
speed), left to right against the pivots so far, keyed by their top row.
The pivots are lazy (``_Reduction``): a column whose top row is no pivot's
yet becomes one as it stands, and its bitset is built only when a later
reduction reaches it, so most columns of a sparse block never get one.
``rank_from_entries`` can also hand back the pivots' top rows.  The
homology ranks reduce a whole batch of boundary blocks at once, as one
block-diagonal matrix, and cut these rows at the blocks' row offsets into
each block's rank and the columns it clears from the next block down.
``ColumnSpan`` keeps the pivots between batches of columns, so a solve can
grow its matrix until the right-hand side lies in its span; ``f2_solve``
is its one-batch case.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _distinct(entries):
    """The positions sorted by (col, row), each once, as an (nnz x 2) array.
    Positions already so, as ``boundary_blocks`` gives them, are checked in
    one pass and not sorted again."""
    e = _as_array(entries)
    step = np.diff(e, axis=0)
    if not ((step[:, 1] > 0) | ((step[:, 1] == 0) & (step[:, 0] > 0))).all():
        e = e[np.lexsort(e.T)]
        e = e[np.diff(e, axis=0, prepend=-1).any(axis=1)]
    return e


def _runs(a):
    """Where each run of equal values of the sorted array ``a`` starts, then
    len(a)."""
    edge = np.empty(len(a) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def _bitset(rows):
    """The Python int with bit r set for each of the distinct ``rows``."""
    v = 0
    for r in rows:
        v |= 1 << r
    return v


class _Reduction:
    """Column reduction over F2, left to right, keyed by top row, with the
    pivots built lazily.

    A column whose top row is no pivot's yet becomes a pivot as it stands:
    ``pivots`` ({top row: pivot}) holds only the number of its run of
    positions, which gives its rows and its column.  Its bitset (and, when
    ``tagged``, its tag 1 << col, which marks the columns summed into a
    pivot) is built the first time a reduction reaches it.  Only a column
    whose top row collides is built and reduced.  The pivots and their top
    rows are those of the reduction that builds every column, which leaves
    such a column unreduced too, so ranks and clearing are unchanged.
    """

    def __init__(self, tagged):
        self.tagged = tagged
        self.pivots = {}  # top row -> (bitset, tag), or a run number while not built
        self._firsts = [0]  # number of the first run of each batch, and of the next
        self._batches = []  # (rows, run bounds, run columns) of each batch

    def _built(self, run):
        k = bisect_right(self._firsts, run) - 1
        rows, bounds, cols = self._batches[k]
        i = run - self._firsts[k]
        return _bitset(rows[bounds[i] : bounds[i + 1]]), (1 << cols[i] if self.tagged else 0)

    def reduce(self, v, tag):
        """Xor pivots into ``v`` and its tag until the top bit of ``v`` is no
        pivot's."""
        pivots = self.pivots
        while v and (p := pivots.get(top := v.bit_length() - 1)) is not None:
            if type(p) is int:
                p = pivots[top] = self._built(p)
            v, tag = v ^ p[0], tag ^ p[1]
        return v, tag

    def add(self, rows, cols):
        """Reduce the columns with a 1 at each (rows[k], cols[k]), positions
        distinct and sorted by (col, row), into the pivots, after every
        column added before."""
        bounds = _runs(cols)
        tops = memoryview(rows[bounds[1:] - 1])
        # memoryviews: their items and slices are Python ints, made as read
        rows, bounds, heads = memoryview(rows), memoryview(bounds), memoryview(cols[bounds[:-1]])
        first = self._firsts[-1]
        self._batches.append((rows, bounds, heads))
        self._firsts.append(first + len(tops))
        pivots, tagged = self.pivots, self.tagged
        for i, top in enumerate(tops):
            if top not in pivots:
                pivots[top] = first + i
                continue
            v = _bitset(rows[bounds[i] : bounds[i + 1]])
            v, tag = self.reduce(v, 1 << heads[i] if tagged else 0)
            if v:
                pivots[v.bit_length() - 1] = (v, tag)


def _bits(tag, cols):
    """The 0/1 uint8 array of the low ``cols`` bits of a tag."""
    x = np.frombuffer(tag.to_bytes((cols + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(x, count=cols, bitorder="little")


def _check_preimage(rows, cols, x, b):
    """Raise unless the columns that ``x`` selects, of the matrix with a 1 at
    each (rows[k], cols[k]), sum to ``b``."""
    if (np.bincount(rows[x[cols] == 1], minlength=len(b)) & 1 != b).any():
        raise PreimageMismatch("column reduction returned x with matrix @ x != b")


def rank_from_entries(rows, cols, entries, pivot_rows=None):
    """Rank over F2, by column reduction, of the rows x cols matrix with a 1
    at each of ``entries``, (row, col) pairs or an (nnz x 2) array; a
    position listed twice counts once.  The rank reads only the positions,
    so the shape is not checked; the rank of the transpose is that of the
    entries with their two columns swapped.

    If ``pivot_rows`` is a list, the top row of each reduced pivot column is
    appended to it, in no particular order: each is the highest row of a
    nonzero sum of columns, and they are distinct, one per unit of rank.
    """
    e = _distinct(entries)
    reduction = _Reduction(tagged=False)
    reduction.add(e[:, 0], e[:, 1])
    if pivot_rows is not None:
        pivot_rows.extend(reduction.pivots)
    return len(reduction.pivots)


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
        self._reduction = _Reduction(tagged=True)
        self._entries = [(np.zeros(0, dtype=np.int64),) * 2]  # (rows, cols) of each batch

    @property
    def rank(self):
        return len(self._reduction.pivots)

    def add(self, rows, cols, entries):
        """Append ``cols`` columns, numbered from the columns so far, and
        grow to ``rows`` rows.  ``entries`` are their (row, col) positions,
        with columns counted from 0 in the batch; as in a sum over F2, a
        position listed twice cancels.  Returns whether b now lies in the
        span."""
        e = _as_array(entries)
        if len(e) and (e.min() < 0 or e[:, 0].max() >= rows or e[:, 1].max() >= cols):
            raise DimensionMismatch(f"an entry lies outside {rows}x{cols}")
        # each position an odd number of times, once, sorted by (col, row)
        keys = np.sort(e[:, 1] * rows + e[:, 0])
        if (keys[1:] == keys[:-1]).any():
            runs = _runs(keys)
            keys = keys[runs[:-1][(runs[1:] - runs[:-1]) % 2 == 1]]
        c, r = np.divmod(keys, rows)
        c += self.cols
        self._reduction.add(r, c)
        self.rows, self.cols = max(self.rows, rows), self.cols + cols
        self._entries.append((r, c))
        self._rest, self._tag = self._reduction.reduce(self._rest, self._tag)
        return not self._rest

    def preimage(self):
        """The 0/1 array z over the columns so far with A z = b, checked by a
        matrix product, or None while b lies outside their span."""
        if self._rest:
            return None
        z = _bits(self._tag, self.cols)
        b = np.zeros(self.rows, dtype=np.int64)
        b[self._b_rows] = 1
        _check_preimage(*map(np.concatenate, zip(*self._entries)), z, b)
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
