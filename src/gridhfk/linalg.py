"""Sparse linear algebra over F2.

Matrices are (row, col) positions, given as pairs or as an (nnz x 2) array;
elimination runs on rows packed 64 columns to a machine word, so the inner
loop is a vectorized xor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


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


def _pack(rows, cols, entries):
    """Rows of a 0/1 matrix as bits of uint64 words, 64 columns to a word."""
    packed = np.zeros((rows, max((cols + 63) // 64, 1)), dtype=np.uint64)
    r, c = _as_array(entries).T
    np.bitwise_or.at(packed, (r, c >> 6), np.uint64(1) << (c & 63).astype(np.uint64))
    return packed


def _eliminate(packed, cols):
    """In-place reduction to reduced row echelon form.

    Returns the list of (pivot_row, pivot_col) pairs; len() of it is the rank.
    """
    nrows = packed.shape[0]
    pivots = []
    row = 0
    for col in range(cols):
        if row == nrows:
            break
        w = col >> 6
        bit = np.uint64(1) << np.uint64(col & 63)
        hits = np.nonzero(packed[row:, w] & bit)[0]
        if hits.size == 0:
            continue
        p = row + hits[0]
        if p != row:
            packed[[row, p]] = packed[[p, row]]
        mask = (packed[:, w] & bit).astype(bool)
        mask[row] = False
        if mask.any():
            packed[mask] ^= packed[row]
        pivots.append((row, col))
        row += 1
    return pivots


def f2_rank(matrix):
    """Rank over F2 by Gaussian elimination on packed rows."""
    return rank_from_entries(matrix.rows, matrix.cols, matrix.entries)


def rank_from_entries(rows, cols, entries):
    """f2_rank without building the dataclass; entries are pairs or an array."""
    e = _as_array(entries)
    if not len(e):
        return 0
    # Eliminating along the smaller dimension is cheaper; rank is symmetric.
    if rows > cols:
        rows, cols, e = cols, rows, e[:, ::-1]
    return len(_eliminate(_pack(rows, cols, e), cols))


def f2_solve(matrix, b):
    """Any solution x of matrix @ x = b over F2, or None if b is not in the span.

    ``b`` is an iterable of 0/1 of length ``matrix.rows``; the result is a
    list of 0/1 of length ``matrix.cols``.
    """
    b = np.fromiter(b, dtype=np.int64)
    if len(b) != matrix.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {matrix.rows}")
    cols = matrix.cols
    rhs = np.flatnonzero(b & 1)
    aug = np.column_stack([rhs, np.full(len(rhs), cols)])  # augmented column
    packed = _pack(matrix.rows, cols + 1, np.concatenate([_as_array(matrix.entries), aug]))
    pivots = _eliminate(packed, cols)
    # A leftover 1 in the augmented column of a zero row means no solution.
    bcol = packed[:, cols >> 6] & np.uint64(1 << (cols & 63))
    if bcol[len(pivots):].any():
        return None
    x = np.zeros(cols, dtype=np.int64)
    if pivots:
        prow, pcol = np.array(pivots).T
        x[pcol] = bcol[prow] != 0
    return x.tolist()
