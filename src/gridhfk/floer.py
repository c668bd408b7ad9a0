"""Generators, bigradings and rectangle differentials of the grid complex.

A generator (GridState) is a permutation: vertical line i meets horizontal
line ``state[i]`` (0-based, indices mod n).  The set of generators is all n!
permutations.  Differentials count empty rectangles; the tilde flavor blocks
every marker, the minus0 flavor blocks X's and records O incidences as
U-variable exponents.

Absolute gradings use the planar lattice-count formulas: with the points of
x at integer line intersections in [0,n)^2 and markers at cell centers,

    M_O(x) = J(x,x) - 2 J(x,O) + J(O,O) + 1
    A(x)   = (M_O(x) - M_X(x)) / 2 - (n - 1) / 2

where J(P,Q) symmetrizes the strictly-southwest pair count.  Both standard
normalizations (the Alexander generating-function identity and the grading
drop along rectangles) are enforced by the test suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AsymmetricResult, BudgetExceeded, ConfigError, NotPermutation, OutOfRange

FLAVORS = ("tilde", "minus0")
DEFAULT_MAX_SLICE = 5_000_000
MAX_STATE_N = 127  # the largest n whose rows 0..n-1 fit the int8 state arrays


def max_slice_budget():
    """Generator budget per slice, from ``GRIDHFK_MAX_SLICE`` if it is set."""
    raw = os.environ.get("GRIDHFK_MAX_SLICE", str(DEFAULT_MAX_SLICE))
    if not raw.isdecimal() or int(raw) == 0:
        raise ConfigError(f"GRIDHFK_MAX_SLICE must be a positive integer, got {raw!r}")
    return int(raw)


def check_table_bytes(name, size, n):
    """Refuse a per-grid table of ``size`` bytes, before it is built, when
    it exceeds max(budget, default budget) x n bytes."""
    cap = max(max_slice_budget(), DEFAULT_MAX_SLICE)
    if size > cap * n:
        raise BudgetExceeded(
            f"{name} of {size} bytes for n={n} exceeds {n} bytes per generator of budget {cap}"
        )


@dataclass(frozen=True, slots=True)
class Bigrading:
    M: int
    A: int

    def __add__(self, other):
        return Bigrading(self.M + other.M, self.A + other.A)


def _point_table(rows):
    """F[i, j] = doubled J-contribution of the point (i, j) against markers."""
    lines = np.arange(len(rows))
    right = lines[None, :] >= lines[:, None]  # [i, c]: column c at or right of i
    above = rows[None, :] >= lines[:, None]  # [j, c]: marker of column c at or above j
    return (right[:, None, :] == above[None, :, :]).sum(axis=2)


def _gap_table(rows):
    """gap[i, w, a]: least upward row distance from line a to a marker in
    columns i .. i+w-1 (cyclic), n for w = 0.  The rectangle with lower left
    corner (i, a), width w and height h misses every marker iff
    gap[i, w, a] >= h."""
    n = len(rows)
    lines = np.arange(n)
    dist = (rows[:, None] - lines) % n
    run = np.minimum.accumulate(dist[(lines[:, None] + lines) % n], axis=1)
    return np.concatenate([np.full((n, 1, n), n), run[:, :-1]], axis=1).astype(np.int8)


@lru_cache(maxsize=None)
def _column_pairs(n):
    """Index arrays of the column pairs i < j of an n-column state."""
    return np.triu_indices(n, 1)


def _noninversions(P):
    """Per row of P, the number of column pairs i < j with P[i] < P[j]."""
    iu, ju = _column_pairs(P.shape[1])
    return (P[:, iu] < P[:, ju]).sum(axis=1)


class GradingTables:
    """Per-grid lookup tables for vectorized gradings and rectangle tests.

    Point tables are doubled (J-contributions) to keep half-integers exact.
    Every grading, rectangle and state array of a grid reads these tables,
    so a grid too wide for the int8 states and gaps (n > ``MAX_STATE_N``)
    is refused here with ``OutOfRange``, before any table is built.  Below
    that the tables, about 21 n^3 bytes, take under 340 kB per line of the
    grid, far inside the least table allowance (``check_table_bytes``).
    """

    def __init__(self, G):
        n = self.n = G.n
        if n > MAX_STATE_N:
            raise OutOfRange(f"grid size {n} exceeds {MAX_STATE_N}, the largest with int8 states")
        o_rows = np.array(G.sigma_O) - 1  # 0-based marker cells
        x_rows = np.array(G.sigma_X) - 1
        self.FO = _point_table(o_rows)
        self.FX = _point_table(x_rows)
        self.JOO = int(_noninversions(o_rows[None])[0])
        self.JXX = int(_noninversions(x_rows[None])[0])
        # Rectangle gap tables: the tilde flavor blocks every marker, the
        # minus0 flavor only the X's.
        self.gap_x = _gap_table(x_rows)
        self.gap = np.minimum(_gap_table(o_rows), self.gap_x)
        # The tilde gap of the grid reflected top to bottom, line j to line
        # n - 1 - j, so a marker in row r goes to row n - 2 - r mod n: the
        # rectangles into a state are those out of its reflection.
        self.gap_reflected = np.minimum(*(_gap_table((-2 - rows) % n) for rows in (o_rows, x_rows)))
        # Doubled Alexander weights of the points, shifted per column to
        # start at 0, and the doubled Alexander grading of weight sum 0:
        # A(x) = (sum_i weights[i, x_i] + shift) / 2, and every sum is below
        # weight_span.
        w = self.FX - self.FO
        self.shift = int(w.min(axis=1).sum()) + self.JOO - self.JXX - (n - 1)
        self.weights = (w - w.min(axis=1, keepdims=True)).astype(np.int16)
        self.weight_span = int(self.weights.max(axis=1).sum()) + 1

    @cached_property
    def fiber_counts(self):
        """``counts[R, v]``: the number of ways the rows in bitmask R can
        fill the last |R| columns with total weight v, so the last row holds
        the size of every fiber; 2^n x weight_span int64s."""
        n, w = self.n, self.weights
        masks = np.arange(1 << n)
        size = sum((masks >> j) & 1 for j in range(n))
        counts = np.zeros((1 << n, self.weight_span), dtype=np.int64)
        counts[0, 0] = 1
        for k in range(1, n + 1):
            layer = masks[size == k]
            for j in range(n):
                sub = layer[(layer >> j) & 1 == 1]
                d = w[n - k, j]
                counts[sub, d:] += counts[sub ^ (1 << j), : self.weight_span - d]
        return counts


@lru_cache(maxsize=128)
def grading_tables(G):
    return GradingTables(G)


def grade_array(G, P):
    """Maslov and Alexander gradings of the generators in the rows of ``P``.

    The module-docstring formulas for a whole (N x n) state array at once,
    A read off the point weights and ``shift`` of ``GradingTables``;
    returns the two int64 arrays (M, A).
    """
    t = grading_tables(G)
    P = np.asarray(P).reshape(-1, t.n)
    cols = np.arange(t.n)
    sumO = t.FO[cols, P].sum(axis=1)
    a2 = t.weights[cols, P].sum(axis=1) + t.shift
    if (a2 % 2).any():
        raise AsymmetricResult("half-integer Alexander grading on a knot grid")
    return _noninversions(P) - sumO + t.JOO + 1, a2 // 2


def _generator(G, state):
    """``state`` as a tuple, refused with ``NotPermutation`` unless it is a
    permutation of 0..n-1."""
    state = tuple(state)
    if sorted(state) != list(range(G.n)):
        raise NotPermutation(f"state {state} is not a permutation of 0..{G.n - 1}")
    return state


def bigrading(G, state):
    """Absolute (Maslov, Alexander) bigrading of a generator; a state that
    is not one is refused with ``NotPermutation``."""
    M, A = grade_array(G, [_generator(G, state)])
    return Bigrading(M=int(M[0]), A=int(A[0]))


@lru_cache(maxsize=None)
def _rectangle_layout(n):
    """Index tables of ``rectangles`` on an n x n grid, over the pairs
    (i, w) of a left column and a width 1..n-1 in row-major order: the
    right column's line of each pair, the pair's offset into a flattened
    gap table, and i, w and the right column j per pair.  The offsets take
    the narrowest type that holds n^3, so the gather's index stays small."""
    i, w = np.divmod(np.arange(n * (n - 1)), n - 1)
    w += 1
    j = (i + w) % n
    shape = (n, n - 1)
    where = ((i * n + w) * n).astype(np.int16 if n**3 < 2**15 else np.int32)
    return j.reshape(shape), where.reshape(shape + (1,)), i, w, j


def rectangles(G, S, gap):
    """Every rectangle leaving the states in the rows of ``S`` whose interior
    misses the points of its source and every marker ``gap`` counts.

    ``S`` is an (N x n) int8 state array and ``gap`` a marker table of
    ``GradingTables``, which refuses every grid too wide for int8 states
    (n > ``MAX_STATE_N``).  For each ordered column pair (i, j) there is one
    torus rectangle with its lower-left corner on column i and its
    upper-right on column j; the pair (j, i) gives the complementary one.
    It is empty iff its height stays below the upward row distance of every
    interior point (a running minimum over the width) and the marker gap.
    The tables are laid out [column, width, state], so every array
    operation runs along the states.  Returns, per rectangle, the index of
    its source in ``S``, its left column, width and height, and the
    (N' x n) array of its targets.
    """
    n = G.n
    right, where, pair_i, pair_w, pair_j = _rectangle_layout(n)
    S = np.asarray(S, dtype=np.int8).reshape(-1, n)
    P = np.ascontiguousarray(S.T)
    D = P[right] - P[:, None]  # [i, w - 1, x]: the height at width w
    D += (D < 0) * np.int8(n)
    g = gap.ravel()[where + P[:, None]]  # gap[i, w, P[i, x]]
    low = D[:, :-1].copy()  # running minimum over the interior columns, by doubling
    step = 1
    while step < n - 2:
        low[:, step:] = np.minimum(low[:, step:], low[:, :-step])
        step *= 2
    np.minimum(g[:, 1:], low, out=g[:, 1:])
    flat = np.flatnonzero(g >= D)
    h = D.reshape(-1)[flat]
    pair, x = np.divmod(flat, len(S))
    del flat, D, g  # the tables are done with; free them before the targets are built
    T = S[x]
    a = np.arange(0, len(x) * n, n)  # the swapped entries, in T.ravel()
    b = a + pair_j[pair]
    i = pair_i[pair]
    a += i
    Tf = T.reshape(-1)
    Tf[a], Tf[b] = Tf[b], Tf[a]
    return x, i, pair_w[pair], h, T


def differential(G, state, flavor="tilde"):
    """Boundary of a generator as a mod-2 formal sum.

    tilde  -> dict {target_state: 1} counting empty rectangles with no markers.
    minus0 -> dict {(o_columns, target_state): 1} over rectangles with no X;
              ``o_columns`` is the sorted tuple of 1-based columns whose O
              marker (U-variable) the rectangle picks up.
    A state that is not a generator is refused with ``NotPermutation``, and
    a grid with n > ``MAX_STATE_N`` with ``OutOfRange`` (``GradingTables``).
    """
    if flavor not in FLAVORS:
        raise OutOfRange(f"unknown flavor {flavor!r}")
    n = G.n
    t = grading_tables(G)
    state = np.array(_generator(G, state), dtype=np.int8)
    _, i, w, h, T = rectangles(G, state, t.gap if flavor == "tilde" else t.gap_x)
    keys = map(tuple, T.tolist())
    if flavor == "minus0":
        cols = np.arange(n)
        o_rows = np.array(G.sigma_O) - 1
        inside = ((cols - i[:, None]) % n < w[:, None]) & ((o_rows - state[i, None]) % n < h[:, None])
        keys = zip([tuple(c + 1 for c, o in enumerate(r) if o) for r in inside.tolist()], keys)
    terms = {}
    for key in keys:
        terms[key] = terms.get(key, 0) ^ 1
    return {k: v for k, v in terms.items() if v}
