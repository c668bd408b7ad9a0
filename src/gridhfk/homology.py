"""Bigraded F2 homology of the fully blocked grid complex.

The tilde complex over all n! generators is processed one Alexander grading
at a time: the differential preserves A, so each fiber is an independent
chain complex graded by Maslov degree.  A counting table sizes every fiber
(``_fiber_sizes``), and each is held to the budget first; then one frontier
sweep over the columns lists all the fibers together, carrying each partial
generator's weight and Maslov grading along (``enumerate_fibers``).  A
fiber's blocks are ranked from the highest Maslov degree down, with
clearing: a column of d_m whose generator tops a reduced pivot of d_{m+1}
reduces to zero, so it is dropped before the block is built, and about half
the columns never get rectangles (``_fiber_ranks``).  The fibers go in
rounds, the r-th block of each fiber in round r, and the small blocks of a
round are built together, in one vectorized pass (``boundary_blocks``),
and ranked together, as one block-diagonal matrix.
Hat-flavor data is recovered by exact division of the tilde Poincare
polynomial by (1 + q^-1 t^-1)^(n-1); inexact division is a hard failure,
never papered over.

A tilde vanishing verdict lists no fiber: it solves dz = cycle on the
cycle's own connected component of the boundary between two slices, grown
from the cycle with the rectangles into it (``incoming``: those out of the
reflected states, under the reflected grid's marker gap) and out of what it
reaches, and is exact when a preimage checks or the component closes.

The Alexander polynomial comes from a different route entirely: over Z
the determinant of the n x n matrix of T^(per-point Alexander weight) is
+-T^k (1 - T)^(n-1) Delta_K(T) (Manolescu-Ozsvath-Sarkar), which stays
cheap far beyond enumeration range.  Every homology report is checked
against it: the graded Euler characteristic of the hat table must be
Delta_K exactly (Ozsvath-Szabo), not only mod 2.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import factorial

import numpy as np

from .errors import AsymmetricResult, BudgetExceeded, DimensionMismatch, DivisionInexact
from .errors import EulerMismatch, MultiComponent, NotACycle, OutOfRange
from .floer import FLAVORS, bigrading, check_state_size, check_table_bytes, differential
from .floer import grade_array, grading_tables, max_slice_budget, rectangles
from .grid import component_count
from .linalg import ColumnSpan, SparseF2Matrix, _runs, f2_solve, rank_from_entries

MINUS0_CAP = 2  # total U-degree searched by the bounded minus0 verdict
SOLVE_BYTES = 200  # bitset bytes a verdict's reduction may hold per budgeted generator
# Smallest grid whose fibers go to a process pool.  On a 2-vCPU Xeon, starting
# and stopping a 2-worker pool costs 11.5 ms, more than a 7x7 complex gains
# from it (20-35 ms of work).  At n = 8 the pool ties with serial (0.054-0.073
# s against 0.052-0.071 s), and at 9x9 it wins by the median: two seeded 9x9
# knots took 0.29-0.45 s pooled against 0.45-0.71 s serial (alternating runs
# in one process).
POOL_MIN_N = 8
# Most kept sources whose boundary blocks are built and ranked in one call,
# across the fibers of a round; a larger block runs alone.  Half of the
# blocks of a 7x7 complex have at most 16 sources, so per-call numpy overhead
# dominates them.  On a 2-vCPU Xeon, the median pass of the 7x7 homology
# benchmark workload (seed 11, twelve alternating passes in one process) took
# 0.145 s with one block per call, 0.103 s at 256 sources, 0.090 s at 1,024,
# 0.093 s at 4,096 and 0.089 s at 16,384; the 9x9 sum, whose large blocks run
# alone, took 0.38-0.50 s at every cap.
BATCH_SOURCES = 4096


# -- generators ----------------------------------------------------------------


def _encode(P):
    """Codes of the rows of an (N x n) state array, ordered as the rows are
    lexicographically.  For n <= 8 a row's n int8 entries, zero-padded to 8
    bytes, are read big-endian into one native uint64; for larger n they are
    one void scalar of n bytes, which numpy compares by a generic routine,
    several times slower in a sort or a ``searchsorted``.  A state wider
    than ``MAX_STATE_N`` is refused with ``OutOfRange`` first."""
    check_state_size(np.shape(P)[1])
    P = np.ascontiguousarray(P, dtype=np.int8)
    n = P.shape[1]
    if n > 8:
        return P.view(f"V{n}").ravel()
    padded = np.zeros((len(P), 8), dtype=np.int8)
    padded[:, :n] = P
    return padded.view(">u8").ravel().astype(np.uint64)


def _decode(codes, n):
    if n > 8:
        return codes.view(np.int8).reshape(-1, n)
    return codes.astype(">u8").view(np.int8).reshape(-1, 8)[:, :n]


def _distinct_codes(codes):
    """The codes sorted, each once.  numpy 2's np.unique without return_*
    imports numpy.ma, 1.3 MiB of resident memory."""
    codes = np.sort(codes)
    return np.concatenate([codes[:1], codes[1:][codes[1:] != codes[:-1]]])


def _find(sorted_codes, codes):
    """Insertion positions of ``codes`` in ``sorted_codes``, and whether
    each is there."""
    pos = np.searchsorted(sorted_codes, codes)
    found = pos < len(sorted_codes)
    found[found] = sorted_codes[pos[found]] == codes[found]
    return pos, found


def enumerate_fibers(G):
    """All n! generators bucketed by Alexander grading, in one sweep.

    The size of every fiber is read off the grid's counting table first
    (``_fiber_sizes``), so a grid is refused before any generator is listed:
    when the integer fibers miss generators (a link grid), or when a fiber
    exceeds the slice budget, the one gate it shares with
    ``generators_with_alexander``.  Then one frontier sweep lists every
    generator with its weight sum and Maslov grading (``_sweep``), and one
    stable sort by (A, M) splits them into fibers.  Returns {A: (codes, M)}
    in increasing A, with codes the generators' codes (``_encode``: one
    uint64 each for n <= 8) and M the matching Maslov gradings; entries
    sorted by (M, code) for determinism.
    """
    sizes = _fiber_sizes(G)
    if sum(sizes.values()) != factorial(G.n):
        raise AsymmetricResult("integer Alexander fibers miss generators: a link grid?")
    _hold_to_budget(sizes, max_slice_budget())
    states, weight, M = _sweep(G)
    # the sweep lists in code order, so a stable sort by weight, then M,
    # leaves each fiber in (M, code) order
    low = M.min()
    key = weight * (M.max() - low + 1) + (M - low)
    order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
    codes, M = _encode(states)[order], M[order]
    return {
        a: (codes[end - size : end], M[end - size : end])
        for (a, size), end in zip(sizes.items(), itertools.accumulate(sizes.values()))
        if size
    }


def generators_with_alexander(G, A):
    """Generators in one Alexander fiber, as an (N x n) int8 array.

    The fiber's size is read off the counting table and held to the slice
    budget before anything is listed; then ``_sweep`` lists it, pruned to
    its one weight.  Rows come out in lexicographic order.
    """
    cap = max_slice_budget()
    size = _fiber_sizes(G).get(A, 0)
    _hold_to_budget({A: size}, cap)
    if not size:
        return np.zeros((0, G.n), dtype=np.int8)
    return _sweep(G, 2 * A - grading_tables(G).shift)[0]


def _fiber_sizes(G):
    """{A: number of generators} over the grid's Alexander range, zeros
    included, read off its counting table (``GradingTables.fiber_counts``).
    The table is refused before it is built if its bytes exceed max(budget,
    default budget) x n, which no table for n <= 14 comes near."""
    t = grading_tables(G)
    check_table_bytes("fiber search table", 8 * (1 << G.n) * t.weight_span, G.n)
    counts = t.fiber_counts[-1].tolist()
    return {(w + t.shift) // 2: counts[w] for w in range(t.shift % 2, t.weight_span, 2)}


def _hold_to_budget(sizes, cap):
    """Refuse the first fiber of ``sizes`` ({A: size}) over the budget."""
    for a, size in sizes.items():
        if size > cap:
            raise BudgetExceeded(f"fiber A={a}: {size} generators exceed budget {cap}")


@lru_cache(maxsize=None)
def _row_tables(n):
    """Per bitmask of used rows: its unused rows in increasing order (then
    the used ones), and for each row v the number of used rows below v."""
    used = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    free = np.argsort(used, axis=1, kind="stable").astype(np.int8)
    below = (np.cumsum(used, axis=1) - used).astype(np.int8)
    return free, below


def _sweep(G, need=None):
    """Generators of G in lexicographic order, listed column by column on a
    whole frontier of partial states at once.

    Each partial state carries its rows-used bitmask, its Alexander weight
    sum and its Maslov part: the non-inversions each new point adds (the
    used rows below it) minus its ``FO`` term.  With ``need`` None every
    permutation is listed; otherwise only those of weight sum ``need``, a
    partial state surviving only while its unused rows can still fill the
    remaining columns with the missing weight (the counting table, which
    the caller has held to its budget, says how many ways), so no frontier
    is larger than the fiber.  Returns the (N x n) int8 states, their
    weight sums and their Maslov gradings.
    """
    n = G.n
    t = grading_tables(G)
    free, below = _row_tables(n)
    fo = t.FO.astype(np.int16)
    full = (1 << n) - 1
    states = np.zeros((1, 0), dtype=np.int8)
    used = np.zeros(1, dtype=np.int32)  # bitmask of rows taken
    weight = np.zeros(1, dtype=np.int16)
    maslov = np.zeros(1, dtype=np.int16)
    for i in range(n):
        rows = free[:, : n - i][used]  # [state, k]: the k-th unused row
        grown = np.empty(rows.shape + (i + 1,), dtype=np.int8)
        grown[:, :, :i] = states[:, None]
        grown[:, :, i] = rows
        maslov = maslov[:, None] + below[used[:, None], rows] - fo[i, rows]
        weight = weight[:, None] + t.weights[i, rows]
        used = used[:, None] | (1 << rows.astype(np.int32))
        states = grown.reshape(-1, i + 1)
        maslov, weight, used = maslov.ravel(), weight.ravel(), used.ravel()
        if need is not None:
            rest = need - weight
            ok = rest >= 0
            ok[ok] = t.fiber_counts[full ^ used[ok], rest[ok]] > 0
            states, maslov, weight, used = states[ok], maslov[ok], weight[ok], used[ok]
    return states, weight, maslov + np.int64(t.JOO + 1)


# -- tilde boundary blocks -------------------------------------------------------


def boundary_blocks(G, pairs):
    """Boundary blocks of the fully blocked differential between slices,
    one per (sources, targets) pair, as one block-diagonal matrix, from one
    ``rectangles`` call, one target lookup and one parity pass over all
    their sources.

    Each pair holds the codes of the sources (columns) and the codes of the
    targets (rows), in the order that numbers them; the pairs' rows and
    columns are numbered in turn.  No generator may be a target of two
    pairs, or twice of one (``DimensionMismatch``): the homology rounds pair
    blocks of different Alexander fibers.  The target tables are
    concatenated and sorted once, every rectangle's target is looked up in
    that one table, and a target found in another pair's table counts in no
    block.  Returns the (nnz x 2) int64 array of (row, col) positions hit by
    an odd number of empty rectangles that miss every marker, each once and
    sorted by (col, row), as the rank's column reduction reads them, and
    the offsets ``src_at`` and ``tgt_at``: pair k has the columns
    src_at[k]:src_at[k + 1] and the rows tgt_at[k]:tgt_at[k + 1].
    """
    n = G.n
    srcs, tgts = [p[0] for p in pairs], [p[1] for p in pairs]
    src_len, tgt_len = [len(s) for s in srcs], [len(t) for t in tgts]
    x, _, _, _, T = rectangles(G, _decode(np.concatenate(srcs), n), grading_tables(G).gap)
    table = np.concatenate(tgts)
    order = np.argsort(table, kind="stable")
    ordered = table[order]
    if (ordered[1:] == ordered[:-1]).any():
        raise DimensionMismatch("a generator is listed twice among the targets of the pairs")
    at, hit = _find(ordered, _encode(T))
    col, row = x[hit], order[at[hit]]
    number = np.arange(len(pairs))
    own = np.repeat(number, tgt_len)[row] == np.repeat(number, src_len)[col]
    keys, counts = np.unique(col[own] * len(table) + row[own], return_counts=True)
    col, row = np.divmod(keys[counts % 2 == 1], len(table))
    return np.stack([row, col], axis=1), np.cumsum([0] + src_len), np.cumsum([0] + tgt_len)


def _fiber_ranks(G, fibers):
    """Per-Maslov homology ranks of Alexander fibers, each (codes, M) sorted
    by (M, code); returns {M: rank} for each, zero ranks dropped.

    Each fiber's blocks are ranked from the highest Maslov degree down,
    with clearing (Chen-Kerber; PHAT): a reduced column of block m+1 with
    top row i is a boundary, so d_m of it is 0 and column i of block m is a
    sum of columns before it.  Such columns are dropped from block m before
    it is built; by induction the kept ones span what all of them span, so
    rank d_m is the rank of the kept columns.  The fibers go in rounds:
    round r builds the r-th block from the top of every fiber, in batches
    of at most ``BATCH_SOURCES`` kept sources (``boundary_blocks``), and a
    larger block alone.  A batch is one reduction of its block-diagonal
    matrix: no two blocks share a row, so each block gets the pivots it gets
    alone, and its rank and its cleared columns are the pivots' top rows in
    its row range.
    """
    slices, blocks = [], []
    for codes, M in fibers:
        bounds = _runs(M).tolist()  # M is sorted: each Maslov slice is one run
        groups = {int(M[lo]): codes[lo:hi] for lo, hi in zip(bounds, bounds[1:])}
        slices.append(groups)
        blocks.append([m for m in sorted(groups, reverse=True) if m - 1 in groups])
    brank = [{} for _ in fibers]  # m -> rank of boundary out of Maslov degree m
    cleared = [{} for _ in fibers]  # m -> top rows of block m+1's pivots, as columns of block m
    for r in range(max(map(len, blocks), default=0)):
        work = []  # (fiber, m, kept sources, targets)
        for f, groups in enumerate(slices):
            if r < len(blocks[f]):
                m = blocks[f][r]
                # the fiber is sorted by (M, code), so C_m is in code order both
                # as block m's columns and as block m+1's rows: a top row of
                # block m+1 is a column number of block m
                src, drop = groups[m], cleared[f].pop(m, None)
                if drop is not None:
                    keep = np.ones(len(src), dtype=bool)
                    keep[drop] = False
                    src = src[keep]
                work.append((f, m, src, groups[m - 1]))
        for batch in _batches(work):
            entries, src_at, tgt_at = boundary_blocks(G, [w[2:] for w in batch])
            tops = []
            rank_from_entries(int(tgt_at[-1]), int(src_at[-1]), entries, tops)
            tops = np.sort(np.array(tops, dtype=np.int64))
            cuts = np.searchsorted(tops, tgt_at).tolist()
            for k, (f, m, _, _) in enumerate(batch):
                lo, hi = cuts[k], cuts[k + 1]
                brank[f][m] = hi - lo
                if hi > lo:
                    cleared[f][m - 1] = tops[lo:hi] - tgt_at[k]
    return [
        {m: h for m, cs in groups.items() if (h := len(cs) - b.get(m, 0) - b.get(m + 1, 0))}
        for groups, b in zip(slices, brank)
    ]


def _batches(work):
    """Consecutive runs of the blocks in ``work`` with at most
    ``BATCH_SOURCES`` sources in all, a larger block alone."""
    batch, size = [], 0
    for item in work:
        if batch and size + len(item[2]) > BATCH_SOURCES:
            yield batch
            batch, size = [], 0
        batch.append(item)
        size += len(item[2])
    if batch:
        yield batch


# -- Laurent polynomial helpers ----------------------------------------------


def _divide_by_one_minus(poly, times):
    """Quotient of a coefficient list (lowest power first) by (1 - z)^times:
    each division is a running sum, whose popped last entry p(1) must be 0."""
    for _ in range(times):
        poly = list(itertools.accumulate(poly))
        if poly and poly.pop():
            raise DivisionInexact(f"polynomial not divisible by (1 - z)^{times}")
    return poly


def hat_from_tilde(poincare, n):
    """Exact division of the tilde Poincare polynomial by (1+q^-1 t^-1)^(n-1).

    Multiplying by q^-1 t^-1 keeps d = M - A, so each diagonal divides on
    its own: read from its highest A down with alternating signs, it is a
    polynomial in z = -q^-1 t^-1, and 1 + q^-1 t^-1 = 1 - z."""
    diagonals = {}
    for (m, a), v in poincare.items():
        diagonals.setdefault(m - a, {})[a] = v
    hat = {}
    for d, row in diagonals.items():
        top = max(row)
        poly = [(-1) ** k * row.get(top - k, 0) for k in range(top - min(row) + 1)]
        for k, v in enumerate(_divide_by_one_minus(poly, n - 1)):
            if v:
                hat[(d + top - k, top - k)] = (-1) ** k * v
    if any(v < 0 for v in hat.values()):
        raise DivisionInexact("V-factor quotient has negative coefficients")
    return hat


def format_qt(d):
    """Canonical string for a Laurent polynomial in q (Maslov), t (Alexander)."""
    if not d:
        return "0"
    terms = []
    for (m, a) in sorted(d, key=lambda k: (k[1], k[0])):
        c = d[(m, a)]
        parts = []
        for var, e in (("q", m), ("t", a)):
            if e == 1:
                parts.append(var)
            elif e != 0:
                parts.append(f"{var}^{e}")
        if c != 1 or not parts:
            parts.insert(0, str(c))
        terms.append(" ".join(parts))
    return " + ".join(terms)


def format_t(poly):
    """Canonical string for a Laurent polynomial in T, given as {exponent:
    nonzero integer coefficient}; an exponent set stands for an F2
    polynomial."""
    if not isinstance(poly, dict):
        poly = dict.fromkeys(poly, 1)
    out = ""
    for e in sorted(poly):
        c = poly[e]
        var = "" if e == 0 else "T" if e == 1 else f"T^{e}"
        term = " ".join(filter(None, ["" if abs(c) == 1 and var else str(abs(c)), var]))
        sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        out += sign + term
    return out or "0"


# -- Alexander polynomial ------------------------------------------------------


def alexander_polynomial(G):
    """The symmetrized Alexander polynomial Delta_K, as {A: coefficient}.

    Over Z the matrix of point weights T^w has determinant
    sum_x sign(x) T^w(x), which is +-T^k (1 - T)^(n-1) Delta_K(T)
    (Manolescu-Ozsvath-Sarkar).  Each T^w is packed as the integer
    2^(b w) and the determinant is taken of those plain ints; no
    coefficient exceeds n! in absolute value, so with 2^(b-1) > n! the
    coefficients are its balanced base-2^b digits.  The weights are
    doubled Alexander gradings, so every digit of the other parity must be
    0.  The quotient by (1 - T)^(n-1) must be exact, Delta(1) = +-1 fixes
    the sign and Delta must be symmetric; each failure signals a grading
    bug and surfaces as a typed error.
    """
    if component_count(G) != 1:
        raise MultiComponent("the Alexander polynomial requires a single-component grid")
    n = G.n
    t = grading_tables(G)
    b = factorial(n).bit_length() + 1
    det = _determinant([[1 << (b * w) for w in row] for row in t.weights.tolist()])
    digits = []
    while det:
        d = det & ((1 << b) - 1)
        if d >> (b - 1):
            d -= 1 << b
        digits.append(d)
        det = (det - d) >> b
    # digit e is the coefficient of T^((e + t.shift) / 2)
    if any(digits[1 - t.shift % 2 :: 2]):
        raise AsymmetricResult("odd doubled Alexander exponent")
    poly = digits[t.shift % 2 :: 2]
    while poly and not poly[0]:
        poly.pop(0)
    poly = _divide_by_one_minus(poly, n - 1)
    unit = sum(poly)
    if unit not in (1, -1) or poly != poly[::-1]:
        raise AsymmetricResult(f"Alexander polynomial {poly} not symmetric with Delta(1) = +-1")
    return {k - len(poly) // 2: unit * c for k, c in enumerate(poly) if c}


def _determinant(m):
    """Determinant of a square matrix of Python ints, up to sign (Bareiss):
    each entry stays a minor, so every division is exact."""
    n = len(m)
    prev = 1
    for k in range(n):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            m[i] = [0] * (k + 1) + [(pivot * row[j] - f * top[j]) // prev for j in range(k + 1, n)]
        prev = pivot
    return m[n - 1][n - 1]


def exponents_mod2(poly):
    """Exponent set of an integer polynomial {A: coefficient} reduced mod 2."""
    return {a for a, c in poly.items() if c % 2}


# -- reports -------------------------------------------------------------------


@dataclass
class HomologyReport:
    ranks: dict  # (M, A) -> F2 dimension of the tilde homology
    alexander_mod2: set  # exponent set of Delta mod 2
    hat_poincare: dict = field(default_factory=dict)  # (M, A) -> hat rank
    generator_counts: dict = field(default_factory=dict)  # A -> #generators

    def hat_total_rank(self):
        return sum(self.hat_poincare.values())

    def hat_ranks_by_alexander(self):
        out = {}
        for (m, a), d in self.hat_poincare.items():
            out[a] = out.get(a, 0) + d
        return out

    def euler_characteristic(self):
        """sum (-1)^M hat rank * T^A, as {A: coefficient}, zeros dropped."""
        acc = {}
        for (m, a), d in self.hat_poincare.items():
            acc[a] = acc.get(a, 0) + (-d if m % 2 else d)
        return {a: c for a, c in acc.items() if c}

    def euler_characteristic_exponents_mod2(self):
        """Exponent set of the Euler characteristic reduced mod 2."""
        return exponents_mod2(self.euler_characteristic())

    def to_json(self):
        return json.dumps(
            {
                "ranks": [
                    [m, a, self.ranks[(m, a)]]
                    for (m, a) in sorted(self.ranks, key=lambda k: (k[1], k[0]))
                ],
                "poincare": format_qt(self.ranks),
                "alexander_mod2": format_t(self.alexander_mod2),
                "hat_poincare": format_qt(self.hat_poincare),
            },
            sort_keys=True,
        )


def check_workers(workers):
    """Refuse a worker count that is neither None nor a positive int; a
    bool is not a count."""
    if workers is not None and (type(workers) is not int or workers < 1):
        raise OutOfRange(f"workers must be a positive integer, got {workers!r}")


def tilde_homology(G, workers=None):
    """Full bigraded tilde homology plus the derived hat/Alexander data.

    Alexander fibers are independent; with ``workers`` > 1 and n at least
    ``POOL_MIN_N`` they are reduced in a pool of at most one process per
    fiber, one fiber a job, and otherwise all in one ``_fiber_ranks`` call;
    they are merged in grading order, so output never depends on the
    worker count.  ``workers`` is None or a positive int.  The hat table's
    Euler characteristic must equal ``alexander_polynomial``, coefficient
    by coefficient, or ``EulerMismatch`` is raised.
    """
    check_workers(workers)
    if component_count(G) != 1:
        raise MultiComponent("homology requires a single-component grid")
    fibers = enumerate_fibers(G)
    size = min(workers or 1, len(fibers))
    if size > 1 and G.n >= POOL_MIN_N:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            jobs = pool.map(partial(_fiber_ranks, G), [[fiber] for fiber in fibers.values()])
            ranked = [fiber for job in jobs for fiber in job]
    else:
        ranked = _fiber_ranks(G, list(fibers.values()))
    ranks = {(m, A): d for A, fiber in zip(fibers, ranked) for m, d in fiber.items()}
    hat = hat_from_tilde(ranks, G.n)
    delta = alexander_polynomial(G)
    report = HomologyReport(
        ranks=ranks,
        alexander_mod2=exponents_mod2(delta),
        hat_poincare=hat,
        generator_counts={A: len(codes) for A, (codes, _) in fibers.items()},
    )
    chi = report.euler_characteristic()
    if chi != delta:
        raise EulerMismatch(
            f"hat Euler characteristic {sorted(chi.items())} differs from the Alexander"
            f" polynomial {sorted(delta.items())}"
        )
    return report


# -- cycle vanishing -----------------------------------------------------------


def _check_cycle(G, chain, flavor):
    acc = {}
    for state in chain:
        for key, v in differential(G, state, flavor).items():
            acc[key] = acc.get(key, 0) ^ v
    if any(acc.values()):
        raise NotACycle(f"chain has nonzero {flavor} differential")


def class_vanishes(G, chain, flavor="tilde", grading=None):
    """Vanishing verdict for the homology class of an F2 cycle.

    tilde: exact.  Solves for a preimage on the cycle's component of the
    boundary into its slice (see ``_tilde_vanishes``); returns "Vanishes"
    or "Survives".

    minus0: bounded.  Searches preimages with U-monomials of total degree at
    most ``MINUS0_CAP``; returns "Vanishes" (definitive) or "NoPreimageUpToCap".

    A chain that is not homogeneous in (M, A), or not a cycle, raises
    ``NotACycle``.  A caller that has already graded the chain passes its
    ``Bigrading`` as ``grading``; the chain is then not graded again.
    """
    if flavor not in FLAVORS:
        raise OutOfRange(f"unknown flavor {flavor!r}")
    chain = [tuple(s) for s in chain]
    if not chain:
        return "Vanishes"
    bg = grading
    if bg is None:
        gradings = {bigrading(G, s) for s in chain}
        if len(gradings) != 1:
            raise NotACycle("chain is not homogeneous in (M, A)")
        bg = gradings.pop()
    _check_cycle(G, chain, flavor)
    if flavor == "tilde":
        return _tilde_vanishes(G, chain, bg)
    return _minus0_vanishes(G, chain, bg)


def incoming(G, S):
    """Every rectangle the tilde differential counts into the states in the
    rows of ``S``: those from a y to a state x of S that are empty and miss
    every marker.

    Reflecting the torus top to bottom, line j to line n - 1 - j, swaps the
    lower and upper corners of each rectangle and keeps its columns,
    interior points and markers, so ``rectangles``, which reads only n off
    its grid, lists the ones from x' to y' when run on the reflected states
    x' with the reflected grid's marker gap (``GradingTables.gap_reflected``).
    Returns, per rectangle, the index of x in ``S`` and the (N' x n) array
    of the y.
    """
    top, gap = G.n - 1, grading_tables(G).gap_reflected
    x, _, _, _, Y = rectangles(G, top - np.asarray(S, dtype=np.int8), gap)
    return x, top - Y


def _tilde_vanishes(G, chain, bg):
    """Exact tilde verdict, solved on the chain's own component.

    The boundary from slice (M+1, A) to the chain's slice (M, A) splits
    along the connected components of its bipartite graph, with an edge for
    each empty marker-free rectangle, and so does the equation dz = chain.
    The component is grown from the chain's rows, round by round, keeping
    only what the next round reads.  Each round takes the rows first
    reached in the round before (the frontier), adds the sources of the
    rectangles into them (``incoming``) that are not columns of the round
    before, adds those columns' whole boundaries, and reduces the new
    columns into the tagged pivots of the old ones (``ColumnSpan``).  A row
    first reached in round k is the target of no column added before round
    k - 1, or it would have been reached then; so no earlier column is
    among the sources, and a target of the new columns is either in the
    frontier or a row not yet seen, one of the next round's rows.  Each
    round's new generators are numbered in code order after those before.
    A preimage found then has its whole boundary among the rows:
    "Vanishes", after a product check.  A round that adds no column has
    closed the component, and any preimage restricted to it would still be
    one: "Survives".  The slice budget caps the component's rows and
    columns before each round's arrays are built, and the bitsets of its
    reduction, rank x (rows + columns) bits at most, to ``SOLVE_BYTES``
    bytes per budgeted generator before each reduction.
    """
    n = G.n
    cap = max_slice_budget()
    gap = grading_tables(G).gap
    codes, counts = np.unique(_encode(np.array(chain)), return_counts=True)
    frontier = codes[counts % 2 == 1]  # codes of the rows first reached last round
    base = 0  # the number of the frontier's first row
    cols = frontier[:0]  # the columns added last round, by code
    span = ColumnSpan(np.arange(len(frontier)))
    while span.preimage() is None:
        if span.rows > cap:
            raise BudgetExceeded(
                f"slice (M={bg.M}, A={bg.A}): {span.rows} generators of the cycle's"
                f" component exceed budget {cap}"
            )
        new = _distinct_codes(_encode(incoming(G, _decode(frontier, n))[1]))
        cols = new[~_find(cols, new)[1]]
        if not len(cols):
            return "Survives"
        if span.cols + len(cols) > cap:
            raise BudgetExceeded(
                f"slice (M={bg.M + 1}, A={bg.A}): {span.cols + len(cols)} generators of the"
                f" cycle's component exceed budget {cap}"
            )
        src, _, _, _, T = rectangles(G, _decode(cols, n), gap)
        targets = _encode(T)
        at, old = _find(frontier, targets)
        ids = np.empty(len(src), dtype=np.int64)
        ids[old] = base + at[old]
        fresh = targets[~old]
        frontier, base = _distinct_codes(fresh), span.rows
        ids[~old] = base + np.searchsorted(frontier, fresh)
        height, width = span.rows + len(frontier), span.cols + len(cols)
        if (span.rank + len(cols)) * (height + width) > 8 * SOLVE_BYTES * cap:
            raise BudgetExceeded(
                f"slice (M={bg.M}, A={bg.A}): reducing the cycle's component of {height} x"
                f" {width} generators may take {(span.rank + len(cols)) * (height + width) // 8}"
                f" bytes of bitsets, over budget {cap} x {SOLVE_BYTES} bytes"
            )
        span.add(height, len(cols), np.stack([ids, src], axis=1))
    return "Vanishes"


def _minus0_vanishes(G, chain, bg):
    # Unknowns: (generator y, U-monomial m) with A(y) = A + deg(m),
    # M(y) = M + 1 + 2 deg(m); equations indexed by (generator, monomial).
    unknowns = []
    for d in range(MINUS0_CAP + 1):
        fiber = generators_with_alexander(G, bg.A + d)
        M, _ = grade_array(G, fiber)
        for s in map(tuple, fiber[M == bg.M + 1 + 2 * d].tolist()):
            for mono in itertools.combinations_with_replacement(range(1, G.n + 1), d):
                unknowns.append((s, mono))
    if not unknowns:
        return "NoPreimageUpToCap"
    row_index = {}
    entries = set()

    def row_of(key):
        if key not in row_index:
            row_index[key] = len(row_index)
        return row_index[key]

    for col, (s, mono) in enumerate(unknowns):
        for (o_cols, tgt), v in differential(G, s, "minus0").items():
            if v:
                key = (tgt, tuple(sorted(mono + o_cols)))
                entries ^= {(row_of(key), col)}
    rhs_rows = {row_of((s, ())) for s in chain}
    matrix = SparseF2Matrix(len(row_index), len(unknowns), entries)
    b = [1 if r in rhs_rows else 0 for r in range(len(row_index))]
    return "Vanishes" if f2_solve(matrix, b) is not None else "NoPreimageUpToCap"
