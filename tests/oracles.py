"""Plain-Python reference implementations of the slice-complex builder.

Each function here works one generator (or one state) at a time in plain
Python, and serves the tests as an oracle for
``homology.generators_with_alexander``, ``homology.enumerate_fibers``,
``homology.boundary_blocks``, ``floer.rectangles``, ``floer.differential``,
``floer.grade_array`` and the tilde verdict of ``homology.class_vanishes``;
``dense_rank`` is the dense oracle for the ranks of ``linalg``,
``eager_pivots`` is the column reduction that builds every column's bitset,
for the lazy pivots of ``linalg``, and ``full_block_ranks`` ranks every
column of every boundary block, for the cleared reduction of
``homology._fiber_ranks``, and ``pair_blocks`` splits the block-diagonal
matrix of a ``homology.boundary_blocks`` batch back into its pairs'
blocks; ``stabilize_markers`` places a stabilization's markers one at a
time, and ``destabilizations_by_cells`` and ``destabilize_by_cells`` find
and undo a stabilization's 2x2 block cell by cell, for the marker-tuple
moves of ``moves``, and ``normalize_corners`` runs the corner search on
validated grids built by ``apply_move``, for ``moves.normalize_corners``.
"""

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from gridhfk.errors import CornerConditionUnmet, IllegalCommutation, MultiComponent
from gridhfk.floer import bigrading, grading_tables
from gridhfk.grid import GridDiagram, component_count
from gridhfk.homology import boundary_blocks
from gridhfk.linalg import SparseF2Matrix, f2_solve, rank_from_entries
from gridhfk.moves import (
    STAB_TYPES,
    apply_move,
    commute_cols,
    commute_rows,
    cyclic_cols,
    cyclic_rows,
    has_corner_o,
    has_corner_x,
    stabilize,
)


def maslov2_pair(G, state):
    """Doubled (M_O, M_X) of a generator, summed point by point."""
    t = grading_tables(G)
    n = G.n
    noninv = sum(1 for i in range(n) for j in range(i + 1, n) if state[i] < state[j])
    sumO = sum(int(t.FO[i, state[i]]) for i in range(n))
    sumX = sum(int(t.FX[i, state[i]]) for i in range(n))
    mo2 = 2 * noninv - 2 * sumO + 2 * t.JOO + 2
    mx2 = 2 * noninv - 2 * sumX + 2 * t.JXX + 2
    return mo2, mx2


def fibers(G):
    """{A: [(M, state), ...]} over all n! permutations, graded one state at
    a time, in increasing A and each fiber sorted by (M, state)."""
    out = {}
    for state in itertools.permutations(range(G.n)):
        mo2, mx2 = maslov2_pair(G, state)
        a2 = (mo2 - mx2) // 2 - (G.n - 1)
        out.setdefault(a2 // 2, []).append((mo2 // 2, state))
    return {a: sorted(v) for a, v in sorted(out.items())}


def fiber_states(G, A):
    """Generators with Alexander grading A, by recursive branch-and-bound."""
    n = G.n
    t = grading_tables(G)
    g2 = (t.FX - t.FO).tolist()
    target = 2 * A - (t.JOO - t.JXX - (n - 1))
    min_rest = [0] * (n + 1)
    max_rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        min_rest[i] = min_rest[i + 1] + min(g2[i])
        max_rest[i] = max_rest[i + 1] + max(g2[i])
    out = []
    state = [0] * n
    used = [False] * n

    def rec(i, acc):
        if i == n:
            if acc == target:
                out.append(tuple(state))
            return
        if acc + min_rest[i] > target or acc + max_rest[i] < target:
            return
        for j in range(n):
            if not used[j]:
                used[j] = True
                state[i] = j
                rec(i + 1, acc + g2[i][j])
                used[j] = False

    rec(0, 0)
    return out


@dataclass(frozen=True)
class Rectangle:
    """Empty rectangle from one generator to another.

    ``col_start``/``row_start`` are the lower-left corner lines, widths are
    cyclic; ``o_columns`` lists the 1-based columns of the O markers inside
    (the U-variable indices of the minus0 weight).
    """

    source: tuple
    target: tuple
    col_start: int
    row_start: int
    width: int
    height: int
    n_O: int
    n_X: int
    o_columns: tuple


def empty_rectangles(G, state):
    """All rectangles leaving ``state`` whose interior misses its components.

    For each ordered column pair (i, j) there is one torus rectangle with its
    lower-left and upper-right corners on ``state``; the pair (j, i) gives
    the complementary one.
    """
    n = G.n
    state = tuple(state)
    o_rows = tuple(r - 1 for r in G.sigma_O)
    x_rows = tuple(r - 1 for r in G.sigma_X)
    out = []
    for i in range(n):
        a = state[i]
        for j in range(n):
            if i == j:
                continue
            b = state[j]
            width = (j - i) % n
            height = (b - a) % n
            if any(0 < (state[(i + t) % n] - a) % n < height for t in range(1, width)):
                continue
            n_O = n_X = 0
            o_cols = []
            for t in range(width):
                c = (i + t) % n
                if (o_rows[c] - a) % n < height:
                    n_O += 1
                    o_cols.append(c + 1)
                if (x_rows[c] - a) % n < height:
                    n_X += 1
            target = list(state)
            target[i], target[j] = b, a
            out.append(
                Rectangle(state, tuple(target), i, a, width, height, n_O, n_X, tuple(sorted(o_cols)))
            )
    return out


def differential(G, state, flavor="tilde"):
    """Boundary of a generator as a mod-2 formal sum, in the output format
    of ``floer.differential``."""
    terms = {}
    for rect in empty_rectangles(G, state):
        if rect.n_X:
            continue
        if flavor == "tilde":
            if rect.n_O:
                continue
            key = rect.target
        else:
            key = (rect.o_columns, rect.target)
        terms[key] = terms.get(key, 0) ^ 1
    return {k: v for k, v in terms.items() if v}


def tilde_targets(n, o_rows, x_rows, state):
    """Targets of the fully blocked differential, with multiplicity."""
    out = []
    for i in range(n):
        a = state[i]
        for j in range(n):
            if i == j:
                continue
            b = state[j]
            width = (j - i) % n
            height = (b - a) % n
            ok = True
            for s in range(width):
                k = (i + s) % n
                if s and 0 < (state[k] - a) % n < height:
                    ok = False
                    break
                if (o_rows[k] - a) % n < height or (x_rows[k] - a) % n < height:
                    ok = False
                    break
            if ok:
                target = list(state)
                target[i], target[j] = b, a
                out.append(tuple(target))
    return out


def boundary_entries(G, sources, tgt_index):
    """Set of (target_row, source_col) entries of one boundary block, mod 2.

    ``sources`` lists states; ``tgt_index`` maps target states to rows, and
    rectangles to states outside it are dropped."""
    n = G.n
    o_rows = tuple(r - 1 for r in G.sigma_O)
    x_rows = tuple(r - 1 for r in G.sigma_X)
    entries = set()
    for col, state in enumerate(sources):
        for target in tilde_targets(n, o_rows, x_rows, tuple(state)):
            row = tgt_index.get(target)
            if row is not None:
                entries ^= {(row, col)}
    return entries


def tilde_verdict(G, chain):
    """Vanishing verdict of an F2 cycle in the fully blocked complex, built
    state by state from ``bigrading`` and the reference ``differential``."""
    bg = bigrading(G, chain[0])
    fiber = fiber_states(G, bg.A)
    slice_lo = sorted(s for s in fiber if bigrading(G, s).M == bg.M)
    slice_hi = sorted(s for s in fiber if bigrading(G, s).M == bg.M + 1)
    if not slice_hi:
        return "Survives"
    lo_index = {s: k for k, s in enumerate(slice_lo)}
    entries = set()
    for col, src in enumerate(slice_hi):
        for tgt in differential(G, src, "tilde"):
            entries.add((lo_index[tgt], col))
    b = [0] * len(slice_lo)
    for s in chain:
        b[lo_index[tuple(s)]] ^= 1
    matrix = SparseF2Matrix(len(slice_lo), len(slice_hi), entries)
    return "Vanishes" if f2_solve(matrix, b) is not None else "Survives"


def dense_rank(rows, cols, entries):
    """F2 rank by dense Gaussian elimination with whole-row XORs, independent
    of the bitset column reduction under test; a repeated entry cancels."""
    A = np.zeros((rows, cols), dtype=np.uint8)
    for r, c in entries:
        A[r, c] ^= 1
    rank = 0
    for c in range(cols):
        hit = np.flatnonzero(A[rank:, c])
        if hit.size == 0:
            continue
        pivot = rank + hit[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        mask = A[:, c].copy().astype(bool)
        mask[rank] = False
        A[mask] ^= A[rank]
        rank += 1
    return rank


def pair_blocks(G, pairs):
    """One (nnz x 2) array of (row, col) positions per pair, numbered within
    the pair: ``boundary_blocks`` of all the pairs, cut at its source
    offsets."""
    entries, src_at, tgt_at = boundary_blocks(G, pairs)
    cuts = np.searchsorted(entries[:, 1], src_at).tolist()
    return [
        entries[lo:hi] - [tgt_at[k], src_at[k]] for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]


def full_block_ranks(G, codes, M):
    """Per-Maslov homology ranks of one Alexander fiber, sorted by (M, code),
    from the rank of every whole boundary block, with no clearing.  Returns
    the ranks, the slice sizes and {m: rank of the block out of degree m}."""
    ms, starts = np.unique(M, return_index=True)
    groups = dict(zip(ms.tolist(), np.split(codes, starts[1:])))
    brank = {}
    for m, src in groups.items():
        tgt = groups.get(m - 1)
        if tgt is not None:
            block = boundary_blocks(G, [(src, tgt)])[0]
            brank[m] = rank_from_entries(len(tgt), len(src), block)
    ranks = {}
    for m, cs in groups.items():
        h = len(cs) - brank.get(m, 0) - brank.get(m + 1, 0)
        if h:
            ranks[m] = h
    return ranks, {m: len(cs) for m, cs in groups.items()}, brank


def _columns(e):
    """Yield (col, bitset) for each nonzero column of (row, col) positions
    grouped by column, bit r flipped for each listing of row r."""
    col, v = None, 0
    for r, c in zip(*e.T.tolist()):
        if c != col:
            if v:
                yield col, v
            col, v = c, 0
        v ^= 1 << r
    if v:
        yield col, v


def eager_pivots(e, tagged=False):
    """Column reduction of the (row, col) positions ``e``, grouped by column,
    that builds every column's bitset, one Python step per entry, and
    reduces it left to right.  Returns the pivots, {top row: (reduced
    column, tag)}; a ``tagged`` column starts with tag 1 << col."""
    pivots = {}
    for c, v in _columns(np.asarray(e, dtype=np.int64).reshape(-1, 2)):
        tag = 1 << c if tagged else 0
        while v and (p := pivots.get(v.bit_length() - 1)):
            v, tag = v ^ p[0], tag ^ p[1]
        if v:
            pivots[v.bit_length() - 1] = (v, tag)
    return pivots


_CORNER_POS = {"NW": (0, 1), "NE": (1, 1), "SW": (0, 0), "SE": (1, 0)}
_ADJACENT = {"NW": ("NE", "SW"), "NE": ("NW", "SE"), "SW": ("NW", "SE"), "SE": ("NE", "SW")}


def stabilize_markers(G, stab_type, c, r):
    """The stabilization ``stab_type`` of the marker in cell (c, r), each
    marker placed at its (column, row) cell: the old markers outside column
    c moved by the splice, the block's three markers, then the two displaced
    partners (the one of row r placed twice, the later cell kept)."""
    n = G.n
    marker, direction = stab_type.split(":")
    primary = G.sigma_X if marker == "X" else G.sigma_O
    partner = G.sigma_O if marker == "X" else G.sigma_X

    def new_col(c0):
        return c0 if c0 < c else c0 + 1

    def new_row(r0):
        return r0 if r0 < r else r0 + 1

    other = "O" if marker == "X" else "X"
    markers = {"X": [], "O": []}
    for c0 in range(1, n + 1):
        if c0 != c:
            markers[marker].append((new_col(c0), new_row(primary[c0 - 1])))
            markers[other].append((new_col(c0), new_row(partner[c0 - 1])))
    dx, dy = _CORNER_POS[direction]
    markers[other].append((c + dx, r + dy))
    for adj in _ADJACENT[direction]:
        ax, ay = _CORNER_POS[adj]
        markers[marker].append((c + ax, r + ay))
    markers[other].append((c + (1 - dx), new_row(partner[c - 1])))
    markers[other].append((new_col(partner.index(r) + 1), r + (1 - dy)))
    o = [0] * (n + 1)
    x = [0] * (n + 1)
    for cc, rr in markers["O"]:
        o[cc - 1] = rr
    for cc, rr in markers["X"]:
        x[cc - 1] = rr
    return GridDiagram(n + 1, tuple(o), tuple(x))


def _block_pattern(stab_type):
    """Cell contents, by corner (dx, dy), of the 2x2 block a stabilization
    makes; the fourth cell is empty."""
    marker, direction = stab_type.split(":")
    pattern = {_CORNER_POS[direction]: "O" if marker == "X" else "X"}
    for adj in _ADJACENT[direction]:
        pattern[_CORNER_POS[adj]] = marker
    return pattern


def destabilizations_by_cells(G, types=STAB_TYPES):
    """(stab_type, col, row) of every 2x2 block, lower-left cell (col, row),
    whose four cells hold the type's pattern, by type, column and row."""
    found = []
    for stype in types:
        pattern = _block_pattern(stype)
        for c in range(1, G.n):
            for r in range(1, G.n):
                if all(
                    G.cell(c + dx, r + dy) == pattern.get((dx, dy), ".")
                    for dx in (0, 1)
                    for dy in (0, 1)
                ):
                    found.append((stype, c, r))
    return found


def destabilize_by_cells(G, stab_type, c, r):
    """The grid with the 2x2 block at (c, r) merged into one cell: every
    marker outside the block keeps its cell, the columns right of c and the
    rows above r move in by one, and the type's marker goes back to (c, r)."""
    n = G.n
    block = {(c + dx, r + dy) for dx in (0, 1) for dy in (0, 1)}
    o = [0] * (n - 1)
    x = [0] * (n - 1)
    for c0 in range(1, n + 1):
        for sigma, out in ((G.sigma_O, o), (G.sigma_X, x)):
            r0 = sigma[c0 - 1]
            if (c0, r0) not in block:
                out[c0 - (c0 > c) - 1] = r0 - (r0 > r)
    (x if stab_type[0] == "X" else o)[c - 1] = r
    return GridDiagram(n - 1, tuple(o), tuple(x))


_TRANSVERSE_SAFE_STABS = ("X:NW", "X:SE", "O:NW", "O:SE", "X:NE", "O:SW")


def _corner_pair(G):
    n = G.n
    for c in range(1, n + 1):
        r = G.sigma_X[c - 1]
        if G.sigma_O[c % n] == r % n + 1:
            return c, r
    return None


def _corner_children(G):
    for c in range(1, G.n):
        for move in (commute_cols(c), commute_rows(c)):
            try:
                yield apply_move(G, move)
            except IllegalCommutation:
                pass
    for stype in _TRANSVERSE_SAFE_STABS:
        sigma = G.sigma_X if stype[0] == "X" else G.sigma_O
        for c in range(1, G.n + 1):
            yield apply_move(G, stabilize(stype, c, sigma[c - 1]))


def normalize_corners(G, max_extra=3, max_moves=6):
    """The corner search of ``moves.normalize_corners`` over validated
    grids: breadth first, each child built by ``apply_move`` and tested as
    it is generated, then a cyclic shift onto the corners."""
    if component_count(G) != 1:
        raise MultiComponent("corner normalization requires a knot")
    if has_corner_x(G) and has_corner_o(G):
        return G
    seen = {G}
    queue = deque([(G, 0)])
    found = (G, _corner_pair(G))
    while queue and found[1] is None:
        H, depth = queue.popleft()
        if depth >= max_moves:
            continue
        for H2 in _corner_children(H):
            if H2.n > G.n + max_extra or H2 in seen:
                continue
            seen.add(H2)
            found = (H2, _corner_pair(H2))
            if found[1] is not None:
                break
            queue.append((H2, depth + 1))
    H, pair = found
    if pair is None:
        raise CornerConditionUnmet(
            f"no corner normalization within {max_moves} moves / +{max_extra} size"
        )
    cx, rx = pair
    out = apply_move(apply_move(H, cyclic_rows((H.n - rx) % H.n)), cyclic_cols((H.n - cx) % H.n))
    if not (has_corner_x(out) and has_corner_o(out)):
        raise CornerConditionUnmet("cyclic shift did not place both corner markers")
    return out
