"""Plain-Python reference implementations of the slice-complex builder.

Each function here works one generator (or one state) at a time in plain
Python, and serves the tests as an oracle for
``homology.generators_with_alexander``, ``homology.slice_boundary``,
``floer.grade_array`` and the tilde verdict of ``homology.class_vanishes``.
"""

from gridhfk.floer import bigrading, differential, grading_tables
from gridhfk.linalg import SparseF2Matrix, f2_solve


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
    state by state from ``bigrading`` and ``differential``."""
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
