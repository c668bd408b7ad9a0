import itertools
import random

import numpy as np
import pytest

from gridhfk import GridDiagram, Bigrading, bigrading, differential
from gridhfk.corpus import builtin_entries
from gridhfk.floer import FLAVORS, grade_array, grading_tables, rectangles

import oracles
from conftest import random_knot


def all_states(n):
    return itertools.permutations(range(n))


def test_unknot_bigradings():
    # the 2x2 unknot complex has exactly the generators (0,0) and (-1,-1)
    G = GridDiagram(2, (1, 2), (2, 1))
    got = sorted((bigrading(G, s).M, bigrading(G, s).A) for s in all_states(2))
    assert got == [(-1, -1), (0, 0)]


def test_bigrading_add():
    assert Bigrading(1, 2) + Bigrading(-3, 1) == Bigrading(-2, 3)


def test_empty_rectangles_are_empty(rng):
    # the kernel on every state at once against the per-state reference,
    # with no marker blocked, with the X's blocked and with every marker
    G = random_knot(rng, 5)
    t = grading_tables(G)
    S = np.array(list(all_states(5)), dtype=np.int8)
    for gap, keep in (
        (np.full_like(t.gap, 5), lambda r: True),
        (t.gap_x, lambda r: not r.n_X),
        (t.gap, lambda r: not r.n_X and not r.n_O),
    ):
        x, i, w, h, T = rectangles(G, S, gap)
        got = zip(x.tolist(), i.tolist(), S[x, i].tolist(), w.tolist(), h.tolist(), T.tolist())
        want = [
            (k, r.col_start, r.row_start, r.width, r.height, list(r.target))
            for k, state in enumerate(S.tolist())
            for r in oracles.empty_rectangles(G, state)
            if keep(r)
        ]
        assert sorted(got) == sorted(want)


def _differential_grids():
    rng = random.Random(3636)
    grids = [(e.name, e.grid) for e in builtin_entries() if e.grid.n <= 6]
    sizes = (3, 4, 5, 5, 6, 6)
    grids += [(f"random{n}-{k}", random_knot(rng, n)) for k, n in enumerate(sizes)]
    return grids


_DIFFERENTIAL_GRIDS = _differential_grids()


@pytest.mark.parametrize(
    "name,G", _DIFFERENTIAL_GRIDS, ids=[name for name, _ in _DIFFERENTIAL_GRIDS]
)
def test_differential_matches_reference(name, G):
    # both flavors, every state, against the rectangle-by-rectangle loop
    for state in all_states(G.n):
        for flavor in FLAVORS:
            assert differential(G, state, flavor) == oracles.differential(G, state, flavor)


def test_tilde_differential_drops_maslov_by_one(rng):
    for _ in range(5):
        G = random_knot(rng, 5)
        for state in itertools.islice(all_states(5), 40):
            bg = bigrading(G, state)
            for target in differential(G, state):
                tbg = bigrading(G, target)
                assert tbg.M == bg.M - 1
                assert tbg.A == bg.A


def test_minus0_differential_grading_law(rng):
    # a rectangle crossing k O-markers drops Maslov by 1 + 2(k-1) + ...:
    # M(y) = M(x) - 1 + 2k and A(y) = A(x) + k, so the U^k-weighted target
    # sits in the same bigrading as a plain differential target.
    for _ in range(3):
        G = random_knot(rng, 5)
        for state in itertools.islice(all_states(5), 30):
            bg = bigrading(G, state)
            for (o_cols, target) in differential(G, state, flavor="minus0"):
                k = len(o_cols)
                tbg = bigrading(G, target)
                assert tbg.M == bg.M - 1 + 2 * k
                assert tbg.A == bg.A + k


def test_tilde_differential_squares_to_zero_5x5(trefoil):
    # full check over all 120 generators
    for state in all_states(5):
        acc = {}
        for mid in differential(trefoil, state):
            for target in differential(trefoil, mid):
                acc[target] = acc.get(target, 0) ^ 1
        assert not any(acc.values())


def test_minus0_differential_squares_to_zero(rng):
    G = random_knot(rng, 4)
    for state in all_states(4):
        acc = {}
        for (o1, mid) in differential(G, state, flavor="minus0"):
            for (o2, target) in differential(G, mid, flavor="minus0"):
                key = (tuple(sorted(o1 + o2)), target)
                acc[key] = acc.get(key, 0) ^ 1
        assert not any(acc.values())


def test_grading_tables_cached(trefoil):
    assert grading_tables(trefoil) is grading_tables(trefoil)


def test_maslov2_pair_matches_bigrading(rng):
    # the per-state oracle formula, from the point tables, against the
    # vectorized gradings, whose A comes from the weights and their shift:
    # one state at a time and as one array
    grids = [e.grid for e in builtin_entries()]
    grids += [random_knot(rng, n) for n in range(2, 10) for _ in range(2)]
    for G in grids:
        states = [tuple(rng.sample(range(G.n), G.n)) for _ in range(40)]
        M, A = grade_array(G, np.array(states, dtype=np.int8))
        for k, state in enumerate(states):
            mo2, mx2 = oracles.maslov2_pair(G, state)
            bg = bigrading(G, state)
            assert mo2 == 2 * bg.M == 2 * M[k]
            assert (mo2 - mx2) // 2 - (G.n - 1) == 2 * bg.A == 2 * A[k]
