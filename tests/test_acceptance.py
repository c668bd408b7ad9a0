"""Acceptance gate: one test per criterion, run with ``pytest -v`` to get a
pass/fail line for each.  Budgets are asserted where the criterion states a
runtime."""

import collections
import itertools
import os
import random
import time

import pytest

from gridhfk import (
    Bigrading,
    classical_invariants,
    connect_sum,
    differential,
    lambda_status,
    nonsimplicity_pipeline,
    tilde_homology,
)
from gridhfk.cli import battery_kunneth, battery_moves, battery_nonsimple
from gridhfk.corpus import builtin_entries, get, load_directory
from gridhfk.homology import alexander_polynomial
from gridhfk.linalg import SparseF2Matrix, f2_solve, rank_from_entries
from gridhfk.moves import apply_move, random_move_sequence, stabilize

from oracles import dense_rank

pytestmark = pytest.mark.acceptance


def timed(budget_seconds):
    """Context manager asserting the wrapped block finishes in budget."""

    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc == (None, None, None):
                assert self.elapsed < budget_seconds, (
                    f"exceeded runtime budget: {self.elapsed:.1f}s > {budget_seconds}s"
                )

    return _Timer()


def test_criterion_1_unknot_sanity():
    with timed(1.0):
        G = get("unknot").grid
        rep = tilde_homology(G)
        assert rep.hat_poincare == {(0, 0): 1}
        assert rep.ranks == {(0, 0): 1, (-1, -1): 1}
        st = lambda_status(G, "+")
        assert st.tilde_verdict == "Survives" and st.bigrading == Bigrading(0, 0)
        ci = classical_invariants(G)
        assert (ci.tb, ci.r) == (-1, 0)


def test_criterion_2_trefoil():
    with timed(5.0):
        G = get("trefoil").grid
        rep = tilde_homology(G)
        assert rep.hat_total_rank() == 3
        assert rep.alexander_mod2 == {-1, 0, 1}
        assert rep.euler_characteristic_exponents_mod2() == rep.alexander_mod2
        for state in itertools.permutations(range(5)):
            acc = {}
            for mid in differential(G, state):
                for target in differential(G, mid):
                    acc[target] = acc.get(target, 0) ^ 1
            assert not any(acc.values())


def test_criterion_3_figure_eight():
    with timed(30.0):
        rep = tilde_homology(get("figure-eight").grid)
        assert rep.hat_total_rank() == 5
        assert rep.alexander_mod2 == {-1, 0, 1}
        by_a = rep.hat_ranks_by_alexander()
        assert by_a == {a: by_a[-a] for a in by_a}


def assert_all_passed(checks):
    failed = [name for name, ok in checks if not ok]
    assert checks and not failed, f"failed checks: {failed}"


def test_criterion_4_move_invariance_battery():
    # gridhfk verify's move battery at seed 1105; the sl oracle fixes the
    # stabilization roles: the negative type X:NE preserves sl+ hence A(x+)
    with timed(300.0):
        assert_all_passed(battery_moves(random.Random(1105)))


def test_criterion_5_kunneth_connected_sum():
    with timed(60.0):
        assert_all_passed(battery_kunneth(False, None))
    with timed(1800.0):
        assert_all_passed(battery_kunneth(True, min(4, os.cpu_count() or 1)))


def test_criterion_6_sl_additivity():
    firsts = [e.grid for e in builtin_entries()]
    # connect_sum normalizes a summand that lacks its corner, and that keeps
    # sl, so the sum's sl follows from the summands as given
    for G1 in firsts:
        for G2 in firsts:
            sl = classical_invariants(connect_sum(G1, G2)).sl_plus
            expected = (
                classical_invariants(G1).sl_plus + classical_invariants(G2).sl_plus + 1
            )
            assert sl == expected


def criterion_7_family():
    """Corpus grids and the grids criterion 4's battery draws and
    stabilizes from them, each mapped to its corpus grid; and criterion 5's
    three sums, each mapped to its two summands."""
    rng = random.Random(1105)
    family = {}
    for entry in builtin_entries():
        G = entry.grid
        grids = [G]
        grids += [random_move_sequence(G, rng.randint(1, 8), rng)[1] for _ in range(200)]
        grids += [apply_move(G, stabilize(t, 1, G.sigma_X[0])) for t in ("X:NE", "X:SW")]
        family.update((H, G) for H in grids)
    U_o, U_x, T_o, T_x = (
        get(name).grid for name in ("unknot", "unknot-corner-x", "trefoil", "trefoil-corner-x")
    )
    sums = {connect_sum(A, B): (A, B) for A, B in ((U_x, U_o), (T_x, U_o), (T_x, T_o))}
    return family, sums


def test_criterion_7_alexander_normalization():
    # the integer determinant divides exactly by (1 - T)^(n-1) on every grid
    # (alexander_polynomial raises otherwise), and the quotient Delta is a
    # knot invariant: every grid has its corpus knot's Delta, and a sum has
    # the product of its summands'
    family, sums = criterion_7_family()
    family = {G: K for G, K in family.items() if G.n <= 9}
    assert len(family.keys() | sums.keys()) == 697
    trefoil = {-1: 1, 0: -1, 1: 1}
    expected = {
        "unknot": {0: 1},
        "unknot-corner-x": {0: 1},
        "trefoil": trefoil,
        "trefoil-corner-x": trefoil,
        "figure-eight": {-1: -1, 0: 3, 1: -1},
        "cinquefoil": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},
    }
    assert {e.name: alexander_polynomial(e.grid) for e in builtin_entries()} == expected
    delta = {e.grid: expected[e.name] for e in builtin_entries()}
    for G, K in family.items():
        assert alexander_polynomial(G) == delta[K]
    for S, (A, B) in sums.items():
        product = collections.Counter()
        for (a, c), (b, d) in itertools.product(delta[A].items(), delta[B].items()):
            product[a + b] += c * d
        assert alexander_polynomial(S) == {e: c for e, c in product.items() if c}


def test_criterion_8_linear_algebra_oracle():
    rng = random.Random(808)
    for trial in range(1000):
        rows = rng.randint(1, 200)
        cols = rng.randint(1, 200)
        density = rng.choice([0.01, 0.05, 0.2])
        entries = {
            (rng.randrange(rows), rng.randrange(cols))
            for _ in range(int(rows * cols * density))
        }
        m = SparseF2Matrix(rows, cols, entries)
        rank = rank_from_entries(rows, cols, entries)
        assert rank == dense_rank(rows, cols, entries)
        if trial % 10 == 0:
            b = [rng.randint(0, 1) for _ in range(rows)]
            x = f2_solve(m, b)
            if x is None:
                aug = set(entries) | {(r, cols) for r in range(rows) if b[r]}
                assert rank_from_entries(rows, cols + 1, aug) == rank + 1
            else:
                out = [0] * rows
                for r, c in entries:
                    out[r] ^= x[c]
                assert out == b


def test_criterion_9_nonsimplicity_pipeline():
    assert_all_passed(battery_nonsimple())


def test_criterion_9_optional_transcribed_pair():
    # optional-data check: supply a transcribed Legendrian grid pair with
    # equal self-linking numbers as $GRIDHFK_CORPUS_DIR/10_132_a.grid and
    # 10_132_b.grid to activate; excluded from the default gate
    corpus_dir = os.environ.get("GRIDHFK_CORPUS_DIR")
    if not corpus_dir or not os.path.isdir(corpus_dir):
        pytest.skip("no user corpus directory configured")
    entries = {e.name: e.grid for e in load_directory(corpus_dir)}
    if "10_132_a" not in entries or "10_132_b" not in entries:
        pytest.skip("transcribed pair not present")
    report = nonsimplicity_pipeline(entries["10_132_a"], entries["10_132_b"])
    assert set(report["verdicts"]) == {"Vanishes", "Survives"}
    assert report["conclusion"] == "transversely non-simple pair certified"
