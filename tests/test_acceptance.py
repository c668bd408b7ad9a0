"""Acceptance gate: one test per criterion, run with ``pytest -v`` to get a
pass/fail line for each.  Budgets are asserted where the criterion states a
runtime."""

import itertools
import os
import random
import time

import numpy as np
import pytest

from gridhfk import (
    Bigrading,
    GridDiagram,
    bigrading,
    class_vanishes,
    classical_invariants,
    component_count,
    connect_sum,
    differential,
    generating_function_mod2,
    kunneth_check,
    lambda_status,
    nonsimplicity_pipeline,
    tilde_homology,
    x_plus,
)
from gridhfk import f2poly
from gridhfk.corpus import builtin_entries, get, load_directory
from gridhfk.homology import alexander_polynomial
from gridhfk.linalg import SparseF2Matrix, f2_rank, f2_solve, rank_from_entries
from gridhfk.moves import apply_move, random_move_sequence, stabilize

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


# grids produced while running the move battery, reused by criterion 7
_battery_grids = []


def test_criterion_4_move_invariance_battery():
    rng = random.Random(1105)
    with timed(300.0):
        for entry in builtin_entries():
            G = entry.grid
            base = lambda_status(G, "+")
            for _ in range(200):
                _, G2 = random_move_sequence(G, rng.randint(1, 8), rng)
                assert differential(G2, x_plus(G2)) == {}, "x+ stopped being a cycle"
                st = lambda_status(G2, "+")
                assert st.bigrading == base.bigrading
                assert st.tilde_verdict == base.tilde_verdict
                _battery_grids.append(G2)
            # stabilization grading laws (the sl oracle fixes the roles:
            # the negative type X:NE preserves sl+ hence A(x+))
            neg = apply_move(G, stabilize("X:NE", 1, G.sigma_X[0]))
            assert bigrading(neg, x_plus(neg)) == base.bigrading
            pos = apply_move(G, stabilize("X:SW", 1, G.sigma_X[0]))
            assert bigrading(pos, x_plus(pos)) == Bigrading(
                base.bigrading.M - 2, base.bigrading.A - 1
            )
            _battery_grids.extend([neg, pos])


def test_criterion_5_kunneth_connected_sum():
    small_pairs = [
        (get("unknot-corner-x").grid, get("unknot").grid),
        (get("trefoil-corner-x").grid, get("unknot").grid),
    ]
    with timed(60.0):
        for G1, G2 in small_pairs:
            rep = kunneth_check(G1, G2)
            assert rep.hat_match and rep.bigrading_additive and rep.vanishing_rule_holds
            _battery_grids.append(rep.sum_grid)
    with timed(1800.0):
        rep = kunneth_check(
            get("trefoil-corner-x").grid,
            get("trefoil").grid,
            workers=min(4, os.cpu_count() or 1),
        )
        assert rep.hat_match and rep.bigrading_additive and rep.vanishing_rule_holds
        _battery_grids.append(rep.sum_grid)


def test_criterion_6_sl_additivity():
    firsts = [e.grid for e in builtin_entries()]
    for G1 in firsts:
        for G2 in firsts:
            from gridhfk.moves import has_corner_o, has_corner_x, normalize_corners

            A = G1 if has_corner_x(G1) else normalize_corners(G1)
            B = G2 if has_corner_o(G2) else normalize_corners(G2)
            sl = classical_invariants(connect_sum(A, B)).sl_plus
            expected = (
                classical_invariants(A).sl_plus + classical_invariants(B).sl_plus + 1
            )
            assert sl == expected


def test_criterion_7_alexander_normalization():
    # every corpus grid plus every grid produced by batteries 4 and 5:
    # sum_x T^A(x) = Delta * (1-T)^(n-1) mod 2, up to the unit T^-(n-1)
    # (mod 2 the blocked factor appears as 1 + T^-1); division always exact
    grids = [e.grid for e in builtin_entries()] + list(_battery_grids)
    if len(grids) < 100:
        # criteria 4-5 did not run in this session; regenerate their grids
        # from the same seed so the identity is checked on the same family
        rng = random.Random(1105)
        for entry in builtin_entries():
            for _ in range(25):
                _, G2 = random_move_sequence(entry.grid, rng.randint(1, 8), rng)
                grids.append(G2)
        grids.append(connect_sum(get("trefoil-corner-x").grid, get("trefoil").grid))
    seen = set()
    for G in grids:
        if G in seen or G.n > 9:
            continue
        seen.add(G)
        gen = generating_function_mod2(G)
        alex = alexander_polynomial(G)  # raises DivisionInexact on failure
        lo = min(alex)
        delta_bits = sum(1 << (e - lo) for e in alex)
        blocked = f2poly.mul(delta_bits, f2poly.pow_poly(0b11, G.n - 1))
        expected = {
            i + lo - (G.n - 1) for i in range(blocked.bit_length()) if (blocked >> i) & 1
        }
        assert gen == expected


def _dense_rank(rows, cols, entries):
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
        assert f2_rank(m) == _dense_rank(rows, cols, entries)
        if trial % 10 == 0:
            b = [rng.randint(0, 1) for _ in range(rows)]
            x = f2_solve(m, b)
            if x is None:
                aug = set(entries) | {(r, cols) for r in range(rows) if b[r]}
                assert rank_from_entries(rows, cols + 1, aug) == f2_rank(m) + 1
            else:
                out = [0] * rows
                for r, c in entries:
                    out[r] ^= x[c]
                assert out == b


def test_criterion_9_nonsimplicity_pipeline():
    T = get("trefoil").grid
    same = nonsimplicity_pipeline(T, T)
    assert same["conclusion"] == "not distinguished"
    # synthetic pair sharing sl but differing in verdict
    T_stab = apply_move(T, stabilize("X:SW", 1, T.sigma_X[0]))
    differing = nonsimplicity_pipeline(T_stab, get("unknot").grid)
    assert differing["conclusion"] == "transversely non-simple pair certified"


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
