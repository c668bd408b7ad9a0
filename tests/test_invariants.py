import concurrent.futures
import json

import pytest

from gridhfk import (
    Bigrading,
    SlMismatch,
    bigrading,
    differential,
    kunneth_check,
    lambda_status,
    nonsimplicity_pipeline,
    tensor_table,
    theta_status,
    x_minus,
    x_plus,
)
from gridhfk.corpus import shift_grid
from gridhfk.invariants import iterated_connect_sum
from gridhfk.moves import apply_move, stabilize

from conftest import random_knot


def test_x_plus_is_a_cycle(rng):
    for _ in range(20):
        G = random_knot(rng, rng.randint(2, 6))
        assert differential(G, x_plus(G)) == {}
        assert differential(G, x_plus(G), flavor="minus0") == {}


def test_x_minus_is_a_cycle(rng):
    for _ in range(20):
        G = random_knot(rng, rng.randint(2, 6))
        assert differential(G, x_minus(G)) == {}


def test_unknot_lambda_status(unknot):
    st = lambda_status(unknot, "+")
    assert st.bigrading == Bigrading(0, 0)
    assert st.tilde_verdict == "Survives"


def test_trefoil_lambda_statuses(trefoil):
    for sign in "+-":
        st = lambda_status(trefoil, sign)
        assert st.bigrading == Bigrading(2, 1)
        assert st.tilde_verdict == "Survives"


def test_figure_eight_theta_vanishes(figure_eight):
    st = theta_status(figure_eight)
    assert st.tilde_verdict == "Vanishes"
    assert st.bigrading == Bigrading(-2, -1)


def test_status_json_shape(trefoil):
    data = json.loads(theta_status(trefoil, corroborate=True).to_json())
    assert data["sign"] == "+"
    assert data["bigrading"] == [2, 1]
    assert data["verdict"] == "Survives"
    assert data["minus_corroboration"] == "NoPreimageUpToCap"
    assert data["flavor_note"] == "via fully blocked complex"


def test_tensor_table():
    t1 = {(0, 0): 1, (1, 1): 2}
    t2 = {(0, 0): 1, (-1, -1): 1}
    # (0,0): 1*1 from the identity pair plus 2*1 from (1,1) x (-1,-1)
    assert tensor_table(t1, t2) == {(0, 0): 3, (1, 1): 2, (-1, -1): 1}


def test_tensor_table_with_trefoil_tables(trefoil):
    from gridhfk import tilde_homology

    table = tilde_homology(trefoil).hat_poincare
    sq = tensor_table(table, table)
    assert sum(sq.values()) == 9
    assert sq[(4, 2)] == 1 and sq[(2, 0)] == 3


def test_kunneth_small(unknot, unknot_corner_x, trefoil):
    rep = kunneth_check(unknot_corner_x, unknot)
    assert rep.ok
    rep = kunneth_check(trefoil_corner_x_grid(), unknot)
    assert rep.ok
    assert rep.bigrading_sum == Bigrading(2, 1)


def test_kunneth_below_pool_size_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rep = kunneth_check(trefoil_corner_x_grid(), shift_grid(3, 1), workers=2)
    assert rep.sum_grid.n == 7 and rep.ok


def trefoil_corner_x_grid():
    from gridhfk.corpus import get

    return get("trefoil-corner-x").grid


def test_iterated_connect_sum(trefoil):
    G = iterated_connect_sum([trefoil, trefoil])
    assert G.n in (9, 11, 13)  # factors may need corner normalization
    from gridhfk import component_count

    assert component_count(G) == 1


def test_pipeline_identical_inputs(trefoil):
    report = nonsimplicity_pipeline(trefoil, trefoil)
    assert report["conclusion"] == "not distinguished"
    assert report["verdicts"] == ("Survives", "Survives")


def test_pipeline_sl_mismatch(unknot, trefoil):
    with pytest.raises(SlMismatch):
        nonsimplicity_pipeline(unknot, trefoil)


def test_pipeline_certifies_synthetic_pair(unknot, trefoil):
    # positive stabilization drops sl by two and kills the fully blocked
    # class; pairing with the unknot (same sl) yields differing verdicts
    T_stab = apply_move(trefoil, stabilize("X:SW", 1, trefoil.sigma_X[0]))
    report = nonsimplicity_pipeline(T_stab, unknot)
    assert report["sl_plus"] == (-1, -1)
    assert report["verdicts"] == ("Vanishes", "Survives")
    assert report["conclusion"] == "transversely non-simple pair certified"


def test_stabilization_acts_by_u_on_the_distinguished_cycles(rng):
    # negative stabilization fixes x+ and multiplies x- by U (bigrading
    # shift (-2,-1)); positive stabilization does the reverse
    for _ in range(10):
        G = random_knot(rng, rng.randint(2, 5))
        bgp, bgm = bigrading(G, x_plus(G)), bigrading(G, x_minus(G))
        neg = apply_move(G, stabilize("X:NE", 1, G.sigma_X[0]))
        assert bigrading(neg, x_plus(neg)) == bgp
        assert bigrading(neg, x_minus(neg)) == Bigrading(bgm.M - 2, bgm.A - 1)
        pos = apply_move(G, stabilize("X:SW", 1, G.sigma_X[0]))
        assert bigrading(pos, x_plus(pos)) == Bigrading(bgp.M - 2, bgp.A - 1)
        assert bigrading(pos, x_minus(pos)) == bgm
