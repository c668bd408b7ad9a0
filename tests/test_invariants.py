import concurrent.futures
import json
import random
from functools import partial

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
    tilde_homology,
    x_minus,
    x_plus,
)
import gridhfk.homology
import gridhfk.invariants
from gridhfk.corpus import builtin_entries, shift_grid
from gridhfk.errors import MultiComponent, OutOfRange
from gridhfk.front import classical_invariants
from gridhfk.grid import GridDiagram
from gridhfk.invariants import iterated_connect_sum
from gridhfk.moves import (
    apply_move,
    connect_sum,
    has_corner_o,
    has_corner_x,
    normalize_corners,
    stabilize,
)

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


def test_lambda_status_grades_its_cycle_once(monkeypatch, rng):
    graded = []

    def counted(G, state):
        graded.append(tuple(state))
        return bigrading(G, state)

    for module in (gridhfk.invariants, gridhfk.homology):
        monkeypatch.setattr(module, "bigrading", counted)
    for _ in range(10):
        G = random_knot(rng, rng.randint(2, 6))
        for sign, cycle in (("+", x_plus(G)), ("-", x_minus(G))):
            lambda_status(G, sign)
            assert graded == [cycle]
            graded.clear()


def test_zero_tilde_rank_forces_vanishes():
    # a cycle whose slice has no homology is a boundary: where the tilde
    # rank at the cycle's (M, A) is 0, its verdict is "Vanishes".  The
    # verdict solves on the cycle's own component (incoming, rectangles)
    # and the ranks come from the cleared block reductions (boundary_blocks),
    # so the two engines check each other.  Both outcomes occur: some
    # cycles sit at rank 0, and some survive at a positive rank
    grids = [e.grid for e in builtin_entries()]
    grids += [random_knot(random.Random(1000 * n + s), n) for n in range(3, 8) for s in range(4)]
    seen = set()
    for G in grids:
        ranks = tilde_homology(G).ranks
        for sign in "+-":
            st = lambda_status(G, sign)
            rank = ranks.get((st.bigrading.M, st.bigrading.A), 0)
            if rank == 0:
                assert st.tilde_verdict == "Vanishes"
            seen.add((rank > 0, st.tilde_verdict))
    assert (False, "Vanishes") in seen and (True, "Survives") in seen


def test_status_json_shape(trefoil):
    data = json.loads(theta_status(trefoil).to_json())
    assert data == {
        "sign": "+",
        "bigrading": [2, 1],
        "verdict": "Survives",
        "flavor_note": "via fully blocked complex",
    }


@pytest.mark.parametrize("sign", ["x", "", "+-", 1, None])
def test_lambda_status_refuses_other_signs(trefoil, sign):
    with pytest.raises(OutOfRange, match="sign must be"):
        lambda_status(trefoil, sign)


_LINKS = [
    GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3)),
    GridDiagram(6, (1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5)),
]


@pytest.mark.parametrize("link", _LINKS, ids=["two-components", "three-components"])
def test_lambda_status_refuses_links(link):
    # the knot normalization of the Alexander grading means nothing on a
    # link: a two-component grid would read as a grading bug, and a
    # three-component one would get a verdict
    for status in (lambda_status, partial(lambda_status, sign="-"), theta_status):
        with pytest.raises(MultiComponent, match="single-component"):
            status(link)


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


def test_kunneth_takes_summands_without_corners(unknot, trefoil):
    # both lack the corner X and have the corner O: the sum normalizes the
    # first factor, the unknot, to 5x5 and takes the second as it is
    assert not has_corner_x(unknot) and not has_corner_x(trefoil)
    assert has_corner_o(unknot) and has_corner_o(trefoil)
    expected = (
        '{"bigrading_additive": true, "flavor_note": "via fully blocked complex",'
        ' "hat_match": true, "vanishing_rule_holds": true,'
        ' "verdicts": ["Survives", "Survives", "Survives"]}'
    )
    for G2, n, bg in ((unknot, 6, Bigrading(0, 0)), (trefoil, 9, Bigrading(2, 1))):
        rep = kunneth_check(unknot, G2)
        assert rep.ok and rep.to_json() == expected
        assert rep.sum_grid == connect_sum(normalize_corners(unknot), G2)
        assert (rep.sum_grid.n, rep.bigrading_sum) == (n, bg)


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
    assert G.n == 13  # the trefoil needs a stabilization for its corners: 7 + 7 - 1
    from gridhfk import component_count

    assert component_count(G) == 1


def test_pipeline_identical_inputs(trefoil):
    report = nonsimplicity_pipeline(trefoil, trefoil)
    assert report["conclusion"] == "not distinguished"
    assert report["verdicts"] == ("Survives", "Survives")


def test_pipeline_sl_mismatch(unknot, trefoil):
    with pytest.raises(SlMismatch):
        nonsimplicity_pipeline(unknot, trefoil)


def test_pipeline_refuses_links(unknot):
    for link in _LINKS:
        for pair in ((link, unknot), (unknot, link)):
            with pytest.raises(MultiComponent, match="must be knots"):
                nonsimplicity_pipeline(*pair)


@pytest.mark.parametrize("reps", [0, -1, 1.5, "2", True, None])
def test_pipeline_refuses_bad_reps_before_building_a_grid(monkeypatch, trefoil, reps):
    def unreached(*args):
        raise AssertionError("a grid was built or read")

    for name in ("component_count", "classical_invariants", "normalize_corners", "connect_sum"):
        monkeypatch.setattr(gridhfk.invariants, name, unreached)
    with pytest.raises(OutOfRange, match="reps must be an integer of at least 1"):
        nonsimplicity_pipeline(trefoil, trefoil, reps)


def test_pipeline_certifies_synthetic_pair(unknot, trefoil):
    # positive stabilization drops sl by two and kills the fully blocked
    # class; pairing with the unknot (same sl) yields differing verdicts
    T_stab = apply_move(trefoil, stabilize("X:SW", 1, trefoil.sigma_X[0]))
    report = nonsimplicity_pipeline(T_stab, unknot)
    assert report["sl_plus"] == (-1, -1)
    assert report["verdicts"] == ("Vanishes", "Survives")
    assert report["conclusion"] == "transversely non-simple pair certified"


def _trefoil_stab_xsw(trefoil):
    # positive stabilization: sl+ drops from 1 to -1, the unknot's
    return apply_move(trefoil, stabilize("X:SW", 1, trefoil.sigma_X[0]))


def _count_searches(monkeypatch):
    searched = []

    def counted(G):
        searched.append(G)
        return normalize_corners(G)

    monkeypatch.setattr(gridhfk.invariants, "normalize_corners", counted)
    return searched


def test_pipeline_searches_each_distinct_summand_once(monkeypatch, unknot, trefoil):
    GA, GB = _trefoil_stab_xsw(trefoil), unknot
    assert not (has_corner_x(GA) and has_corner_o(GA))
    assert not (has_corner_x(GB) and has_corner_o(GB))
    cornered = normalize_corners(GA), normalize_corners(GB)
    searched = _count_searches(monkeypatch)
    for reps in range(1, 5):
        # side A is GA itself at reps 1, so only GB is searched
        nonsimplicity_pipeline(GA, GB, reps)
        assert searched == ([GB] if reps == 1 else [GB, GA])
        searched.clear()
    for reps in (1, 2):
        nonsimplicity_pipeline(trefoil, trefoil, reps)
        assert searched == [trefoil]
        searched.clear()
    for reps in (1, 2, 3):
        nonsimplicity_pipeline(*cornered, reps)
        nonsimplicity_pipeline(cornered[0], cornered[0], reps)
    assert iterated_connect_sum([cornered[1]] * 3).n == 3 * cornered[1].n - 2
    assert searched == []
    assert iterated_connect_sum([trefoil, unknot, trefoil, unknot]).n == 7 + 5 + 7 + 5 - 3
    assert searched == [trefoil, unknot]


def _per_step_fold(grids):
    """Left fold of connect_sum that searches the raw summand again at every
    step, and the running sum too when it lacks a corner."""

    def ensure(G):
        return G if has_corner_x(G) and has_corner_o(G) else normalize_corners(G)

    acc = ensure(grids[0])
    for G in grids[1:]:
        acc = connect_sum(ensure(acc), ensure(G))
    return acc


def _per_step_report(GA, GB, reps):
    side_b = _per_step_fold([GB] * reps)
    side_a = _per_step_fold([GA] + [GB] * (reps - 1)) if reps > 1 else GA
    verdicts = tuple(theta_status(S).tilde_verdict for S in (side_a, side_b))
    distinct = verdicts[0] != verdicts[1]
    report = {
        "reps": reps,
        "sl_plus": tuple(classical_invariants(S).sl_plus for S in (side_a, side_b)),
        "grid_sizes": (side_a.n, side_b.n),
        "flavor_note": "via fully blocked complex",
        "verdicts": verdicts,
        "conclusion": "transversely non-simple pair certified" if distinct else "not distinguished",
    }
    return report, [side_a, side_b]


def _assert_pipeline_matches_per_step_fold(monkeypatch, GA, GB, reps):
    verdict_grids, sl_grids = [], []

    def recorded(G):
        verdict_grids.append(G)
        return theta_status(G)

    def recorded_sl(G):
        sl_grids.append(G)
        return classical_invariants(G)

    monkeypatch.setattr(gridhfk.invariants, "theta_status", recorded)
    monkeypatch.setattr(gridhfk.invariants, "classical_invariants", recorded_sl)
    report = nonsimplicity_pipeline(GA, GB, reps)
    monkeypatch.undo()
    expected, sides = _per_step_report(GA, GB, reps)
    assert report == expected
    # one verdict per distinct side, and sl+ once per distinct grid: equal
    # grids share them
    assert verdict_grids == list(dict.fromkeys(sides))
    assert sl_grids == list(dict.fromkeys([GA, GB, *sides]))
    return report


def test_pipeline_matches_per_step_fold_on_golden_cases(monkeypatch, unknot, trefoil):
    cases = [
        (trefoil, trefoil, 1, (5, 7)),
        (_trefoil_stab_xsw(trefoil), unknot, 1, (6, 5)),
        (trefoil, trefoil, 2, (13, 13)),
        (unknot, unknot, 2, (9, 9)),
    ]
    for GA, GB, reps, sizes in cases:
        report = _assert_pipeline_matches_per_step_fold(monkeypatch, GA, GB, reps)
        assert report["grid_sizes"] == sizes


def test_pipeline_matches_per_step_fold_on_seeded_pairs(monkeypatch, rng):
    # pairs of random knots with equal sl+, one in four a knot with itself
    for k in range(20):
        GA = random_knot(rng, rng.randint(2, 4))
        sl = classical_invariants(GA).sl_plus
        GB = GA
        while k % 4 and (GB == GA or classical_invariants(GB).sl_plus != sl):
            GB = random_knot(rng, rng.randint(2, 4))
        _assert_pipeline_matches_per_step_fold(monkeypatch, GA, GB, 1 + k % 3)


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
