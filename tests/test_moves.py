import random

import pytest

import gridhfk.moves
from gridhfk import (
    GridDiagram,
    IllegalCommutation,
    NoSuchPattern,
    apply_move,
    apply_moves,
    classify_move,
    classical_invariants,
    component_count,
    connect_sum,
    inverse_move,
    normalize_corners,
    parse_move_script,
)
from gridhfk.corpus import all_entries, get
from gridhfk.errors import CornerConditionUnmet, GridError, MultiComponent, OutOfRange
from gridhfk.homology import alexander_polynomial
from gridhfk.invariants import theta_status
from gridhfk.moves import (
    STAB_TYPES,
    _destabilized,
    _stabilized,
    commute_cols,
    commute_rows,
    cyclic_cols,
    cyclic_rows,
    destabilize,
    has_corner_o,
    has_corner_x,
    legal_destabilizations,
    random_move_sequence,
    stabilize,
)

import oracles
from conftest import random_grid, random_knot


def test_cyclic_row_swap_on_2x2():
    G = GridDiagram(2, (1, 2), (2, 1))
    assert apply_move(G, cyclic_rows(1)) == GridDiagram(2, (2, 1), (1, 2))


def test_cyclic_preserves_components(rng):
    for _ in range(10):
        G = random_knot(rng, 6)
        shifted = apply_move(G, cyclic_rows(rng.randrange(1, 6)))
        shifted = apply_move(shifted, cyclic_cols(rng.randrange(1, 6)))
        assert component_count(shifted) == component_count(G)


def test_cyclic_full_turn_is_identity(trefoil):
    G = apply_move(trefoil, cyclic_rows(trefoil.n))
    assert G == trefoil


def test_commutation_legality_case_split():
    # column spans nested -> legal; interleaved -> illegal
    G = GridDiagram(4, (2, 3, 1, 4), (4, 1, 3, 2))
    with pytest.raises(IllegalCommutation):
        apply_move(G, commute_cols(2))


def test_stabilize_grows_and_keeps_knot(trefoil):
    for stab_type in STAB_TYPES:
        rows = trefoil.sigma_X if stab_type[0] == "X" else trefoil.sigma_O
        G2 = apply_move(trefoil, stabilize(stab_type, 3, rows[2]))
        assert G2.n == trefoil.n + 1
        assert component_count(G2) == 1


def test_stabilize_requires_marker(trefoil):
    with pytest.raises(NoSuchPattern):
        apply_move(trefoil, stabilize("X:NW", 1, trefoil.sigma_O[0]))


def test_stabilize_matches_marker_oracle(rng):
    grids = [e.grid for e in all_entries()]
    grids += [random_knot(rng, n) for n in range(2, 10) for _ in range(3)]
    for G in grids:
        for stab_type in STAB_TYPES:
            rows = G.sigma_X if stab_type[0] == "X" else G.sigma_O
            for col in range(1, G.n + 1):
                move = stabilize(stab_type, col, rows[col - 1])
                assert apply_move(G, move) == oracles.stabilize_markers(
                    G, stab_type, col, rows[col - 1]
                ), (G, move)


def test_stab_destab_round_trip(rng):
    for _ in range(30):
        G = random_knot(rng, rng.randint(2, 6))
        stab_type = rng.choice(sorted(STAB_TYPES))
        col = rng.randint(1, G.n)
        rows = G.sigma_X if stab_type[0] == "X" else G.sigma_O
        move = stabilize(stab_type, col, rows[col - 1])
        G2 = apply_move(G, move)
        back = apply_move(G2, inverse_move(move, G.n))
        assert back == G


def test_destabilize_requires_pattern(trefoil):
    with pytest.raises(NoSuchPattern):
        apply_move(trefoil, destabilize("X:NW", 1, 1))


@pytest.mark.parametrize("stab_type", ["X:XX", "XNW", "Q:NW"])
def test_apply_move_refuses_unknown_stab_types(trefoil, stab_type):
    # moves built in code, where only the type is wrong: a stabilization of
    # the O of column 1 (an O type applies there) and a destabilization of
    # a block that one of STAB_TYPES names
    G2 = apply_move(trefoil, stabilize("O:NW", 1, trefoil.sigma_O[0]))
    _, c, r = legal_destabilizations(G2)[0]
    stab, destab = stabilize(stab_type, 1, trefoil.sigma_O[0]), destabilize(stab_type, c, r)
    for G, move in ((trefoil, stab), (G2, destab)):
        with pytest.raises(OutOfRange, match="unknown stabilization type"):
            apply_move(G, move)


def test_legal_destabilizations_found_after_stabilizing(trefoil):
    G2 = apply_move(trefoil, stabilize("O:SE", 2, trefoil.sigma_O[1]))
    found = legal_destabilizations(G2)
    assert any(stype == "O:SE" for stype, _, _ in found)
    stype, c, r = found[0]
    assert apply_move(G2, destabilize(stype, c, r)).n == trefoil.n


def _stabilized_grids(rng):
    """The corpus, seeded knots and link grids with n = 2..9, each as given
    and stabilized once and twice, and two grids with full 2x2 blocks: the
    2x2 grid, and a link of two 2x2 unknots."""
    grids = [GridDiagram(2, (1, 2), (2, 1)), GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3))]
    base = [e.grid for e in all_entries()]
    base += [f(rng, n) for n in range(2, 10) for f in (random_knot, random_grid)]
    for G in base:
        grids.append(G)
        for _ in range(2):
            stab_type = rng.choice(STAB_TYPES)
            col = rng.randint(1, G.n)
            rows = G.sigma_X if stab_type[0] == "X" else G.sigma_O
            G = apply_move(G, stabilize(stab_type, col, rows[col - 1]))
            grids.append(G)
    return grids


def test_destabilizations_match_cell_oracle(rng):
    found_any = False
    for G in _stabilized_grids(rng):
        found = oracles.destabilizations_by_cells(G)
        assert legal_destabilizations(G) == found, G
        found_any |= bool(found)
        for stab_type in STAB_TYPES:
            for col in range(1, G.n):
                for row in range(1, G.n):
                    move = destabilize(stab_type, col, row)
                    if (stab_type, col, row) in found:
                        expected = oracles.destabilize_by_cells(G, stab_type, col, row)
                        assert apply_move(G, move) == expected, (G, move)
                    else:
                        with pytest.raises(NoSuchPattern):
                            apply_move(G, move)
    assert found_any


def test_destabilized_undoes_every_stabilization(rng):
    for G in _stabilized_grids(rng):
        o, x = G.sigma_O, G.sigma_X
        for stab_type in STAB_TYPES:
            rows = x if stab_type[0] == "X" else o
            for col in range(1, G.n + 1):
                big = _stabilized(o, x, stab_type, col, rows[col - 1])
                assert _destabilized(*big, stab_type, col, rows[col - 1]) == (o, x)


def test_inverse_move_round_trip(rng):
    for _ in range(20):
        G = random_knot(rng, rng.randint(3, 6))
        moves, G2 = random_move_sequence(G, 5, rng)
        sizes = [G.n]
        H = G
        for m in moves:
            H = apply_move(H, m)
            sizes.append(H.n)
        for m, n_before in zip(reversed(moves), reversed(sizes[:-1])):
            H = apply_move(H, inverse_move(m, n_before))
        assert H == G


def test_classify_move():
    assert classify_move(cyclic_rows(1)) == "Legendrian"
    assert classify_move(commute_rows(2)) == "Legendrian"
    for t in ("X:NW", "X:SE", "O:NW", "O:SE"):
        assert classify_move(stabilize(t, 1, 1)) == "Legendrian"
    for t in ("X:NE", "O:SW"):
        assert classify_move(stabilize(t, 1, 1)) == "TransverseOnly"
    for t in ("X:SW", "O:NE"):
        assert classify_move(stabilize(t, 1, 1)) == "PositiveStab"


def test_parse_move_script():
    moves = parse_move_script("# comment\ncycR 1\n\ncommC 3\nstab X:NW 2 4\ndestab O:SE 1 1\n")
    assert [m.kind for m in moves] == ["cycR", "commC", "stab", "destab"]
    assert moves[2].stab_type == "X:NW" and moves[2].col == 2 and moves[2].row == 4


def test_parse_move_script_rejects_junk():
    with pytest.raises(OutOfRange):
        parse_move_script("wiggle 3\n")


def test_move_script_preserves_alexander(trefoil):
    moves = parse_move_script("cycR 1\ncycC 2\n")
    G2 = apply_moves(trefoil, moves)
    assert alexander_polynomial(G2) == alexander_polynomial(trefoil)


# -- corner normalization and connected sum -----------------------------------


def test_normalize_corners_fast_path(unknot_corner_x):
    # this grid has both corner markers already
    G = GridDiagram(2, (2, 1), (1, 2))
    assert has_corner_x(G) and not has_corner_o(G)
    Gn = normalize_corners(G)
    assert has_corner_x(Gn) and has_corner_o(Gn)


def test_normalize_corners_identity_when_ready():
    G = GridDiagram(3, (1, 3, 2), (2, 1, 3))
    assert has_corner_x(G) and has_corner_o(G)
    assert normalize_corners(G) is G


def test_normalize_corners_preserves_transverse_data(rng):
    for _ in range(40):
        G = random_knot(rng, rng.randint(2, 6))
        Gn = normalize_corners(G)
        assert has_corner_x(Gn) and has_corner_o(Gn)
        ci, cin = classical_invariants(G), classical_invariants(Gn)
        assert cin.sl_plus == ci.sl_plus
        assert component_count(Gn) == 1
        st, stn = theta_status(G), theta_status(Gn)
        assert stn.bigrading == st.bigrading, (G, Gn)
        assert stn.tilde_verdict == st.tilde_verdict, (G, Gn)


def _outcome(search, *args, **kw):
    try:
        return search(*args, **kw)
    except GridError as exc:
        return type(exc), str(exc)


def test_normalize_corners_matches_grid_search(monkeypatch, rng):
    grids = [e.grid for e in all_entries()]
    grids += [random_knot(rng, n) for n in range(2, 12) for _ in range(4)]
    for max_moves in (6, 2):
        monkeypatch.setattr(gridhfk.moves, "_MAX_MOVES", max_moves)
        for G in grids:
            assert _outcome(normalize_corners, G) == _outcome(
                oracles.normalize_corners, G, max_moves=max_moves
            ), (G, max_moves)


def test_normalize_corners_without_moves_raises(monkeypatch):
    G = GridDiagram(3, (1, 2, 3), (2, 3, 1))
    assert not (has_corner_x(G) and has_corner_o(G))
    monkeypatch.setattr(gridhfk.moves, "_MAX_MOVES", 0)
    with pytest.raises(CornerConditionUnmet, match="within 0 moves"):
        normalize_corners(G)
    with pytest.raises(CornerConditionUnmet, match="within 0 moves"):
        oracles.normalize_corners(G, max_moves=0)


def test_normalize_corners_rejects_links():
    G = GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3))
    with pytest.raises(MultiComponent):
        normalize_corners(G)


def test_connect_sum_worked_example():
    G1 = GridDiagram(2, (2, 1), (1, 2))
    G2 = GridDiagram(2, (1, 2), (2, 1))
    S = connect_sum(G1, G2)
    assert S == GridDiagram(3, (2, 1, 3), (1, 3, 2))
    assert component_count(S) == 1
    assert alexander_polynomial(S) == {0: 1}


def test_connect_sum_requires_corners(monkeypatch, unknot):
    # a summand without its corner is normalized first, and only a failed
    # normalization refuses the sum
    G1 = GridDiagram(2, (2, 1), (1, 2))  # the corner X, not the corner O
    assert connect_sum(unknot, unknot) == connect_sum(normalize_corners(unknot), unknot)
    assert connect_sum(G1, G1) == connect_sum(G1, normalize_corners(G1))
    monkeypatch.setattr(gridhfk.moves, "_MAX_MOVES", 0)
    for pair in ((unknot, unknot), (G1, G1)):
        with pytest.raises(CornerConditionUnmet, match="within 0 moves"):
            connect_sum(*pair)


def test_connect_sum_normalizes_only_the_corner_it_needs(monkeypatch, rng):
    # the sum of the summands as given is the patch of G1, normalized by the
    # oracle search if it lacks the corner X, and G2, if it lacks the corner
    # O; a failed search fails the sum with the same error
    grids = [e.grid for e in all_entries()]
    grids += [random_knot(rng, rng.randint(2, 6)) for _ in range(12)]
    for max_moves in (6, 1):
        monkeypatch.setattr(gridhfk.moves, "_MAX_MOVES", max_moves)
        normal = {G: _outcome(oracles.normalize_corners, G, max_moves=max_moves) for G in grids}
        for G1 in grids:
            for G2 in grids:
                A = G1 if has_corner_x(G1) else normal[G1]
                B = G2 if has_corner_o(G2) else normal[G2]
                failed = [H for H in (A, B) if not isinstance(H, GridDiagram)]
                expected = failed[0] if failed else connect_sum(A, B)
                assert _outcome(connect_sum, G1, G2) == expected, (G1, G2, max_moves)


def test_connect_sum_refuses_links(unknot, unknot_corner_x):
    # a link summand is refused in either place, whether or not it has the
    # corner the sum needs: these links have the corner O, not the corner X
    links = [
        GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3)),
        GridDiagram(6, (1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5)),
    ]
    for link in links:
        assert has_corner_o(link) and not has_corner_x(link)
        for knot in (unknot, unknot_corner_x):
            for pair in ((knot, link), (link, knot)):
                with pytest.raises(MultiComponent, match="single-component"):
                    connect_sum(*pair)


def test_connect_sum_size_and_components(trefoil_corner_x, trefoil):
    S = connect_sum(trefoil_corner_x, trefoil)
    assert S.n == 9
    assert component_count(S) == 1


def test_connect_sum_sl_additivity(trefoil_corner_x, trefoil, unknot, unknot_corner_x):
    pairs = [
        (unknot_corner_x, unknot),
        (trefoil_corner_x, unknot),
        (trefoil_corner_x, trefoil),
    ]
    for G1, G2 in pairs:
        sl = classical_invariants(connect_sum(G1, G2)).sl_plus
        expected = classical_invariants(G1).sl_plus + classical_invariants(G2).sl_plus + 1
        assert sl == expected


def test_random_move_sequence_stays_valid(rng):
    for _ in range(10):
        G = random_knot(rng, 4)
        moves, G2 = random_move_sequence(G, 8, rng)
        assert component_count(G2) == 1
        assert apply_moves(G, moves) == G2


# Draws recorded when the marker-tuple moves replaced the grid-level ones;
# the move battery (cli.battery_moves) checks these same sequences.
_PINNED_DRAWS = {
    ("trefoil", 0): ["cycR 3", "stab X:SE 4 4", "destab X:SE 4 4", "cycC 2", "cycR 3",
                     "stab O:SE 3 2", "cycR 1", "destab O:SE 3 3"],
    ("trefoil", 1): ["cycC 1", "stab X:SE 4 5", "stab X:SE 2 3", "cycR 4", "cycR 4", "cycR 6",
                     "commC 3", "stab O:SE 5 4"],
    ("trefoil", 14): ["cycR 2", "stab O:NW 4 1", "stab X:SE 1 6", "commR 2", "destab X:SE 5 3",
                      "stab O:SE 2 5", "stab X:NW 2 7", "cycR 6"],
    ("figure-eight", 10): ["stab O:NW 4 5", "cycR 2", "stab O:SE 1 5", "destab O:SE 1 5",
                           "commR 1", "cycC 6", "commR 1", "commC 2"],
    ("figure-eight", 17): ["stab X:SE 3 4", "commR 3", "cycC 6", "stab X:NW 1 2", "cycR 2",
                           "destab X:NW 1 4", "commR 5", "destab X:SE 2 6"],
    ("cinquefoil", 19): ["stab O:NW 7 7", "destab O:NW 7 7", "stab O:SE 4 4", "cycC 5",
                         "cycC 5", "cycC 4", "commR 3", "cycR 7"],
}


def test_random_move_sequence_draws_are_pinned():
    for (name, seed), expected in _PINNED_DRAWS.items():
        moves, _ = random_move_sequence(get(name).grid, 8, random.Random(seed))
        assert [str(m) for m in moves] == expected, (name, seed)
