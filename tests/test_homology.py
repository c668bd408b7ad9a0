import collections
import concurrent.futures
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from gridhfk import (
    BudgetExceeded,
    DivisionInexact,
    GridDiagram,
    NotACycle,
    alexander_polynomial,
    bigrading,
    class_vanishes,
    component_count,
    differential,
    generators_with_alexander,
    tilde_homology,
    x_plus,
)
from gridhfk import homology, linalg
from gridhfk.corpus import builtin_entries, get
from gridhfk.errors import DimensionMismatch, OutOfRange, PreimageMismatch
from gridhfk.floer import grade_array, grading_tables, rectangles
from gridhfk.homology import (
    _decode,
    _encode,
    enumerate_fibers,
    format_qt,
    format_t,
    hat_from_tilde,
    boundary_blocks,
    incoming,
)
from gridhfk.invariants import iterated_connect_sum, x_minus
from gridhfk.moves import connect_sum

import oracles
from conftest import random_grid, random_knot


def test_unknot_report(unknot):
    rep = tilde_homology(unknot)
    assert rep.hat_poincare == {(0, 0): 1}
    assert rep.ranks == {(0, 0): 1, (-1, -1): 1}
    assert rep.alexander_mod2 == {0}


def test_trefoil_report(trefoil):
    rep = tilde_homology(trefoil)
    assert rep.hat_total_rank() == 3
    assert rep.hat_poincare == {(2, 1): 1, (1, 0): 1, (0, -1): 1}
    assert rep.alexander_mod2 == {-1, 0, 1}


def test_trefoil_euler_characteristic(trefoil):
    rep = tilde_homology(trefoil)
    assert rep.euler_characteristic() == alexander_polynomial(trefoil) == {-1: 1, 0: -1, 1: 1}
    assert rep.euler_characteristic_exponents_mod2() == rep.alexander_mod2


def test_figure_eight_report(figure_eight):
    rep = tilde_homology(figure_eight)
    assert rep.hat_total_rank() == 5
    assert rep.hat_poincare == {(1, 1): 1, (0, 0): 3, (-1, -1): 1}
    by_a = rep.hat_ranks_by_alexander()
    assert by_a == {a: by_a[-a] for a in by_a}


def test_cinquefoil_report(cinquefoil):
    rep = tilde_homology(cinquefoil)
    assert rep.hat_total_rank() == 5
    assert rep.alexander_mod2 == {-2, -1, 0, 1, 2}
    assert rep.hat_ranks_by_alexander() == {a: 1 for a in (-2, -1, 0, 1, 2)}
    assert rep.euler_characteristic_exponents_mod2() == rep.alexander_mod2


def test_workers_do_not_change_result():
    # 8x8 is the smallest size that goes to a real 2-worker pool
    G = random_knot(random.Random(8), homology.POOL_MIN_N)
    assert tilde_homology(G, workers=2).to_json() == tilde_homology(G).to_json()


def test_pool_has_at_most_one_process_per_fiber(monkeypatch):
    sizes = []

    class InlineExecutor:
        """Records the pool size asked for and runs the jobs in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    G = random_knot(random.Random(8), homology.POOL_MIN_N)
    assert tilde_homology(G, workers=64).to_json() == tilde_homology(G).to_json()
    assert sizes == [len(enumerate_fibers(G))]


def _clearing_grids():
    rng = random.Random(3131)
    grids = [(e.name, e.grid) for e in builtin_entries()]
    return grids + [(f"random{n}-{k}", random_knot(rng, n)) for n in range(3, 9) for k in range(2)]


_CLEARING_GRIDS = _clearing_grids()


@pytest.mark.parametrize("name,G", _CLEARING_GRIDS, ids=[name for name, _ in _CLEARING_GRIDS])
def test_clearing_matches_full_blocks(monkeypatch, name, G):
    # every fiber: the cleared reduction gives the full blocks' ranks, its
    # blocks run from the highest Maslov degree down, and block m ranks
    # all its columns but rank d_{m+1} of them, to the full block's rank.
    # Each batch is one rank call on the batch's whole matrix, and a
    # block's rank is the number of pivot rows in its row range.  A fiber
    # alone, as a pool job has it, has exactly its own blocks; all fibers
    # together go in rounds, the r-th block of each fiber in turn
    real_blocks, calls = homology.boundary_blocks, []

    def recording_blocks(G, pairs):
        entries, src_at, tgt_at = real_blocks(G, pairs)
        calls.append([src_at, tgt_at, None])
        return entries, src_at, tgt_at

    def recording_rank(rows, cols, entries, pivot_rows=None):
        rank = linalg.rank_from_entries(rows, cols, entries, pivot_rows)
        src_at, tgt_at, done = calls[-1]
        assert done is None and (rows, cols) == (tgt_at[-1], src_at[-1])
        assert len(pivot_rows) == rank
        ranges = zip(tgt_at.tolist(), tgt_at[1:].tolist())
        calls[-1][2] = [sum(lo <= r < hi for r in pivot_rows) for lo, hi in ranges]
        return rank

    def blocks():
        # (rows, columns, rank) of every block of every batch, in order
        out = []
        for src_at, tgt_at, ranks in calls:
            out += zip(np.diff(tgt_at).tolist(), np.diff(src_at).tolist(), ranks)
        calls.clear()
        return out

    monkeypatch.setattr(homology, "boundary_blocks", recording_blocks)
    monkeypatch.setattr(homology, "rank_from_entries", recording_rank)
    fibers = list(enumerate_fibers(G).values())
    alone, per_fiber = [], []
    for codes, M in fibers:
        alone += homology._fiber_ranks(G, [(codes, M)])
        full, counts, brank = oracles.full_block_ranks(G, codes, M)
        assert alone[-1] == full
        per_fiber.append(
            [
                (counts[m - 1], counts[m] - brank.get(m + 1, 0), brank[m])
                for m in sorted(brank, reverse=True)
            ]
        )
        assert blocks() == per_fiber[-1]
    assert homology._fiber_ranks(G, fibers) == alone
    rounds = itertools.zip_longest(*per_fiber)
    assert blocks() == [c for r in rounds for c in r if c is not None]


def _nine_by_nine():
    return connect_sum(get("trefoil-corner-x").grid, get("trefoil").grid)


_BATCH_GRIDS = [(e.name, e.grid, 16) for e in builtin_entries()] + [
    (f"random{n}", random_knot(random.Random(5150 + n), n), 16) for n in range(3, 9)
] + [("trefoil-corner-x#trefoil", _nine_by_nine(), 1024)]


@pytest.mark.parametrize(
    "name,G,cap", _BATCH_GRIDS, ids=[name for name, _, _ in _BATCH_GRIDS]
)
def test_every_block_of_every_round_matches_slice_boundary(monkeypatch, name, G, cap):
    # with a small cap, a round's blocks split into several batches and a
    # larger block runs alone; every block of every batch, cut out of the
    # batch's matrix, is the one pair case of boundary_blocks, and the
    # ranks are still those of the full blocks
    real = homology.boundary_blocks
    batches = []

    def checked(G, pairs):
        batch = real(G, pairs)
        blocks = oracles.pair_blocks(G, pairs)
        assert len(blocks) == len(pairs)
        for (src, tgt), block in zip(pairs, blocks):
            assert np.array_equal(block, real(G, [(src, tgt)])[0])
        batches.append([len(src) for src, _ in pairs])
        return batch

    monkeypatch.setattr(homology, "BATCH_SOURCES", cap)
    monkeypatch.setattr(homology, "boundary_blocks", checked)
    fibers = list(enumerate_fibers(G).values())
    ranks = homology._fiber_ranks(G, fibers)
    if G.n <= 8:
        assert ranks == [oracles.full_block_ranks(G, codes, M)[0] for codes, M in fibers]
    assert all(sum(sizes) <= cap or len(sizes) == 1 for sizes in batches)
    if G.n >= 5:
        assert any(len(sizes) > 1 for sizes in batches)
    if G.n >= 6:
        assert any(sizes[0] > cap for sizes in batches)


def test_boundary_blocks_look_up_each_pair_in_its_own_targets(rng):
    # disjoint target tables, more than 256 of them: each pair's sources
    # reach states in their own table and in other pairs' tables, and a
    # rectangle that lands in another pair's table counts in no block; a
    # table may come in any order, which numbers its rows
    G = random_knot(rng, 6)
    n = G.n
    o_rows = tuple(r - 1 for r in G.sigma_O)
    x_rows = tuple(r - 1 for r in G.sigma_X)
    every = np.sort(np.concatenate([codes for codes, _ in enumerate_fibers(G).values()]))
    taken, pairs = set(), []
    for k in range(300):
        src = every[(7 * k + np.arange(k % 3)) % len(every)]
        reached = sorted(
            {t for s in _states(src, n) for t in oracles.tilde_targets(n, o_rows, x_rows, s)}
        )
        tgt = [t for t in reached[k % 2 :: 2] if t not in taken]
        taken.update(tgt)
        pairs.append((src, _encode(np.array(tgt, dtype=np.int8).reshape(-1, n))))
    big = max(range(len(pairs)), key=lambda k: len(pairs[k][1]))
    pairs[big] = (pairs[big][0], pairs[big][1][::-1].copy())
    pairs += [(every[:0], every[:0]), (every[50:90], every[:0])]
    blocks = oracles.pair_blocks(G, pairs)
    assert len(blocks) == len(pairs) > 256
    own = elsewhere = 0
    for (src, tgt), block in zip(pairs, blocks):
        assert np.array_equal(block, boundary_blocks(G, [(src, tgt)])[0])
        table = _index(tgt, n)
        oracle = oracles.boundary_entries(G, _states(src, n), table)
        assert set(map(tuple, block.tolist())) == oracle
        for s in _states(src, n):
            for t in oracles.tilde_targets(n, o_rows, x_rows, s):
                own += t in table
                elsewhere += t in taken and t not in table
    assert own > 100 and elsewhere > 100
    assert len(pairs[big][1]) > 1 and len(blocks[big])


def test_boundary_blocks_refuse_a_target_of_two_pairs(rng):
    # the homology rounds pair blocks of different fibers, so no generator
    # is a row of two blocks; a request that has one is refused
    G = random_knot(rng, 6)
    every = np.sort(np.concatenate([codes for codes, _ in enumerate_fibers(G).values()]))
    for pairs in (
        [(every[:3], every[:10]), (every[3:6], every[9:20])],
        [(every[:0], every[5:6]), (every[:3], every[:4]), (every[:0], every[5:6])],
        [(every[:3], every[[0, 1, 1]])],
    ):
        with pytest.raises(DimensionMismatch, match="listed twice among the targets"):
            boundary_blocks(G, pairs)


def test_nine_by_nine_sum_is_pinned():
    # the 9x9 trefoil-corner-x#trefoil, serial and in a 2-worker pool
    expected = (
    "{\"alexander_mod2\": \"T^-2 + 1 + T^2\", \"hat_poincare\": \"t^-2 + 2 q t^-1 + 3 q^2 + 2"
    " q^3 t + q^4 t^2\", \"poincare\": \"q^-8 t^-10 + 10 q^-7 t^-9 + 47 q^-6 t^-8 + 138 q^-5"
    " t^-7 + 283 q^-4 t^-6 + 428 q^-3 t^-5 + 490 q^-2 t^-4 + 428 q^-1 t^-3 + 283 t^-2 +"
    " 138 q t^-1 + 47 q^2 + 10 q^3 t + q^4 t^2\", \"ranks\": [[-8, -10, 1], [-7, -9, 10],"
    " [-6, -8, 47], [-5, -7, 138], [-4, -6, 283], [-3, -5, 428], [-2, -4, 490], [-1, -3,"
    " 428], [0, -2, 283], [1, -1, 138], [2, 0, 47], [3, 1, 10], [4, 2, 1]]}"
    )
    G = _nine_by_nine()
    assert tilde_homology(G).to_json() == expected
    assert tilde_homology(G, workers=2).to_json() == expected


def test_pooled_clearing_matches_full_blocks():
    G = random_knot(random.Random(3132), homology.POOL_MIN_N)
    expected = {}
    for A, (codes, M) in enumerate_fibers(G).items():
        expected.update({(m, A): d for m, d in oracles.full_block_ranks(G, codes, M)[0].items()})
    assert tilde_homology(G, workers=2).ranks == expected


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True])
def test_bad_workers_are_refused(trefoil, workers):
    with pytest.raises(OutOfRange, match="workers"):
        tilde_homology(trefoil, workers=workers)


def test_report_json_is_canonical(trefoil):
    rep = tilde_homology(trefoil)
    data = json.loads(rep.to_json())
    assert data == json.loads(rep.to_json())
    assert "ranks" in data and "hat_poincare" in data and "alexander_mod2" in data


def test_enumerate_fibers_counts(trefoil):
    fibers = enumerate_fibers(trefoil)
    assert sum(len(codes) for codes, _ in fibers.values()) == 120


def test_generators_with_alexander_matches_fibers(trefoil, rng):
    # the frontier lister against every permutation graded one at a time,
    # rows in lexicographic order, and empty just outside the A range
    for G in (trefoil, random_knot(rng, 6)):
        ref = oracles.fibers(G)
        for a in range(min(ref) - 1, max(ref) + 2):
            want = sorted(state for _, state in ref.get(a, []))
            assert generators_with_alexander(G, a).tolist() == [list(s) for s in want]


def test_fiber_sizes_match_oracle_fibers():
    # every A of the grid's range, zero-size fibers included, against the
    # permutations graded one at a time; on a link grid the integer fibers
    # miss generators
    rng = random.Random(2626)
    grids = [e.grid for e in builtin_entries()] + [random_knot(rng, n) for n in range(2, 9)]
    zeros = 0
    for G in grids:
        sizes = homology._fiber_sizes(G)
        ref = oracles.fibers(G)
        assert list(sizes) == list(range(min(sizes), max(sizes) + 1))
        assert set(ref) <= set(sizes)
        assert sizes == {a: len(ref.get(a, [])) for a in sizes}
        zeros += list(sizes.values()).count(0)
    assert zeros
    for n in range(4, 8):  # every 2x2 and 3x3 grid is a knot
        G = random_grid(rng, n)
        while component_count(G) == 1:
            G = random_grid(rng, n)
        assert sum(homology._fiber_sizes(G).values()) < math.factorial(n)


def test_tilde_targets_agree_with_differential(rng):
    # the boundary oracle's loop against the rectangle-based reference
    for _ in range(4):
        G = random_knot(rng, 6)
        o_rows = tuple(r - 1 for r in G.sigma_O)
        x_rows = tuple(r - 1 for r in G.sigma_X)
        for state in itertools.islice(itertools.permutations(range(6)), 60):
            fast = sorted(oracles.tilde_targets(6, o_rows, x_rows, state))
            slow = sorted(oracles.differential(G, state))
            assert fast == slow


def _states(codes, n):
    return [tuple(s) for s in _decode(codes, n).tolist()]


_FIBER_GRIDS = [(e.name, e.grid) for e in builtin_entries()] + [
    (f"random{n}", random_knot(random.Random(4040 + n), n)) for n in (3, 4, 5, 6, 7)
]


@pytest.mark.parametrize("name,G", _FIBER_GRIDS, ids=[name for name, _ in _FIBER_GRIDS])
def test_enumerate_fibers_matches_itertools_reference(name, G):
    # same fibers in increasing A, each in (M, code) order
    fibers = enumerate_fibers(G)
    ref = oracles.fibers(G)
    assert list(fibers) == list(ref)
    for a, (codes, M) in fibers.items():
        assert list(zip(M.tolist(), _states(codes, G.n))) == ref[a]


def _index(codes, n):
    return {s: i for i, s in enumerate(_states(codes, n))}


def test_boundary_entries_mod2(rng):
    G = random_knot(rng, 5)
    fibers = enumerate_fibers(G)
    a = next(iter(fibers))
    codes, M = fibers[a]
    src, tgt = codes[M == M.max()], codes[M == M.max() - 1]
    entries = oracles.boundary_entries(G, _states(src, 5), _index(tgt, 5))
    assert all(isinstance(r, int) and isinstance(c, int) for r, c in entries)
    block = boundary_blocks(G, [(src, tgt)])[0]
    assert block.dtype == np.int64 and block.shape == (len(entries), 2)
    assert set(map(tuple, block.tolist())) == entries


@pytest.mark.parametrize("n", range(1, 11))
def test_codes_round_trip_in_lexicographic_order(n):
    # integer codes up to n = 8, byte codes beyond: either way a code
    # decodes to its state, and codes sort as the states' tuples do
    rng = random.Random(6000 + n)
    states = [tuple(rng.sample(range(n), n)) for _ in range(150)]
    states += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(150)]
    states += states[:20]  # equal states get equal codes
    codes = _encode(np.array(states, dtype=np.int8))
    assert codes.dtype == (np.uint64 if n <= 8 else np.dtype(f"V{n}"))
    assert _states(codes, n) == states
    assert _states(np.sort(codes), n) == sorted(states)
    ranked = sorted(set(states))
    table = _encode(np.array(ranked, dtype=np.int8))
    assert np.searchsorted(table, codes).tolist() == [ranked.index(s) for s in states]


def _random_pairs(rng, G, count):
    """``count`` (sources, targets) pairs of a few random states each,
    against a sorted random share of the states their rectangles reach
    plus states they do not, no state a target of two pairs; some pairs
    have no sources or no targets."""
    n = G.n
    o_rows = tuple(r - 1 for r in G.sigma_O)
    x_rows = tuple(r - 1 for r in G.sigma_X)
    pairs, taken = [], set()
    for k in range(count):
        sources = [tuple(rng.sample(range(n), n)) for _ in range((k + 2) % 5)]
        reached = {t for s in sources for t in oracles.tilde_targets(n, o_rows, x_rows, s)}
        targets = {t for t in reached if rng.random() < 0.7} if k % 7 != 6 else set()
        targets |= {tuple(rng.sample(range(n), n)) for _ in range(k % 3)}
        targets -= taken
        taken |= targets
        pairs.append((sources, sorted(targets)))
    return pairs


@pytest.mark.parametrize(
    "n,dtype", [(6, np.uint64), (7, np.uint64), (9, np.dtype("V9"))],
    ids=["uint64-n6", "uint64-n7", "bytes-n9"],
)
def test_boundary_blocks_of_many_pairs(n, dtype):
    # more than 256 pairs with disjoint target tables, on integer codes and
    # on byte codes: one lookup serves them all, and each block is the one
    # its pair gets alone
    count = 300
    rng = random.Random(100 * n + count)
    G = random_knot(rng, n)
    pairs = _random_pairs(rng, G, count)
    encoded = [(_encode(np.array(s, dtype=np.int8).reshape(-1, n)),
                _encode(np.array(t, dtype=np.int8).reshape(-1, n))) for s, t in pairs]
    assert all(codes.dtype == dtype for pair in encoded for codes in pair)
    blocks = oracles.pair_blocks(G, encoded)
    assert len(blocks) == count
    entries = 0
    for (sources, targets), pair, block in zip(pairs, encoded, blocks):
        oracle = oracles.boundary_entries(G, sources, {t: i for i, t in enumerate(targets)})
        assert set(map(tuple, block.tolist())) == oracle
        assert np.array_equal(block, boundary_blocks(G, [pair])[0])
        entries += len(oracle)
    assert entries > count


def _oracle_grids():
    rng = random.Random(7070)
    grids = [(e.name, e.grid) for e in builtin_entries()]
    sizes = (5, 5, 5, 6, 6, 6, 7, 7, 7)
    grids += [(f"random{n}-{k}", random_knot(rng, n)) for k, n in enumerate(sizes)]
    return grids


_ORACLE_GRIDS = _oracle_grids()


@pytest.mark.parametrize("name,G", _ORACLE_GRIDS, ids=[name for name, _ in _ORACLE_GRIDS])
def test_slice_builder_matches_oracles(name, G):
    # every (A, M) slice: same boundary entries, same fiber states, and the
    # same x+/x- verdicts as the one-state-at-a-time oracles
    fibers = enumerate_fibers(G)
    for a, (codes, M) in fibers.items():
        fiber = generators_with_alexander(G, a)
        assert fiber.dtype == np.int8 and fiber.shape == (len(codes), G.n)
        assert set(map(tuple, fiber.tolist())) == set(oracles.fiber_states(G, a))
        for m in np.unique(M):
            src, tgt = codes[M == m], codes[M == m - 1]
            block = boundary_blocks(G, [(src, tgt)])[0]
            oracle = oracles.boundary_entries(G, _states(src, G.n), _index(tgt, G.n))
            assert set(map(tuple, block.tolist())) == oracle
            # the incoming kernel lists the same entries from the targets'
            # side, every source it finds lies in the block's slice, and it
            # finds each (target, source) pair as often as the outgoing
            # kernel does
            x, Y = incoming(G, _decode(tgt, G.n))
            sources = _encode(Y)
            cols = np.searchsorted(src, sources)
            assert (cols < len(src)).all() and (src[np.minimum(cols, len(src) - 1)] == sources).all()
            pairs = collections.Counter(zip(x.tolist(), cols.tolist()))
            assert {pair for pair, k in pairs.items() if k % 2} == oracle
            y, _, _, _, T = rectangles(G, _decode(src, G.n), grading_tables(G).gap)
            rows = np.searchsorted(tgt, _encode(T))
            assert pairs == collections.Counter(zip(rows.tolist(), y.tolist()))
    for cycle in (x_plus(G), x_minus(G)):
        assert class_vanishes(G, [cycle]) == oracles.tilde_verdict(G, [cycle])
    # the whole differential at once: rectangles holding markers do reach
    # generators of other slices here, so the marker test must reject them
    every = np.sort(np.concatenate([codes for codes, _ in fibers.values()]))
    block = boundary_blocks(G, [(every, every)])[0]
    oracle = oracles.boundary_entries(G, _states(every, G.n), _index(every, G.n))
    assert set(map(tuple, block.tolist())) == oracle
    # and so must the reflected marker gap of the incoming kernel: into
    # every generator at once, it finds each (target, source) pair as often
    # as the outgoing kernel does
    x, Y = incoming(G, _decode(every, G.n))
    y, _, _, _, T = rectangles(G, _decode(every, G.n), grading_tables(G).gap)
    into = zip(x.tolist(), np.searchsorted(every, _encode(Y)).tolist())
    out_of = zip(np.searchsorted(every, _encode(T)).tolist(), y.tolist())
    assert collections.Counter(into) == collections.Counter(out_of)


def test_boundary_blocks_beyond_sixteen_columns():
    # states of a 17x17 grid differ in columns a 4-bit packing into one int64
    # word would drop; random sources against every oracle target
    rng = random.Random(1717)
    G = random_knot(rng, 17)
    o_rows = tuple(r - 1 for r in G.sigma_O)
    x_rows = tuple(r - 1 for r in G.sigma_X)
    sources = [tuple(rng.sample(range(17), 17)) for _ in range(40)]
    targets = sorted({t for s in sources for t in oracles.tilde_targets(17, o_rows, x_rows, s)})
    pair = (_encode(np.array(sources)), _encode(np.array(targets)))
    block = boundary_blocks(G, [pair])[0]
    oracle = oracles.boundary_entries(G, sources, {t: i for i, t in enumerate(targets)})
    assert len(oracle) > 40 and set(map(tuple, block.tolist())) == oracle


def test_verdict_on_nineteen_columns(trefoil):
    # x+ survives on each trefoil summand, so on their connected sum
    G = iterated_connect_sum([trefoil] * 3)
    assert G.n == 19 and class_vanishes(G, [x_plus(G)]) == "Survives"


def test_alexander_trefoil(trefoil):
    assert alexander_polynomial(trefoil) == {-1: 1, 0: -1, 1: 1}


def test_alexander_symmetric(rng):
    for _ in range(20):
        G = random_knot(rng, rng.randint(2, 6))
        alex = alexander_polynomial(G)
        assert alex == {-e: c for e, c in alex.items()} and sum(alex.values()) == 1


def test_alexander_invariant_under_cyclic(rng, trefoil):
    from gridhfk.moves import apply_move, cyclic_cols, cyclic_rows

    G = apply_move(apply_move(trefoil, cyclic_rows(2)), cyclic_cols(3))
    assert alexander_polynomial(G) == alexander_polynomial(trefoil)


def _times_one_minus_inverse(poly, k):
    """poly * (1 - T^-1)^k for an integer polynomial {A: coefficient}."""
    for _ in range(k):
        out = dict(poly)
        for a, c in poly.items():
            out[a - 1] = out.get(a - 1, 0) - c
        poly = {a: c for a, c in out.items() if c}
    return poly


def test_alexander_polynomial_against_enumeration(rng):
    # Delta(T) (1 - T^-1)^(n-1) is the Euler characteristic of the tilde
    # complex, sum_x (-1)^M(x) T^A(x) over all n! generators, each graded
    # on its own by the oracle
    grids = [entry.grid for entry in builtin_entries()]
    grids += [random_knot(rng, n) for n in (3, 4, 5, 6, 6, 7, 7)]
    for G in grids:
        chi = collections.Counter()
        for a, fiber in oracles.fibers(G).items():
            chi[a] += sum((-1) ** (m % 2) for m, _ in fiber)
        expected = {a: c for a, c in chi.items() if c}
        assert _times_one_minus_inverse(alexander_polynomial(G), G.n - 1) == expected


def test_hat_from_tilde_division_exact(trefoil):
    rep = tilde_homology(trefoil)
    assert hat_from_tilde(rep.ranks, trefoil.n) == rep.hat_poincare


def test_hat_from_tilde_rejects_non_multiple():
    with pytest.raises(DivisionInexact):
        hat_from_tilde({(0, 0): 1, (5, 3): 1}, 3)


def test_format_helpers():
    assert format_qt({}) == "0"
    assert format_qt({(0, 0): 1}) == "1"
    assert format_t({-1, 0, 1}) == "T^-1 + 1 + T"
    assert format_t(set()) == "0"
    assert format_t({-1: -1, 0: 3, 1: -1}) == "-T^-1 + 3 - T"
    assert format_t({-2: 2, -1: -3, 0: 3, 1: -3, 2: 2}) == "2 T^-2 - 3 T^-1 + 3 - 3 T + 2 T^2"
    assert format_t({0: -1, 3: -2}) == "-1 - 2 T^3"
    assert format_t({}) == "0"


def test_budget_guard(monkeypatch):
    # 12! = 479,001,600 generators over 12 Alexander fibers.  The exact size
    # of every fiber comes from the counting table, so the grid is refused
    # at its first fiber over the budget before any state is listed: at the
    # default budget, below 12!/12, where some fiber must exceed it, and at
    # 12!/12, where the fibers are not all equal
    G = GridDiagram(12, tuple(range(1, 13)), tuple(i % 12 + 1 for i in range(1, 13)))

    class Listed(Exception):
        pass

    def lister(G, need=None):
        raise Listed(need)

    monkeypatch.setattr(homology, "_sweep", lister)
    monkeypatch.delenv("GRIDHFK_MAX_SLICE", raising=False)
    refusals = [
        (None, "fiber A=-8: 10187685 generators exceed budget 5000000"),
        (39_916_800 - 1, "fiber A=-7: 66318474 generators exceed budget 39916799"),
        (39_916_800, "fiber A=-7: 66318474 generators exceed budget 39916800"),
    ]
    for budget, message in refusals:
        if budget is not None:
            monkeypatch.setenv("GRIDHFK_MAX_SLICE", str(budget))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"^{message}$"):
            tilde_homology(G)
        assert time.perf_counter() - start < 1.0


def test_homology_lists_no_fiber_one_at_a_time(monkeypatch):
    # the one sweep lists every fiber: the per-fiber lister is never called,
    # and the reports are the ones it gave, serial at 7x7 and pooled at 8x8
    def lister(G, A):
        raise AssertionError(f"listed fiber A={A} on its own")

    monkeypatch.setattr(homology, "generators_with_alexander", lister)
    G = random_knot(random.Random(31), 7)
    assert tilde_homology(G).to_json() == (
        '{"alexander_mod2": "T^-1 + 1 + T", "hat_poincare": "t^-1 + q + q^2 t", "poincare":'
        ' "q^-6 t^-7 + 7 q^-5 t^-6 + 22 q^-4 t^-5 + 41 q^-3 t^-4 + 50 q^-2 t^-3 + 41 q^-1 t^-2'
        ' + 22 t^-1 + 7 q + q^2 t", "ranks": [[-6, -7, 1], [-5, -6, 7], [-4, -5, 22],'
        ' [-3, -4, 41], [-2, -3, 50], [-1, -2, 41], [0, -1, 22], [1, 0, 7], [2, 1, 1]]}'
    )
    G = random_knot(random.Random(11), 8)
    assert tilde_homology(G, workers=2).to_json() == (
        '{"alexander_mod2": "T^-2 + T^-1 + 1 + T + T^2", "hat_poincare": "t^-2 + q t^-1 + q^2'
        ' + q^3 t + q^4 t^2", "poincare": "q^-7 t^-9 + 8 q^-6 t^-8 + 29 q^-5 t^-7 + 64 q^-4'
        ' t^-6 + 99 q^-3 t^-5 + 119 q^-2 t^-4 + 119 q^-1 t^-3 + 99 t^-2 + 64 q t^-1 + 29 q^2'
        ' + 8 q^3 t + q^4 t^2", "ranks": [[-7, -9, 1], [-6, -8, 8], [-5, -7, 29], [-4, -6, 64],'
        ' [-3, -5, 99], [-2, -4, 119], [-1, -3, 119], [0, -2, 99], [1, -1, 64], [2, 0, 29],'
        ' [3, 1, 8], [4, 2, 1]]}'
    )


def test_budget_refuses_exactly_the_largest_fiber(monkeypatch, figure_eight, cinquefoil):
    # also for n <= 5, where the fiber search table outweighs budget x n
    # bytes: the trefoil's largest fiber holds 46 generators, its table 3,328
    rng = random.Random(6767)
    small = [e.grid for e in builtin_entries() if e.grid.n <= 5]
    grids = small + [random_knot(rng, n) for n in (3, 4, 5)]
    for G in grids + [figure_eight, cinquefoil] + [random_knot(rng, n) for n in (6, 6, 7, 7)]:
        largest = max(len(fiber) for fiber in oracles.fibers(G).values())
        monkeypatch.delenv("GRIDHFK_MAX_SLICE", raising=False)
        report = tilde_homology(G)
        monkeypatch.setenv("GRIDHFK_MAX_SLICE", str(largest))
        assert tilde_homology(G) == report
        if largest > 1:  # a budget must be positive
            monkeypatch.setenv("GRIDHFK_MAX_SLICE", str(largest - 1))
            with pytest.raises(BudgetExceeded, match=f"budget {largest - 1}$"):
                tilde_homology(G)


def test_class_vanishes_rejects_non_cycle(trefoil):
    # a generator with nonzero boundary is not a cycle
    for state in itertools.permutations(range(5)):
        if differential(trefoil, state):
            with pytest.raises(NotACycle):
                class_vanishes(trefoil, [state])
            break


def test_class_vanishes_rejects_inhomogeneous_chain(trefoil):
    # two cycles in different bigradings make no homogeneous class, in
    # either flavor, whatever each would give alone
    cycle = x_plus(trefoil)
    other = next(
        s for s in itertools.permutations(range(5))
        if bigrading(trefoil, s) != bigrading(trefoil, cycle)
    )
    for flavor in ("tilde", "minus0"):
        with pytest.raises(NotACycle, match="not homogeneous"):
            class_vanishes(trefoil, [cycle, other], flavor=flavor)


def test_class_vanishes_x_plus(trefoil, figure_eight):
    assert class_vanishes(trefoil, [x_plus(trefoil)]) == "Survives"
    assert class_vanishes(figure_eight, [x_plus(figure_eight)]) == "Vanishes"


def test_class_vanishes_with_given_grading(monkeypatch, rng, trefoil):
    # a grading handed in gives the verdicts of a graded chain, and the
    # chain is still checked to be a cycle
    cases = []
    for _ in range(12):
        G = random_knot(rng, rng.randint(2, 6))
        for cycle in (x_plus(G), x_minus(G)):
            for flavor in ("tilde", "minus0"):
                cases.append((G, cycle, flavor, class_vanishes(G, [cycle], flavor=flavor)))
    state = next(s for s in itertools.permutations(range(5)) if differential(trefoil, s))
    graded = bigrading(trefoil, state)

    def ungraded(G, s):
        raise AssertionError("a chain with a given grading was graded again")

    monkeypatch.setattr(homology, "bigrading", ungraded)
    for G, cycle, flavor, verdict in cases:
        grading = bigrading(G, cycle)
        assert class_vanishes(G, [cycle], flavor=flavor, grading=grading) == verdict
    with pytest.raises(NotACycle):
        class_vanishes(trefoil, [state], grading=graded)


def test_survives_after_many_rounds_matches_oracle(monkeypatch):
    # x+ of this 8x8 knot survives on a component of 770 x 923 generators,
    # closed only after many rounds; so does x+ + dy for a y whose boundary
    # holds x+, a chain in which x+ itself cancels
    G = GridDiagram(8, (5, 7, 8, 1, 2, 6, 3, 4), (1, 5, 6, 4, 7, 3, 2, 8))
    cycle = x_plus(G)
    _, Y = incoming(G, np.array([cycle]))
    y = tuple(Y[0].tolist())
    assert cycle in differential(G, y)
    spans = []

    class Recorded(linalg.ColumnSpan):
        def __init__(self, b_rows):
            super().__init__(b_rows)
            spans.append(self)

    monkeypatch.setattr(homology, "ColumnSpan", Recorded)
    for chain in ([cycle], [cycle, *differential(G, y)]):
        assert class_vanishes(G, chain) == oracles.tilde_verdict(G, chain) == "Survives"
    # both times the grower holds x+'s whole component (see
    # test_verdict_grows_the_component_breadth_first)
    assert [(span.rows, span.cols) for span in spans] == [(770, 923)] * 2


_ROUND_GRIDS = [
    ("survives-770x923", GridDiagram(8, (5, 7, 8, 1, 2, 6, 3, 4), (1, 5, 6, 4, 7, 3, 2, 8)), 923),
] + [
    (f"vanishes{n}", random_knot(random.Random(seed), n), None)
    for seed, n in ((723, 7), (828, 8), (907, 9))
]


@pytest.mark.parametrize(
    "name,G,columns", _ROUND_GRIDS, ids=[name for name, _, _ in _ROUND_GRIDS]
)
def test_verdict_takes_each_state_as_a_source_once(monkeypatch, name, G, columns):
    # a round filters the sources it finds against the round before's
    # columns only, and still no state is an outgoing source twice across
    # the rounds: every call of rectangles under the grid's own marker gap
    # (incoming runs under the reflected one) takes new states
    gap = grading_tables(G).gap
    calls = []

    def recorded(G, S, marker_gap):
        if marker_gap is gap:
            calls.append(_encode(S))
        return rectangles(G, S, marker_gap)

    monkeypatch.setattr(homology, "rectangles", recorded)
    verdict = class_vanishes(G, [x_plus(G)])
    sources = np.concatenate(calls)
    assert verdict == ("Survives" if columns else "Vanishes")
    assert len(calls) >= 3
    assert len(np.unique(sources)) == len(sources)
    if columns:
        assert len(sources) == columns


_COMPONENT_GRIDS = [(name, G) for name, G, _ in _ROUND_GRIDS] + [
    (f"seeded{n}-{seed}", random_knot(random.Random(seed), n))
    for n, seed in ((9, 18), (9, 27), (10, 5), (10, 58))
]


@pytest.mark.parametrize("name,G", _COMPONENT_GRIDS, ids=[name for name, _ in _COMPONENT_GRIDS])
def test_verdict_grows_the_component_breadth_first(monkeypatch, name, G):
    # after its k rounds the grower holds each generator it reached once:
    # as many rows and columns as k breadth-first rounds over the graph of
    # the slice boundary block reach from x+, and, when x+ survives, the
    # whole closed component.  A target looked up in last round's rows only
    # would be counted again if it lay among older rows.
    spans = []

    class Recorded(linalg.ColumnSpan):
        def __init__(self, b_rows):
            super().__init__(b_rows)
            self.rounds = 0
            spans.append(self)

        def add(self, *args):
            self.rounds += 1
            return super().add(*args)

    monkeypatch.setattr(homology, "ColumnSpan", Recorded)
    cycle = x_plus(G)
    verdict = class_vanishes(G, [cycle])
    [span] = spans
    assert span.rounds >= 2
    bg = bigrading(G, cycle)
    fiber = generators_with_alexander(G, bg.A)
    M, _ = grade_array(G, fiber)
    lo, hi = _encode(fiber[M == bg.M]), _encode(fiber[M == bg.M + 1])
    block = boundary_blocks(G, [(hi, lo)])[0]
    rows = lo == _encode(np.array([cycle]))
    cols = np.zeros(len(hi), dtype=bool)
    frontier = rows.copy()

    def new_cols():
        hit = np.zeros_like(cols)
        hit[block[frontier[block[:, 0]], 1]] = True
        return hit & ~cols

    for _ in range(span.rounds):
        added = new_cols()
        frontier = np.zeros_like(rows)
        frontier[block[added[block[:, 1]], 0]] = True
        frontier &= ~rows
        rows |= frontier
        cols |= added
    assert (span.rows, span.cols) == (rows.sum(), cols.sum())
    if verdict == "Survives":  # it stopped on a round with no new column
        assert not new_cols().any()


def test_verdicts_where_the_fiber_exceeds_the_budget():
    # the x+ fibers of these knots hold millions of generators, more than
    # the default budget allows; x+ bounds within a few rectangles of itself
    for seed, n in ((5, 11), (5, 12), (7, 12)):
        G = random_knot(random.Random(seed), n)
        start = time.perf_counter()
        assert class_vanishes(G, [x_plus(G)]) == "Vanishes"
        assert time.perf_counter() - start < 1.0


def test_verdict_checks_its_preimage(monkeypatch, trefoil, figure_eight):
    # a reduction whose tags name the wrong columns must not get a wrong
    # "Vanishes" past the product check: every pivot built when a
    # reduction first reaches it gets tag 0
    built = linalg._Reduction._built

    def corrupted(self, col):
        return built(self, col)[0], 0

    monkeypatch.setattr(linalg._Reduction, "_built", corrupted)
    with pytest.raises(PreimageMismatch):
        class_vanishes(figure_eight, [x_plus(figure_eight)])
    assert class_vanishes(trefoil, [x_plus(trefoil)]) == "Survives"


def test_class_vanishes_minus0_corroboration(trefoil, figure_eight):
    # x+ is never a boundary in the minus-flavor complex, even when its
    # fully blocked class dies (as for the figure-eight): only bounded
    # non-vanishing evidence is available there.
    assert class_vanishes(trefoil, [x_plus(trefoil)], flavor="minus0") == "NoPreimageUpToCap"
    assert (
        class_vanishes(figure_eight, [x_plus(figure_eight)], flavor="minus0")
        == "NoPreimageUpToCap"
    )


def test_class_vanishes_minus0_detects_boundaries(trefoil):
    # the boundary of a generator whose rectangles all avoid the markers is
    # a cycle that visibly bounds in the minus0 flavor
    for y in itertools.permutations(range(5)):
        terms = differential(trefoil, y, flavor="minus0")
        if terms and all(len(o_cols) == 0 for (o_cols, _) in terms):
            chain = [target for (_, target) in terms]
            assert class_vanishes(trefoil, chain, flavor="minus0") == "Vanishes"
            return
    pytest.fail("no marker-free boundary found")
