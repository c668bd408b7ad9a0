import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridhfk import linalg
from gridhfk.corpus import builtin_entries
from gridhfk.errors import DimensionMismatch, PreimageMismatch
from gridhfk.homology import boundary_blocks, enumerate_fibers
from gridhfk.linalg import ColumnSpan, SparseF2Matrix, f2_solve, rank_from_entries

from conftest import random_knot
from oracles import dense_rank, eager_pivots


def random_entries(rng, rows, cols, density):
    entries = set()
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries.add((r, c))
    return entries


def test_rank_empty_matrix():
    assert rank_from_entries(3, 4, set()) == 0


def test_rank_identity():
    assert rank_from_entries(5, 5, {(i, i) for i in range(5)}) == 5


def test_rank_against_dense_oracle_small():
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        entries = random_entries(rng, rows, cols, rng.choice([0.1, 0.3, 0.6]))
        assert rank_from_entries(rows, cols, entries) == dense_rank(rows, cols, entries)


def test_rank_equals_transpose_rank():
    rng = random.Random(6)
    for _ in range(100):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        entries = random_entries(rng, rows, cols, 0.25)
        swapped = {(c, r) for r, c in entries}
        assert rank_from_entries(rows, cols, entries) == rank_from_entries(cols, rows, swapped)


def test_rank_from_entries_agrees():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(1, 25), rng.randint(1, 25)
        entries = random_entries(rng, rows, cols, 0.3)
        # pairs, or an (nnz x 2) array in any order
        array = np.array(sorted(entries), dtype=np.int64).reshape(-1, 2)[::-1]
        assert rank_from_entries(rows, cols, entries) == rank_from_entries(rows, cols, array)


def _apply(m, x):
    out = [0] * m.rows
    for r, c in m.entries:
        out[r] ^= x[c]
    return out


def test_solve_returns_verified_preimage():
    rng = random.Random(8)
    solved = failed = 0
    for _ in range(200):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        m = SparseF2Matrix(rows, cols, random_entries(rng, rows, cols, 0.3))
        b = [rng.randint(0, 1) for _ in range(rows)]
        x = f2_solve(m, b)
        if x is None:
            # no solution: the augmented matrix must have higher rank
            aug = set(m.entries) | {(r, cols) for r in range(rows) if b[r]}
            rank = rank_from_entries(rows, cols, m.entries)
            assert rank_from_entries(rows, cols + 1, aug) == rank + 1
            failed += 1
        else:
            assert _apply(m, x) == b
            solved += 1
    assert solved and failed  # both branches exercised


def test_solve_in_image():
    rng = random.Random(9)
    for _ in range(100):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        m = SparseF2Matrix(rows, cols, random_entries(rng, rows, cols, 0.3))
        x0 = [rng.randint(0, 1) for _ in range(cols)]
        b = _apply(m, x0)
        x = f2_solve(m, b)
        assert x is not None
        assert _apply(m, x) == b


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_bounds_property(rows, cols, seed):
    rng = random.Random(seed)
    entries = random_entries(rng, rows, cols, 0.4)
    r = rank_from_entries(rows, cols, entries)
    assert 0 <= r <= min(rows, cols)
    if entries:
        assert r >= 1


@given(st.integers(1, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_row_duplication_does_not_change_rank(n, seed):
    rng = random.Random(seed)
    entries = random_entries(rng, n, n, 0.4)
    doubled = set(entries) | {(r + n, c) for r, c in entries}
    assert rank_from_entries(2 * n, n, doubled) == rank_from_entries(n, n, entries)


def test_rank_wide_matrix_beyond_word_size():
    # 130 rows and columns: bitsets and tags wider than one machine word
    n = 130
    entries = {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
    # circulant with two ones per row: rank n-1 for even n
    assert rank_from_entries(n, n, entries) == n - 1


def _block_grids():
    rng = random.Random(4040)
    grids = [(e.name, e.grid) for e in builtin_entries()]
    return grids + [(f"random7-{k}", random_knot(rng, 7)) for k in range(5)]


_BLOCK_GRIDS = _block_grids()


@pytest.mark.parametrize("name,G", _BLOCK_GRIDS, ids=[name for name, _ in _BLOCK_GRIDS])
def test_rank_of_every_boundary_block_matches_dense_oracle(name, G):
    for codes, M in enumerate_fibers(G).values():
        for m in np.unique(M):
            src, tgt = codes[M == m], codes[M == m - 1]
            block = boundary_blocks(G, [(src, tgt)])[0]
            expected = dense_rank(len(tgt), len(src), block.tolist())
            assert rank_from_entries(len(tgt), len(src), block) == expected
            # each block comes sorted by (col, row) with no repeats, so the
            # rank reads it as it is, without a sorted copy
            assert (block == block[np.lexsort(block.T)]).all()
            assert len(np.unique(block, axis=0)) == len(block)
            assert np.shares_memory(linalg._distinct(block), block) or not len(block)


def _lazy_matches_eager(rows, cols, entries):
    """The lazy kernel's rank and pivot top rows, untagged, and its pivots,
    tagged and each built, equal the eager reduction's."""
    e = linalg._distinct(entries)
    eager = eager_pivots(e)
    tops = []
    assert rank_from_entries(rows, cols, entries, tops) == len(eager)
    assert sorted(tops) == sorted(eager)
    lazy = linalg._Reduction(tagged=True)
    lazy.add(e[:, 0], e[:, 1])
    built = {
        top: lazy._built(p) if isinstance(p, int) else p for top, p in lazy.pivots.items()
    }
    assert built == eager_pivots(e, tagged=True)


def test_lazy_pivots_match_eager_reduction():
    rng = random.Random(1717)
    for _ in range(400):
        rows, cols = rng.randint(1, 60), rng.randint(1, 60)
        entries = sorted(random_entries(rng, rows, cols, rng.uniform(0.02, 0.5)))
        listed = entries + rng.sample(entries, len(entries) // 3)
        rng.shuffle(listed)
        _lazy_matches_eager(rows, cols, np.array(listed, dtype=np.int64).reshape(-1, 2))


_KERNEL_GRIDS = [(e.name, e.grid) for e in builtin_entries()] + [
    (f"random{n}", random_knot(random.Random(1818 + n), n)) for n in range(3, 9)
]


@pytest.mark.parametrize("name,G", _KERNEL_GRIDS, ids=[name for name, _ in _KERNEL_GRIDS])
def test_lazy_pivots_match_eager_on_every_boundary_block(name, G):
    for codes, M in enumerate_fibers(G).values():
        for m in np.unique(M):
            src, tgt = codes[M == m], codes[M == m - 1]
            _lazy_matches_eager(len(tgt), len(src), boundary_blocks(G, [(src, tgt)])[0])


def test_unsorted_repeated_positions_count_once():
    rng = random.Random(10)
    for _ in range(50):
        rows, cols = rng.randint(1, 80), rng.randint(1, 80)
        entries = random_entries(rng, rows, cols, 0.1)
        listed = sorted(entries) * 2 + rng.sample(sorted(entries), len(entries) // 2)
        rng.shuffle(listed)
        shuffled = np.array(listed, dtype=np.int64).reshape(-1, 2)
        assert rank_from_entries(rows, cols, shuffled) == dense_rank(rows, cols, entries)
        # sorted by (col, row) but with repeats: still each once
        repeated = shuffled[np.lexsort(shuffled.T)]
        assert rank_from_entries(rows, cols, repeated) == dense_rank(rows, cols, entries)
        b = _apply(SparseF2Matrix(rows, cols, entries), [rng.randint(0, 1) for _ in range(cols)])
        x = f2_solve(SparseF2Matrix(rows, cols, shuffled), b)
        assert x is not None and _apply(SparseF2Matrix(rows, cols, entries), x) == b


def test_tall_matrix_with_few_columns():
    rng = random.Random(11)
    for cols in (1, 2, 3):
        for _ in range(20):
            rows = rng.randint(65, 200)
            entries = random_entries(rng, rows, cols, 0.05)
            m = SparseF2Matrix(rows, cols, entries)
            assert rank_from_entries(rows, cols, entries) == dense_rank(rows, cols, entries)
            x0 = [rng.randint(0, 1) for _ in range(cols)]
            x = f2_solve(m, _apply(m, x0))
            assert len(x) == cols and _apply(m, x) == _apply(m, x0)


def test_empty_columns():
    # columns 0, 2 and 5 hold no entry: rank 2, and they never enter a preimage
    entries = {(0, 1), (1, 1), (1, 3), (2, 4), (3, 4)}
    m = SparseF2Matrix(4, 6, entries)
    assert rank_from_entries(4, 6, entries) == dense_rank(4, 6, entries) == 3
    x = f2_solve(m, [1, 0, 1, 1])
    assert len(x) == 6 and x[0] == x[2] == x[5] == 0 and _apply(m, x) == [1, 0, 1, 1]
    assert f2_solve(m, [0, 0, 1, 0]) is None


def test_zero_rhs_has_zero_preimage():
    m = SparseF2Matrix(5, 4, {(0, 0), (1, 0), (3, 2), (4, 3)})
    assert f2_solve(m, [0] * 5) == [0] * 4
    assert f2_solve(SparseF2Matrix(3, 2, set()), [0, 0, 0]) == [0, 0]


def test_solve_rejects_rhs_of_wrong_length():
    m = SparseF2Matrix(3, 3, {(i, i) for i in range(3)})
    for b in ([1, 0], [1, 0, 0, 1], []):
        with pytest.raises(DimensionMismatch):
            f2_solve(m, b)


def test_solve_checks_its_preimage(monkeypatch):
    # a reduction whose tags name the wrong source columns must not get a
    # wrong preimage past the product check; the identity's columns all
    # become pivots as they stand, so every tag is made when b reaches it
    built = linalg._Reduction._built

    def corrupted(self, col):
        v, tag = built(self, col)
        return v, tag ^ 0b10

    monkeypatch.setattr(linalg._Reduction, "_built", corrupted)
    m = SparseF2Matrix(3, 3, {(i, i) for i in range(3)})
    with pytest.raises(PreimageMismatch):
        f2_solve(m, [1, 0, 0])
    assert f2_solve(m, [0, 0, 0]) == [0, 0, 0]


def test_column_span_in_batches_agrees_with_solve():
    # columns arrive in batches that reach new rows, in any order and with
    # positions listed three times; b lies in their span exactly when
    # f2_solve finds a preimage on the whole matrix
    rng = random.Random(4242)
    hits = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 24), rng.randint(2, 24)
        entries = random_entries(rng, rows, cols, 0.15)
        b_rows = sorted(rng.sample(range(rows), rng.randint(1, min(3, rows))))
        b = [int(r in b_rows) for r in range(rows)]
        whole = f2_solve(SparseF2Matrix(rows, cols, entries), b)
        span = ColumnSpan(b_rows)
        start = 0
        for cut in sorted(rng.sample(range(1, cols), min(2, cols - 1))) + [cols]:
            batch = [(r, c - start) for r, c in entries if start <= c < cut]
            batch = batch * 3 + [(0, 0)] * 2
            rng.shuffle(batch)
            reached = max([r + 1 for r, c in entries if c < cut] + [span.rows, 1])
            in_span = span.add(reached, cut - start, batch)
            start = cut
        z = span.preimage()
        assert in_span == (z is not None) == (whole is not None)
        if z is not None:
            hits += 1
            total = np.zeros(rows, dtype=np.int64)
            for r, c in entries:
                total[r] += z[c]
            assert (total % 2 == b).all()
    assert hits >= 10


def test_column_span_rejects_entries_outside():
    span = ColumnSpan([0])
    span.add(2, 1, [(1, 0)])
    for rows, cols, entries in ((2, 1, [(2, 0)]), (2, 1, [(0, 1)]), (2, 1, [(-1, 0)]), (2, 1, [(0, -1)])):
        with pytest.raises(DimensionMismatch):
            span.add(rows, cols, entries)
