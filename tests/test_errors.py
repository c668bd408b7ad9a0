"""Invariants fail with typed errors, also under ``python -O``, and budgets
and environment settings fail cleanly."""

import ast
import dataclasses
import importlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridhfk
from gridhfk import (
    AsymmetricResult,
    BudgetExceeded,
    DivisionInexact,
    EulerMismatch,
    GridDiagram,
    GridError,
    MultiComponent,
    NotPermutation,
    OutOfRange,
    alexander_polynomial,
    bigrading,
    class_vanishes,
    differential,
    format_grid,
    generators_with_alexander,
    theta_status,
    tilde_homology,
    x_plus,
)
from gridhfk import homology
from gridhfk.cli import main
from gridhfk.corpus import shift_grid
from gridhfk.errors import ConfigError
from gridhfk.floer import max_slice_budget, rectangles
from gridhfk.homology import enumerate_fibers
from gridhfk.invariants import iterated_connect_sum

from conftest import random_knot


def test_no_asserts_in_library():
    # python -O strips asserts, and the -O test run only reaches the paths
    # the tests reach; so no module of the package, at any depth, has one
    for path in sorted(Path(gridhfk.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} asserts at lines {asserts}"


def test_no_unused_imports_in_library():
    # the package's __init__.py imports names only to re-export them
    package = Path(gridhfk.__file__).parent
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += list((root / "tests").glob("*.py")) + list((root / "demos").glob("*.py"))
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name} imports unused names {unused}"


def test_private_module_names_are_used_in_library():
    # a module-level _name is private to the package, so something in src/
    # besides its definition must refer to it
    trees = [ast.parse(p.read_text()) for p in Path(gridhfk.__file__).parent.glob("*.py")]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert not sorted(private - used), f"unused private names {sorted(private - used)}"


def test_package_import_starts_no_pool_machinery():
    # the process pool is imported only when a grid is big enough to use it
    code = (
        "import sys, gridhfk, gridhfk.homology, gridhfk.invariants;"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gridhfk.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr


def test_alexander_polynomial_failures_are_typed(monkeypatch, trefoil):
    # a link is refused before the determinant; a determinant that is no
    # multiple of (1 - T)^(n-1), or whose quotient is not symmetric with
    # Delta(1) = +-1, signals a grading bug
    with pytest.raises(MultiComponent, match="single-component"):
        alexander_polynomial(gridhfk.GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3)))
    real = homology._determinant
    monkeypatch.setattr(homology, "_determinant", lambda m: real(m) + 1)
    with pytest.raises(DivisionInexact, match="not divisible"):
        alexander_polynomial(trefoil)
    monkeypatch.setattr(homology, "_determinant", lambda m: 2 * real(m))
    with pytest.raises(AsymmetricResult, match=r"\[2, -2, 2\] not symmetric"):
        alexander_polynomial(trefoil)


def test_planted_hat_error_fails_the_euler_check(monkeypatch, trefoil):
    # one trefoil hat rank raised by 2 at (M, A) = (1, 0), which the
    # symmetry (M, A) -> (M - 2A, -A) fixes: the table stays symmetric and
    # agrees with Delta mod 2, so only the check over Z can refuse it
    real = homology.hat_from_tilde

    def planted(poincare, n):
        hat = real(poincare, n)
        return {**hat, (1, 0): hat[(1, 0)] + 2}

    report = tilde_homology(trefoil)
    monkeypatch.setattr(homology, "hat_from_tilde", planted)
    with pytest.raises(EulerMismatch, match="hat Euler characteristic"):
        tilde_homology(trefoil)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    wrong = dataclasses.replace(report, hat_poincare=planted(report.ranks, trefoil.n))
    assert wrong.hat_poincare[(1, 0)] == 3
    assert workloads.check_homology_report(trefoil.n, wrong) == []


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1e6", ""])
def test_bad_max_slice_is_typed_error(monkeypatch, raw):
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", raw)
    with pytest.raises(ConfigError, match="GRIDHFK_MAX_SLICE"):
        max_slice_budget()
    assert issubclass(ConfigError, GridError)


def test_max_slice_budget_reads_environment(monkeypatch):
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", "1234")
    assert max_slice_budget() == 1234
    monkeypatch.delenv("GRIDHFK_MAX_SLICE")
    assert max_slice_budget() == 5_000_000


def test_cli_bad_max_slice_exits_cleanly(monkeypatch, tmp_path, capsys):
    grid = tmp_path / "unknot.grid"
    grid.write_text("n=2\nO=1,2\nX=2,1\n")
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", "abc")
    code = main(["homology", str(grid)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "GRIDHFK_MAX_SLICE" in err


def test_small_budget_verdict_on_large_fiber(monkeypatch):
    # the x+ fiber of this 11x11 knot holds over a million generators; the
    # verdict never lists it, so a budget far below it still gets an answer
    G = random_knot(random.Random(11), 11)
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", "20000")
    start = time.perf_counter()
    assert class_vanishes(G, [x_plus(G)]) == "Vanishes"
    assert time.perf_counter() - start < 1.0


def test_small_budget_stops_large_component_early(monkeypatch):
    # x+ of this 10x10 knot survives on a component of about 3,500 x 2,400
    # generators; it is refused as it grows past the budget, not after
    G = random_knot(random.Random(5), 10)
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", "1000")
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="component .* budget 1000"):
        class_vanishes(G, [x_plus(G)])
    assert time.perf_counter() - start < 1.0


def test_reduction_bitsets_are_held_to_the_budget(monkeypatch):
    # the same component fits 4,000 generators a side, but its reduction
    # may hold up to about 2.6 MB of bitsets, over 4,000 x 200 bytes
    G = random_knot(random.Random(5), 10)
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", "4000")
    with pytest.raises(BudgetExceeded, match="bytes of bitsets, over budget 4000 x 200 bytes"):
        class_vanishes(G, [x_plus(G)])
    monkeypatch.setenv("GRIDHFK_MAX_SLICE", "20000")
    assert class_vanishes(G, [x_plus(G)]) == "Survives"


def test_fiber_table_over_budget_is_refused(monkeypatch, trefoil):
    # the exact pruning table of a 24x24 grid would take 2^24 rows
    monkeypatch.delenv("GRIDHFK_MAX_SLICE", raising=False)
    G = random_knot(random.Random(24), 24)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="fiber search table"):
        generators_with_alexander(G, 0)
    assert time.perf_counter() - start < 1.0
    # its cells are counted at their 8 bytes: the 19x19 sum of three
    # trefoils needs 2^19 x 49 counts, over 19 bytes per generator of budget
    G = iterated_connect_sum([trefoil] * 3)
    with pytest.raises(BudgetExceeded, match="table of 205520896 bytes for n=19 .* budget 5000000$"):
        generators_with_alexander(G, 0)


def test_grading_tables_over_budget_are_refused(monkeypatch, tmp_path, capsys):
    # the point and gap tables of a 600x600 grid would take about 21 x 600^3
    # bytes, over 600 bytes per generator of the default budget: refused
    # before they are built, by the verdict and by the CLI
    monkeypatch.delenv("GRIDHFK_MAX_SLICE", raising=False)
    n = 600
    G = GridDiagram(n, tuple(range(1, n + 1)), tuple(i % n + 1 for i in range(1, n + 1)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^grading tables of 4536000000 bytes for n=600"):
        theta_status(G)
    assert time.perf_counter() - start < 1.0
    grid = tmp_path / "shift600.grid"
    grid.write_text(format_grid(G))
    start = time.perf_counter()
    assert main(["invariant", str(grid)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("budget exceeded: grading tables of")


def test_grids_too_wide_for_int8_states_are_refused(tmp_path, capsys):
    # generator states are int8 rows, so n = 127 is the widest grid with a
    # differential: the 127x127 shift grid gets its verdict, and from 128
    # on every builder of a state array refuses with OutOfRange, so the
    # CLI exits 2 with one line and no traceback
    assert theta_status(shift_grid(127, 1)).tilde_verdict == "Survives"
    for n in (128, 255):
        G = shift_grid(n, 1)
        grid = tmp_path / f"shift{n}.grid"
        grid.write_text(format_grid(G))
        start = time.perf_counter()
        assert main(["invariant", str(grid)]) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid size {n} exceeds 127") and "Traceback" not in err
        # refused before the marker gap is read or a state array is built
        match = f"^grid size {n} exceeds 127"
        with pytest.raises(OutOfRange, match=match):
            rectangles(G, [x_plus(G)], None)
        with pytest.raises(OutOfRange, match=match):
            differential(G, x_plus(G))
        with pytest.raises(OutOfRange, match=match):
            homology._encode([x_plus(G)])


def test_unknown_flavor_is_typed_error(trefoil):
    cycle = x_plus(trefoil)
    with pytest.raises(OutOfRange, match="flavor 'hat'"):
        differential(trefoil, cycle, flavor="hat")
    # checked before the chain is graded or tested: an empty chain would
    # otherwise vanish at once
    for chain in ([cycle], []):
        with pytest.raises(OutOfRange, match="flavor 'hat'"):
            class_vanishes(trefoil, chain, flavor="hat")


@pytest.mark.parametrize(
    "state",
    [(0, 0, 0, 0, 0), (0, 1, 2, 3, -1), (0, 1, 2, 3, 5), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5), ()],
)
def test_states_that_are_not_generators_are_refused(trefoil, state):
    # a repeated, negative or out-of-range row, or a state of the wrong
    # length, is no generator of the 5x5 trefoil: it has no grading, no
    # differential and no class
    with pytest.raises(NotPermutation, match="not a permutation of 0..4"):
        bigrading(trefoil, state)
    for flavor in ("tilde", "minus0"):
        with pytest.raises(NotPermutation):
            differential(trefoil, state, flavor)
    with pytest.raises(NotPermutation):
        class_vanishes(trefoil, [x_plus(trefoil), state])


def test_fibers_of_a_two_component_grid_are_refused():
    # every generator of a two-component link has a half-integer Alexander
    # grading, so no integer fiber lists it
    G = gridhfk.GridDiagram(5, (2, 4, 3, 5, 1), (3, 1, 5, 2, 4))
    assert gridhfk.component_count(G) == 2
    with pytest.raises(AsymmetricResult, match="miss generators"):
        enumerate_fibers(G)
