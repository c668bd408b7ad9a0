import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from gridhfk import cli
from gridhfk.cli import main
from gridhfk.corpus import builtin_entries, shift_grid
from gridhfk.grid import format_grid, parse_grid
from gridhfk.moves import STAB_TYPES


@pytest.fixture
def grid_dir(tmp_path):
    for entry in builtin_entries():
        (tmp_path / f"{entry.name}.grid").write_text(format_grid(entry.grid) + "\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_unknot(grid_dir, capsys):
    code, out, _ = run(capsys, "info", str(grid_dir / "unknot.grid"))
    assert code == 0
    assert "tb: -1" in out and "r: 0" in out


def test_info_json(grid_dir, capsys):
    code, out, _ = run(capsys, "info", "--json", str(grid_dir / "trefoil.grid"))
    assert code == 0
    data = json.loads(out)
    assert data["crossings"] == 3 and data["sl_plus"] == 1


def test_info_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("n=2\nO=1,2\nX=1,2\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert err


def test_show(grid_dir, capsys):
    code, out, _ = run(capsys, "show", str(grid_dir / "unknot.grid"))
    assert code == 0
    assert out.splitlines() == ["XO", "OX"]


def test_homology_hat_unknot(grid_dir, capsys):
    code, out, _ = run(capsys, "homology", "--flavor", "hat", str(grid_dir / "unknot.grid"))
    assert code == 0
    assert "poincare: 1" in out


def test_homology_hat_trefoil(grid_dir, capsys):
    code, out, _ = run(capsys, "homology", "--flavor", "hat", str(grid_dir / "trefoil.grid"))
    assert code == 0
    assert "total rank: 3" in out


def test_homology_tilde_text_is_pinned(grid_dir, capsys):
    # the default flavor prints the tilde table, not the hat one
    expected = {
        "unknot": "poincare: q^-1 t^-1 + 1\nalexander mod 2: 1\n",
        "trefoil": "poincare: q^-4 t^-5 + 5 q^-3 t^-4 + 11 q^-2 t^-3 + 14 q^-1 t^-2"
        " + 11 t^-1 + 5 q + q^2 t\nalexander mod 2: T^-1 + 1 + T\n",
    }
    for name, text in expected.items():
        code, out, err = run(capsys, "homology", str(grid_dir / f"{name}.grid"))
        assert (code, err) == (0, "")
        assert out == "homology of m(K) for the front encoded by the grid\n" + text


def test_homology_json(grid_dir, capsys):
    code, out, _ = run(capsys, "homology", "--json", str(grid_dir / "trefoil.grid"))
    assert code == 0
    data = json.loads(out)
    assert data["alexander_mod2"] == "T^-1 + 1 + T"


def test_homology_budget_exit(tmp_path, capsys):
    n = 12
    sigma_O = ",".join(str(i) for i in range(1, n + 1))
    sigma_X = ",".join(str(i % n + 1) for i in range(1, n + 1))
    big = tmp_path / "big.grid"
    big.write_text(f"n={n}\nO={sigma_O}\nX={sigma_X}\n")
    code, _, err = run(capsys, "homology", str(big))
    assert code == 3
    assert "budget" in err


def test_homology_has_no_force_flag(grid_dir, capsys):
    code, _, err = run(capsys, "homology", "--force", str(grid_dir / "trefoil.grid"))
    assert code == 1
    assert "unrecognized arguments: --force" in err


def test_invariant_theta(grid_dir, capsys):
    # theta is the x+ status, which the default sign reads; there is no
    # --theta flag
    code, out, _ = run(capsys, "invariant", str(grid_dir / "trefoil.grid"))
    assert code == 0
    data = json.loads(out)
    assert data["sign"] == "+" and data["verdict"] == "Survives" and data["bigrading"] == [2, 1]
    code, out, err = run(capsys, "invariant", "--theta", str(grid_dir / "trefoil.grid"))
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --theta" in err


# x+ and x- share their bigrading on every corpus grid, and their verdict
_INVARIANT_STATUS = {
    "unknot": (0, 0, "Survives"),
    "unknot-corner-x": (0, 0, "Survives"),
    "trefoil": (2, 1, "Survives"),
    "trefoil-corner-x": (2, 1, "Survives"),
    "figure-eight": (-2, -1, "Vanishes"),
    "cinquefoil": (4, 2, "Survives"),
}
_INVARIANT_LINE = (
    '{{"bigrading": [{}, {}], "flavor_note": "via fully blocked complex",'
    ' "sign": "{}", "verdict": "{}"}}\n'
)


@pytest.mark.parametrize("name", sorted(_INVARIANT_STATUS))
def test_invariant_output_is_pinned(grid_dir, capsys, name):
    # the whole JSON line, byte for byte, for each sign
    m, a, verdict = _INVARIANT_STATUS[name]
    cases = [([], "+"), (["--sign", "+"], "+"), (["--sign", "-"], "-")]
    for flags, sign in cases:
        code, out, err = run(capsys, "invariant", *flags, str(grid_dir / f"{name}.grid"))
        assert (code, err) == (0, "")
        assert out == _INVARIANT_LINE.format(m, a, sign, verdict)


def test_invariant_has_no_corroborate_flag(grid_dir, capsys):
    code, out, err = run(capsys, "invariant", "--corroborate", str(grid_dir / "trefoil.grid"))
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --corroborate" in err


def test_moves_roundtrip(grid_dir, tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("cycR 1\ncycC 2\n")
    out_file = tmp_path / "moved.grid"
    code, _, _ = run(capsys, "moves", str(grid_dir / "trefoil.grid"), str(script),
                     "--out", str(out_file))
    assert code == 0
    moved = parse_grid(out_file.read_text())
    assert moved.n == 5


def test_moves_illegal(grid_dir, tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("commC 2\n")
    code, _, err = run(capsys, "moves", str(grid_dir / "trefoil.grid"), str(script))
    assert code == 2
    assert "interleaved" in err


def test_moves_destab_without_block(grid_dir, tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("destab X:NW 1 1\n")
    code, _, err = run(capsys, "moves", str(grid_dir / "trefoil.grid"), str(script))
    assert code == 2
    assert err.splitlines() == ["error: no X:NW block at (1, 1)"]


def test_connsum_auto_normalizes(grid_dir, tmp_path, capsys):
    out_file = tmp_path / "sum.grid"
    code, _, _ = run(capsys, "connsum", str(grid_dir / "trefoil.grid"),
                     str(grid_dir / "trefoil.grid"), "--out", str(out_file))
    assert code == 0
    summed = parse_grid(out_file.read_text())
    # the first factor lacks a corner X and gets normalized (5 -> 7)
    assert summed.n == 11


def test_connsum_worked_example(grid_dir, capsys):
    code, out, _ = run(capsys, "connsum", str(grid_dir / "unknot-corner-x.grid"),
                       str(grid_dir / "unknot.grid"))
    assert code == 0
    assert parse_grid(out).n == 3


def test_alex(grid_dir, capsys):
    # Delta_K over Z, not its reduction mod 2 (T^-1 + 1 + T for both knots)
    code, out, _ = run(capsys, "alex", str(grid_dir / "figure-eight.grid"))
    assert code == 0
    assert out.strip() == "-T^-1 + 3 - T"
    code, out, _ = run(capsys, "alex", str(grid_dir / "trefoil.grid"))
    assert (code, out.strip()) == (0, "T^-1 - 1 + T")


def test_alex_refuses_a_link(tmp_path, capsys):
    # a two-component grid is refused before the determinant, by name
    link = tmp_path / "link.grid"
    link.write_text("n=4\nO=1,2,3,4\nX=2,1,4,3\n")
    code, out, err = run(capsys, "alex", str(link))
    assert (code, out) == (2, "")
    assert err.strip().splitlines() == ["error: the Alexander polynomial requires a single-component grid"]


_LINKS = ["n=4\nO=1,2,3,4\nX=2,1,4,3\n", "n=6\nO=1,2,3,4,5,6\nX=2,1,4,3,6,5\n"]


@pytest.mark.parametrize("link", _LINKS, ids=["two-components", "three-components"])
def test_knot_commands_refuse_links(grid_dir, tmp_path, capsys, link):
    # invariant and connsum refuse a link by name, with exit 2; connsum in
    # either order, although the link has the corner O the second summand
    # needs
    path = tmp_path / "link.grid"
    path.write_text(link)
    unknot = str(grid_dir / "unknot.grid")
    lam = "the lambda invariant requires a single-component grid"
    summed = "connected sum requires two single-component grids"
    expected = {
        ("invariant", str(path)): lam,
        ("invariant", "--sign", "-", str(path)): lam,
        ("connsum", unknot, str(path)): summed,
        ("connsum", str(path), unknot): summed,
    }
    for argv, message in expected.items():
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == [f"error: {message}"]


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert "unknot" in names and "figure-eight" in names


def test_corpus_export_round_trip(capsys):
    code, out, _ = run(capsys, "corpus", "export", "trefoil")
    assert code == 0
    assert parse_grid(out).sigma_X == (3, 4, 5, 1, 2)


def test_corpus_export_needs_name(capsys):
    code, _, err = run(capsys, "corpus", "export")
    assert code == 1
    assert err


def test_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_verify_nonsimple(capsys):
    code, out, _ = run(capsys, "verify", "--battery", "nonsimple")
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_moves(capsys):
    code, out, _ = run(capsys, "verify", "--battery", "moves")
    assert code == 0
    assert "18/18 checks passed" in out


def test_verify_kunneth(capsys):
    code, out, _ = run(capsys, "verify", "--battery", "kunneth")
    assert code == 0
    assert "6/6 checks passed" in out


def test_verify_failing_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "battery_nonsimple", lambda: [("nonsimple: broken", False)])
    code, out, _ = run(capsys, "verify", "--battery", "nonsimple")
    assert code == 2
    assert "nonsimple: broken  FAIL" in out and "0/1 checks passed" in out


def test_unreadable_and_unwritable_files_exit_2(grid_dir, tmp_path, monkeypatch, capsys):
    # each prints one line and exits 2: a missing move script, a grid file
    # that is not UTF-8 (also in the corpus directory), an --out in no directory
    def exits_2(message, *argv):
        code, _, err = run(capsys, *argv)
        return (code, len(err.splitlines()), message in err) == (2, 1, True)

    (tmp_path / "corpus").mkdir()
    latin1 = tmp_path / "corpus" / "latin1.grid"
    latin1.write_bytes(b"# n\xe9ud\nn=2\nO=1,2\nX=2,1\n")
    script = tmp_path / "script.txt"
    script.write_text("cycR 1\n")
    unknot, unknot_x = str(grid_dir / "unknot.grid"), str(grid_dir / "unknot-corner-x.grid")
    out = ("--out", str(tmp_path / "no" / "dir" / "x.grid"))
    assert exits_2("cannot read", "moves", unknot, str(tmp_path / "missing.txt"))
    assert exits_2("cannot read", "info", str(latin1))
    assert exits_2("cannot write", "corpus", "export", "trefoil", *out)
    assert exits_2("cannot write", "moves", unknot, str(script), *out)
    assert exits_2("cannot write", "connsum", unknot_x, unknot, *out)
    monkeypatch.setenv("GRIDHFK_CORPUS_DIR", str(latin1.parent))
    assert exits_2("cannot read", "corpus", "list")


def test_builtin_corpus_names_do_not_read_the_corpus_dir(tmp_path, monkeypatch, capsys):
    # a bad extra file fails only the commands that need the extra files
    (tmp_path / "latin1.grid").write_bytes(b"# n\xe9ud\nn=2\nO=1,2\nX=2,1\n")
    monkeypatch.setenv("GRIDHFK_CORPUS_DIR", str(tmp_path))
    code, out, _ = run(capsys, "corpus", "export", "trefoil")
    assert code == 0 and parse_grid(out).sigma_X == (3, 4, 5, 1, 2)
    code, _, err = run(capsys, "corpus", "export", "latin1")
    assert (code, len(err.splitlines()), "cannot read" in err) == (2, 1, True)
    assert run(capsys, "verify", "--battery", "nonsimple")[0] == 0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bad_threads_exit_2(grid_dir, capsys, threads):
    for argv in (["homology", str(grid_dir / "trefoil.grid")], ["verify", "--battery", "kunneth"]):
        code, out, err = run(capsys, *argv, "--threads", threads)
        assert (code, out, len(err.splitlines()), "workers" in err) == (2, "", 1, True)


@pytest.mark.parametrize("battery", ["all", "nonsimple"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bad_threads_are_refused_before_any_battery(monkeypatch, capsys, battery, threads):
    def ran(*args):
        raise AssertionError("a battery ran before --threads was checked")

    for name in ("battery_moves", "battery_kunneth", "battery_nonsimple"):
        monkeypatch.setattr(cli, name, ran)
    code, out, err = run(capsys, "verify", "--battery", battery, "--threads", threads)
    assert (code, out, len(err.splitlines()), "workers" in err) == (2, "", 1, True)


@st.composite
def _grid_texts(draw):
    """Grid file text with n = 1..8: valid knots, links and collisions from
    two permutations, short or long rows, out-of-range and repeated entries,
    duplicate keys and non-numeric text."""
    n = draw(st.integers(1, 8))
    entries = st.integers(-1, n + 2)
    row = st.one_of(st.permutations(range(1, n + 1)),
                    st.lists(entries, min_size=max(0, n - 1), max_size=n + 1))
    lines = [f"n={n}", "O=" + ",".join(map(str, draw(row))), "X=" + ",".join(map(str, draw(row)))]
    if draw(st.booleans()):
        junk = draw(st.sampled_from(["n=2", "x=2,1", "O=1,a", "n=two", "X=", "junk", "# note", "="]))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


_MOVE_LINES = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["cycR", "cycC", "commR", "commC"]), st.integers(-1, 9)),
    st.builds("{} {} {} {}".format, st.sampled_from(["stab", "destab"]),
              st.sampled_from(STAB_TYPES + ("X:XX",)), st.integers(-1, 9), st.integers(-1, 9)),
    st.text(alphabet="cyRC12 :X#", max_size=10),
)
_ONE_GRID = [["info"], ["show"], ["homology"], ["invariant"], ["invariant", "--sign", "-"], ["alex"]]
_SMALL_GRIDS = st.one_of(_grid_texts(), st.sampled_from([format_grid(e.grid) for e in builtin_entries()]))
_SMALL = st.tuples(st.sampled_from(_ONE_GRID + [["connsum"], ["moves"]]), _SMALL_GRIDS, _SMALL_GRIDS,
                   st.lists(_MOVE_LINES, max_size=6))
# the shift grids around the int8 state limit, with the commands that reach
# it and the move scripts; alex does not finish at 127, and info, show and
# connsum, which build no state, take up to seconds on such a grid
_LARGE_COMMANDS = [["homology"], ["invariant"], ["invariant", "--sign", "-"], ["alex"], ["moves"]]
_LARGE = st.tuples(st.sampled_from(_LARGE_COMMANDS), st.sampled_from([127, 128, 255, 256, 600]),
                   st.lists(_MOVE_LINES, max_size=3)).filter(lambda c: c[:2] != (["alex"], 127))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(st.one_of(_SMALL, _LARGE))
@settings(max_examples=200, deadline=None)
def test_cli_exits_with_a_code_and_no_traceback(fuzz_dir, case):
    # every command on every input ends in exit 0, 2 or 3, never in an
    # untyped exception
    grid, other, script = fuzz_dir / "a.grid", fuzz_dir / "b.grid", fuzz_dir / "script.txt"
    if isinstance(case[1], int):
        command, n, moves = case
        grid.write_text(format_grid(shift_grid(n, 1)))
    else:
        command, text, other_text, moves = case
        grid.write_text(text)
        other.write_text(other_text)
    script.write_text("\n".join(moves) + "\n")
    files = {"connsum": [grid, other], "moves": [grid, script]}.get(command[0], [grid])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + [str(f) for f in files])
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (case, err.getvalue())
