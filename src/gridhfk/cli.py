"""Command-line front end: reports, move scripting and verification batteries.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 budget exceeded.
All homology output is for the mirror m(K) of the knot whose Legendrian
front the grid encodes; reports are labelled accordingly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus
from .errors import BudgetExceeded, GridError
from .front import classical_invariants, front_projection
from .grid import format_grid, parse_grid, render_grid, component_count
from .homology import alexander_polynomial, format_qt, format_t, tilde_homology
from .invariants import (
    kunneth_check,
    lambda_status,
    nonsimplicity_pipeline,
    theta_status,
)
from .moves import (
    apply_moves,
    classify_move,
    connect_sum,
    has_corner_o,
    has_corner_x,
    normalize_corners,
    parse_move_script,
    random_move_sequence,
    stabilize,
)

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_BUDGET = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GridError(f"cannot read {path}: {exc}") from exc
    return parse_grid(text)


def _emit(text, out=None):
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_info(args):
    G = _load(args.file)
    front = front_projection(G)
    ci = classical_invariants(G)
    up, down = front.cusp_counts()
    data = {
        "n": G.n,
        "components": component_count(G),
        "tb": ci.tb,
        "r": ci.r,
        "sl_plus": ci.sl_plus,
        "sl_minus": ci.sl_minus,
        "crossings": len(front.crossings),
        "writhe": front.writhe,
        "cusps_up": up,
        "cusps_down": down,
    }
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_show(args):
    print(render_grid(_load(args.file)))
    return EXIT_OK


def cmd_homology(args):
    G = _load(args.file)
    report = tilde_homology(G, workers=args.threads)
    if args.json:
        print(report.to_json())
        return EXIT_OK
    print("homology of m(K) for the front encoded by the grid")
    if args.flavor == "hat":
        print(f"poincare: {format_qt(report.hat_poincare)}")
        print(f"total rank: {report.hat_total_rank()}")
    else:
        print(f"poincare: {format_qt(report.ranks)}")
    print(f"alexander mod 2: {format_t(report.alexander_mod2)}")
    return EXIT_OK


def cmd_invariant(args):
    G = _load(args.file)
    if args.theta:
        status = theta_status(G, corroborate=args.corroborate)
    else:
        status = lambda_status(G, sign=args.sign, corroborate=args.corroborate)
    print(status.to_json())
    return EXIT_OK


def cmd_moves(args):
    G = _load(args.file)
    script = Path(args.script).read_text()
    moves = parse_move_script(script)
    result = apply_moves(G, moves)
    classes = sorted({classify_move(m) for m in moves})
    _emit(format_grid(result), args.out)
    if args.out:
        print(f"applied {len(moves)} moves (classes: {', '.join(classes)}) -> {args.out}")
    return EXIT_OK


def cmd_connsum(args):
    G1, G2 = _load(args.file_a), _load(args.file_b)
    if not has_corner_x(G1):
        G1 = normalize_corners(G1)
    if not has_corner_o(G2):
        G2 = normalize_corners(G2)
    _emit(format_grid(connect_sum(G1, G2)), args.out)
    return EXIT_OK


def cmd_alex(args):
    G = _load(args.file)
    print(format_t(alexander_polynomial(G)))
    return EXIT_OK


def cmd_corpus(args):
    if args.action == "list":
        for entry in corpus.all_entries():
            print(f"{entry.name}\tn={entry.grid.n}\t{entry.provenance}")
        return EXIT_OK
    entry = corpus.get(args.name)
    _emit(f"# {entry.name}: {entry.provenance}\n{format_grid(entry.grid)}", args.out)
    return EXIT_OK


# -- verification batteries ------------------------------------------------------


def _stab_once(G, stab_type):
    from .moves import apply_move

    return apply_move(G, stabilize(stab_type, 1, G.sigma_X[0]))


def _battery_moves(rng, checks):
    for entry in corpus.builtin_entries():
        G = entry.grid
        base = lambda_status(G, "+")
        ok = True
        for _ in range(10):
            moves, G2 = random_move_sequence(G, 6, rng)
            status = lambda_status(G2, "+")
            if (status.bigrading, status.tilde_verdict) != (base.bigrading, base.tilde_verdict):
                ok = False
                break
        checks.append((f"moves: {entry.name} x+ invariant", ok))
        stneg = lambda_status(_stab_once(G, "X:NE"), "+")
        checks.append(
            (
                f"moves: {entry.name} X:NE fixes x+ bigrading",
                stneg.bigrading == base.bigrading,
            )
        )
        stpos = lambda_status(_stab_once(G, "X:SW"), "+")
        checks.append(
            (
                f"moves: {entry.name} X:SW shifts x+ bigrading by (-2,-1)",
                (stpos.bigrading.M, stpos.bigrading.A)
                == (base.bigrading.M - 2, base.bigrading.A - 1),
            )
        )


def _battery_kunneth(large, workers, checks):
    U_o = corpus.get("unknot").grid
    U_x = corpus.get("unknot-corner-x").grid
    T_o = corpus.get("trefoil").grid
    T_x = corpus.get("trefoil-corner-x").grid
    pairs = [("unknot#unknot", U_x, U_o), ("trefoil#unknot", T_x, U_o)]
    if large:
        pairs.append(("trefoil#trefoil", T_x, T_o))
    for name, G1, G2 in pairs:
        report = kunneth_check(G1, G2, workers=workers)
        checks.append((f"kunneth: {name} hat table = tensor product", report.hat_match))
        checks.append((f"kunneth: {name} x+ bigradings add", report.bigrading_additive))
        checks.append((f"kunneth: {name} vanishing product rule", report.vanishing_rule_holds))


def _battery_nonsimple(checks):
    T = corpus.get("trefoil").grid
    same = nonsimplicity_pipeline(T, T)
    checks.append(("nonsimple: identical inputs -> not distinguished",
                   same["conclusion"] == "not distinguished"))
    U = corpus.get("unknot").grid
    T_stab = _stab_once(T, "X:SW")  # sl drops to -1, matching the unknot
    differing = nonsimplicity_pipeline(T_stab, U)
    checks.append(("nonsimple: synthetic differing pair -> certified",
                   differing["conclusion"] == "transversely non-simple pair certified"))


def cmd_verify(args):
    import random

    rng = random.Random(args.seed)
    checks = []
    if args.battery in ("moves", "all"):
        _battery_moves(rng, checks)
    if args.battery in ("kunneth", "all"):
        _battery_kunneth(args.force, args.threads, checks)
    if args.battery in ("nonsimple", "all"):
        _battery_nonsimple(checks)
    width = max(len(name) for name, _ in checks)
    failed = 0
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def build_parser():
    parser = _Parser(prog="gridhfk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="grid summary and classical invariants")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("show", help="ASCII rendering of the grid")
    p.add_argument("file")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("homology", help="tilde/hat homology report")
    p.add_argument("file")
    p.add_argument("--flavor", choices=("tilde", "hat"), default="tilde")
    p.add_argument("--json", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("invariant", help="lambda/theta invariant status")
    p.add_argument("file")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--theta", action="store_true")
    p.add_argument("--corroborate", action="store_true",
                   help="also search for a bounded minus-flavor preimage")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("moves", help="apply a move script to a grid")
    p.add_argument("file")
    p.add_argument("script")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("connsum", help="connected sum of two grids")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_connsum)

    p = sub.add_parser("alex", help="Alexander polynomial mod 2")
    p.add_argument("file")
    p.set_defaults(func=cmd_alex)

    p = sub.add_parser("verify", help="theorem-verification batteries")
    p.add_argument("--battery", choices=("moves", "kunneth", "nonsimple", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="include the large trefoil#trefoil case")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="built-in certified grids")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command == "corpus" and args.action == "export" and not args.name:
        print("gridhfk corpus export: a corpus entry name is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
