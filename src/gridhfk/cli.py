"""Command-line front end: reports, move scripting and verification batteries.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 budget exceeded.
All homology output is for the mirror m(K) of the knot whose Legendrian
front the grid encodes; reports are labelled accordingly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import corpus
from .errors import BudgetExceeded, GridError
from .floer import Bigrading
from .front import classical_invariants, front_projection
from .grid import format_grid, parse_grid, render_grid, component_count
from .homology import (
    POOL_MIN_N,
    alexander_polynomial,
    check_workers,
    format_qt,
    format_t,
    tilde_homology,
)
from .invariants import (
    kunneth_check,
    lambda_status,
    nonsimplicity_pipeline,
)
from .moves import (
    apply_move,
    apply_moves,
    classify_move,
    connect_sum,
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
    return parse_grid(corpus.read_file(path))


def _emit(text, out=None):
    if not out:
        print(text)
        return
    try:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise GridError(f"cannot write {out}: {exc}") from exc


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
    print(lambda_status(_load(args.file), sign=args.sign).to_json())
    return EXIT_OK


def cmd_moves(args):
    G = _load(args.file)
    moves = parse_move_script(corpus.read_file(args.script))
    result = apply_moves(G, moves)
    classes = sorted({classify_move(m) for m in moves})
    _emit(format_grid(result), args.out)
    if args.out:
        print(f"applied {len(moves)} moves (classes: {', '.join(classes)}) -> {args.out}")
    return EXIT_OK


def cmd_connsum(args):
    _emit(format_grid(connect_sum(_load(args.file_a), _load(args.file_b))), args.out)
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


# -- verification batteries: acceptance criteria 4, 5 and 9 --------------------


def battery_moves(rng):
    """Criterion 4 on every corpus grid: 200 random Legendrian move sequences
    of 1-8 moves drawn from ``rng`` keep the x+ bigrading and verdict, the
    negative stabilization X:NE keeps the x+ bigrading and the positive X:SW
    shifts it by (-2, -1).  An x+ that stops being a cycle raises NotACycle.
    """
    checks = []
    for entry in corpus.builtin_entries():
        G = entry.grid
        base = lambda_status(G, "+")
        invariant = True
        for _ in range(200):
            _, G2 = random_move_sequence(G, rng.randint(1, 8), rng)
            status = lambda_status(G2, "+")
            invariant &= (status.bigrading, status.tilde_verdict) == (
                base.bigrading, base.tilde_verdict)
        neg, pos = (lambda_status(apply_move(G, stabilize(t, 1, G.sigma_X[0])), "+")
                    for t in ("X:NE", "X:SW"))
        checks += [
            (f"moves: {entry.name} x+ invariant", invariant),
            (f"moves: {entry.name} X:NE fixes x+ bigrading", neg.bigrading == base.bigrading),
            (f"moves: {entry.name} X:SW shifts x+ bigrading by (-2,-1)",
             pos.bigrading == base.bigrading + Bigrading(-2, -1)),
        ]
    return checks


def battery_kunneth(large, workers):
    """Criterion 5: the connected-sum checks of ``kunneth_check`` on the 3x3
    and 6x6 sums, and with ``large`` on the 9x9 trefoil#trefoil."""
    U_o, U_x, T_o, T_x = (corpus.get(name).grid for name in
                          ("unknot", "unknot-corner-x", "trefoil", "trefoil-corner-x"))
    pairs = [("unknot#unknot", U_x, U_o), ("trefoil#unknot", T_x, U_o)]
    if large:
        pairs.append(("trefoil#trefoil", T_x, T_o))
    checks = []
    for name, G1, G2 in pairs:
        report = kunneth_check(G1, G2, workers=workers)
        checks += [
            (f"kunneth: {name} hat table = tensor product", report.hat_match),
            (f"kunneth: {name} x+ bigradings add", report.bigrading_additive),
            (f"kunneth: {name} vanishing product rule", report.vanishing_rule_holds),
        ]
    return checks


def battery_nonsimple():
    """Criterion 9: the pipeline does not separate a grid from itself, and
    certifies the stabilized trefoil against the unknot (both have sl -1)."""
    T = corpus.get("trefoil").grid
    T_stab = apply_move(T, stabilize("X:SW", 1, T.sigma_X[0]))
    same = nonsimplicity_pipeline(T, T)["conclusion"]
    differing = nonsimplicity_pipeline(T_stab, corpus.get("unknot").grid)["conclusion"]
    return [
        ("nonsimple: identical inputs -> not distinguished", same == "not distinguished"),
        ("nonsimple: synthetic differing pair -> certified",
         differing == "transversely non-simple pair certified"),
    ]


def cmd_verify(args):
    check_workers(args.threads)
    checks = []
    if args.battery in ("moves", "all"):
        checks += battery_moves(random.Random(args.seed))
    if args.battery in ("kunneth", "all"):
        checks += battery_kunneth(args.force, args.threads)
    if args.battery in ("nonsimple", "all"):
        checks += battery_nonsimple()
    width = max(len(name) for name, _ in checks)
    failed = 0
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


THREADS_HELP = (f"processes that reduce the Alexander fibers of each grid of size"
                f" {POOL_MIN_N}x{POOL_MIN_N} or more; smaller grids run serially")


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
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("invariant", help="lambda/theta invariant status")
    p.add_argument("file")
    p.add_argument("--sign", choices=("+", "-"), default="+")
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

    p = sub.add_parser("alex", help="Alexander polynomial over Z")
    p.add_argument("file")
    p.set_defaults(func=cmd_alex)

    p = sub.add_parser("verify", help="theorem-verification batteries")
    p.add_argument("--battery", choices=("moves", "kunneth", "nonsimple", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="include the large trefoil#trefoil case")
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
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
