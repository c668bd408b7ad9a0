"""Seeded inputs, operations and correctness oracles of the workloads.

Every grid a workload feeds the program is made here, from the seed, by the
benchmark's own code: fixed grids are literal marker tuples and random knots
come from ``random_knot`` below, so neither an edit to the test suite nor a
change to the program's moves can alter a workload.  The program receives
only the finished grids.

Each workload is a list of ``Op`` objects; one pass runs them in order, and a
run repeats passes.  An op's ``work`` is the number of generators its answer
is computed over, taken from the inputs (or, for ``pipeline``, from the
grids the pipeline builds, counted after the timed region).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import factorial
from typing import Callable

import numpy as np

# Grid sizes.  They are set so that one pass takes a few seconds on a 2-core
# machine and a run of the benchmark's length holds several passes.
HOMOLOGY_N = 7
HOMOLOGY_RANDOM = 5
THETA_N = 8
KUNNETH_RANDOM = 2


@dataclass
class Op:
    label: str
    grids: tuple  # the grids handed to the program
    call: Callable  # () -> output
    check: Callable  # output -> list of error strings
    record: Callable  # output -> canonical text for the recorded outputs
    work: int = 0  # generators the answer is computed over
    work_from: Callable = None  # output -> work, when not known up front
    extra: dict = field(default_factory=dict)


# -- grids -------------------------------------------------------------------


def grid_text(G):
    return "n={};O={};X={}".format(
        G.n, ",".join(map(str, G.sigma_O)), ",".join(map(str, G.sigma_X))
    )


def _components(o, x):
    n = len(o)
    col_of_x = {r: c for c, r in enumerate(x)}
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = col_of_x[o[i]]
    return cycles


def random_knot(rng, n):
    """Uniform random valid single-component n x n grid, as marker tuples."""
    while True:
        o = rng.sample(range(1, n + 1), n)
        x = rng.sample(range(1, n + 1), n)
        if any(a == b for a, b in zip(o, x)):
            continue
        if _components(o, x) == 1:
            return tuple(o), tuple(x)


def cyclic(o, x, col_shift, row_shift):
    """Cyclic permutation of columns and rows (a Legendrian isotopy)."""
    n = len(o)
    o2 = [0] * n
    x2 = [0] * n
    for i in range(n):
        j = (i + col_shift) % n
        o2[j] = (o[i] - 1 + row_shift) % n + 1
        x2[j] = (x[i] - 1 + row_shift) % n + 1
    return tuple(o2), tuple(x2)


def with_corner_x(o, x):
    """Shift so that the X of column 1 lands in the upper-right corner."""
    n = len(o)
    return cyclic(o, x, n - 1, n - x[0])


def with_corner_o(o, x):
    """Shift so that the O of column 1 lands in the lower-left corner."""
    return cyclic(o, x, 0, 1 - o[0])


def connect(g1, g2):
    """Grid connected sum at g1's upper-right X and g2's lower-left O."""
    (o1, x1), (o2, x2) = g1, g2
    n1 = len(o1)
    if x1[-1] != n1 or o2[0] != 1:
        raise ValueError("connect needs an upper-right X and a lower-left O")
    o = list(o1[:-1]) + [o1[-1]] + [r + n1 - 1 for r in o2[1:]]
    x = list(x1[:-1]) + [x2[0] + n1 - 1] + [r + n1 - 1 for r in x2[1:]]
    return tuple(o), tuple(x)


# Literal copies of the corpus grids the workloads use (rows per column).
UNKNOT = ((1, 2), (2, 1))
UNKNOT_CORNER_X = ((2, 1), (1, 2))
UNKNOT_3 = ((1, 2, 3), (2, 3, 1))  # shift grid n=3, k=1
TREFOIL = ((1, 2, 3, 4, 5), (3, 4, 5, 1, 2))  # shift grid n=5, k=2
TREFOIL_CORNER_X = ((3, 4, 5, 1, 2), (1, 2, 3, 4, 5))
CINQUEFOIL = ((1, 2, 3, 4, 5, 6, 7), (3, 4, 5, 6, 7, 1, 2))  # shift n=7, k=2
FIGURE_EIGHT = ((3, 6, 1, 5, 4, 2), (1, 2, 4, 3, 6, 5))
# The trefoil after an X:SW stabilization at its column-1 X: a positive
# stabilization, so its sl+ drops to -1, the unknot's.
TREFOIL_STAB_XSW = ((3, 1, 2, 4, 5, 6), (4, 3, 5, 6, 1, 2))


# -- self-contained grading arithmetic, for work units and oracles ------------


def _point_table(rows, n):
    return [
        [
            sum(1 for c in range(i, n) if rows[c] >= j)
            + sum(1 for c in range(i) if rows[c] < j)
            for j in range(n)
        ]
        for i in range(n)
    ]


def alexander_weights(o, x):
    """w[i][j]: doubled Alexander contribution of the point (i, j), up to a
    constant; A(y) - A(z) = (sum w[i][y_i] - sum w[i][z_i]) / 2."""
    n = len(o)
    fo = _point_table([r - 1 for r in o], n)
    fx = _point_table([r - 1 for r in x], n)
    return [[fx[i][j] - fo[i][j] for j in range(n)] for i in range(n)]


def x_plus_state(x):
    """Generator at the upper-right corners of the X cells."""
    n = len(x)
    state = [0] * n
    for i in range(1, n + 1):
        state[i % n] = x[i - 1] % n
    return state


def fiber_size(o, x):
    """Number of generators in the Alexander fiber of x+.

    Counts permutations p with sum w[i][p_i] equal to x+'s sum by dynamic
    programming over the set of rows used, one column at a time.
    """
    n = len(o)
    w = alexander_weights(o, x)
    lows = [min(r) for r in w]
    ws = [[v - lows[i] for v in w[i]] for i in range(n)]
    width = sum(max(r) for r in ws) + 1
    target = sum(ws[i][j] for i, j in enumerate(x_plus_state(x)))
    dp = np.zeros((1 << n, width), dtype=np.int64)
    dp[0, 0] = 1
    masks = np.arange(1 << n)
    pop = np.array([bin(m).count("1") for m in range(1 << n)])
    for k in range(n):
        layer = masks[pop == k]
        for j in range(n):
            src = layer[(layer >> j) & 1 == 0]
            d = ws[k][j]
            dp[src | (1 << j), d:] += dp[src, : width - d]
    full = dp[(1 << n) - 1]
    if int(full.sum()) != factorial(n):
        raise ArithmeticError("fiber counts do not sum to n!")
    return int(full[target])


# -- oracles -------------------------------------------------------------------


def check_homology_report(n, rep):
    errs = []
    if sum(rep.generator_counts.values()) != factorial(n):
        errs.append(f"generator counts sum to {sum(rep.generator_counts.values())}, not {n}!")
    if rep.euler_characteristic_exponents_mod2() != set(rep.alexander_mod2):
        errs.append("hat Euler characteristic mod 2 differs from the Alexander polynomial")
    mirrored = {(m - 2 * a, -a): d for (m, a), d in rep.hat_poincare.items()}
    if mirrored != rep.hat_poincare:
        errs.append("hat table not symmetric under (M, A) -> (M - 2A, -A)")
    return errs


def check_theta(sl_plus, verdict, status):
    bg = status.bigrading
    errs = []
    if not (bg.M == 2 * bg.A == sl_plus + 1):
        errs.append(f"x+ at (M, A) = ({bg.M}, {bg.A}) but sl+ = {sl_plus}")
    if status.tilde_verdict != verdict:
        errs.append(f"verdict {status.tilde_verdict!r}, not the knot's {verdict!r}")
    return errs


def record_theta(status):
    return f"M={status.bigrading.M} A={status.bigrading.A} {status.tilde_verdict}"


def record_pipeline(report):
    return json.dumps(report, sort_keys=True)


# -- workloads -----------------------------------------------------------------


def build(name, seed, gh):
    """Ops of one workload.  ``gh`` is the imported ``gridhfk`` package.

    Each part draws from its own seeded stream, so adding a part to a
    workload leaves the inputs of the others unchanged.
    """
    ops = []
    for part in WORKLOADS[name]:
        rng = random.Random(f"{part.__name__.lstrip('_')}:{seed}")
        ops.extend(part(rng, gh))
    return ops


def _grid(gh, og):
    return gh.GridDiagram(len(og[0]), og[0], og[1])


def _homology(rng, gh):
    """Serial tilde_homology reports.  Rectangle enumeration, boundary
    assembly and F2 rank do nearly all the work; n=7 keeps a report near a
    quarter second.  The three fixed knots have hat rank 3-5, the random
    ones mostly rank 1."""
    fixed = [
        ("trefoil-corner-x#unknot3", connect(TREFOIL_CORNER_X, with_corner_o(*UNKNOT_3))),
        ("figure-eight#unknot", connect(with_corner_x(*FIGURE_EIGHT), UNKNOT)),
        ("cinquefoil", CINQUEFOIL),
    ]
    rand = [(f"random{HOMOLOGY_N}-{k}", random_knot(rng, HOMOLOGY_N)) for k in range(HOMOLOGY_RANDOM)]
    items = fixed + rand
    rng.shuffle(items)
    ops = []
    for label, og in items:
        G = _grid(gh, og)
        ops.append(
            Op(
                label=label,
                grids=(G,),
                call=lambda G=G: gh.homology.tilde_homology(G),
                check=lambda rep, n=G.n: check_homology_report(n, rep),
                record=lambda rep: rep.to_json(),
                work=factorial(G.n),
            )
        )
    return ops


# Sixteen random 8x8 knots, drawn once with random_knot, one from each slice
# of the x+ fiber band 1500-3500 (x+ fibers of random 8x8 knots range from
# about 10^2 to 1.5 * 10^4 generators).  Sixteen similar ops put the median
# op inside a dense cluster of latencies.  Each entry is (O rows, X rows,
# verdict), with the x+ fiber size in the comment.
THETA_POOL = (
    ((3, 6, 8, 7, 2, 4, 5, 1), (6, 4, 1, 5, 8, 7, 2, 3), "Vanishes"),  # 1617
    ((6, 8, 7, 4, 3, 2, 5, 1), (8, 5, 1, 2, 6, 3, 7, 4), "Vanishes"),  # 1633
    ((2, 4, 1, 7, 6, 8, 5, 3), (3, 1, 5, 6, 4, 7, 2, 8), "Vanishes"),  # 1773
    ((3, 5, 2, 4, 6, 8, 1, 7), (7, 4, 6, 3, 1, 5, 8, 2), "Vanishes"),  # 1989
    ((3, 7, 1, 6, 4, 5, 8, 2), (4, 5, 6, 2, 1, 8, 3, 7), "Vanishes"),  # 2043
    ((4, 1, 3, 8, 7, 5, 2, 6), (3, 2, 1, 4, 5, 8, 6, 7), "Vanishes"),  # 2169
    ((7, 4, 6, 3, 2, 1, 5, 8), (3, 7, 1, 2, 6, 8, 4, 5), "Vanishes"),  # 2331
    ((8, 3, 4, 6, 5, 1, 2, 7), (6, 4, 7, 3, 8, 2, 5, 1), "Vanishes"),  # 2389
    ((7, 2, 3, 1, 6, 8, 5, 4), (3, 7, 4, 6, 8, 2, 1, 5), "Vanishes"),  # 2577
    ((5, 8, 7, 2, 3, 4, 6, 1), (3, 6, 5, 1, 4, 2, 7, 8), "Vanishes"),  # 2695
    ((3, 4, 6, 8, 7, 5, 1, 2), (2, 5, 8, 1, 4, 6, 3, 7), "Vanishes"),  # 2803
    ((3, 4, 1, 2, 7, 6, 8, 5), (5, 3, 8, 4, 6, 2, 7, 1), "Vanishes"),  # 2961
    ((7, 6, 4, 1, 5, 8, 2, 3), (2, 3, 7, 4, 1, 5, 6, 8), "Vanishes"),  # 3117
    ((6, 3, 2, 8, 4, 7, 1, 5), (5, 7, 6, 2, 1, 8, 3, 4), "Vanishes"),  # 3183
    ((5, 7, 8, 1, 2, 6, 3, 4), (1, 5, 6, 4, 7, 3, 2, 8), "Survives"),  # 3261
    ((8, 1, 3, 5, 6, 7, 4, 2), (1, 6, 7, 3, 2, 8, 5, 4), "Vanishes"),  # 3393
)


def _theta(rng, gh):
    """theta_status (x+) verdicts.  Fiber listing, per-state gradings, the
    rectangle differential and the F2 solve dominate; enumerate_fibers and
    rank are bypassed.

    The seed presents each pool knot by a random cyclic permutation of its
    columns and rows.  That is a Legendrian isotopy which carries x+ to x+ on
    the same toroidal grid, so the program receives new grids while the
    fiber, the rectangles counted and the verdict stay the same.  Knots drawn
    afresh for each seed made the differential's terms per pass vary by up
    to 45% from seed to seed."""
    ops = []
    for k, (o, x, verdict) in enumerate(THETA_POOL):
        og = cyclic(o, x, rng.randrange(THETA_N), rng.randrange(THETA_N))
        G = _grid(gh, og)
        sl = gh.front.classical_invariants(G).sl_plus
        size = fiber_size(*og)
        ops.append(
            Op(
                label=f"knot{THETA_N}-{k}",
                grids=(G,),
                call=lambda G=G: gh.invariants.theta_status(G),
                check=lambda st, sl=sl, verdict=verdict: check_theta(sl, verdict, st),
                record=record_theta,
                work=size,
                extra={"sl_plus": sl, "fiber": size},
            )
        )
    rng.shuffle(ops)
    return ops


def _pipeline(rng, gh):
    """The paper's headline flow: nonsimplicity_pipeline on fixed cases, one
    of them certified.  Corner normalization and connected sums dominate,
    and theta runs on 9x9 and 13x13 composites with tiny fibers."""
    cases = [
        ("trefoil,trefoil,1", TREFOIL, TREFOIL, 1, "not distinguished"),
        ("trefoil-stab-XSW,unknot,1", TREFOIL_STAB_XSW, UNKNOT, 1,
         "transversely non-simple pair certified"),
        ("trefoil,trefoil,2", TREFOIL, TREFOIL, 2, "not distinguished"),
        ("unknot,unknot,2", UNKNOT, UNKNOT, 2, "not distinguished"),
    ]
    rng.shuffle(cases)
    ops = []
    for label, a, b, reps, expected in cases:
        GA, GB = _grid(gh, a), _grid(gh, b)

        def check(rep, expected=expected):
            errs = []
            if rep.get("conclusion") != expected:
                errs.append(f"conclusion {rep.get('conclusion')!r}, expected {expected!r}")
            if rep["sl_plus"][0] != rep["sl_plus"][1]:
                errs.append(f"sides differ in sl+: {rep['sl_plus']}")
            return errs

        def sides_fiber(rep, GA=GA, GB=GB, reps=reps):
            # The sides are rebuilt with the pipeline's own fold, after the
            # timed region, and their x+ fibers counted independently.
            fold = gh.invariants.iterated_connect_sum
            side_b = fold([GB] * reps)
            side_a = fold([GA] + [GB] * (reps - 1)) if reps > 1 else GA
            return sum(fiber_size(S.sigma_O, S.sigma_X) for S in (side_a, side_b))

        ops.append(
            Op(
                label=f"pipeline:{label}",
                grids=(GA, GB),
                call=lambda GA=GA, GB=GB, reps=reps: gh.invariants.nonsimplicity_pipeline(GA, GB, reps),
                check=check,
                record=record_pipeline,
                work_from=sides_fiber,
            )
        )
    return ops


def _kunneth(rng, gh):
    """kunneth_check with workers=2, the only path through the process pool:
    three homology reports per check, fibers reduced in pool workers."""
    pairs = [
        ("unknot-corner-x#figure-eight", UNKNOT_CORNER_X, with_corner_o(*FIGURE_EIGHT)),
        ("trefoil-corner-x#unknot3", TREFOIL_CORNER_X, with_corner_o(*UNKNOT_3)),
        ("figure-eight#unknot", with_corner_x(*FIGURE_EIGHT), UNKNOT),
    ]
    for k in range(KUNNETH_RANDOM):
        pairs.append(
            (
                f"random5#random3-{k}",
                with_corner_x(*random_knot(rng, 5)),
                with_corner_o(*random_knot(rng, 3)),
            )
        )
    rng.shuffle(pairs)
    ops = []
    for label, a, b in pairs:
        G1, G2 = _grid(gh, a), _grid(gh, b)
        n_sum = G1.n + G2.n - 1
        ops.append(
            Op(
                label=f"kunneth:{label}",
                grids=(G1, G2),
                call=lambda G1=G1, G2=G2: gh.invariants.kunneth_check(G1, G2, workers=2),
                check=lambda rep: [] if rep.ok else [f"kunneth check failed: {rep.to_json()}"],
                record=lambda rep: rep.to_json(),
                work=factorial(G1.n) + factorial(G2.n) + factorial(n_sum),
            )
        )
    return ops


# A workload is a list of parts; a pass runs all their ops, in an order
# shuffled afresh for each pass (see run.py).  The serial homology reports
# and the pooled Kunneth checks share one workload, as do the knot verdicts
# and the pipeline, so that each run can be long enough to ride out the
# host's slow spells (see run.py).
WORKLOADS = {
    "homology": (_homology, _kunneth),
    "theta": (_theta, _pipeline),
}
