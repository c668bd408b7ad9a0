"""Legendrian/transverse invariant cycles and theorem-level verifications.

x+(G) sits at the upper-right corners of the X cells, x-(G) at the lower
left; both are cycles in every flavor of the differential.  Vanishing
verdicts are computed in the fully blocked complex (reports say so), on the
cycle's own component of the boundary into its slice, so they need no
Alexander fiber listed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import BudgetExceeded, MultiComponent, OutOfRange, SlMismatch
from .floer import Bigrading, bigrading
from .front import classical_invariants
from .grid import component_count
from .homology import class_vanishes, tilde_homology
from .moves import connect_sum, has_corner_o, has_corner_x, normalize_corners

FLAVOR_NOTE = "via fully blocked complex"


def x_plus(G):
    """Generator at the upper-right corners of the X cells."""
    n = G.n
    state = [0] * n
    for i in range(1, n + 1):
        state[i % n] = G.sigma_X[i - 1] % n
    return tuple(state)


def x_minus(G):
    """Generator at the lower-left corners of the X cells."""
    return tuple(r - 1 for r in G.sigma_X)


@dataclass(frozen=True, slots=True)
class InvariantStatus:
    sign: str  # "+" or "-"
    bigrading: Bigrading
    tilde_verdict: str  # Vanishes | Survives

    def to_json(self):
        return json.dumps(
            {
                "sign": self.sign,
                "bigrading": [self.bigrading.M, self.bigrading.A],
                "verdict": self.tilde_verdict,
                "flavor_note": FLAVOR_NOTE,
            },
            sort_keys=True,
        )


def lambda_status(G, sign="+"):
    """Bigrading and vanishing status of the lambda invariant cycle x+ or
    x-, by ``sign``, "+" or "-", on a knot grid."""
    if sign not in ("+", "-"):
        raise OutOfRange(f"sign must be '+' or '-', got {sign!r}")
    if component_count(G) != 1:
        raise MultiComponent("the lambda invariant requires a single-component grid")
    cycle = x_plus(G) if sign == "+" else x_minus(G)
    bg = bigrading(G, cycle)
    verdict = class_vanishes(G, [cycle], flavor="tilde", grading=bg)
    return InvariantStatus(sign=sign, bigrading=bg, tilde_verdict=verdict)


def theta_status(G):
    """Transverse invariant: lambda_+ of the grid, read transversely.

    The grid is a Legendrian approximation of its positive transverse push
    off, so the same cycle represents the transverse class.
    """
    return lambda_status(G, sign="+")


# -- connected-sum verification -------------------------------------------------


def tensor_table(table1, table2):
    """Bigraded tensor product of two rank tables."""
    out = {}
    for (m1, a1), d1 in table1.items():
        for (m2, a2), d2 in table2.items():
            key = (m1 + m2, a1 + a2)
            out[key] = out.get(key, 0) + d1 * d2
    return {k: v for k, v in out.items() if v}


@dataclass
class KunnethReport:
    sum_grid: object
    hat_match: bool
    hat_sum: dict
    hat_tensor: dict
    bigrading_additive: bool
    bigrading_sum: Bigrading
    bigrading_expected: Bigrading
    vanishing_rule_holds: bool
    verdicts: tuple  # (factor1, factor2, sum)

    @property
    def ok(self):
        return self.hat_match and self.bigrading_additive and self.vanishing_rule_holds

    def to_json(self):
        return json.dumps(
            {
                "hat_match": self.hat_match,
                "bigrading_additive": self.bigrading_additive,
                "vanishing_rule_holds": self.vanishing_rule_holds,
                "verdicts": list(self.verdicts),
                "flavor_note": FLAVOR_NOTE,
            },
            sort_keys=True,
        )


def kunneth_check(G1, G2, workers=None):
    """Numerical shadow of the connected-sum formula, for any two knots.

    Checks (a) the hat rank table of G1 # G2 against the bigraded tensor
    product of the factors' tables, (b) additivity of the x+ bigradings with
    zero global shift, (c) the product rule for hat-vanishing of x+.
    """
    Gsum = connect_sum(G1, G2)
    rep1 = tilde_homology(G1, workers=workers)
    rep2 = tilde_homology(G2, workers=workers)
    repsum = tilde_homology(Gsum, workers=workers)
    tensor = tensor_table(rep1.hat_poincare, rep2.hat_poincare)
    x1, x2, xsum = (lambda_status(G) for G in (G1, G2, Gsum))
    verdicts = (x1.tilde_verdict, x2.tilde_verdict, xsum.tilde_verdict)
    expected = "Survives" if verdicts[:2] == ("Survives", "Survives") else "Vanishes"
    return KunnethReport(
        sum_grid=Gsum,
        hat_match=repsum.hat_poincare == tensor,
        hat_sum=repsum.hat_poincare,
        hat_tensor=tensor,
        bigrading_additive=xsum.bigrading == x1.bigrading + x2.bigrading,
        bigrading_sum=xsum.bigrading,
        bigrading_expected=x1.bigrading + x2.bigrading,
        vanishing_rule_holds=verdicts[2] == expected,
        verdicts=verdicts,
    )


# -- transverse non-simplicity pipeline ------------------------------------------


def _normalized(grids):
    """``{G: grid of G with both corners}`` over the distinct grids of
    ``grids``, running the corner search once for each that lacks one."""
    return {
        G: G if has_corner_x(G) and has_corner_o(G) else normalize_corners(G)
        for G in dict.fromkeys(grids)
    }


def iterated_connect_sum(grids):
    """Left fold of connect_sum over the summands with both corners.

    Each distinct summand is searched for its corners once per call; a sum
    of summands with both corners keeps both, so the running sum needs no
    search.
    """
    normal = _normalized(grids)
    acc = normal[grids[0]]
    for G in grids[1:]:
        acc = connect_sum(acc, normal[G])
    return acc


def nonsimplicity_pipeline(GA, GB, reps=1):
    """Compare theta verdicts of #^n GB and GA # (#^(n-1) GB).

    The two composites share their self-linking number by construction;
    differing verdicts certify a transversely non-simple pair.  Equal
    verdicts only report "not distinguished" - never "simple".  Each
    distinct summand (GB, and GA when reps > 1) is searched for its corners
    once per call and both sides fold the normalized grids; with reps == 1
    side A is GA itself.  sl+ is computed once per distinct grid of GA, GB
    and the sides, and the verdict once per distinct side: when GA == GB and
    reps > 1, the two sides are one grid.  ``reps`` is an int of at least 1.
    """
    if type(reps) is not int or reps < 1:  # a bool is not a count
        raise OutOfRange(f"reps must be an integer of at least 1, got {reps!r}")
    for G in (GA, GB):
        if component_count(G) != 1:
            raise MultiComponent("pipeline inputs must be knots")
    sl = {G: classical_invariants(G).sl_plus for G in dict.fromkeys((GA, GB))}
    if sl[GA] != sl[GB]:
        raise SlMismatch(f"sl_plus differs: {sl[GA]} vs {sl[GB]}")
    normal = _normalized([GB, GA] if reps > 1 else [GB])
    side_b = iterated_connect_sum([normal[GB]] * reps)
    side_a = iterated_connect_sum([normal[GA]] + [normal[GB]] * (reps - 1)) if reps > 1 else GA
    sides = (side_a, side_b)
    for S in sides:
        if S not in sl:
            sl[S] = classical_invariants(S).sl_plus
    report = {
        "reps": reps,
        "sl_plus": tuple(sl[S] for S in sides),
        "grid_sizes": (side_a.n, side_b.n),
        "flavor_note": FLAVOR_NOTE,
    }
    if report["sl_plus"][0] != report["sl_plus"][1]:
        raise SlMismatch(f"composites differ in sl_plus: {report['sl_plus']}")
    try:
        verdict = {S: theta_status(S).tilde_verdict for S in dict.fromkeys(sides)}
        report["verdicts"] = tuple(verdict[S] for S in sides)
        if verdict[side_a] != verdict[side_b]:
            report["conclusion"] = "transversely non-simple pair certified"
        else:
            report["conclusion"] = "not distinguished"
    except BudgetExceeded as exc:
        report["verdicts"] = None
        report["conclusion"] = f"budget exceeded: {exc}"
    return report
