"""Connected sums on grids: corner normalization, the patching rule, and
the Kunneth behaviour of homology and of the invariant cycle x+.

Run with:  python3 demos/demo_connected_sum.py
"""

from gridhfk import (
    classical_invariants,
    connect_sum,
    kunneth_check,
    normalize_corners,
    render_grid,
    tilde_homology,
)
from gridhfk.corpus import get
from gridhfk.homology import format_qt
from gridhfk.invariants import tensor_table
from gridhfk.moves import has_corner_o, has_corner_x

# Patching needs an X in the upper-right corner of the first factor and an
# O in the lower-left corner of the second; these two have them already.
unknot = get("unknot").grid  # has the corner O
unknot_x = get("unknot-corner-x").grid  # has the corner X

S = connect_sum(unknot_x, unknot)
print("unknot # unknot (3x3):")
print(render_grid(S))
print()

# connect_sum fixes up a factor without its corner marker first, by a
# sequence of commutations and transverse-class-preserving stabilizations
# (normalize_corners), so it takes any two knots.
trefoil = get("trefoil").grid
print(f"trefoil has corner X: {has_corner_x(trefoil)}, corner O: {has_corner_o(trefoil)}")
Tn = normalize_corners(trefoil)
print(f"normalized: n {trefoil.n} -> {Tn.n}, corners X/O:",
      has_corner_x(Tn), has_corner_o(Tn))
print("sl+ before/after:", classical_invariants(trefoil).sl_plus,
      classical_invariants(Tn).sl_plus)
n_sum = connect_sum(trefoil, trefoil).n
print(f"trefoil # trefoil as given: {n_sum}x{n_sum} (the first factor normalized, 5 -> 7)")
print()

# Self-linking adds with a +1 correction under connected sum.
trefoil_x = get("trefoil-corner-x").grid
TT = connect_sum(trefoil_x, trefoil)
print(f"trefoil # trefoil is a {TT.n}x{TT.n} grid")
print("sl+(T#T) =", classical_invariants(TT).sl_plus,
      "= sl+(T) + sl+(T) + 1 =", 2 * classical_invariants(trefoil).sl_plus + 1)
print()

# The hat homology of a connected sum is the bigraded tensor product of
# the factors, and the x+ bigradings add.  The full 9x9 computation runs
# through 362,880 generators; here we demonstrate on trefoil # unknot.
rep = kunneth_check(trefoil_x, unknot)
print("trefoil # unknot:")
print("  hat table of the sum:   ", format_qt(rep.hat_sum))
print("  tensor of factor tables:", format_qt(rep.hat_tensor))
print("  x+ bigrading adds:", rep.bigrading_additive,
      f"({rep.bigrading_sum} = {rep.bigrading_expected})")
print("  vanishing product rule:", rep.vanishing_rule_holds,
      f"verdicts={rep.verdicts}")
print()

# The same tensor structure, assembled by hand from the factor tables:
t_table = tilde_homology(trefoil).hat_poincare
print("trefoil table squared:", format_qt(tensor_table(t_table, t_table)))
print("(equals the hat table of the 9x9 sum; see tests/test_acceptance.py)")
