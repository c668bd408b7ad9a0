"""Distinguishing transverse knots: the vanishing verdict of the cycle x+
and the end-to-end pipeline that certifies a transversely non-simple pair.

Run with:  python3 demos/demo_nonsimplicity.py
"""

from gridhfk import (
    apply_move,
    classical_invariants,
    lambda_status,
    nonsimplicity_pipeline,
)
from gridhfk.corpus import get
from gridhfk.moves import stabilize

# The cycle x+ defines a class in the fully blocked homology.  Whether that
# class survives or bounds is a transverse invariant, refined past the
# self-linking number.
for name in ("unknot", "trefoil", "figure-eight", "cinquefoil"):
    G = get(name).grid
    st = lambda_status(G, "+")
    print(
        f"{name:>12}: sl+ = {classical_invariants(G).sl_plus:>2},"
        f" x+ {st.tilde_verdict} at (M, A) = {st.bigrading}"
    )
print()

# A positive stabilization multiplies x+ by U, so its class in the blocked
# theory dies while the self-linking number only drops by 2.  Stabilizing
# the trefoil once brings its sl up against the unknot's, giving a pair
# with equal classical data but different verdicts.
T = get("trefoil").grid
T_stab = apply_move(T, stabilize("X:SW", 1, T.sigma_X[0]))
U = get("unknot").grid
print("stabilized trefoil: sl+ =", classical_invariants(T_stab).sl_plus,
      " unknot: sl+ =", classical_invariants(U).sl_plus)
print()

# The pipeline checks the classical data first and only then compares the
# homological verdicts.
report = nonsimplicity_pipeline(T_stab, U)
for key in ("sl_plus", "grid_sizes", "verdicts", "conclusion"):
    print(f"  {key}: {report[key]}")
print()

# Two presentations of the same transverse knot are never distinguished.
same = nonsimplicity_pipeline(T, T)
print("trefoil vs itself:", same["conclusion"])

# To run the pipeline on a transcribed pair of grids, drop them in a
# directory as NAME.grid files and point GRIDHFK_CORPUS_DIR at it; see
# README.md for the file format.
