"""Grid moves: cyclic permutations, commutations and the eight
stabilization types, with their effect on the Legendrian/transverse data.

Run with:  python3 demos/demo_moves.py
"""

import random

from gridhfk import (
    apply_move,
    bigrading,
    classical_invariants,
    classify_move,
    lambda_status,
    render_grid,
    x_plus,
)
from gridhfk.corpus import get
from gridhfk.moves import (
    STAB_TYPES,
    cyclic_rows,
    legal_destabilizations,
    random_move_sequence,
    stabilize,
)

trefoil = get("trefoil").grid
base = classical_invariants(trefoil)
print("trefoil grid:")
print(render_grid(trefoil))
print(f"tb = {base.tb}, r = {base.r}, sl+ = {base.sl_plus}")
print()

# Each stabilization type subdivides a marked cell; the types fall into
# three classes depending on which structure they preserve.
print("stabilization at the X of column 2, all eight types:")
for stab_type in sorted(STAB_TYPES):
    rows = trefoil.sigma_X if stab_type[0] == "X" else trefoil.sigma_O
    move = stabilize(stab_type, 2, rows[1])
    G2 = apply_move(trefoil, move)
    ci = classical_invariants(G2)
    print(
        f"  {stab_type}: class={classify_move(move):<14}"
        f" tb {base.tb}->{ci.tb}, r {base.r}->{ci.r}, sl+ {base.sl_plus}->{ci.sl_plus}"
    )
print()

# Legendrian moves preserve the invariant cycle x+ on the nose: same
# bigrading, same vanishing verdict, no matter how the grid is shuffled.
rng = random.Random(0)
status = lambda_status(trefoil, "+")
print(f"x+ status on the trefoil: {status.tilde_verdict} at {status.bigrading}")
moves, shuffled = random_move_sequence(trefoil, 8, rng)
print(f"after {len(moves)} random Legendrian moves (n={shuffled.n}):")
print(" ", lambda_status(shuffled, '+').tilde_verdict,
      "at", lambda_status(shuffled, '+').bigrading)
print()

# Negative stabilizations (X:NE, O:SW) fix x+; positive ones (X:SW, O:NE)
# multiply it by U, dropping the bigrading by (2, 1).
neg = apply_move(trefoil, stabilize("X:NE", 1, trefoil.sigma_X[0]))
pos = apply_move(trefoil, stabilize("X:SW", 1, trefoil.sigma_X[0]))
print("bigrading of x+:  base", bigrading(trefoil, x_plus(trefoil)))
print("  after X:NE (negative stab)", bigrading(neg, x_plus(neg)))
print("  after X:SW (positive stab)", bigrading(pos, x_plus(pos)))
print()

# A destabilization merges a 2x2 block back into one cell; it is legal
# when stabilizing the merged grid gives the same grid back.
G2 = apply_move(trefoil, cyclic_rows(1))
G3 = apply_move(G2, stabilize("O:SE", 2, G2.sigma_O[1]))
print(f"destabilizations available on a stabilized grid (n={G3.n}):")
for stype, col, row in legal_destabilizations(G3):
    print(f"  destab {stype} at ({col}, {row})")
