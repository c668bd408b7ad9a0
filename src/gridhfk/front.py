"""Front projection of the Legendrian mirror knot and classical invariants.

The grid's rectilinear projection, rotated 45 degrees clockwise with all
crossings reversed, is a front projection of a Legendrian representative of
m(K).  Columns are oriented X -> O and rows O -> X.  Corners where the
rotated traversal reverses horizontal direction become cusps; the rest
smooth out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisionInexact, MultiComponent
from .grid import component_count

# Direction of travel in grid coordinates.
N, S, E, W = "N", "S", "E", "W"

# After the 45-degree clockwise rotation, N and W map to directions with a
# positive z-component and N, E to directions moving right.  A corner is a
# cusp exactly when the horizontal direction flips; the z-sign of the
# (unchanged) vertical motion distinguishes up from down cusps.
_CUSP_KIND = {
    frozenset((S, E)): "down",
    frozenset((N, W)): "up",
}

# Fixed empirically by the oracle checks (unknot tb=-1, move invariance,
# stabilization deltas, A(x+) = (sl+1)/2 across random grids).
_CROSSING_SIGN = 1


@dataclass(frozen=True)
class FrontDiagram:
    path: tuple  # cyclic tuple of segments ((col,row) from, (col,row) to, dir)
    crossings: tuple  # ((col, row), sign) per transversal intersection
    cusps: tuple  # ((col, row), "up"|"down") per cusp corner

    @property
    def writhe(self):
        return sum(sign for _, sign in self.crossings)

    def cusp_counts(self):
        up = sum(1 for _, kind in self.cusps if kind == "up")
        down = len(self.cusps) - up
        return up, down


@dataclass(frozen=True)
class ClassicalInvariants:
    tb: int
    r: int

    @property
    def sl_plus(self):
        return self.tb - self.r

    @property
    def sl_minus(self):
        return self.tb + self.r


def _trace_path(G):
    """Walk the knot once, yielding segments between consecutive markers."""
    segments = []
    col = 1
    for _ in range(G.n):
        x_row = G.sigma_X[col - 1]
        o_row = G.sigma_O[col - 1]
        segments.append(((col, x_row), (col, o_row), N if o_row > x_row else S))
        next_col = G.x_column_of_row(o_row)
        segments.append(((col, o_row), (next_col, o_row), E if next_col > col else W))
        col = next_col
    return segments


def front_projection(G):
    """Front of m(K) read off the grid; raises MultiComponent for links."""
    if component_count(G) != 1:
        raise MultiComponent("front projection requires a single-component grid")
    segments = _trace_path(G)

    cusps = []
    for k, seg in enumerate(segments):
        prev_dir = segments[k - 1][2]
        kind = _CUSP_KIND.get(frozenset((prev_dir, seg[2])))
        if kind is not None:
            cusps.append((seg[0], kind))

    crossings = []
    verticals = [s for s in segments if s[2] in (N, S)]
    horizontals = [s for s in segments if s[2] in (E, W)]
    for (vc, vr0), (_, vr1), vdir in verticals:
        lo_r, hi_r = min(vr0, vr1), max(vr0, vr1)
        for (hc0, hr), (hc1, _), hdir in horizontals:
            lo_c, hi_c = min(hc0, hc1), max(hc0, hc1)
            if lo_c < vc < hi_c and lo_r < hr < hi_r:
                dv = 1 if vdir == N else -1
                dh = 1 if hdir == E else -1
                crossings.append(((vc, hr), _CROSSING_SIGN * dv * dh))

    return FrontDiagram(tuple(segments), tuple(crossings), tuple(cusps))


def classical_invariants(G):
    """tb, r (and the derived self-linking numbers) from the front."""
    front = front_projection(G)
    up, down = front.cusp_counts()
    # Closed fronts alternate left/right cusps, so the count is even.
    if (up + down) % 2:
        raise DivisionInexact(f"front has an odd number of cusps ({up + down})")
    tb = front.writhe - (up + down) // 2
    r = (down - up) // 2
    return ClassicalInvariants(tb=tb, r=r)
