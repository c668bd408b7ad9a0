"""Grid moves: cyclic permutation, commutation, the eight (de)stabilizations,
corner normalization and the grid-level connected sum.

Stabilization subdivides a marked cell into a 2x2 block.  The type ``X:NW``
starts from an X and puts the single new O in the NW square of the block,
with the two X's in the corners adjacent to it; the other seven types are
the evident reflections / marker swaps.  Which types preserve the
Legendrian (resp. transverse) knot is recorded in classify_move and pinned
down by the grading test batteries.

Every move is one function on (sigma_O, sigma_X) marker tuples:
``_cycled``, ``_commuted_rows``, ``_commuted_cols``, ``_stabilized`` and
``_destabilized``; the commutations and ``_destabilized`` return None
when the move does not apply.  ``apply_move`` is the one place that
validates a move: it range-checks it, raises the typed error, and wraps
the tuples in one GridDiagram.  The corner normalization search runs on
the tuples and builds and validates only the grid it returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    CornerConditionUnmet,
    IllegalCommutation,
    MultiComponent,
    NoSuchPattern,
    OutOfRange,
)
from .grid import GridDiagram, component_count

STAB_TYPES = ("X:NW", "X:SE", "X:NE", "X:SW", "O:NW", "O:SE", "O:NE", "O:SW")

LEGENDRIAN = "Legendrian"
TRANSVERSE_ONLY = "TransverseOnly"
POSITIVE_STAB = "PositiveStab"

_LEGENDRIAN_STABS = {"X:NW", "X:SE", "O:NW", "O:SE"}
_NEGATIVE_STABS = {"X:NE", "O:SW"}  # negative stabilization of the knot


@dataclass(frozen=True)
class GridMove:
    kind: str  # cycR | cycC | commR | commC | stab | destab
    arg: int = 0  # shift amount (cyc*) or lower row/left column (comm*)
    stab_type: str = ""
    col: int = 0
    row: int = 0

    def __str__(self):
        if self.kind in ("cycR", "cycC", "commR", "commC"):
            return f"{self.kind} {self.arg}"
        return f"{self.kind} {self.stab_type} {self.col} {self.row}"


def cyclic_rows(k):
    return GridMove("cycR", arg=k)


def cyclic_cols(k):
    return GridMove("cycC", arg=k)


def commute_rows(j):
    return GridMove("commR", arg=j)


def commute_cols(i):
    return GridMove("commC", arg=i)


def stabilize(stab_type, col, row):
    return GridMove("stab", stab_type=stab_type, col=col, row=row)


def destabilize(stab_type, col, row):
    return GridMove("destab", stab_type=stab_type, col=col, row=row)


def parse_move_script(text):
    """One move per line: ``cycR 1``, ``commC 3``, ``stab X:NW 2 4``, ..."""
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] in ("cycR", "cycC", "commR", "commC"):
                (kind, arg) = parts
                moves.append(GridMove(kind, arg=int(arg)))
            elif parts[0] in ("stab", "destab"):
                kind, stype, col, row = parts
                if stype not in STAB_TYPES:
                    raise ValueError(stype)
                moves.append(GridMove(kind, stab_type=stype, col=int(col), row=int(row)))
            else:
                raise ValueError(parts[0])
        except ValueError as exc:
            raise OutOfRange(f"move script line {lineno}: cannot parse {line!r}") from exc
    return moves


def classify_move(move):
    """Equivalence class preserved by the move.

    Cyclic permutation, commutation and NW/SE stabilizations preserve the
    Legendrian type; X:NE and O:SW only the transverse type (negative
    stabilization); X:SW and O:NE are positive stabilizations.
    """
    if move.kind in ("cycR", "cycC", "commR", "commC"):
        return LEGENDRIAN
    if move.stab_type in _LEGENDRIAN_STABS:
        return LEGENDRIAN
    if move.stab_type in _NEGATIVE_STABS:
        return TRANSVERSE_ONLY
    return POSITIVE_STAB


# -- elementary moves ----------------------------------------------------------


def _cycled(o, x, row_shift, col_shift):
    """Marker tuples with every row moved up by ``row_shift`` and every
    column right by ``col_shift``, cyclically."""
    n = len(o)
    k = -col_shift % n  # new column j + 1 is old column (j - col_shift) % n + 1
    return tuple(
        tuple((r - 1 + row_shift) % n + 1 for r in sigma[k:] + sigma[:k]) for sigma in (o, x)
    )


def _spans_commute(span_a, span_b):
    """Closed spans commute iff disjoint or strictly nested; shared endpoints
    and interleaving both obstruct the move."""
    a1, b1 = sorted(span_a)
    a2, b2 = sorted(span_b)
    if b1 < a2 or b2 < a1:
        return True
    if a1 < a2 and b2 < b1:
        return True
    if a2 < a1 and b1 < b2:
        return True
    return False


def _commuted_rows(o, x, j):
    """Marker tuples with rows j and j + 1 swapped, or None when the two
    rows' marker spans interleave."""
    if not _spans_commute((o.index(j), x.index(j)), (o.index(j + 1), x.index(j + 1))):
        return None
    swap = {j: j + 1, j + 1: j}
    return tuple(swap.get(r, r) for r in o), tuple(swap.get(r, r) for r in x)


def _commuted_cols(o, x, i):
    """Marker tuples with columns i and i + 1 swapped, or None when the two
    columns' marker spans interleave."""
    if not _spans_commute((o[i - 1], x[i - 1]), (o[i], x[i])):
        return None
    return (
        o[: i - 1] + (o[i], o[i - 1]) + o[i + 1 :],
        x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :],
    )


_CORNER_POS = {
    "NW": (0, 1),
    "NE": (1, 1),
    "SW": (0, 0),
    "SE": (1, 0),
}


def _stabilized(o, x, stab_type, c, r):
    """Marker tuples after the stabilization ``stab_type`` of the marker in
    cell (c, r), with (dx, dy) the new marker's corner of the block.

    Every marker in rows r + dy and up moves up by one, so the partner in
    row r moves only for the S types, and the block's two columns are
    spliced in at c: column c + dx takes the new marker and one copy of
    the old, the other column the second copy and column c's partner."""
    marker, direction = stab_type.split(":")
    dx, dy = _CORNER_POS[direction]
    p, q = (x, o) if marker == "X" else (o, x)
    p = [s + (s >= r + dy) for s in p]
    q = [s + (s >= r + dy) for s in q]
    step = -1 if dx else 1  # block columns in the order (c + dx, c + 1 - dx)
    p[c - 1 : c] = (r + 1 - dy, r + dy)[::step]
    q[c - 1 : c] = (r + dy, q[c - 1])[::step]
    return (tuple(q), tuple(p)) if marker == "X" else (tuple(p), tuple(q))


def _destabilized(o, x, stab_type, c, r):
    """Marker tuples before the stabilization ``stab_type`` that made the
    2x2 block with lower-left cell (c, r), or None when there is no such
    block.

    The block's column c + dx is dropped, the rows above r + dy move down
    by one and the marker goes back to (c, r).  The candidate counts only
    if its column c keeps no partner in that cell (a full block would
    otherwise pass) and stabilizing it gives back (o, x), so the block's
    geometry lives only in ``_stabilized``."""
    marker, direction = stab_type.split(":")
    dx, dy = _CORNER_POS[direction]
    drop = c + dx - 1
    o2, x2 = ([s - (s > r + dy) for s in sigma[:drop] + sigma[drop + 1 :]] for sigma in (o, x))
    p, q = (x2, o2) if marker == "X" else (o2, x2)
    if q[c - 1] == r:
        return None
    p[c - 1] = r
    candidate = (tuple(o2), tuple(x2))
    return candidate if _stabilized(*candidate, stab_type, c, r) == (o, x) else None


def apply_move(G, move):
    """Apply one grid move, returning a new validated grid.  This is the
    one place a move is checked: it is range-checked, and a move that does
    not apply raises its typed error."""
    n, o, x, kind = G.n, G.sigma_O, G.sigma_X, move.kind
    if kind in ("cycR", "cycC"):
        shifts = (move.arg, 0) if kind == "cycR" else (0, move.arg)
        return GridDiagram(n, *_cycled(o, x, *shifts))
    if kind in ("commR", "commC"):
        i, line = move.arg, "row" if kind == "commR" else "column"
        if not (1 <= i <= n - 1):
            raise OutOfRange(f"{line} {i} not in 1..{n - 1}")
        sigmas = (_commuted_rows if kind == "commR" else _commuted_cols)(o, x, i)
        if sigmas is None:
            raise IllegalCommutation(f"{line}s {i}, {i + 1} have interleaved marker spans")
        return GridDiagram(n, *sigmas)
    stab_type, c, r = move.stab_type, move.col, move.row
    if kind in ("stab", "destab") and stab_type not in STAB_TYPES:
        raise OutOfRange(f"unknown stabilization type {stab_type!r}")
    if kind == "stab":
        marker, _ = stab_type.split(":")
        if not (1 <= c <= n and 1 <= r <= n):
            raise OutOfRange(f"cell ({c}, {r}) outside the grid")
        if (x if marker == "X" else o)[c - 1] != r:
            raise NoSuchPattern(f"no {marker} at cell ({c}, {r})")
        return GridDiagram(n + 1, *_stabilized(o, x, stab_type, c, r))
    if kind == "destab":
        if not (1 <= c <= n - 1 and 1 <= r <= n - 1):
            raise OutOfRange(f"block corner ({c}, {r}) outside 1..{n - 1}")
        sigmas = _destabilized(o, x, stab_type, c, r)
        if sigmas is None:
            raise NoSuchPattern(f"no {stab_type} block at ({c}, {r})")
        return GridDiagram(n - 1, *sigmas)
    raise OutOfRange(f"unknown move kind {kind!r}")


def apply_moves(G, moves):
    for move in moves:
        G = apply_move(G, move)
    return G


def inverse_move(move, n_before):
    """The move undoing ``move`` on the grid it was applied to."""
    if move.kind == "cycR":
        return GridMove("cycR", arg=(-move.arg) % n_before)
    if move.kind == "cycC":
        return GridMove("cycC", arg=(-move.arg) % n_before)
    if move.kind in ("commR", "commC"):
        return move
    if move.kind == "stab":
        return GridMove("destab", stab_type=move.stab_type, col=move.col, row=move.row)
    if move.kind == "destab":
        return GridMove("stab", stab_type=move.stab_type, col=move.col, row=move.row)
    raise OutOfRange(f"unknown move kind {move.kind!r}")


# -- corner normalization and connected sum ------------------------------------


def has_corner_x(G):
    return G.sigma_X[G.n - 1] == G.n


def has_corner_o(G):
    return G.sigma_O[0] == 1


# Stabilization types that fix the transverse class: Legendrian isotopies
# plus the negative stabilizations.  Search order prefers the negative ones
# only after the isotopies.
_TRANSVERSE_SAFE_STABS = ("X:NW", "X:SE", "O:NW", "O:SE", "X:NE", "O:SW")


def _corner_pair(o, x):
    """Column of an X whose diagonal upper-right neighbour cell holds an O."""
    n = len(o)
    for c in range(1, n + 1):
        r = x[c - 1]
        if o[c % n] == r % n + 1:
            return c, r
    return None


def _corner_moves(o, x, grow):
    """Marker tuples reached by the transverse-class-preserving moves that
    the normalization search tries, in its order; the stabilizations only
    if ``grow``."""
    n = len(o)
    for c in range(1, n):
        for child in (_commuted_cols(o, x, c), _commuted_rows(o, x, c)):
            if child is not None:
                yield child
    if not grow:
        return
    for stype in _TRANSVERSE_SAFE_STABS:
        sigma = x if stype[0] == "X" else o
        for c in range(1, n + 1):
            yield _stabilized(o, x, stype, c, sigma[c - 1])


_MAX_MOVES, _MAX_EXTRA = 6, 3  # corner search bounds: moves, and growth of n


def normalize_corners(G):
    """Grid for the same transverse-class knot with an X in the upper-right
    and an O in the lower-left corner cell.

    Already-normalized grids are returned unchanged.  Otherwise a shortest
    sequence of commutations and Legendrian/negative stabilizations is found
    by breadth-first search and finished with a cyclic permutation, so the
    self-linking number, the bigrading of x+ and the transverse invariant
    class are all preserved.  The search takes at most ``_MAX_MOVES`` moves
    and grows the grid by at most ``_MAX_EXTRA``.
    The search runs on (sigma_O, sigma_X) marker tuples; only the grid it
    finds is built and validated as a GridDiagram.
    """
    if component_count(G) != 1:
        raise MultiComponent("corner normalization requires a knot")
    if has_corner_x(G) and has_corner_o(G):
        return G
    # Breadth-first, with the goal tested as each grid is generated: the
    # queue keeps generation order, so this finds the grid a test on
    # dequeue would, without expanding the rest of its level.
    limit = G.n + _MAX_EXTRA
    start = (G.sigma_O, G.sigma_X)
    seen = {start}
    queue = deque([(start, 0)])
    found = (start, _corner_pair(*start))
    while queue and found[1] is None:
        sigmas, depth = queue.popleft()
        if depth >= _MAX_MOVES:
            continue
        for child in _corner_moves(*sigmas, len(sigmas[0]) < limit):
            if len(child[0]) > limit or child in seen:
                continue
            seen.add(child)
            found = (child, _corner_pair(*child))
            if found[1] is not None:
                break
            queue.append((child, depth + 1))
    (o, x), pair = found
    if pair is None:
        raise CornerConditionUnmet(
            f"no corner normalization within {_MAX_MOVES} moves / +{_MAX_EXTRA} size"
        )
    n, (cx, rx) = len(o), pair
    out = GridDiagram(n, *_cycled(o, x, (n - rx) % n, (n - cx) % n))
    if not (has_corner_x(out) and has_corner_o(out)):
        raise CornerConditionUnmet("cyclic shift did not place both corner markers")
    return out


def connect_sum(G1, G2):
    """Patch G2 onto G1 at G1's corner X and G2's corner O.

    The patch needs an X in G1's upper-right corner cell and an O in G2's
    lower-left one; a summand that lacks its corner is replaced by
    ``normalize_corners`` of it first, which keeps its transverse class.
    The two corner markers are deleted; the result has size n1 + n2 - 1.
    Both summands must be knots.
    """
    if component_count(G1) != 1 or component_count(G2) != 1:
        raise MultiComponent("connected sum requires two single-component grids")
    if not has_corner_x(G1):
        G1 = normalize_corners(G1)
    if not has_corner_o(G2):
        G2 = normalize_corners(G2)
    # G2's rows go above G1's; the shared column n1 takes G1's O and the X
    # of G2's first column
    lift = G1.n - 1
    o = G1.sigma_O + tuple(r + lift for r in G2.sigma_O[1:])
    x = G1.sigma_X[:-1] + tuple(r + lift for r in G2.sigma_X)
    return GridDiagram(lift + G2.n, o, x)


# -- random move sequences (verification batteries) ----------------------------


def legal_destabilizations(G, types=STAB_TYPES):
    """All (stab_type, col, row) naming a block that ``_destabilized``
    undoes, by type, then column.  Column c + dx holds the block's marker
    in row r + 1 - dy, so each (type, column) has one candidate row."""
    found = []
    for stype in types:
        marker, direction = stype.split(":")
        dx, dy = _CORNER_POS[direction]
        sigma = G.sigma_X if marker == "X" else G.sigma_O
        for c in range(1, G.n):
            r = sigma[c + dx - 1] - (1 - dy)
            if 1 <= r <= G.n - 1 and _destabilized(G.sigma_O, G.sigma_X, stype, c, r) is not None:
                found.append((stype, c, r))
    return found


def random_move_sequence(G, length, rng):
    """Random legal move sequence drawn with ``rng`` from the Legendrian types.

    Cyclic moves and commutations are always candidates; stabilizations only
    while the grid is smaller than 8 x 8, destabilizations whenever a
    matching block exists.  Returns (moves, final_grid).
    """
    stab_types = sorted(_LEGENDRIAN_STABS)
    moves = []
    for _ in range(length):
        options = ["cycR", "cycC", "commR", "commC"]
        if G.n < 8:
            options += ["stab", "stab"]
        destabs = legal_destabilizations(G, stab_types) if G.n > 2 else []
        if destabs:
            options.append("destab")
        move = None
        while move is None:
            kind = rng.choice(options)
            if kind in ("cycR", "cycC"):
                move = GridMove(kind, arg=rng.randrange(1, G.n))
            elif kind in ("commR", "commC"):
                idx = rng.randrange(1, G.n)
                commuted = _commuted_rows if kind == "commR" else _commuted_cols
                if commuted(G.sigma_O, G.sigma_X, idx) is None:
                    options = [o for o in options if o not in ("commR", "commC")] or options
                    continue
                move = GridMove(kind, arg=idx)
            elif kind == "stab":
                stype = rng.choice(stab_types)
                marker = stype.split(":")[0]
                col = rng.randrange(1, G.n + 1)
                sigma = G.sigma_X if marker == "X" else G.sigma_O
                move = GridMove("stab", stab_type=stype, col=col, row=sigma[col - 1])
            else:
                stype, c, r = rng.choice(destabs)
                move = GridMove("destab", stab_type=stype, col=c, row=r)
        G = apply_move(G, move)
        moves.append(move)
    return moves, G
