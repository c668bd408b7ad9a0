"""Grid diagrams: validation, parsing, rendering and the underlying knot.

A grid diagram is an n-by-n array with exactly one X and one O in every row
and column.  Columns are numbered 1..n left to right and rows 1..n bottom to
top; ``sigma_O[i-1]`` is the row of the O marker in column i, likewise
``sigma_X``.  On the torus all line indices are taken mod n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MarkerCollision, NotPermutation, OutOfRange, SizeMismatch


@dataclass(frozen=True)
class GridDiagram:
    """Immutable grid diagram; safe to share and to use as a dict key."""

    n: int
    sigma_O: tuple  # sigma_O[i-1] = row of the O in column i (1-based rows)
    sigma_X: tuple

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise SizeMismatch(f"grid size must be >= 2, got {n}")
        for name, sigma in (("O", self.sigma_O), ("X", self.sigma_X)):
            if len(sigma) != n:
                raise SizeMismatch(f"{name} row has {len(sigma)} entries, expected {n}")
            if any(not (1 <= r <= n) for r in sigma):
                raise OutOfRange(f"{name} row index outside 1..{n}: {sigma}")
            if len(set(sigma)) != n:
                raise NotPermutation(f"duplicate row index in {name} markers: {sigma}")
        for i in range(n):
            if self.sigma_O[i] == self.sigma_X[i]:
                raise MarkerCollision(
                    f"column {i + 1}: X and O share cell ({i + 1}, {self.sigma_O[i]})"
                )

    # -- marker lookups ---------------------------------------------------

    def x_column_of_row(self, row):
        return self.sigma_X.index(row) + 1

    def cell(self, col, row):
        """Return 'O', 'X' or '.' for the cell at (col, row), both 1-based."""
        if not (1 <= col <= self.n and 1 <= row <= self.n):
            raise OutOfRange(f"cell ({col}, {row}) outside the {self.n}x{self.n} grid")
        if self.sigma_O[col - 1] == row:
            return "O"
        if self.sigma_X[col - 1] == row:
            return "X"
        return "."


def parse_grid(text):
    """Parse the external grid file format into a validated GridDiagram.

    The format is three lines ``n=<int>``, ``O=<c1,...,cn>``, ``X=<c1,...,cn>``
    where entry i is the row of the marker in column i.  Lines starting with
    ``#`` and blank lines are ignored.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SizeMismatch(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in fields:
            raise SizeMismatch(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    for key in ("n", "o", "x"):
        if key not in fields:
            raise SizeMismatch(f"missing {key.upper()}= line")
    try:
        n = int(fields["n"])
    except ValueError:
        raise SizeMismatch(f"bad grid size {fields['n']!r}")

    def parse_row(value, name):
        try:
            entries = tuple(int(tok) for tok in value.split(","))
        except ValueError:
            raise SizeMismatch(f"bad {name}= entries {value!r}")
        return entries

    return GridDiagram(n, parse_row(fields["o"], "O"), parse_row(fields["x"], "X"))


def format_grid(G):
    """Inverse of parse_grid (bit-exact round trip)."""
    return "n={}\nO={}\nX={}\n".format(
        G.n,
        ",".join(str(r) for r in G.sigma_O),
        ",".join(str(r) for r in G.sigma_X),
    )


def render_grid(G):
    """ASCII-art picture, top row first, characters in {., X, O}."""
    lines = []
    for row in range(G.n, 0, -1):
        lines.append("".join(G.cell(col, row) for col in range(1, G.n + 1)))
    return "\n".join(lines)


def component_count(G):
    """Number of link components = number of cycles of sigma_X^-1 o sigma_O.

    Rows connect O to X and columns connect X to O, so following the knot
    through column i lands in the column whose X sits in the row of O_i.
    """
    seen = [False] * G.n
    cycles = 0
    for start in range(G.n):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = G.sigma_X.index(G.sigma_O[i])
    return cycles
