"""Built-in certified grid corpus and loaders for user-supplied grids.

Every shipped entry is certified by internal oracles (Alexander polynomial
mod 2 and, for the searched grids, the full hat rank table) in the test
suite; nothing is trusted from outside the package.  Extra entries - e.g. a
transcribed 10_132 Legendrian pair - can be dropped into a directory of
.grid files and picked up via load_directory / GRIDHFK_CORPUS_DIR.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import GridError, OutOfRange
from .grid import GridDiagram, parse_grid


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    grid: GridDiagram
    provenance: str

    def __post_init__(self):
        if not self.provenance:
            raise OutOfRange("corpus entries must state their provenance")


def shift_grid(n, k):
    """Grid with O on the diagonal and X shifted up by k rows (mod n)."""
    if not 1 <= k < n:
        raise OutOfRange(f"shift k={k} must lie in 1..{n - 1}")
    return GridDiagram(
        n,
        tuple(range(1, n + 1)),
        tuple((i + k - 1) % n + 1 for i in range(1, n + 1)),
    )


_BUILTIN = (
    CorpusEntry(
        "unknot",
        GridDiagram(2, (1, 2), (2, 1)),
        "2x2 grid, O on the diagonal; lower-left corner cell holds an O",
    ),
    CorpusEntry(
        "unknot-corner-x",
        GridDiagram(2, (2, 1), (1, 2)),
        "2x2 grid, X on the diagonal; upper-right corner cell holds an X",
    ),
    CorpusEntry(
        "trefoil",
        shift_grid(5, 2),
        "shift family (n=5, k=2); certified by Alexander polynomial mod 2",
    ),
    CorpusEntry(
        "trefoil-corner-x",
        GridDiagram(5, (3, 4, 5, 1, 2), (1, 2, 3, 4, 5)),
        "5x5 trefoil with X on the diagonal, found by exhaustive search; "
        "certified by its hat rank table matching the shift-family trefoil",
    ),
    CorpusEntry(
        "cinquefoil",
        shift_grid(7, 2),
        "shift family (n=7, k=2); certified by Alexander polynomial mod 2",
    ),
    CorpusEntry(
        "figure-eight",
        GridDiagram(6, (3, 6, 1, 5, 4, 2), (1, 2, 4, 3, 6, 5)),
        "6x6 grid found by exhaustive search; certified by Alexander "
        "polynomial mod 2 and hat rank table (1,3,1) at A=(1,0,-1)",
    ),
)


def builtin_entries():
    return _BUILTIN


def get(name):
    """Look up a corpus entry by name: built-in first, so that only other
    names read the extra files."""
    for entry in _BUILTIN:
        if entry.name == name:
            return entry
    for entry in all_entries():
        if entry.name == name:
            return entry
    raise OutOfRange(f"no corpus entry named {name!r}")


def read_file(path):
    """UTF-8 text of ``path``; GridError if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GridError(f"cannot read {path}: {exc}") from exc


def load_directory(path):
    """CorpusEntry per *.grid file in ``path``, named after the file stem."""
    entries = []
    for file in sorted(Path(path).glob("*.grid")):
        grid = parse_grid(read_file(file))
        entries.append(CorpusEntry(file.stem, grid, f"loaded from {file}"))
    return entries


def all_entries():
    """Built-in corpus plus any grids found under $GRIDHFK_CORPUS_DIR."""
    entries = list(_BUILTIN)
    extra_dir = os.environ.get("GRIDHFK_CORPUS_DIR")
    if extra_dir and os.path.isdir(extra_dir):
        entries.extend(load_directory(extra_dir))
    return entries
