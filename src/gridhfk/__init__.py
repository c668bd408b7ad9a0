"""Combinatorial knot Floer homology from grid diagrams.

Grid diagrams, grid moves (including the corner-normalized connected sum),
the fully blocked grid complex over F2, and the Legendrian/transverse
invariant cycles with their vanishing verdicts.
"""

from .errors import (
    AsymmetricResult,
    BudgetExceeded,
    CornerConditionUnmet,
    DimensionMismatch,
    DivisionInexact,
    EulerMismatch,
    GridError,
    IllegalCommutation,
    MarkerCollision,
    MultiComponent,
    NoSuchPattern,
    NotACycle,
    NotPermutation,
    OutOfRange,
    SizeMismatch,
    SlMismatch,
)
from .grid import (
    GridDiagram,
    component_count,
    format_grid,
    parse_grid,
    render_grid,
    transpose_grid,
)
from .front import ClassicalInvariants, FrontDiagram, classical_invariants, front_projection
from .floer import Bigrading, bigrading, differential
from .linalg import SparseF2Matrix, f2_solve
from .homology import (
    HomologyReport,
    alexander_polynomial,
    class_vanishes,
    generators_with_alexander,
    tilde_homology,
)
from .moves import (
    GridMove,
    apply_move,
    apply_moves,
    classify_move,
    connect_sum,
    inverse_move,
    normalize_corners,
    parse_move_script,
    random_move_sequence,
)
from .invariants import (
    InvariantStatus,
    KunnethReport,
    kunneth_check,
    lambda_status,
    nonsimplicity_pipeline,
    tensor_table,
    theta_status,
    x_minus,
    x_plus,
)

__version__ = "0.1.0"
