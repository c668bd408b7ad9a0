"""Exception hierarchy for gridhfk.

Every error raised on purpose by the library derives from GridError, so
callers (and the CLI) can distinguish validation problems from bugs.
"""


class GridError(Exception):
    """Base class for all gridhfk errors."""


class SizeMismatch(GridError):
    """Marker row count does not match the declared grid size."""


class NotPermutation(GridError):
    """A marker set, or a state handed in as a generator, repeats or skips
    a row index."""


class MarkerCollision(GridError):
    """An X and an O occupy the same cell."""


class MultiComponent(GridError):
    """The grid encodes a link with more than one component."""


class IllegalCommutation(GridError):
    """The two marker spans interleave, so the rows/columns cannot commute."""


class NoSuchPattern(GridError):
    """The requested (de)stabilization pattern is not present at the target cell."""


class OutOfRange(GridError):
    """A row/column index falls outside 1..n, a differential flavor is not
    one of "tilde" and "minus0", or a grid is too large for the int8 state
    arrays (n > 127), refused before its grading tables are built."""


class CornerConditionUnmet(GridError):
    """No grid with an X in the upper-right and an O in the lower-left corner
    within the corner search's bounds."""


class DimensionMismatch(GridError):
    """Linear algebra operands have incompatible shapes, or boundary blocks
    were asked for with a generator among the targets of two pairs."""


class PreimageMismatch(GridError):
    """A solve's preimage z fails the product check A z = b; raised by every
    "Vanishes" verdict's reduction (``ColumnSpan.preimage``) and by
    ``f2_solve``, and signals a reduction bug."""


class BudgetExceeded(GridError):
    """A generator slice would exceed the configured generator budget."""


class DivisionInexact(GridError):
    """An exact polynomial division left a remainder; signals a grading bug."""


class AsymmetricResult(GridError):
    """The Alexander polynomial came out asymmetric, or with Delta(1) other
    than +-1; signals a grading bug."""


class EulerMismatch(GridError):
    """The hat table's graded Euler characteristic is not the Alexander
    polynomial; signals a rank or grading bug."""


class NotACycle(GridError):
    """class_vanishes was handed a chain whose differential is nonzero."""


class SlMismatch(GridError):
    """The two pipeline inputs have different self-linking numbers."""


class ConfigError(GridError):
    """An environment variable holds a value the library cannot use."""
