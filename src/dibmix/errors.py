"""Exception hierarchy shared across the package."""


class DibmixError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(DibmixError):
    """Variable schema is inconsistent with the data or with itself."""


class ParseError(DibmixError):
    """A CSV cell could not be parsed; carries row/column diagnostics.

    ``cells`` is a list of ``(line_number, column_name, reason)`` tuples,
    with line numbers counted from 1 including the header row.
    """

    def __init__(self, message, cells=()):
        super().__init__(message)
        self.cells = list(cells)


class ZeroVarianceError(DibmixError):
    """A continuous column is constant where nonzero variance is required."""


class DegenerateSmoothingError(DibmixError):
    """Smoothing parameters leave some observation with no admissible cluster:
    p(y|x) holds exact zeros, from a zero categorical bandwidth or from a
    continuous bandwidth s small enough that the Gaussian kernel underflows."""


class SizeCapError(DibmixError):
    """Dataset has more rows than the n x n density matrix may hold,
    ``kernels.DEFAULT_MAX_N``."""
