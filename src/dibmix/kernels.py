"""Product-kernel density estimation for mixed variables.

The conditional density p(y | x) over the observed points is estimated with
a generalized product kernel: a Gaussian factor per continuous variable and
an Aitchison-Aitken factor per unordered categorical variable.  Rows are
normalized to probability vectors, so the usual 1/(n s) prefactor of the
raw density estimate cancels and is not represented.

The n x n pass works in log space, one block of rows at a time.  Each block
holds log K(i, j) - log K(i, i): minus the scaled squared distance summed
over continuous variables, plus log(mismatch / match) for every categorical
variable on which i and j differ (-inf when lambda = 0, so those entries
come out as exact zeros).  "Up to a constant" means exactly this shift: the
self term K(i, i) is the same for every i (the product of 1/sqrt(2 pi) and
the match values), it is the row maximum up to rounding, and it cancels when rows are
normalized, so p(y | x) never needs it and rows cannot underflow to zero.
A block of temporaries is a small fraction of the n x n output.  The DIB
reads one fact per density besides p itself, whether p has exact zeros, and
a scan by blocks of the same size finds it, so p(y | x) is the only
full-size array.

References
----------
Aitchison, J. and Aitken, C.G.G. (1976). Multivariate binary discrimination
    by the kernel method. Biometrika 63.
Li, Q. and Racine, J. (2003). Nonparametric estimation of distributions
    with categorical and continuous data. J. Multivariate Analysis 86.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import MixedDataset
from .errors import DibmixError, SchemaError, SizeCapError
from .lockstep import check_range

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Cap on n for the n x n density (800 MB).  Up to it OpenBLAS runs each ddot
# of the DIB score step on one thread, so no output depends on BLAS threads.
DEFAULT_MAX_N = 10_000

# Elements per block of the n x n pass: a block and its one temporary
# (2 x 256 KiB) stay in a core's L2 cache while every variable's term is
# added in.  At n = 4000 with 12 variables, blocks of 256 rows (8 MiB) took
# about twice as long on a 2-core Xeon host.
_BLOCK_ELEMS = 1 << 15


def _block_rows(n: int) -> int:
    """Rows per block for an n-column pass (n >= 1)."""
    return max(1, _BLOCK_ELEMS // n)


def gaussian_kernel(diff, s):
    """Gaussian kernel value exp(-diff^2 / (2 s^2)) / sqrt(2 pi).

    ``diff`` may be an array; ``s`` must be positive.  This is s times the
    N(0, s^2) density at ``diff``; the leftover 1/s belongs to the overall
    estimator prefactor, which cancels under row normalization.
    """
    s = np.asarray(check_range("s", s), dtype=float)
    d = np.asarray(diff, dtype=float)
    out = np.exp(-(d * d) / (2.0 * s * s)) / _SQRT_2PI
    return out if out.ndim else float(out)


def aitchison_aitken(match, lam, levels):
    """Aitchison-Aitken kernel: 1 - lam on a level match, lam/(levels-1) off it.

    Admissible range is 0 <= lam <= (levels-1)/levels; lam = 0 recovers the
    binary indicator.  ``match`` is one bool.  The match value is computed as
    1 - (levels-1) * (lam / (levels-1)) so that the kernel mass over all
    levels is exactly 1 in floating point (at most one ulp from 1 - lam).
    """
    levels = int(levels)
    if levels < 2:
        raise ValueError("categorical variable must have at least 2 levels")
    lam = float(lam)
    if not 0.0 <= lam <= (levels - 1) / levels:
        raise ValueError(
            f"lambda={lam!r} outside admissible range [0, {(levels - 1) / levels!r}] "
            f"for {levels} levels"
        )
    mismatch = lam / (levels - 1)
    match_value = 1.0 - (levels - 1) * mismatch
    return match_value if match else mismatch


@dataclass(frozen=True)
class Bandwidths:
    """Smoothing parameters: continuous ``s`` and categorical ``lam``.

    ``s`` is one positive, finite float shared by all continuous variables,
    which are standardized first; a non-scalar ``s`` is a ValueError.
    ``lam`` holds one value per categorical variable, each within
    [0, (levels-1)/levels] for that variable's level count.
    """

    s: float = 1.0
    lam: np.ndarray = ()

    def __post_init__(self):
        if np.ndim(self.s):
            raise ValueError("continuous bandwidth s must be one positive, finite float")
        check_range("s", float(self.s))
        lam = np.asarray(self.lam, dtype=float).reshape(-1)
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("categorical bandwidths must be finite and nonnegative")
        lam.flags.writeable = False
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "lam", lam)

    def validate_for(self, ds: MixedDataset) -> None:
        if self.lam.shape != (ds.p_cat,):
            raise SchemaError(
                f"lambda vector has length {self.lam.shape[0]}, expected {ds.p_cat}"
            )
        for lam_j, var in zip(self.lam, ds.categorical_vars):
            hi = (var.n_levels - 1) / var.n_levels
            if not 0.0 <= lam_j <= hi:
                raise ValueError(
                    f"lambda={lam_j!r} outside [0, {hi!r}] for variable {var.name!r}"
                )


@dataclass(frozen=True)
class ConditionalDensity:
    """Row-stochastic n x n matrix p(y | x) plus the marginal p(y).

    Row i conditions on observation i; column j is the density at the
    location of observation j (the support of Y is the observed points).
    """

    matrix: np.ndarray
    marginal_y: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        py = np.ascontiguousarray(np.asarray(self.marginal_y, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if py.shape != (m.shape[0],):
            raise ValueError("marginal length must match matrix dimension")
        m.flags.writeable = False
        py.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "marginal_y", py)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def has_zeros(self) -> bool:
        """Whether some p(y|x) is exactly zero, which makes KL terms
        infinite.  Scanned once per density, a block of ``_block_rows`` rows
        at a time, so no n x n temporary is made."""
        rows = _block_rows(self.n)
        return any(bool((self.matrix[lo:lo + rows] == 0).any()) for lo in range(0, self.n, rows))


def _scaled_continuous(ds: MixedDataset, s: float) -> np.ndarray:
    """The continuous columns divided by s·√2, one contiguous row per
    variable: the distances of every Gaussian factor are differences of
    these.  An ``s`` so small that a scaled value overflows is a DibmixError."""
    with np.errstate(over="ignore"):
        cols = np.ascontiguousarray((ds.continuous / (s * np.sqrt(2.0))).T)
    if not np.isfinite(cols).all():
        raise DibmixError(f"continuous bandwidth s={s!r} is too small for the data: "
                          "a continuous value divided by s overflows")
    return cols


def _log_kernel_blocks(ds: MixedDataset, bw: Bandwidths, out: np.ndarray):
    """Fill the n x n array ``out`` with log K(i, j) - log K(i, i), one block
    of rows at a time, yielding each block (a view into ``out``) as soon as it
    is filled so the caller can finish it while it is still in cache.

    The diagonal is exactly 0: its distances are 0 and it never mismatches.
    ``bw`` must already be validated for ``ds``.
    """
    n = ds.n
    cont = _scaled_continuous(ds, bw.s)
    # Per categorical variable, row l holds the log term of every j against
    # level l: 0 where j has level l, log(mismatch / match) elsewhere.
    tables = []
    with np.errstate(divide="ignore"):  # lambda = 0: log 0 = -inf, an exact zero
        for col, lam, var in zip(ds.categorical.T, bw.lam, ds.categorical_vars):
            log_ratio = np.log(aitchison_aitken(False, lam, var.n_levels)
                               / aitchison_aitken(True, lam, var.n_levels))
            levels = np.arange(var.n_levels)[:, None]
            tables.append((col, np.where(levels == col, 0.0, log_ratio)))
    rows = _block_rows(n)
    tmp = np.empty((min(n, rows), n))
    for lo in range(0, n, rows):
        block = out[lo:lo + rows]
        term = tmp[:block.shape[0]]
        block.fill(0.0)
        with np.errstate(over="ignore"):  # a square of inf gives log K = -inf, an exact zero
            for col in cont:
                np.subtract(col[lo:lo + rows, None], col, out=term)
                np.square(term, out=term)
                block -= term
        for col, table in tables:
            np.take(table, col[lo:lo + rows], axis=0, out=term)
            block += term
        yield block


def estimate_conditional(ds: MixedDataset, bw: Bandwidths) -> ConditionalDensity:
    """Estimate p(y | x) over the observed points.

    Row i is the vector of product-kernel values against every observation
    (self term included) normalized to sum 1; the marginal p(y) is the
    weight-averaged mixture of the rows.  Each block of rows is exponentiated
    in place from log K(i, j) - log K(i, i) and normalized, so every row
    holds its diagonal 1 before normalization and never sums to zero.

    The result takes O(n^2) memory, so n may not exceed ``DEFAULT_MAX_N``
    (10,000).
    """
    if ds.n > DEFAULT_MAX_N:
        raise SizeCapError(
            f"n={ds.n} exceeds the density matrix cap ({DEFAULT_MAX_N}); "
            "subsample the rows (--subsample in the CLI)"
        )
    bw.validate_for(ds)
    matrix = np.empty((ds.n, ds.n))
    for block in _log_kernel_blocks(ds, bw, matrix):
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
    marginal = ds.weights @ matrix
    return ConditionalDensity(matrix=matrix, marginal_y=marginal)
