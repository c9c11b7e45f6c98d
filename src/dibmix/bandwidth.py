"""Clustering-oriented bandwidth selection.

Rather than optimizing density-estimation accuracy (cross-validation), the
bandwidths are chosen to balance how much each variable type moves the
conditional density p(y | x): the categorical lambdas are scaled so that the
mean variance of pairwise categorical kernel values matches the mean variance
of pairwise continuous kernel values, optionally reweighted by the user.
A Silverman-type n^(-1/(4+p)) rate supplies the continuous default.

The balance is solved in closed form: on the lambdas' shared scale alpha,
match and mismatch kernel values differ by exactly 1 - alpha, so the mean
categorical variance is (1 - alpha)^2 times its alpha = 0 value.

The continuous variance is taken over all n^2 pairs in one pass over row
blocks, as in the density (``kernels``), but without keeping any n x n array:
values are measured from the diagonal value, so the constant 1/sqrt(2 pi)
enters only as a final factor, and block moments are merged pairwise.
"""

import warnings

import numpy as np

from .dataset import MixedDataset
from .errors import SchemaError
from .kernels import Bandwidths, _block_rows, _scaled_continuous, aitchison_aitken
from .lockstep import check_range

DEFAULT_S_MULTIPLIER = 3.0

_FALLBACK_LAMBDA_OFFSET = 0.2


def default_s(ds: MixedDataset, multiplier: float = DEFAULT_S_MULTIPLIER) -> float:
    """Default continuous bandwidth: multiplier * n^(-1/(4 + p_cont)).

    Assumes standardized continuous columns.  The rate follows the usual
    bias-variance scaling; the multiplier (default 3.0) deliberately
    oversmooths relative to density-estimation optima so that p(y | x)
    spreads across points instead of collapsing onto each observation.
    """
    if ds.p_cont < 1:
        raise SchemaError("default_s needs at least one continuous variable")
    if ds.n < 2:
        raise SchemaError("default_s needs at least 2 observations")
    check_range("s multiplier", multiplier)
    return float(multiplier * ds.n ** (-1.0 / (4 + ds.p_cont)))


def _merge_moments(a, b):
    """Chan et al.'s pairwise update: (count, mean, M2) of two disjoint
    samples merged into those of their union."""
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    count = count_a + count_b
    delta = mean_b - mean_a
    return (
        count,
        mean_a + delta * (count_b / count),
        m2_a + m2_b + delta * delta * (count_a * count_b / count),
    )


def kernel_factor_variance_continuous(ds: MixedDataset, s) -> float:
    """Mean over continuous variables of the variance of pairwise Gaussian
    kernel values, all n^2 ordered pairs (diagonal included).

    No n x n array is built.  A pair's value is taken relative to the
    diagonal value 1/sqrt(2 pi), as expm1(-d^2 / (2 s^2)) / sqrt(2 pi): the
    variance is the same, and a near-constant kernel (large s) keeps its
    small spread instead of losing it to rounding next to 1/sqrt(2 pi).  The
    values are symmetric, so each block of rows is computed from its
    diagonal block rightwards only, once per unordered pair: the diagonal
    block weighs 1 and the part right of it 2, for its mirror image.  Block
    means and sums of squared deviations are merged with Chan et al.'s
    pairwise update, so a constant column gives exactly 0.
    """
    if ds.p_cont < 1:
        raise SchemaError("no continuous variables")
    s = Bandwidths(s=s).s
    n = ds.n
    cols = _scaled_continuous(ds, s)
    rows = _block_rows(n)
    tmp = np.empty(min(n, rows) * n)
    variances = np.empty(ds.p_cont)
    # A square of inf is the right limit: expm1(-inf) = -1, an exact zero.
    with np.errstate(over="ignore"):
        for c, col in enumerate(cols):
            total = (0.0, 0.0, 0.0)
            for lo in range(0, n, rows):
                hi = min(n, lo + rows)
                block = tmp[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
                np.subtract(col[lo:hi, None], col[lo:], out=block)
                np.square(block, out=block)
                np.negative(block, out=block)
                np.expm1(block, out=block)
                diag, right = block[:, : hi - lo], block[:, hi - lo :]
                count = diag.size + 2.0 * right.size
                mean = (diag.sum() + 2.0 * right.sum()) / count
                block -= mean
                m2 = np.einsum("ij,ij->", diag, diag) + 2.0 * np.einsum("ij,ij->", right, right)
                total = _merge_moments(total, (count, mean, m2))
            variances[c] = total[2] / total[0]
    return float(variances.mean() / (2.0 * np.pi))  # the 1/sqrt(2 pi) factor, squared


def kernel_factor_variance_categorical(ds: MixedDataset, lam) -> float:
    """Mean over categorical variables of the variance of pairwise
    Aitchison-Aitken kernel values (same pair convention as the continuous
    counterpart).  A variable whose n^2 ordered pairs agree with fraction m
    takes the match value a on m of them and the mismatch value b on the
    rest, so its variance is m (1 - m) (a - b)^2."""
    if ds.p_cat < 1:
        raise SchemaError("no categorical variables")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape != (ds.p_cat,):
        raise SchemaError(f"lambda vector must have length {ds.p_cat}")
    variances = np.empty(ds.p_cat)
    for d, var in enumerate(ds.categorical_vars):
        counts = np.bincount(ds.categorical[:, d], minlength=var.n_levels)
        m = (counts.astype(float) ** 2).sum() / ds.n**2
        a = aitchison_aitken(True, lam[d], var.n_levels)
        b = aitchison_aitken(False, lam[d], var.n_levels)
        variances[d] = m * (1 - m) * (a - b) ** 2
    return float(variances.mean())


def _max_lambda(ds: MixedDataset) -> np.ndarray:
    """Per categorical variable, the largest lambda: (levels - 1) / levels."""
    return np.array([(l - 1) / l for l in ds.n_levels])


def offset_lambda(ds: MixedDataset, offset: float) -> np.ndarray:
    """Categorical bandwidths a fixed offset below their maximum:
    lambda_j = clip((levels_j - 1)/levels_j - offset, 0, (levels_j - 1)/levels_j)."""
    upper = _max_lambda(ds)
    return np.clip(upper - offset, 0.0, upper)


def select_lambda(ds: MixedDataset, s, categorical_weight: float = 1.0) -> np.ndarray:
    """Pick the categorical bandwidth vector by variance matching.

    All lambdas share one scale alpha in [0, 1] via
    lambda_j = alpha * (levels_j - 1) / levels_j, and the mean pairwise
    categorical kernel variance is then (1 - alpha)^2 * V_cat(0).  Setting it
    equal to ``categorical_weight`` x the continuous one, target, gives
    alpha = 1 - sqrt(target / V_cat(0)) in closed form; a zero target gives
    the constant kernel, alpha = 1.  The formula's domain has two edges: all
    categorical columns constant (V_cat(0) = 0, every lambda balances) returns
    mid-range lambdas with a warning, and a target above V_cat(0) clamps alpha
    to 0 with a warning.

    With no continuous variables the matching target is undefined and the
    fallback ``offset_lambda(ds, 0.2)`` is returned.
    """
    if ds.p_cat < 1:
        raise SchemaError("select_lambda needs at least one categorical variable")
    check_range("categorical weight", categorical_weight)
    if ds.p_cont == 0:
        return offset_lambda(ds, _FALLBACK_LAMBDA_OFFSET)
    upper = _max_lambda(ds)
    max_var = kernel_factor_variance_categorical(ds, np.zeros(ds.p_cat))
    if max_var == 0.0:
        warnings.warn(
            "all categorical columns are constant; kernel variance is zero for "
            "every lambda, returning mid-range values",
            stacklevel=2,
        )
        return 0.5 * upper

    target = categorical_weight * kernel_factor_variance_continuous(ds, s)
    if target > max_var:
        warnings.warn(
            f"balance target {target:.3e} exceeds the maximum categorical kernel "
            f"variance {max_var:.3e}; clamping lambda to 0",
            stacklevel=2,
        )
        return np.zeros(ds.p_cat)
    return (1.0 - np.sqrt(target / max_var)) * upper


def choose_bandwidths(
    ds: MixedDataset,
    s=None,
    lam=None,
    *,
    s_multiplier: float = DEFAULT_S_MULTIPLIER,
    lambda_offset=None,
    categorical_weight: float = 1.0,
) -> Bandwidths:
    """Resolve the bandwidth settings into bandwidths checked for ``ds``.

    ``s`` pins the continuous bandwidth; when it is None, s = ``s_multiplier``
    * n^(-1/(4+p_cont)).  Without continuous variables s is 1.0 (unused).
    ``lam`` pins lambda, one value for every categorical variable or one
    each; else ``lambda_offset`` gives ``offset_lambda``; else ``select_lambda``
    balances the categorical kernel variance against ``categorical_weight``
    times the continuous one (1 = equal influence).
    """
    settings = {"categorical weight": categorical_weight, "s": s, "s multiplier": s_multiplier}
    for name, value in settings.items():
        if value is not None:
            check_range(name, value)
    if lam is not None:
        if lambda_offset is not None:
            raise ValueError("lambda and lambda offset exclude each other")
        lam = np.asarray(lam, dtype=float).reshape(-1)
        if lam.size == 1:
            lam = np.full(ds.p_cat, lam[0])
        elif lam.size != ds.p_cat:
            raise ValueError(f"lambda needs 1 or {ds.p_cat} values, got {lam.size}")
    if ds.p_cont < 1:
        s = 1.0
    elif s is None:
        s = default_s(ds, s_multiplier)
    if lam is None and lambda_offset is not None:
        lam = offset_lambda(ds, lambda_offset)
    elif lam is None and ds.p_cat >= 1:
        lam = select_lambda(ds, s, categorical_weight)
    bw = Bandwidths(s=s, lam=() if lam is None else lam)
    bw.validate_for(ds)
    return bw
