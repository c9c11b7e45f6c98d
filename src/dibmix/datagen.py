"""Synthetic mixed-type two-cluster generator with calibrated overlap.

Continuous variables follow a two-component normal mixture with unit
variances; the mean gap is chosen so the overlap area of the two densities,
2*Phi(-delta/2), equals the requested level.  Categorical variables follow a
two-component multinomial mixture whose point masses are constructed so the
summed minimum of the two mass vectors equals the requested level exactly.
The cluster count is fixed at two.

Phi^{-1} is ``_ndtri``, an exact port of the Cephes ``ndtri`` that SciPy
ships as ``scipy.special.ndtri``: it returns the same bits without importing
``scipy.special``.  dibmix imports no SciPy subpackage (see ``dib._refresh``).
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dataset import CATEGORICAL, CONTINUOUS, MixedDataset, VariableSchema
from .lockstep import check_range

BALANCE_EQUAL = "equal"
BALANCE_IMBALANCED = "imbalanced-3:1"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic dataset (two clusters, mixed types)."""

    n: int
    p_c: int
    p_d: int
    levels: tuple
    overlap_cont: float
    overlap_cat: float
    balance: str = BALANCE_EQUAL
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.p_c < 0 or self.p_d < 0 or self.p_c + self.p_d == 0:
            raise ValueError("need nonnegative variable counts with at least one variable")
        for name in ("n", "p_c", "p_d"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        levels = self.levels
        if np.ndim(levels) == 0:
            levels = (levels,) * self.p_d
        if not all(isinstance(l, numbers.Integral) for l in levels):
            raise ValueError(f"levels must be integers, got {self.levels!r}")
        levels = tuple(int(l) for l in levels)
        if len(levels) != self.p_d:
            raise ValueError(f"levels has {len(levels)} entries for {self.p_d} variables")
        if any(l < 2 for l in levels):
            raise ValueError("every categorical variable needs at least 2 levels")
        object.__setattr__(self, "levels", levels)
        for name, value in (("overlap_cont", self.overlap_cont), ("overlap_cat", self.overlap_cat)):
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
        if self.balance not in (BALANCE_EQUAL, BALANCE_IMBALANCED):
            raise ValueError(f"balance must be {BALANCE_EQUAL!r} or {BALANCE_IMBALANCED!r}")
        check_range("seed", self.seed)

    def cluster_sizes(self) -> tuple:
        if self.balance == BALANCE_EQUAL:
            n1 = self.n // 2
        else:
            n1 = self.n // 4
        return n1, self.n - n1


@dataclass(frozen=True)
class LabeledDataset:
    """A generated dataset together with its planted partition and the
    realized mixture parameters (for sidecar records)."""

    data: MixedDataset
    truth: np.ndarray
    delta: float
    cat_masses: tuple = field(default=(), repr=False)

    def __post_init__(self):
        truth = np.ascontiguousarray(np.asarray(self.truth, dtype=np.int64))
        if truth.shape[0] != self.data.n:
            raise ValueError("truth length must match the dataset")
        truth.flags.writeable = False
        object.__setattr__(self, "truth", truth)


# Cephes ndtri (Stephen L. Moshier, as shipped in SciPy, BSD-3-Clause):
# sqrt(2 pi), exp(-2), and the coefficients of its three rational
# approximations, highest power first; a Q's leading 1 is left out.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coefs, monic=False):
    """Cephes ``polevl`` (or ``p1evl`` when ``monic``, with a leading 1 not
    stored): the polynomial at x, highest power first, by Horner's rule."""
    value = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _ndtri(y: float) -> float:
    """Phi^{-1}(y) for 0 < y < 1, bit for bit as Cephes ``ndtri`` computes it
    (Copyright 1984-2000 Stephen L. Moshier; scipy.special, BSD-3-Clause):
    a rational function of y - 1/2 in the centre, else of 1/sqrt(-2 log y)
    on the tail nearer y, reflected for y > 1 - exp(-2)."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0, True))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q, True)
    return x if upper else -x


def continuous_separation(overlap: float) -> float:
    """Mean gap delta such that two unit-variance normals delta apart share
    overlap area 2*Phi(-delta/2); inverts to delta = -2*Phi^{-1}(overlap/2)."""
    if not 0 < overlap < 1:
        raise ValueError(f"overlap must lie strictly between 0 and 1, got {overlap}")
    return float(-2.0 * _ndtri(overlap / 2.0))


def categorical_masses(overlap: float, levels: int) -> tuple:
    """Two probability vectors over ``levels`` levels whose summed
    elementwise minimum equals ``overlap``.

    Construction: mass 1-overlap concentrated on the first level for cluster
    one and on the second level for cluster two, the remaining mass spread
    uniformly over all levels identically in both clusters.
    """
    if levels < 2:
        raise ValueError("levels must be at least 2")
    if not 0 < overlap < 1:
        raise ValueError(f"overlap must lie strictly between 0 and 1, got {overlap}")
    base = np.full(levels, overlap / levels)
    pi1 = base.copy()
    pi1[0] += 1.0 - overlap
    pi2 = base.copy()
    pi2[1] += 1.0 - overlap
    return pi1, pi2


def _level_names(levels: int) -> tuple:
    width = len(str(levels))
    return tuple(f"l{v + 1:0{width}d}" for v in range(levels))


def generate(spec: GenSpec) -> LabeledDataset:
    """Draw one dataset: block truth labels sized per the balance setting,
    continuous columns N(0,1) vs N(delta,1), categorical columns multinomial
    with the constructed per-cluster masses."""
    rng = np.random.default_rng(spec.seed)
    n1, n2 = spec.cluster_sizes()
    truth = np.repeat([0, 1], [n1, n2])

    delta = continuous_separation(spec.overlap_cont)
    shift = np.where(truth == 1, delta, 0.0)
    continuous = rng.standard_normal((spec.n, spec.p_c)) + shift[:, None]

    categorical = np.zeros((spec.n, spec.p_d), dtype=np.int64)
    masses = []
    for j, n_levels in enumerate(spec.levels):
        pi1, pi2 = categorical_masses(spec.overlap_cat, n_levels)
        masses.append((pi1, pi2))
        draws1 = rng.choice(n_levels, size=n1, p=pi1)
        draws2 = rng.choice(n_levels, size=n2, p=pi2)
        categorical[:, j] = np.concatenate([draws1, draws2])

    schema = tuple(
        [VariableSchema(name=f"x{j + 1}", kind=CONTINUOUS) for j in range(spec.p_c)]
        + [
            VariableSchema(name=f"c{j + 1}", kind=CATEGORICAL, levels=_level_names(l))
            for j, l in enumerate(spec.levels)
        ]
    )
    data = MixedDataset(schema=schema, continuous=continuous, categorical=categorical)
    return LabeledDataset(data=data, truth=truth, delta=delta, cat_masses=tuple(masses))
