"""Synthetic mixed-type two-cluster generator with calibrated overlap.

Continuous variables follow a two-component normal mixture with unit
variances; the mean gap is chosen so the overlap area of the two densities,
2*Phi(-delta/2), equals the requested level.  Categorical variables follow a
two-component multinomial mixture whose point masses are constructed so the
summed minimum of the two mass vectors equals the requested level exactly.
The cluster count is fixed at two.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

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


def continuous_separation(overlap: float) -> float:
    """Mean gap delta such that two unit-variance normals delta apart share
    overlap area 2*Phi(-delta/2); inverts to delta = -2*Phi^{-1}(overlap/2)."""
    if not 0 < overlap < 1:
        raise ValueError(f"overlap must lie strictly between 0 and 1, got {overlap}")
    return float(-2.0 * ndtri(overlap / 2.0))


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
