"""Comparison methods: PAM on Gower dissimilarity, and K-Prototypes.

Gower, J.C. (1971). A general coefficient of similarity and some of its
properties. Biometrics 27, 857-871.
Kaufman, L. and Rousseeuw, P.J. (1990). Finding Groups in Data (PAM:
BUILD + SWAP).
Huang, Z. (1998). Extensions to the k-means algorithm for clustering large
data sets with categorical values. Data Mining and Knowledge Discovery 2.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import MixedDataset
from .errors import ZeroVarianceError
from .seeding import STREAM_RESTART, derive_seed

PAM_DEFAULT_RESTARTS = 1
KPROTO_DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class GowerMatrix:
    """Pairwise Gower dissimilarities plus the continuous ranges used."""

    matrix: np.ndarray
    ranges: np.ndarray

    def __post_init__(self):
        matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        ranges = np.ascontiguousarray(np.asarray(self.ranges, dtype=float))
        matrix.flags.writeable = False
        ranges.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "ranges", ranges)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def gower(ds: MixedDataset) -> GowerMatrix:
    """d(i,j) = mean over variables of range-scaled absolute difference
    (continuous) and simple mismatch (categorical); entries lie in [0,1]."""
    n = ds.n
    p = ds.p_cont + ds.p_cat
    total = np.zeros((n, n))
    ranges = np.zeros(ds.p_cont)
    for j in range(ds.p_cont):
        col = ds.continuous[:, j]
        rng = float(col.max() - col.min())
        if rng == 0.0:
            raise ZeroVarianceError(
                f"continuous variable {ds.continuous_vars[j].name!r} has zero range"
            )
        ranges[j] = rng
        total += np.abs(col[:, None] - col[None, :]) / rng
    for j in range(ds.p_cat):
        col = ds.categorical[:, j]
        total += (col[:, None] != col[None, :]).astype(float)
    return GowerMatrix(matrix=total / p, ranges=ranges)


def _nearest_two(d, medoids):
    """Distance to the nearest and second-nearest medoid, plus the nearest
    medoid's position in the ``medoids`` list."""
    sub = d[:, medoids]
    order = np.argsort(sub, axis=1, kind="stable")
    nearest_pos = order[:, 0]
    d1 = sub[np.arange(sub.shape[0]), nearest_pos]
    if len(medoids) > 1:
        d2 = sub[np.arange(sub.shape[0]), order[:, 1]]
    else:
        d2 = np.full(sub.shape[0], np.inf)
    return d1, d2, nearest_pos


def _pam_build(d, k):
    """Greedy BUILD: start from the point with the least row sum, then add
    whichever point most reduces the total nearest-medoid dissimilarity."""
    n = d.shape[0]
    medoids = [int(np.argmin(d.sum(axis=0)))]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[:, best])
    return medoids


def _pam_swap(d, medoids, max_iter):
    """Repeat the best strictly-improving (medoid, candidate) swap until
    none exists or max_iter passes run out."""
    n = d.shape[0]
    medoids = list(medoids)
    for _ in range(max_iter):
        d1, d2, nearest_pos = _nearest_two(d, medoids)
        current = float(d1.sum())
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        best_cost = current
        best_swap = None
        for pos in range(len(medoids)):
            in_cluster = nearest_pos == pos
            # Cost after swapping medoids[pos] for each candidate h, all h at
            # once: points of the removed medoid fall back to min(d2, d(:,h)),
            # everyone else to min(d1, d(:,h)).
            after = (
                np.minimum(d2[in_cluster, None], d[in_cluster]).sum(axis=0)
                + np.minimum(d1[~in_cluster, None], d[~in_cluster]).sum(axis=0)
            )
            after[is_medoid] = np.inf
            h = int(np.argmin(after))
            if after[h] < best_cost - 1e-12:
                best_cost = float(after[h])
                best_swap = (pos, h)
        if best_swap is None:
            break
        pos, h = best_swap
        medoids[pos] = h
    return medoids


def pam_fit(
    gm: GowerMatrix,
    k: int,
    restarts: int = PAM_DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
) -> np.ndarray:
    """PAM: restart 0 initializes with BUILD (deterministic); further
    restarts draw random initial medoid sets.  Best final total
    dissimilarity wins, ties to the lower restart index.  Each point is
    labelled by its nearest medoid (ties toward the medoid earliest in sorted
    order); labels index the sorted medoid list."""
    d = gm.matrix
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    best = None
    for r in range(restarts):
        if r == 0:
            medoids = _pam_build(d, k)
        else:
            rng = np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r))
            medoids = list(rng.choice(n, size=k, replace=False))
        medoids = _pam_swap(d, medoids, max_iter)
        d1, _, _ = _nearest_two(d, medoids)
        cost = float(d1.sum())
        if best is None or cost < best[0] - 1e-12:
            best = (cost, medoids)
    return np.argmin(d[:, sorted(best[1])], axis=1)


def _kproto_costs(ds, centers, modes, gamma):
    """cost[i, t] = squared Euclidean to center t + gamma * mismatch count."""
    n = ds.n
    k = centers.shape[0]
    cost = np.zeros((n, k))
    if ds.p_cont:
        diff = ds.continuous[:, None, :] - centers[None, :, :]
        cost += np.einsum("itj,itj->it", diff, diff)
    if ds.p_cat:
        cost += gamma * (ds.categorical[:, None, :] != modes[None, :, :]).sum(axis=2)
    return cost


def default_gamma(ds: MixedDataset) -> float:
    """Huang's heuristic: the average continuous sample variance (1.0 on
    standardized data, and by convention 1.0 when there is no continuous
    part)."""
    if ds.p_cont == 0:
        return 1.0
    return float(np.mean(np.var(ds.continuous, axis=0, ddof=1)))


def kprototypes_fit(
    ds: MixedDataset,
    k: int,
    gamma: float = None,
    restarts: int = KPROTO_DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
) -> np.ndarray:
    """Huang's alternating algorithm: assign to the cheapest prototype, then
    refresh prototypes with per-cluster means and modes.  Empty clusters are
    reseeded with the point currently farthest from its own prototype.  Best
    objective over restarts wins, ties to the lower restart index."""
    n = ds.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if gamma is None:
        gamma = default_gamma(ds)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r))
        labels, obj = _kproto_chain(ds, k, gamma, max_iter, rng)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, labels)
    return best[1]


def kprototypes_chain(
    ds: MixedDataset,
    k: int,
    gamma: float = None,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
):
    """Run a single K-Prototypes chain and return (labels, objective,
    per-iteration objective trace) — a diagnostics hook; the trace is
    non-increasing."""
    if gamma is None:
        gamma = default_gamma(ds)
    trace = []
    labels, obj = _kproto_chain(
        ds, k, gamma, max_iter, np.random.default_rng(rng_seed), trace=trace
    )
    return labels, obj, tuple(trace)


def _kproto_chain(ds, k, gamma, max_iter, rng, trace=None):
    n = ds.n
    start = rng.choice(n, size=k, replace=False)
    centers = ds.continuous[start].astype(float)
    modes = ds.categorical[start].copy()
    labels = None
    for _ in range(max_iter):
        cost = _kproto_costs(ds, centers, modes, gamma)
        new_labels = np.argmin(cost, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        point_cost = cost[np.arange(n), labels]
        for t in range(k):
            members = labels == t
            if not np.any(members):
                continue
            if ds.p_cont:
                centers[t] = ds.continuous[members].mean(axis=0)
            for j in range(ds.p_cat):
                counts = np.bincount(ds.categorical[members, j])
                modes[t, j] = int(np.argmax(counts))
        # Empty clusters: move their prototype onto the worst-fit point
        # (farthest from its own prototype).  Labels are untouched, so the
        # empty cluster still contributes nothing and the objective stays
        # non-increasing; the point captures the cluster next assignment.
        for t in range(k):
            if not np.any(labels == t):
                worst = int(np.argmax(point_cost))
                if ds.p_cont:
                    centers[t] = ds.continuous[worst]
                modes[t] = ds.categorical[worst]
                point_cost[worst] = -np.inf
        if trace is not None:
            step_cost = _kproto_costs(ds, centers, modes, gamma)
            trace.append(float(step_cost[np.arange(n), labels].sum()))
    cost = _kproto_costs(ds, centers, modes, gamma)
    final = cost[np.arange(n), labels]
    return labels, float(final.sum())
