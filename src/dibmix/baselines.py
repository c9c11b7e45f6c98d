"""Comparison methods: PAM on Gower dissimilarity, and K-Prototypes.

Gower, J.C. (1971). A general coefficient of similarity and some of its
properties. Biometrics 27, 857-871.
Kaufman, L. and Rousseeuw, P.J. (1990). Finding Groups in Data (PAM:
BUILD + SWAP).
Huang, Z. (1998). Extensions to the k-means algorithm for clustering large
data sets with categorical values. Data Mining and Knowledge Discovery 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MixedDataset
from .errors import ZeroVarianceError
from .seeding import STREAM_RESTART, derive_seed

PAM_DEFAULT_RESTARTS = 1
KPROTO_DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 100
# K-Prototypes chains per lock-step block are capped so that one cost
# evaluation's (chains, n, k, variables) temporaries hold about this many
# elements.
_KPROTO_BLOCK_ELEMS = 1 << 19


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


def _pam_build(d, k):
    """Greedy BUILD: start from the point with the least row sum, then add
    whichever point most reduces the total nearest-medoid dissimilarity."""
    medoids = [int(np.argmin(d.sum(axis=0)))]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[:, best])
    return medoids


def _pam_cost(d, medoids):
    """Total dissimilarity of every point to its nearest medoid."""
    return float(d[:, list(medoids)].min(axis=1).sum())


def _swap_costs(d, rest):
    """Total dissimilarity after adding each candidate h to the medoid set
    ``rest``: sum_i min(e_i, d(i,h)), with e_i the distance from i to its
    nearest medoid in ``rest`` (+inf when ``rest`` is empty)."""
    e = d[:, list(rest)].min(axis=1) if rest else np.full(d.shape[0], np.inf)
    return np.minimum(e[:, None], d).sum(axis=0)


def _swap_pass(d, medoids, costs):
    """One SWAP pass: the best strictly-improving (medoid, candidate) swap
    applied to the ordered medoid tuple, or None when no swap improves.

    Swapping ``medoids[pos]`` for h sends every point to the nearer of h and
    its nearest remaining medoid, so the cost of every candidate depends only
    on the set of remaining medoids.  ``costs`` caches that vector per sorted
    remaining-medoid tuple for one ``d``; it stores at most n vectors (the
    size of ``d``), and past that a vector is computed again when needed.
    """
    is_medoid = np.zeros(d.shape[0], dtype=bool)
    is_medoid[list(medoids)] = True
    best_cost, best_swap = _pam_cost(d, medoids), None
    for pos in range(len(medoids)):
        rest = tuple(sorted(medoids[:pos] + medoids[pos + 1:]))
        after = costs.get(rest)
        if after is None:
            after = _swap_costs(d, rest)
            after.flags.writeable = False
            if len(costs) < d.shape[0]:
                costs[rest] = after
        after = np.where(is_medoid, np.inf, after)
        h = int(np.argmin(after))
        if after[h] < best_cost - 1e-12:
            best_cost = float(after[h])
            best_swap = (pos, h)
    if best_swap is None:
        return None
    pos, h = best_swap
    return medoids[:pos] + (h,) + medoids[pos + 1:]


def _pam_swap(d, medoids, max_iter, memo=None, costs=None):
    """Repeat the best strictly-improving swap until none exists or max_iter
    passes run out.

    SWAP is a pure function of ``d``, the ordered medoid list and the pass
    budget.  ``memo`` maps each ordered list that an earlier call on the same
    ``d`` carried to convergence to (final list, swaps it took from there).
    A trajectory that reaches such a list with at least that many passes
    left ends where the earlier one ended, so it stops there.  A trajectory
    that runs out of budget records nothing.  ``costs`` is the candidate-cost
    cache of ``_swap_pass``, shared the same way.
    """
    memo = {} if memo is None else memo
    costs = {} if costs is None else costs
    state = tuple(int(m) for m in medoids)
    path = []
    while True:
        hit = memo.get(state)
        if hit is not None and hit[1] <= max_iter - len(path):
            final, swaps = hit
            break
        if len(path) >= max_iter:
            return list(state)
        after = _swap_pass(d, state, costs)
        if after is None:
            final, swaps = state, 0
            memo[state] = (final, swaps)
            break
        path.append(state)
        state = after
    for back, visited in enumerate(reversed(path), start=1):
        memo[visited] = (final, swaps + back)
    return list(final)


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
    order); labels index the sorted medoid list.

    The restarts share one SWAP memo (see ``_pam_swap``), so a restart that
    joins a trajectory an earlier restart carried to convergence stops
    there, and one candidate-cost cache (see ``_swap_pass``), so each
    remaining-medoid set's costs are summed once per fit.  The answer is
    exactly that of running every restart alone.
    """
    d = gm.matrix
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    memo, costs = {}, {}
    best = None
    for r in range(restarts):
        if r == 0:
            medoids = _pam_build(d, k)
        else:
            rng = np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r))
            medoids = list(rng.choice(n, size=k, replace=False))
        medoids = _pam_swap(d, medoids, max_iter, memo, costs)
        cost = _pam_cost(d, medoids)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, medoids)
    return np.argmin(d[:, sorted(best[1])], axis=1)


def _kproto_costs(ds, centers, modes, gamma):
    """cost[c, i, t] = squared Euclidean distance from point i to chain c's
    centre t + gamma * point i's mismatch count against chain c's mode t."""
    cost = np.zeros((centers.shape[0], ds.n, centers.shape[1]))
    if ds.p_cont:
        diff = ds.continuous[None, :, None, :] - centers[:, None, :, :]
        cost += np.einsum("citj,citj->cit", diff, diff)
    if ds.p_cat:
        cost += gamma * (ds.categorical[None, :, None, :] != modes[:, None, :, :]).sum(axis=3)
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
    objective over restarts wins, ties to the lower restart index.

    The restarts advance in lock-step blocks (see ``_kproto_chains``); each
    chain's labels and objective are bit-identical to running it alone.
    """
    n = ds.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if gamma is None:
        gamma = default_gamma(ds)
    starts = np.array([
        np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r)).choice(
            n, size=k, replace=False)
        for r in range(restarts)
    ])
    per_block = max(1, _KPROTO_BLOCK_ELEMS // (n * k * max(1, ds.p_cont, ds.p_cat)))
    labels, objectives = [], []
    for lo in range(0, restarts, per_block):
        block_labels, block_objectives = _kproto_chains(
            ds, k, gamma, max_iter, starts[lo:lo + per_block])
        labels.extend(block_labels)
        objectives.extend(block_objectives)
    best = 0
    for r, obj in enumerate(objectives):
        if obj < objectives[best] - 1e-12:
            best = r
    return labels[best]


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
    start = np.random.default_rng(rng_seed).choice(ds.n, size=k, replace=False)
    trace = []
    labels, objectives = _kproto_chains(ds, k, gamma, max_iter, start[None], trace=trace)
    return labels[0], objectives[0], tuple(trace)


def _kproto_refresh(ds, labels, centers, modes):
    """Set every chain's centres and modes, in place, to the means and modes
    of its clusters under ``labels`` (chains, n); an empty cluster keeps its
    prototype.  Returns which (chain, cluster) pairs have members."""
    chains, k = centers.shape[:2]
    group = (np.arange(chains)[:, None] * k + labels).ravel()
    counts = np.bincount(group, minlength=chains * k).reshape(chains, k)
    filled = counts > 0
    if ds.p_cont == 1:
        # The mean of one column is summed pairwise, which bincount cannot
        # reproduce, so each cluster's mean is taken on its own.
        for c, t in zip(*np.nonzero(filled)):
            centers[c, t] = ds.continuous[labels[c] == t].mean(axis=0)
    elif ds.p_cont:
        # bincount adds a cluster's points one at a time in point order, as
        # mean(axis=0) does over two or more columns.
        sums = np.stack([
            np.bincount(group, weights=np.tile(col, chains), minlength=chains * k)
            for col in ds.continuous.T
        ], axis=1).reshape(chains, k, ds.p_cont)
        centers[filled] = sums[filled] / counts[filled][:, None]
    if ds.p_cat:
        levels = int(ds.categorical.max()) + 1
        code = (group[:, None] * ds.p_cat + np.arange(ds.p_cat)) * levels + np.tile(
            ds.categorical, (chains, 1))
        tally = np.bincount(code.ravel(), minlength=chains * k * ds.p_cat * levels)
        modes[filled] = tally.reshape(chains, k, ds.p_cat, levels).argmax(axis=3)[filled]
    return filled


def _kproto_chains(ds, k, gamma, max_iter, starts, trace=None):
    """Iterate one chain per row of ``starts`` (the k points each chain's
    prototypes start on) in lock-step, each until its labels stop changing
    or ``max_iter`` assignments ran; return the chains' labels and
    objectives.  ``trace`` collects a single chain's objective after every
    prototype refresh."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    chains = len(starts)
    labels_out, objectives = [None] * chains, [None] * chains
    ids = np.arange(chains)
    centers = ds.continuous[starts]
    modes = ds.categorical[starts]
    labels = None

    def finish(rows, cost):
        fit = np.take_along_axis(cost, labels[:, :, None], axis=2)[:, :, 0]
        if trace is not None:
            trace.append(float(fit[0].sum()))
        for row in rows:
            labels_out[ids[row]] = labels[row].copy()
            objectives[ids[row]] = float(fit[row].sum())

    for _ in range(max_iter):
        cost = _kproto_costs(ds, centers, modes, gamma)
        new_labels = np.argmin(cost, axis=2)
        if labels is not None:
            done = (new_labels == labels).all(axis=1)
            finish(np.flatnonzero(done), cost)
            going = ~done
            if not going.any():
                return labels_out, objectives
            ids, cost, new_labels = ids[going], cost[going], new_labels[going]
            centers, modes = centers[going], modes[going]
        labels = new_labels
        filled = _kproto_refresh(ds, labels, centers, modes)
        # Empty clusters: move their prototype onto the worst-fit point
        # (farthest from its own prototype).  Labels are untouched, so the
        # empty cluster still contributes nothing and the objective stays
        # non-increasing; the point captures the cluster next assignment.
        for row in np.flatnonzero(~filled.all(axis=1)):
            point_cost = cost[row, np.arange(ds.n), labels[row]]
            for t in np.flatnonzero(~filled[row]):
                worst = int(np.argmax(point_cost))
                centers[row, t] = ds.continuous[worst]
                modes[row, t] = ds.categorical[worst]
                point_cost[worst] = -np.inf
    finish(range(len(ids)), _kproto_costs(ds, centers, modes, gamma))
    return labels_out, objectives
