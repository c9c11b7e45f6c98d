"""Comparison methods: PAM on Gower dissimilarity, and K-Prototypes.

Gower, J.C. (1971). A general coefficient of similarity and some of its
properties. Biometrics 27, 857-871.
Kaufman, L. and Rousseeuw, P.J. (1990). Finding Groups in Data (PAM:
BUILD + SWAP).
Huang, Z. (1998). Extensions to the k-means algorithm for clustering large
data sets with categorical values. Data Mining and Knowledge Discovery 2.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MixedDataset
from .errors import ZeroVarianceError
from .seeding import STREAM_RESTART, derive_seed

PAM_DEFAULT_RESTARTS = 1
KPROTO_DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 100
# PAM's candidate-cost sweep takes the rows of d in blocks of about this
# many elements, small enough to stay in cache while every set reads them.
_PAM_SWEEP_ELEMS = 1 << 15
# K-Prototypes chains per lock-step block are capped so that one cost
# evaluation's (chains, n, k, continuous variables) temporaries hold about
# this many elements.
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
    (continuous) and simple mismatch (categorical); entries lie in [0,1].
    Every variable's term goes through one n x n scratch array, so the sum
    and the scratch are the only n x n arrays."""
    n = ds.n
    p = ds.p_cont + ds.p_cat
    total = np.zeros((n, n))
    scratch = np.empty((n, n))
    ranges = np.zeros(ds.p_cont)
    for j in range(ds.p_cont):
        col = ds.continuous[:, j]
        rng = float(col.max() - col.min())
        if rng == 0.0:
            raise ZeroVarianceError(
                f"continuous variable {ds.continuous_vars[j].name!r} has zero range"
            )
        ranges[j] = rng
        np.subtract(col[:, None], col[None, :], out=scratch)
        np.abs(scratch, out=scratch)
        scratch /= rng
        total += scratch
    for j in range(ds.p_cat):
        col = ds.categorical[:, j]
        total += np.not_equal(col[:, None], col[None, :], out=scratch)
    total /= p
    return GowerMatrix(matrix=total, ranges=ranges)


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


def _swap_costs(d, rests):
    """Candidate costs of every remaining-medoid set in ``rests`` (all of one
    size), in one sweep over the rows of ``d``: row v, entry h is
    sum_i min(e_vi, d(i,h)), with e_vi the distance from point i to its
    nearest medoid in ``rests[v]`` (+inf when the set is empty).

    Each entry is added over i in row order, so its bytes equal those of
    ``np.minimum(e[:, None], d).sum(axis=0)``.  The sweep takes the rows of
    ``d`` in blocks of about ``_PAM_SWEEP_ELEMS`` elements, each block once
    for every set, and its one temporary is a block's size.
    """
    n, m = d.shape[0], len(rests)
    e = np.full((m, n), np.inf)
    for medoid in np.array(rests).T:
        np.minimum(e, d[:, medoid].T, out=e)
    out = np.empty((m, n))
    rows = max(1, _PAM_SWEEP_ELEMS // n)
    block = np.empty((rows, n))
    for i in range(0, n, rows):
        part = block[:min(rows, n - i)]
        for v in range(m):
            np.minimum(e[v, i:i + rows, None], d[i:i + rows], out=part)
            if i:
                part[0] += out[v]  # the rows above, then this block's rows in order
            part.sum(axis=0, out=out[v])
    return out


def _swap_pass(d, medoids, after):
    """One SWAP pass: the ordered medoid tuple after the best
    strictly-improving (medoid, candidate) swap, or ``medoids`` itself when
    no swap improves.  ``after[pos]`` is the candidate-cost vector of the
    medoids other than ``medoids[pos]`` (see ``_swap_costs``): swapping
    ``medoids[pos]`` for h sends every point to the nearer of h and its
    nearest remaining medoid."""
    is_medoid = np.zeros(d.shape[0], dtype=bool)
    is_medoid[list(medoids)] = True
    best_cost, best = _pam_cost(d, medoids), medoids
    for pos, cost in enumerate(after):
        cost = np.where(is_medoid, np.inf, cost)
        h = int(np.argmin(cost))
        if cost[h] < best_cost - 1e-12:
            best_cost = float(cost[h])
            best = medoids[:pos] + (h,) + medoids[pos + 1:]
    return best


def _pam_round(d, pending, successors, costs):
    """Set the successor of every node in ``pending``.  The remaining-medoid
    sets they need and ``costs`` lacks are summed in one ``_swap_costs``
    sweep.  ``costs`` keeps at most n vectors (the size of ``d``); a vector
    past that serves this round and is dropped."""
    rests = {node: [tuple(sorted(node[:pos] + node[pos + 1:])) for pos in range(len(node))]
             for node in pending}
    fresh = list(dict.fromkeys(s for sets in rests.values() for s in sets if s not in costs))
    summed = dict(zip(fresh, _swap_costs(d, fresh)))
    costs.update(itertools.islice(summed.items(), max(0, d.shape[0] - len(costs))))
    for node, sets in rests.items():
        successors[node] = _swap_pass(d, node, [summed[s] if s in summed else costs[s] for s in sets])


def _pam_chains(d, starts, max_iter):
    """SWAP from every ordered medoid tuple in ``starts`` (all of one size)
    in lock-step; returns each chain's final tuple.

    The chains share one state graph: a node is an ordered medoid tuple and
    its successor the ``_swap_pass`` result, the node itself when no swap
    improves.  Each round computes the successors that live chains stand on
    and the graph lacks (``_pam_round``); a chain steps along known
    successors for free.  A chain stops when it converges or has made
    ``max_iter`` swaps, so each ends where SWAP from its start alone ends.
    """
    successors, costs = {}, {}
    nodes, swaps = list(starts), [0] * len(starts)
    live = range(len(starts))
    while live:
        for r in live:
            while swaps[r] < max_iter and successors.get(nodes[r], nodes[r]) != nodes[r]:
                nodes[r] = successors[nodes[r]]
                swaps[r] += 1
        live = [r for r in live if swaps[r] < max_iter and nodes[r] not in successors]
        if live:
            _pam_round(d, list(dict.fromkeys(nodes[r] for r in live)), successors, costs)
    return nodes


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

    The restarts run SWAP in lock-step on one state graph (see
    ``_pam_chains``), and each round sums the candidate costs it needs in
    one sweep over ``d``, each remaining-medoid set once per fit while the
    cache has room.  The answer is exactly that of running every restart
    alone.
    """
    d = gm.matrix
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    starts = [tuple(_pam_build(d, k))]
    for r in range(1, restarts):
        rng = np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r))
        starts.append(tuple(int(m) for m in rng.choice(n, size=k, replace=False)))
    finals = _pam_chains(d, starts, max_iter)
    cost = {node: _pam_cost(d, node) for node in finals}
    best = finals[0]
    for node in finals:
        if cost[node] < cost[best] - 1e-12:
            best = node
    return np.argmin(d[:, sorted(best)], axis=1)


def _kproto_costs(ds, centers, modes, gamma):
    """cost[c, i, t] = squared Euclidean distance from point i to chain c's
    centre t + gamma * point i's mismatch count against chain c's mode t."""
    cost = np.zeros((centers.shape[0], ds.n, centers.shape[1]))
    if ds.p_cont:
        diff = ds.continuous[None, :, None, :] - centers[:, None, :, :]
        cost += np.einsum("citj,citj->cit", diff, diff)
    if ds.p_cat:
        # Integer counts are exact in any order, so one variable at a time.
        mismatches = np.zeros(cost.shape, dtype=np.min_scalar_type(ds.p_cat))
        for j in range(ds.p_cat):
            mismatches += ds.categorical[None, :, None, j] != modes[:, None, :, j]
        cost += float(gamma) * mismatches
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

    The restarts advance in lock-step blocks, and restarts that meet merge
    (see ``_kproto_chains``); each chain's labels and objective are
    bit-identical to running it alone.
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
    per_block = max(1, _KPROTO_BLOCK_ELEMS // (n * k * max(1, ds.p_cont)))
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


def _first_twins(*arrays):
    """Rows of the first occurrence of each distinct row state across
    ``arrays`` (all with one row per chain), and every row's first twin."""
    first = {}
    twin = [first.setdefault(b"".join(a[row].tobytes() for a in arrays), row)
            for row in range(len(arrays[0]))]
    return list(first.values()), twin


def _kproto_chains(ds, k, gamma, max_iter, starts, trace=None):
    """Iterate one chain per row of ``starts`` (the k points each chain's
    prototypes start on) in lock-step, each until its labels stop changing
    or ``max_iter`` assignments ran; return the chains' labels and
    objectives.  ``trace`` collects a single chain's objective after every
    prototype refresh.

    At the start and after every refresh, live chains whose labels, centres
    and modes are byte-equal merge: the lowest restart leads, and the others
    take its labels and objective at the end.  The chains move in lock-step,
    so merged chains have the same budget left, and each restart's result is
    still the one it reaches alone.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    chains = len(starts)
    labels_out, objectives = [None] * chains, [None] * chains
    ids = np.arange(chains)
    members = {r: [r] for r in range(chains)}  # the restarts each live chain answers for
    centers = ds.continuous[starts]
    modes = ds.categorical[starts]
    keep, twin = _first_twins(centers, modes)
    labels = None

    def finish(rows, cost):
        fit = np.take_along_axis(cost, labels[:, :, None], axis=2)[:, :, 0]
        if trace is not None:
            trace.append(float(fit[0].sum()))
        for row in rows:
            for r in members[ids[row]]:
                labels_out[r] = labels[row].copy()
                objectives[r] = float(fit[row].sum())

    for _ in range(max_iter):
        for row, lead in enumerate(twin):
            if lead != row:
                members[ids[lead]] += members.pop(ids[row])
        ids, centers, modes = ids[keep], centers[keep], modes[keep]
        cost = _kproto_costs(ds, centers, modes, gamma)
        new_labels = np.argmin(cost, axis=2)
        if labels is not None:
            labels = labels[keep]
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
        keep, twin = _first_twins(labels, centers, modes)
    finish(range(len(ids)), _kproto_costs(ds, centers, modes, gamma))
    return labels_out, objectives
