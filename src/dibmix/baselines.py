"""Comparison methods: PAM on Gower dissimilarity, and K-Prototypes.

Gower, J.C. (1971). A general coefficient of similarity and some of its
properties. Biometrics 27, 857-871.
Kaufman, L. and Rousseeuw, P.J. (1990). Finding Groups in Data (PAM:
BUILD + SWAP).
Huang, Z. (1998). Extensions to the k-means algorithm for clustering large
data sets with categorical values. Data Mining and Knowledge Discovery 2.
"""

import functools
import itertools
import math

import numpy as np

from . import lockstep
from .dataset import MixedDataset
from .errors import DibmixError, ZeroVarianceError
from .kernels import _block_rows
from .lockstep import DEFAULT_MAX_ITER
from .seeding import STREAM_RESTART, derive_seed

PAM_DEFAULT_RESTARTS = 1
KPROTO_DEFAULT_RESTARTS = 100
# One K-Prototypes cost evaluation stacks at most as many states as keep its
# (states, n, k, continuous variables) temporaries within about this many
# elements (512 KiB of doubles).  Eight times as many ran no faster on the
# benchmark grid's cells and held eight times the memory.
_KPROTO_BLOCK_ELEMS = 1 << 16


def gower(ds: MixedDataset) -> np.ndarray:
    """Read-only n x n array d(i,j) = mean over variables of range-scaled
    absolute difference (continuous) and simple mismatch (categorical) in
    [0,1].  The output is filled one ``kernels._block_rows`` block of rows
    at a time, each variable's term formed in one block-sized scratch, so
    the output is the only n x n array."""
    n = ds.n
    p = ds.p_cont + ds.p_cat
    ranges = []
    for j in range(ds.p_cont):
        col = ds.continuous[:, j]
        rng = float(col.max() - col.min())
        if rng == 0.0:
            raise ZeroVarianceError(
                f"continuous variable {ds.continuous_vars[j].name!r} has zero range"
            )
        ranges.append(rng)
    total = np.empty((n, n))
    rows = _block_rows(n)
    scratch = np.empty((min(n, rows), n))
    for lo in range(0, n, rows):
        block = total[lo:lo + rows]
        tmp = scratch[:block.shape[0]]
        block.fill(0.0)
        for j, rng in enumerate(ranges):
            col = ds.continuous[:, j]
            np.subtract(col[lo:lo + rows, None], col[None, :], out=tmp)
            np.abs(tmp, out=tmp)
            tmp /= rng
            block += tmp
        for j in range(ds.p_cat):
            col = ds.categorical[:, j]
            block += np.not_equal(col[lo:lo + rows, None], col[None, :], out=tmp)
        block /= p
    total.flags.writeable = False
    return total


def _pam_build(d, k):
    """Greedy BUILD: start from the point with the least row sum, then add
    whichever point most reduces the total nearest-medoid dissimilarity."""
    medoids = [int(np.argmin(d.sum(axis=0)))]
    nearest = d[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = _build_gains(d, nearest)
        gains[medoids] = -np.inf
        best = int(np.argmax(gains))
        medoids.append(best)
        nearest = np.minimum(nearest, d[:, best])
    return medoids


def _build_gains(d, nearest):
    """BUILD's gain of every candidate h: sum_i max(nearest_i - d(i,h), 0).

    Each entry is added over i in row order, so its bytes equal those of
    ``np.maximum(nearest[:, None] - d, 0).sum(axis=0)``.  The terms are
    formed one ``kernels._block_rows`` block of rows at a time in one
    scratch, each block's first row carrying the rows above, as in
    ``_swap_costs``."""
    n = d.shape[0]
    rows = _block_rows(n)
    block = np.empty((min(n, rows), n))
    gains = np.empty(n)
    for i in range(0, n, rows):
        part = block[:min(rows, n - i)]
        np.subtract(nearest[i:i + rows, None], d[i:i + rows], out=part)
        np.maximum(part, 0.0, out=part)
        if i:
            part[0] += gains
        part.sum(axis=0, out=gains)
    return gains


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
    ``d`` in ``kernels._block_rows`` blocks, small enough to stay in cache
    while every set reads them.  Each block's e_vi and terms are formed in
    scratch the size of a block, so the output, one n-vector per set, is
    the only array that grows with n.
    """
    n, m = d.shape[0], len(rests)
    members = np.array(rests).T
    out = np.empty((m, n))
    rows = _block_rows(n)
    block = np.empty((min(n, rows), n))
    nearest = np.empty((m, min(n, rows)))
    for i in range(0, n, rows):
        part = block[:min(rows, n - i)]
        e = nearest[:, :len(part)]
        e.fill(np.inf)
        for medoid in members:
            np.minimum(e, d[i:i + rows, medoid].T, out=e)
        for v in range(m):
            np.minimum(e[v, :, None], d[i:i + rows], out=part)
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


def _pam_round(d, costs, pending):
    """The successors of the ordered medoid tuples ``pending``: each one's
    ``_swap_pass`` result.  The remaining-medoid sets they need and
    ``costs`` lacks are summed in one ``_swap_costs`` sweep.  ``costs``
    keeps at most n vectors (the size of ``d``); a vector past that serves
    this round and is dropped."""
    rests = [[tuple(sorted(node[:pos] + node[pos + 1:])) for pos in range(len(node))]
             for node in pending]
    fresh = list(dict.fromkeys(s for sets in rests for s in sets if s not in costs))
    summed = dict(zip(fresh, _swap_costs(d, fresh)))
    costs.update(itertools.islice(summed.items(), max(0, d.shape[0] - len(costs))))
    return [_swap_pass(d, node, [summed[s] if s in summed else costs[s] for s in sets])
            for node, sets in zip(pending, rests)]


def _random_start(n, k, rng_seed, r):
    """The k distinct points that restart r of a baseline starts from."""
    return np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r)).choice(
        n, size=k, replace=False)


def pam_fit(
    d: np.ndarray,
    k: int,
    restarts: int = PAM_DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
) -> np.ndarray:
    """PAM on the n x n dissimilarities ``d`` (as from ``gower``): restart 0
    initializes with BUILD (deterministic); further restarts draw random
    initial medoid sets.  Best final total dissimilarity wins, ties to the
    lower restart index.  Each point is labelled by its nearest medoid (ties
    toward the medoid earliest in sorted order); labels index the sorted
    medoid list.

    The restarts run SWAP with ``lockstep.walk``: a node is an ordered
    medoid tuple and its successor the ``_swap_pass`` result, the node
    itself when no swap improves, and a chain stops there or after
    ``max_iter`` swaps.  Each round sums the candidate costs it needs in
    one sweep over ``d`` (``_pam_round``), each remaining-medoid set once
    per fit while the cache has room.  The answer is exactly that of
    running every restart alone.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    lockstep.check(k, n, restarts, max_iter, rng_seed)
    starts = [tuple(_pam_build(d, k))]
    starts += [tuple(_random_start(n, k, rng_seed, r).tolist()) for r in range(1, restarts)]
    paths = lockstep.walk(starts, functools.partial(_pam_round, d, {}), max_iter)
    finals = [path[-1] for path in paths]
    cost = {node: _pam_cost(d, node) for node in finals}
    best = finals[0]
    for node in finals:
        if cost[node] < cost[best] - 1e-12:
            best = node
    return np.argmin(d[:, sorted(best)], axis=1)


def _kproto_costs(ds, centers, modes, gamma):
    """cost[c, i, t] = squared Euclidean distance from point i to chain c's
    centre t + gamma * point i's mismatch count against chain c's mode t."""
    # with no continuous variable, the sum over j is empty and gives zeros
    diff = ds.continuous[None, :, None, :] - centers[:, None, :, :]
    cost = np.einsum("citj,citj->cit", diff, diff)
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
    part).  Needs at least 2 observations and a finite variance when there
    is a continuous part."""
    if ds.p_cont == 0:
        return 1.0
    if ds.n < 2:
        raise ZeroVarianceError("the default gamma needs at least 2 observations")
    with np.errstate(over="ignore"):
        gamma = float(np.mean(np.var(ds.continuous, axis=0, ddof=1)))
    if not math.isfinite(gamma):
        raise DibmixError("continuous columns too large for the default gamma; "
                          "rescale them or give gamma")
    return gamma


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

    The restarts walk together with ``lockstep.walk``, and each round is
    costed in ``lockstep.stacks`` (see ``_kproto_chains``), so restarts that
    meet merge; each chain's labels and objective are bit-identical to
    running it alone.
    """
    n = ds.n
    lockstep.check(k, n, restarts, max_iter, rng_seed)
    gamma = default_gamma(ds) if gamma is None else lockstep.check_range("gamma", gamma)
    starts = np.array([_random_start(n, k, rng_seed, r) for r in range(restarts)])
    chains = _kproto_chains(ds, k, gamma, max_iter, starts)
    best = chains[0]
    for chain in chains:
        if chain[1] < best[1] - 1e-12:
            best = chain
    return best[0]


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
    lockstep.check(k, ds.n, 1, max_iter, rng_seed)
    gamma = default_gamma(ds) if gamma is None else lockstep.check_range("gamma", gamma)
    start = np.random.default_rng(rng_seed).choice(ds.n, size=k, replace=False)
    [(labels, objective, trace)] = _kproto_chains(ds, k, gamma, max_iter, start[None])
    return labels, objective, tuple(trace)


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
        # One variable at a time, so the tallies stay (chains * n) long.
        levels = int(ds.categorical.max()) + 1
        for j, col in enumerate(ds.categorical.T):
            tally = np.bincount(group * levels + np.tile(col, chains),
                                minlength=chains * k * levels)
            modes[:, :, j][filled] = tally.reshape(chains, k, levels).argmax(axis=2)[filled]
    return filled


def _kproto_chains(ds, k, gamma, max_iter, starts):
    """Iterate one chain per row of ``starts`` (the k points each chain's
    prototypes start on), each until its labels stop changing or
    ``max_iter`` assignments ran; return each chain's (labels, objective,
    trace), the trace holding the objective after every prototype refresh.

    The chains walk one state graph with ``lockstep.walk``.  A node is the
    byte key of one ``state`` record: labels as ``np.min_scalar_type(-k)``,
    centres and modes.  A start carries labels -1, so it never converges
    and its objective is never read.  ``advance`` costs its nodes in
    ``lockstep.stacks`` of at most ``per_block`` states, records each node's
    objective (the cost of its labels under its prototypes), and refreshes
    and reseeds the nodes whose labels moved; a node whose labels stay is its
    own successor.  Chains that reach one state merge, and each still ends
    where it ends alone.
    """
    n = ds.n
    state = np.dtype([("labels", np.min_scalar_type(-k), n),
                      ("centers", ds.continuous.dtype, (k, ds.p_cont)),
                      ("modes", ds.categorical.dtype, (k, ds.p_cat))])
    per_block = max(1, _KPROTO_BLOCK_ELEMS // (n * k * max(1, ds.p_cont)))
    objectives = {}

    def evaluate(keys):
        """The records of ``keys``, their labels and their (states, n, k)
        cost array; records each node's objective."""
        block = np.frombuffer(b"".join(keys), dtype=state)
        labels = block["labels"].astype(np.intp)
        cost = _kproto_costs(ds, block["centers"], block["modes"], gamma)
        fit = np.take_along_axis(cost, labels[:, :, None], axis=2)[:, :, 0]
        objectives.update((key, float(row.sum())) for key, row in zip(keys, fit))
        return block, labels, cost

    def advance(pending):
        successors = []
        for keys in lockstep.stacks(pending, per_block):
            block, labels, cost = evaluate(keys)
            new_labels = np.argmin(cost, axis=2)
            moved = np.flatnonzero((new_labels != labels).any(axis=1))
            out = block.copy()
            centers, modes = out["centers"][moved], out["modes"][moved]
            filled = _kproto_refresh(ds, new_labels[moved], centers, modes)
            # Empty clusters: move their prototype onto the worst-fit point
            # (farthest from its own prototype).  Labels are untouched, so
            # the empty cluster still contributes nothing and the objective
            # stays non-increasing; the point captures the cluster next
            # assignment.
            for row in np.flatnonzero(~filled.all(axis=1)):
                point_cost = cost[moved[row], np.arange(n), new_labels[moved[row]]]
                for t in np.flatnonzero(~filled[row]):
                    worst = int(np.argmax(point_cost))
                    centers[row, t] = ds.continuous[worst]
                    modes[row, t] = ds.categorical[worst]
                    point_cost[worst] = -np.inf
            out["labels"] = new_labels
            out["centers"][moved], out["modes"][moved] = centers, modes
            successors.extend(record.tobytes() for record in out)
        return successors

    first = np.empty(len(starts), dtype=state)
    first["labels"] = -1
    first["centers"], first["modes"] = ds.continuous[starts], ds.categorical[starts]
    paths = lockstep.walk([record.tobytes() for record in first], advance, max_iter)
    # the end nodes of capped chains have not been costed yet
    ends = list(dict.fromkeys(p[-1] for p in paths if p[-1] not in objectives))
    for keys in lockstep.stacks(ends, per_block):
        evaluate(keys)
    chains = []
    for path in paths:
        steps = path[1:-1] if path[-1] == path[-2] else path[1:]
        labels = np.frombuffer(path[-1], dtype=state)["labels"][0].astype(np.intp)
        chains.append((labels, objectives[path[-1]], [objectives[u] for u in steps]))
    return chains
