"""Deterministic information bottleneck clustering.

Each observation x carries an estimated conditional density p(y | x) over
the observed locations.  A hard encoder t(x) is sought that minimizes

    H(T) - beta * I(T, Y),

trading compression (few, dense clusters) against relevance (cluster labels
that pin down location).  The solver alternates, from a random hard
assignment, between scoring

    score(x, t) = log q(t) - beta * KL(p(. | x) || q(. | t))

and reassigning every x to its argmax cluster, then refreshing the cluster
masses q(t) and the cluster-conditional decoder q(y | t).  Updates are
synchronous: every score in iteration m uses the iteration m-1 quantities.
Empty clusters score -inf and therefore stay empty, which is what lets the
method prune clusters (reported as ``effective_k``).

The update is a pure function of the hard assignment, so the restarts of
one fit walk one shared state graph with ``lockstep.walk``.  A node is one
exact assignment vector; it holds its masses and its objective, and its
decoder until its successor is known.  Each round stacks the decoders of
the distinct nodes that waiting chains stand on, so p(y | x) is read once
to score them all, and once more to refresh the states that are new; a
chain steps along successors already known for free.  Restarts that meet
share the rest of one trajectory, and no state is scored or refreshed
twice.  A chain stops when it converges, cycles or reaches its cap, and its
trace, best state and flags are read off its path.
A stacked pass is cut into slices within a memory budget; ``threads > 1``
cuts it into at least that many and runs them on a thread pool.  A node's
arithmetic does not depend on its slice, so neither the work done nor the
result depends on the thread count.  The objective is summed per cluster in
sorted order, so restarts that reach one partition under different labels
tie exactly and the lowest restart index wins.

Reference: Strouse, DJ and Schwab, D.J. (2017). The deterministic
information bottleneck. Neural Computation 29.
"""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import sparse

from . import lockstep
from .dataset import MixedDataset
from .errors import DegenerateSmoothingError
from .infotheory import _as_distribution
from .kernels import Bandwidths, ConditionalDensity, estimate_conditional
from .seeding import STREAM_RESTART, derive_seed

DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 100

_TRACE_RISE_TOL = 1e-12

# Each array of a stacked pass (the decoders, the log-decoders, the scores)
# holds n x C*k doubles for C states.  A pass is cut into slices so that each
# stays within 1/16 of the n x n density, or within 256 KiB where the density
# is so small that per-call overhead would dominate.
_STACK_SHARE = 16
_STACK_FLOOR = 1 << 15


@dataclass(frozen=True)
class Encoder:
    """Hard cluster assignment plus the derived masses and decoder.

    ``assign`` maps observation index to cluster label in {0..k-1};
    ``masses`` is q(t); ``decoder`` is the k x n matrix q(y | t), zero rows
    for empty clusters (their conditional is undefined).
    """

    assign: np.ndarray
    masses: np.ndarray
    decoder: np.ndarray

    def __post_init__(self):
        for name, dtype in (("assign", np.int64), ("masses", float), ("decoder", float)):
            value = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=dtype))
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.masses.shape[0]

    @property
    def effective_k(self) -> int:
        return int(np.count_nonzero(self.masses > 0))

    @classmethod
    def from_assignment(cls, assign, k: int, density: ConditionalDensity, weights) -> "Encoder":
        assign = np.asarray(assign, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        masses, decoder = _refresh(assign[None, :], k, density.matrix, weights)
        return cls(assign=assign, masses=masses[0], decoder=decoder[0])


def _refresh(assign, k, p_matrix, weights):
    """Masses and decoders of a stack of C hard encoders, ``assign`` (C, n).

    q_r(t) = sum_x w(x) [t_r(x)=t];  q_r(y|t) = sum_x w(x) p(y|x) [t_r(x)=t] / q_r(t).
    Row r*k + t of the sparse (C*k, n) one-hot matrix holds w(x) where
    t_r(x) = t, one entry per chain in each column x, so one product yields
    every decoder row from C*n^2 multiply-adds.  Returns masses (C, k) and
    decoders (C, k, n).
    """
    chains, n = assign.shape
    cols = assign + k * np.arange(chains)[:, None]
    # bincount adds each bin's weights in x order, as a per-chain bincount does.
    masses = np.bincount(cols.ravel(), weights=np.tile(weights, chains), minlength=chains * k)
    onehot = sparse.csc_matrix(
        (np.repeat(weights, chains), cols.T.ravel(), np.arange(0, n * chains + 1, chains)),
        shape=(chains * k, n),
    )
    # CSC times dense walks the columns x in ascending order and adds
    # w(x) p(x, .) to each chain's row of t_r(x), so every decoder row is
    # summed in x order, bit-identical whatever the stack height; BLAS is
    # not involved.
    decoder = onehot @ p_matrix
    np.divide(decoder, masses[:, None], out=decoder, where=(masses > 0)[:, None])
    return masses.reshape(chains, k), decoder.reshape(chains, k, n)


def init_random(n: int, k: int, rng_seed: int) -> np.ndarray:
    """Assign each observation independently and uniformly to one of k
    clusters; returns the int64 assignment vector."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return np.random.default_rng(rng_seed).integers(0, k, size=n)


def _row_dots(a, b):
    """out[x, t] = sum_y a[x, y] b[t, y] for ``a`` (m, n) and ``b`` (r, n).

    Each entry is one BLAS ddot over two contiguous rows, so a chain's
    column does not depend on how many chains ``b`` stacks, and OpenBLAS
    runs ddot on one thread for n <= 10,000 (the default density cap).  A
    BLAS matrix product is several times faster, but its output changes
    with the BLAS thread count.
    """
    return np.vecdot(a[:, None, :], b[None])


def _score_step(masses, decoder, density, beta):
    """One synchronous scoring pass for a stack of C chains.

    ``masses`` is (C, k) and ``decoder`` (C, k, n); returns the new
    assignments, (C, n).  score[x, t] = log q(t) - beta * KL(p(.|x) || q(.|t)),
    with the cross term from ``_row_dots``.
    """
    chains, k, n = decoder.shape
    masses = masses.reshape(chains * k)
    decoder = decoder.reshape(chains * k, n)
    with np.errstate(divide="ignore"):
        log_masses = np.log(masses)
        log_decoder = np.where(decoder > 0, np.log(np.where(decoder > 0, decoder, 1.0)), 0.0)
    if beta == 0:
        # Pure compression: the KL term drops out entirely (avoids 0 * inf).
        score = np.broadcast_to(log_masses, (n, chains * k)).copy()
    else:
        p = density.matrix
        kl = density.neg_entropy[:, None] - _row_dots(p, log_decoder)
        if density.has_zeros:
            # p(y|x) > 0 meeting q(y|t) = 0 makes the KL infinite for that
            # pair.  A sum of nonnegative terms is positive exactly when one
            # term is, so p itself serves as the support indicator.
            hits = _row_dots(p, (decoder == 0).astype(float))
            kl[(hits > 0) & (masses > 0)[None, :]] = np.inf
        score = log_masses[None, :] - beta * kl
    score[:, masses == 0] = -np.inf
    score = score.reshape(n, chains, k)
    best = np.argmax(score, axis=2)  # ties resolve to the smallest cluster index
    if np.any(np.isneginf(np.take_along_axis(score, best[:, :, None], axis=2))):
        raise DegenerateSmoothingError(
            "some observation has no cluster with finite score; categorical "
            "support is disconnected under zero-lambda smoothing"
        )
    return best.T


def _check_weights(weights, n):
    """``weights`` as floats: n finite, nonnegative values summing to 1."""
    weights = _as_distribution(weights, "weights")
    if weights.shape != (n,):
        raise ValueError(f"weights have length {weights.shape[0]}, expected {n}")
    return weights


def check_threads(threads) -> int:
    """``threads`` as an int; anything but an integer >= 1 is a ValueError."""
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError("threads must be >= 1")
    return int(threads)


def dib_step(enc: Encoder, density: ConditionalDensity, beta: float, weights) -> Encoder:
    """One synchronous update of the encoder against a fixed density."""
    if enc.assign.shape[0] != density.n:
        raise ValueError("encoder and density dimensions differ")
    weights = _check_weights(weights, density.n)
    assign = _score_step(enc.masses[None], enc.decoder[None], density, beta)
    return Encoder.from_assignment(assign[0], enc.k, density, weights)


def _marginal(p_matrix, weights):
    """p(y) = sum_x w(x) p(y | x), summed in x order: the decoder of the
    one-cluster encoder."""
    one_cluster = np.zeros((1, p_matrix.shape[0]), dtype=np.int64)
    return _refresh(one_cluster, 1, p_matrix, weights)[1][0, 0]


def _objectives(masses, decoder, p_y, beta):
    """H(T) - beta * I(T, Y), H(T) and I(T, Y) of a stack of C chains.

    ``masses`` is (C, k), ``decoder`` (C, k, n) and ``p_y`` (n,); returns
    three (C,) arrays.  I(T, Y) = sum_t q(t) D_t with
    D_t = sum_y q(y|t) log(q(y|t) / p(y)), one ddot along each decoder row.
    A cluster's mass, decoder row and so its terms depend only on its member
    set, and each chain's terms are sorted before they are added, so a
    relabelled partition scores exactly the same.
    """
    live = decoder > 0
    log_ratio = np.log(np.divide(decoder, p_y, out=np.ones_like(decoder), where=live))
    divergence = np.vecdot(decoder, log_ratio)
    q_log_q = masses * np.log(np.where(masses > 0, masses, 1.0))
    h = -np.sort(q_log_q, axis=1).sum(axis=1)
    i = np.sort(masses * divergence, axis=1).sum(axis=1)
    return h - beta * i, h, i


def objective(enc: Encoder, density: ConditionalDensity, beta: float, weights):
    """Return (H(T) - beta * I(T, Y), H(T), I(T, Y)) for an encoder refreshed
    against ``density`` with observation ``weights``."""
    weights = _check_weights(weights, density.n)
    obj, h, i = _objectives(
        enc.masses[None], enc.decoder[None], _marginal(density.matrix, weights), beta
    )
    return float(obj[0]), float(h[0]), float(i[0])


@dataclass(frozen=True)
class RestartSummary:
    restart_index: int
    seed: int
    objective: float
    compression: float
    relevance: float
    iterations: int
    effective_k: int
    converged: bool
    cycle_detected: bool


@dataclass(frozen=True)
class DibResult(RestartSummary):
    """Best-of-restarts solution: the winning restart's summary plus its
    encoder and objective trace, and the summaries of every restart."""

    encoder: Encoder
    beta: float
    objective_trace: np.ndarray
    restart_summary: tuple = field(default=(), repr=False)

    @property
    def assign(self) -> np.ndarray:
        return self.encoder.assign

    def to_dict(self) -> dict:
        record = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("encoder", "objective_trace", "restart_summary")
        }
        record.update(
            assignment=self.encoder.assign.tolist(),
            masses=self.encoder.masses.tolist(),
            objective_trace=[float(v) for v in self.objective_trace],
            # per restart, the record keeps neither H(T) nor I(T, Y)
            restart_summary=[
                {"restart": r.restart_index,
                 **{f.name: getattr(r, f.name) for f in fields(r)
                    if f.name not in ("restart_index", "compression", "relevance")}}
                for r in self.restart_summary
            ],
        )
        return record


def _project(cls, source):
    """An instance of dataclass ``cls`` holding the same-named fields of ``source``."""
    return cls(**{f.name: getattr(source, f.name) for f in fields(cls)})


class _StateGraph:
    """The assignment states that the chains of one fit reach, and the steps
    between them.

    A node is one exact assignment, keyed by its labels as
    ``np.min_scalar_type(k - 1)``.  It holds its masses and its
    (objective, H, I); its decoder is dropped once ``advance`` has scored it,
    and ``lockstep.walk`` keeps the successors.  ``mapper`` (``map`` or a
    thread pool's) runs the slices of a stacked pass; only the calling
    thread reads or writes the graph.
    """

    def __init__(self, density, weights, p_y, k, beta, threads, mapper):
        self.density, self.weights, self.p_y, self.k, self.beta = density, weights, p_y, k, beta
        self.threads, self.mapper = threads, mapper
        self.dtype = np.min_scalar_type(k - 1)
        self.index = {}
        self.keys, self.masses, self.decoders, self.scores = [], [], [], []

    def _pass(self, fn, items):
        """``fn`` over contiguous slices of the stacked ``items`` (one per
        state), its outputs in order: at least min(threads, len(items))
        slices, each within the stacked-array budget above."""
        n, count = self.density.n, len(items)
        per_slice = max(1, max(n * n // _STACK_SHARE, _STACK_FLOOR) // (n * self.k))
        parts = max(-(-count // per_slice), min(self.threads, count))
        return list(self.mapper(fn, [items[b * count // parts:(b + 1) * count // parts]
                                     for b in range(parts)]))

    def add(self, assign):
        """Node ids of the rows of ``assign`` (C, n); the states not seen
        before are refreshed and scored in one stacked pass."""
        keys = [row.tobytes() for row in assign.astype(self.dtype)]
        fresh = {key: row for row, key in enumerate(keys) if key not in self.index}

        def refresh(new):
            masses, decoder = _refresh(new, self.k, self.density.matrix, self.weights)
            return masses, decoder, *_objectives(masses, decoder, self.p_y, self.beta)

        states = (state for out in self._pass(refresh, assign[list(fresh.values())])
                  for state in zip(*out))
        for key, (masses, decoder, obj, h, i) in zip(fresh, states):
            self.index[key] = len(self.keys)
            self.keys.append(key)
            self.masses.append(masses)
            self.decoders.append(decoder)
            self.scores.append((obj.item(), h.item(), i.item()))
        return [self.index[key] for key in keys]

    def advance(self, pending):
        """The successors of the nodes ``pending``, scored in one stacked
        pass; their decoders are dropped."""

        def score(group):
            return _score_step(np.stack([self.masses[u] for u in group]),
                               np.stack([self.decoders[u] for u in group]),
                               self.density, self.beta)

        new_assign = np.concatenate(self._pass(score, pending))
        for u in pending:
            self.decoders[u] = None
        return self.add(new_assign)

    def assign(self, node):
        return np.frombuffer(self.keys[node], dtype=self.dtype)


def _rises(path, scores):
    """The cycle rule, a ``lockstep.walk`` stop: the last step of ``path``
    raised the objective by more than ``_TRACE_RISE_TOL``, checked from the
    second step on.  ``scores[u]`` is node u's (objective, H, I)."""
    return len(path) > 2 and scores[path[-1]][0] > scores[path[-2]][0] + _TRACE_RISE_TOL


def _outcome(path, scores):
    """A chain's objective trace, its best node (the first minimum after the
    start), and whether it converged or stopped by a cycle, from its
    ``path``.  A chain that converged is not flagged as a cycle."""
    converged = path[-1] == path[-2]
    return ([scores[u][0] for u in path[1:]], min(path[1:], key=lambda u: scores[u][0]),
            converged, not converged and _rises(path, scores))


def _walk(graph, restarts, rng_seed, max_iter):
    """Walk ``restarts`` chains in lock-step on ``graph`` until each stops;
    returns one (summary, trace, best assignment) per chain."""
    seeds = [derive_seed(rng_seed, STREAM_RESTART, r) for r in range(restarts)]
    starts = graph.add(np.stack([init_random(graph.density.n, graph.k, s) for s in seeds]))
    paths = lockstep.walk(starts, graph.advance, max_iter,
                          lambda path: _rises(path, graph.scores))
    runs = []
    for r, (seed, path) in enumerate(zip(seeds, paths)):
        trace, node, converged, cycle = _outcome(path, graph.scores)
        obj, h, i = graph.scores[node]
        summary = RestartSummary(
            restart_index=r, seed=seed, objective=obj, compression=h,
            relevance=i, iterations=len(trace),
            effective_k=int(np.count_nonzero(graph.masses[node] > 0)),
            converged=converged, cycle_detected=cycle,
        )
        runs.append((summary, trace, graph.assign(node)))
    return runs


def dib_fit_density(
    density: ConditionalDensity,
    weights,
    k: int,
    beta: float,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
    threads: int = 1,
) -> DibResult:
    """Run independent restarts on a precomputed density; keep the best.

    Restart r draws its seed as ``derive_seed(rng_seed, STREAM_RESTART, r)``
    and chains are reduced by (objective, restart index), so the result is
    identical for any thread count.  Restarts that reach one partition under
    different labels tie exactly, so the lowest restart index among them
    wins.  ``weights`` must be n finite, nonnegative values summing to 1.
    """
    if restarts < 1 or max_iter < 1:
        raise ValueError("restarts and max_iter must be >= 1")
    threads = check_threads(threads)
    if not 0 <= beta < math.inf:  # NaN fails too
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    n = density.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    weights = _check_weights(weights, n)
    p_y = _marginal(density.matrix, weights)
    if beta > 0:  # build the cached row score terms (one pass gives has_zeros too)
        _ = density.neg_entropy
    with ThreadPoolExecutor(max_workers=threads) as pool:
        graph = _StateGraph(density, weights, p_y, k, beta, threads,
                            pool.map if threads > 1 else map)
        runs = _walk(graph, restarts, rng_seed, max_iter)
    summary, trace, assign = min(runs, key=lambda r: (r[0].objective, r[0].restart_index))
    return DibResult(
        **vars(summary),
        encoder=Encoder.from_assignment(assign, k, density, weights),
        beta=beta,
        objective_trace=np.array(trace),
        restart_summary=tuple(r[0] for r in runs),
    )


def dib_fit(
    ds: MixedDataset,
    k: int,
    beta: float,
    bw: Bandwidths,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
    threads: int = 1,
) -> DibResult:
    """Estimate the conditional density for ``ds`` and fit the encoder."""
    density = estimate_conditional(ds, bw)
    return dib_fit_density(
        density, ds.weights, k, beta, restarts=restarts, max_iter=max_iter,
        rng_seed=rng_seed, threads=threads,
    )


@dataclass(frozen=True)
class BetaSweepRow:
    beta: float
    compression: float
    relevance: float
    objective: float
    effective_k: int
    iterations: int


@dataclass(frozen=True)
class BetaSweepResult:
    """Relevance-compression curve over a beta grid.

    ``suggested_beta`` marks the largest-magnitude second difference of
    I(T, Y) along the grid (a curvature hint, not a decision); None when the
    grid has fewer than three points.
    """

    rows: tuple
    suggested_beta: float = None

    def as_columns(self) -> dict:
        return {f.name: [getattr(r, f.name) for r in self.rows] for f in fields(BetaSweepRow)}


def beta_sweep(
    ds: MixedDataset,
    k: int,
    bw: Bandwidths,
    betas,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
    threads: int = 1,
) -> BetaSweepResult:
    """Fit once per beta (same seed, so initializations are shared) and
    tabulate H(T), I(T, Y) and the effective cluster count.  ``betas`` must
    be strictly increasing, so that grid neighbours are curve neighbours."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be non-empty")
    if not all(0 <= b < math.inf for b in betas):  # NaN fails too
        raise ValueError("betas must be finite and nonnegative")
    if not all(lo < hi for lo, hi in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    density = estimate_conditional(ds, bw)
    rows = []
    for beta in betas:
        res = dib_fit_density(
            density, ds.weights, k, beta, restarts=restarts, max_iter=max_iter,
            rng_seed=rng_seed, threads=threads,
        )
        rows.append(_project(BetaSweepRow, res))
    suggested = None
    if len(rows) >= 3:
        b = np.array([r.beta for r in rows])
        i_ty = np.array([r.relevance for r in rows])
        curv = np.abs(_second_divided_difference(b, i_ty))
        suggested = float(b[1:-1][int(np.argmax(curv))])
    return BetaSweepResult(rows=tuple(rows), suggested_beta=suggested)


def _second_divided_difference(x, y):
    """2 * [y_{i-1}, y_i, y_{i+1}] divided differences (uneven spacing ok)."""
    left = (y[1:-1] - y[:-2]) / (x[1:-1] - x[:-2])
    right = (y[2:] - y[1:-1]) / (x[2:] - x[1:-1])
    return 2.0 * (right - left) / (x[2:] - x[:-2])
