"""Deterministic information bottleneck clustering.

Each observation x carries an estimated conditional density p(y | x) over
the observed locations.  A hard encoder t(x) is sought that minimizes

    H(T) - beta * I(T, Y),

trading compression (few, dense clusters) against relevance (cluster labels
that pin down location).  The solver alternates, from a random hard
assignment, between scoring

    score(x, t) = log q(t) - beta * KL(p(. | x) || q(. | t))

and reassigning every x to its argmax cluster, then refreshing the cluster
masses q(t) and the cluster-conditional decoder q(y | t).  The entropy of
p(. | x) in the KL is the same for every t, so each chain's scores are taken
relative to its own cluster 0: the cross terms of the k - 1 differences
log q(y | t) - log q(y | 0), and no row entropies.  Updates are
synchronous: every score in iteration m uses the iteration m-1 quantities.
Empty clusters score -inf and therefore stay empty, which is what lets the
method prune clusters (reported as ``effective_k``).

The update is a pure function of the hard assignment, so the restarts of
one fit walk together with ``lockstep.walk``.  A node is one exact
assignment vector, keyed by its labels' bytes; the fit's memo holds each
node's masses and objective, and its decoder until its successor is known.
Each round stacks the decoders of the distinct nodes that waiting chains
stand on, so p(y | x) is read once to score them all, and once more to
refresh the states that are new; a chain steps along successors already
known for free.  Restarts that meet share the rest of one trajectory, and
no state is scored or refreshed twice.  A chain stops when it converges,
cycles or reaches its cap, and its trace, best state and flags are read off
its path.  ``lockstep.stacks`` cuts a stacked pass into slices within a
memory budget; ``threads > 1`` cuts it into at least that many and runs
them on a thread pool.  A node's arithmetic does not depend on its slice,
so neither the work done nor the result depends on the thread count.  The
objective is summed per cluster in sorted order, so restarts that reach one
partition under different labels tie exactly and the lowest restart index
wins.

Reference: Strouse, DJ and Schwab, D.J. (2017). The deterministic
information bottleneck. Neural Computation 29.
"""

import importlib.util
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from . import lockstep
from .dataset import MixedDataset
from .errors import DegenerateSmoothingError
from .infotheory import _as_distribution
from .kernels import Bandwidths, ConditionalDensity, estimate_conditional
from .lockstep import DEFAULT_MAX_ITER
from .seeding import STREAM_RESTART, derive_seed

DEFAULT_RESTARTS = 100

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
        """The encoder of the labels ``assign``, n integers in 0..k-1, refreshed
        against ``density`` with observation ``weights``; the arguments are
        checked before the unchecked kernel of ``_refresh`` reads them."""
        k = lockstep.check_count("k", k)
        weights = _check_weights(weights, density.n)
        assign = np.asarray(assign)
        if assign.shape != (density.n,):
            raise ValueError(f"assign has shape {assign.shape}, expected ({density.n},)")
        if assign.dtype.kind not in "iu":
            raise ValueError(f"assign must hold integer labels, got dtype {assign.dtype}")
        low, high = (int(assign.min()), int(assign.max())) if assign.size else (0, 0)
        if not 0 <= low <= high < k:
            raise ValueError(f"assign must hold labels in 0..{k - 1}, got {low}..{high}")
        assign = assign.astype(np.int64)
        masses, decoder = _refresh(assign[None, :], k, density.matrix, weights)
        return cls(assign=assign, masses=masses[0], decoder=decoder[0])


def _load_sparsetools():
    """SciPy's compiled sparse kernels, loaded from their file so that
    ``scipy.sparse`` (some 300 modules and 20 MB for the one kernel used
    here) is never imported.  A copy that ``scipy.sparse`` already loaded is
    reused.  Otherwise the extension registers itself in ``sys.modules`` and
    is taken out again, so a later ``import scipy.sparse`` binds it as usual."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("dibmix needs SciPy, which is not installed", name="scipy")
    stems = [os.path.join(root, "sparse", "_sparsetools")
             for root in scipy_spec.submodule_search_locations]
    for path in (stem + suffix for stem in stems for suffix in EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    raise ImportError(f"SciPy's compiled sparse kernels are missing: no {' or '.join(stems)}"
                      f" with a suffix in {EXTENSION_SUFFIXES}", name=name)


_sparsetools = _load_sparsetools()


def _refresh(assign, k, p_matrix, weights):
    """Masses and decoders of a stack of C hard encoders, ``assign`` (C, n).

    q_r(t) = sum_x w(x) [t_r(x)=t];  q_r(y|t) = sum_x w(x) p(y|x) [t_r(x)=t] / q_r(t).
    Row r*k + t of a (C*k, n) one-hot matrix in CSC form holds w(x) where
    t_r(x) = t, one entry per chain in each column x, so SciPy's compiled
    ``csc_matvecs`` yields every decoder row from C*n^2 multiply-adds.  It
    walks the columns x in ascending order and adds w(x) p(x, .) to each
    chain's row of t_r(x), so every decoder row is summed in x order,
    bit-identical whatever the stack height; BLAS is not involved.  The
    kernel checks neither bounds nor shapes: the caller passes labels in
    0..k-1 and an (n, n) ``p_matrix``.  Returns masses (C, k) and decoders
    (C, k, n).
    """
    chains, n = assign.shape
    cols = assign.astype(np.intp) + k * np.arange(chains, dtype=np.intp)[:, None]
    weights = np.asarray(weights, dtype=np.float64)
    # bincount adds each bin's weights in x order, as a per-chain bincount does.
    masses = np.bincount(cols.ravel(), weights=np.tile(weights, chains), minlength=chains * k)
    decoder = np.zeros((chains * k, n))
    _sparsetools.csc_matvecs(
        chains * k, n, n,
        np.arange(0, n * chains + 1, chains, dtype=np.intp), cols.T.ravel(),
        np.repeat(weights, chains),
        np.ascontiguousarray(p_matrix, dtype=np.float64).reshape(-1), decoder.reshape(-1),
    )
    np.divide(decoder, masses[:, None], out=decoder, where=(masses > 0)[:, None])
    return masses.reshape(chains, k), decoder.reshape(chains, k, n)


def init_random(n: int, k: int, rng_seed: int) -> np.ndarray:
    """Assign each observation independently and uniformly to one of k
    clusters; returns the int64 assignment vector."""
    lockstep.check(k, n, 1, 1, rng_seed)
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
    assignments, (C, n).  Each chain is scored against its own cluster 0:

        score'(x, t) = log q(t) + beta * sum_y p(y|x) (log q(y|t) - log q(y|0)),

    with log 0 read as 0.  For each x and chain this is log q(t) -
    beta * KL(p(.|x) || q(.|t)) plus a term that does not depend on t, so
    the argmax is the same, and only the k - 1 relative columns need a
    ``_row_dots`` cross term: none at k = 1 or beta = 0.
    """
    chains, k, n = decoder.shape
    masses = masses.reshape(chains * k)
    with np.errstate(divide="ignore"):
        score = np.broadcast_to(np.log(masses), (n, chains * k)).copy()
    if beta > 0:
        p = density.matrix
        if k > 1:
            # log q(y|t) in place, dropped once the relative columns exist
            relative = np.where(decoder > 0, decoder, 1.0)
            np.log(relative, out=relative)
            relative = (relative[:, 1:] - relative[:, :1]).reshape(chains * (k - 1), n)
            cross = _row_dots(p, relative).reshape(n, chains, k - 1)
            cross *= beta
            score.reshape(n, chains, k)[:, :, 1:] += cross
        if density.has_zeros:
            # p(y|x) > 0 meeting q(y|t) = 0 makes the KL infinite for that
            # pair.  A sum of nonnegative terms is positive, in any order,
            # exactly when one term is, so one BLAS product decides it the
            # same at any thread count or stack width.
            hits = p @ (decoder == 0).reshape(chains * k, n).T
            score[(hits > 0) & (masses > 0)[None, :]] = -np.inf
    score[:, masses == 0] = -np.inf
    score = score.reshape(n, chains, k)
    best = np.argmax(score, axis=2)  # ties resolve to the smallest cluster index
    if np.any(np.isneginf(np.take_along_axis(score, best[:, :, None], axis=2))):
        raise DegenerateSmoothingError(
            "some observation has no cluster with finite score: p(y|x) has "
            "exact zeros, from a zero lambda or from an s so small that the "
            "Gaussian kernel underflows; try a larger --s or --lambda"
        )
    return best.T


def _check_weights(weights, n):
    """``weights`` as floats: n finite, nonnegative values summing to 1."""
    weights = _as_distribution(weights, "weights")
    if weights.shape != (n,):
        raise ValueError(f"weights have length {weights.shape[0]}, expected {n}")
    return weights


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
    lockstep.check_range("beta", beta)
    if enc.decoder.shape != (enc.k, density.n):
        raise ValueError(f"decoder has shape {enc.decoder.shape}, expected (k, n) = "
                         f"({enc.k}, {density.n})")
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
    threads = lockstep.check_count("threads", threads)
    lockstep.check_range("beta", beta)
    n = density.n
    lockstep.check(k, n, restarts, max_iter, rng_seed)
    weights = _check_weights(weights, n)
    p_y = _marginal(density.matrix, weights)
    dtype = np.min_scalar_type(k - 1)
    per_stack = max(1, max(n * n // _STACK_SHARE, _STACK_FLOOR) // (n * k))
    # The memo of every state the chains reach, keyed by its labels' bytes:
    # masses, (objective, H, I), and the decoder until the state is scored.
    # Worker threads compute slices of a pass; only this thread touches it.
    masses, decoders, scores = {}, {}, {}

    def stacked(fn, items):
        """``fn`` over the slices of a stacked pass; the items of its outputs."""
        return [out for part in mapper(fn, lockstep.stacks(items, per_stack, threads))
                for out in part]

    def refresh(assign):
        q, decoder = _refresh(assign, k, density.matrix, weights)
        return zip(q, decoder, *_objectives(q, decoder, p_y, beta))

    def add(assign):
        """The keys of the rows of ``assign`` (C, n); the states not seen
        before are refreshed and scored in one stacked pass."""
        keys = [row.tobytes() for row in assign.astype(dtype)]
        fresh = {key: row for row, key in enumerate(keys) if key not in scores}
        states = stacked(refresh, assign[list(fresh.values())])
        for key, (q, decoder, obj, h, i) in zip(fresh, states):
            masses[key], decoders[key], scores[key] = q, decoder, (obj.item(), h.item(), i.item())
        return keys

    def score(keys):
        return _score_step(np.stack([masses[u] for u in keys]),
                           np.stack([decoders[u] for u in keys]), density, beta)

    def advance(pending):
        successors = np.array(stacked(score, pending))
        for u in pending:
            del decoders[u]
        return add(successors)

    seeds = [derive_seed(rng_seed, STREAM_RESTART, r) for r in range(restarts)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        mapper = pool.map if threads > 1 else map
        starts = add(np.stack([init_random(n, k, s) for s in seeds]))
        paths = lockstep.walk(starts, advance, max_iter, lambda path: _rises(path, scores))
    runs = []
    for r, (seed, path) in enumerate(zip(seeds, paths)):
        trace, node, converged, cycle = _outcome(path, scores)
        obj, h, i = scores[node]
        summary = RestartSummary(
            restart_index=r, seed=seed, objective=obj, compression=h,
            relevance=i, iterations=len(trace),
            effective_k=int(np.count_nonzero(masses[node] > 0)),
            converged=converged, cycle_detected=cycle,
        )
        runs.append((summary, trace, node))
    summary, trace, node = min(runs, key=lambda r: (r[0].objective, r[0].restart_index))
    return DibResult(
        **vars(summary),
        encoder=Encoder.from_assignment(np.frombuffer(node, dtype=dtype), k, density, weights),
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
    """Estimate the conditional density for ``ds`` and fit the encoder: the
    one-point ``beta_sweep``, so the arguments are checked before the
    density is built."""
    return beta_sweep(ds, k, bw, [beta], restarts=restarts, max_iter=max_iter,
                      rng_seed=rng_seed, threads=threads).rows[0]


# The columns of a sweep's curve, in order: attributes of each row's fit.
CURVE_COLUMNS = ("beta", "compression", "relevance", "objective", "effective_k", "iterations")


@dataclass(frozen=True)
class BetaSweepResult:
    """Relevance-compression curve over a beta grid.

    ``rows`` holds the ``DibResult`` of each beta, in grid order, so the
    partition at a beta picked from the curve needs no second fit.
    ``suggested_beta`` marks the largest-magnitude second difference of
    I(T, Y) along the grid (a curvature hint, not a decision); None when the
    grid has fewer than three points.
    """

    rows: tuple
    suggested_beta: float = None

    def as_columns(self) -> dict:
        return {name: [getattr(r, name) for r in self.rows] for name in CURVE_COLUMNS}


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
    """Fit once per beta on one density (same seed, so initializations are
    shared) and keep each fit, the curve of H(T), I(T, Y) and the effective
    cluster count.  ``betas`` must be strictly increasing, so that grid
    neighbours are curve neighbours.  The arguments are checked before the
    density is built."""
    betas = [lockstep.check_range("beta", float(b)) for b in betas]
    if not betas:
        raise ValueError("betas must be non-empty")
    if not all(lo < hi for lo, hi in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    lockstep.check_count("threads", threads)
    lockstep.check(k, ds.n, restarts, max_iter, rng_seed)
    density = estimate_conditional(ds, bw)
    rows = tuple(
        dib_fit_density(density, ds.weights, k, beta, restarts=restarts, max_iter=max_iter,
                        rng_seed=rng_seed, threads=threads)
        for beta in betas
    )
    suggested = None
    if len(rows) >= 3:
        b = np.array([r.beta for r in rows])
        i_ty = np.array([r.relevance for r in rows])
        curv = np.abs(_second_divided_difference(b, i_ty))
        suggested = float(b[1:-1][int(np.argmax(curv))])
    return BetaSweepResult(rows=rows, suggested_beta=suggested)


def _second_divided_difference(x, y):
    """2 * [y_{i-1}, y_i, y_{i+1}] divided differences (uneven spacing ok)."""
    left = (y[1:-1] - y[:-2]) / (x[1:-1] - x[:-2])
    right = (y[2:] - y[1:-1]) / (x[2:] - x[1:-1])
    return 2.0 * (right - left) / (x[2:] - x[:-2])
