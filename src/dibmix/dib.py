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

Restarts advance in lock-step: the decoders of every chain in a block are
stacked, so each iteration reads p(y | x) once for the scores of all chains
and once for all their decoder refreshes.  A chain leaves the block when it
converges, cycles or reaches its iteration cap.  ``threads > 1`` splits the
restarts into contiguous blocks run on a thread pool.  Each chain's
arithmetic does not depend on the block it runs in, so results are
bit-identical for any thread count.

Reference: Strouse, DJ and Schwab, D.J. (2017). The deterministic
information bottleneck. Neural Computation 29.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse

from .dataset import MixedDataset
from .errors import DegenerateSmoothingError
from .infotheory import entropy, mutual_information
from .kernels import Bandwidths, ConditionalDensity, DEFAULT_MAX_N, estimate_conditional
from .seeding import STREAM_RESTART, derive_seed

DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 100

_TRACE_RISE_TOL = 1e-12

# Each stacked per-block array (the decoders, the log-decoders, the scores)
# holds n x C*k doubles for C chains.  A block is
# sized so that each stays within 1/16 of the n x n density, or within 256 KiB
# where the density is so small that per-call overhead would dominate.
_BLOCK_SHARE = 16
_BLOCK_FLOOR = 1 << 15


@dataclass(frozen=True)
class Encoder:
    """Hard cluster assignment plus the derived masses and decoder.

    ``assign`` maps observation index to cluster label in {0..k-1};
    ``masses`` is q(t); ``decoder`` is the k x n matrix q(y | t), zero rows
    for empty clusters (their conditional is undefined).  ``decoder`` is
    None until the encoder has been refreshed against a density.
    """

    assign: np.ndarray
    masses: np.ndarray
    decoder: np.ndarray = None

    def __post_init__(self):
        assign = np.ascontiguousarray(np.asarray(self.assign, dtype=np.int64))
        masses = np.ascontiguousarray(np.asarray(self.masses, dtype=float))
        assign.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "masses", masses)
        if self.decoder is not None:
            dec = np.ascontiguousarray(np.asarray(self.decoder, dtype=float))
            dec.flags.writeable = False
            object.__setattr__(self, "decoder", dec)

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


def init_random(n: int, k: int, rng_seed: int) -> Encoder:
    """Assign each observation independently and uniformly to one of k
    clusters; masses use uniform weights, decoder is left unset."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(rng_seed)
    assign = rng.integers(0, k, size=n)
    masses = np.bincount(assign, minlength=k) / n
    return Encoder(assign=assign, masses=masses)


def _score_step(masses, decoder, density, beta):
    """One synchronous scoring pass for a stack of C chains.

    ``masses`` is (C, k) and ``decoder`` (C, k, n); returns the new
    assignments, (C, n).  score[x, t] = log q(t) - beta * KL(p(.|x) || q(.|t)).
    Uses einsum rather than BLAS so results are bit-identical regardless of
    ambient threading.
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
        cross = np.einsum("xy,ty->xt", p, log_decoder)
        kl = density.neg_entropy[:, None] - cross
        if density.has_zeros:
            # p(y|x) > 0 meeting q(y|t) = 0 makes the KL infinite for that
            # pair.  A sum of nonnegative terms is positive exactly when one
            # term is, so p itself serves as the support indicator.
            hits = np.einsum("xy,ty->xt", p, (decoder == 0).astype(float))
            kl[(hits > 0) & (masses > 0)[None, :]] = np.inf
        score = log_masses[None, :] - beta * kl
    score[:, masses == 0] = -np.inf
    score = score.reshape(n, chains, k)
    if np.any(np.isneginf(score.max(axis=2))):
        raise DegenerateSmoothingError(
            "some observation has no cluster with finite score; categorical "
            "support is disconnected under zero-lambda smoothing"
        )
    return np.argmax(score, axis=2).T  # ties resolve to the smallest cluster index


def dib_step(enc: Encoder, density: ConditionalDensity, beta: float, weights) -> Encoder:
    """One synchronous update of the encoder against a fixed density."""
    weights = np.asarray(weights, dtype=float)
    if enc.assign.shape[0] != density.n:
        raise ValueError("encoder and density dimensions differ")
    if enc.decoder is None:
        enc = Encoder.from_assignment(enc.assign, enc.k, density, weights)
    assign = _score_step(enc.masses[None], enc.decoder[None], density, beta)
    return Encoder.from_assignment(assign[0], enc.k, density, weights)


def objective(enc: Encoder, density: ConditionalDensity, beta: float):
    """Return (H(T) - beta * I(T, Y), H(T), I(T, Y)) for an encoder."""
    if enc.decoder is None:
        raise ValueError("encoder has no decoder; refresh it against the density first")
    h = entropy(enc.masses)
    joint = enc.masses[:, None] * enc.decoder
    i = mutual_information(joint)
    return h - beta * i, h, i


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
class DibResult:
    """Best-of-restarts solution with its trace and per-restart summaries."""

    encoder: Encoder
    beta: float
    objective: float
    compression: float
    relevance: float
    iterations: int
    objective_trace: np.ndarray
    effective_k: int
    restart_index: int
    seed: int
    converged: bool
    cycle_detected: bool
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


class _Chain:
    """Bookkeeping of one restart while it runs in a block."""

    def __init__(self, restart_index, seed):
        self.restart_index = restart_index
        self.seed = seed
        self.trace = []
        self.best = None
        self.prev_obj = np.inf
        self.converged = False
        self.cycle = False

    def record(self, enc, obj, h, i, unchanged) -> bool:
        """Log one iteration's encoder; return whether the chain goes on.

        Convergence is detected on the assignment vector.  A rise of the
        objective beyond the tolerance aborts the chain (a cycle); the best
        encoder seen so far is kept either way.
        """
        self.trace.append(obj)
        if self.best is None or obj < self.best[0]:
            self.best = (obj, h, i, enc)
        if unchanged:
            self.converged = True
        elif obj > self.prev_obj + _TRACE_RISE_TOL:
            self.cycle = True
        self.prev_obj = obj
        return not (self.converged or self.cycle)

    def result(self, beta) -> DibResult:
        obj, h, i, enc = self.best
        return DibResult(
            encoder=enc,
            beta=beta,
            objective=obj,
            compression=h,
            relevance=i,
            iterations=len(self.trace),
            objective_trace=np.array(self.trace),
            effective_k=enc.effective_k,
            restart_index=self.restart_index,
            seed=self.seed,
            converged=self.converged,
            cycle_detected=self.cycle,
        )


def _run_block(density, weights, k, beta, max_iter, chains):
    """Iterate a block of chains in lock-step; one DibResult per chain."""
    p = density.matrix
    live = chains
    assign = np.stack([init_random(density.n, k, c.seed).assign for c in live])
    masses, decoder = _refresh(assign, k, p, weights)
    for _ in range(max_iter):
        new_assign = _score_step(masses, decoder, density, beta)
        masses, decoder = _refresh(new_assign, k, p, weights)
        going = []
        for row, chain in enumerate(live):
            enc = Encoder(
                assign=new_assign[row], masses=masses[row], decoder=decoder[row].copy()
            )
            obj, h, i = objective(enc, density, beta)
            unchanged = bool(np.array_equal(new_assign[row], assign[row]))
            if chain.record(enc, obj, h, i, unchanged):
                going.append(row)
        if not going:
            break
        live = [live[row] for row in going]
        assign, masses, decoder = new_assign[going], masses[going], decoder[going]
    return [c.result(beta) for c in chains]


def _block_bounds(restarts, n, k, threads):
    """Contiguous restart ranges, at least ``threads`` of them, each small
    enough for the stacked-array budget above."""
    per_block = max(1, max(n * n // _BLOCK_SHARE, _BLOCK_FLOOR) // (n * k))
    count = max(-(-restarts // per_block), min(threads, restarts))
    return [(b * restarts // count, (b + 1) * restarts // count) for b in range(count)]


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
    identical for any thread count.
    """
    if restarts < 1 or max_iter < 1:
        raise ValueError("restarts and max_iter must be >= 1")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    n = density.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    weights = np.asarray(weights, dtype=float)

    def run(bounds):
        chains = [_Chain(r, derive_seed(rng_seed, STREAM_RESTART, r)) for r in range(*bounds)]
        return _run_block(density, weights, k, beta, max_iter, chains)

    blocks = _block_bounds(restarts, n, k, threads)
    if len(blocks) > 1 and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = [run(b) for b in blocks]
    results = [r for part in parts for r in part]
    best = min(results, key=lambda r: (r.objective, r.restart_index))
    summary = tuple(_project(RestartSummary, r) for r in results)
    return replace(best, restart_summary=summary)


def dib_fit(
    ds: MixedDataset,
    k: int,
    beta: float,
    bw: Bandwidths,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    rng_seed: int = 0,
    threads: int = 1,
    max_n: int = DEFAULT_MAX_N,
) -> DibResult:
    """Estimate the conditional density for ``ds`` and fit the encoder."""
    density = estimate_conditional(ds, bw, max_n=max_n)
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
    max_n: int = DEFAULT_MAX_N,
) -> BetaSweepResult:
    """Fit once per beta (same seed, so initializations are shared) and
    tabulate H(T), I(T, Y) and the effective cluster count.  ``betas`` must
    be strictly increasing, so that grid neighbours are curve neighbours."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be non-empty")
    if any(b < 0 for b in betas):
        raise ValueError("betas must be nonnegative")
    if not all(lo < hi for lo, hi in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    density = estimate_conditional(ds, bw, max_n=max_n)
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
