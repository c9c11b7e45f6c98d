"""Shared test helpers: dataset factories and independent oracles.

The oracle functions deliberately use a different computational route than
the library (explicit loops, exact integer arithmetic, quadrature) so that
agreement is evidence, not tautology.
"""

import os
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dibmix import CATEGORICAL, CONTINUOUS, MixedDataset, VariableSchema, default_gamma
from dibmix.baselines import _pam_build
from dibmix.dib import (
    _TRACE_RISE_TOL,
    DegenerateSmoothingError,
    Encoder,
    RestartSummary,
    _check_weights,
    _score_step,
    init_random,
    objective,
)
from dibmix.seeding import STREAM_RESTART, derive_seed

# The argv of a two-cell benchmark (six rows) that runs in well under a second.
TINY_BENCHMARK = ["benchmark", "--ns", "20", "--p-cs", "1", "--p-ds", "1", "--levels", "2",
                  "--overlaps-cont", "0.3", "--overlaps-cat", "0.3", "--replicates", "1",
                  "--restarts", "2"]


def make_dataset(continuous=None, categorical=None, levels=(), weights=None):
    """Small literal-dataset factory for hand-constructed cases."""
    cont = np.empty((0, 0)) if continuous is None else np.asarray(continuous, dtype=float)
    if cont.ndim == 1:
        cont = cont[:, None]
    cat = None if categorical is None else np.asarray(categorical, dtype=np.int64)
    if cat is not None and cat.ndim == 1:
        cat = cat[:, None]
    n = cont.shape[0] if cont.size or cat is None else cat.shape[0]
    if cont.size == 0:
        cont = np.empty((n, 0))
    if cat is None:
        cat = np.empty((n, 0), dtype=np.int64)
    schema = [VariableSchema(f"x{j}", CONTINUOUS) for j in range(cont.shape[1])]
    schema += [
        VariableSchema(f"c{j}", CATEGORICAL, tuple(f"v{v}" for v in range(l)))
        for j, l in enumerate(levels)
    ]
    kw = {} if weights is None else {"weights": np.asarray(weights, dtype=float)}
    return MixedDataset(schema=tuple(schema), continuous=cont, categorical=cat, **kw)


def random_mixed_dataset(rng, n=None, p_cont=None, p_cat=None, max_levels=6):
    """Random dataset with a random mixed schema (at least one variable)."""
    if n is None:
        n = int(rng.integers(2, 201))
    if p_cont is None:
        p_cont = int(rng.integers(0, 4))
    if p_cat is None:
        p_cat = int(rng.integers(0 if p_cont else 1, 4))
    if p_cont + p_cat == 0:
        p_cont = 1
    schema = [VariableSchema(f"x{j}", CONTINUOUS) for j in range(p_cont)]
    levels = [int(rng.integers(2, max_levels + 1)) for _ in range(p_cat)]
    schema += [
        VariableSchema(f"c{j}", CATEGORICAL, tuple(f"v{v}" for v in range(l)))
        for j, l in enumerate(levels)
    ]
    continuous = rng.standard_normal((n, p_cont))
    categorical = np.column_stack(
        [rng.integers(0, l, size=n) for l in levels]
    ) if p_cat else np.empty((n, 0), dtype=np.int64)
    return MixedDataset(schema=tuple(schema), continuous=continuous, categorical=categorical)


def random_bandwidths(rng, ds):
    """Valid random bandwidths for a dataset."""
    s = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
    lam = np.array([
        rng.uniform(0.0, (l - 1) / l) for l in ds.n_levels
    ])
    from dibmix import Bandwidths

    return Bandwidths(s=s, lam=lam)


def ari_pair_counting(a, b) -> float:
    """Brute-force ARI: classify every unordered pair and apply the
    pair-count identity ARI = 2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d)),
    evaluated in exact rational arithmetic."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b) and len(a) >= 1
    ss = sd = ds = dd = 0
    for i, j in combinations(range(len(a)), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            ss += 1
        elif same_a:
            sd += 1
        elif same_b:
            ds += 1
        else:
            dd += 1
    denominator = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denominator == 0:
        return 1.0
    return float(Fraction(2 * (ss * dd - sd * ds), denominator))


def set_partitions(items):
    """All set partitions of ``items`` as label vectors (restricted growth)."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(prefix, max_label):
        i = len(prefix)
        if i == len(items):
            yield list(prefix)
            return
        for label in range(max_label + 2):
            yield from rec(prefix + [label], max(max_label, label))

    yield from rec([], -1)


def entropy_oracle(p) -> float:
    """Entropy by plain Python accumulation."""
    total = 0.0
    for v in p:
        if v > 0:
            total -= float(v) * float(np.log(v))
    return total


def mutual_information_oracle(joint) -> float:
    """MI from entropies: H(row) + H(col) - H(joint)."""
    joint = np.asarray(joint, dtype=float)
    return (
        entropy_oracle(joint.sum(axis=1))
        + entropy_oracle(joint.sum(axis=0))
        - entropy_oracle(joint.ravel())
    )


def product_kernel_oracle(ds, i, j, s, lam) -> float:
    """Slow per-variable product kernel with explicit scalar math; ``s`` is
    one bandwidth shared by the continuous variables or one per variable."""
    s = np.broadcast_to(np.asarray(s, dtype=float), (ds.p_cont,))
    value = 1.0
    for c in range(ds.p_cont):
        diff = ds.continuous[i, c] - ds.continuous[j, c]
        value *= float(np.exp(-(diff**2) / (2 * s[c] ** 2)) / np.sqrt(2 * np.pi))
    for d in range(ds.p_cat):
        l = ds.categorical_vars[d].n_levels
        if ds.categorical[i, d] == ds.categorical[j, d]:
            value *= 1.0 - (l - 1) * (lam[d] / (l - 1))
        else:
            value *= lam[d] / (l - 1)
    return value


def overlap_quadrature(delta: float) -> float:
    """Overlap area of N(0,1) and N(delta,1) by numeric integration of the
    pointwise minimum of the two densities."""
    from scipy.integrate import quad

    def integrand(x):
        a = np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
        b = np.exp(-((x - delta) ** 2) / 2) / np.sqrt(2 * np.pi)
        return min(a, b)

    lo, hi = -12.0, delta + 12.0
    value, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
    return value


def dib_objective_oracle(assign, density_matrix, weights, beta, k):
    """H(T) - beta * I(T, Y) by direct summation over the joint q(t, y)."""
    n = len(assign)
    joint = np.zeros((k, n))
    for x in range(n):
        joint[assign[x]] += weights[x] * density_matrix[x]
    q_t = joint.sum(axis=1)
    p_y = joint.sum(axis=0)
    h = entropy_oracle(q_t)
    i = 0.0
    for t in range(k):
        for y in range(n):
            if joint[t, y] > 0:
                i += joint[t, y] * np.log(joint[t, y] / (q_t[t] * p_y[y]))
    return h - beta * i, h, i


def _masses_and_decoder_oracle(assign, k, p_matrix, weights):
    """Per-cluster decoder refresh over the member rows of p."""
    masses = np.bincount(assign, weights=weights, minlength=k)
    decoder = np.zeros((k, p_matrix.shape[0]))
    for t in range(k):
        members = assign == t
        if masses[t] > 0:
            decoder[t] = np.einsum("x,xy->y", weights[members], p_matrix[members])
            decoder[t] /= masses[t]
    return masses, decoder


def refresh_oracle(assign, k, p_matrix, weights):
    """``dib._refresh`` through SciPy's public CSC-by-dense product, which
    checks its inputs and runs the same compiled kernel: masses (C, k) and
    decoders (C, k, n) of the stack ``assign`` (C, n)."""
    from scipy import sparse

    chains, n = assign.shape
    cols = assign + k * np.arange(chains)[:, None]
    masses = np.bincount(cols.ravel(), weights=np.tile(weights, chains), minlength=chains * k)
    onehot = sparse.csc_matrix(
        (np.repeat(weights, chains), cols.T.ravel(), np.arange(0, n * chains + 1, chains)),
        shape=(chains * k, n),
    )
    decoder = onehot @ p_matrix
    np.divide(decoder, masses[:, None], out=decoder, where=(masses > 0)[:, None])
    return masses.reshape(chains, k), decoder.reshape(chains, k, n)


def _score_step_oracle(masses, decoder, p_matrix, row_neg_entropy, beta, has_zeros):
    """Scores of one chain's k clusters; returns the argmax assignment."""
    with np.errstate(divide="ignore"):
        log_masses = np.log(masses)
        log_decoder = np.where(decoder > 0, np.log(np.where(decoder > 0, decoder, 1.0)), 0.0)
    if beta == 0:
        score = np.broadcast_to(log_masses, (p_matrix.shape[0], masses.shape[0])).copy()
    else:
        cross = np.einsum("xy,ty->xt", p_matrix, log_decoder)
        kl = row_neg_entropy[:, None] - cross
        if has_zeros:
            hits = np.einsum(
                "xy,ty->xt", (p_matrix > 0).astype(float), (decoder == 0).astype(float)
            )
            kl[(hits > 0) & (masses > 0)[None, :]] = np.inf
        score = log_masses[None, :] - beta * kl
    score[:, masses == 0] = -np.inf
    if np.any(np.isneginf(score.max(axis=1))):
        raise DegenerateSmoothingError("no cluster with finite score")
    return np.argmax(score, axis=1)


def dib_step(enc, density, beta, weights):
    """One synchronous update of the encoder against a fixed density, through
    the library's own score step and refresh."""
    if enc.assign.shape[0] != density.n:
        raise ValueError("encoder and density dimensions differ")
    weights = _check_weights(weights, density.n)
    assign = _score_step(enc.masses[None], enc.decoder[None], density, beta)
    return Encoder.from_assignment(assign[0], enc.k, density, weights)


def row_neg_entropy_oracle(p):
    """sum_y p(y|x) log p(y|x) of every row x, over the whole matrix at once."""
    return np.einsum("xy,xy->x", p, np.log(np.where(p > 0, p, 1.0)))


def _run_chain_oracle(density, weights, k, beta, max_iter, seed, restart_index):
    """One restart iterated alone to convergence, a cycle or ``max_iter``."""
    p = density.matrix
    has_zeros = bool(np.any(p == 0))
    row_neg_entropy = row_neg_entropy_oracle(p)
    assign = init_random(p.shape[0], k, seed)
    masses, decoder = _masses_and_decoder_oracle(assign, k, p, weights)
    states = [assign.tobytes()]
    trace = []
    best = None
    converged = cycle = False
    prev_obj = np.inf
    for _ in range(max_iter):
        new_assign = _score_step_oracle(masses, decoder, p, row_neg_entropy, beta, has_zeros)
        unchanged = bool(np.array_equal(new_assign, assign))
        assign = new_assign
        states.append(assign.tobytes())
        masses, decoder = _masses_and_decoder_oracle(assign, k, p, weights)
        enc = Encoder(assign=assign, masses=masses, decoder=decoder)
        obj, h, i = objective(enc, density, beta, weights)
        trace.append(obj)
        if best is None or obj < best[0]:
            best = (obj, h, i, enc)
        if unchanged:
            converged = True
            break
        if obj > prev_obj + _TRACE_RISE_TOL:
            cycle = True
            break
        prev_obj = obj
    obj, h, i, enc = best
    summary = RestartSummary(
        restart_index=restart_index, seed=seed, objective=obj, compression=h,
        relevance=i, iterations=len(trace), effective_k=enc.effective_k,
        converged=converged, cycle_detected=cycle,
    )
    return summary, enc.assign, np.array(trace), states


def _run_chains_oracle(density, weights, k, beta, restarts, max_iter, rng_seed):
    weights = np.asarray(weights, dtype=float)
    return [
        _run_chain_oracle(
            density, weights, k, beta, max_iter,
            derive_seed(rng_seed, STREAM_RESTART, r), r,
        )
        for r in range(restarts)
    ]


def dib_fit_density_oracle(density, weights, k, beta, restarts, max_iter, rng_seed):
    """Restarts run one after another, each chain on its own; returns the
    restart summaries and the winner's assignment and objective trace."""
    chains = _run_chains_oracle(density, weights, k, beta, restarts, max_iter, rng_seed)
    best = min(chains, key=lambda c: (c[0].objective, c[0].restart_index))
    return tuple(c[0] for c in chains), best[1], best[2]


def dib_chain_states_oracle(density, weights, k, beta, restarts, max_iter, rng_seed):
    """Per restart, its summary and the assignments its chain visits, as
    int64 bytes, the random start first."""
    chains = _run_chains_oracle(density, weights, k, beta, restarts, max_iter, rng_seed)
    return [(c[0], c[3]) for c in chains]


def _nearest_oracle(d, medoids):
    """Distance from every point to its nearest medoid, by sorting."""
    if len(medoids) == 0:
        return np.full(d.shape[0], np.inf)
    return np.sort(d[:, list(medoids)], axis=1)[:, 0]


def pam_swap_oracle(d, medoids, max_iter):
    """SWAP from one start alone, with no memo and no cost cache: the best
    strictly-improving swap per pass until none exists or ``max_iter``
    passes ran.  Swapping a medoid for h sends every point to the nearer of
    h and its nearest remaining medoid."""
    n = d.shape[0]
    medoids = list(medoids)
    for _ in range(max_iter):
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        best_cost, best_swap = float(_nearest_oracle(d, medoids).sum()), None
        for pos in range(len(medoids)):
            e = _nearest_oracle(d, np.delete(medoids, pos))
            after = np.minimum(e[:, None], d).sum(axis=0)
            after[is_medoid] = np.inf
            h = int(np.argmin(after))
            if after[h] < best_cost - 1e-12:
                best_cost, best_swap = float(after[h]), (pos, h)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
    return medoids


def pam_fit_oracle(d, k, restarts, max_iter, rng_seed):
    """PAM with every restart's SWAP run from scratch."""
    best = None
    for r in range(restarts):
        if r == 0:
            medoids = _pam_build(d, k)
        else:
            rng = np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r))
            medoids = list(rng.choice(d.shape[0], size=k, replace=False))
        medoids = pam_swap_oracle(d, medoids, max_iter)
        cost = float(_nearest_oracle(d, medoids).sum())
        if best is None or cost < best[0] - 1e-12:
            best = (cost, medoids)
    return np.argmin(d[:, sorted(best[1])], axis=1)


def _kproto_costs_oracle(ds, centers, modes, gamma):
    cost = np.zeros((ds.n, centers.shape[0]))
    if ds.p_cont:
        diff = ds.continuous[:, None, :] - centers[None, :, :]
        cost += np.einsum("itj,itj->it", diff, diff)
    if ds.p_cat:
        cost += gamma * (ds.categorical[:, None, :] != modes[None, :, :]).sum(axis=2)
    return cost


def kproto_chain_oracle(ds, k, gamma, max_iter, start):
    """One K-Prototypes chain alone, from prototypes on the points ``start``,
    with per-cluster means and modes; returns (labels, objective, trace)."""
    n = ds.n
    centers = ds.continuous[start].astype(float)
    modes = ds.categorical[start].copy()
    labels = None
    trace = []
    for _ in range(max_iter):
        cost = _kproto_costs_oracle(ds, centers, modes, gamma)
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
                modes[t, j] = int(np.argmax(np.bincount(ds.categorical[members, j])))
        for t in range(k):
            if not np.any(labels == t):
                worst = int(np.argmax(point_cost))
                centers[t] = ds.continuous[worst]
                modes[t] = ds.categorical[worst]
                point_cost[worst] = -np.inf
        step_cost = _kproto_costs_oracle(ds, centers, modes, gamma)
        trace.append(float(step_cost[np.arange(n), labels].sum()))
    cost = _kproto_costs_oracle(ds, centers, modes, gamma)
    return labels, float(cost[np.arange(n), labels].sum()), tuple(trace)


def kproto_starts(n, k, restarts, rng_seed):
    """The points each K-Prototypes restart's prototypes start on."""
    return np.array([
        np.random.default_rng(derive_seed(rng_seed, STREAM_RESTART, r)).choice(
            n, size=k, replace=False)
        for r in range(restarts)
    ])


def kprototypes_fit_oracle(ds, k, gamma=None, restarts=100, max_iter=100, rng_seed=0):
    """K-Prototypes with every restart run alone."""
    gamma = default_gamma(ds) if gamma is None else gamma
    best = None
    for start in kproto_starts(ds.n, k, restarts, rng_seed):
        labels, obj, _ = kproto_chain_oracle(ds, k, gamma, max_iter, start)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, labels)
    return best[1]


@pytest.fixture(scope="session")
def data_dir() -> str:
    """Directory holding user-supplied real datasets (optional)."""
    return os.environ.get("DIBMIX_DATA_DIR", os.path.join(os.getcwd(), "data"))
