"""Output checks computed apart from dibmix.

Every function here recomputes a quantity from first principles with plain
NumPy and returns a list of problems (empty when the output passes).  Nothing
in this module imports dibmix, so a fault in the program cannot also hide in
the reference it is compared against.

Memory: the checks run inside the process whose peak resident memory is a
benchmark metric, so anything that would materialise an extra n x n
temporary is computed in row blocks instead.
"""

from collections import Counter
from math import isfinite, log, pi, sqrt
from statistics import NormalDist

import numpy as np

ROW_BLOCK = 256

# Tolerances, each set from the dtype and the size of the sum involved.
ROW_SUM_ATOL = 1e-10  # one row of <= 10^4 float64 terms
ENTRY_RTOL = 1e-9  # product of <= 12 kernel factors, then one division
BALANCE_RTOL = 1e-6  # the program bisects the balance scale 100 times
OBJECTIVE_RTOL = 1e-9  # entropies summed over n terms
FIXED_POINT_RTOL = 1e-9  # scores are O(beta * log n)
ARI_ATOL = 1e-12

_INV_SQRT_2PI = 1.0 / sqrt(2.0 * pi)


def standardize(continuous):
    """Columns to sample mean 0 and unit variance (n - 1 denominator)."""
    x = np.asarray(continuous, dtype=float)
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def aa_values(lam, levels):
    """Aitchison-Aitken kernel value on a level match and on a mismatch."""
    return 1.0 - lam, lam / (levels - 1)


def kernel_rows(cont, cat, levels, s, lam, rows):
    """Product-kernel values K(i, j) for the given rows i against every j."""
    rows = np.asarray(rows)
    out = np.ones((rows.size, cont.shape[0]))
    for c in range(cont.shape[1]):
        d = cont[rows, c][:, None] - cont[None, :, c]
        out *= np.exp(-(d * d) / (2.0 * s * s)) * _INV_SQRT_2PI
    for c in range(cat.shape[1]):
        match, mismatch = aa_values(lam[c], levels[c])
        out *= np.where(cat[rows, c][:, None] == cat[None, :, c], match, mismatch)
    return out


def density_rows(cont, cat, levels, s, lam, rows):
    """Rows of p(y | x): kernel rows normalised to sum 1."""
    k = kernel_rows(cont, cat, levels, s, lam, rows)
    return k / k.sum(axis=1, keepdims=True)


def _blocks(n):
    for i0 in range(0, n, ROW_BLOCK):
        yield slice(i0, min(n, i0 + ROW_BLOCK))


def full_density(cont, cat, levels, s, lam):
    """The whole n x n density, built a block of rows at a time."""
    n = cont.shape[0]
    p = np.empty((n, n))
    for b in _blocks(n):
        p[b] = density_rows(cont, cat, levels, s, lam, np.arange(b.start, b.stop))
    return p


def check_density(p, marginal, weights, expected_rows):
    """Rows non-negative and summing to 1; ``expected_rows`` (row index ->
    row recomputed from the kernel formula) match; marginal = weights @ p."""
    problems = []
    n = p.shape[0]
    if p.shape != (n, n):
        return [f"density has shape {p.shape}, expected square"]
    if float(p.min()) < 0.0:
        problems.append("density has negative entries")
    worst = max(float(np.abs(p[b].sum(axis=1) - 1.0).max()) for b in _blocks(n))
    if worst > ROW_SUM_ATOL:
        problems.append(f"density row sums miss 1 by up to {worst:.3e}")
    for i, row in expected_rows.items():
        if not np.allclose(p[i], row, rtol=ENTRY_RTOL, atol=0.0):
            err = float(np.max(np.abs(p[i] - row) / row))
            problems.append(f"density row {i} differs from the kernel formula (rel {err:.3e})")
            break
    mine = np.zeros(n)
    for b in _blocks(n):
        mine += weights[b] @ p[b]
    if not np.allclose(marginal, mine, rtol=ENTRY_RTOL, atol=0.0):
        problems.append("marginal differs from weights @ p")
    return problems


def continuous_kernel_variance(cont, s):
    """Mean over continuous variables of the variance of the Gaussian kernel
    value over all n^2 ordered pairs (two passes, row blocks)."""
    n = cont.shape[0]
    variances = []
    for c in range(cont.shape[1]):
        col = cont[:, c]

        def values(b):
            d = col[b, None] - col[None, :]
            return np.exp(-(d * d) / (2.0 * s * s)) * _INV_SQRT_2PI

        mean = sum(float(values(b).sum()) for b in _blocks(n)) / n**2
        variances.append(
            sum(float(((values(b) - mean) ** 2).sum()) for b in _blocks(n)) / n**2
        )
    return float(np.mean(variances))


def categorical_kernel_variance(cat, levels, lam):
    """Mean over categorical variables of the variance of the
    Aitchison-Aitken value over all n^2 ordered pairs, by counting matches."""
    n = cat.shape[0]
    variances = []
    for c in range(cat.shape[1]):
        matches = sum(m * m for m in Counter(cat[:, c].tolist()).values())
        f = matches / n**2
        a, b = aa_values(lam[c], levels[c])
        mean = f * a + (1 - f) * b
        variances.append(f * (a - mean) ** 2 + (1 - f) * (b - mean) ** 2)
    return float(np.mean(variances))


def check_balance(cont, cat, levels, s, lam, categorical_weight=1.0):
    """The balance property of the chosen bandwidths: categorical kernel
    variance = categorical_weight x continuous kernel variance."""
    v_cont = continuous_kernel_variance(cont, s)
    v_cat = categorical_kernel_variance(cat, levels, lam)
    target = categorical_weight * v_cont
    if abs(v_cat - target) > BALANCE_RTOL * target:
        return [f"bandwidths unbalanced: categorical variance {v_cat!r} vs target {target!r}"]
    return []


def masses_and_decoder(p, weights, assign, k):
    """q(t) and q(y | t) from a hard assignment, through a weighted one-hot
    product rather than per-cluster row selections."""
    onehot = np.zeros((p.shape[0], k))
    onehot[np.arange(p.shape[0]), assign] = weights
    masses = onehot.sum(axis=0)
    decoder = np.zeros((k, p.shape[0]))
    for b in _blocks(p.shape[0]):
        decoder += onehot[b].T @ p[b]
    live = masses > 0
    decoder[live] /= masses[live, None]
    return masses, decoder


def ib_objective(masses, decoder, beta):
    """(H(T) - beta * I(T; Y), H(T), I(T; Y)) in nats."""
    q = masses[masses > 0]
    h = -float(np.sum(q * np.log(q)))
    joint = masses[:, None] * decoder
    p_y = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / (masses[:, None] * p_y[None, :])[nz]
    i = float(np.sum(joint[nz] * np.log(ratio)))
    return h - beta * i, h, i


def check_objective(p, weights, assign, k, beta, reported, restart_objectives):
    """The reported objective equals H(T) - beta I(T;Y) recomputed from the
    assignment alone, and no restart reported a lower one."""
    problems = []
    masses, decoder = masses_and_decoder(p, weights, assign, k)
    mine, _, _ = ib_objective(masses, decoder, beta)
    if not abs(mine - reported) <= OBJECTIVE_RTOL * max(1.0, abs(mine)):
        problems.append(f"objective {reported!r} differs from the recomputed {mine!r}")
    lowest = min(restart_objectives)
    if reported > lowest:
        problems.append(f"objective {reported!r} exceeds a restart's objective {lowest!r}")
    return problems


def dib_scores(p, weights, assign, k, beta):
    """score[x, t] = log q(t) - beta KL(p(.|x) || q(.|t)); -inf for empty
    clusters and where p(.|x) puts mass on a zero of q(.|t)."""
    n = p.shape[0]
    masses, decoder = masses_and_decoder(p, weights, assign, k)
    zero = decoder == 0
    log_dec = np.log(np.where(zero, 1.0, decoder))
    scores = np.empty((n, k))
    with np.errstate(divide="ignore"):
        log_q = np.log(masses)
    for b in _blocks(n):
        pb = p[b]
        neg_h = np.sum(pb * np.log(np.where(pb > 0, pb, 1.0)), axis=1)
        kl = neg_h[:, None] - pb @ log_dec.T
        if zero.any():
            kl[((pb > 0).astype(float) @ zero.T.astype(float)) > 0] = np.inf
        scores[b] = log_q[None, :] - beta * kl
    scores[:, masses == 0] = -np.inf
    return scores


def check_fixed_point(p, weights, assign, k, beta):
    """Each point's own cluster scores within tolerance of its row maximum,
    so one more DIB update would leave the assignment where it is."""
    scores = dib_scores(p, weights, assign, k, beta)
    best = scores.max(axis=1)
    own = scores[np.arange(scores.shape[0]), assign]
    slack = FIXED_POINT_RTOL * (1.0 + np.abs(best))
    bad = np.flatnonzero(~(own >= best - slack))
    if bad.size:
        return [f"{bad.size} points would move under one more DIB update (first: {int(bad[0])})"]
    return []


def pair_count_ari(a, b):
    """Adjusted Rand index from the pair confusion counts, in exact integers:
    pairs together in both, in only one, or in neither partition."""
    a = [str(v) for v in a]
    b = [str(v) for v in b]
    if len(a) != len(b):
        raise ValueError("partitions differ in length")
    n = len(a)

    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts.values())

    both = pairs(Counter(zip(a, b)))
    in_a = pairs(Counter(a))
    in_b = pairs(Counter(b))
    total = n * (n - 1) // 2
    tp, fp, fn = both, in_a - both, in_b - both
    tn = total - tp - fp - fn
    denom = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    if denom == 0:
        return 1.0
    return 2 * (tp * tn - fn * fp) / denom


def bayes_labels(raw_cont, cat, overlap_cont, overlap_cat, levels, sizes):
    """Labels of the Bayes rule for the generating two-cluster mixture:
    N(0, 1) vs N(delta, 1) per continuous variable, with
    delta = -2 Phi^-1(overlap / 2), and per categorical variable mass
    1 - overlap on level 0 (cluster 0) or level 1 (cluster 1) plus
    overlap / levels on every level."""
    delta = -2.0 * NormalDist().inv_cdf(overlap_cont / 2.0)
    log_odds = np.full(raw_cont.shape[0], log(sizes[1] / sizes[0]))
    log_odds += np.sum(delta * raw_cont - delta * delta / 2.0, axis=1)
    for c in range(cat.shape[1]):
        base = np.full(levels[c], overlap_cat / levels[c])
        pi0, pi1 = base.copy(), base.copy()
        pi0[0] += 1.0 - overlap_cat
        pi1[1] += 1.0 - overlap_cat
        log_odds += np.log(pi1[cat[:, c]] / pi0[cat[:, c]])
    return (log_odds > 0).astype(int)


def check_ari(truth, assign, floor, reported=None):
    """ARI by pair counting clears ``floor`` and, when the program reported
    one, equals it."""
    mine = pair_count_ari(truth, assign)
    problems = []
    if reported is not None and not abs(mine - reported) <= ARI_ATOL:
        problems.append(f"reported ARI {reported!r} differs from pair counting {mine!r}")
    if not mine >= floor:
        problems.append(f"ARI {mine!r} below the floor {floor!r}")
    return problems


def check_grid_rows(rows, expected_keys, k):
    """Exactly one row per expected (cell, replicate, method) key, each with
    status ok, a finite ARI in [-1, 1] and 1 <= effective_k <= k.  Returns
    (problems, bad_keys)."""
    problems = []
    seen = {}
    for row in rows:
        key = (row.cell, row.replicate, row.method)
        if key in seen:
            problems.append(f"duplicate row {key}")
        seen[key] = row
    bad = set()
    for key in expected_keys:
        row = seen.get(key)
        if row is None:
            bad.add(key)
            problems.append(f"missing row {key}")
        elif row.status != "ok":
            bad.add(key)
            problems.append(f"row {key} has status {row.status!r}: {row.error}")
        elif row.ari is None or not isfinite(row.ari) or not -1.0 <= row.ari <= 1.0:
            bad.add(key)
            problems.append(f"row {key} has ARI {row.ari!r} outside [-1, 1]")
        elif row.effective_k is None or not 1 <= row.effective_k <= k:
            bad.add(key)
            problems.append(f"row {key} has effective_k {row.effective_k!r}")
    extra = set(seen) - set(expected_keys)
    if extra:
        problems.append(f"{len(extra)} unexpected rows, e.g. {sorted(extra)[0]}")
    if len(rows) != len(expected_keys):
        problems.append(f"{len(rows)} rows, expected {len(expected_keys)}")
    return problems, bad
