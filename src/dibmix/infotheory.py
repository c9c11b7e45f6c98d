"""Discrete entropy, KL divergence and mutual information, in nats.

Conventions: 0 log 0 = 0 throughout; KL divergence returns +inf (a value,
not an error) when the first argument puts mass where the second has none.
"""

import numpy as np

_DIST_TOL = 1e-9


def _as_distribution(p, name="distribution"):
    p = np.asarray(p, dtype=float).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > _DIST_TOL:
        raise ValueError(f"{name} sums to {p.sum()!r}, expected 1")
    return p


def entropy(p) -> float:
    """Shannon entropy -sum p log p of a probability vector."""
    p = _as_distribution(p)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl_divergence(p, q) -> float:
    """KL divergence sum p log(p/q); +inf where p > 0 meets q = 0."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {q.shape[0]}")
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    pm = p[mask]
    return float((pm * np.log(pm / q[mask])).sum())


def mutual_information(joint) -> float:
    """Mutual information of a joint probability matrix.

    Marginals are computed internally; entries must be nonnegative and sum
    to 1 within 1e-9.
    """
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2:
        raise ValueError("joint must be a 2-D matrix")
    if np.any(j < 0):
        raise ValueError("joint has negative entries")
    total = j.sum()
    if abs(total - 1.0) > _DIST_TOL:
        raise ValueError(f"joint sums to {total!r}, expected 1")
    row = j.sum(axis=1)
    col = j.sum(axis=0)
    mask = j > 0
    outer = row[:, None] * col[None, :]
    return float((j[mask] * np.log(j[mask] / outer[mask])).sum())
