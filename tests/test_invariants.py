"""Model invariants, checked directly on seeded random mixed datasets with
non-uniform weights:

- p(y|x) is row-stochastic and the marginal is the weighted mixture of rows;
- the DIB objective is a function of the assignment alone, equal to
  H(T) - beta * I(T, Y) summed from the joint q(t, y);
- relabelling clusters leaves the objective unchanged;
- for beta > 0, every observation has a finite score under its emitted
  cluster.
"""

import numpy as np
import pytest

from dibmix import (
    Encoder,
    MixedDataset,
    dib_fit_density,
    estimate_conditional,
    objective,
)

from conftest import dib_objective_oracle, random_bandwidths, random_mixed_dataset

SEEDS = range(12)


def _weighted_case(seed):
    rng = np.random.default_rng(seed)
    ds = random_mixed_dataset(rng, n=int(rng.integers(5, 80)))
    weights = rng.uniform(0.1, 1.0, size=ds.n)
    ds = MixedDataset(schema=ds.schema, continuous=ds.continuous,
                      categorical=ds.categorical, weights=weights / weights.sum())
    return rng, ds, estimate_conditional(ds, random_bandwidths(rng, ds))


@pytest.mark.parametrize("seed", SEEDS)
def test_density_rows_stochastic_and_marginal_weighted(seed):
    _, ds, density = _weighted_case(seed)
    p = density.matrix
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    mixture = np.zeros(ds.n)
    for x in range(ds.n):
        mixture += ds.weights[x] * p[x]
    np.testing.assert_allclose(density.marginal_y, mixture, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_objective_recomputed_from_assignment(seed, k):
    rng, ds, density = _weighted_case(seed)
    k = min(k, ds.n)
    assign = rng.integers(0, k, size=ds.n)
    beta = float(rng.uniform(0, 100))
    enc = Encoder.from_assignment(assign, k, density, ds.weights)
    obj, h, i = objective(enc, density, beta)
    o_obj, o_h, o_i = dib_objective_oracle(assign, density.matrix, ds.weights, beta, k)
    assert h == pytest.approx(o_h, abs=1e-10)
    assert i == pytest.approx(o_i, abs=1e-10)
    assert obj == pytest.approx(o_obj, abs=1e-10 * (1 + beta))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_objective_invariant_under_label_permutation(seed, k):
    rng, ds, density = _weighted_case(seed)
    k = min(k, ds.n)
    assign = rng.integers(0, k, size=ds.n)
    perm = rng.permutation(k)
    beta = float(rng.uniform(0, 100))
    a = objective(Encoder.from_assignment(assign, k, density, ds.weights), density, beta)
    b = objective(Encoder.from_assignment(perm[assign], k, density, ds.weights), density, beta)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, abs=1e-12 * (1 + beta))


@pytest.mark.parametrize("seed", SEEDS)
def test_emitted_assignment_has_finite_score(seed):
    rng, ds, density = _weighted_case(seed)
    k = int(rng.integers(1, min(5, ds.n) + 1))
    beta = float(rng.uniform(0.1, 100))
    enc = dib_fit_density(density, ds.weights, k, beta, restarts=3, rng_seed=seed).encoder
    p = density.matrix
    for x, t in enumerate(enc.assign):
        # score(x, t) = log q(t) - beta * KL(p(.|x) || q(.|t)), summed over
        # the support of p(.|x); a zero q(y|t) there makes it -inf.
        support = p[x] > 0
        with np.errstate(divide="ignore"):
            log_ratio = np.log(p[x, support]) - np.log(enc.decoder[t, support])
            score = np.log(enc.masses[t]) - beta * np.sum(p[x, support] * log_ratio)
        assert np.isfinite(score), (x, t)
