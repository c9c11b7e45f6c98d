"""DIB solver tests.

The scoring rule is cross-checked with a brute-force oracle that evaluates
log q(t) - beta * KL(p(.|x) || q(.|t)) via explicit loops; objectives are
compared against direct joint summation (conftest.dib_objective_oracle).
"""

from dataclasses import astuple

import numpy as np
import pytest

from dibmix import (
    CATEGORICAL,
    CONTINUOUS,
    Bandwidths,
    ConditionalDensity,
    DegenerateSmoothingError,
    Encoder,
    MixedDataset,
    VariableSchema,
    ari,
    beta_sweep,
    dib_fit,
    dib_fit_density,
    dib_step,
    estimate_conditional,
    init_random,
    objective,
)

from conftest import dib_fit_density_oracle, dib_objective_oracle


def _mixed(continuous, categorical=None, levels=()):
    cont = np.asarray(continuous, dtype=float)
    if cont.ndim == 1:
        cont = cont[:, None]
    n = cont.shape[0]
    cat = (
        np.empty((n, 0), dtype=np.int64)
        if categorical is None
        else np.asarray(categorical, dtype=np.int64)
    )
    if cat.ndim == 1:
        cat = cat[:, None]
    schema = [VariableSchema(f"x{j}", CONTINUOUS) for j in range(cont.shape[1])]
    schema += [
        VariableSchema(f"c{j}", CATEGORICAL, tuple(f"v{v}" for v in range(l)))
        for j, l in enumerate(levels)
    ]
    return MixedDataset(schema=tuple(schema), continuous=cont, categorical=cat)


def _score_oracle(masses, decoder, p_matrix, beta):
    """Explicit-loop evaluation of the per-point, per-cluster score."""
    n = p_matrix.shape[0]
    k = masses.shape[0]
    scores = np.full((n, k), -np.inf)
    for x in range(n):
        for t in range(k):
            if masses[t] == 0:
                continue
            if beta == 0:
                scores[x, t] = np.log(masses[t])
                continue
            kl = 0.0
            infinite = False
            for y in range(n):
                if p_matrix[x, y] > 0:
                    if decoder[t, y] == 0:
                        infinite = True
                        break
                    kl += p_matrix[x, y] * np.log(p_matrix[x, y] / decoder[t, y])
            scores[x, t] = -np.inf if infinite else np.log(masses[t]) - beta * kl
    return scores


# ---------------------------------------------------------------------------
# init_random


def test_init_random_k1():
    enc = init_random(5, 1, rng_seed=0)
    np.testing.assert_array_equal(enc.assign, 0)
    np.testing.assert_array_equal(enc.masses, [1.0])
    assert enc.effective_k == 1


def test_init_random_same_seed_identical():
    a = init_random(100, 3, rng_seed=42)
    b = init_random(100, 3, rng_seed=42)
    np.testing.assert_array_equal(a.assign, b.assign)
    assert not np.array_equal(a.assign, init_random(100, 3, rng_seed=43).assign)


def test_init_random_binomial_concentration():
    hits = 0
    for seed in range(100):
        enc = init_random(1000, 2, rng_seed=seed)
        if 0.4 < enc.masses[0] < 0.6 and 0.4 < enc.masses[1] < 0.6:
            hits += 1
    assert hits >= 95


def test_init_random_errors():
    with pytest.raises(ValueError):
        init_random(3, 4, rng_seed=0)
    with pytest.raises(ValueError):
        init_random(3, 0, rng_seed=0)


# ---------------------------------------------------------------------------
# Encoder


def test_encoder_from_assignment_invariants():
    rng = np.random.default_rng(4)
    ds = _mixed(rng.standard_normal(30), rng.integers(0, 3, size=30), levels=(3,))
    density = estimate_conditional(ds, Bandwidths(s=1.0, lam=[0.2]))
    assign = rng.integers(0, 4, size=30)
    assign[assign == 3] = 0  # leave cluster 3 empty on purpose
    enc = Encoder.from_assignment(assign, 4, density, ds.weights)
    assert enc.k == 4
    assert enc.effective_k == 3
    assert enc.masses.sum() == pytest.approx(1.0, abs=1e-9)
    for t in range(4):
        if enc.masses[t] > 0:
            assert enc.decoder[t].sum() == pytest.approx(1.0, abs=1e-9)
        else:
            np.testing.assert_array_equal(enc.decoder[t], 0.0)


# ---------------------------------------------------------------------------
# dib_step


def test_dib_step_beta_zero_collapses_to_heaviest_cluster():
    rng = np.random.default_rng(9)
    ds = _mixed(rng.standard_normal(50))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = init_random(50, 4, rng_seed=1)
    counts = np.bincount(enc.assign, minlength=4)
    # this seed yields two tied heaviest clusters (16 each), so the step also
    # exercises the tie-break toward the smallest cluster index
    assert (counts == counts.max()).sum() == 2
    stepped = dib_step(enc, density, beta=0.0, weights=ds.weights)
    np.testing.assert_array_equal(stepped.assign, counts.argmax())
    assert stepped.effective_k == 1


def test_dib_step_k1_is_identity():
    rng = np.random.default_rng(2)
    ds = _mixed(rng.standard_normal(20))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = init_random(20, 1, rng_seed=0)
    stepped = dib_step(enc, density, beta=50.0, weights=ds.weights)
    np.testing.assert_array_equal(stepped.assign, enc.assign)


def test_dib_step_four_point_fixed_point_and_score_oracle():
    # Two well-separated pairs; the correct split must be a fixed point.
    ds = _mixed([0.0, 0.3, 10.0, 10.3])
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment([0, 0, 1, 1], 2, density, ds.weights)
    stepped = dib_step(enc, density, beta=100.0, weights=ds.weights)
    np.testing.assert_array_equal(stepped.assign, [0, 0, 1, 1])

    # From a wrong split, one synchronous step must match the score oracle.
    wrong = Encoder.from_assignment([0, 1, 0, 1], 2, density, ds.weights)
    scores = _score_oracle(wrong.masses, wrong.decoder, density.matrix, 100.0)
    want = scores.argmax(axis=1)
    got = dib_step(wrong, density, beta=100.0, weights=ds.weights)
    np.testing.assert_array_equal(got.assign, want)


def test_dib_step_matches_score_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 25))
        ds = _mixed(rng.standard_normal(n), rng.integers(0, 3, size=n), levels=(3,))
        density = estimate_conditional(ds, Bandwidths(s=0.6, lam=[0.25]))
        k = int(rng.integers(1, 5))
        enc = Encoder.from_assignment(rng.integers(0, k, size=n), k, density, ds.weights)
        beta = float(rng.choice([0.0, 0.5, 5.0, 100.0]))
        scores = _score_oracle(enc.masses, enc.decoder, density.matrix, beta)
        got = dib_step(enc, density, beta=beta, weights=ds.weights)
        np.testing.assert_array_equal(got.assign, scores.argmax(axis=1))


def test_dib_step_degenerate_when_no_cluster_covers_support():
    # Indicator-sharp density (identity matrix) with a decoder that puts no
    # mass where observation 1 lives: every cluster scores -inf for x=1.
    density = ConditionalDensity(matrix=np.eye(2), marginal_y=[0.5, 0.5])
    enc = Encoder(
        assign=np.array([0, 1]),
        masses=np.array([0.5, 0.5]),
        decoder=np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    with pytest.raises(DegenerateSmoothingError):
        dib_step(enc, density, beta=1.0, weights=np.array([0.5, 0.5]))


def test_dib_step_dimension_mismatch():
    density = ConditionalDensity(matrix=np.eye(3) * 0.8 + 0.1, marginal_y=[1 / 3] * 3)
    enc = init_random(4, 2, rng_seed=0)
    with pytest.raises(ValueError):
        dib_step(enc, density, beta=1.0, weights=np.full(4, 0.25))


# ---------------------------------------------------------------------------
# objective


def test_objective_k1_is_zero():
    rng = np.random.default_rng(0)
    ds = _mixed(rng.standard_normal(12))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment(np.zeros(12, dtype=int), 1, density, ds.weights)
    obj, h, i = objective(enc, density, beta=37.0)
    assert h == 0.0
    assert i == pytest.approx(0.0, abs=1e-12)
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_objective_singletons_entropy_log_n():
    rng = np.random.default_rng(1)
    n = 9
    ds = _mixed(rng.standard_normal(n))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment(np.arange(n), n, density, ds.weights)
    _, h, _ = objective(enc, density, beta=1.0)
    assert h == pytest.approx(np.log(n), rel=1e-12)


def test_objective_matches_direct_summation_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(4, 40))
        ds = _mixed(rng.standard_normal(n), rng.integers(0, 4, size=n), levels=(4,))
        density = estimate_conditional(ds, Bandwidths(s=0.8, lam=[0.3]))
        k = int(rng.integers(1, 5))
        assign = rng.integers(0, k, size=n)
        enc = Encoder.from_assignment(assign, k, density, ds.weights)
        beta = float(rng.uniform(0, 50))
        obj, h, i = objective(enc, density, beta)
        o_obj, o_h, o_i = dib_objective_oracle(assign, density.matrix, ds.weights, beta, k)
        assert h == pytest.approx(o_h, abs=1e-10)
        assert i == pytest.approx(o_i, abs=1e-10)
        assert obj == pytest.approx(o_obj, abs=1e-8)
        assert obj == pytest.approx(h - beta * i, abs=1e-9)


def test_objective_label_permutation_invariance():
    rng = np.random.default_rng(6)
    n = 30
    ds = _mixed(rng.standard_normal(n))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    assign = rng.integers(0, 3, size=n)
    enc = Encoder.from_assignment(assign, 3, density, ds.weights)
    perm = np.array([2, 0, 1])
    permuted = Encoder.from_assignment(perm[assign], 3, density, ds.weights)
    for beta in (0.0, 1.0, 100.0):
        a = objective(enc, density, beta)
        b = objective(permuted, density, beta)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-12)


def test_objective_requires_decoder():
    enc = init_random(8, 2, rng_seed=0)
    density = ConditionalDensity(matrix=np.full((8, 8), 1 / 8), marginal_y=np.full(8, 1 / 8))
    with pytest.raises(ValueError):
        objective(enc, density, beta=1.0)


# ---------------------------------------------------------------------------
# dib_fit


def _separated_dataset(seed=0, n=200):
    """Two clusters 6 standardized units apart with disjoint dominant
    categories."""
    rng = np.random.default_rng(seed)
    half = n // 2
    truth = np.repeat([0, 1], [half, n - half])
    x = rng.standard_normal(n) + 6.0 * truth
    cat = np.where(
        rng.uniform(size=n) < 0.9, truth, rng.integers(2, 4, size=n)
    )
    return _mixed(x, cat, levels=(4,)), truth


def test_dib_fit_recovers_separated_clusters():
    ds, truth = _separated_dataset()
    from dibmix import standardize

    result = dib_fit(standardize(ds), k=2, beta=100.0, bw=Bandwidths(s=1.0, lam=[0.3]),
                     restarts=10, rng_seed=0)
    assert ari(result.assign, truth) == 1.0
    assert result.effective_k == 2
    assert result.converged


def test_dib_fit_beta_zero_collapses_fast():
    rng = np.random.default_rng(3)
    ds = _mixed(rng.standard_normal(80), rng.integers(0, 3, size=80), levels=(3,))
    result = dib_fit(ds, k=5, beta=0.0, bw=Bandwidths(s=1.0, lam=[0.3]),
                     restarts=3, rng_seed=1)
    assert result.effective_k == 1
    assert result.iterations <= 2
    assert result.converged
    assert result.relevance == pytest.approx(0.0, abs=1e-12)
    assert result.compression == pytest.approx(0.0, abs=1e-12)


def test_dib_fit_is_fixed_point():
    ds, _ = _separated_dataset(seed=5, n=100)
    density = estimate_conditional(ds, Bandwidths(s=1.0, lam=[0.2]))
    result = dib_fit_density(density, ds.weights, k=3, beta=50.0, restarts=5, rng_seed=2)
    assert result.converged
    stepped = dib_step(result.encoder, density, beta=50.0, weights=ds.weights)
    np.testing.assert_array_equal(stepped.assign, result.assign)


def test_dib_fit_thread_determinism():
    rng = np.random.default_rng(8)
    ds = _mixed(rng.standard_normal(90), rng.integers(0, 4, size=90), levels=(4,))
    kw = dict(k=3, beta=25.0, bw=Bandwidths(s=0.8, lam=[0.4]), restarts=8, rng_seed=11)
    serial = dib_fit(ds, threads=1, **kw)
    threaded = dib_fit(ds, threads=4, **kw)
    np.testing.assert_array_equal(serial.assign, threaded.assign)
    assert serial.objective == threaded.objective
    assert serial.restart_index == threaded.restart_index
    np.testing.assert_array_equal(serial.objective_trace, threaded.objective_trace)


def _equivalence_density(lam, n=48):
    """Mixed data on n points with non-uniform weights; a zero lambda puts
    exact zeros into p(y|x)."""
    rng = np.random.default_rng(31)
    ds = _mixed(rng.standard_normal((n, 2)), rng.integers(0, 3, size=(n, 2)), levels=(3, 3))
    weights = rng.uniform(0.2, 1.0, size=n)
    ds = MixedDataset(schema=ds.schema, continuous=ds.continuous,
                      categorical=ds.categorical, weights=weights / weights.sum())
    return estimate_conditional(ds, Bandwidths(s=0.8, lam=lam)), ds.weights


@pytest.mark.parametrize("beta", [0.0, 5.0, 100.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lam, max_iter", [([0.3, 0.2], 100), ([0.0, 0.2], 100), ([0.3, 0.2], 1)])
@pytest.mark.parametrize("n", [48, 257])
def test_dib_fit_density_matches_per_chain_oracle(n, lam, max_iter, k, beta):
    """Lock-step blocks reproduce chains run one at a time, bit for bit.  At
    the odd n the rows of p and of the stacked decoders sit at other memory
    alignments, which every stack height must sum the same way."""
    density, weights = _equivalence_density(lam, n)
    assert density.has_zeros == (lam[0] == 0.0)
    for restarts in (1, 2, 7):
        summary, assign, trace = dib_fit_density_oracle(
            density, weights, k, beta, restarts, max_iter, rng_seed=7
        )
        for threads in (1, 3):
            got = dib_fit_density(density, weights, k, beta, restarts=restarts,
                                  max_iter=max_iter, rng_seed=7, threads=threads)
            assert [repr(astuple(r)) for r in got.restart_summary] == [
                repr(astuple(r)) for r in summary
            ]
            assert got.assign.tobytes() == assign.tobytes()
            assert got.objective_trace.tobytes() == trace.tobytes()


def test_chain_rise_beyond_tolerance_is_a_cycle():
    """Seeded data never makes the objective rise, so the cycle rule is
    driven directly: a rise within the tolerance goes on, a larger one
    stops the chain, and the best encoder so far is kept."""
    from dibmix.dib import _TRACE_RISE_TOL, _Chain

    chain = _Chain(restart_index=0, seed=0)
    assert chain.record("a", 3.0, 0.0, 0.0, unchanged=False)
    assert chain.record("b", 2.0, 0.0, 0.0, unchanged=False)
    assert chain.record("c", 2.0 + _TRACE_RISE_TOL / 2, 0.0, 0.0, unchanged=False)
    assert not chain.record("d", 2.5, 0.0, 0.0, unchanged=False)
    assert chain.cycle and not chain.converged
    assert chain.best[3] == "b"
    assert chain.trace == [3.0, 2.0, 2.0 + _TRACE_RISE_TOL / 2, 2.5]


def test_block_bounds_cover_restarts_within_budget():
    from dibmix.dib import _BLOCK_FLOOR, _BLOCK_SHARE, _block_bounds

    for restarts, n, k, threads in [(100, 2000, 2, 1), (20, 2000, 2, 3), (3, 4000, 2, 8),
                                    (100, 200, 5, 1), (1, 10, 1, 4), (50, 50000, 3, 1)]:
        bounds = _block_bounds(restarts, n, k, threads)
        assert bounds[0][0] == 0 and bounds[-1][1] == restarts
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) >= min(threads, restarts)
        for lo, hi in bounds:
            assert hi > lo
            assert hi - lo == 1 or n * (hi - lo) * k <= max(n * n // _BLOCK_SHARE, _BLOCK_FLOOR)


def test_dib_fit_weight_scale_invariance():
    rng = np.random.default_rng(13)
    ds = _mixed(rng.standard_normal(60), rng.integers(0, 3, size=60), levels=(3,))
    density = estimate_conditional(ds, Bandwidths(s=1.0, lam=[0.3]))
    w = ds.weights
    scaled = (7.0 * w) / (7.0 * w).sum()
    a = dib_fit_density(density, w, k=3, beta=30.0, restarts=5, rng_seed=4)
    b = dib_fit_density(density, scaled, k=3, beta=30.0, restarts=5, rng_seed=4)
    np.testing.assert_array_equal(a.assign, b.assign)


def test_dib_fit_objective_identity_and_restart_summary():
    rng = np.random.default_rng(19)
    ds = _mixed(rng.standard_normal(70), rng.integers(0, 3, size=70), levels=(3,))
    result = dib_fit(ds, k=3, beta=40.0, bw=Bandwidths(s=1.0, lam=[0.3]),
                     restarts=6, rng_seed=3)
    assert result.objective == pytest.approx(
        result.compression - 40.0 * result.relevance, abs=1e-9
    )
    assert len(result.restart_summary) == 6
    objectives = [r.objective for r in result.restart_summary]
    assert result.objective == min(objectives)
    winner = result.restart_summary[result.restart_index]
    assert winner.objective == result.objective
    assert winner.seed == result.seed
    # tie-break: no earlier restart attains the winning objective
    for r in result.restart_summary[: result.restart_index]:
        assert r.objective > result.objective


def test_dib_fit_trace_non_increasing_when_no_cycle_flag():
    rng = np.random.default_rng(23)
    checked = 0
    for seed in range(15):
        n = int(rng.integers(20, 60))
        ds = _mixed(rng.standard_normal(n), rng.integers(0, 3, size=n), levels=(3,))
        result = dib_fit(ds, k=3, beta=20.0, bw=Bandwidths(s=1.0, lam=[0.3]),
                         restarts=1, rng_seed=seed)
        if result.cycle_detected:
            continue
        diffs = np.diff(result.objective_trace)
        assert np.all(diffs <= 1e-12)
        checked += 1
    assert checked >= 10


def test_dib_fit_validation_errors():
    rng = np.random.default_rng(1)
    ds = _mixed(rng.standard_normal(10))
    bw = Bandwidths(s=1.0)
    with pytest.raises(ValueError):
        dib_fit(ds, k=11, beta=1.0, bw=bw)
    with pytest.raises(ValueError):
        dib_fit(ds, k=0, beta=1.0, bw=bw)
    with pytest.raises(ValueError):
        dib_fit(ds, k=2, beta=-1.0, bw=bw)
    with pytest.raises(ValueError):
        dib_fit(ds, k=2, beta=1.0, bw=bw, restarts=0)
    with pytest.raises(ValueError):
        dib_fit(ds, k=2, beta=1.0, bw=bw, max_iter=0)


# ---------------------------------------------------------------------------
# beta_sweep


def test_beta_sweep_zero_beta_row():
    rng = np.random.default_rng(7)
    ds = _mixed(rng.standard_normal(40), rng.integers(0, 3, size=40), levels=(3,))
    sweep = beta_sweep(ds, k=4, bw=Bandwidths(s=1.0, lam=[0.3]), betas=(0.0,),
                       restarts=3, rng_seed=0)
    assert len(sweep.rows) == 1
    assert sweep.rows[0].effective_k == 1
    assert sweep.rows[0].relevance == pytest.approx(0.0, abs=1e-12)
    assert sweep.suggested_beta is None


def test_beta_sweep_single_beta_matches_dib_fit():
    rng = np.random.default_rng(10)
    ds = _mixed(rng.standard_normal(50), rng.integers(0, 3, size=50), levels=(3,))
    bw = Bandwidths(s=1.0, lam=[0.3])
    sweep = beta_sweep(ds, k=3, bw=bw, betas=(12.0,), restarts=4, rng_seed=5)
    fit = dib_fit(ds, k=3, beta=12.0, bw=bw, restarts=4, rng_seed=5)
    row = sweep.rows[0]
    assert row.objective == fit.objective
    assert row.relevance == fit.relevance
    assert row.compression == fit.compression
    assert row.effective_k == fit.effective_k


def test_beta_sweep_relevance_monotone_on_separated_data():
    ds, _ = _separated_dataset(seed=2, n=120)
    from dibmix import standardize

    sweep = beta_sweep(standardize(ds), k=2, bw=Bandwidths(s=1.0, lam=[0.3]),
                       betas=(0.1, 1.0, 10.0, 100.0), restarts=5, rng_seed=1)
    relevance = [r.relevance for r in sweep.rows]
    for lo, hi in zip(relevance, relevance[1:]):
        assert hi >= lo - 1e-6
    assert sweep.suggested_beta in (1.0, 10.0)  # an interior grid point
    cols = sweep.as_columns()
    assert cols["beta"] == [0.1, 1.0, 10.0, 100.0]
    assert len(cols["relevance"]) == 4


def test_beta_sweep_errors():
    rng = np.random.default_rng(0)
    ds = _mixed(rng.standard_normal(10))
    with pytest.raises(ValueError):
        beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=())
    with pytest.raises(ValueError):
        beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=(1.0, -2.0))
    # a repeated beta divides by zero in the curvature; an unsorted grid
    # takes it across points that are not neighbours
    for betas in ((0.0, 5.0, 5.0, 100.0), (100.0, 5.0, 20.0, 0.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=betas)
