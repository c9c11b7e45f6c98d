"""DIB solver tests.

The scoring rule is cross-checked with a brute-force oracle that evaluates
log q(t) - beta * KL(p(.|x) || q(.|t)) via explicit loops; objectives are
compared against direct joint summation (conftest.dib_objective_oracle).
"""

import os
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from dibmix import (
    Bandwidths,
    ConditionalDensity,
    DegenerateSmoothingError,
    Encoder,
    GenSpec,
    ari,
    beta_sweep,
    choose_bandwidths,
    dib_fit,
    dib_fit_density,
    estimate_conditional,
    generate,
    init_random,
    objective,
    standardize,
)

import conftest
from conftest import (
    dib_chain_states_oracle,
    dib_fit_density_oracle,
    dib_objective_oracle,
    dib_step,
    make_dataset,
    refresh_oracle,
)


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
    assign = init_random(5, 1, rng_seed=0)
    assert assign.dtype == np.int64
    np.testing.assert_array_equal(assign, [0, 0, 0, 0, 0])


def test_init_random_same_seed_identical():
    a = init_random(100, 3, rng_seed=42)
    b = init_random(100, 3, rng_seed=42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, init_random(100, 3, rng_seed=43))


def test_init_random_binomial_concentration():
    hits = 0
    for seed in range(100):
        share = np.bincount(init_random(1000, 2, rng_seed=seed), minlength=2) / 1000
        if 0.4 < share[0] < 0.6 and 0.4 < share[1] < 0.6:
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
    ds = make_dataset(rng.standard_normal(30), rng.integers(0, 3, size=30), levels=(3,))
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


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("chains", [1, 3, 40])
@pytest.mark.parametrize("n", [1, 7, 200])
def test_refresh_is_the_public_sparse_product_byte_for_byte(n, chains, k, uniform):
    from dibmix.dib import _refresh

    rng = np.random.default_rng([n, chains, k, uniform])
    p = rng.random((n, n))
    p /= p.sum(axis=1, keepdims=True)
    weights = np.full(n, 1.0 / n) if uniform else rng.random(n)
    weights /= weights.sum()
    assign = rng.integers(0, k, size=(chains, n))
    assign[0] %= max(k - 1, 1)  # chain 0 leaves cluster k - 1 empty where k > 1
    got = _refresh(assign, k, p, weights)
    want = refresh_oracle(assign, k, p, weights)
    for a, b in zip(got, want):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()


def _three_points():
    """A three-point density and its uniform weights, for argument checks."""
    return (ConditionalDensity(matrix=np.eye(3) * 0.7 + 0.1, marginal_y=[1 / 3] * 3),
            np.full(3, 1 / 3))


@pytest.mark.parametrize("assign, k, weights, message", [
    ([0, 5, 1], 2, None, r"labels in 0\.\.1, got 0\.\.5"),
    ([0, -1, 1], 2, None, r"labels in 0\.\.1, got -1\.\.1"),
    ([0.5, 1, 0], 2, None, "integer labels, got dtype float64"),
    ([0.0, 1.0, 0.0], 2, None, "integer labels, got dtype float64"),
    ([True, False, True], 2, None, "integer labels, got dtype bool"),
    ([0, 1], 2, None, r"assign has shape \(2,\), expected \(3,\)"),
    ([[0, 1, 0]], 2, None, r"assign has shape \(1, 3\), expected \(3,\)"),
    ([0, 1, 0], 0, None, "k must be >= 1, got 0"),
    ([0, 1, 0], 2.5, None, "k must be an integer, got 2.5"),
    ([0, 1, 0], 2, [0.5, 0.5, np.nan], "weights"),
    ([0, 1, 0], 2, [0.5, 0.5], "weights have length 2, expected 3"),
])
def test_from_assignment_refuses_bad_arguments(assign, k, weights, message):
    density, uniform = _three_points()
    weights = uniform if weights is None else weights
    with pytest.raises(ValueError, match=message):
        Encoder.from_assignment(assign, k, density, weights)


def test_from_assignment_refuses_a_far_label_before_the_kernel_reads_it():
    """The compiled refresh checks no bounds; a label far past k must be
    refused, not written through.  A fresh interpreter makes a crash a
    failed assertion rather than the end of the test run."""
    probe = ("import numpy as np\n"
             "from dibmix import ConditionalDensity, Encoder\n"
             "density = ConditionalDensity(matrix=np.eye(3) * 0.7 + 0.1, marginal_y=[1 / 3] * 3)\n"
             "try:\n"
             "    Encoder.from_assignment([0, 10**8, 1], 2, density, np.full(3, 1 / 3))\n"
             "except ValueError as exc:\n"
             "    print(exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "assign must hold labels in 0..1, got 0..100000000\n"


# ---------------------------------------------------------------------------
# dib_step


def test_dib_step_beta_zero_collapses_to_heaviest_cluster():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng.standard_normal(50))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment(init_random(50, 4, rng_seed=1), 4, density, ds.weights)
    counts = np.bincount(enc.assign, minlength=4)
    # this seed yields two tied heaviest clusters (16 each), so the step also
    # exercises the tie-break toward the smallest cluster index
    assert (counts == counts.max()).sum() == 2
    stepped = dib_step(enc, density, beta=0.0, weights=ds.weights)
    np.testing.assert_array_equal(stepped.assign, counts.argmax())
    assert stepped.effective_k == 1


def test_dib_step_k1_is_identity():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.standard_normal(20))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment(np.zeros(20, dtype=int), 1, density, ds.weights)
    stepped = dib_step(enc, density, beta=50.0, weights=ds.weights)
    np.testing.assert_array_equal(stepped.assign, enc.assign)


def test_dib_step_four_point_fixed_point_and_score_oracle():
    # Two well-separated pairs; the correct split must be a fixed point.
    ds = make_dataset([0.0, 0.3, 10.0, 10.3])
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
        ds = make_dataset(rng.standard_normal(n), rng.integers(0, 3, size=n), levels=(3,))
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
    enc = Encoder(assign=[0, 1, 0, 1], masses=[0.5, 0.5], decoder=np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        dib_step(enc, density, beta=1.0, weights=np.full(4, 0.25))


# ---------------------------------------------------------------------------
# objective


def test_objective_k1_is_zero():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.standard_normal(12))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment(np.zeros(12, dtype=int), 1, density, ds.weights)
    obj, h, i = objective(enc, density, 37.0, ds.weights)
    assert h == 0.0
    assert i == pytest.approx(0.0, abs=1e-12)
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_objective_singletons_entropy_log_n():
    rng = np.random.default_rng(1)
    n = 9
    ds = make_dataset(rng.standard_normal(n))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    enc = Encoder.from_assignment(np.arange(n), n, density, ds.weights)
    _, h, _ = objective(enc, density, 1.0, ds.weights)
    assert h == pytest.approx(np.log(n), rel=1e-12)


def test_objective_matches_direct_summation_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(4, 40))
        ds = make_dataset(rng.standard_normal(n), rng.integers(0, 4, size=n), levels=(4,))
        density = estimate_conditional(ds, Bandwidths(s=0.8, lam=[0.3]))
        k = int(rng.integers(1, 5))
        assign = rng.integers(0, k, size=n)
        enc = Encoder.from_assignment(assign, k, density, ds.weights)
        beta = float(rng.uniform(0, 50))
        obj, h, i = objective(enc, density, beta, ds.weights)
        o_obj, o_h, o_i = dib_objective_oracle(assign, density.matrix, ds.weights, beta, k)
        assert h == pytest.approx(o_h, abs=1e-10)
        assert i == pytest.approx(o_i, abs=1e-10)
        assert obj == pytest.approx(o_obj, abs=1e-8)
        assert obj == pytest.approx(h - beta * i, abs=1e-9)


@pytest.mark.parametrize("beta", [np.nan, -5.0, np.inf, 1e101])
def test_objective_refuses_beta_out_of_range(beta):
    density, weights = _three_points()
    enc = Encoder.from_assignment([0, 1, 0], 2, density, weights)
    with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
        objective(enc, density, beta, weights)


@pytest.mark.parametrize("masses, decoder, message", [
    ([0.5, 0.5], np.full((2, 4), 0.25), r"shape \(2, 4\), expected \(k, n\) = \(2, 3\)"),
    ([0.5, 0.5, 0.0], np.full((2, 3), 1 / 3), r"shape \(2, 3\), expected \(k, n\) = \(3, 3\)"),
])
def test_objective_refuses_a_decoder_of_another_shape(masses, decoder, message):
    density, weights = _three_points()
    enc = Encoder(assign=[0, 1, 0], masses=masses, decoder=decoder)
    with pytest.raises(ValueError, match=message):
        objective(enc, density, 1.0, weights)


def test_objective_label_permutation_invariance():
    rng = np.random.default_rng(6)
    n = 30
    ds = make_dataset(rng.standard_normal(n))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    assign = rng.integers(0, 3, size=n)
    enc = Encoder.from_assignment(assign, 3, density, ds.weights)
    perm = np.array([2, 0, 1])
    permuted = Encoder.from_assignment(perm[assign], 3, density, ds.weights)
    for beta in (0.0, 1.0, 100.0):
        a = objective(enc, density, beta, ds.weights)
        b = objective(permuted, density, beta, ds.weights)
        assert a == b


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
    return make_dataset(x, cat, levels=(4,)), truth


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
    ds = make_dataset(rng.standard_normal(80), rng.integers(0, 3, size=80), levels=(3,))
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


@pytest.mark.threads
def test_dib_fit_thread_determinism():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng.standard_normal(90), rng.integers(0, 4, size=90), levels=(4,))
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
    cont, cat = rng.standard_normal((n, 2)), rng.integers(0, 3, size=(n, 2))
    weights = rng.uniform(0.2, 1.0, size=n)
    ds = make_dataset(cont, cat, levels=(3, 3), weights=weights / weights.sum())
    return estimate_conditional(ds, Bandwidths(s=0.8, lam=lam)), ds.weights


@pytest.mark.threads
@pytest.mark.parametrize("beta", [0.0, 5.0, 100.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lam, max_iter", [([0.3, 0.2], 100), ([0.0, 0.2], 100), ([0.3, 0.2], 1)])
@pytest.mark.parametrize("n", [48, 257])
def test_dib_fit_density_matches_per_chain_oracle(n, lam, max_iter, k, beta):
    """Lock-step restarts reproduce chains run one at a time, bit for bit, at
    1, 2 and 3 threads.  At the odd n the rows of p and of the stacked
    decoders sit at other memory alignments, which every stack height must
    sum the same way."""
    density, weights = _equivalence_density(lam, n)
    assert density.has_zeros == (lam[0] == 0.0)
    for restarts in (1, 2, 7):
        _assert_fit_matches_oracle(density, weights, k, beta, restarts, max_iter, (1, 2, 3))


def _assert_same_fit(got, oracle):
    """``got`` has the restart summaries, winning assignment and trace of
    ``oracle`` (a ``dib_fit_density_oracle`` output) byte for byte."""
    summary, assign, trace = oracle
    assert [repr(astuple(r)) for r in got.restart_summary] == [
        repr(astuple(r)) for r in summary
    ]
    assert got.assign.tobytes() == assign.tobytes()
    assert got.objective_trace.tobytes() == trace.tobytes()


def _assert_fit_matches_oracle(density, weights, k, beta, restarts, max_iter, thread_counts):
    """Every restart summary, the winning assignment and its trace equal the
    per-chain oracle's byte for byte, at each thread count."""
    oracle = dib_fit_density_oracle(density, weights, k, beta, restarts, max_iter, rng_seed=7)
    for threads in thread_counts:
        _assert_same_fit(dib_fit_density(density, weights, k, beta, restarts=restarts,
                                         max_iter=max_iter, rng_seed=7, threads=threads),
                         oracle)


# On two generated clusters at n=257 with k=2, restarts meet before they
# converge, so chains move on from states where other chains stopped; the
# 150 starting states fill three slices of the first stacked pass.
_MEMO_K, _MEMO_BETA, _MEMO_RESTARTS = 2, 100.0, 150


def _memo_density():
    spec = GenSpec(n=257, p_c=2, p_d=2, levels=4, overlap_cont=0.3, overlap_cat=0.3, seed=1000)
    ds = standardize(generate(spec).data)
    return estimate_conditional(ds, choose_bandwidths(ds)), ds.weights


def _stops_continued_later(density, weights, max_iter):
    """How often a restart moves on from a state where another restart
    stopped without converging (at its cap or by a cycle)."""
    chains = dib_chain_states_oracle(density, weights, _MEMO_K, _MEMO_BETA, _MEMO_RESTARTS,
                                     max_iter, rng_seed=7)
    stopped_by = {}
    for r, (summary, states) in enumerate(chains):
        if not summary.converged:
            stopped_by.setdefault(states[-1], set()).add(r)
    return sum(
        1
        for r, (_, states) in enumerate(chains)
        for state, successor in zip(states, states[1:])
        if successor != state and stopped_by.get(state, set()) - {r}
    )


@pytest.mark.threads
@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_state_memo_continues_chains_stopped_at_their_cap(max_iter):
    """One state graph holds every restart, so chains move on from states
    where other chains ran out of iterations; every restart still matches
    the per-chain oracle."""
    density, weights = _memo_density()
    if max_iter > 1:
        assert _stops_continued_later(density, weights, max_iter) > 0
    _assert_fit_matches_oracle(density, weights, _MEMO_K, _MEMO_BETA, _MEMO_RESTARTS, max_iter,
                               (1, 3))


@pytest.mark.threads
def test_state_memo_continues_chains_stopped_by_a_cycle(monkeypatch):
    """With a negative rise tolerance every chain that has not converged by
    its second step stops there by a cycle, and later chains move on from
    those states."""
    monkeypatch.setattr("dibmix.dib._TRACE_RISE_TOL", -1.0)
    monkeypatch.setattr(conftest, "_TRACE_RISE_TOL", -1.0)
    density, weights = _memo_density()
    summary = [s for s, _ in dib_chain_states_oracle(
        density, weights, _MEMO_K, _MEMO_BETA, _MEMO_RESTARTS, 100, rng_seed=7)]
    assert all(s.cycle_detected != s.converged for s in summary)
    assert any(s.cycle_detected for s in summary)
    assert _stops_continued_later(density, weights, 100) > 0
    _assert_fit_matches_oracle(density, weights, _MEMO_K, _MEMO_BETA, _MEMO_RESTARTS, 100, (1, 3))


@pytest.mark.threads
@pytest.mark.parametrize("max_iter", [3, 100])
def test_state_memo_same_for_any_thread_count(max_iter):
    """Passes run whole (one thread) or cut into slices on a pool (three
    threads) give the same restarts, winner and trace."""
    density, weights = _memo_density()
    _assert_fit_matches_oracle(density, weights, _MEMO_K, _MEMO_BETA, _MEMO_RESTARTS, max_iter, (1, 3))


@pytest.mark.threads
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_state_memo_refreshes_each_state_once(monkeypatch, threads):
    """A fit refreshes every distinct assignment once at any thread count,
    then rebuilds the winner's encoder, and scores every state at most once;
    its result is the per-chain oracle's."""
    from dibmix import dib

    density, weights = _memo_density()
    refreshed, scored = [], []
    refresh, score_step = dib._refresh, dib._score_step

    def counted_refresh(assign, k, p_matrix, w):
        refreshed.extend(row.tobytes() for row in assign)
        return refresh(assign, k, p_matrix, w)

    def counted_score_step(masses, decoder, *args):
        scored.append(masses.shape[0])
        return score_step(masses, decoder, *args)

    monkeypatch.setattr(dib, "_refresh", counted_refresh)
    monkeypatch.setattr(dib, "_score_step", counted_score_step)
    result = dib_fit_density(density, weights, _MEMO_K, _MEMO_BETA, restarts=20, rng_seed=7,
                             threads=threads)
    marginal, *states, winner = refreshed
    assert len(marginal) == 8 * density.n  # the one-cluster p(y), int64 labels
    assert len(set(states)) == len(states)
    assert winner == result.assign.tobytes()
    iterations = sum(r.iterations for r in result.restart_summary)
    assert len(states) < iterations
    assert sum(scored) <= len(states)
    monkeypatch.undo()
    _assert_same_fit(result, dib_fit_density_oracle(density, weights, _MEMO_K, _MEMO_BETA,
                                                    20, 100, rng_seed=7))


@pytest.mark.parametrize("lam", [[0.3, 0.2], [0.0, 0.2]])
def test_score_step_does_not_depend_on_the_stack(lam):
    """A stack of chains scores each chain as a call on that chain alone
    does, bit for bit.  At the odd n rows of p and of the stacked decoders
    sit at other memory alignments."""
    from dibmix.dib import _refresh, _row_dots, _score_step

    density, weights = _equivalence_density(lam, 257)
    assert density.has_zeros == (lam[0] == 0.0)
    rng = np.random.default_rng(5)
    k, chains = 4, 6
    assign = rng.integers(0, k, size=(chains, density.n))
    assign[2][assign[2] == 3] = 0  # one chain with an empty cluster
    masses, decoder = _refresh(assign, k, density.matrix, weights)
    stacked = _score_step(masses, decoder, density, 5.0)
    log_decoder = np.log(np.where(decoder > 0, decoder, 1.0)).reshape(chains * k, -1)
    cross = _row_dots(density.matrix, log_decoder)
    for c in range(chains):
        alone = _score_step(masses[c:c + 1], decoder[c:c + 1], density, 5.0)
        assert alone[0].tobytes() == stacked[c].tobytes()
        rows = slice(c * k, (c + 1) * k)
        single = _row_dots(density.matrix, log_decoder[rows])
        assert single.tobytes() == np.ascontiguousarray(cross[:, rows]).tobytes()


@pytest.mark.parametrize("beta", [0.0, 5.0, 100.0])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("lam", [[0.3, 0.2], [0.0, 0.2]])
def test_score_step_matches_kl_oracle(lam, k, beta):
    """Scores relative to each chain's cluster 0 pick the clusters that the
    KL form picks: on a stack with a chain whose cluster 0 is empty and a
    chain split by the zero-lambda variable's levels, whose clusters then
    miss part of some points' support."""
    from dibmix.dib import _refresh, _score_step

    density, weights = _equivalence_density(lam, 257)
    rng = np.random.default_rng(11)
    chains = 5
    assign = rng.integers(0, k, size=(chains, density.n))
    assign[1][assign[1] == 0] = min(1, k - 1)
    # rows of p share their support exactly when the points share a level
    levels = np.unique(density.matrix > 0, axis=0, return_inverse=True)[1].ravel()
    assign[2] = levels % k
    masses, decoder = _refresh(assign, k, density.matrix, weights)
    if k > 1:
        assert masses[1, 0] == 0
        live = decoder[2][masses[2] > 0]
        misses = (density.matrix > 0).astype(float) @ (live == 0).T.astype(float)
        assert np.any(misses > 0) == density.has_zeros == (lam[0] == 0.0)
    got = _score_step(masses, decoder, density, beta)
    neg_entropy = conftest.row_neg_entropy_oracle(density.matrix)
    for c in range(chains):
        expected = conftest._score_step_oracle(masses[c], decoder[c], density.matrix,
                                               neg_entropy, beta, density.has_zeros)
        assert got[c].tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("lam", [[0.3, 0.2], [0.0, 0.2]])
def test_score_step_sends_k_minus_1_columns_per_state(monkeypatch, lam, k):
    """Each state scored sends k - 1 relative columns to ``_row_dots``, so
    k = 1 sends none; the support test, when p has zeros, sends none."""
    from dibmix import dib

    density, weights = _equivalence_density(lam, 48)
    columns, states = [], []
    row_dots, score_step = dib._row_dots, dib._score_step

    def counted_row_dots(a, b):
        columns.append(b.shape[0])
        return row_dots(a, b)

    def counted_score_step(masses, *args):
        states.append(masses.shape[0])
        return score_step(masses, *args)

    monkeypatch.setattr(dib, "_row_dots", counted_row_dots)
    monkeypatch.setattr(dib, "_score_step", counted_score_step)
    dib_fit_density(density, weights, k, 5.0, restarts=7, rng_seed=7)
    assert sum(states) > 0
    assert sum(columns) == sum(states) * (k - 1)
    assert len(columns) == len(states) * (k > 1)


# Fits at the worker thread count given as argv[1].  A lambda of 0 puts exact
# zeros into p(y|x), so that fit runs the support test; its winner has an
# empty decoder entry that some p(.|x) covers.  The cross products are taken
# on the last density, lambda = 0.2, which has no zeros.
_BLAS_THREADS_FIT = """
import hashlib
import sys
from dataclasses import astuple
import numpy as np
from dibmix import Bandwidths, MixedDataset, VariableSchema, CONTINUOUS, CATEGORICAL
from dibmix import dib_fit_density, estimate_conditional
from dibmix.dib import _refresh, _row_dots
rng = np.random.default_rng(3)
n = 500
ds = MixedDataset(
    schema=(VariableSchema("x", CONTINUOUS), VariableSchema("c", CATEGORICAL, ("a", "b", "c"))),
    continuous=rng.standard_normal((n, 1)), categorical=rng.integers(0, 3, size=(n, 1)))
for lam in (0.0, 0.2):
    density = estimate_conditional(ds, Bandwidths(s=0.5, lam=[lam]))
    result = dib_fit_density(density, ds.weights, 3, 20.0, restarts=8, rng_seed=2,
                             threads=int(sys.argv[1]))
    assert density.has_zeros == (lam == 0.0)
    assert density.has_zeros == np.any(density.matrix @ (result.encoder.decoder == 0).T > 0)
    print(hashlib.sha256(result.assign.tobytes()).hexdigest())
    print([repr(astuple(r)) for r in result.restart_summary])
_, decoder = _refresh(rng.integers(0, 3, size=(4, n)), 3, density.matrix, ds.weights)
cross = _row_dots(density.matrix, np.log(decoder.reshape(12, n)))
print(hashlib.sha256(cross.tobytes()).hexdigest())
"""


@pytest.mark.threads
def test_dib_fit_density_same_for_any_blas_thread_count():
    """One OpenBLAS thread and two, and 1 and 3 worker threads, give the
    same assignments, restart summaries and score cross products.  The
    cross terms use no threaded BLAS product; the support test of the
    lambda = 0 fit is one, but only whether each entry is positive is read.
    With OpenBLAS 0.3.31 on a 2-core host, a BLAS matrix product for the
    cross term already differs between one thread and two at this size."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for blas_threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas_threads)
        for threads in ("1", "3"):
            proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_FIT, threads], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
    assert len(outputs) == 1


def _bad_weights(case, n):
    w = np.full(n, 1.0 / n)
    if case == "length":
        return w[1:] / w[1:].sum()
    if case in ("nan", "inf"):
        w[0] = float(case)
    elif case == "negative":
        w[0] -= 0.5
        w[1] += 0.5
    elif case == "sum":
        w[0] += 2e-9
    return w


@pytest.mark.parametrize("case", ["length", "nan", "inf", "negative", "sum"])
def test_dib_fit_density_rejects_bad_weights(case):
    density, good_weights = _equivalence_density([0.3, 0.2])
    weights = _bad_weights(case, density.n)
    with pytest.raises(ValueError, match="weights"):
        dib_fit_density(density, weights, k=2, beta=5.0, restarts=2)
    enc = Encoder.from_assignment(init_random(density.n, 2, 0), 2, density, good_weights)
    with pytest.raises(ValueError, match="weights"):
        dib_step(enc, density, 5.0, weights)
    # within the tolerance the sum is accepted
    dib_fit_density(density, np.full(density.n, (1 + 5e-10) / density.n), k=2, beta=5.0,
                    restarts=2)


def test_chain_rise_beyond_tolerance_is_a_cycle():
    """Seeded data never makes the objective rise, so the cycle rule is
    driven directly on a toy graph: a rise within the tolerance goes on, a
    larger one stops the chain, and the best node so far is kept.  The
    start's objective is the lowest, and is neither a rise's base nor a
    candidate for the best node."""
    from dibmix.dib import _TRACE_RISE_TOL, _outcome, _rises
    from dibmix.lockstep import walk

    def run(successor, objective, max_iter):
        scores = {u: (obj, 0.0, 0.0) for u, obj in objective.items()}
        (path,) = walk([0], lambda pending: [successor[u] for u in pending], max_iter,
                       lambda path: _rises(path, scores))
        return path, _outcome(path, scores)

    line = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    objective = {0: 0.0, 1: 3.0, 2: 2.0, 3: 2.0 + _TRACE_RISE_TOL / 2, 4: 2.5, 5: 1.0}
    path, (trace, best, converged, cycle) = run(line, objective, 10)
    assert path == [0, 1, 2, 3, 4]
    assert cycle and not converged
    assert best == 2
    assert trace == [3.0, 2.0, 2.0 + _TRACE_RISE_TOL / 2, 2.5]

    # a chain converges on the node it stands on, and stops unflagged at its cap
    path, (trace, best, converged, cycle) = run({0: 1, 1: 1}, objective, 3)
    assert path == [0, 1, 1] and trace == [3.0, 3.0] and best == 1
    assert converged and not cycle
    path, (_, _, converged, cycle) = run(line, objective, 2)
    assert path == [0, 1, 2]
    assert not (converged or cycle)


@pytest.mark.threads
def test_dib_fit_builds_one_encoder(monkeypatch):
    """Only the winner's encoder is built, once per fit."""
    density, weights = _equivalence_density([0.3, 0.2])
    build = Encoder.from_assignment
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(Encoder, "from_assignment", classmethod(counted))
    for threads in (1, 3):
        calls.clear()
        dib_fit_density(density, weights, 3, 5.0, restarts=7, rng_seed=7, threads=threads)
        assert len(calls) == 1


@pytest.mark.threads
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_stacked_passes_split_by_threads_within_budget(monkeypatch, threads):
    """Every stacked call holds at most the budgeted number of states, and
    with t threads a pass of at least t states is cut into at least t calls.
    The 150 starting states of the memo fit exceed one call's budget."""
    from dibmix import dib, lockstep

    density, weights = _memo_density()
    per_call = max(density.n ** 2 // dib._STACK_SHARE, dib._STACK_FLOOR) // (density.n * _MEMO_K)
    assert per_call < _MEMO_RESTARTS
    events = []
    refresh, score_step, stacks = dib._refresh, dib._score_step, lockstep.stacks

    def counted_stacks(items, per_stack, parts=1):
        events.append(("pass", len(items)))
        return stacks(items, per_stack, parts)

    def counted_refresh(assign, *args):
        events.append(("call", assign.shape[0]))
        return refresh(assign, *args)

    def counted_score_step(masses, *args):
        events.append(("call", masses.shape[0]))
        return score_step(masses, *args)

    monkeypatch.setattr(lockstep, "stacks", counted_stacks)
    monkeypatch.setattr(dib, "_refresh", counted_refresh)
    monkeypatch.setattr(dib, "_score_step", counted_score_step)
    dib_fit_density(density, weights, _MEMO_K, _MEMO_BETA, restarts=_MEMO_RESTARTS,
                    rng_seed=7, threads=threads)
    # the one-cluster marginal before the walk, the winner's encoder after it
    assert events[0] == ("call", 1) and events[-1] == ("call", 1)
    passes = []
    for kind, size in events[1:-1]:
        if kind == "pass":
            passes.append((size, []))
        else:
            passes[-1][1].append(size)
    assert passes[0][0] == _MEMO_RESTARTS  # the starting states
    for count, calls in passes:
        assert sum(calls) == count
        assert all(1 <= size <= per_call for size in calls)
        assert len(calls) >= min(threads, count)
        assert len(calls) == -(-count // per_call) or len(calls) == min(threads, count)
    assert any(count >= 3 for count, _ in passes)


def test_dib_fit_weight_scale_invariance():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng.standard_normal(60), rng.integers(0, 3, size=60), levels=(3,))
    density = estimate_conditional(ds, Bandwidths(s=1.0, lam=[0.3]))
    w = ds.weights
    scaled = (7.0 * w) / (7.0 * w).sum()
    a = dib_fit_density(density, w, k=3, beta=30.0, restarts=5, rng_seed=4)
    b = dib_fit_density(density, scaled, k=3, beta=30.0, restarts=5, rng_seed=4)
    np.testing.assert_array_equal(a.assign, b.assign)


def test_dib_fit_objective_identity_and_restart_summary():
    rng = np.random.default_rng(19)
    ds = make_dataset(rng.standard_normal(70), rng.integers(0, 3, size=70), levels=(3,))
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
        ds = make_dataset(rng.standard_normal(n), rng.integers(0, 3, size=n), levels=(3,))
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
    ds = make_dataset(rng.standard_normal(10))
    bw = Bandwidths(s=1.0)
    with pytest.raises(ValueError):
        dib_fit(ds, k=11, beta=1.0, bw=bw)
    with pytest.raises(ValueError):
        dib_fit(ds, k=0, beta=1.0, bw=bw)
    for beta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            dib_fit(ds, k=2, beta=beta, bw=bw)
    # beta is read as a float, as each point of a sweep's grid is
    with pytest.raises(ValueError, match=r"^beta must be .*, got -1\.0$"):
        dib_fit(ds, k=2, beta=-1, bw=bw)
    assert type(dib_fit(ds, k=2, beta=1, bw=bw, restarts=1).beta) is float
    with pytest.raises(ValueError):
        dib_fit(ds, k=2, beta=1.0, bw=bw, restarts=0)
    with pytest.raises(ValueError):
        dib_fit(ds, k=2, beta=1.0, bw=bw, max_iter=0)
    for threads, message in ((0, "must be >= 1, got 0"), (-5, "must be >= 1, got -5"),
                             (2.5, "must be an integer, got 2.5")):
        with pytest.raises(ValueError, match=f"^threads {message}$"):
            dib_fit(ds, k=2, beta=1.0, bw=bw, threads=threads)


@pytest.mark.parametrize("fit", ["dib_fit", "beta_sweep"])
@pytest.mark.parametrize("bad, message", [
    (dict(k=0), "need 1 <= k <= n, got k=0, n=10"),
    (dict(restarts=0), "restarts must be >= 1, got 0"),
    (dict(max_iter=0), "max_iter must be >= 1, got 0"),
    (dict(rng_seed=-1), "seed must be nonnegative and finite, at most 1e100, got -1"),
    (dict(beta=1e308), "beta must be nonnegative and finite, at most 1e100, got 1e+308"),
    (dict(threads=0), "threads must be >= 1, got 0"),
    (dict(k=2.5), "k must be an integer, got 2.5"),
    (dict(rng_seed=1.5), "seed must be an integer, got 1.5"),
], ids=["k", "restarts", "max_iter", "seed", "beta", "threads", "k_integer", "seed_integer"])
def test_bad_arguments_are_refused_before_the_density_is_built(monkeypatch, fit, bad, message):
    def build(*args, **kwargs):
        raise AssertionError("the density was built")

    monkeypatch.setattr("dibmix.dib.estimate_conditional", build)
    ds = make_dataset(np.random.default_rng(0).standard_normal(10))
    given = dict(k=2, beta=1.0, restarts=1, max_iter=1, rng_seed=0, threads=1) | bad
    beta = given.pop("beta")
    with pytest.raises(ValueError) as info:
        if fit == "dib_fit":
            dib_fit(ds, beta=beta, bw=Bandwidths(s=1.0), **given)
        else:
            beta_sweep(ds, bw=Bandwidths(s=1.0), betas=[beta], **given)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# beta_sweep


def test_beta_sweep_zero_beta_row():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.standard_normal(40), rng.integers(0, 3, size=40), levels=(3,))
    sweep = beta_sweep(ds, k=4, bw=Bandwidths(s=1.0, lam=[0.3]), betas=(0.0,),
                       restarts=3, rng_seed=0)
    assert len(sweep.rows) == 1
    assert sweep.rows[0].effective_k == 1
    assert sweep.rows[0].relevance == pytest.approx(0.0, abs=1e-12)
    assert sweep.suggested_beta is None


def _fit_fields(result):
    """Every field of a ``DibResult`` as exact text: arrays by their bytes,
    the encoder by its three arrays', everything else by repr."""
    out = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if f.name == "encoder":
            value = [a.tobytes() for a in (value.assign, value.masses, value.decoder)]
        elif f.name == "objective_trace":
            value = value.tobytes()
        out[f.name] = repr(value)
    return out


def test_beta_sweep_rows_are_the_fits_and_dib_fit_is_one_row():
    """Each row is, field for field, the fit of ``dib_fit_density`` on the
    sweep's density at its beta, and ``dib_fit`` at a beta is the one-point
    sweep's row."""
    rng = np.random.default_rng(10)
    ds = make_dataset(rng.standard_normal(50), rng.integers(0, 3, size=50), levels=(3,))
    bw = Bandwidths(s=1.0, lam=[0.3])
    betas = (0.0, 5.0, 20.0, 100.0)
    sweep = beta_sweep(ds, k=3, bw=bw, betas=betas, restarts=4, rng_seed=5)
    density = estimate_conditional(ds, bw)
    assert len(sweep.rows) == len(betas)
    for beta, row in zip(betas, sweep.rows):
        fit = dib_fit_density(density, ds.weights, 3, beta, restarts=4, rng_seed=5)
        assert _fit_fields(row) == _fit_fields(fit)
        [one_point] = beta_sweep(ds, k=3, bw=bw, betas=[beta], restarts=4, rng_seed=5).rows
        alone = dib_fit(ds, k=3, beta=beta, bw=bw, restarts=4, rng_seed=5)
        assert _fit_fields(alone) == _fit_fields(one_point)


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
    ds = make_dataset(rng.standard_normal(10))
    with pytest.raises(ValueError):
        beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=())
    with pytest.raises(ValueError):
        beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=(1.0, -2.0))
    # a one-point grid has no ordering to fail
    for betas in ((float("nan"),), (float("inf"),), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=betas)
    # a repeated beta divides by zero in the curvature; an unsorted grid
    # takes it across points that are not neighbours
    for betas in ((0.0, 5.0, 5.0, 100.0), (100.0, 5.0, 20.0, 0.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            beta_sweep(ds, k=2, bw=Bandwidths(s=1.0), betas=betas)
