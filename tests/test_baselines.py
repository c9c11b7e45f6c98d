"""Baseline-method tests: Gower dissimilarity, PAM, K-Prototypes.

PAM's converged medoid sets are verified against an exhaustive swap search;
K-Prototypes objectives are recomputed from labels with a from-scratch
means/modes evaluation.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from dibmix import (
    DibmixError,
    ZeroVarianceError,
    ari,
    default_gamma,
    gower,
    kprototypes_chain,
    kprototypes_fit,
    pam_fit,
    standardize,
)
from dibmix import baselines, kernels
from dibmix.baselines import (
    _build_gains, _kproto_chains, _pam_build, _pam_round, _swap_costs,
)
from dibmix.lockstep import walk

from conftest import (
    kproto_chain_oracle,
    kproto_starts,
    kprototypes_fit_oracle,
    make_dataset,
    pam_fit_oracle,
    pam_swap_oracle,
    random_mixed_dataset,
)


def _kproto_objective_from_labels(ds, labels, gamma, k):
    """Recompute the K-Prototypes objective from labels alone: refit the
    means/modes, then sum per-point costs with explicit loops."""
    total = 0.0
    for t in range(k):
        members = np.flatnonzero(labels == t)
        if members.size == 0:
            continue
        mean = ds.continuous[members].mean(axis=0) if ds.p_cont else None
        modes = [
            int(np.argmax(np.bincount(ds.categorical[members, j])))
            for j in range(ds.p_cat)
        ]
        for i in members:
            if ds.p_cont:
                diff = ds.continuous[i] - mean
                total += float(diff @ diff)
            for j in range(ds.p_cat):
                total += gamma * (ds.categorical[i, j] != modes[j])
    return total


def _pam_cost(d, medoids):
    return float(d[:, list(medoids)].min(axis=1).sum())


# ---------------------------------------------------------------------------
# gower


def test_gower_identical_rows_zero():
    ds = make_dataset(continuous=[[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]],
                      categorical=[0, 0, 1], levels=(2,))
    gm = gower(ds)
    assert gm[0, 1] == 0.0
    assert gm[0, 0] == 0.0


def test_gower_maximally_different_rows_one():
    ds = make_dataset(continuous=[0.0, 10.0], categorical=[0, 1], levels=(2,))
    gm = gower(ds)
    assert gm[0, 1] == 1.0


def test_gower_hand_case():
    # continuous range 10 with diff 5 (0.5) plus one mismatch (1) over p=2.
    ds = make_dataset(continuous=[0.0, 5.0, 10.0], categorical=[0, 1, 0], levels=(2,))
    gm = gower(ds)
    assert gm[0, 1] == pytest.approx(0.75, rel=1e-15)


def test_gower_is_a_read_only_array():
    ds = make_dataset(continuous=[0.0, 5.0, 10.0], categorical=[0, 1, 0], levels=(2,))
    d = gower(ds)
    assert type(d) is np.ndarray and d.shape == (3, 3) and d.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        d[0, 1] = 0.5


def test_gower_bounds_symmetry_random():
    rng = np.random.default_rng(15)
    for _ in range(10):
        ds = random_mixed_dataset(rng, n=25)
        gm = gower(ds)
        np.testing.assert_array_equal(gm, gm.T)
        np.testing.assert_array_equal(np.diag(gm), 0.0)
        assert gm.min() >= 0.0
        assert gm.max() <= 1.0 + 1e-12


def _gower_oracle(ds):
    """Gower by the textbook formula, one fresh n x n array per term."""
    total = np.zeros((ds.n, ds.n))
    for col in ds.continuous.T:
        total += np.abs(col[:, None] - col[None, :]) / float(col.max() - col.min())
    for col in ds.categorical.T:
        total += (col[:, None] != col[None, :]).astype(float)
    return total / (ds.p_cont + ds.p_cat)


@pytest.mark.parametrize("n", [200, 500])
def test_gower_matches_textbook_formula_bytes(n):
    rng = np.random.default_rng(n)
    for p_cont, p_cat in ((6, 6), (0, 3), (2, 0)):
        ds = random_mixed_dataset(rng, n=n, p_cont=p_cont, p_cat=p_cat)
        assert np.array_equal(gower(ds), _gower_oracle(ds))


def _traced_peak(fn, *args, **kwargs):
    """Bytes that ``fn(*args, **kwargs)`` holds at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gower_peak_memory():
    # The output is the only n x n array; the scratch is one block of rows.
    n = 600
    ds = random_mixed_dataset(np.random.default_rng(6), n=n, p_cont=6, p_cat=6)
    assert _traced_peak(gower, ds) <= 1.25 * n * n * 8


def test_gower_zero_range_error():
    ds = make_dataset(continuous=np.ones(5), categorical=np.arange(5) % 2, levels=(2,))
    with pytest.raises(ZeroVarianceError):
        gower(ds)


# ---------------------------------------------------------------------------
# pam


def _block_matrix(sizes, within=0.1, between=0.9):
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    matrix = np.where(labels[:, None] == labels[None, :], within, between)
    np.fill_diagonal(matrix, 0.0)
    return matrix, labels


def test_pam_k_equals_n_zero_cost():
    rng = np.random.default_rng(2)
    ds = make_dataset(continuous=rng.standard_normal(8))
    gm = gower(ds)
    labels = pam_fit(gm, k=8)
    np.testing.assert_array_equal(labels, np.arange(8))
    assert _pam_cost(gm, range(8)) == 0.0


def test_pam_two_blocks_recovered():
    gm, truth = _block_matrix([6, 9])
    labels = pam_fit(gm, k=2)
    assert ari(labels, truth) == 1.0


def test_pam_k1_all_one_cluster():
    gm, _ = _block_matrix([4, 4])
    np.testing.assert_array_equal(pam_fit(gm, k=1), 0)


def test_pam_build_k1_minimizes_row_sum():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.1, 1.0, size=(12, 12))
    d = (raw + raw.T) / 2
    np.fill_diagonal(d, 0.0)
    medoids = _pam_build(d, 1)
    assert medoids[0] == int(np.argmin(d.sum(axis=0)))


def test_pam_swap_reaches_local_optimum():
    # Exhaustive check: pam_fit labels by the medoids that SWAP reaches from
    # BUILD, and no single (medoid, candidate) swap lowers their total
    # nearest-medoid dissimilarity.
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(15, 50))
        ds = random_mixed_dataset(rng, n=n)
        d = gower(ds)
        k = int(rng.integers(2, 6))
        medoids = pam_swap_oracle(d, _pam_build(d, k), max_iter=100)
        np.testing.assert_array_equal(pam_fit(d, k, restarts=1),
                                      np.argmin(d[:, sorted(medoids)], axis=1))
        base = _pam_cost(d, medoids)
        for pos in range(k):
            for h in range(n):
                if h in medoids:
                    continue
                trial_medoids = list(medoids)
                trial_medoids[pos] = h
                assert _pam_cost(d, trial_medoids) >= base - 1e-12


def _labeling_cost(d, labels):
    """k-medoids objective of a labeling: per cluster, the best in-cluster
    medoid's dissimilarity sum."""
    total = 0.0
    for t in np.unique(labels):
        members = np.flatnonzero(labels == t)
        total += float(d[np.ix_(members, members)].sum(axis=0).min())
    return total


def test_pam_deterministic_and_restarts_never_worse():
    rng = np.random.default_rng(4)
    ds = random_mixed_dataset(rng, n=40)
    gm = gower(ds)
    a = pam_fit(gm, k=3, restarts=5, rng_seed=9)
    b = pam_fit(gm, k=3, restarts=5, rng_seed=9)
    np.testing.assert_array_equal(a, b)
    build_only = pam_fit(gm, k=3, restarts=1)
    # restart 0 is the deterministic BUILD start, so adding random restarts
    # can only match or improve the objective
    assert _labeling_cost(gm, a) <= _labeling_cost(gm, build_only) + 1e-9


def test_pam_errors():
    gm, _ = _block_matrix([3, 3])
    with pytest.raises(ValueError):
        pam_fit(gm, k=7)
    with pytest.raises(ValueError):
        pam_fit(gm, k=0)


# ---------------------------------------------------------------------------
# k-prototypes


def test_kproto_k1_means_modes_objective():
    ds = make_dataset(continuous=[0.0, 2.0, 4.0], categorical=[0, 0, 1], levels=(2,))
    labels, obj, trace = kprototypes_chain(ds, k=1, gamma=2.0, rng_seed=0)
    np.testing.assert_array_equal(labels, 0)
    # mean 2: squared deviations 4+0+4 = 8; mode 0: one mismatch * gamma = 2
    assert obj == pytest.approx(10.0, rel=1e-12)
    assert obj == pytest.approx(_kproto_objective_from_labels(ds, labels, 2.0, 1), rel=1e-12)


def test_kproto_identical_rows_zero_objective():
    ds = make_dataset(continuous=np.ones((6, 2)), categorical=np.ones(6, dtype=int),
                      levels=(3,))
    for k in (1, 2, 3):
        labels, obj, _ = kprototypes_chain(ds, k=k, rng_seed=1)
        assert obj == 0.0


def test_kproto_gamma_zero_is_kmeans_on_blobs():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.normal(0, 0.1, 30), rng.normal(10, 0.1, 30)])
    cat = rng.integers(0, 3, size=60)  # noise; gamma=0 must ignore it
    ds = make_dataset(continuous=x, categorical=cat, levels=(3,))
    truth = np.repeat([0, 1], 30)
    labels = kprototypes_fit(ds, k=2, gamma=0.0, restarts=5, rng_seed=0)
    assert ari(labels, truth) == 1.0


def test_kproto_trace_non_increasing():
    rng = np.random.default_rng(21)
    for trial in range(30):
        ds = random_mixed_dataset(rng, n=int(rng.integers(10, 60)))
        k = int(rng.integers(1, 5))
        _, obj, trace = kprototypes_chain(ds, k=k, rng_seed=trial)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9)
        assert obj == pytest.approx(trace[-1], abs=1e-9)


def test_kproto_fit_objective_matches_label_recomputation():
    rng = np.random.default_rng(5)
    ds = random_mixed_dataset(rng, n=50, p_cont=2, p_cat=2)
    gamma = 1.5
    labels, obj, _ = kprototypes_chain(ds, k=3, gamma=gamma, rng_seed=2)
    assert obj == pytest.approx(_kproto_objective_from_labels(ds, labels, gamma, 3), rel=1e-10)


def test_kproto_restarts_never_worse():
    rng = np.random.default_rng(6)
    ds = random_mixed_dataset(rng, n=60, p_cont=2, p_cat=1)
    single = kprototypes_fit(ds, k=4, restarts=1, rng_seed=3)
    multi = kprototypes_fit(ds, k=4, restarts=10, rng_seed=3)
    gamma = default_gamma(ds)
    assert _kproto_objective_from_labels(ds, multi, gamma, 4) <= (
        _kproto_objective_from_labels(ds, single, gamma, 4) + 1e-9
    )


def test_kproto_deterministic():
    rng = np.random.default_rng(8)
    ds = random_mixed_dataset(rng, n=45)
    a = kprototypes_fit(ds, k=3, restarts=4, rng_seed=12)
    b = kprototypes_fit(ds, k=3, restarts=4, rng_seed=12)
    np.testing.assert_array_equal(a, b)


def test_default_gamma():
    ds = make_dataset(continuous=[0.0, 2.0], categorical=[0, 1], levels=(2,))
    assert default_gamma(ds) == 2.0  # ddof=1 variance of (0, 2)
    cat_only = make_dataset(categorical=[0, 1, 2], levels=(3,))
    assert default_gamma(cat_only) == 1.0
    rng = np.random.default_rng(9)
    standardized = standardize(make_dataset(continuous=rng.standard_normal((40, 3))))
    assert default_gamma(standardized) == pytest.approx(1.0, abs=1e-12)


def test_default_gamma_needs_two_observations():
    """One row has no sample variance: a typed error, not a NaN gamma."""
    with pytest.raises(ZeroVarianceError, match="2 observations"):
        default_gamma(make_dataset(continuous=[1.5]))
    with pytest.raises(ZeroVarianceError):
        kprototypes_fit(make_dataset(continuous=[1.5]), k=1)


def test_default_gamma_refuses_an_overflowing_variance():
    huge = make_dataset(continuous=[1e200, 2e200, -1e200, 0.0, 5e199])
    with pytest.raises(DibmixError, match="too large for the default gamma"):
        default_gamma(huge)


def test_kproto_errors():
    ds = make_dataset(continuous=[0.0, 1.0])
    with pytest.raises(ValueError):
        kprototypes_fit(ds, k=3)
    for gamma in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            kprototypes_fit(ds, k=1, gamma=gamma)
        with pytest.raises(ValueError, match="gamma"):
            kprototypes_chain(ds, k=1, gamma=gamma)


@pytest.mark.parametrize("k, max_iter, message", [
    (0, 100, "need 1 <= k <= n, got k=0, n=3"),
    (4, 100, "need 1 <= k <= n, got k=4, n=3"),
    (1, 0, "max_iter must be >= 1, got 0"),
])
def test_kprototypes_chain_refuses_bad_arguments(k, max_iter, message):
    ds = make_dataset(continuous=[0.0, 1.0, 3.0])
    with pytest.raises(ValueError) as info:
        kprototypes_chain(ds, k=k, max_iter=max_iter)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# exactness against the per-restart oracles in conftest


def _repeated_rows(base, copies):
    return make_dataset(
        continuous=np.tile(base.continuous, (copies, 1)) if base.p_cont else None,
        categorical=np.tile(base.categorical, (copies, 1)),
        levels=base.n_levels,
    )


def _exactness_cases():
    rng = np.random.default_rng(2024)
    cases = [(f"random{i}", random_mixed_dataset(rng, n=int(rng.integers(20, 80))))
             for i in range(5)]
    cases.append(("one_continuous", random_mixed_dataset(rng, n=60, p_cont=1, p_cat=2)))
    cases.append(("wide_continuous", random_mixed_dataset(rng, n=50, p_cont=6, p_cat=0)))
    # Gower on categoricals alone takes few distinct values: many ties.
    cases.append(("categorical_only",
                  make_dataset(categorical=rng.integers(0, 2, size=(40, 2)), levels=(2, 2))))
    cases.append(("duplicated_rows",
                  _repeated_rows(random_mixed_dataset(rng, n=8, p_cont=2, p_cat=2), 4)))
    # Three distinct points: with k > 3 some cluster is always empty, so
    # K-Prototypes reseeds on every chain.
    cases.append(("three_points",
                  _repeated_rows(random_mixed_dataset(rng, n=3, p_cont=1, p_cat=1), 4)))
    return cases


EXACTNESS_CASES = _exactness_cases()


@pytest.fixture(params=EXACTNESS_CASES, ids=[name for name, _ in EXACTNESS_CASES])
def exactness_ds(request):
    return request.param[1]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("max_iter", [1, 2, 100])
def test_pam_fit_matches_per_restart_oracle(exactness_ds, k, max_iter):
    gm = gower(exactness_ds)
    labels = pam_fit(gm, k, restarts=25, max_iter=max_iter, rng_seed=k)
    expected = pam_fit_oracle(gm, k, restarts=25, max_iter=max_iter, rng_seed=k)
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pam_fit_default_restarts_matches_oracle(exactness_ds, k):
    # One restart, from BUILD: the CLI's default.
    gm = gower(exactness_ds)
    labels = pam_fit(gm, k)
    expected = pam_fit_oracle(gm, k, restarts=1, max_iter=100, rng_seed=0)
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()


def test_pam_swap_memo_budget_rule(exactness_ds):
    # Chains on one state graph reach shared nodes after different numbers
    # of swaps, some starting where others stand after one or two swaps;
    # each must stop after its own budget, where SWAP from its start alone
    # stops.
    d = gower(exactness_ds)
    n = d.shape[0]
    rng = np.random.default_rng(n)
    for k in range(1, min(n, 4) + 1):
        starts = [tuple(int(v) for v in rng.choice(n, size=k, replace=False))
                  for _ in range(12)]
        starts += [tuple(pam_swap_oracle(d, s, ahead)) for ahead in (1, 2) for s in starts[:4]]
        starts += starts[:2]
        for budget in (0, 1, 2, 3, 100):
            expected = [tuple(pam_swap_oracle(d, s, budget)) for s in starts]
            paths = walk(starts, functools.partial(_pam_round, d, {}), budget)
            assert [path[-1] for path in paths] == expected


@pytest.mark.parametrize("elems", [1, 7, 1 << 10, 1 << 20])
def test_pam_swap_costs_sweep_bytes(exactness_ds, elems, monkeypatch):
    # Whatever the block size, every vector holds the bytes of one
    # unblocked sum over all points in row order.
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", elems)
    d = gower(exactness_ds)
    n = d.shape[0]
    rng = np.random.default_rng(elems)
    for size in range(min(n, 4)):
        rests = [tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
                 for _ in range(1 if size == 0 else 6)]
        got = _swap_costs(d, rests)
        for rest, vector in zip(rests, got):
            e = d[:, list(rest)].min(axis=1) if rest else np.full(n, np.inf)
            assert vector.tobytes() == np.minimum(e[:, None], d).sum(axis=0).tobytes()


@pytest.mark.parametrize("elems", [1, 7, 1 << 10, 1 << 20])
def test_pam_build_gains_bytes(exactness_ds, elems, monkeypatch):
    # Whatever the block size, BUILD's gains hold the bytes of the one-shot
    # expression, summed over all points in row order.
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", elems)
    d = gower(exactness_ds)
    rng = np.random.default_rng(elems)
    for medoids in ([0], rng.choice(d.shape[0], size=min(3, d.shape[0]), replace=False)):
        nearest = d[:, medoids].min(axis=1)
        expected = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
        assert _build_gains(d, nearest).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [333, 1000])
def test_pam_build_gains_bytes_over_many_default_blocks(n):
    rng = np.random.default_rng(n)
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    d = (raw + raw.T) / 2
    np.fill_diagonal(d, 0.0)
    assert kernels._block_rows(n) < n
    nearest = d[:, rng.choice(n, size=3, replace=False)].min(axis=1)
    expected = np.maximum(nearest[:, None] - d, 0.0).sum(axis=0)
    assert _build_gains(d, nearest).tobytes() == expected.tobytes()


def test_pam_fit_makes_no_n_by_n_temporary():
    # BUILD and SWAP sum a block of rows at a time, so the whole fit holds
    # less than one more copy of its input.
    d = gower(random_mixed_dataset(np.random.default_rng(8), n=400, p_cont=2, p_cat=2))
    assert _traced_peak(pam_fit, d, 3, restarts=20, rng_seed=1) < d.nbytes


def test_kprototypes_fit_peak_stays_within_its_stack_budget():
    # One state of n=400, k=3 and 3 continuous variables is 3600 elements of
    # each (states, n, k, variables) temporary, so 100 restarts take several
    # stacks of 1 << 16 doubles (512 KiB) each; the whole fit, its state
    # graph included, peaks below six such budgets.
    ds = random_mixed_dataset(np.random.default_rng(9), n=400, p_cont=3, p_cat=2)
    assert _traced_peak(kprototypes_fit, ds, 3, restarts=100, rng_seed=1) < 6 * (8 << 16)


def test_kproto_refresh_modes_match_per_cluster_tallies():
    """With 6 categorical variables of 6 levels, each filled cluster's modes
    are its members' most frequent levels, the lowest on a tie, byte for
    byte; an empty cluster keeps its prototype."""
    rng = np.random.default_rng(12)
    n, k, chains, p_cat = 90, 4, 5, 6
    ds = make_dataset(continuous=rng.standard_normal((n, 2)),
                      categorical=rng.integers(0, 6, size=(n, p_cat)), levels=(6,) * p_cat)
    labels = rng.integers(0, k, size=(chains, n))
    labels[1][labels[1] == 2] = 0
    labels[3] = 1
    centers = rng.standard_normal((chains, k, 2))
    modes = rng.integers(0, 6, size=(chains, k, p_cat)).astype(ds.categorical.dtype)
    before = modes.copy()
    filled = baselines._kproto_refresh(ds, labels, centers, modes)
    assert filled.sum() == chains * k - 4
    for c in range(chains):
        for t in range(k):
            members = labels[c] == t
            assert filled[c, t] == members.any()
            expected = before[c, t]
            if members.any():
                expected = np.array([np.argmax(np.bincount(ds.categorical[members, j]))
                                     for j in range(p_cat)], dtype=modes.dtype)
            assert modes[c, t].tobytes() == expected.tobytes()


def _spy_swap_costs(monkeypatch):
    """Record every (remaining-medoid set, candidate-cost vector) that SWAP
    sums, and the sets of each sweep."""
    calls, sweeps = [], []
    real = baselines._swap_costs

    def spy(d, rests):
        out = real(d, rests)
        calls.extend(zip(rests, out))
        sweeps.append(list(rests))
        return out

    monkeypatch.setattr(baselines, "_swap_costs", spy)
    return calls, sweeps


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pam_swap_costs_match_brute_force(exactness_ds, k, monkeypatch):
    # Each candidate's cost is the swapped set's total nearest-medoid
    # dissimilarity, recomputed directly for every h.
    d = gower(exactness_ds)
    calls, _ = _spy_swap_costs(monkeypatch)
    pam_fit(d, k, restarts=10, rng_seed=k)
    assert calls
    for rest, after in calls:
        brute = [_pam_cost(d, list(rest) + [h]) for h in range(d.shape[0])]
        np.testing.assert_allclose(after, brute, rtol=1e-12, atol=0)


def test_pam_swap_costs_summed_once_per_set_per_fit(monkeypatch):
    gm = gower(random_mixed_dataset(np.random.default_rng(31), n=120))
    calls, sweeps = _spy_swap_costs(monkeypatch)
    pam_fit(gm, k=3, restarts=10, rng_seed=3)
    first = [rest for rest, _ in calls]
    # below the cache bound of n sets, no set is summed twice, and each
    # lock-step round sums its sets in one sweep
    assert len(first) == len(set(first)) <= len(gm)
    assert 1 < len(sweeps) < len(first)
    # a second fit starts from an empty cache
    pam_fit(gm, k=3, restarts=10, rng_seed=3)
    assert [rest for rest, _ in calls[len(first):]] == first


def test_pam_swap_cost_cache_bound_matches_oracle(monkeypatch):
    # At k = 5 on 16 points a fit meets more remaining-medoid sets than n,
    # so the cache fills and later sets serve their round only.
    gm = gower(random_mixed_dataset(np.random.default_rng(12), n=16))
    sizes = []
    real = baselines._pam_round

    def spy(d, costs, pending):
        successors = real(d, costs, pending)
        sizes.append(len(costs))
        return successors

    monkeypatch.setattr(baselines, "_pam_round", spy)
    calls, _ = _spy_swap_costs(monkeypatch)
    labels = pam_fit(gm, k=5, restarts=25, rng_seed=5)
    assert max(sizes) == len(gm)
    assert len(calls) > len(gm)
    expected = pam_fit_oracle(gm, k=5, restarts=25, max_iter=100, rng_seed=5)
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("max_iter", [1, 2, 100])
def test_kproto_chains_match_oracle(exactness_ds, k, max_iter):
    gamma = default_gamma(exactness_ds)
    starts = kproto_starts(exactness_ds.n, k, restarts=20, rng_seed=k)
    chains = _kproto_chains(exactness_ds, k, gamma, max_iter, starts)
    for (labels, objective, trace), start in zip(chains, starts, strict=True):
        expected, obj, expected_trace = kproto_chain_oracle(exactness_ds, k, gamma, max_iter, start)
        assert labels.dtype == expected.dtype
        assert labels.tobytes() == expected.tobytes()
        assert objective == obj
        assert tuple(trace) == expected_trace


@pytest.mark.parametrize("k", [1, 2, 5])
def test_kprototypes_fit_matches_oracle_across_blocks(exactness_ds, k, monkeypatch):
    expected = kprototypes_fit_oracle(exactness_ds, k, restarts=12, max_iter=100, rng_seed=3)
    one_block = kprototypes_fit(exactness_ds, k, restarts=12, rng_seed=3)
    # one chain's worth of elements per block: every restart in its own block
    monkeypatch.setattr(baselines, "_KPROTO_BLOCK_ELEMS", 1)
    many_blocks = kprototypes_fit(exactness_ds, k, restarts=12, rng_seed=3)
    assert one_block.tobytes() == expected.tobytes()
    assert many_blocks.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kprototypes_fit_merged_chains_match_oracle(k, monkeypatch):
    # 40 restarts on 12 points repeat starts, and the duplicated rows give
    # different starts byte-equal prototypes, so chains merge.
    ds = _repeated_rows(random_mixed_dataset(np.random.default_rng(k), n=6, p_cont=2, p_cat=2), 2)
    states = []
    real = baselines._kproto_costs

    def spy(ds, centers, modes, gamma):
        states.append([c.tobytes() + m.tobytes() for c, m in zip(centers, modes)])
        return real(ds, centers, modes, gamma)

    monkeypatch.setattr(baselines, "_kproto_costs", spy)
    labels = kprototypes_fit(ds, k, restarts=40, rng_seed=k)
    expected = kprototypes_fit_oracle(ds, k, restarts=40, max_iter=100, rng_seed=k)
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()
    # merged chains are costed once per step
    assert len(states[0]) < 40
    for step in states:
        assert len(step) == len(set(step))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kprototypes_fit_costs_each_state_once_across_stacks(k, monkeypatch):
    # One state per cost stack, and 40 restarts on 12 points (6 rows twice)
    # repeat starts and states.  One state graph spans every restart, so no
    # state is costed twice in a fit; on this data distinct states also have
    # distinct prototypes.
    ds = _repeated_rows(random_mixed_dataset(np.random.default_rng(k), n=6, p_cont=2, p_cat=2), 2)
    costed = []
    real = baselines._kproto_costs

    def spy(ds, centers, modes, gamma):
        costed.extend(c.tobytes() + m.tobytes() for c, m in zip(centers, modes))
        return real(ds, centers, modes, gamma)

    monkeypatch.setattr(baselines, "_kproto_costs", spy)
    monkeypatch.setattr(baselines, "_KPROTO_BLOCK_ELEMS", 1)
    labels = kprototypes_fit(ds, k, restarts=40, rng_seed=k)
    expected = kprototypes_fit_oracle(ds, k, restarts=40, max_iter=100, rng_seed=k)
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()
    assert len(costed) == len(set(costed))


@pytest.mark.parametrize("max_iter", [1, 2, 100])
def test_kprototypes_chain_trace_matches_oracle(exactness_ds, max_iter):
    k = min(3, exactness_ds.n)
    gamma = default_gamma(exactness_ds)
    start = np.random.default_rng(7).choice(exactness_ds.n, size=k, replace=False)
    labels, obj, trace = kprototypes_chain(exactness_ds, k, max_iter=max_iter, rng_seed=7)
    expected = kproto_chain_oracle(exactness_ds, k, gamma, max_iter, start)
    assert labels.tobytes() == expected[0].tobytes()
    assert (obj, trace) == expected[1:]


def test_baseline_restart_and_iteration_errors():
    ds = make_dataset(continuous=[0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        pam_fit(gower(ds), k=1, restarts=0)
    for max_iter in (0, -3):
        with pytest.raises(ValueError):
            pam_fit(gower(ds), k=1, max_iter=max_iter)
    with pytest.raises(ValueError):
        kprototypes_fit(ds, k=1, restarts=0)
    with pytest.raises(ValueError):
        kprototypes_fit(ds, k=1, max_iter=0)
