"""Bandwidth-selection tests.

The balancing rule is checked against a brute-force oracle that materializes
every pairwise kernel value with explicit loops and takes plain population
variances.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from dibmix import (
    SchemaError,
    choose_bandwidths,
    default_s,
    gaussian_kernel,
    kernel_factor_variance_categorical,
    kernel_factor_variance_continuous,
    select_lambda,
)
from dibmix.bandwidth import offset_lambda
from dibmix.kernels import _block_rows

from conftest import make_dataset, random_mixed_dataset


def _brute_variance_continuous(ds, s):
    """Population variance of all n^2 pairwise Gaussian kernel values,
    averaged over continuous variables, via explicit loops."""
    variances = []
    for c in range(ds.p_cont):
        vals = []
        for i in range(ds.n):
            for j in range(ds.n):
                d = ds.continuous[i, c] - ds.continuous[j, c]
                vals.append(np.exp(-(d * d) / (2 * s * s)) / np.sqrt(2 * np.pi))
        vals = np.array(vals)
        variances.append(((vals - vals.mean()) ** 2).mean())
    return float(np.mean(variances))


def _brute_variance_categorical(ds, lam):
    variances = []
    for d in range(ds.p_cat):
        levels = ds.categorical_vars[d].n_levels
        mismatch = lam[d] / (levels - 1)
        match = 1.0 - (levels - 1) * mismatch
        vals = []
        for i in range(ds.n):
            for j in range(ds.n):
                vals.append(match if ds.categorical[i, d] == ds.categorical[j, d] else mismatch)
        vals = np.array(vals)
        variances.append(((vals - vals.mean()) ** 2).mean())
    return float(np.mean(variances))


# ---------------------------------------------------------------------------
# default_s


def test_default_s_examples():
    ds = make_dataset(continuous=np.zeros((500, 2)))
    assert default_s(ds) == pytest.approx(1.0648609979266712, rel=1e-15)
    assert default_s(ds, multiplier=1.0) == pytest.approx(0.35495366597555705, rel=1e-15)


def test_default_s_errors():
    with pytest.raises(SchemaError):
        default_s(make_dataset(categorical=[0, 1], levels=(2,)))  # no continuous vars
    with pytest.raises(SchemaError):
        default_s(make_dataset(continuous=[[1.0]]))  # n = 1
    with pytest.raises(ValueError):
        default_s(make_dataset(continuous=np.zeros((10, 1))), multiplier=0.0)


# ---------------------------------------------------------------------------
# kernel factor variances


def test_variance_continuous_constant_column_is_zero():
    ds = make_dataset(continuous=np.full((6, 1), 2.5))
    # identical kernel values everywhere; only mean-accumulation ulps remain
    assert kernel_factor_variance_continuous(ds, 1.0) == pytest.approx(0.0, abs=1e-30)


def test_variance_continuous_two_point_hand_case():
    ds = make_dataset(continuous=[0.0, 1.0])
    assert kernel_factor_variance_continuous(ds, 1.0) == pytest.approx(
        0.006160017339026671, rel=1e-12
    )


def test_variance_continuous_vanishes_for_huge_s():
    rng = np.random.default_rng(1)
    ds = make_dataset(continuous=rng.standard_normal((30, 2)))
    assert kernel_factor_variance_continuous(ds, 1e6) == pytest.approx(0.0, abs=1e-9)


def test_variance_functions_match_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ds = random_mixed_dataset(rng, n=12, p_cont=int(rng.integers(1, 3)),
                                  p_cat=int(rng.integers(1, 3)))
        s = float(rng.uniform(0.2, 3.0))
        lam = np.array([rng.uniform(0, (l - 1) / l) for l in ds.n_levels])
        assert kernel_factor_variance_continuous(ds, s) == pytest.approx(
            _brute_variance_continuous(ds, s), rel=1e-10, abs=1e-15
        )
        assert kernel_factor_variance_categorical(ds, lam) == pytest.approx(
            _brute_variance_categorical(ds, lam), rel=1e-10, abs=1e-15
        )


def _stable_variance_continuous(ds, s):
    """Population variance of all n^2 pairwise Gaussian kernel values from
    the whole n x n array, averaged over continuous variables.  Values are
    taken relative to the diagonal value 1/sqrt(2 pi) (the same variance), so
    that at huge s the spread is not lost to rounding next to it."""
    s = np.broadcast_to(np.asarray(s, dtype=float), (ds.p_cont,))
    variances = []
    for c in range(ds.p_cont):
        d = ds.continuous[:, c, None] - ds.continuous[None, :, c]
        vals = np.expm1(-(d * d) / (2 * s[c] * s[c])) / np.sqrt(2 * np.pi)
        variances.append(((vals - vals.mean()) ** 2).mean())
    return float(np.mean(variances))


def test_variance_continuous_across_blocks_matches_brute_force():
    n = 301  # odd, and more than two blocks of rows with a partial last block
    rows = _block_rows(n)
    assert 2 * rows < n and n % rows, "the case must span several blocks"
    rng = np.random.default_rng(17)
    cont = rng.standard_normal((n, 3)) * [1.0, 4.0, 1.0]
    cont[:, 2] = 0.7  # a constant column
    ds = make_dataset(continuous=cont)
    for s in (0.3, 1.0, 2.0):
        got = kernel_factor_variance_continuous(ds, s)
        assert got == pytest.approx(_stable_variance_continuous(ds, s), rel=1e-12, abs=0)
        plain = np.mean([
            gaussian_kernel(ds.continuous[:, c, None] - ds.continuous[None, :, c], s).var()
            for c in range(3)
        ])
        assert got == pytest.approx(plain, rel=1e-12, abs=0)
    # At s = 1e6 the values spread by ~1e-13 around 1/sqrt(2 pi), where their
    # own rounding is ~1e-17: only the shifted brute force resolves them.
    huge = kernel_factor_variance_continuous(ds, 1e6)
    assert 0 < huge == pytest.approx(_stable_variance_continuous(ds, 1e6), rel=1e-12, abs=0)
    constant = make_dataset(continuous=np.full((n, 2), -1.25))
    assert abs(kernel_factor_variance_continuous(constant, 0.8)) <= 1e-30


def test_variance_continuous_peak_memory():
    # The pass allocates no n x n array.
    n = 1200
    ds = make_dataset(continuous=np.random.default_rng(6).standard_normal((n, 3)))
    tracemalloc.start()
    try:
        kernel_factor_variance_continuous(ds, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8


def test_variance_categorical_scales_as_one_minus_alpha_squared():
    # On lambda = alpha * (levels - 1) / levels, match and mismatch values
    # differ by 1 - alpha, which is the law select_lambda solves in closed form.
    # Rounded, they differ by 1 - alpha within a few ulps of 1; that shows only
    # at alpha = 1, where the squared difference is ~1e-32 instead of 0.
    rng = np.random.default_rng(21)
    for _ in range(12):
        ds = random_mixed_dataset(rng, p_cat=int(rng.integers(2, 5)), max_levels=7)
        upper = np.array([(l - 1) / l for l in ds.n_levels])
        at_zero = kernel_factor_variance_categorical(ds, np.zeros(ds.p_cat))
        for alpha in np.linspace(0.0, 1.0, 11):
            assert kernel_factor_variance_categorical(ds, alpha * upper) == pytest.approx(
                (1 - alpha) ** 2 * at_zero, rel=1e-12, abs=1e-30
            )


def test_variance_errors():
    with pytest.raises(SchemaError):
        kernel_factor_variance_continuous(make_dataset(categorical=[0, 1], levels=(2,)), 1.0)
    with pytest.raises(SchemaError):
        kernel_factor_variance_categorical(make_dataset(continuous=[0.0, 1.0]), [])
    ds = make_dataset(continuous=[0.0, 1.0], categorical=[0, 1], levels=(2,))
    with pytest.raises(SchemaError):
        kernel_factor_variance_categorical(ds, [0.1, 0.2])


# ---------------------------------------------------------------------------
# select_lambda


def test_select_lambda_zero_target_returns_upper_bounds():
    # Constant continuous column: continuous kernel variance 0, so the
    # matching variance must be 0, reached at the constant kernel.
    ds = make_dataset(
        continuous=np.zeros(8),
        categorical=[0, 1, 2, 0, 1, 2, 0, 1],
        levels=(3,),
    )
    lam = select_lambda(ds, s=1.0)
    np.testing.assert_array_equal(lam, [2.0 / 3.0])


def test_select_lambda_clamps_to_zero_with_warning():
    rng = np.random.default_rng(2)
    ds = make_dataset(
        continuous=rng.standard_normal(20),
        categorical=rng.integers(0, 2, size=20),
        levels=(2,),
    )
    with pytest.warns(UserWarning, match="clamping lambda to 0"):
        lam = select_lambda(ds, s=1.0, categorical_weight=1e9)
    np.testing.assert_array_equal(lam, [0.0])


def test_select_lambda_constant_categorical_warns_midrange():
    ds = make_dataset(
        continuous=np.arange(6.0),
        categorical=np.zeros(6, dtype=int),
        levels=(4,),
    )
    with pytest.warns(UserWarning, match="constant"):
        lam = select_lambda(ds, s=1.0)
    np.testing.assert_allclose(lam, [0.5 * 0.75])


def test_select_lambda_no_continuous_fallback():
    ds = make_dataset(categorical=np.array([[0, 0], [1, 1], [2, 0], [3, 1]]), levels=(4, 2))
    lam = select_lambda(ds, s=1.0)
    np.testing.assert_allclose(lam, [0.75 - 0.2, max(0.0, 0.5 - 0.2)])


def test_select_lambda_hits_target_variance():
    # Balanced binary column, n=4; ask for half the maximum categorical
    # variance by scaling the weight accordingly.
    ds = make_dataset(
        continuous=[0.0, 1.0, 2.0, 3.0],
        categorical=[0, 0, 1, 1],
        levels=(2,),
    )
    cont = kernel_factor_variance_continuous(ds, 1.0)
    max_var = _brute_variance_categorical(ds, np.array([0.0]))
    w = 0.5 * max_var / cont
    lam = select_lambda(ds, s=1.0, categorical_weight=w)
    achieved = _brute_variance_categorical(ds, lam)
    target = 0.5 * max_var
    assert abs(achieved - target) <= 1e-12 * target


def test_select_lambda_balance_residual_random():
    rng = np.random.default_rng(44)
    hits = 0
    for _ in range(15):
        ds = random_mixed_dataset(rng, n=25, p_cont=int(rng.integers(1, 3)),
                                  p_cat=int(rng.integers(1, 4)))
        s = float(rng.uniform(0.3, 3.0))
        w = float(rng.uniform(0.3, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lam = select_lambda(ds, s=s, categorical_weight=w)
        upper = np.array([(l - 1) / l for l in ds.n_levels])
        assert np.all(lam >= 0.0) and np.all(lam <= upper + 1e-15)
        target = w * _brute_variance_continuous(ds, s)
        if np.all(lam == 0.0) or target > _brute_variance_categorical(ds, np.zeros(ds.p_cat)):
            continue  # clamped at the boundary: residual contract does not apply
        achieved = _brute_variance_categorical(ds, lam)
        assert abs(achieved - target) <= 1e-12 * target
        hits += 1
    assert hits >= 5  # the residual contract must actually have been exercised


def test_select_lambda_deterministic():
    rng = np.random.default_rng(3)
    ds = random_mixed_dataset(rng, n=40, p_cont=2, p_cat=2)
    a = select_lambda(ds, s=0.7, categorical_weight=1.3)
    b = select_lambda(ds, s=0.7, categorical_weight=1.3)
    np.testing.assert_array_equal(a, b)


def test_select_lambda_monotone_in_weight():
    rng = np.random.default_rng(5)
    ds = random_mixed_dataset(rng, n=30, p_cont=2, p_cat=2)
    upper = np.array([(l - 1) / l for l in ds.n_levels])
    alphas = []
    for w in (0.25, 0.5, 1.0, 2.0, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lam = select_lambda(ds, s=1.0, categorical_weight=w)
        alphas.append((lam / upper)[0])
    assert all(a >= b - 1e-12 for a, b in zip(alphas, alphas[1:]))


def test_select_lambda_errors():
    ds = make_dataset(continuous=[0.0, 1.0])
    with pytest.raises(SchemaError):
        select_lambda(ds, s=1.0)
    ds2 = make_dataset(continuous=[0.0, 1.0], categorical=[0, 1], levels=(2,))
    for weight in (0.0, float("nan")):
        with pytest.raises(ValueError):
            select_lambda(ds2, s=1.0, categorical_weight=weight)


# ---------------------------------------------------------------------------
# choose_bandwidths


_BAD_SETTINGS = [
    (dict(categorical_weight=0.0), "positive and finite"),
    (dict(categorical_weight=float("nan")), "positive and finite"),
    (dict(categorical_weight=float("inf")), "positive and finite"),
    (dict(s=-1.0), "positive and finite"),
    (dict(s=float("nan")), "positive and finite"),
    (dict(s=float("inf")), "positive and finite"),
    (dict(s_multiplier=0.0), "positive and finite"),
    (dict(s_multiplier=float("nan")), "positive and finite"),
    (dict(s_multiplier=float("inf")), "positive and finite"),
    (dict(lam=[0.1], lambda_offset=0.1), "exclude each other"),
    (dict(lam=[0.1, 0.1, 0.1]), "needs 1 or 2 values, got 3"),
]


@pytest.mark.parametrize("settings, match", _BAD_SETTINGS, ids=[
    ",".join(f"{name}={value}" for name, value in settings.items())
    for settings, _ in _BAD_SETTINGS
])
def test_choose_bandwidths_rejects_bad_settings(settings, match):
    ds = random_mixed_dataset(np.random.default_rng(6), n=20, p_cont=1, p_cat=2)
    with pytest.raises(ValueError, match=match):
        choose_bandwidths(ds, **settings)


def test_choose_bandwidths_default_and_override():
    rng = np.random.default_rng(6)
    ds = random_mixed_dataset(rng, n=50, p_cont=2, p_cat=1)
    bw = choose_bandwidths(ds)
    assert bw.s == pytest.approx(default_s(ds), rel=1e-15)
    assert bw.lam.shape == (1,)
    pinned = choose_bandwidths(ds, s=2.5)
    assert pinned.s == 2.5


def test_choose_bandwidths_pure_continuous_and_pure_categorical():
    cont_only = make_dataset(continuous=np.random.default_rng(0).standard_normal((20, 2)))
    bw = choose_bandwidths(cont_only)
    assert bw.lam.shape == (0,)
    cat_only = make_dataset(categorical=np.tile([0, 1, 2], 4), levels=(3,))
    bw2 = choose_bandwidths(cat_only)
    np.testing.assert_allclose(bw2.lam, [2.0 / 3.0 - 0.2])


def test_choose_bandwidths_lambda_overrides():
    ds = random_mixed_dataset(np.random.default_rng(7), n=30, p_cont=1, p_cat=3)
    shared = choose_bandwidths(ds, lam=[0.25])
    np.testing.assert_array_equal(shared.lam, [0.25, 0.25, 0.25])
    assert shared.s == choose_bandwidths(ds).s
    offset = choose_bandwidths(ds, lambda_offset=0.1)
    np.testing.assert_array_equal(offset.lam, offset_lambda(ds, 0.1))


def test_offset_lambda_clips_to_range():
    ds = make_dataset(categorical=np.column_stack([np.tile([0, 1], 6), np.arange(12) % 5]),
                  levels=(2, 5))
    np.testing.assert_allclose(offset_lambda(ds, 0.2), [0.3, 0.6])
    np.testing.assert_allclose(offset_lambda(ds, 0.7), [0.0, 0.1])
    np.testing.assert_array_equal(offset_lambda(ds, -0.1), [0.5, 0.8])
