"""Synthetic-generator tests.

Separation values are validated against numeric quadrature of the actual
overlap area (conftest.overlap_quadrature) and, for large samples, against a
Monte Carlo histogram estimate of the realized overlap.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from dibmix import (
    BALANCE_EQUAL,
    BALANCE_IMBALANCED,
    GenSpec,
    categorical_masses,
    continuous_separation,
    generate,
)
from dibmix.datagen import _ndtri

from conftest import overlap_quadrature


# ---------------------------------------------------------------------------
# GenSpec


def test_genspec_validation():
    ok = GenSpec(n=100, p_c=2, p_d=2, levels=4, overlap_cont=0.3, overlap_cat=0.3)
    assert ok.levels == (4, 4)  # scalar levels broadcast per variable
    for levels in (np.int32(4), np.array([4, 4])):  # NumPy integers are integers
        spec = GenSpec(n=100, p_c=2, p_d=2, levels=levels, overlap_cont=0.3, overlap_cat=0.3)
        assert spec.levels == ok.levels and all(type(l) is int for l in spec.levels)
    with pytest.raises(ValueError):
        GenSpec(n=3, p_c=1, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3)
    with pytest.raises(ValueError):
        GenSpec(n=10, p_c=0, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3)
    with pytest.raises(ValueError):
        GenSpec(n=10, p_c=1, p_d=1, levels=(4, 4), overlap_cont=0.3, overlap_cat=0.3)
    with pytest.raises(ValueError):
        GenSpec(n=10, p_c=1, p_d=1, levels=1, overlap_cont=0.3, overlap_cat=0.3)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            GenSpec(n=10, p_c=1, p_d=1, levels=2, overlap_cont=bad, overlap_cat=0.3)
        with pytest.raises(ValueError):
            GenSpec(n=10, p_c=1, p_d=1, levels=2, overlap_cont=0.3, overlap_cat=bad)
    with pytest.raises(ValueError):
        GenSpec(n=10, p_c=1, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3,
                balance="lopsided")


@pytest.mark.parametrize("levels", [2.5, (2.5,), 3.0, (np.float64(3.0),), "3"])
def test_genspec_rejects_levels_that_are_not_integers(levels):
    with pytest.raises(ValueError, match="levels must be integers"):
        GenSpec(n=10, p_c=1, p_d=1, levels=levels, overlap_cont=0.3, overlap_cat=0.3)


@pytest.mark.parametrize("name, value", [
    ("n", 10.0), ("p_c", 1.0), ("p_d", np.float64(1.0)), ("seed", 1.5),
])
def test_genspec_refuses_counts_and_seeds_that_are_not_integers(name, value):
    spec = dict(n=10, p_c=1, p_d=1, levels=2, overlap_cont=0.3, overlap_cat=0.3, seed=0)
    with pytest.raises(ValueError) as info:
        GenSpec(**spec | {name: value})
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


def test_genspec_refuses_a_negative_seed():
    with pytest.raises(ValueError,
                       match="^seed must be nonnegative and finite, at most 1e100, got -1$"):
        GenSpec(n=10, p_c=1, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3, seed=-1)


def test_genspec_cluster_sizes():
    equal = GenSpec(n=200, p_c=1, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3)
    assert equal.cluster_sizes() == (100, 100)
    imb = GenSpec(n=200, p_c=1, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3,
                  balance=BALANCE_IMBALANCED)
    assert imb.cluster_sizes() == (50, 150)
    odd = GenSpec(n=7, p_c=1, p_d=0, levels=(), overlap_cont=0.3, overlap_cat=0.3)
    assert odd.cluster_sizes() == (3, 4)


# ---------------------------------------------------------------------------
# continuous_separation


def test_continuous_separation_frozen_values():
    # Inversion of 2*Phi(-delta/2) = overlap, cross-checked by quadrature
    # below; the bits are SciPy's.
    assert continuous_separation(0.3) == 2.0728667789875797 == -2.0 * ndtri(0.15)
    assert continuous_separation(0.6) == 1.0488010254160818 == -2.0 * ndtri(0.3)


def test_ndtri_port_is_bitwise_scipy():
    # Both rational branches of the tail (x = sqrt(-2 log y) below 8 and from
    # 8 on, down to subnormal y), the central branch, the reflection above
    # 1 - exp(-2), and the edges between them.
    rng = np.random.default_rng(0)
    edge = np.exp(-2.0)
    ys = np.concatenate([
        rng.uniform(edge, 1.0 - edge, 40_000),
        np.exp(-rng.uniform(2.0, 32.0, 30_000)),
        np.exp(-rng.uniform(32.0, 745.0, 20_000)),
        1.0 - edge * rng.uniform(0.0, 1.0, 20_000),
        [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 1.0 - edge,
         np.nextafter(1.0 - edge, 1.0), np.exp(-32.0), 0.5, 5e-324, np.nextafter(1.0, 0.0)],
    ])
    ys = ys[(ys > 0.0) & (ys < 1.0)]
    assert len(ys) >= 100_000
    ours = np.array([_ndtri(float(y)) for y in ys])
    assert ours.tobytes() == ndtri(ys).tobytes()


def test_continuous_separation_limit_full_overlap():
    assert continuous_separation(0.999999) == pytest.approx(0.0, abs=1e-5)
    assert continuous_separation(0.9) < continuous_separation(0.1)


def test_continuous_separation_quadrature_round_trip():
    for overlap in (0.05, 0.1, 0.3, 0.5, 0.6, 0.9, 0.99):
        delta = continuous_separation(overlap)
        assert overlap_quadrature(delta) == pytest.approx(overlap, abs=1e-6)


def test_continuous_separation_errors():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            continuous_separation(bad)


# ---------------------------------------------------------------------------
# categorical_masses


def test_categorical_masses_binary_example():
    pi1, pi2 = categorical_masses(0.6, 2)
    np.testing.assert_allclose(pi1, [0.7, 0.3], rtol=1e-15)
    np.testing.assert_allclose(pi2, [0.3, 0.7], rtol=1e-15)
    assert np.minimum(pi1, pi2).sum() == pytest.approx(0.6, abs=1e-9)


def test_categorical_masses_four_level_example():
    pi1, pi2 = categorical_masses(0.3, 4)
    np.testing.assert_allclose(pi1, [0.775, 0.075, 0.075, 0.075], rtol=1e-15)
    np.testing.assert_allclose(pi2, [0.075, 0.775, 0.075, 0.075], rtol=1e-15)
    assert np.minimum(pi1, pi2).sum() == pytest.approx(0.3, abs=1e-9)


def test_categorical_masses_near_one_is_near_uniform():
    pi1, pi2 = categorical_masses(0.999999, 3)
    np.testing.assert_allclose(pi1, 1.0 / 3.0, atol=1e-5)
    np.testing.assert_allclose(pi2, 1.0 / 3.0, atol=1e-5)


def test_categorical_masses_summed_min_property():
    for overlap in (0.01, 0.1, 0.25, 0.5, 0.75, 0.99):
        for levels in range(2, 8):
            pi1, pi2 = categorical_masses(overlap, levels)
            assert pi1.sum() == pytest.approx(1.0, abs=1e-12)
            assert pi2.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi1 >= 0) and np.all(pi2 >= 0)
            assert np.minimum(pi1, pi2).sum() == pytest.approx(overlap, abs=1e-9)


def test_categorical_masses_errors():
    with pytest.raises(ValueError):
        categorical_masses(0.3, 1)
    with pytest.raises(ValueError):
        categorical_masses(0.0, 3)
    with pytest.raises(ValueError):
        categorical_masses(1.0, 3)


# ---------------------------------------------------------------------------
# generate


def _spec(**kw):
    base = dict(n=200, p_c=2, p_d=2, levels=4, overlap_cont=0.3, overlap_cat=0.3,
                balance=BALANCE_EQUAL, seed=7)
    base.update(kw)
    return GenSpec(**base)


def test_generate_shapes_and_truth_sizes():
    out = generate(_spec())
    assert out.data.n == 200
    assert out.data.p_cont == 2 and out.data.p_cat == 2
    assert [v.name for v in out.data.schema] == ["x1", "x2", "c1", "c2"]
    assert out.data.categorical_vars[0].levels == ("l1", "l2", "l3", "l4")
    np.testing.assert_array_equal(np.bincount(out.truth), [100, 100])
    np.testing.assert_array_equal(out.truth[:100], 0)
    np.testing.assert_array_equal(out.truth[100:], 1)


def test_generate_imbalanced_sizes():
    out = generate(_spec(balance=BALANCE_IMBALANCED))
    np.testing.assert_array_equal(np.bincount(out.truth), [50, 150])


def test_generate_bit_reproducible():
    a = generate(_spec(seed=123))
    b = generate(_spec(seed=123))
    np.testing.assert_array_equal(a.data.continuous, b.data.continuous)
    np.testing.assert_array_equal(a.data.categorical, b.data.categorical)
    np.testing.assert_array_equal(a.truth, b.truth)
    c = generate(_spec(seed=124))
    assert not np.array_equal(a.data.continuous, c.data.continuous)


def test_generate_realized_delta_and_cluster_means():
    out = generate(_spec(n=4000, seed=1))
    assert out.delta == pytest.approx(continuous_separation(0.3), rel=1e-15)
    mean0 = out.data.continuous[out.truth == 0].mean()
    mean1 = out.data.continuous[out.truth == 1].mean()
    # each cluster mean is an average of 2000*2 normal draws: se ~ 0.016
    assert mean0 == pytest.approx(0.0, abs=0.1)
    assert mean1 == pytest.approx(out.delta, abs=0.1)


def test_generate_monte_carlo_continuous_overlap():
    spec = _spec(n=100_000, p_c=1, p_d=1, levels=2, overlap_cont=0.4, seed=42)
    out = generate(spec)
    x = out.data.continuous[:, 0]
    lo, hi = x.min() - 0.5, x.max() + 0.5
    bins = np.linspace(lo, hi, 201)
    width = bins[1] - bins[0]
    h0, _ = np.histogram(x[out.truth == 0], bins=bins, density=True)
    h1, _ = np.histogram(x[out.truth == 1], bins=bins, density=True)
    estimated = float(np.minimum(h0, h1).sum() * width)
    assert estimated == pytest.approx(0.4, abs=0.02)


def test_generate_categorical_frequencies_match_masses():
    spec = _spec(n=100_000, p_c=1, p_d=1, levels=4, overlap_cat=0.3, seed=9)
    out = generate(spec)
    pi1, pi2 = out.cat_masses[0]
    col = out.data.categorical[:, 0]
    freq1 = np.bincount(col[out.truth == 0], minlength=4) / 50_000
    freq2 = np.bincount(col[out.truth == 1], minlength=4) / 50_000
    np.testing.assert_allclose(freq1, pi1, atol=0.01)
    np.testing.assert_allclose(freq2, pi2, atol=0.01)
