"""Kernel and conditional-density tests.

Expected numbers are either closed-form constants (1/sqrt(2*pi), indicator
limits) or values recomputed here through the scalar oracle in conftest.
"""

import tracemalloc

import numpy as np
import pytest

from dibmix import (
    Bandwidths,
    SchemaError,
    SizeCapError,
    aitchison_aitken,
    estimate_conditional,
    gaussian_kernel,
)
from dibmix import kernels
from dibmix.kernels import ConditionalDensity, _block_rows, _log_kernel_blocks, _row_blocks

from conftest import (
    make_dataset,
    product_kernel_oracle,
    random_bandwidths,
    random_mixed_dataset,
)


def _log_kernel(ds, bw):
    """The n x n log K(i, j) - log K(i, i) of the library's blocked pass."""
    bw.validate_for(ds)
    out = np.empty((ds.n, ds.n))
    for _ in _log_kernel_blocks(ds, bw, out):
        pass
    return out


# ---------------------------------------------------------------------------
# gaussian_kernel


def test_gaussian_kernel_at_zero_is_inverse_sqrt_2pi():
    assert gaussian_kernel(0.0, 1.0) == 1.0 / np.sqrt(2.0 * np.pi)
    assert gaussian_kernel(0.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-15)


def test_gaussian_kernel_unit_values():
    assert gaussian_kernel(1.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-15)
    assert gaussian_kernel(-1.0, 1.0) == gaussian_kernel(1.0, 1.0)


def test_gaussian_kernel_scale_symmetry():
    # Only diff/s enters, so (diff=2, s=2) matches (diff=1, s=1).
    assert gaussian_kernel(2.0, 2.0) == gaussian_kernel(1.0, 1.0)


def test_gaussian_kernel_vectorized_and_errors():
    out = gaussian_kernel(np.array([0.0, 1.0]), 1.0)
    np.testing.assert_allclose(out, [0.3989422804014327, 0.24197072451914337], rtol=1e-15)
    with pytest.raises(ValueError):
        gaussian_kernel(1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(1.0, -2.0)


# ---------------------------------------------------------------------------
# aitchison_aitken


def test_aitchison_aitken_indicator_limit():
    assert aitchison_aitken(True, 0.0, 3) == 1.0
    assert aitchison_aitken(False, 0.0, 3) == 0.0


def test_aitchison_aitken_direct_substitution():
    assert aitchison_aitken(True, 0.3, 4) == pytest.approx(0.7, rel=1e-15)
    assert aitchison_aitken(False, 0.3, 4) == pytest.approx(0.1, rel=1e-15)


def test_aitchison_aitken_uninformative_upper_range():
    # lam = (l-1)/l makes every level equally likely: 1/l on and off match.
    match = aitchison_aitken(True, 0.8, 5)
    mismatch = aitchison_aitken(False, 0.8, 5)
    assert mismatch == 0.2
    assert match == pytest.approx(0.2, rel=1e-14)


def test_aitchison_aitken_mass_is_exactly_one():
    rng = np.random.default_rng(11)
    for levels in range(2, 9):
        for lam in rng.uniform(0.0, (levels - 1) / levels, size=25):
            match = aitchison_aitken(True, lam, levels)
            mismatch = aitchison_aitken(False, lam, levels)
            assert match + (levels - 1) * mismatch == 1.0


def test_aitchison_aitken_errors():
    with pytest.raises(ValueError):
        aitchison_aitken(True, -0.1, 3)
    with pytest.raises(ValueError):
        aitchison_aitken(True, 0.7, 3)  # above (3-1)/3
    with pytest.raises(ValueError):
        aitchison_aitken(True, 0.0, 1)


# ---------------------------------------------------------------------------
# Bandwidths


def test_bandwidths_validation():
    with pytest.raises(ValueError):
        Bandwidths(s=0.0)
    with pytest.raises(ValueError):
        Bandwidths(s=np.inf)
    with pytest.raises(ValueError):
        Bandwidths(s=1.0, lam=[-0.1])
    ds = make_dataset(continuous=[[0.0], [1.0]], categorical=[0, 1], levels=(3,))
    with pytest.raises(SchemaError):
        Bandwidths(s=1.0, lam=[0.1, 0.2]).validate_for(ds)
    with pytest.raises(ValueError):
        Bandwidths(s=1.0, lam=[0.9]).validate_for(ds)  # above (3-1)/3


def test_bandwidths_s_is_one_scalar():
    for s in (np.array([0.5, 1.0]), [1.0]):
        with pytest.raises(ValueError, match="one positive, finite float"):
            Bandwidths(s=s)
    for s in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="s must be positive and finite"):
            Bandwidths(s=s)
    bw = Bandwidths(s=np.float64(0.5))
    assert type(bw.s) is float and bw.s == 0.5


# ---------------------------------------------------------------------------
# product kernel: the scalar oracle against closed forms, then the library's
# log-space pass against the oracle


def test_product_kernel_identical_point_mixed():
    ds = make_dataset(continuous=[0.4, 1.3], categorical=[2, 1], levels=(4,))
    bw = Bandwidths(s=1.0, lam=[0.3])
    # Self-comparison: gaussian at 0 times the categorical match value.
    value = product_kernel_oracle(ds, 0, 0, bw.s, bw.lam)
    assert value == pytest.approx(0.2792595962810029, rel=1e-15)


def test_product_kernel_all_categorical_full_mismatch():
    ds = make_dataset(categorical=[[0, 1], [2, 3]], levels=(4, 4))
    bw = Bandwidths(s=1.0, lam=[0.3, 0.3])
    assert product_kernel_oracle(ds, 0, 1, bw.s, bw.lam) == pytest.approx(0.01, rel=1e-14)


def test_product_kernel_indicator_mismatch_is_zero():
    ds = make_dataset(categorical=[0, 1], levels=(2,))
    bw = Bandwidths(s=1.0, lam=[0.0])
    assert product_kernel_oracle(ds, 0, 1, bw.s, bw.lam) == 0.0
    assert np.exp(_log_kernel(ds, bw)[0, 1]) == 0.0


def test_product_kernel_matches_scalar_oracle_and_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(20):
        ds = random_mixed_dataset(rng, n=8)
        bw = random_bandwidths(rng, ds)
        log_kernel = _log_kernel(ds, bw)
        np.testing.assert_array_equal(log_kernel, log_kernel.T)  # exact symmetry
        for i in range(ds.n):
            self_term = product_kernel_oracle(ds, i, i, bw.s, bw.lam)
            for j in range(ds.n):
                want = product_kernel_oracle(ds, i, j, bw.s, bw.lam) / self_term
                assert np.exp(log_kernel[i, j]) == pytest.approx(want, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# estimate_conditional


def test_estimate_conditional_single_point():
    ds = make_dataset(continuous=[3.7])
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    np.testing.assert_array_equal(density.matrix, [[1.0]])
    np.testing.assert_array_equal(density.marginal_y, [1.0])


def test_estimate_conditional_identical_observations():
    ds = make_dataset(continuous=[1.0, 1.0])
    density = estimate_conditional(ds, Bandwidths(s=2.0))
    np.testing.assert_allclose(density.matrix, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=0)
    np.testing.assert_allclose(density.marginal_y, [0.5, 0.5], rtol=0, atol=0)


def test_estimate_conditional_three_point_hand_case():
    # Unnormalized row 0 is (K(0), K(1), K(10)); dividing by the sum gives
    # the values below (recomputed with scalar math).
    ds = make_dataset(continuous=[0.0, 1.0, 10.0])
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    np.testing.assert_allclose(
        density.matrix[0],
        [0.6224593312018546, 0.37754066879814546, 1.200568340419299e-22],
        rtol=1e-12,
    )
    assert density.matrix[0, 2] > 0.0


def test_estimate_conditional_rows_are_distributions():
    rng = np.random.default_rng(101)
    for _ in range(30):
        ds = random_mixed_dataset(rng, n=int(rng.integers(2, 40)))
        bw = random_bandwidths(rng, ds)
        density = estimate_conditional(ds, bw)
        assert np.all(density.matrix >= 0.0)
        np.testing.assert_allclose(density.matrix.sum(axis=1), 1.0, atol=1e-9)
        assert density.marginal_y.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(density.marginal_y, ds.weights @ density.matrix)


def test_estimate_conditional_agrees_with_pairwise_product_kernel():
    rng = np.random.default_rng(7)
    ds = random_mixed_dataset(rng, n=12, p_cont=2, p_cat=2)
    bw = random_bandwidths(rng, ds)
    density = estimate_conditional(ds, bw)
    for i in range(ds.n):
        kernel = np.array([product_kernel_oracle(ds, i, j, bw.s, bw.lam) for j in range(ds.n)])
        np.testing.assert_allclose(density.matrix[i], kernel / kernel.sum(),
                                   rtol=1e-12, atol=1e-300)


def test_estimate_conditional_weighted_marginal():
    ds = make_dataset(continuous=[0.0, 1.0, 2.0], weights=[0.5, 0.25, 0.25])
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    np.testing.assert_allclose(
        density.marginal_y,
        0.5 * density.matrix[0] + 0.25 * density.matrix[1] + 0.25 * density.matrix[2],
    )


def test_estimate_conditional_large_s_approaches_uniform():
    rng = np.random.default_rng(3)
    ds = make_dataset(continuous=rng.standard_normal((25, 2)))
    density = estimate_conditional(ds, Bandwidths(s=1e6))
    np.testing.assert_allclose(density.matrix, 1.0 / 25.0, atol=1e-6)


def test_estimate_conditional_size_cap(monkeypatch):
    ds = make_dataset(continuous=np.arange(5.0))
    monkeypatch.setattr("dibmix.kernels.DEFAULT_MAX_N", 4)
    with pytest.raises(SizeCapError, match="subsample"):
        estimate_conditional(ds, Bandwidths(s=1.0))
    monkeypatch.setattr("dibmix.kernels.DEFAULT_MAX_N", 5)
    estimate_conditional(ds, Bandwidths(s=1.0))  # the boundary admits n == cap


def test_estimate_conditional_no_underflow_with_900_variables():
    # The self term (1/sqrt(2*pi))^900 underflows to zero as a product, but
    # the log-space pass divides it out before exp: identical points share
    # their mass equally.
    ds = make_dataset(continuous=np.zeros((2, 900)))
    density = estimate_conditional(ds, Bandwidths(s=1.0))
    np.testing.assert_array_equal(density.matrix, [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_array_equal(density.marginal_y, [0.5, 0.5])


# ---------------------------------------------------------------------------
# several row blocks

@pytest.mark.parametrize("elems", [1, 7, 1 << 10, kernels._BLOCK_ELEMS])
@pytest.mark.parametrize("n", [1, 2, 7, 333, 4097])
def test_row_blocks_cover_every_row_in_order_in_one_scratch(n, elems, monkeypatch):
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", elems)
    blocks = list(_row_blocks(n))
    starts = [rows.start for rows, _ in blocks]
    stops = [rows.stop for rows, _ in blocks]
    assert starts == [0] + stops[:-1] and stops[-1] == n
    scratch = blocks[0][1].base
    for rows, part in blocks:
        assert 0 < rows.stop - rows.start <= _block_rows(n) and rows.step is None
        assert part.shape == (rows.stop - rows.start, n) and part.flags.c_contiguous
        assert part.base is scratch and np.shares_memory(part, scratch)

def _multi_block_case():
    n = 301  # odd, and more than two blocks of rows with a partial last block
    rows = _block_rows(n)
    assert 2 * rows < n and n % rows, "the case must span several blocks"
    rng = np.random.default_rng(41)
    ds = make_dataset(
        continuous=rng.standard_normal((n, 2)) * [1.0, 3.0],
        categorical=np.column_stack([rng.integers(0, 3, n), rng.integers(0, 5, n)]),
        levels=(3, 5),
    )
    bw = Bandwidths(s=0.7, lam=[0.0, 0.5])  # lambda 0: exact zeros
    check_rows = [0, rows - 1, rows, 2 * rows + 5, n - 1]
    return ds, bw, check_rows


def test_estimate_conditional_matches_product_kernel_across_blocks():
    ds, bw, check_rows = _multi_block_case()
    density = estimate_conditional(ds, bw)
    for i in check_rows:
        kernel = np.array([product_kernel_oracle(ds, i, j, bw.s, bw.lam) for j in range(ds.n)])
        assert np.any(kernel == 0.0)
        np.testing.assert_allclose(density.matrix[i], kernel / kernel.sum(), rtol=1e-12, atol=0)
    np.testing.assert_allclose(density.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert density.has_zeros


def test_log_kernel_across_blocks_is_symmetric_product_kernel():
    ds, bw, check_rows = _multi_block_case()
    log_kernel = _log_kernel(ds, bw)
    np.testing.assert_array_equal(log_kernel, log_kernel.T)
    for i in check_rows:
        kernel = np.array([product_kernel_oracle(ds, i, j, bw.s, bw.lam) for j in range(ds.n)])
        np.testing.assert_allclose(np.exp(log_kernel[i]), kernel / kernel[i], rtol=1e-12, atol=0)


def test_estimate_conditional_peak_memory():
    # The output is the only n x n array the pass allocates.
    n = 1200
    rng = np.random.default_rng(5)
    ds = random_mixed_dataset(rng, n=n, p_cont=3, p_cat=3)
    bw = random_bandwidths(rng, ds)
    tracemalloc.start()
    try:
        estimate_conditional(ds, bw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8


# ---------------------------------------------------------------------------
# the zero-support scan, by blocks of rows

def _zero_lambda_density(n):
    """A density on n mixed points; lambda = 0 on one categorical variable
    puts exact zeros into p(y|x) once n is large enough."""
    rng = np.random.default_rng(n)
    ds = random_mixed_dataset(rng, n=n, p_cont=2, p_cat=2)
    return estimate_conditional(ds, Bandwidths(s=0.7, lam=[0.0, 0.3 / ds.n_levels[1]]))


def test_has_zeros_sees_every_block():
    n = 301
    rows = _block_rows(n)
    assert n % rows and (n - 1) // rows >= 2
    uniform = np.full((n, n), 1.0 / n)
    assert not ConditionalDensity(uniform, uniform[0]).has_zeros
    one_zero = uniform.copy()
    one_zero[n - 1, 0], one_zero[n - 1, 1] = 0.0, 2.0 / n  # the last row block only
    assert ConditionalDensity(one_zero, one_zero.mean(axis=0)).has_zeros
    negative = uniform.copy()
    negative[0, 0], negative[0, 1] = -1.0 / n, 3.0 / n  # not a zero
    assert not ConditionalDensity(negative, negative.mean(axis=0)).has_zeros
    # one block (n = 1), a partial last block (257, 301), blocks that divide n
    for size in (1, 257, 301, 2000):
        assert _zero_lambda_density(size).has_zeros == (size > 1)


def test_score_terms_make_no_full_size_temporary():
    # An unblocked ``p == 0`` would take 4 MB above the 31 MB density.
    density = _zero_lambda_density(2000)
    tracemalloc.start()
    try:
        assert density.has_zeros
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
