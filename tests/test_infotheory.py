"""Entropy / KL / mutual-information tests.

Hand values are recomputed with scalar math (see the printed derivations in
each test); property checks compare against the loop-based oracles in
conftest.
"""

import math

import numpy as np
import pytest

from dibmix import entropy, kl_divergence, mutual_information

from conftest import entropy_oracle, mutual_information_oracle


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform():
    assert entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(math.log(4), rel=1e-15)


def test_entropy_degenerate_is_zero():
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_hand_case():
    # -(0.25 log 0.25 + 0.75 log 0.75) = 0.5623351446188083
    assert entropy([0.25, 0.75]) == pytest.approx(0.5623351446188083, rel=1e-15)


def test_entropy_nonnegative_and_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = rng.dirichlet(np.ones(int(rng.integers(1, 8))))
        h = entropy(p)
        assert h >= 0.0
        assert h == pytest.approx(entropy_oracle(p), abs=1e-12)


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy([-0.1, 1.1])
    with pytest.raises(ValueError, match="non-finite"):
        entropy([float("nan"), 1.0])  # a NaN sum is not off 1 by more than the tolerance


# ---------------------------------------------------------------------------
# kl_divergence


def test_kl_identical_is_exactly_zero():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
        assert kl_divergence(p, p) == 0.0


def test_kl_single_atom():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-15)


def test_kl_hand_case():
    # 0.3 log(0.3/0.5) + 0.7 log(0.7/0.5) = 0.08228287850505178
    assert kl_divergence([0.3, 0.7], [0.5, 0.5]) == pytest.approx(
        0.08228287850505178, rel=1e-15
    )


def test_kl_infinite_when_support_not_covered():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")
    # p = 0 where q = 0 contributes nothing.
    assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_kl_nonnegative_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        assert kl_divergence(p, q) >= -1e-12


def test_kl_errors():
    with pytest.raises(ValueError):
        kl_divergence([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.6], [0.5, 0.5])


# ---------------------------------------------------------------------------
# mutual_information


def test_mi_independent_joint_is_zero():
    p = np.array([0.2, 0.8])
    q = np.array([0.3, 0.3, 0.4])
    assert mutual_information(np.outer(p, q)) == pytest.approx(0.0, abs=1e-12)


def test_mi_perfect_correlation():
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(
        math.log(2), rel=1e-15
    )


def test_mi_hand_case():
    # Marginals (0.5, 0.5); direct summation gives 0.19274475702175753.
    assert mutual_information([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(
        0.19274475702175753, rel=1e-14
    )


def test_mi_matches_entropy_identity_and_bounds():
    rng = np.random.default_rng(37)
    for _ in range(200):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        joint = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        mi = mutual_information(joint)
        assert mi >= -1e-12
        assert mi == pytest.approx(mutual_information_oracle(joint), abs=1e-10)
        h_row = entropy(joint.sum(axis=1))
        h_col = entropy(joint.sum(axis=0))
        assert mi <= min(h_row, h_col) + 1e-9


def test_mi_errors():
    with pytest.raises(ValueError):
        mutual_information([0.5, 0.5])  # not a matrix
    with pytest.raises(ValueError):
        mutual_information([[0.5, 0.5], [0.5, 0.5]])  # sums to 2
    with pytest.raises(ValueError):
        mutual_information([[0.6, -0.1], [0.3, 0.2]])
