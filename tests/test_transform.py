"""The quadratic substitution, its smoothing, and the analytic bounds."""

import numpy as np
import pytest

from sparsenewton import (
    TransformSpec,
    apply_N,
    apply_N_eps,
    apply_N_inverse,
    eta,
    eta_eps,
    eta_eps_d1,
    eta_eps_d2,
    gradient_diag,
    hessian_diag,
)


def test_eta_values():
    assert eta(0.0) == 0.0
    assert eta(2.0) == 4.0
    assert eta(-2.0) == -4.0
    assert eta(0.5) == 0.25
    np.testing.assert_array_equal(eta(np.array([1.0, -2.0])), [1.0, -4.0])


def test_eta_eps_values():
    one = TransformSpec(1.0)
    assert eta_eps(one, 0.0) == 0.0
    assert eta_eps(one, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    # knot value equals the outer branch limit
    assert eta_eps(one, 1.0) == pytest.approx(1.0 + 1.0 / 3.0, rel=1e-15)
    assert eta_eps(TransformSpec(0.1), 2.0) == pytest.approx(4.0 + 0.01 / 3.0, rel=1e-15)


def test_eta_eps_odd_d1_even():
    rng = np.random.default_rng(2)
    spec = TransformSpec(0.3)
    tau = rng.standard_normal(200) * 2.0
    np.testing.assert_allclose(eta_eps(spec, -tau), -np.asarray(eta_eps(spec, tau)),
                               rtol=1e-15)
    np.testing.assert_allclose(eta_eps_d1(spec, -tau), eta_eps_d1(spec, tau),
                               rtol=1e-15)
    np.testing.assert_allclose(eta_eps_d2(spec, -tau), -np.asarray(eta_eps_d2(spec, tau)),
                               rtol=1e-15)


def test_eta_eps_d1_values():
    assert eta_eps_d1(TransformSpec(1.0), 0.0) == 1.0
    assert eta_eps_d1(TransformSpec(1.0), 1.0) == 2.0
    assert eta_eps_d1(TransformSpec(1.0), -1.0) == 2.0
    assert eta_eps_d1(TransformSpec(0.5), 0.25) == pytest.approx(0.625, rel=1e-15)


def test_eta_eps_d1_positive_floor():
    rng = np.random.default_rng(4)
    for eps in (1e-3, 0.2, 2.0):
        tau = rng.standard_normal(500) * 3.0
        d1 = np.asarray(eta_eps_d1(TransformSpec(eps), tau))
        assert np.all(d1 >= eps)


def test_eta_eps_d2_values():
    assert eta_eps_d2(TransformSpec(1.0), 0.0) == 0.0
    assert eta_eps_d2(TransformSpec(1.0), 1.0) == 2.0
    assert eta_eps_d2(TransformSpec(2.0), -3.0) == -2.0


def test_smoothness_at_knots():
    # central differences across both knots agree with the closed forms
    spec = TransformSpec(0.7)
    h = 1e-6
    for knot in (0.7, -0.7):
        fd1 = (eta_eps(spec, knot + h) - eta_eps(spec, knot - h)) / (2 * h)
        assert fd1 == pytest.approx(eta_eps_d1(spec, knot), rel=1e-6)
        fd2 = (eta_eps_d1(spec, knot + h) - eta_eps_d1(spec, knot - h)) / (2 * h)
        assert fd2 == pytest.approx(eta_eps_d2(spec, knot), rel=1e-6)


def test_exact_transform_rejects_second_derivative():
    zero = TransformSpec(0.0)
    with pytest.raises(ValueError, match="epsilon > 0"):
        eta_eps(zero, 1.0)
    with pytest.raises(ValueError, match="epsilon > 0"):
        eta_eps_d1(zero, 1.0)
    with pytest.raises(ValueError, match="not twice differentiable"):
        eta_eps_d2(zero, 1.0)
    with pytest.raises(ValueError, match="not twice differentiable"):
        hessian_diag(zero, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="epsilon > 0"):
        apply_N_eps(zero, np.ones(2))


def test_transform_spec_validation():
    with pytest.raises(ValueError, match="finite and >= 0"):
        TransformSpec(-0.1)
    with pytest.raises(ValueError, match="finite and >= 0"):
        TransformSpec(np.nan)


def test_apply_N_values_and_l1_identity():
    np.testing.assert_array_equal(apply_N(np.zeros(2)), np.zeros(2))
    np.testing.assert_array_equal(apply_N(np.array([1.0, -2.0, 0.5])),
                                  [1.0, -4.0, 0.25])
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(1, 30)))
        assert np.sum(np.abs(apply_N(x))) == pytest.approx(x @ x, rel=1e-14)


def test_apply_N_eps_values():
    spec = TransformSpec(1.0)
    np.testing.assert_array_equal(apply_N_eps(spec, np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(apply_N_eps(spec, np.array([1.0])), [4.0 / 3.0],
                               rtol=1e-15)


def test_apply_N_inverse_roundtrip():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40) * 3.0
    np.testing.assert_allclose(apply_N(apply_N_inverse(x)), x, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(apply_N_inverse(apply_N(x)), x, rtol=1e-12, atol=1e-15)


def test_approximation_bound():
    rng = np.random.default_rng(10)
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-5, 1))
        x = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-2, 2)
        gap = np.linalg.norm(apply_N(x) - apply_N_eps(TransformSpec(eps), x))
        assert gap <= (7.0 / 3.0) * eps * np.linalg.norm(x) + 1e-300


def test_smoothed_norm_bound():
    rng = np.random.default_rng(12)
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-5, 1))
        x = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-2, 2)
        nx = np.linalg.norm(x)
        bound = nx * np.sqrt(16.0 * eps**2 / 9.0 + 2.0 * nx**2)
        assert np.linalg.norm(apply_N_eps(TransformSpec(eps), x)) <= bound * (1 + 1e-14)


def test_pointwise_convergence_as_eps_shrinks():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(25)
    gaps = []
    eps = 1.0
    for _ in range(34):  # ten decades of halving
        gaps.append(np.linalg.norm(apply_N(x) - apply_N_eps(TransformSpec(eps), x)))
        eps *= 0.5
    assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-9 * gaps[0]


def test_gradient_diag():
    d = gradient_diag(TransformSpec(0.0), np.array([3.0, -2.0]))
    np.testing.assert_array_equal(d, [6.0, 4.0])
    d = gradient_diag(TransformSpec(1.0), np.array([0.0]))
    np.testing.assert_array_equal(d, [1.0])


def test_hessian_diag():
    z = hessian_diag(TransformSpec(1.0), np.array([1.0, -2.0]), np.zeros(2))
    np.testing.assert_array_equal(z, np.zeros(2))
    d = hessian_diag(TransformSpec(1.0), np.array([0.5]), np.array([3.0]))
    np.testing.assert_allclose(d, [3.0], rtol=1e-15)
    d = hessian_diag(TransformSpec(0.1), np.array([5.0]), np.array([2.0]))
    np.testing.assert_array_equal(d, [4.0])
    with pytest.raises(ValueError, match="shape"):
        hessian_diag(TransformSpec(1.0), np.ones(2), np.ones(3))
