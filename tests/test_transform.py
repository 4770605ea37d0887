"""The quadratic substitution, its smoothing, and the analytic bounds."""

import numpy as np
import pytest

from sparsenewton import (
    TransformSpec,
    apply_N,
    apply_N_eps,
    apply_N_inverse,
    gradient_diag,
    hessian_diag,
)


def test_eta_values():
    # the exact scalar map eta(t) = sign(t) t^2, applied by apply_N
    for tau, value in ((0.0, 0.0), (2.0, 4.0), (-2.0, -4.0), (0.5, 0.25)):
        assert apply_N(tau) == value
    np.testing.assert_array_equal(apply_N(np.array([1.0, -2.0])), [1.0, -4.0])


def test_eta_eps_values():
    one = TransformSpec(1.0)
    # the knot value 4/3 equals the outer branch limit 1 + 1/3
    np.testing.assert_allclose(apply_N_eps(one, np.array([0.0, 1.0, -1.0])),
                               [0.0, 4.0 / 3.0, -(1.0 + 1.0 / 3.0)], rtol=1e-15)
    np.testing.assert_allclose(apply_N_eps(TransformSpec(0.1), np.array([2.0])),
                               [4.0 + 0.01 / 3.0], rtol=1e-15)


def test_eta_eps_odd_d1_even():
    rng = np.random.default_rng(2)
    spec = TransformSpec(0.3)
    tau = rng.standard_normal(200) * 2.0
    np.testing.assert_allclose(apply_N_eps(spec, -tau), -apply_N_eps(spec, tau), rtol=1e-15)
    np.testing.assert_allclose(gradient_diag(spec, -tau), gradient_diag(spec, tau),
                               rtol=1e-15)
    ones = np.ones_like(tau)
    np.testing.assert_allclose(hessian_diag(spec, -tau, ones), -hessian_diag(spec, tau, ones),
                               rtol=1e-15)


def test_eta_eps_d1_values():
    np.testing.assert_array_equal(gradient_diag(TransformSpec(1.0), np.array([0.0, 1.0, -1.0])),
                                  [1.0, 2.0, 2.0])
    np.testing.assert_allclose(gradient_diag(TransformSpec(0.5), np.array([0.25])), [0.625],
                               rtol=1e-15)


def test_eta_eps_d1_positive_floor():
    rng = np.random.default_rng(4)
    for eps in (1e-3, 0.2, 2.0):
        tau = rng.standard_normal(500) * 3.0
        assert np.all(gradient_diag(TransformSpec(eps), tau) >= eps)


def test_eta_eps_d2_values():
    # hessian_diag with unit weights is eta_eps'' itself
    np.testing.assert_array_equal(
        hessian_diag(TransformSpec(1.0), np.array([0.0, 1.0]), np.ones(2)), [0.0, 2.0])
    np.testing.assert_array_equal(
        hessian_diag(TransformSpec(2.0), np.array([-3.0]), np.ones(1)), [-2.0])


def test_smoothness_at_knots():
    # central differences across both knots agree with the closed forms
    spec = TransformSpec(0.7)
    h = 1e-6
    knots = np.array([0.7, -0.7])
    fd1 = (apply_N_eps(spec, knots + h) - apply_N_eps(spec, knots - h)) / (2 * h)
    np.testing.assert_allclose(fd1, gradient_diag(spec, knots), rtol=1e-6)
    fd2 = (gradient_diag(spec, knots + h) - gradient_diag(spec, knots - h)) / (2 * h)
    np.testing.assert_allclose(fd2, hessian_diag(spec, knots, np.ones(2)), rtol=1e-6)


def test_exact_transform_rejects_second_derivative():
    zero = TransformSpec(0.0)
    # the exact transform is C^1: its Jacobian is 2|x|, with no smoothing floor
    x = np.array([1.0, -3.0, 0.0])
    np.testing.assert_array_equal(gradient_diag(zero, x), [2.0, 6.0, 0.0])
    with pytest.raises(ValueError, match="not twice differentiable"):
        hessian_diag(zero, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="epsilon > 0"):
        apply_N_eps(zero, np.ones(2))


def test_transform_spec_validation():
    with pytest.raises(ValueError, match="epsilon must be >= 0, got -0.1"):
        TransformSpec(-0.1)
    with pytest.raises(ValueError, match="epsilon must be finite, got nan"):
        TransformSpec(np.nan)


def test_transform_spec_takes_no_bool():
    with pytest.raises(ValueError, match="^epsilon must be a number, got False$"):
        TransformSpec(False)


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
