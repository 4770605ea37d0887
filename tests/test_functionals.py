"""The quadratic substitution, its smoothing and their analytic bounds;
functional values, gradients and the matrix-free Hessian action."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsenewton import (
    ProblemData,
    SparseMatrix,
    TransformSpec,
    apply_N,
    apply_N_eps,
    apply_N_inverse,
    back_transform,
    eval_J,
    eval_T,
    grad_J,
    gradient_diag,
    hessian_diag,
    hessian_operator,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
# zero, or magnitudes whose squares neither underflow nor overflow
components = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))
vectors = arrays(np.float64, st.integers(1, 20), elements=components)


def test_apply_N_values_and_l1_identity():
    # the exact scalar map eta(t) = sign(t) t^2, applied by apply_N
    for tau, value in ((0.0, 0.0), (2.0, 4.0), (-2.0, -4.0), (0.5, 0.25)):
        assert apply_N(tau) == value
    np.testing.assert_array_equal(apply_N(np.zeros(2)), np.zeros(2))
    np.testing.assert_array_equal(apply_N(np.array([1.0, -2.0, 0.5])),
                                  [1.0, -4.0, 0.25])
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(1, 30)))
        assert np.sum(np.abs(apply_N(x))) == pytest.approx(x @ x, rel=1e-14)


@PROPERTY_SETTINGS
@given(x=vectors)
def test_substitution_turns_squares_into_l1_and_inverts(x):
    np.testing.assert_allclose(np.sum(np.abs(apply_N(x))), x @ x, rtol=1e-13)
    np.testing.assert_allclose(apply_N_inverse(apply_N(x)), x, rtol=1e-15)
    np.testing.assert_allclose(apply_N(apply_N_inverse(x)), x, rtol=1e-12)


def test_apply_N_eps_values():
    one = TransformSpec(1.0)
    np.testing.assert_array_equal(apply_N_eps(one, np.zeros(3)), np.zeros(3))
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


def test_gradient_diag():
    # eta_eps' itself; at eps = 0 the Jacobian 2|x| of the exact transform,
    # with no smoothing floor
    np.testing.assert_array_equal(gradient_diag(TransformSpec(1.0), np.array([0.0, 1.0, -1.0])),
                                  [1.0, 2.0, 2.0])
    np.testing.assert_allclose(gradient_diag(TransformSpec(0.5), np.array([0.25])), [0.625],
                               rtol=1e-15)
    d = gradient_diag(TransformSpec(0.0), np.array([3.0, -2.0, 1.0, -3.0, 0.0]))
    np.testing.assert_array_equal(d, [6.0, 4.0, 2.0, 6.0, 0.0])


def test_eta_eps_d1_positive_floor():
    rng = np.random.default_rng(4)
    for eps in (1e-3, 0.2, 2.0):
        tau = rng.standard_normal(500) * 3.0
        assert np.all(gradient_diag(TransformSpec(eps), tau) >= eps)


def test_hessian_diag():
    # with unit weights it is eta_eps'' itself
    np.testing.assert_array_equal(
        hessian_diag(TransformSpec(1.0), np.array([0.0, 1.0]), np.ones(2)), [0.0, 2.0])
    np.testing.assert_array_equal(
        hessian_diag(TransformSpec(2.0), np.array([-3.0]), np.ones(1)), [-2.0])
    z = hessian_diag(TransformSpec(1.0), np.array([1.0, -2.0]), np.zeros(2))
    np.testing.assert_array_equal(z, np.zeros(2))
    d = hessian_diag(TransformSpec(1.0), np.array([0.5]), np.array([3.0]))
    np.testing.assert_allclose(d, [3.0], rtol=1e-15)
    d = hessian_diag(TransformSpec(0.1), np.array([5.0]), np.array([2.0]))
    np.testing.assert_array_equal(d, [4.0])
    with pytest.raises(ValueError, match="shape"):
        hessian_diag(TransformSpec(1.0), np.ones(2), np.ones(3))


def test_transform_spec_validation():
    for epsilon, message in ((-0.1, "epsilon must be >= 0, got -0.1"),
                             (np.nan, "epsilon must be finite, got nan"),
                             (False, "epsilon must be a number, got False")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransformSpec(epsilon)


def test_approximation_bound():
    rng = np.random.default_rng(10)
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-5, 1))
        x = rng.standard_normal(int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-2, 2)
        gap = np.linalg.norm(apply_N(x) - apply_N_eps(TransformSpec(eps), x))
        assert gap <= (7.0 / 3.0) * eps * np.linalg.norm(x) + 1e-300


@PROPERTY_SETTINGS
@given(x=vectors, eps=st.floats(1e-6, 10.0))
def test_smoothing_stays_within_seven_thirds_eps(x, eps):
    gap = np.linalg.norm(apply_N(x) - apply_N_eps(TransformSpec(eps), x))
    assert gap <= (7.0 / 3.0) * eps * np.linalg.norm(x) * (1 + 1e-12)


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


def random_problem(rng, rows=15, cols=10, alpha=0.3):
    A = SparseMatrix.from_dense(rng.standard_normal((rows, cols)))
    return ProblemData(A, rng.standard_normal(rows), alpha)


def test_problem_data_validation():
    A = SparseMatrix.from_dense(np.eye(2))
    for alpha, message in ((0.0, "alpha must exceed 0, got 0.0"),
                           (True, "alpha must be a number, got True"),
                           (np.inf, "alpha must be finite, got inf"),
                           (-0.5, "alpha must exceed 0, got -0.5")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProblemData(A, np.zeros(2), alpha)
    with pytest.raises(ValueError, match="2 rows"):
        ProblemData(A, np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="NaN"):
        ProblemData(A, np.array([np.nan, 0.0]), 1.0)


def test_eval_T_identity_example():
    p = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.zeros(2), 1.0)
    assert eval_T(p, np.array([1.0, -1.0])) == 4.0


def test_eval_T_at_zero():
    rng = np.random.default_rng(0)
    p = random_problem(rng)
    assert eval_T(p, np.zeros(10)) == pytest.approx(p.y_delta @ p.y_delta, rel=1e-15)


def test_eval_T_matches_oneline_oracle():
    rng = np.random.default_rng(1)
    p = random_problem(rng)
    x = rng.standard_normal(10)
    want = np.linalg.norm(p.A.to_dense() @ x - p.y_delta) ** 2 \
        + p.alpha * np.abs(x).sum()
    assert eval_T(p, x) == pytest.approx(want, rel=1e-14)


def test_eval_J_at_zero_and_exact_equivalence():
    rng = np.random.default_rng(2)
    p = random_problem(rng)
    zero = TransformSpec(0.0)
    assert eval_J(p, np.zeros(10), zero) == pytest.approx(p.y_delta @ p.y_delta,
                                                          rel=1e-15)
    # J at eps=0 equals T evaluated at the transformed point: the l2 penalty
    # of the argument is the l1 penalty of its image
    x = rng.standard_normal(10)
    assert eval_J(p, x, zero) == pytest.approx(eval_T(p, apply_N(x)), rel=1e-13)


def test_eval_J_smoothing_gap_bound():
    rng = np.random.default_rng(3)
    p = random_problem(rng)
    x = rng.standard_normal(10)
    eps = 1e-3
    gap = abs(eval_J(p, x, TransformSpec(eps)) - eval_J(p, x, TransformSpec(0.0)))
    norm_A = np.linalg.norm(p.A.to_dense(), 2)
    residual = np.linalg.norm(p.A.matvec(apply_N(x)) - p.y_delta)
    shift = (7.0 / 3.0) * eps * norm_A * np.linalg.norm(x)
    assert gap <= shift * (2.0 * residual + shift) * (1 + 1e-12)


def test_grad_at_zero():
    rng = np.random.default_rng(4)
    p = random_problem(rng)
    np.testing.assert_array_equal(grad_J(p, np.zeros(10), TransformSpec(0.0)),
                                  np.zeros(10))
    eps = 0.05
    want = -2.0 * eps * p.A.transpose_matvec(p.y_delta)
    np.testing.assert_allclose(grad_J(p, np.zeros(10), TransformSpec(eps)), want,
                               rtol=1e-14)


def test_hessian_zero_direction_and_pure_regularization():
    rng = np.random.default_rng(6)
    p = random_problem(rng)
    spec = TransformSpec(0.1)
    np.testing.assert_array_equal(hessian_operator(p, np.ones(10), spec)(np.zeros(10)),
                                  np.zeros(10))
    zero_A = SparseMatrix(3, 3, [0, 0, 0, 0], [], [])
    p0 = ProblemData(zero_A, np.ones(3), 0.7)
    w = rng.standard_normal(3)
    np.testing.assert_allclose(hessian_operator(p0, rng.standard_normal(3), spec)(w),
                               2.0 * 0.7 * w, rtol=1e-15)


def test_hessian_symmetry_and_linearity():
    rng = np.random.default_rng(8)
    p = random_problem(rng)
    apply_H = hessian_operator(p, rng.standard_normal(10), TransformSpec(0.03))
    w = rng.standard_normal(10)
    v = rng.standard_normal(10)
    assert apply_H(w) @ v == pytest.approx(w @ apply_H(v), rel=1e-10)
    np.testing.assert_allclose(apply_H(2.0 * w - 3.0 * v),
                               2.0 * apply_H(w) - 3.0 * apply_H(v), rtol=1e-12)


def test_hessian_requires_smoothing():
    # the exact transform is C^1 only
    zero = TransformSpec(0.0)
    p = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="not twice differentiable"):
        hessian_operator(p, np.ones(2), zero)
    with pytest.raises(ValueError, match="not twice differentiable"):
        hessian_diag(zero, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="epsilon > 0"):
        apply_N_eps(zero, np.ones(2))


def test_hessian_coercivity_floor():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_problem(rng)
        spec = TransformSpec(float(10.0 ** rng.uniform(-3, 0)))
        x = rng.standard_normal(10)
        w = rng.standard_normal(10)
        r = p.A.matvec(np.asarray(apply_N_eps(spec, x))) - p.y_delta
        atr = p.A.transpose_matvec(r)
        floor = -2.0 * np.max(np.abs(hessian_diag(spec, x, atr)))
        quad = hessian_operator(p, x, spec)(w) @ w - 2.0 * p.alpha * (w @ w)
        assert quad >= floor * (w @ w) - 1e-12


def test_gradient_gives_descent_direction():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_problem(rng)
        spec = TransformSpec(0.01)
        x = rng.standard_normal(10)
        g = grad_J(p, x, spec)
        norm_g = np.linalg.norm(g)
        if norm_g > 1e-8:
            t = 1e-8 / norm_g
            assert eval_J(p, x - t * g, spec) < eval_J(p, x, spec)


def test_back_transform():
    np.testing.assert_array_equal(back_transform(np.zeros(3), TransformSpec(0.0)),
                                  np.zeros(3))
    np.testing.assert_array_equal(back_transform(np.array([2.0, -1.0]),
                                                 TransformSpec(0.0)), [4.0, -1.0])
    spec = TransformSpec(0.4)
    x = np.array([0.1, -2.0, 0.0])
    np.testing.assert_array_equal(back_transform(x, spec), apply_N_eps(spec, x))


def test_back_transform_without_spec_is_the_identity():
    x = np.array([0.1, -2.0, 0.0])
    assert back_transform(x, None) is x
    np.testing.assert_array_equal(x, [0.1, -2.0, 0.0])


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_precomputed_image_gives_identical_results(eps):
    rng = np.random.default_rng(11)
    p = random_problem(rng)
    spec = TransformSpec(eps)
    x = rng.standard_normal(10)
    w = rng.standard_normal(10)
    Ax = p.A.matvec(x)
    image = p.A.matvec(back_transform(x, spec))
    atr = p.A.transpose_matvec(image - p.y_delta)
    assert eval_T(p, x, Ax) == eval_T(p, x)
    assert eval_J(p, x, spec, image) == eval_J(p, x, spec)
    np.testing.assert_array_equal(grad_J(p, x, spec, atr=atr), grad_J(p, x, spec))
    if eps > 0.0:
        np.testing.assert_array_equal(hessian_operator(p, x, spec, atr=atr)(w),
                                      hessian_operator(p, x, spec)(w))
