"""Functional values, gradients and the matrix-free Hessian action."""

import numpy as np
import pytest

from sparsenewton import (
    ProblemData,
    SparseMatrix,
    TransformSpec,
    apply_N,
    apply_N_eps,
    back_transform,
    eta_eps_d2,
    eval_J,
    eval_T,
    grad_J,
    hessian_operator,
)


def random_problem(rng, rows=15, cols=10, alpha=0.3):
    A = SparseMatrix.from_dense(rng.standard_normal((rows, cols)))
    return ProblemData(A, rng.standard_normal(rows), alpha)


def test_problem_data_validation():
    A = SparseMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError, match="alpha"):
        ProblemData(A, np.zeros(2), 0.0)
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


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = random_problem(rng)
    spec = TransformSpec(0.02)
    x = rng.standard_normal(10)
    h = 1e-6
    fd = np.empty(10)
    for k in range(10):
        e = np.zeros(10)
        e[k] = h
        fd[k] = (eval_J(p, x + e, spec) - eval_J(p, x - e, spec)) / (2 * h)
    g = grad_J(p, x, spec)
    assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)


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


def test_hessian_matches_differenced_gradients():
    rng = np.random.default_rng(7)
    p = random_problem(rng)
    spec = TransformSpec(0.05)
    x = rng.standard_normal(10)
    w = rng.standard_normal(10)
    w /= np.linalg.norm(w)
    h = 1e-5
    fd = (grad_J(p, x + h * w, spec) - grad_J(p, x - h * w, spec)) / (2 * h)
    hv = hessian_operator(p, x, spec)(w)
    assert np.linalg.norm(fd - hv) <= 1e-4 * np.linalg.norm(hv)


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
    p = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="not twice differentiable"):
        hessian_operator(p, np.ones(2), TransformSpec(0.0))


def test_hessian_coercivity_floor():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_problem(rng)
        spec = TransformSpec(float(10.0 ** rng.uniform(-3, 0)))
        x = rng.standard_normal(10)
        w = rng.standard_normal(10)
        r = p.A.matvec(np.asarray(apply_N_eps(spec, x))) - p.y_delta
        atr = p.A.transpose_matvec(r)
        floor = -2.0 * np.max(np.abs(np.asarray(eta_eps_d2(spec, x)) * atr))
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
