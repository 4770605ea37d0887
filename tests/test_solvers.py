"""Solver runners: updates, stopping rules, traces and small closed-form oracles."""

import numpy as np
import pytest

from sparsenewton import (
    ArmijoRule,
    DivergenceError,
    ProblemData,
    SolverConfig,
    SparseMatrix,
    TransformSpec,
    apply_N_inverse,
    back_transform,
    check_discrepancy,
    eta_eps,
    run_fista,
    run_gradient_descent,
    run_ista,
    run_levenberg_marquardt,
    run_newton,
    soft_threshold,
)
from sparsenewton.solvers import RUNNERS, resolve_epsilon

ONE_BY_ONE = SparseMatrix.from_dense(np.array([[1.0]]))


def conditioned_instance(rng, n=20, nnz=5, noise=0.0):
    """Well-conditioned random square system with a sparse ground truth."""
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SparseMatrix.from_dense(qu @ np.diag(rng.uniform(1.0, 2.0, n)) @ qv.T)
    x_true = np.zeros(n)
    x_true[rng.choice(n, nnz, replace=False)] = rng.standard_normal(nnz)
    y = A.matvec(x_true)
    y /= np.linalg.norm(y)
    delta = 0.0
    if noise > 0.0:
        r = rng.standard_normal(n)
        r /= np.linalg.norm(r)
        delta = noise * np.linalg.norm(y)
        y = y + delta * r
    return A, y, delta


def zero_operator(n):
    return SparseMatrix(n, n, np.zeros(n + 1, dtype=int), [], [])


def assert_trace_consistent(trace, tau, delta):
    assert trace.iterations == list(range(trace.n_star + 1))
    assert all(b >= a for a, b in zip(trace.wall_times, trace.wall_times[1:]))
    if trace.stop_reason == "discrepancy":
        assert trace.residuals[-1] <= tau * delta
    if trace.stop_reason == "max_iter":
        assert trace.residuals[-1] > tau * delta


def test_soft_threshold_values():
    x = np.array([3.0, -0.5, 1.0])
    np.testing.assert_array_equal(soft_threshold(x, 1.0), [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_is_prox_of_l1():
    rng = np.random.default_rng(0)
    grid = np.linspace(-6.0, 6.0, 120001)
    for _ in range(20):
        x = float(rng.uniform(-3, 3))
        theta = float(rng.uniform(0, 2))
        objective = 0.5 * (grid - x) ** 2 + theta * np.abs(grid)
        best = grid[np.argmin(objective)]
        assert abs(float(soft_threshold(np.array([x]), theta)[0]) - best) <= 1e-4


def test_check_discrepancy():
    assert check_discrepancy(0.0, 1.1, 0.5)
    assert not check_discrepancy(0.56, 1.1, 0.5)
    assert check_discrepancy(0.55, 1.1, 0.5)  # boundary inclusive


def test_ista_zero_data_stops_immediately():
    p = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.zeros(2), 1.0)
    x, trace = run_ista(p, SolverConfig(), 0.0)
    np.testing.assert_array_equal(x, np.zeros(2))
    assert trace.n_star == 0
    assert trace.stop_reason == "discrepancy"


def test_ista_identity_fixed_point():
    # with omega = 1 and threshold alpha*omega = 1 the fixed point is the
    # shrinkage of the data, the exact minimizer of ||x-y||^2 + 2||x||_1
    p = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.array([2.0, 0.1]), 1.0)
    x, trace = run_ista(p, SolverConfig(omega=1.0, max_iter=100), 0.0)
    np.testing.assert_array_equal(x, [1.0, 0.0])
    assert trace.stop_reason == "stagnation"


def test_ista_config_alpha_overrides_problem_alpha():
    p = ProblemData(SparseMatrix.from_dense(np.eye(2)), np.array([2.0, 0.1]), 5.0)
    x, _ = run_ista(p, SolverConfig(alpha=1.0, omega=1.0, max_iter=100), 0.0)
    np.testing.assert_array_equal(x, [1.0, 0.0])


def test_ista_descends_its_objective():
    rng = np.random.default_rng(1)
    A, y, _ = conditioned_instance(rng)
    alpha = 0.05
    p = ProblemData(A, y, alpha)
    values = []

    def note(_n, x):
        r = A.matvec(x) - y
        values.append(float(r @ r + 2.0 * alpha * np.abs(x).sum()))

    run_ista(p, SolverConfig(max_iter=300), 0.0, callback=note)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_ista_divergence_error():
    rng = np.random.default_rng(2)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="reduce omega"):
            run_ista(p, SolverConfig(omega=1e6), 0.0)


def test_fista_matches_reference_recursion():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((15, 10))
    A = SparseMatrix.from_dense(dense)
    y = rng.standard_normal(15)
    alpha = 0.1
    omega = 0.3 / np.linalg.norm(dense, 2) ** 2
    p = ProblemData(A, y, alpha)
    got = []
    run_fista(p, SolverConfig(omega=omega, max_iter=5), 0.0,
              callback=lambda n, v: got.append(v.copy()))

    x = np.zeros(10)
    x_prev = x
    t_prev = 1.0
    want = [x]
    for k in range(1, 6):
        t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2))
        momentum = (t_prev - 1.0) / t_k
        t_prev = t_k
        z = x + momentum * (x - x_prev)
        step = z - omega * dense.T @ (dense @ z - y)
        x_prev = x
        x = np.sign(step) * np.maximum(np.abs(step) - alpha * omega, 0.0)
        want.append(x)
    assert t_prev == pytest.approx(3.83260140013, rel=1e-12)  # t_5
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, atol=1e-13)


def test_fista_momentum_sequence_values():
    t1 = 0.5 * (1.0 + np.sqrt(5.0))
    t2 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t1 * t1))
    assert t1 == pytest.approx(1.618033988749895, rel=1e-15)
    assert t2 == pytest.approx(2.193527085331054, rel=1e-15)


def test_fista_beta_variant_first_step_is_ista():
    rng = np.random.default_rng(4)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    x_ista, _ = run_ista(p, SolverConfig(max_iter=1), 0.0)
    x_beta, _ = run_fista(p, SolverConfig(max_iter=1), 0.0, variant="beta")
    np.testing.assert_array_equal(x_ista, x_beta)


def test_fista_variants_reach_same_value():
    rng = np.random.default_rng(5)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    _, tr_t = run_fista(p, SolverConfig(max_iter=400), 0.0)
    _, tr_b = run_fista(p, SolverConfig(max_iter=400), 0.0, variant="beta")
    assert tr_t.functionals[-1] == pytest.approx(tr_b.functionals[-1], rel=1e-6)


def test_fista_rejects_unknown_variant():
    p = ProblemData(ONE_BY_ONE, np.ones(1), 1.0)
    with pytest.raises(ValueError, match="variant"):
        run_fista(p, SolverConfig(), 0.0, variant="nesterov")


def test_gradient_descent_scalar_descends_to_grid_minimum():
    p = ProblemData(ONE_BY_ONE, np.array([1.0]), 0.01)
    cfg = SolverConfig(x0=np.array([0.9]), grad_tol=1e-10, max_iter=5000)
    x, trace = run_gradient_descent(p, cfg, 0.0)
    assert all(b < a for a, b in zip(trace.functionals, trace.functionals[1:]))
    grid = np.linspace(0.0, 1.2, 1_200_001)
    values = (np.sign(grid) * grid**2 - 1.0) ** 2 + 0.01 * grid**2
    assert abs(x[0] - grid[np.argmin(values)]) <= 1e-5
    assert trace.stop_reason == "stagnation"


def test_gradient_descent_zero_gradient_stagnates():
    p = ProblemData(zero_operator(2), np.ones(2), 1.0)
    x, trace = run_gradient_descent(p, SolverConfig(), 0.0)
    np.testing.assert_array_equal(x, np.zeros(2))
    assert trace.n_star == 0
    assert trace.stop_reason == "stagnation"


def test_levenberg_marquardt_scalar_step():
    # from x=1 toward the solution of sgn(x)x^2 = 4: with a vanishing shift
    # one step lands on 1 + 6/4 = 2.5
    p = ProblemData(ONE_BY_ONE, np.array([4.0]), 1.0)
    cfg = SolverConfig(lm_alpha0=1e-10, max_iter=1, x0=np.array([1.0]))
    x, trace = run_levenberg_marquardt(p, cfg, 0.0)
    assert x[0] == pytest.approx(2.5, abs=1e-9)
    assert trace.stop_reason == "max_iter"


def test_levenberg_marquardt_exact_start_stops_at_zero_iterations():
    p = ProblemData(ONE_BY_ONE, np.array([4.0]), 1.0)
    x, trace = run_levenberg_marquardt(p, SolverConfig(x0=np.array([2.0])), 0.0)
    assert trace.n_star == 0
    assert trace.stop_reason == "discrepancy"
    np.testing.assert_array_equal(x, [2.0])


def test_levenberg_marquardt_meets_discrepancy_on_noisy_instance():
    rng = np.random.default_rng(6)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    cfg = SolverConfig(warm_start=3, max_iter=50)
    _, trace = run_levenberg_marquardt(p, cfg, delta)
    assert trace.stop_reason == "discrepancy"
    assert trace.n_star <= 25
    assert_trace_consistent(trace, cfg.tau, delta)


def test_newton_scalar_matches_grid_search():
    p = ProblemData(ONE_BY_ONE, np.array([1.0]), 0.1)
    cfg = SolverConfig(epsilon=0.01, x0=np.array([0.9]), grad_tol=1e-12,
                       inner_tol=1e-14, max_iter=100)
    x, trace = run_newton(p, cfg, 0.0)
    grid = np.linspace(0.5, 1.5, 2_000_001)
    values = (np.asarray(eta_eps(TransformSpec(0.01), grid)) - 1.0) ** 2 \
        + 0.1 * grid**2
    assert abs(x[0] - grid[np.argmin(values)]) <= 1e-6
    assert trace.stop_reason == "stagnation"


def test_newton_zero_gradient_returns_start():
    p = ProblemData(zero_operator(2), np.ones(2), 1.0)
    x, trace = run_newton(p, SolverConfig(epsilon=0.01), 0.0)
    np.testing.assert_array_equal(x, np.zeros(2))
    assert trace.n_star == 0
    assert trace.stop_reason == "stagnation"


def test_newton_requires_positive_epsilon():
    p = ProblemData(ONE_BY_ONE, np.ones(1), 1.0)
    with pytest.raises(ValueError, match="epsilon > 0"):
        run_newton(p, SolverConfig(epsilon=0.0), 0.0)


def test_newton_meets_discrepancy_on_noisy_instance():
    rng = np.random.default_rng(7)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    cfg = SolverConfig(warm_start=3, max_iter=50)
    _, trace = run_newton(p, cfg, delta)
    assert trace.stop_reason == "discrepancy"
    assert trace.n_star <= 25
    assert_trace_consistent(trace, cfg.tau, delta)


def test_newton_and_gd_strictly_decrease_the_functional():
    rng = np.random.default_rng(8)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    for runner, cfg in (
        (run_newton, SolverConfig(epsilon=1e-3, warm_start=3, max_iter=5)),
        (run_gradient_descent, SolverConfig(warm_start=3, max_iter=40)),
    ):
        _, trace = runner(p, cfg, 0.0)
        assert trace.n_star >= 2
        assert all(b < a for a, b in zip(trace.functionals, trace.functionals[1:]))


def test_max_iter_reason_when_budget_too_small():
    rng = np.random.default_rng(9)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    cfg = SolverConfig(max_iter=2)
    _, trace = run_ista(p, cfg, delta)
    assert trace.stop_reason == "max_iter"
    assert trace.n_star == 2
    assert_trace_consistent(trace, cfg.tau, delta)


def test_explicit_x0_is_used_verbatim():
    rng = np.random.default_rng(10)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    x0 = rng.standard_normal(20)
    x, trace = run_ista(p, SolverConfig(x0=x0, max_iter=0), 0.0)
    np.testing.assert_array_equal(x, x0)
    assert trace.n_star == 0


def test_warm_start_is_inverse_transformed_sketch():
    rng = np.random.default_rng(11)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    x_sketch, _ = run_fista(p, SolverConfig(max_iter=3), 0.0)
    x, _ = run_levenberg_marquardt(p, SolverConfig(warm_start=3, max_iter=0), 0.0)
    np.testing.assert_array_equal(x, apply_N_inverse(x_sketch))


@pytest.mark.parametrize("name", list(RUNNERS))
def test_driver_contract(name):
    rng = np.random.default_rng(12)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    x0 = 0.3 * rng.standard_normal(20)
    run = RUNNERS[name]
    seen = []
    x, trace = run(p, SolverConfig(x0=x0), delta, callback=lambda n, v: seen.append(v))
    # row 0 is the initial point, rows are numbered consecutively
    np.testing.assert_array_equal(seen[0], x0)
    np.testing.assert_array_equal(seen[-1], x)
    image = x0 if trace.spec is None else back_transform(x0, trace.spec)
    assert trace.residuals[0] == np.linalg.norm(A.matvec(image) - y)
    assert trace.iterations == list(range(trace.n_star + 1)) and len(seen) == trace.n_star + 1
    # the run stops at the first row that meets the discrepancy principle
    assert trace.stop_reason == "discrepancy"
    met = [r <= 1.1 * delta for r in trace.residuals]
    assert met.index(True) == trace.n_star
    _, trace = run(p, SolverConfig(x0=x0, max_iter=0), delta)
    assert trace.n_star == 0 and trace.stop_reason == "max_iter"


def test_resolve_epsilon_rules():
    y = np.ones(4) * 2.0  # norm 4
    assert resolve_epsilon(SolverConfig(epsilon=0.3), 1.0, y, default=0.0) == 0.3
    assert resolve_epsilon(SolverConfig(), 1.0, y, default=0.0) == 0.0
    assert resolve_epsilon(SolverConfig(), 2.0, y, default="auto") == 2e-4
    assert resolve_epsilon(SolverConfig(epsilon="auto"), 0.0, y, default=0.0) \
        == pytest.approx(4e-8, rel=1e-12)
    with pytest.raises(ValueError, match=">= 0"):
        resolve_epsilon(SolverConfig(epsilon=-1.0), 1.0, y, default=0.0)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="tau"):
        SolverConfig(tau=0.9)
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=2.0)
    with pytest.raises(ValueError, match="lm_decay"):
        SolverConfig(lm_decay=1.0)
    with pytest.raises(ValueError, match="lm_floor"):
        SolverConfig(lm_floor=0.0)
    with pytest.raises(ValueError, match="lm_alpha0"):
        SolverConfig(lm_alpha0=-1.0)
    with pytest.raises(ValueError, match="warm_start"):
        SolverConfig(warm_start=-1)
    with pytest.raises(ValueError, match="omega"):
        SolverConfig(omega=-0.5)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=-1)


def test_armijo_rule_validation():
    with pytest.raises(ValueError, match="t_init"):
        ArmijoRule(t_init=0.0)
    with pytest.raises(ValueError, match="shrink"):
        ArmijoRule(shrink=1.0)
    with pytest.raises(ValueError, match="slope"):
        ArmijoRule(slope=0.0)
