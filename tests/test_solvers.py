"""Solver runners: updates, stopping rules, traces and small closed-form oracles."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsenewton import (
    CGResult,
    CurvatureError,
    DivergenceError,
    ExperimentConfig,
    ProblemData,
    SolverConfig,
    SparseMatrix,
    TomoGeometry,
    TransformSpec,
    add_noise,
    apply_N_inverse,
    back_transform,
    build_parallel_tomo,
    check_discrepancy,
    apply_N_eps,
    grad_J,
    gradient_diag,
    hessian_operator,
    run_fista,
    run_gradient_descent,
    run_ista,
    run_levenberg_marquardt,
    run_newton,
    shepp_logan,
    soft_threshold,
)
from sparsenewton import solvers
from sparsenewton.experiment import build_instances, make_solver_config
from sparsenewton.solvers import RUNNERS, SOLVER_KNOBS

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


@settings(max_examples=30, deadline=None)
@given(tau=st.floats(1.0, 10.0, exclude_min=True), delta=st.floats(0.0, 1e6))
def test_discrepancy_boundary_is_inclusive(tau, delta):
    assert check_discrepancy(tau * delta, tau, delta)
    assert not check_discrepancy(np.nextafter(tau * delta, np.inf), tau, delta)


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


def test_ista_descends_its_objective():
    # every step in (0, 2 / ||A||_2^2), the "auto" 1.7 / ||A||_2^2 among them,
    # lowers ||A x - y||^2 + 2 alpha ||x||_1; the trace's functionals column
    # is T, which is not this objective, so the test computes it
    rng = np.random.default_rng(1)
    A, y, _ = conditioned_instance(rng)
    desk = build_parallel_tomo(TomoGeometry(32, 60, 45))
    y_desk, delta = add_noise(desk.matvec(shepp_logan(32)), 0.1, 0)
    desk_cfg, alpha = make_solver_config("ista", {}, delta, y_desk)
    runs = [(ProblemData(A, y, 0.05), SolverConfig(max_iter=300), 0.0, "stagnation"),
            (ProblemData(desk, y_desk, alpha), desk_cfg, delta, "discrepancy")]
    for p, cfg, level, reason in runs:
        values = []

        def note(_n, x):
            r = p.A.matvec(x) - p.y_delta
            values.append(float(r @ r + 2.0 * p.alpha * np.abs(x).sum()))

        _, trace = run_ista(p, cfg, level, callback=note)
        assert trace.stop_reason == reason and trace.n_star >= 10
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def first_step_at(p, coeff):
    """The first iterate from x = 0 at omega = coeff / ||A||_2^2, written out:
    S_{alpha omega}(0 - omega A^T (A 0 - y))."""
    sigma = p.A.norm2_estimate()
    omega = coeff / (sigma * sigma)
    v = np.zeros(p.A.n_cols) - omega * p.A.transpose_matvec(np.zeros(p.A.n_rows) - p.y_delta)
    return np.sign(v) * np.maximum(np.abs(v) - p.alpha * omega, 0.0)


def test_each_method_takes_its_own_auto_step():
    # ISTA converges at any step in (0, 2/L), L = ||A||_2^2, and takes 1.7 / L;
    # FISTA's rate needs a step <= 1/L, so FISTA and the warm start that runs
    # it take 0.9 / L
    rng = np.random.default_rng(16)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    first = {}
    for name in ("ista", "fista"):
        rows = []
        RUNNERS[name](p, SolverConfig(max_iter=1), delta, callback=lambda n, v: rows.append(v))
        first[name] = rows[1]
    assert first["ista"].any()
    np.testing.assert_array_equal(first["ista"], first_step_at(p, 1.7))
    np.testing.assert_array_equal(first["fista"], first_step_at(p, 0.9))
    run_levenberg_marquardt(p, SolverConfig(warm_start=1, max_iter=0), delta)
    (stored,) = p.warm_starts.values()
    np.testing.assert_array_equal(stored, first_step_at(p, 0.9))


@pytest.mark.filterwarnings("error")
def test_ista_divergence_error():
    # FISTA at 1.9 / L, below the bound both ISTA and FISTA refuse
    # (test_ista_refuses_a_step_past_its_convergence_bound), still diverges
    # on this instance: it stops on the first iterate whose functional value
    # overflows, with no numpy warning on the way
    rng = np.random.default_rng(2)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    with pytest.raises(DivergenceError, match="reduce omega"):
        run_fista(p, SolverConfig(omega=1.9 / A.norm2_estimate() ** 2), 0.0)
    # every method stops at an initial point whose value overflows (for GD,
    # LM and Newton the first point of their FISTA warm start), and no step
    # was taken that omega could be blamed for
    huge = ProblemData(SparseMatrix.from_dense(np.eye(3)), np.full(3, 1e200), 1e-3)
    for runner in RUNNERS.values():
        with pytest.raises(DivergenceError) as info:
            runner(huge, SolverConfig(), 1e190)
        assert str(info.value) == ("divergence: the functional value of the initial point "
                                   "is not finite")


def test_ista_refuses_a_step_past_its_convergence_bound(product_log):
    # forward-backward splitting converges for steps in (0, 2/L), and ISTA
    # and FISTA both refuse an explicit step past it; at 2.05/L the desk cell
    # at 10% noise ran 7,133 ISTA steps and 386 FISTA steps before its
    # functional overflowed, and at 1.95/L ISTA reaches the discrepancy stop
    # (FISTA at 1.9/L diverges there, at iterate 450)
    A = build_parallel_tomo(TomoGeometry(32, 60, 45))
    y_delta, delta = add_noise(A.matvec(shepp_logan(32)), 0.1, 0)
    L = A.norm2_estimate() ** 2
    log = product_log()
    for name in ("fista", "ista"):  # ISTA last: cfg and p are its own below
        cfg, alpha = make_solver_config(name, {}, delta, y_delta)
        p = ProblemData(A, y_delta, alpha)
        rows = []
        with pytest.raises(ValueError,
                           match=r"convergence bound 2 / \|\|A\|\|_2\^2 = .*reduce omega"):
            RUNNERS[name](p, replace(cfg, omega=2.05 / L), delta,
                          callback=lambda n, v: rows.append(n))
        assert rows == [] and log.products == 0, name
    _, trace = run_ista(p, replace(cfg, omega=1.95 / L), delta)
    assert trace.stop_reason == "discrepancy"


@pytest.mark.filterwarnings("error")
def test_divergence_on_the_substituted_variable_does_not_blame_omega(monkeypatch):
    # omega is a step of ISTA and FISTA only; an LM step of 1e200 overflows
    # J_eps with no numpy warning, and the message gives no advice on omega
    def runaway_cg(op, b, **kwargs):
        return CGResult(np.full(b.size, 1e200), True, 1, 0.0, False)

    monkeypatch.setattr(solvers, "cg_solve", runaway_cg)
    rng = np.random.default_rng(2)
    A, y, _ = conditioned_instance(rng)
    p = ProblemData(A, y, 0.05)
    with pytest.raises(DivergenceError) as info:
        run_levenberg_marquardt(p, SolverConfig(x0=np.ones(A.n_cols)), 0.0)
    assert str(info.value) == "divergence: the functional value of iterate 1 is not finite"


@pytest.mark.filterwarnings("error")
def test_gd_rejects_a_trial_whose_functional_overflows(monkeypatch):
    # J = (a x^2)^2 + x^2 at x = 1e113 (J about 1e242): from the step 1 the
    # first trial, x - g at about -4e129, overflows J, and 55 halvings later
    # a trial lies below J(x); GD's own first search starts at the Cauchy
    # step, about 1.25e-17, and takes it at once
    log = record_trials(monkeypatch)
    p = ProblemData(SparseMatrix.from_dense(np.array([[1e-105]])), np.zeros(1), 1.0)
    spec = TransformSpec(0.0)
    point = solvers._evaluate(p, spec, np.array([1e113]))
    g = grad_J(p, point.x, spec)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _iterate's steps
        accepted = solvers._armijo(p, spec, point, -g, -float(g @ g), 1.0)
    row0, first_trial, *_, last = [entry[1] for entry in log]
    assert np.isfinite(row0) and first_trial == np.inf and len(log) == 57
    assert last == accepted.f < row0 and np.isfinite(accepted.x).all()
    log.clear()
    x, trace = run_gradient_descent(p, SolverConfig(x0=point.x, max_iter=1), 0.0)
    assert trace.n_star == 1 and len(log) == 2 and trace.functionals[1] < row0


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
    # with the zero operator x = 0 is stationary for J_eps too
    p = ProblemData(zero_operator(2), np.ones(2), 1.0)
    x, trace = run_gradient_descent(p, SolverConfig(epsilon=0.01), 0.0)
    np.testing.assert_array_equal(x, np.zeros(2))
    assert trace.n_star == 0
    assert trace.stop_reason == "stagnation"


@pytest.mark.parametrize("runner", [run_gradient_descent, run_levenberg_marquardt])
def test_unsmoothed_start_at_zero_is_an_error(runner):
    # the Jacobian 2|x| vanishes at x = 0, so no step could leave it
    rng = np.random.default_rng(3)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    with pytest.raises(ValueError, match="no step leaves x = 0 at epsilon = 0.*warm_start.*x0"):
        runner(ProblemData(A, y, 0.01), SolverConfig(warm_start=0), delta)
    # a warm start or a smoothed transform moves as before
    for cfg in (SolverConfig(warm_start=5, max_iter=3),
                SolverConfig(epsilon=0.01, warm_start=0, max_iter=3)):
        x, _ = runner(ProblemData(A, y, 0.01), cfg, delta)
        assert x.any()


def test_levenberg_marquardt_scalar_step():
    # from x=1 toward the solution of sgn(x)x^2 = 4, where g = 2 and
    # G A^T A G = 4: at delta = 0 the shift is the relative floor 1e-4 * 4, so
    # one step lands on 1 + 6 / (4 + 4e-4), next to the Gauss-Newton 2.5
    p = ProblemData(ONE_BY_ONE, np.array([4.0]), 1.0)
    cfg = SolverConfig(max_iter=1, x0=np.array([1.0]))
    x, trace = run_levenberg_marquardt(p, cfg, 0.0)
    assert x[0] == pytest.approx(1.0 + 6.0 / (4.0 + 4.0 * solvers.SHIFT_RELATIVE_FLOOR), abs=1e-9)
    assert trace.stop_reason == "max_iter"


def test_levenberg_marquardt_stays_finite_without_noise():
    # at delta = 0 the schedule shift falls to 1e-14, far below G A^T A G; the
    # floor relative to its largest diagonal entry keeps LM from running away
    A = build_parallel_tomo(TomoGeometry(16, 24, 20))
    x_true = shepp_logan(16)
    y = A.matvec(x_true)
    cfg, alpha = make_solver_config("lm", {}, 0.0, y)
    x, trace = run_levenberg_marquardt(ProblemData(A, y, alpha), cfg, 0.0, x_true=x_true)
    assert np.all(np.isfinite(x))
    assert trace.stop_reason == "max_iter"
    assert trace.rel_errors[-1] < 1e-3


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
    assert_trace_consistent(trace, cfg.for_method("lm").tau, delta)


def test_newton_scalar_matches_grid_search():
    p = ProblemData(ONE_BY_ONE, np.array([1.0]), 0.1)
    cfg = SolverConfig(epsilon=0.01, x0=np.array([0.9]), grad_tol=1e-12,
                       inner_tol=1e-14, max_iter=100)
    x, trace = run_newton(p, cfg, 0.0)
    grid = np.linspace(0.5, 1.5, 2_000_001)
    values = (apply_N_eps(TransformSpec(0.01), grid) - 1.0) ** 2 \
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
    with pytest.raises(ValueError, match="epsilon must be > 0 for newton"):
        run_newton(p, SolverConfig(epsilon=0.0), 0.0)
    silent = ProblemData(ONE_BY_ONE, np.zeros(1), 1.0)  # "auto" at delta = 0 is 1e-8 ||y|| = 0
    with pytest.raises(ValueError, match="epsilon must be > 0 for newton"):
        run_newton(silent, SolverConfig(), 0.0)


def test_lm_tries_the_schedule_shift_once_then_stops_with_stagnation(monkeypatch, call_log):
    solves = []

    def unconverged_cg(op, b, **kwargs):
        solves.append(b)
        return CGResult(np.zeros_like(b), False, 1, 0.0, False)

    shifts = call_log(solvers, "_shift")
    monkeypatch.setattr(solvers, "cg_solve", unconverged_cg)
    delta = 0.5
    p = ProblemData(ONE_BY_ONE, np.array([4.0]), 1.0)
    _, trace = run_levenberg_marquardt(p, SolverConfig(x0=np.array([1.0])), delta)
    assert [shift for _, _, shift in shifts] == [delta] and len(solves) == 1
    assert trace.stop_reason == "stagnation" and trace.n_star == 0


def test_lm_lets_a_curvature_error_of_its_inner_solve_propagate(monkeypatch):
    # LM's scaled system is positive definite by construction, so CG meeting
    # non-positive curvature there is a fault to report, not a stop reason
    def failing_cg(op, b, **kwargs):
        raise CurvatureError(0)

    monkeypatch.setattr(solvers, "cg_solve", failing_cg)
    p = ProblemData(ONE_BY_ONE, np.array([4.0]), 1.0)
    with pytest.raises(CurvatureError, match="iteration 0"):
        run_levenberg_marquardt(p, SolverConfig(x0=np.array([1.0])), 0.5)


def test_lm_preconditions_its_cg_with_the_diagonal_of_the_normal_operator(call_log):
    # LM hands CG the system D M D u = D b with D = diag(M)^(-1/2), whose
    # operator has a unit diagonal, and which CG solves in fewer iterations
    # than M s = b
    A = build_parallel_tomo(TomoGeometry(16, 24, 20))
    y_delta, delta = add_noise(A.matvec(shepp_logan(16)), 0.01, 0)
    cfg, alpha = make_solver_config("lm", {}, delta, y_delta)
    rows, cg = [], solvers.cg_solve
    solves = call_log(solvers, "cg_solve")
    run_levenberg_marquardt(ProblemData(A, y_delta, alpha), replace(cfg, max_iter=1), delta,
                            callback=lambda n, x: rows.append(x))
    ((op, b), _, _), = solves
    g, mu = gradient_diag(TransformSpec(0.0), rows[0]), solvers._shift(0, delta)

    def normal(w):  # M = G A^T A G + mu I at row 0
        return g * A.transpose_matvec(A.matvec(g * w)) + mu * w

    eye = np.eye(b.size)
    np.testing.assert_allclose([op(e)[j] for j, e in enumerate(eye)], 1.0, rtol=1e-12)
    d = 1.0 / np.sqrt([normal(e)[j] for j, e in enumerate(eye)])
    u = np.random.default_rng(0).standard_normal(b.size)
    np.testing.assert_allclose(op(u), d * normal(d * u), rtol=1e-12, atol=1e-12)
    # at the looser sweep default both take the same iterations on this cell;
    # the property is the scaling's, so it is checked at a fixed tolerance
    scaled, unscaled = cg(op, b, tol=1e-2), cg(normal, b / d, tol=1e-2)
    assert scaled.converged and unscaled.converged
    assert scaled.iterations < unscaled.iterations


def acceptance_products(method, product_log):
    """A and A^T products of method's runs over the acceptance instances
    (32/60/45, noise 0.05, 0.1 and 0.2, seed 0) with the sweep's knobs, warm
    starts included and the cached norm estimate left out, one count per
    instance."""
    instances = build_instances(ExperimentConfig(TomoGeometry(32, 60, 45), [method],
                                                 [0.05, 0.1, 0.2], 1, 0))
    instances[(0, 0)].A.norm2_estimate()
    log = product_log()
    counts = []
    for instance in instances.values():
        before = log.products
        cfg, alpha = make_solver_config(method, {}, instance.delta, instance.y_delta)
        RUNNERS[method](ProblemData(instance.A, instance.y_delta, alpha), cfg, instance.delta)
        counts.append(log.products - before)
    return counts


def test_second_order_methods_stay_within_their_product_budgets(product_log):
    # a change that makes LM or Newton do more work fails here before it
    # shows in a benchmark
    budgets = {"lm": 80, "newton": 68}  # measured: 40 + 28 + 12 and 28 + 28 + 12
    for method, budget in budgets.items():
        counts = acceptance_products(method, product_log)
        assert sum(counts) <= budget, f"{method}: {counts} products, budget {budget}"


def test_gd_stays_within_its_product_budget(product_log):
    # a first search started far from the problem's scale halves for many
    # products before it finds it
    counts = acceptance_products("gd", product_log)
    assert sum(counts) <= 70, f"gd: {counts} products, budget 70"  # measured: 35 + 23 + 12


def record_trials(monkeypatch):
    """Wrap the solvers' CG and point evaluation; returns the log of
    ("cg", radius, right-hand side, CGResult) and ("eval", J_eps) entries."""
    log = []
    cg, evaluate = solvers.cg_solve, solvers._evaluate

    def recording_cg(op, b, **kwargs):
        result = cg(op, b, **kwargs)
        log.append(("cg", kwargs.get("radius"), b, result))
        return result

    def recording_evaluate(*args):
        point = evaluate(*args)
        log.append(("eval", point.f))
        return point

    monkeypatch.setattr(solvers, "cg_solve", recording_cg)
    monkeypatch.setattr(solvers, "_evaluate", recording_evaluate)
    return log


def test_newton_radius_quarters_on_a_rejected_step_and_doubles_on_a_good_boundary_step(
        monkeypatch):
    # 1x1, from x0 = -3 towards the minimizer near +2: the iterate crosses the
    # smoothing band around 0, where a step inside the ball is rejected
    log = record_trials(monkeypatch)
    p = ProblemData(ONE_BY_ONE, np.array([4.0]), 1.0)
    _, trace = run_newton(p, SolverConfig(epsilon=0.5, x0=np.array([-3.0])), 0.5)
    assert trace.stop_reason == "discrepancy"
    (_, f), *rest = log  # row 0, then each trial: its solve and its evaluation
    trials = [(cg[1], cg[2], cg[3], ev[1]) for cg, ev in zip(rest[::2], rest[1::2])]
    assert trials[0][0] == solvers.TR_RADIUS_START * 3.0
    seen, accepted = [], 0
    for (radius, b, result, trial_f), (next_radius, next_b, *_) in zip(trials, trials[1:]):
        rho = (f - trial_f) / -result.model
        if rho < 0.25:
            assert next_radius == 0.25 * abs(result.x[0])  # of the step, not of the ball
            seen.append("quarter" if result.on_boundary else "quarter inside")
        elif rho > 0.75 and result.on_boundary:
            assert next_radius == 2.0 * radius
            seen.append("double")
        else:
            assert next_radius == radius
        if rho > 1e-4:
            f, accepted = trial_f, accepted + 1
        else:  # rejected: the same system is solved again in the smaller ball
            np.testing.assert_array_equal(next_b, b)
            seen.append("reject")
    assert {"quarter inside", "double", "reject"} <= set(seen)
    assert accepted + 1 == trace.n_star  # the loop leaves out the last, accepted trial


def test_newton_cold_start_takes_the_cauchy_length_as_first_radius(monkeypatch):
    rng = np.random.default_rng(7)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    log = record_trials(monkeypatch)
    cfg = SolverConfig(epsilon=1e-3, warm_start=0, max_iter=50)
    _, trace = run_newton(p, cfg, delta)
    assert trace.stop_reason == "discrepancy"
    zero, spec = np.zeros(A.n_cols), TransformSpec(1e-3)
    g = grad_J(p, zero, spec)
    cauchy = np.linalg.norm(g) ** 3 / (g @ hessian_operator(p, zero, spec)(g))
    assert log[1][1] == pytest.approx(cauchy, rel=1e-12)
    assert_trace_consistent(trace, cfg.for_method("newton").tau, delta)


def test_newton_stops_at_the_minimizer_once_the_predicted_decrease_is_round_off(
        monkeypatch):
    rng = np.random.default_rng(0)
    A, y, _ = conditioned_instance(rng)
    log = record_trials(monkeypatch)
    cfg = SolverConfig(epsilon=1e-3, warm_start=25, inner_tol=1e-14, max_iter=200)
    _, trace = run_newton(ProblemData(A, y, 0.04), cfg, 0.0)  # delta = 0: no discrepancy stop
    solves = [entry[3] for entry in log if entry[0] == "cg"]
    assert trace.stop_reason == "stagnation" and trace.n_star < 10
    assert -solves[-1].model <= np.finfo(float).eps * trace.functionals[-1]
    # not MAX_BACKTRACKS trials whose rho is rounding noise
    assert len(solves) <= trace.n_star + 3


def test_newton_stops_with_stagnation_after_max_backtracks_rejected_trials(monkeypatch):
    rng = np.random.default_rng(0)
    A, y, _ = conditioned_instance(rng)
    monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 3)
    log = record_trials(monkeypatch)
    evaluate = solvers._evaluate

    def rejected(*args):  # row 0 as it is, every trial point far above it
        point = evaluate(*args)
        return point if len(log) == 1 else replace(point, f=point.f + 1e6)

    monkeypatch.setattr(solvers, "_evaluate", rejected)
    cfg = SolverConfig(epsilon=1e-3, x0=rng.standard_normal(20), max_iter=5)
    _, trace = run_newton(ProblemData(A, y, 0.04), cfg, 0.0)
    solves = [entry[3] for entry in log if entry[0] == "cg"]
    assert trace.stop_reason == "stagnation" and trace.n_star == 0
    assert len(solves) == 3
    # each trial was rejected, not cut short by the rounding-unit stop
    assert all(-s.model > np.finfo(float).eps * trace.functionals[0] for s in solves)


def test_newton_meets_discrepancy_on_noisy_instance():
    rng = np.random.default_rng(7)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    cfg = SolverConfig(warm_start=3, max_iter=50)
    _, trace = run_newton(p, cfg, delta)
    assert trace.stop_reason == "discrepancy"
    assert trace.n_star <= 25
    assert_trace_consistent(trace, cfg.for_method("newton").tau, delta)


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
    assert_trace_consistent(trace, cfg.for_method("ista").tau, delta)


def test_x0_of_the_wrong_length_is_an_error():
    p = ProblemData(SparseMatrix.from_dense(np.eye(4)), np.ones(4), 0.05)
    with pytest.raises(ValueError, match="^x0 has length 3 but A has 4 columns$"):
        run_ista(p, SolverConfig(x0=np.ones(3)), 0.0)


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


@pytest.mark.parametrize("name", ["ista", "fista"])
def test_cold_start_shrinkage_makes_two_products_per_step(name, product_log):
    rng = np.random.default_rng(13)
    A, y, delta = conditioned_instance(rng, noise=0.01)
    p = ProblemData(A, y, 0.002)
    A.norm2_estimate()  # ISTA checks an explicit omega against it, once per matrix
    log = product_log()
    _, trace = RUNNERS[name](p, SolverConfig(omega=0.2), delta)
    assert trace.n_star >= 5
    # one A product per row but the zero start, whose image A 0 needs none,
    # and one A^T product per step
    assert log.products == 2 * trace.n_star


@pytest.mark.parametrize("name", ["gd", "lm", "newton"])
def test_each_iterate_image_is_computed_once(name, product_log):
    rng = np.random.default_rng(14)
    A, y, delta = conditioned_instance(rng, noise=0.01)
    p = ProblemData(A, y, 0.002)
    x0 = 0.3 * rng.standard_normal(20)
    rows = []
    log = product_log()
    _, trace = RUNNERS[name](p, SolverConfig(x0=x0), delta,
                             callback=lambda n, v: rows.append(v))
    assert len(rows) >= 3
    for v in rows:
        assert log.inputs["matvec"][back_transform(v, trace.spec).tobytes()] == 1


def gd_sweep_cell():
    """A small tomography cell at 1% noise with the sweep's GD knobs."""
    A = build_parallel_tomo(TomoGeometry(12, 18, 16))
    y_delta, delta = add_noise(A.matvec(shepp_logan(12)), 0.01, 0)
    cfg, alpha = make_solver_config("gd", {}, delta, y_delta)
    return ProblemData(A, y_delta, alpha), cfg, delta


def test_bb_step_is_the_short_step_clipped_and_one_without_positive_curvature():
    assert solvers._bb_step(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == 4.0 / 5.0
    # on a quadratic the step is the inverse Rayleigh quotient of H^(1/2) s
    H = np.array([[3.0, 1.0], [1.0, 2.0]])
    s = np.array([0.5, -1.5])
    Hs = H @ s
    assert solvers._bb_step(s, Hs) == pytest.approx((s @ Hs) / (Hs @ Hs), rel=1e-15)
    for y in ([-1.0, 0.0], [0.0, 1.0], [-2.0, 1.0]):  # s^T y < 0, = 0, < 0
        assert solvers._bb_step(np.array([1.0, 0.0]), np.array(y)) == 1.0
    assert solvers._bb_step(np.array([1e-13]), np.array([1.0])) == solvers.BB_STEP_MIN
    assert solvers._bb_step(np.array([1.0]), np.array([1e-13])) == solvers.BB_STEP_MAX
    assert (solvers.BB_STEP_MIN, solvers.BB_STEP_MAX) == (1e-12, 1e12)


def record_searches(monkeypatch):
    """Wrap GD's line search; returns the list of (start step, trials) of
    each search."""
    searches = []
    log, armijo = record_trials(monkeypatch), solvers._armijo

    def recording_armijo(*args):
        before = len(log)
        point = armijo(*args)
        searches.append((args[5], len(log) - before))
        return point

    monkeypatch.setattr(solvers, "_armijo", recording_armijo)
    return searches


def test_gd_searches_start_at_the_bb_step_of_the_rows(monkeypatch):
    # row 0 has no last step: its search starts at the Cauchy step
    searches = record_searches(monkeypatch)
    p, cfg, delta = gd_sweep_cell()
    rows = []
    _, trace = run_gradient_descent(p, cfg, delta, callback=lambda n, v: rows.append(v))
    starts = [start for start, _ in searches]
    grads = [grad_J(p, x, trace.spec) for x in rows]
    Gg = gradient_diag(trace.spec, rows[0]) * grads[0]
    AGg = p.A.to_dense() @ Gg
    cauchy = (grads[0] @ grads[0]) / (2.0 * (AGg @ AGg + p.alpha * (grads[0] @ grads[0])))
    want = [cauchy] + [solvers._bb_step(rows[k] - rows[k - 1], grads[k] - grads[k - 1])
                       for k in range(1, trace.n_star)]
    assert len(starts) == trace.n_star >= 10
    assert cauchy == pytest.approx(0.0020365, rel=1e-4)
    assert starts == pytest.approx(want, rel=1e-12)
    assert len(set(starts)) > trace.n_star // 2  # the start follows the iterates


def test_gd_first_search_on_the_sweep_cell_takes_at_most_two_trials(monkeypatch):
    # the Cauchy step puts the first search at the problem's scale; from the
    # step 1 it halves about ten times
    searches = record_searches(monkeypatch)
    p, cfg, delta = gd_sweep_cell()
    run_gradient_descent(p, cfg, delta)
    assert searches[0][1] <= 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0", [1e40, 1e60])
def test_gd_first_search_starts_at_one_when_the_cauchy_step_is_not_finite(x0, monkeypatch):
    # J = x^4 + x^2: at 1e40 ||A G g||^2 overflows and the Cauchy step is 0;
    # at 1e60 ||g||^2 overflows too and it is nan
    searches = record_searches(monkeypatch)
    p = ProblemData(ONE_BY_ONE, np.zeros(1), 1.0)
    run_gradient_descent(p, SolverConfig(x0=np.array([x0]), max_iter=1), 0.0)
    assert searches[0][0] == 1.0
    g = np.array([2.0 * 2.0 * x0 * x0**2 + 2.0 * x0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert solvers._cauchy_step(p, TransformSpec(0.0), np.array([x0]), g,
                                    float(g @ g)) == 1.0


def test_gd_reaches_the_discrepancy_stop_on_the_sweep_cell_in_at_most_40_steps(product_log):
    p, cfg, delta = gd_sweep_cell()
    log = product_log()
    at_row = {}
    _, trace = run_gradient_descent(p, cfg, delta,
                                    callback=lambda n, v: at_row.setdefault(n, log.products))
    assert trace.stop_reason == "discrepancy" and trace.n_star <= 40
    # one A^T product per step plus the trial steps of its search
    assert log.products - at_row[0] <= 4 * trace.n_star


@pytest.mark.parametrize("name", ["gd", "lm", "newton"])
def test_row_zero_wall_time_covers_the_warm_start(name, monkeypatch):
    clock = [0.0]
    fista = solvers.run_fista

    def slow_warm_start(*args, **kwargs):
        clock[0] += 5.0
        return fista(*args, **kwargs)

    monkeypatch.setattr(solvers, "run_fista", slow_warm_start)
    rng = np.random.default_rng(15)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    _, trace = RUNNERS[name](p, SolverConfig(warm_start=3, max_iter=2), delta,
                             timer=lambda: clock[0])
    assert trace.wall_times == [5.0] * (trace.n_star + 1)


@pytest.mark.parametrize("name, omega", [
    pytest.param("ista", "auto", id="ista"), pytest.param("fista", "auto", id="fista"),
    # an explicit omega's power method runs in the refusal of omega >= 2/L
    pytest.param("ista", 1e-3, id="ista-explicit-omega"),
    pytest.param("fista", 1e-3, id="fista-explicit-omega"),
])
def test_wall_time_covers_the_norm_estimate(name, omega, monkeypatch):
    clock = [0.0]
    estimate = SparseMatrix.norm2_estimate

    def slow_estimate(self):
        clock[0] += 5.0
        return estimate(self)

    monkeypatch.setattr(SparseMatrix, "norm2_estimate", slow_estimate)
    rng = np.random.default_rng(15)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    _, trace = RUNNERS[name](ProblemData(A, y, 0.02), SolverConfig(max_iter=2, omega=omega),
                             delta, timer=lambda: clock[0])
    assert trace.n_star == 2
    assert trace.wall_times[-1] == clock[0] > 0.0


def test_resolve_epsilon_rules():
    # gd and lm default to 0.0, newton to "auto": 1e-4 * delta, or 1e-8 ||y|| at delta = 0
    assert [SolverConfig().for_method(name).epsilon for name in ("gd", "lm", "newton")] \
        == [0.0, 0.0, "auto"]
    assert SolverConfig(epsilon=0.3).for_method("gd").epsilon == 0.3
    p = ProblemData(SparseMatrix.from_dense(np.eye(4)), np.full(4, 2.0), 1.0)  # ||y|| = 4

    def run_epsilon(runner, delta, **knobs):  # the epsilon the run iterated with
        cfg = SolverConfig(x0=np.ones(4), max_iter=0, **knobs)
        return runner(p, cfg, delta)[1].spec.epsilon

    assert run_epsilon(run_gradient_descent, 1.0, epsilon=0.3) == 0.3
    assert run_epsilon(run_gradient_descent, 1.0) == 0.0
    assert run_epsilon(run_newton, 2.0) == 2e-4
    assert run_epsilon(run_levenberg_marquardt, 0.0, epsilon="auto") \
        == pytest.approx(4e-8, rel=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="tau"):
        SolverConfig(tau=0.9)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        SolverConfig(epsilon=-1.0)
    with pytest.raises(ValueError, match="warm_start"):
        SolverConfig(warm_start=-1)
    with pytest.raises(ValueError, match="omega"):
        SolverConfig(omega=-0.5)
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=-1)
    for knob, value in (("max_iter", 2.5), ("max_iter", np.nan), ("warm_start", 1.5),
                        ("max_iter", "10"), ("warm_start", np.float64(2.0)),
                        ("max_iter", True), ("warm_start", True)):
        message = f"^{knob} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{knob: value})
    assert SolverConfig(max_iter=np.int64(3), warm_start=np.int32(2)).max_iter == 3
    for knob in ("epsilon", "tau", "omega", "inner_tol", "grad_tol"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{knob} must be finite, got {value!r}$"):
                SolverConfig(**{knob: value})
    for knob, value in (("omega", "fast"), ("omega", 1j), ("epsilon", "x"), ("tau", "1.5"),
                        ("tau", "auto"), ("grad_tol", [0.1]),
                        ("epsilon", False), ("tau", False), ("omega", False),
                        ("inner_tol", False), ("grad_tol", False)):
        message = f"^{knob} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{knob: value})
    for value in (0, 0.0):  # no CG solve reaches a tolerance of 0
        with pytest.raises(ValueError, match=f"^inner_tol must exceed 0, got {value!r}$"):
            SolverConfig(inner_tol=value)


def test_each_runner_refuses_a_knob_it_does_not_read(product_log):
    """A runner refuses a valid value of each knob its method does not read,
    before any product."""
    rng = np.random.default_rng(16)
    p = ProblemData(SparseMatrix.from_dense(rng.standard_normal((30, 20))),
                    rng.standard_normal(30), 0.05)
    log = product_log()
    for name, run in RUNNERS.items():
        for key, (_, _, _, readers) in SOLVER_KNOBS.items():
            if name in readers:
                continue
            valid = next(iter(readers.values()))
            with pytest.raises(ValueError, match=f"^solver knob '{key}' is not read by {name}$"):
                run(p, SolverConfig(**{key: valid}), 0.1)
    assert log.products == 0 and p.warm_starts == {}


@pytest.mark.parametrize("delta,message", [
    (np.nan, "delta must be finite, got nan"),
    (-1.0, "delta must be >= 0, got -1.0"),
    (True, "delta must be a number, got True"),
])
@pytest.mark.parametrize("name", list(RUNNERS))
def test_every_runner_refuses_a_bad_delta_before_its_warm_start(name, delta, message,
                                                                product_log):
    rng = np.random.default_rng(16)
    A = SparseMatrix.from_dense(rng.standard_normal((30, 20)))
    p = ProblemData(A, rng.standard_normal(30), 0.05)
    log = product_log()
    with pytest.raises(ValueError, match=f"^{message}$"):
        RUNNERS[name](p, SolverConfig(max_iter=40), delta)
    assert log.products == 0 and p.warm_starts == {}


@pytest.mark.parametrize("name", ["gd", "lm", "newton"])
def test_an_infinite_delta_is_named_before_epsilon_is_derived_from_it(name, product_log):
    # epsilon = "auto" is 1e-4 * delta, which is infinite too
    rng = np.random.default_rng(16)
    A = SparseMatrix.from_dense(rng.standard_normal((30, 20)))
    p = ProblemData(A, rng.standard_normal(30), 0.05)
    log = product_log()
    with pytest.raises(ValueError, match="^delta must be finite, got inf$"):
        RUNNERS[name](p, SolverConfig(max_iter=40, epsilon="auto"), np.inf)
    assert log.products == 0 and p.warm_starts == {}


def test_a_stored_warm_start_is_never_handed_out():
    # at max_iter = 0 the run returns its initial point, the warm start itself
    rng = np.random.default_rng(15)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    x, trace = run_levenberg_marquardt(p, SolverConfig(warm_start=3, max_iter=0), delta)
    (stored,) = p.warm_starts.values()
    assert trace.n_star == 0 and not stored.flags.writeable
    np.testing.assert_array_equal(x, apply_N_inverse(stored))
    assert not np.shares_memory(x, stored)


def test_a_warm_start_is_stored_per_noise_level():
    rng = np.random.default_rng(15)
    A, y, delta = conditioned_instance(rng, noise=0.05)
    p = ProblemData(A, y, 0.02)
    cfg = SolverConfig(warm_start=3, max_iter=0)
    for level in (delta, 2 * delta):
        run_levenberg_marquardt(p, cfg, level)
    assert len(p.warm_starts) == 2
    run_levenberg_marquardt(p, cfg, delta)
    assert len(p.warm_starts) == 2


def test_warm_starts_stay_out_of_problem_data_repr_and_equality():
    y = np.ones(1)
    a, b = ProblemData(ONE_BY_ONE, y, 1.0), ProblemData(ONE_BY_ONE, y, 1.0)
    a.warm_starts["key"] = np.ones(1)
    assert "warm_starts" not in repr(a)
    assert a == b
