"""Acceptance battery: one test per release criterion.

Each test prints its measured metric next to the pinned tolerance, so a
``pytest -v`` run doubles as the acceptance report.  The desk-scale sweep
(32 x 32 phantom, 60 angles, 45 beams, three noise levels) is run once per
session and shared by the trend criteria.
"""

import time

import numpy as np
import pytest

from sparsenewton import (
    ExperimentConfig,
    ProblemData,
    SolverConfig,
    SparseMatrix,
    TomoGeometry,
    TransformSpec,
    apply_N,
    apply_N_eps,
    back_transform,
    build_parallel_tomo,
    eval_J,
    grad_J,
    gradient_diag,
    hessian_diag,
    hessian_operator,
    run_experiment,
    run_fista,
    run_ista,
    run_newton,
    soft_threshold,
)

SWEEP_GEOMETRY = TomoGeometry(32, 60, 45)
SWEEP_SOLVERS = ["ista", "fista", "gd", "lm", "newton"]
SWEEP_NOISE = [0.05, 0.1, 0.2]


def conditioned_instance(rng, n=20, nnz=5):
    """Random 20 x 20 system with singular values in [1, 2] and sparse truth."""
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = SparseMatrix.from_dense(qu @ np.diag(rng.uniform(1.0, 2.0, n)) @ qv.T)
    x_true = np.zeros(n)
    x_true[rng.choice(n, nnz, replace=False)] = rng.standard_normal(nnz)
    y = A.matvec(x_true)
    return A, y / np.linalg.norm(y)


def l1_weighted_value(A, y, x, weight):
    r = A.matvec(x) - y
    return float(r @ r + weight * np.abs(x).sum())


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "run"
    config = ExperimentConfig(SWEEP_GEOMETRY, SWEEP_SOLVERS, SWEEP_NOISE,
                              1, 0, str(out), "off")
    t0 = time.perf_counter()
    rows = run_experiment(config)
    elapsed = time.perf_counter() - t0
    parsed = {}
    for row in rows:
        solver, noise, n_star, reason, _, residual, rel_error = row.split(",")
        parsed[(solver, float(noise))] = (int(n_star), reason, float(residual),
                                          float(rel_error))
    return parsed, out, elapsed


def test_criterion_01_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    worst_grad = worst_hess = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        rows = int(rng.integers(10, 61))
        n = int(rng.integers(5, 41))
        A = SparseMatrix.from_dense(rng.standard_normal((rows, n)))
        y = rng.standard_normal(rows)
        alpha = float(rng.uniform(0.01, 1.0))
        spec = TransformSpec(float(rng.uniform(1e-4, 1.0)))
        p = ProblemData(A, y, alpha)
        x = rng.standard_normal(n)
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)

        h = 1e-6
        g_fd = np.empty(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            g_fd[k] = (eval_J(p, x + e, spec) - eval_J(p, x - e, spec)) / (2 * h)
        g = grad_J(p, x, spec)
        worst_grad = max(worst_grad, np.linalg.norm(g_fd - g) / np.linalg.norm(g))

        h = 1e-5
        h_fd = (grad_J(p, x + h * w, spec) - grad_J(p, x - h * w, spec)) / (2 * h)
        hw = hessian_operator(p, x, spec)(w)
        worst_hess = max(worst_hess, np.linalg.norm(h_fd - hw) / np.linalg.norm(hw))
    elapsed = time.perf_counter() - t0
    print(f"\ngrad rel {worst_grad:.3e} (<= 1e-5), hessian rel {worst_hess:.3e}"
          f" (<= 1e-4), {elapsed:.2f}s (< 10s)")
    assert worst_grad <= 1e-5
    assert worst_hess <= 1e-4
    assert elapsed < 10.0


def test_criterion_02_smoothing_bounds_hold():
    rng = np.random.default_rng(0)
    violations = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        eps = float(10.0 ** rng.uniform(-6, 1))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        spec = TransformSpec(eps)
        nx = float(np.linalg.norm(x))
        if np.linalg.norm(apply_N(x) - apply_N_eps(spec, x)) \
                > (7.0 / 3.0) * eps * nx * (1 + 1e-15):
            violations += 1
        if np.linalg.norm(apply_N_eps(spec, x)) \
                > nx * np.sqrt(16.0 * eps**2 / 9.0 + 2.0 * nx**2) * (1 + 1e-15):
            violations += 1
    elapsed = time.perf_counter() - t0
    print(f"\n{violations} violations on 1000 draws (need 0), {elapsed:.2f}s (< 5s)")
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_03_smoothness_at_the_knots():
    # the second derivative is measured as a central difference of the closed
    # form first derivative: differencing values twice loses ~eps^2/h^2 ulps
    # to cancellation, far above the 1e-6 target for any workable h
    rng = np.random.default_rng(0)
    worst_d1 = worst_d2 = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.5, 5.0))
        spec = TransformSpec(eps)
        h = 1e-6 * max(1.0, eps)
        knots = np.array([eps, -eps])
        fd1 = (apply_N_eps(spec, knots + h) - apply_N_eps(spec, knots - h)) / (2 * h)
        d1 = gradient_diag(spec, knots)
        worst_d1 = max(worst_d1, np.max(np.abs(fd1 - d1) / np.abs(d1)))
        fd2 = (gradient_diag(spec, knots + h) - gradient_diag(spec, knots - h)) / (2 * h)
        d2 = hessian_diag(spec, knots, np.ones(2))
        worst_d2 = max(worst_d2, np.max(np.abs(fd2 - d2) / np.abs(d2)))
    print(f"\nd1 rel {worst_d1:.3e}, d2 rel {worst_d2:.3e} (both <= 1e-6)")
    assert worst_d1 <= 1e-6
    assert worst_d2 <= 1e-6


def test_criterion_04_ista_fixed_point_and_fista_agreement():
    rng = np.random.default_rng(0)
    alpha = 0.02
    worst_fp = worst_gap = 0.0
    for _ in range(10):
        A, y = conditioned_instance(rng)
        p = ProblemData(A, y, alpha)
        x, trace = run_ista(p, SolverConfig(max_iter=200000), 0.0)
        assert trace.stop_reason == "stagnation"

        omega = 0.9 / A.norm2_estimate() ** 2
        step = soft_threshold(x - omega * A.transpose_matvec(A.matvec(x) - y),
                              alpha * omega)
        worst_fp = max(worst_fp, float(np.linalg.norm(x - step)))

        # the update's fixed points minimize ||Ax-y||^2 + 2 alpha ||x||_1,
        # so that is the value FISTA must reach
        target = l1_weighted_value(A, y, x, 2.0 * alpha)
        iterates = []
        run_fista(p, SolverConfig(max_iter=trace.n_star), 0.0,
                  callback=lambda n, v: iterates.append(v.copy()))
        best = min(l1_weighted_value(A, y, v, 2.0 * alpha) for v in iterates)
        worst_gap = max(worst_gap, abs(best - target) / target)
    print(f"\nfixed-point residual {worst_fp:.3e} (<= 1e-8), "
          f"FISTA value gap {worst_gap:.3e} (<= 1e-6)")
    assert worst_fp <= 1e-8
    assert worst_gap <= 1e-6


def test_criterion_05_back_transformed_newton_matches_ista():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        A, y = conditioned_instance(rng)
        x_ista, _ = run_ista(ProblemData(A, y, 0.02),
                             SolverConfig(max_iter=200000), 0.0)
        # the quadratic penalty counts each |x_k| once where the shrinkage
        # update absorbs a factor two, hence the doubled weight here
        eps = 1e-6 * float(np.linalg.norm(y))
        cfg = SolverConfig(epsilon=eps, warm_start=25, max_iter=200,
                           grad_tol=1e-12, inner_tol=1e-12)
        xt, _ = run_newton(ProblemData(A, y, 0.04), cfg, 0.0)
        x_newton = back_transform(xt, TransformSpec(eps))
        rel = np.linalg.norm(x_newton - x_ista) / np.linalg.norm(x_ista)
        worst = max(worst, float(rel))
    print(f"\nworst rel distance {worst:.3e} (<= 1e-3)")
    assert worst <= 1e-3


def test_criterion_06_newton_error_ratios_shrink():
    rng = np.random.default_rng(0)
    A, y = conditioned_instance(rng)
    p = ProblemData(A, y, 0.04)
    base = dict(epsilon=1e-3, warm_start=25, inner_tol=1e-14, max_iter=200)
    x_ref, ref = run_newton(p, SolverConfig(grad_tol=0.0, **base), 0.0)
    # one dense Newton step takes the reference past the tested run's last iterate
    hess = hessian_operator(p, x_ref, ref.spec)
    H = np.column_stack([hess(e) for e in np.eye(x_ref.size)])
    x_ref = x_ref + np.linalg.solve(H, -grad_J(p, x_ref, ref.spec))

    iterates = []
    run_newton(p, SolverConfig(grad_tol=1e-7, **base), 0.0,
               callback=lambda n, v: iterates.append(v.copy()))
    errors = [float(np.linalg.norm(v - x_ref)) for v in iterates]
    ratios = [b / a for a, b in zip(errors, errors[1:]) if a > 0.0]
    last3 = ratios[-3:]
    print("\nerror ratios " + " ".join(f"{r:.3e}" for r in ratios))
    assert len(last3) == 3
    assert last3[0] > last3[1] > last3[2]


def test_criterion_07_second_order_methods_need_fewer_iterations(sweep):
    parsed, _, elapsed = sweep
    print(f"\nsweep took {elapsed:.1f}s (< 120s)")
    for noise in SWEEP_NOISE:
        ista_n = parsed[("ista", noise)][0]
        fista_n = parsed[("fista", noise)][0]
        lm_n, lm_reason = parsed[("lm", noise)][:2]
        newton_n, newton_reason = parsed[("newton", noise)][:2]
        print(f"noise {noise:g}: ista {ista_n}, fista {fista_n}, "
              f"lm {lm_n} ({lm_reason}), newton {newton_n} ({newton_reason})")
        assert lm_reason == "discrepancy" and lm_n <= 25
        assert newton_reason == "discrepancy" and newton_n <= 25
        assert ista_n >= 5 * lm_n
        assert fista_n < ista_n
    assert elapsed < 120.0


def test_criterion_08_reconstruction_error_parity(sweep):
    parsed, _, _ = sweep
    first_order = min(parsed[(s, 0.1)][3] for s in ("ista", "fista", "gd"))
    newton_err = parsed[("newton", 0.1)][3]
    lm_err = parsed[("lm", 0.1)][3]
    print(f"\nrel errors at 10% noise: best first-order {first_order:.4f}, "
          f"newton {newton_err:.4f}, lm {lm_err:.4f} (<= best + 0.02)")
    assert newton_err <= first_order + 0.02
    assert lm_err <= first_order + 0.02


def test_criterion_09_benchmark_matrix_shape():
    A = build_parallel_tomo(TomoGeometry(50, 180, 70))
    print(f"\nmatrix {A.n_rows} x {A.n_cols}, {A.nnz} nonzeros")
    assert (A.n_rows, A.n_cols) == (12600, 2500)


def test_criterion_10_sweeps_are_byte_reproducible(sweep, tmp_path):
    _, first_out, _ = sweep
    out = tmp_path / "again"
    run_experiment(ExperimentConfig(SWEEP_GEOMETRY, SWEEP_SOLVERS, SWEEP_NOISE,
                                    1, 0, str(out), "off"))
    assert (out / "summary.csv").read_bytes() \
        == (first_out / "summary.csv").read_bytes()
    traces = sorted(p.name for p in first_out.glob("trace_*.csv"))
    assert traces == sorted(p.name for p in out.glob("trace_*.csv"))
    for name in traces:
        assert (out / name).read_bytes() == (first_out / name).read_bytes()
    print(f"\nsummary and {len(traces)} trace files byte-identical")
