"""Fast built-in oracle battery behind ``sparsenewton verify``.

Each check recomputes a property against an independent reference (dense
linear algebra, closed forms, analytic bounds) and reports one line.  The
full battery runs in well under a second.
"""

from __future__ import annotations

import numpy as np

from .functionals import (ProblemData, TransformSpec, apply_N, apply_N_eps, eval_J, grad_J,
                          gradient_diag, hessian_diag, hessian_operator)
from .linalg import SparseMatrix, cg_solve
from .solvers import SolverConfig, run_ista, soft_threshold
from .tomo import TomoGeometry, build_parallel_tomo, shepp_logan


def _random_problem(rng, n_rows, n_cols, alpha=0.5):
    A = SparseMatrix.from_dense(rng.standard_normal((n_rows, n_cols)))
    return ProblemData(A, rng.standard_normal(n_rows), alpha)


def check_adjoint(rng):
    A = SparseMatrix.from_dense(rng.standard_normal((40, 25)))
    x = rng.standard_normal(25)
    y = rng.standard_normal(40)
    lhs = float(A.matvec(x) @ y)
    rhs = float(x @ A.transpose_matvec(y))
    err = abs(lhs - rhs) / max(1.0, abs(lhs))
    return err <= 1e-12, f"adjoint identity rel err {err:.2e}"

def check_cg(rng):
    B = rng.standard_normal((30, 30))
    M = B @ B.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    result = cg_solve(lambda v: M @ v, b, tol=1e-12)
    err = np.linalg.norm(result.x - np.linalg.solve(M, b)) / np.linalg.norm(b)
    return result.converged and err <= 1e-8, f"CG vs dense solve rel err {err:.2e}"

def check_knots(rng):
    worst = 0.0
    for eps in (1e-3, 0.7, 11.0):
        spec = TransformSpec(eps)
        knots = np.array([eps, -eps])
        just_out = np.nextafter(knots, np.copysign(np.inf, knots))
        for f in (apply_N_eps, gradient_diag, lambda s, t: hessian_diag(s, t, np.ones(2))):
            a, b = f(spec, knots), f(spec, just_out)
            worst = max(worst, np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
    return worst <= 1e-9, f"branch mismatch at knots {worst:.2e}"

def check_approx_bound(rng):
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-4, 0))
        x = rng.standard_normal(rng.integers(1, 30)) * 10.0 ** rng.uniform(-2, 2)
        gap = np.linalg.norm(apply_N(x) - apply_N_eps(TransformSpec(eps), x))
        if gap > (7.0 / 3.0) * eps * np.linalg.norm(x) * (1 + 1e-12):
            return False, "approximation bound violated"
    return True, "||N - N_eps|| <= 7/3 eps ||x|| on 200 draws"

def check_norm_bound(rng):
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-4, 0))
        x = rng.standard_normal(rng.integers(1, 30)) * 10.0 ** rng.uniform(-2, 2)
        nx = float(np.linalg.norm(x))
        lhs = np.linalg.norm(apply_N_eps(TransformSpec(eps), x))
        rhs = nx * np.sqrt(16.0 * eps * eps / 9.0 + 2.0 * nx * nx)
        if lhs > rhs * (1 + 1e-12):
            return False, "norm bound violated"
    return True, "||N_eps(x)|| bound on 200 draws"

def check_gradient(rng):
    p = _random_problem(rng, 15, 12)
    spec = TransformSpec(0.05)
    x = rng.standard_normal(12)
    e = rng.standard_normal(12)
    e /= np.linalg.norm(e)
    h = 1e-6
    fd = (eval_J(p, x + h * e, spec) - eval_J(p, x - h * e, spec)) / (2 * h)
    ip = float(grad_J(p, x, spec) @ e)
    err = abs(fd - ip) / max(abs(fd), abs(ip))
    return err <= 1e-5, f"gradient FD rel err {err:.2e}"

def check_hessian(rng):
    p = _random_problem(rng, 15, 12)
    spec = TransformSpec(0.05)
    x = rng.standard_normal(12)
    w = rng.standard_normal(12)
    h = 1e-5
    fd = (grad_J(p, x + h * w, spec) - grad_J(p, x - h * w, spec)) / (2 * h)
    hw = hessian_operator(p, x, spec)(w)
    err = np.linalg.norm(fd - hw) / np.linalg.norm(hw)
    return err <= 1e-4, f"Hessian FD rel err {err:.2e}"

def check_ista_identity(rng):
    y = np.array([2.0, 0.1, -1.5, 0.4])
    p = ProblemData(SparseMatrix.from_dense(np.eye(4)), y, 1.0)
    cfg = SolverConfig(omega=1.0, max_iter=50)
    x, trace = run_ista(p, cfg, delta=0.0)
    expected = soft_threshold(y, 1.0)
    ok = np.allclose(x, expected, atol=1e-14) and trace.stop_reason == "stagnation"
    return ok, "identity-operator fixed point S_1(y)"

def check_phantom(rng):
    img = shepp_logan(51)
    center = img[25 * 51 + 25]
    corner = img[0]
    ok = abs(center - 1.02) <= 1e-12 and corner == 0.0
    return ok, f"phantom center {center:.4f}, corner {corner:.1f}"

def check_row_sums(rng):
    A = build_parallel_tomo(TomoGeometry(16, 10, 9))
    row_sums = np.add.reduceat(A.values, A.row_offsets[:-1])[np.diff(A.row_offsets) > 0]
    ok = A.values.max() <= np.sqrt(2.0) + 1e-12 and row_sums.max() <= 16 * np.sqrt(2.0) + 1e-9
    return ok, f"max entry {A.values.max():.4f}, max row sum {row_sums.max():.4f}"


_CHECKS = [
    ("adjoint", check_adjoint),
    ("cg-vs-dense", check_cg),
    ("smoothing-knots", check_knots),
    ("approximation-bound", check_approx_bound),
    ("norm-bound", check_norm_bound),
    ("gradient-fd", check_gradient),
    ("hessian-fd", check_hessian),
    ("ista-fixed-point", check_ista_identity),
    ("phantom-values", check_phantom),
    ("projection-bounds", check_row_sums),
]


def run_all(seed: int = 0) -> bool:
    ok_all = True
    for name, fn in _CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = fn(rng)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all = ok_all and ok
    return ok_all
