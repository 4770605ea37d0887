"""Iterative solvers for the l1-Tikhonov problem and its smooth substitution.

ISTA and FISTA iterate on the original variable; gradient descent,
Levenberg-Marquardt and Newton iterate on the substituted variable x~ and
their reconstructions are read off through back_transform.

Each method is a step function; one driver, ``_iterate``, runs all of them
and owns what they share:

* the discrepancy principle ||residual|| <= tau * delta is checked at the
  initial point and after every step (boundary inclusive);
* stop reasons are "discrepancy", "max_iter" or "stagnation" (the latter also
  covers gradient-tolerance exits and failed line searches);
* traces carry one row per iterate, starting with the initial point, and the
  TransformSpec the run iterated with (None on the original variable).

Note on constants: the ISTA/FISTA update is
x_{k+1} = S_{alpha omega}(x_k - omega A^T(A x_k - y)), whose fixed points
minimize ||A x - y||^2 + 2 alpha ||x||_1.  The gradient step omega absorbs
the factor 2 of d/dx ||A x - y||^2; the shrinkage weight is alpha * omega as
written.  When comparing against the substituted functional at weight a, run
ISTA with alpha = a / 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .functionals import ProblemData, back_transform, eval_J, eval_T, grad_J, hessian_operator
from .linalg import CurvatureError, as_vector, cg_solve
from .transform import TransformSpec, apply_N_inverse, gradient_diag

STAGNATION_RTOL = 1e-14
STAGNATION_WINDOW = 10
MAX_BACKTRACKS = 60

STOP_DISCREPANCY = "discrepancy"
STOP_MAX_ITER = "max_iter"
STOP_STAGNATION = "stagnation"

FISTA_VARIANTS = ("nesterov-t", "beta")  # the first is the default


class DivergenceError(RuntimeError):
    pass


@dataclass
class ArmijoRule:
    """Backtracking parameters: accept t = t_init * shrink^m."""

    t_init: float = 1.0
    shrink: float = 0.5
    slope: float = 1e-4

    def __post_init__(self):
        if self.t_init <= 0.0:
            raise ValueError("armijo t_init must be > 0")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("armijo shrink must lie in (0, 1)")
        if not 0.0 < self.slope < 1.0:
            raise ValueError("armijo slope must lie in (0, 1)")


@dataclass
class SolverConfig:
    """Knobs shared by all runners; unknown to a given method = ignored by it.

    The field defaults are the common defaults of the solver knobs; the
    per-method ones are in SOLVER_KNOBS.  alpha overrides the ProblemData
    weight when set.  epsilon semantics: None picks the method's default from
    SOLVER_KNOBS; "auto" resolves to 1e-4 * delta, falling back to
    1e-8 * ||y_delta|| when delta == 0.  omega "auto" is 0.9 / ||A||_2^2 with
    the norm estimated by 100 power iterations.  lm_alpha0 None or "auto"
    resolves to delta, giving the shift schedule alpha_n = delta * lm_decay^n.
    """

    alpha: Optional[float] = None
    epsilon: object = None
    tau: float = 1.1
    omega: object = "auto"
    beta: float = 3.0
    armijo: ArmijoRule = field(default_factory=ArmijoRule)
    lm_alpha0: object = None
    lm_decay: float = 0.6
    lm_floor: float = 1e-14
    max_iter: int = 1000
    inner_tol: float = 1e-10
    grad_tol: float = 0.0
    x0: Optional[np.ndarray] = None
    warm_start: int = 0

    def __post_init__(self):
        if self.alpha is not None and self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        if self.tau <= 1.0:
            raise ValueError("tau must exceed 1")
        if self.beta < 3.0:
            raise ValueError("beta must be >= 3")
        if self.lm_alpha0 not in (None, "auto") and self.lm_alpha0 < 0.0:
            raise ValueError("lm_alpha0 must be >= 0")
        if not 0.0 < self.lm_decay < 1.0:
            raise ValueError("lm_decay must lie in (0, 1)")
        if self.lm_floor <= 0.0:
            raise ValueError("lm_floor must be > 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.inner_tol < 0.0 or self.grad_tol < 0.0:
            raise ValueError("tolerances must be >= 0")
        if self.warm_start < 0:
            raise ValueError("warm_start must be >= 0")
        if self.omega != "auto" and (not np.isreal(self.omega) or self.omega <= 0.0):
            raise ValueError('omega must be "auto" or a positive real')


@dataclass
class IterationTrace:
    """Per-iterate history plus the stopping verdict.

    spec is the transform the run iterated with, so N_eps(x) of the returned
    x is the reconstruction; None for methods on the original variable.
    """

    iterations: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    functionals: list = field(default_factory=list)
    rel_errors: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    stop_reason: str = ""
    n_star: int = 0
    spec: Optional[TransformSpec] = None


def soft_threshold(x, threshold: float) -> np.ndarray:
    """Componentwise shrinkage sign(x) max(|x| - threshold, 0)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def check_discrepancy(residual_norm: float, tau: float, delta: float) -> bool:
    """True when ||residual|| <= tau * delta (boundary inclusive)."""
    return residual_norm <= tau * delta


def _effective_problem(p: ProblemData, cfg: SolverConfig) -> ProblemData:
    if cfg.alpha is None or cfg.alpha == p.alpha:
        return p
    return ProblemData(p.A, p.y_delta, cfg.alpha)


def _resolve_omega(A, cfg: SolverConfig) -> float:
    if cfg.omega == "auto":
        sigma = A.norm2_estimate()
        return 0.9 / max(sigma * sigma, np.finfo(float).tiny)
    return float(cfg.omega)


def resolve_epsilon(cfg: SolverConfig, delta: float, y_delta, default) -> float:
    eps = cfg.epsilon
    if eps is None:
        eps = default
    if eps == "auto":
        if delta > 0.0:
            return 1e-4 * delta
        return 1e-8 * float(np.linalg.norm(y_delta))
    eps = float(eps)
    if eps < 0.0:
        raise ValueError("epsilon must be >= 0")
    return eps


def _transform_spec(cfg: SolverConfig, delta: float, y_delta, method: str) -> TransformSpec:
    default = SOLVER_KNOBS["epsilon"][1][method]
    return TransformSpec(resolve_epsilon(cfg, delta, y_delta, default))


def _lm_alpha0(cfg: SolverConfig, delta: float) -> float:
    return delta if cfg.lm_alpha0 in (None, "auto") else float(cfg.lm_alpha0)


def _initial_point(p: ProblemData, cfg: SolverConfig, delta: float,
                   transformed: bool) -> np.ndarray:
    """x0 from the config, else warm_start FISTA iterations, else zeros."""
    if cfg.x0 is not None:
        x0 = as_vector(cfg.x0).copy()
        if x0.size != p.A.n_cols:
            raise ValueError(f"x0 has length {x0.size} but A has {p.A.n_cols} columns")
        return x0
    if cfg.warm_start > 0:
        warm_cfg = replace(cfg, warm_start=0, max_iter=cfg.warm_start, x0=None)
        xw, _ = run_fista(p, warm_cfg, delta)
        return apply_N_inverse(xw) if transformed else xw
    return np.zeros(p.A.n_cols)


def _check_finite(x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise DivergenceError("divergence; reduce omega")


@dataclass
class _Point:
    """An iterate with its forward image Fx (A x, or A N_eps(x~) on the
    substituted variable) and its functional value f (T, or J_eps)."""

    x: np.ndarray
    Fx: np.ndarray
    f: float


def _iterate(p: ProblemData, cfg: SolverConfig, delta: float, step, spec, *,
             x_true, callback, timer):
    """The outer loop of every method; returns (x, trace).

    step(n, point) maps the _Point of row n to the next iterate, or to a pair
    (iterate, functional value) when a line search already evaluated it, or
    to None when the method cannot move (stop reason "stagnation").  spec is
    None on the original variable and the transform on the substituted one.
    Wall times count from after the initial point.
    """
    A, y = p.A, p.y_delta
    x = _initial_point(p, cfg, delta, transformed=spec is not None)
    image_of = (lambda v: v) if spec is None else (lambda v: back_transform(v, spec))
    x_true_norm = float(np.linalg.norm(x_true)) if x_true is not None else 0.0
    trace = IterationTrace(spec=spec)
    t0 = timer()

    def record(n, x, f):
        Fx = A.matvec(image_of(x))
        residual = float(np.linalg.norm(Fx - y))
        if f is None:
            f = eval_T(p, x) if spec is None else eval_J(p, x, spec)
        if x_true is None:
            rel = float("nan")
        else:
            err = np.linalg.norm(image_of(x) - x_true)
            rel = float(err / x_true_norm) if x_true_norm > 0 else float(err)
        trace.iterations.append(n)
        trace.residuals.append(residual)
        trace.functionals.append(f)
        trace.rel_errors.append(rel)
        trace.wall_times.append(timer() - t0)
        if callback is not None:
            callback(n, x)
        return _Point(x, Fx, f), check_discrepancy(residual, cfg.tau, delta)

    point, met = record(0, x, None)
    reason = STOP_DISCREPANCY if met else STOP_MAX_ITER
    flat = 0  # consecutive rows with relative functional change < STAGNATION_RTOL
    for n in range(0 if met else cfg.max_iter):
        nxt = step(n, point)
        if nxt is None:
            reason = STOP_STAGNATION
            break
        x, f = nxt if isinstance(nxt, tuple) else (nxt, None)
        _check_finite(x)
        prev_f = point.f
        point, met = record(n + 1, x, f)
        if met:
            reason = STOP_DISCREPANCY
            break
        if abs(prev_f - point.f) < STAGNATION_RTOL * max(1.0, abs(prev_f)):
            flat += 1
        else:
            flat = 0
        if flat >= STAGNATION_WINDOW:
            reason = STOP_STAGNATION
            break
    trace.stop_reason = reason
    trace.n_star = trace.iterations[-1]
    return point.x, trace


def _armijo(p: ProblemData, spec: TransformSpec, point: _Point, direction, slope: float,
            t: float, rule: ArmijoRule):
    """Backtrack from step t along direction until J_eps drops by at least
    rule.slope * t * slope; returns (iterate, J_eps value), or None."""
    for _ in range(MAX_BACKTRACKS + 1):
        candidate = point.x + t * direction
        f_cand = eval_J(p, candidate, spec)
        if f_cand <= point.f + rule.slope * t * slope:
            return candidate, f_cand
        t *= rule.shrink
    return None


def run_ista(p: ProblemData, cfg: SolverConfig, delta: float, *,
             x_true=None, callback=None, timer=time.perf_counter):
    """Iterative soft thresholding on the original variable."""
    p = _effective_problem(p, cfg)
    A, y = p.A, p.y_delta
    omega = _resolve_omega(A, cfg)
    threshold = p.alpha * omega

    def step(n, it):
        return soft_threshold(it.x - omega * A.transpose_matvec(it.Fx - y), threshold)

    return _iterate(p, cfg, delta, step, None, x_true=x_true, callback=callback, timer=timer)


def run_fista(p: ProblemData, cfg: SolverConfig, delta: float, *,
              variant: str = FISTA_VARIANTS[0], x_true=None, callback=None,
              timer=time.perf_counter):
    """Accelerated soft thresholding.

    variant "nesterov-t" uses the t-sequence t_k = (1 + sqrt(1 + 4 t_{k-1}^2))/2
    with weight (t_{k-1} - 1)/t_k; variant "beta" uses (k - 1)/(k + beta - 1).
    """
    if variant not in FISTA_VARIANTS:
        raise ValueError(f'unknown FISTA variant "{variant}"')
    p = _effective_problem(p, cfg)
    A, y = p.A, p.y_delta
    omega = _resolve_omega(A, cfg)
    threshold = p.alpha * omega
    prev = None
    t_prev = 1.0

    def step(n, it):
        nonlocal prev, t_prev
        if prev is None:
            prev = it
        k = n + 1
        if variant == "nesterov-t":
            t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
            momentum = (t_prev - 1.0) / t_k
            t_prev = t_k
        else:
            momentum = (k - 1.0) / (k + cfg.beta - 1.0)
        z = it.x + momentum * (it.x - prev.x)
        Az = it.Fx + momentum * (it.Fx - prev.Fx)  # exact by linearity
        prev = it
        return soft_threshold(z - omega * A.transpose_matvec(Az - y), threshold)

    return _iterate(p, cfg, delta, step, None, x_true=x_true, callback=callback, timer=timer)


def run_gradient_descent(p: ProblemData, cfg: SolverConfig, delta: float, *,
                         x_true=None, callback=None, timer=time.perf_counter):
    """Armijo-damped steepest descent on the substituted functional.

    Runs on J when epsilon == 0 (the default) and on J_eps otherwise.
    """
    p = _effective_problem(p, cfg)
    spec = _transform_spec(cfg, delta, p.y_delta, "gd")

    def step(n, it):
        g = grad_J(p, it.x, spec)
        g_sq = float(g @ g)
        if np.sqrt(g_sq) <= cfg.grad_tol:
            return None
        return _armijo(p, spec, it, -g, -g_sq, cfg.armijo.t_init, cfg.armijo)

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


def _solve_normal_step(A, g_diag, rhs, shift, inner_tol):
    """CG on (G A^T A G + shift I) s = rhs; returns (s, converged)."""

    def op(s):
        return g_diag * A.transpose_matvec(A.matvec(g_diag * s)) + shift * s

    try:
        result = cg_solve(op, rhs, tol=inner_tol)
    except CurvatureError:
        return None, False
    return result.x, result.converged


def run_levenberg_marquardt(p: ProblemData, cfg: SolverConfig, delta: float, *,
                            x_true=None, callback=None, timer=time.perf_counter):
    """Levenberg-Marquardt on F(x~) = y with the schedule alpha_n = alpha_0 q^n.

    Each step solves (G A^T A G + alpha_n I) s = G A^T (y - F(x~)) by CG.  A
    failed inner solve is retried once with the shift doubled; a second
    failure stops with reason "stagnation".  alpha_0 defaults to delta and the
    shift never drops below lm_floor.
    """
    p = _effective_problem(p, cfg)
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y, "lm")
    alpha0 = _lm_alpha0(cfg, delta)

    def step(n, it):
        shift = max(alpha0 * cfg.lm_decay ** n, cfg.lm_floor)
        g_diag = gradient_diag(spec, it.x)
        rhs = g_diag * A.transpose_matvec(y - it.Fx)
        s, ok = _solve_normal_step(A, g_diag, rhs, shift, cfg.inner_tol)
        if not ok:
            s, ok = _solve_normal_step(A, g_diag, rhs, 2.0 * shift, cfg.inner_tol)
        return it.x + s if ok else None

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


def run_newton(p: ProblemData, cfg: SolverConfig, delta: float, *,
               x_true=None, callback=None, timer=time.perf_counter):
    """Damped Newton on J_eps (epsilon > 0 required; "auto" by default).

    The Newton system is solved matrix-free by CG.  On non-positive curvature
    or a failed inner solve the step falls back to shifted systems
    (H + mu I) s = -g with mu doubling from the LM schedule value; persistent
    failure stops with reason "stagnation".  Steps are damped by Armijo
    backtracking with lambda = 1 tried first.
    """
    p = _effective_problem(p, cfg)
    spec = _transform_spec(cfg, delta, p.y_delta, "newton")
    if spec.epsilon <= 0.0:
        raise ValueError("run_newton requires epsilon > 0; use run_gradient_descent for J")
    alpha0 = _lm_alpha0(cfg, delta)

    def step(n, it):
        g = grad_J(p, it.x, spec)
        if float(np.linalg.norm(g)) <= cfg.grad_tol:
            return None
        H = hessian_operator(p, it.x, spec)
        shift = 0.0
        for _ in range(MAX_BACKTRACKS + 1):
            op = H if shift == 0.0 else (lambda w, mu=shift: H(w) + mu * w)
            try:
                result = cg_solve(op, -g, tol=cfg.inner_tol)
            except CurvatureError:
                result = None
            if result is not None and result.converged and float(g @ result.x) < 0.0:
                return _armijo(p, spec, it, result.x, float(g @ result.x), 1.0, cfg.armijo)
            shift = max(alpha0 * cfg.lm_decay ** n, cfg.lm_floor) if shift == 0.0 else 2.0 * shift
        return None

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


RUNNERS = {
    "ista": run_ista,
    "fista": run_fista,
    "gd": run_gradient_descent,
    "lm": run_levenberg_marquardt,
    "newton": run_newton,
}
SOLVER_NAMES = tuple(RUNNERS)


def _float_or_auto(text: str):
    return "auto" if text == "auto" else float(text)


# The solver knobs of a config file: key -> (parser, per-method defaults).
# A key's common default is its SolverConfig field default (ArmijoRule's for
# armijo_*, FISTA_VARIANTS[0] for variant; alpha unset means the sweep's
# "auto" weight).  The methods on the substituted variable cannot move from
# exactly zero (the Jacobian diagonal vanishes there), so they warm start
# from a few FISTA iterations.
SOLVER_KNOBS = {
    "alpha": (_float_or_auto, {}),
    "epsilon": (_float_or_auto, {"gd": 0.0, "lm": 0.0, "newton": "auto"}),
    "tau": (float, {}),
    "omega": (_float_or_auto, {}),
    "beta": (float, {}),
    "max_iter": (int, {"ista": 50000, "fista": 20000, "gd": 2000, "lm": 50, "newton": 50}),
    "inner_tol": (float, {}),
    "grad_tol": (float, {}),
    "warm_start": (int, {"gd": 5, "lm": 5, "newton": 5}),
    "lm_alpha0": (_float_or_auto, {}),
    "lm_decay": (float, {}),
    "lm_floor": (float, {}),
    "armijo_t0": (float, {}),
    "armijo_shrink": (float, {}),
    "armijo_slope": (float, {}),
    "variant": (str, {}),
}
