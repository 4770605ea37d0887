"""Iterative solvers for the l1-Tikhonov problem and its smooth substitution.

ISTA and FISTA iterate on the original variable; gradient descent,
Levenberg-Marquardt and Newton iterate on the substituted variable x~ and
their reconstructions are read off through back_transform.

Each method is a step function; one driver, ``_iterate``, runs all of them
and owns what they share:

* the discrepancy principle ||residual|| <= tau * delta is checked at the
  initial point and after every step (boundary inclusive);
* stop reasons are "discrepancy", "max_iter" or "stagnation" (the latter also
  covers gradient-tolerance exits, failed line searches and trust-region
  steps that no trial radius could take);
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

import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .functionals import ProblemData, back_transform, eval_J, eval_T, grad_J, hessian_operator
from .linalg import CurvatureError, as_vector, cg_solve
from .transform import TransformSpec, apply_N_inverse, gradient_diag

STAGNATION_RTOL = 1e-14
STAGNATION_WINDOW = 10
MAX_BACKTRACKS = 60  # GD's step halvings in one search; Newton's trial radii in one step
ARMIJO_SHRINK = 0.5  # each rejected trial step is multiplied by ARMIJO_SHRINK
ARMIJO_SLOPE = 1e-4  # sufficient-decrease fraction of the directional derivative
BB_STEP_MIN = 1e-12  # GD's Barzilai-Borwein start is clipped to [BB_STEP_MIN, BB_STEP_MAX]
BB_STEP_MAX = 1e12
SHIFT_DECAY = 0.6  # LM's shift alpha_n = max(delta * SHIFT_DECAY^n, SHIFT_FLOOR)
SHIFT_FLOOR = 1e-14
TR_RADIUS_START = 0.1  # Newton's first radius is TR_RADIUS_START * ||x0||
TR_ACCEPT = 1e-4  # a trial step is taken when rho = actual / predicted decrease > TR_ACCEPT
TR_SHRINK = 0.25  # rho < TR_SHRINK: the radius becomes TR_SHRINK * ||s||
TR_EXPAND = 0.75  # rho > TR_EXPAND on the boundary: the radius doubles

_KNOB_WORDS = {"epsilon": (None, "auto"), "omega": ("auto",)}  # accepted besides numbers

STOP_DISCREPANCY = "discrepancy"
STOP_MAX_ITER = "max_iter"
STOP_STAGNATION = "stagnation"


class DivergenceError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    """Knobs shared by all runners; unknown to a given method = ignored by it.

    The field defaults are the common defaults of the solver knobs; the
    per-method ones are in SOLVER_KNOBS.  The regularization weight is
    ProblemData.alpha.  epsilon semantics: None picks the method's default from
    SOLVER_KNOBS; "auto" resolves to 1e-4 * delta (see resolve_auto).  omega
    "auto" is 0.9 / ||A||_2^2 with the norm estimated by 100 power iterations.
    max_iter and warm_start take Python or numpy integers.
    """

    epsilon: object = None
    tau: float = 1.1
    omega: object = "auto"
    max_iter: int = 1000
    inner_tol: float = 1e-10
    grad_tol: float = 0.0
    x0: Optional[np.ndarray] = None
    warm_start: int = 0

    def __post_init__(self):
        for knob in ("epsilon", "tau", "omega", "inner_tol", "grad_tol"):
            value = getattr(self, knob)
            if value in _KNOB_WORDS.get(knob, ()):
                continue
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{knob} must be a number, got {value!r}")
            if not np.isfinite(value):
                raise ValueError(f"{knob} must be finite, got {value!r}")
        for knob in ("max_iter", "warm_start"):
            value = getattr(self, knob)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{knob} must be an integer, got {value!r}")
        if self.epsilon not in (None, "auto") and self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.tau <= 1.0:
            raise ValueError("tau must exceed 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.inner_tol < 0.0 or self.grad_tol < 0.0:
            raise ValueError("tolerances must be >= 0")
        if self.warm_start < 0:
            raise ValueError("warm_start must be >= 0")
        if self.omega != "auto" and self.omega <= 0.0:
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


def _resolve_omega(A, cfg: SolverConfig) -> float:
    if cfg.omega == "auto":
        sigma = A.norm2_estimate()
        return 0.9 / max(sigma * sigma, np.finfo(float).tiny)
    return float(cfg.omega)


def resolve_auto(value, coeff: float, delta: float, y_delta) -> float:
    """value as a float; "auto" (or None) is coeff * delta, falling back to
    1e-8 * ||y_delta|| when delta == 0."""
    if value not in (None, "auto"):
        return float(value)
    if delta > 0.0:
        return coeff * delta
    return 1e-8 * float(np.linalg.norm(y_delta))


def resolve_epsilon(cfg: SolverConfig, delta: float, y_delta, default) -> float:
    """cfg.epsilon, or the method's default when unset; "auto" is 1e-4 * delta."""
    return resolve_auto(default if cfg.epsilon is None else cfg.epsilon, 1e-4, delta, y_delta)


def _transform_spec(cfg: SolverConfig, delta: float, y_delta, method: str) -> TransformSpec:
    default = SOLVER_KNOBS["epsilon"][1][method]
    return TransformSpec(resolve_epsilon(cfg, delta, y_delta, default))


def _shift(n: int, delta: float) -> float:
    """LM's shift at step n."""
    return max(delta * SHIFT_DECAY ** n, SHIFT_FLOOR)


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
    """An iterate with its image (x, or N_eps(x~) on the substituted
    variable), its forward image Fx = A image and its functional value f (T,
    or J_eps)."""

    x: np.ndarray
    image: np.ndarray
    Fx: np.ndarray
    f: float


def _evaluate(p: ProblemData, spec, x) -> _Point:
    """x with its image, forward image and functional value: T when spec is
    None, J_eps otherwise."""
    image = back_transform(x, spec)
    Fx = p.A.matvec(image)
    return _Point(x, image, Fx, eval_T(p, x, Fx) if spec is None else eval_J(p, x, spec, Fx))


def _iterate(p: ProblemData, cfg: SolverConfig, delta: float, step, spec, *,
             x_true, callback, timer):
    """The outer loop of every method; returns (x, trace).

    step(n, point) maps the _Point of row n to the next iterate, or to its
    _Point when a line search or a trust-region trial already evaluated it,
    or to None when the method cannot move (stop reason "stagnation").  spec
    is None on the original variable and the transform on the substituted
    one.  Each row is evaluated once, by _evaluate, here or in the step.
    Wall times count from before the initial point, so row 0's includes the
    warm start.
    """
    y = p.y_delta
    t0 = timer()
    x = _initial_point(p, cfg, delta, transformed=spec is not None)
    x_true_norm = float(np.linalg.norm(x_true)) if x_true is not None else 0.0
    trace = IterationTrace(spec=spec)

    def record(n, nxt):
        point = nxt if isinstance(nxt, _Point) else _evaluate(p, spec, nxt)
        residual = float(np.linalg.norm(point.Fx - y))
        if x_true is None:
            rel = float("nan")
        else:
            err = np.linalg.norm(point.image - x_true)
            rel = float(err / x_true_norm) if x_true_norm > 0 else float(err)
        trace.iterations.append(n)
        trace.residuals.append(residual)
        trace.functionals.append(point.f)
        trace.rel_errors.append(rel)
        trace.wall_times.append(timer() - t0)
        if callback is not None:
            callback(n, point.x)
        return point, check_discrepancy(residual, cfg.tau, delta)

    point, met = record(0, x)
    if not met and spec is not None and spec.epsilon == 0.0 and not point.x.any():
        raise ValueError("no step leaves x = 0 at epsilon = 0, where the Jacobian 2|x| "
                         "vanishes; use warm_start > 0, a nonzero x0 or epsilon > 0")
    reason = STOP_DISCREPANCY if met else STOP_MAX_ITER
    flat = 0  # consecutive rows with relative functional change < STAGNATION_RTOL
    for n in range(0 if met else cfg.max_iter):
        nxt = step(n, point)
        if nxt is None:
            reason = STOP_STAGNATION
            break
        _check_finite(nxt.x if isinstance(nxt, _Point) else nxt)
        prev_f = point.f
        point, met = record(n + 1, nxt)
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
            t: float):
    """GD's line search: backtrack from step t along direction, multiplying it
    by ARMIJO_SHRINK, until J_eps drops by at least ARMIJO_SLOPE * t * slope;
    returns the accepted _Point, or None once t would fall below
    ARMIJO_SHRINK^MAX_BACKTRACKS.  The search is monotone: an accepted point
    always lies below the current one.
    """
    while t >= ARMIJO_SHRINK ** MAX_BACKTRACKS:
        candidate = _evaluate(p, spec, point.x + t * direction)
        if candidate.f <= point.f + ARMIJO_SLOPE * t * slope:
            return candidate
        t *= ARMIJO_SHRINK
    return None


def run_ista(p: ProblemData, cfg: SolverConfig, delta: float, *,
             x_true=None, callback=None, timer=time.perf_counter):
    """Iterative soft thresholding on the original variable."""
    A, y = p.A, p.y_delta

    def step(n, it):
        omega = _resolve_omega(A, cfg)  # in the step, so wall_s covers the power method
        return soft_threshold(it.x - omega * A.transpose_matvec(it.Fx - y), p.alpha * omega)

    return _iterate(p, cfg, delta, step, None, x_true=x_true, callback=callback, timer=timer)


def run_fista(p: ProblemData, cfg: SolverConfig, delta: float, *,
              x_true=None, callback=None, timer=time.perf_counter):
    """Accelerated soft thresholding with Beck and Teboulle's t-sequence
    t_k = (1 + sqrt(1 + 4 t_{k-1}^2))/2 and momentum weight (t_{k-1} - 1)/t_k.
    """
    A, y = p.A, p.y_delta
    prev = None
    t_prev = 1.0

    def step(n, it):
        nonlocal prev, t_prev
        omega = _resolve_omega(A, cfg)  # in the step, as in run_ista
        if prev is None:
            prev = it
        t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = (t_prev - 1.0) / t_k
        t_prev = t_k
        z = it.x + momentum * (it.x - prev.x)
        Az = it.Fx + momentum * (it.Fx - prev.Fx)  # exact by linearity
        prev = it
        return soft_threshold(z - omega * A.transpose_matvec(Az - y), p.alpha * omega)

    return _iterate(p, cfg, delta, step, None, x_true=x_true, callback=callback, timer=timer)


def _bb_step(s, y) -> float:
    """Barzilai and Borwein's long step s^T s / s^T y for the step s = x_k -
    x_{k-1} and gradient change y = g_k - g_{k-1}, clipped to [BB_STEP_MIN,
    BB_STEP_MAX]; 1 when s^T y <= 0, where the curvature seen gives no step.
    """
    sy = float(s @ y)
    if sy <= 0.0:
        return 1.0
    return min(max(float(s @ s) / sy, BB_STEP_MIN), BB_STEP_MAX)


def run_gradient_descent(p: ProblemData, cfg: SolverConfig, delta: float, *,
                         x_true=None, callback=None, timer=time.perf_counter):
    """Armijo-damped steepest descent on the substituted functional.

    Runs on J when epsilon == 0 (the default) and on J_eps otherwise.  The
    first Armijo search starts at the step 1, every later one at the
    Barzilai-Borwein step _bb_step of the last step and gradient change
    (Barzilai and Borwein, IMA J. Numer. Anal. 1988; Raydan, SIAM J. Optim.
    1997), which follows the curvature the iterates have seen.  The search
    stays monotone, so J_eps falls on every step.
    """
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y, "gd")
    prev = None  # the last step's (x, gradient)

    def step(n, it):
        nonlocal prev
        g = grad_J(p, it.x, spec, atr=A.transpose_matvec(it.Fx - y))
        g_sq = float(g @ g)
        if np.sqrt(g_sq) <= cfg.grad_tol:
            return None
        t = 1.0 if prev is None else _bb_step(it.x - prev[0], g - prev[1])
        prev = (it.x, g)
        return _armijo(p, spec, it, -g, -g_sq, t)

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


def run_levenberg_marquardt(p: ProblemData, cfg: SolverConfig, delta: float, *,
                            x_true=None, callback=None, timer=time.perf_counter):
    """Levenberg-Marquardt on F(x~) = y with the fixed shift schedule
    alpha_n = max(delta * 0.6^n, 1e-14).

    Each step solves (G A^T A G + alpha_n I) s = G A^T (y - F(x~)) by CG
    until the CG residual is at most inner_tol times the norm of the right-hand
    side; sweeps default to inner_tol = 1e-2, a truncated solve in the spirit
    of Rieder's REGINN, and the SolverConfig default 1e-10 solves almost
    exactly.  A failed inner solve stops with reason "stagnation".
    """
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y, "lm")

    def step(n, it):
        g_diag = gradient_diag(spec, it.x)
        rhs = g_diag * A.transpose_matvec(y - it.Fx)

        def normal(w):  # G A^T A G w
            return g_diag * A.transpose_matvec(A.matvec(g_diag * w))

        mu = _shift(n, delta)
        try:
            result = cg_solve(lambda w: normal(w) + mu * w, rhs, tol=cfg.inner_tol)
        except CurvatureError:
            return None
        return it.x + result.x if result.converged else None

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


def run_newton(p: ProblemData, cfg: SolverConfig, delta: float, *,
               x_true=None, callback=None, timer=time.perf_counter):
    """Trust-region Newton-CG on J_eps (epsilon > 0 required; "auto" by default).

    Each trial step s minimizes the quadratic model q(s) = g^T s + s^T H s / 2
    of J_eps inside the ball ||s|| <= Delta by Steihaug's truncated CG
    (cg_solve with a radius): it stops at the inexact Newton condition
    ||H s + g|| <= inner_tol ||g|| (Dembo, Eisenstat and Steihaug), or on the
    boundary when it meets non-positive curvature or leaves the ball.  Sweeps
    default to the constant forcing term inner_tol = 0.2; the SolverConfig
    default 1e-10 solves almost exactly.

    rho = (J_eps(x) - J_eps(x + s)) / -q(s) rules the radius (Nocedal and
    Wright, Algorithm 4.1): the step is taken when rho > TR_ACCEPT; Delta
    becomes ||s|| / 4 when rho < 1/4 and doubles when rho > 3/4 on the
    boundary, and a rejected step is solved again in the smaller ball.  Delta
    starts at TR_RADIUS_START * ||x0||, or at the Cauchy length
    ||g||^3 / g^T H g when x0 = 0, and carries over from step to step.  A step
    that MAX_BACKTRACKS trials cannot take, or whose predicted decrease is
    below the rounding unit of J_eps, stops with reason "stagnation".  J_eps
    falls on every step.
    """
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y, "newton")
    if spec.epsilon <= 0.0:
        raise ValueError("run_newton requires epsilon > 0; use run_gradient_descent for J")
    radius = None  # Delta, set on the first step

    def step(n, it):
        nonlocal radius
        atr = A.transpose_matvec(it.Fx - y)  # shared by the gradient and the Hessian
        g = grad_J(p, it.x, spec, atr=atr)
        g_norm = float(np.linalg.norm(g))
        if g_norm <= cfg.grad_tol:
            return None
        H = hessian_operator(p, it.x, spec, atr=atr)
        if radius is None:
            x_norm = float(np.linalg.norm(it.x))
            # at x = 0, g^T H g > 0: H = 2 eps^2 A^T A + 2 alpha I there and g lies in range(A^T)
            radius = TR_RADIUS_START * x_norm if x_norm > 0.0 else g_norm ** 3 / float(g @ H(g))
        for _ in range(MAX_BACKTRACKS):
            trial = cg_solve(H, -g, tol=cfg.inner_tol, radius=radius)
            predicted = -trial.model
            if predicted <= np.finfo(float).eps * abs(it.f):
                return None  # J_eps cannot show a decrease below its rounding unit
            candidate = _evaluate(p, spec, it.x + trial.x)
            rho = (it.f - candidate.f) / predicted
            if rho < TR_SHRINK:
                radius = TR_SHRINK * float(np.linalg.norm(trial.x))
            elif rho > TR_EXPAND and trial.on_boundary:
                radius *= 2.0
            if rho > TR_ACCEPT:
                return candidate
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
# A key's common default is its SolverConfig field default, except alpha,
# which is no SolverConfig field: it becomes ProblemData.alpha, and unset it
# means the sweep's "auto" weight.  The methods on the substituted variable
# cannot move from exactly zero (the Jacobian diagonal vanishes there), so
# they warm start from a few FISTA iterations.  LM and Newton solve their
# inner systems loosely: at m=64 and 1% noise the near-exact 1e-10 solves cost
# Newton about 2.6 times (940 against 360 over five cells) and LM about 9 times
# the operator products, for no smaller error.
SOLVER_KNOBS = {
    "alpha": (_float_or_auto, {}),
    "epsilon": (_float_or_auto, {"gd": 0.0, "lm": 0.0, "newton": "auto"}),
    "tau": (float, {}),
    "omega": (_float_or_auto, {}),
    "max_iter": (int, {"ista": 50000, "fista": 20000, "gd": 2000, "lm": 50, "newton": 50}),
    "inner_tol": (float, {"lm": 1e-2, "newton": 0.2}),
    "grad_tol": (float, {}),
    "warm_start": (int, {"gd": 5, "lm": 5, "newton": 5}),
}
