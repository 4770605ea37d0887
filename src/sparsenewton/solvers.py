"""Iterative solvers for the l1-Tikhonov problem and its smooth substitution.

ISTA and FISTA iterate on the original variable; gradient descent,
Levenberg-Marquardt and Newton iterate on the substituted variable x~ and
their reconstructions are read off through back_transform.

Each method is a step function; one driver, ``_iterate``, runs all of them
and owns what they share:

* the step rule of ISTA and FISTA: an explicit omega at or past
  2 / ||A||_2^2 is refused before the first row;
* the discrepancy principle ||residual|| <= tau * delta is checked at the
  initial point and after every step (boundary inclusive);
* stop reasons are "discrepancy", "max_iter" or "stagnation" (the latter also
  covers gradient-tolerance exits, failed line searches, LM inner solves that
  do not converge and trust-region steps that no trial radius could take);
* traces carry one row per iterate, starting with the initial point, and the
  TransformSpec the run iterated with (None on the original variable);
* every row, the initial point included, is evaluated with numpy's overflow
  and invalid-value warnings off, and a row whose functional value is not
  finite raises DivergenceError.

Note on constants: the ISTA/FISTA update, written once in
_forward_backward, is x_{k+1} = S_{alpha omega}(x_k - omega A^T(A x_k - y)),
whose fixed points minimize ||A x - y||^2 + 2 alpha ||x||_1.  The gradient
step omega absorbs the factor 2 of d/dx ||A x - y||^2; the shrinkage weight
is alpha * omega as written.  When comparing against the substituted
functional at weight a, run ISTA with alpha = a / 2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .functionals import (ProblemData, TransformSpec, apply_N_inverse, back_transform, eval_J,
                          eval_T, grad_J, gradient_diag, hessian_operator)
from .linalg import as_vector, cg_solve, check_number

STAGNATION_RTOL = 1e-14
STAGNATION_WINDOW = 10
MAX_BACKTRACKS = 60  # GD's step halvings in one search; Newton's trial radii in one step
ARMIJO_SHRINK = 0.5  # each rejected trial step is multiplied by ARMIJO_SHRINK
ARMIJO_SLOPE = 1e-4  # sufficient-decrease fraction of the directional derivative
BB_STEP_MIN = 1e-12  # GD's Barzilai-Borwein start is clipped to [BB_STEP_MIN, BB_STEP_MAX]
BB_STEP_MAX = 1e12
SHIFT_DECAY = 0.6  # LM's shift alpha_n = max(delta * SHIFT_DECAY^n, SHIFT_FLOOR,
SHIFT_FLOOR = 1e-14  # SHIFT_RELATIVE_FLOOR * max(g^2 c)), g^2 c = diag(G A^T A G)
SHIFT_RELATIVE_FLOOR = 1e-4
TR_RADIUS_START = 0.1  # Newton's first radius is TR_RADIUS_START * ||x0||
TR_ACCEPT = 1e-4  # a trial step is taken when rho = actual / predicted decrease > TR_ACCEPT
TR_SHRINK = 0.25  # rho < TR_SHRINK: the radius becomes TR_SHRINK * ||s||
TR_EXPAND = 0.75  # rho > TR_EXPAND on the boundary: the radius doubles
ISTA_STEP = 1.7  # omega "auto" = ISTA_STEP / ||A||_2^2; forward-backward converges in (0, 2/L)
FISTA_STEP = 0.9  # omega "auto" = FISTA_STEP / ||A||_2^2; FISTA's rate needs <= 1/L

STOP_DISCREPANCY = "discrepancy"
STOP_MAX_ITER = "max_iter"
STOP_STAGNATION = "stagnation"


class DivergenceError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    """The runners' knobs; each is None, unset, until for_method fills it in.

    The rules live in SOLVER_KNOBS: each knob's type, floor and the methods
    that read it with their defaults.  check_knob applies them to every set
    field but x0 (checked by the runners), and for_method(name) refuses a set
    knob that method name does not read and gives each unset knob it reads
    name's default.  So SolverConfig() runs each method as a sweep cell does;
    inner_tol = 1e-10 solves LM's and Newton's inner systems almost exactly.
    The regularization weight is ProblemData.alpha.  epsilon "auto" resolves
    to 1e-4 * delta (see resolve_auto).  omega "auto" is 1.7 / ||A||_2^2 for
    ISTA (ISTA_STEP) and 0.9 / ||A||_2^2 for FISTA and the warm start
    (FISTA_STEP), with the norm estimated by power iterations run until the
    estimate repeats, at most 100.
    """

    epsilon: object = None
    tau: Optional[float] = None
    omega: object = None
    max_iter: Optional[int] = None
    inner_tol: Optional[float] = None
    grad_tol: Optional[float] = None
    x0: Optional[np.ndarray] = None
    warm_start: Optional[int] = None

    def __post_init__(self):
        for key, value in vars(self).items():
            if key in SOLVER_KNOBS and value is not None:
                check_knob(key, value)

    def for_method(self, name: str) -> SolverConfig:
        """This config with each unset knob at method name's default; raises
        ValueError for a set knob that name does not read (see check_knob)."""
        knobs = {key: value for key, value in vars(self).items() if key in SOLVER_KNOBS}
        for key, value in knobs.items():
            if value is not None:
                check_knob(key, value, name)
        return replace(self, **{key: SOLVER_KNOBS[key][3][name] for key, value in knobs.items()
                                if value is None and name in SOLVER_KNOBS[key][3]})


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


def _lipschitz(A) -> float:
    """L = ||A||_2^2 from A.norm2_estimate(), at least the smallest normal
    float: the Lipschitz constant of the data term's gradient, which ISTA's
    and FISTA's steps are fractions of."""
    sigma = A.norm2_estimate()
    return max(sigma * sigma, np.finfo(float).tiny)


def _resolve_omega(A, cfg: SolverConfig, coeff: float) -> float:
    """cfg.omega as a float; "auto" is coeff / L (_lipschitz)."""
    if cfg.omega == "auto":
        return coeff / _lipschitz(A)
    return float(cfg.omega)


def resolve_auto(value, coeff: float, delta: float, y_delta) -> float:
    """value as a float; "auto" is coeff * delta, falling back to
    1e-8 * ||y_delta|| when delta == 0."""
    check_number("delta", delta, 0)  # before alpha or epsilon is derived from it
    if value != "auto":
        return float(value)
    if delta > 0.0:
        return coeff * delta
    return 1e-8 * float(np.linalg.norm(y_delta))


def _transform_spec(cfg: SolverConfig, delta: float, y_delta) -> TransformSpec:
    """The transform at cfg.epsilon; "auto" is 1e-4 * delta."""
    return TransformSpec(resolve_auto(cfg.epsilon, 1e-4, delta, y_delta))


def _shift(n: int, delta: float) -> float:
    """LM's scheduled shift at step n, before the floor relative to the
    operator."""
    return max(delta * SHIFT_DECAY ** n, SHIFT_FLOOR)


def _initial_point(p: ProblemData, cfg: SolverConfig, delta: float) -> np.ndarray:
    """x0 from the config, else warm_start FISTA iterations mapped through
    apply_N_inverse (only the methods on the substituted variable read
    warm_start), else zeros.

    The FISTA run takes FISTA's defaults but for tau and max_iter = warm_start,
    so its step is the "auto" 0.9 / ||A||_2^2.  It is kept, read-only, in
    p.warm_starts under every input of that run besides A and y_delta: alpha,
    delta, tau and the iteration count.  A later run on the same dict with the
    same inputs reuses it, and the point returned is always a new array.
    """
    if cfg.x0 is not None:
        x0 = as_vector(cfg.x0).copy()
        if x0.size != p.A.n_cols:
            raise ValueError(f"x0 has length {x0.size} but A has {p.A.n_cols} columns")
        return x0
    if cfg.warm_start:
        key = (p.alpha, delta, cfg.tau, cfg.warm_start)
        xw = p.warm_starts.get(key)
        if xw is None:
            xw, _ = run_fista(p, SolverConfig(tau=cfg.tau, max_iter=cfg.warm_start), delta)
            xw.flags.writeable = False
            p.warm_starts[key] = xw
        return apply_N_inverse(xw)
    return np.zeros(p.A.n_cols)


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
    None, J_eps otherwise.  An all-zero image, as at a cold start, gets the
    forward image A 0 = 0 without a product."""
    image = back_transform(x, spec)
    Fx = p.A.matvec(image) if image.any() else np.zeros(p.A.n_rows)
    return _Point(x, image, Fx, eval_T(p, x, Fx) if spec is None else eval_J(p, x, spec, Fx))


def _iterate(p: ProblemData, cfg: SolverConfig, delta: float, step, spec, *,
             x_true, callback, timer):
    """The outer loop of every method; returns (x, trace).

    step(n, point) maps the _Point of row n to a _Point or None: the next
    iterate as _evaluate built it (for GD and Newton, the one their line
    search or trust-region trial accepted), or None when the method cannot
    move (stop reason "stagnation").  spec is None on the original variable
    and the transform on the substituted one.  Each row is evaluated once.
    Wall times count from before the step rule and the initial point, so row
    0's includes the warm start.  The step rule: on the original variable an
    explicit omega at or past 2 / norm2_estimate()^2, where forward-backward
    splitting stops converging (the estimate is never above ||A||_2 up to
    round-off), is refused with ValueError before the first row, and the
    wall times cover the power method behind that check.
    Every row, the initial point included, is evaluated and recorded with
    numpy's overflow and invalid-value warnings off: an overflow gives inf
    or nan, GD's search rejects a trial that has one, and a row whose
    functional value is not finite ends the run with DivergenceError.
    """
    check_number("delta", delta, 0)
    y = p.y_delta
    t0 = timer()
    if spec is None and cfg.omega != "auto":  # GD, LM and Newton have omega None
        bound = 2.0 / _lipschitz(p.A)
        if cfg.omega >= bound:
            raise ValueError(f"omega {cfg.omega!r} is at or past the convergence bound "
                             f"2 / ||A||_2^2 = {bound:.6g} of ISTA and FISTA; reduce omega")
    x_true_norm = float(np.linalg.norm(x_true)) if x_true is not None else 0.0
    trace = IterationTrace(spec=spec)

    def record(n, point):  # appends row n; True when point meets the discrepancy stop
        if not math.isfinite(point.f):  # alpha > 0: f is finite only if x and A x are
            what = f"iterate {n}" if n > 0 else "the initial point"
            # omega is the step of ISTA and FISTA (spec None), and row 0 took no step
            advice = "; reduce omega" if spec is None and n > 0 else ""
            raise DivergenceError(f"divergence: the functional value of {what} is not finite"
                                  + advice)
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
        return check_discrepancy(residual, cfg.tau, delta)

    with np.errstate(over="ignore", invalid="ignore"):
        point = _evaluate(p, spec, _initial_point(p, cfg, delta))
        met = record(0, point)
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
            prev_f, point = point.f, nxt
            if record(n + 1, point):
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


def _forward_backward(p: ProblemData, omega: float, z, Az) -> _Point:
    """The forward-backward step from z, whose forward image is Az = A z: the
    gradient step z - omega A^T (A z - y) on the data term, then shrinkage
    at alpha * omega; one A^T product, plus one A product to evaluate it."""
    x = soft_threshold(z - omega * p.A.transpose_matvec(Az - p.y_delta), p.alpha * omega)
    return _evaluate(p, None, x)


def run_ista(p: ProblemData, cfg: SolverConfig, delta: float, *,
             x_true=None, callback=None, timer=time.perf_counter):
    """Iterative soft thresholding on the original variable: one
    _forward_backward step from each iterate."""
    cfg = cfg.for_method("ista")

    def step(n, it):  # omega in the step, so wall_s covers the power method
        return _forward_backward(p, _resolve_omega(p.A, cfg, ISTA_STEP), it.x, it.Fx)

    return _iterate(p, cfg, delta, step, None, x_true=x_true, callback=callback, timer=timer)


def run_fista(p: ProblemData, cfg: SolverConfig, delta: float, *,
              x_true=None, callback=None, timer=time.perf_counter):
    """Accelerated soft thresholding: one _forward_backward step from the
    extrapolated point, with Beck and Teboulle's t-sequence
    t_k = (1 + sqrt(1 + 4 t_{k-1}^2))/2 and momentum weight (t_{k-1} - 1)/t_k.
    """
    cfg = cfg.for_method("fista")
    prev = None
    t_prev = 1.0

    def step(n, it):
        nonlocal prev, t_prev
        omega = _resolve_omega(p.A, cfg, FISTA_STEP)  # in the step, as in run_ista
        if prev is None:
            prev = it
        t_k = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = (t_prev - 1.0) / t_k
        t_prev = t_k
        z = it.x + momentum * (it.x - prev.x)
        Az = it.Fx + momentum * (it.Fx - prev.Fx)  # exact by linearity
        prev = it
        return _forward_backward(p, omega, z, Az)

    return _iterate(p, cfg, delta, step, None, x_true=x_true, callback=callback, timer=timer)


def _bb_step(s, y) -> float:
    """Barzilai and Borwein's short step s^T y / y^T y for the step s = x_k -
    x_{k-1} and gradient change y = g_k - g_{k-1}, clipped to [BB_STEP_MIN,
    BB_STEP_MAX]; 1 when s^T y <= 0, where the curvature seen gives no step.
    """
    sy = float(s @ y)
    if sy <= 0.0:
        return 1.0
    return min(max(sy / float(y @ y), BB_STEP_MIN), BB_STEP_MAX)


def _cauchy_step(p: ProblemData, spec: TransformSpec, x, g, g_sq: float) -> float:
    """The minimizer t = ||g||^2 / (2 (||A G g||^2 + alpha ||g||^2)) of the
    Gauss-Newton model ||r - t A G g||^2 + alpha ||x - t g||^2 of J_eps along
    -g, with G the Jacobian diagonal at x; one A product.  1 when t is not a
    positive finite number (after an overflow)."""
    AGg = p.A.matvec(gradient_diag(spec, x) * g)
    t = g_sq / (2.0 * (float(AGg @ AGg) + p.alpha * g_sq))
    return t if 0.0 < t < math.inf else 1.0


def run_gradient_descent(p: ProblemData, cfg: SolverConfig, delta: float, *,
                         x_true=None, callback=None, timer=time.perf_counter):
    """Armijo-damped steepest descent on the substituted functional.

    Runs on J when epsilon == 0 (the default) and on J_eps otherwise.  The
    first Armijo search starts at the Cauchy step _cauchy_step, the minimizer
    along -g of the Gauss-Newton model of J_eps (Nocedal and Wright, sections
    3.5 and 4.1), which puts it at the problem's scale for one A product.
    Every later search starts at the short Barzilai-Borwein step _bb_step of
    the last step and gradient change (Barzilai and Borwein, IMA J. Numer.
    Anal. 1988; Raydan, SIAM J. Optim. 1997), which follows the curvature the
    iterates have seen and is rejected less often than the long step
    s^T s / s^T y.  The search stays monotone, so J_eps falls on every step.
    """
    cfg = cfg.for_method("gd")
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y)
    prev = None  # the last step's (x, gradient)

    def step(n, it):
        nonlocal prev
        g = grad_J(p, it.x, spec, atr=A.transpose_matvec(it.Fx - y))
        g_sq = float(g @ g)
        if np.sqrt(g_sq) <= cfg.grad_tol:
            return None
        if prev is None:
            t = _cauchy_step(p, spec, it.x, g, g_sq)
        else:
            t = _bb_step(it.x - prev[0], g - prev[1])
        prev = (it.x, g)
        return _armijo(p, spec, it, -g, -g_sq, t)

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


def run_levenberg_marquardt(p: ProblemData, cfg: SolverConfig, delta: float, *,
                            x_true=None, callback=None, timer=time.perf_counter):
    """Levenberg-Marquardt on F(x~) = y with the fixed shift schedule
    alpha_n = max(delta * 0.6^n, 1e-14, 1e-4 * max(g^2 c)).

    Each step solves M s = b, with M = G A^T A G + alpha_n I and
    b = G A^T (y - F(x~)), by CG on the system scaled on both sides by
    D = diag(M)^(-1/2) (split Jacobi preconditioning; Saad, Iterative Methods
    for Sparse Linear Systems, section 9.2): D M D u = D b, and s = D u.  The
    diagonal of M is g^2 c + alpha_n, where g is the Jacobian diagonal and c
    the column sums of squares of A (cached on A), so D costs no product.
    The schedule's last term keeps the shift at a fixed fraction of the
    operator's scale once delta * 0.6^n falls below it (at small or zero
    delta), where an absolute shift no longer damps the weakly coupled
    components and their steps of about g (A^T r) / alpha_n run away.  CG
    stops once the scaled residual ||D (b - M s)|| is at most inner_tol
    ||D b||; inner_tol defaults to 5e-2, a truncated solve in the spirit of
    Rieder's REGINN, and inner_tol = 1e-10 solves almost exactly.  As
    alpha_n >= SHIFT_FLOOR > 0, D M D is positive definite by construction,
    so CG meets no non-positive curvature; an inner solve that does not
    converge stops with reason "stagnation".
    """
    cfg = cfg.for_method("lm")
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y)

    def step(n, it):
        g_diag = gradient_diag(spec, it.x)
        rhs = g_diag * A.transpose_matvec(y - it.Fx)

        # the diagonal of G A^T A G; asked for in the step, so that wall_s
        # covers the first computation of the column sums
        coupling = g_diag**2 * A.column_sums_of_squares()
        mu = max(_shift(n, delta), SHIFT_RELATIVE_FLOOR * float(coupling.max()))
        d = 1.0 / np.sqrt(coupling + mu)  # diag(M)^(-1/2), finite as mu >= SHIFT_FLOOR

        def scaled(u):  # D M D u
            w = d * u
            return d * (g_diag * A.transpose_matvec(A.matvec(g_diag * w)) + mu * w)

        result = cg_solve(scaled, d * rhs, tol=cfg.inner_tol)
        return _evaluate(p, spec, it.x + d * result.x) if result.converged else None

    return _iterate(p, cfg, delta, step, spec, x_true=x_true, callback=callback, timer=timer)


def run_newton(p: ProblemData, cfg: SolverConfig, delta: float, *,
               x_true=None, callback=None, timer=time.perf_counter):
    """Trust-region Newton-CG on J_eps (epsilon > 0 required; "auto" by default).

    Each trial step s minimizes the quadratic model q(s) = g^T s + s^T H s / 2
    of J_eps inside the ball ||s|| <= Delta by Steihaug's truncated CG
    (cg_solve with a radius): it stops at the inexact Newton condition
    ||H s + g|| <= inner_tol ||g|| (Dembo, Eisenstat and Steihaug), or on the
    boundary when it meets non-positive curvature or leaves the ball.  inner_tol
    defaults to the constant forcing term 0.2; inner_tol = 1e-10 solves almost
    exactly.

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
    cfg = cfg.for_method("newton")
    A, y = p.A, p.y_delta
    spec = _transform_spec(cfg, delta, y)
    check_knob("epsilon", spec.epsilon, "newton")
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


# The solver knobs: key -> (parser, floor, floor allowed, readers), where
# readers maps exactly the methods that read the knob to their defaults, the
# one place a knob default is written.  The parser reads a config file's
# value (_float_or_auto also takes "auto"); a value other than "auto" must be
# an integer (int knobs) or a finite real above the floor, or at it when the
# floor is allowed (see check_knob).  SolverConfig.for_method fills in the
# defaults.  alpha is no SolverConfig field: it becomes ProblemData.alpha,
# and unset it means the sweep's "auto" weight.  The methods on the
# substituted variable cannot move from exactly zero (the Jacobian diagonal
# vanishes there), so they warm start from warm_start FISTA iterations, run at
# FISTA's defaults but for tau and max_iter.  LM and Newton solve their inner
# systems loosely: over the five cells of the lownoise-m64 benchmark (m=64, 1%
# noise, seed 0, the FISTA warm start shared as a sweep shares it) the
# near-exact 1e-10 solves cost Newton 3.6 times (1,083 against 305) and LM
# 17.2 times (3,803 against 221) the operator products, for a larger error in
# Newton's case (mean 0.0499 against 0.0419) and an error 1.3% smaller in LM's
# (0.0386 against 0.0391).  An inner_tol of 0 is refused: no CG solve reaches
# it, and LM would stop at its warm start.
SOLVER_KNOBS = {
    "alpha": (_float_or_auto, 0, False, dict.fromkeys(SOLVER_NAMES, "auto")),
    "epsilon": (_float_or_auto, 0, True, {"gd": 0.0, "lm": 0.0, "newton": "auto"}),
    "tau": (float, 1, False, dict.fromkeys(SOLVER_NAMES, 1.1)),
    "omega": (_float_or_auto, 0, False, {"ista": "auto", "fista": "auto"}),
    "max_iter": (int, 0, True, {"ista": 50000, "fista": 20000, "gd": 2000, "lm": 50, "newton": 50}),
    "inner_tol": (float, 0, False, {"lm": 5e-2, "newton": 0.2}),
    "grad_tol": (float, 0, True, {"gd": 0.0, "newton": 0.0}),
    "warm_start": (int, 0, True, {"gd": 5, "lm": 5, "newton": 5}),
}


def check_knob(key: str, value, method: Optional[str] = None) -> None:
    """Raise ValueError unless key is a knob of SOLVER_KNOBS whose row takes
    value and, for a method, the method reads it and, for newton, epsilon is
    not 0: Newton needs the C^2 smoothing of the substitution.  The one
    statement of the knob rules, for SolverConfig (method None) and its
    for_method, config files, sweeps built in code and run_newton's resolved
    epsilon."""
    if key not in SOLVER_KNOBS:
        raise ValueError(f"unknown solver knob '{key}' for {method}")
    parse, floor, floor_allowed, readers = SOLVER_KNOBS[key]
    if not (parse is _float_or_auto and value == "auto"):
        check_number(key, value, floor, floor_allowed, integer=parse is int)
    if method is not None and method not in readers:
        raise ValueError(f"solver knob '{key}' is not read by {method}")
    if method == "newton" and key == "epsilon" and value == 0:
        raise ValueError("epsilon must be > 0 for newton")
