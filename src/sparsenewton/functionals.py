"""The componentwise quadratic substitution, its C^2 smoothing, and the
Tikhonov functionals of the original and substituted problems.

The substitution eta(tau) = sign(tau) tau^2 turns the l1 penalty into a
squared l2 norm: ||N(x)||_1 = ||x||_2^2 componentwise.  eta is C^1 but not
twice differentiable at 0, so a cubic blend on [-eps, eps] replaces it
whenever second derivatives are needed:

    eta_eps(tau) = -tau^2 - eps^2/3          tau < -eps
                   tau^3/(3 eps) + eps tau   |tau| <= eps
                   tau^2 + eps^2/3           tau > eps

The blend matches value, slope and curvature at the knots tau = +-eps.

Every map acts componentwise on arrays: ``apply_N`` is eta, ``apply_N_eps``
is eta_eps, ``gradient_diag`` is eta_eps' (eta' = 2|tau| at eps = 0),
``hessian_diag`` is eta_eps'' times a weight vector, and ``apply_N_inverse``
inverts eta.  The functionals built from them:

T(x)  = ||A x - y||^2 + alpha ||x||_1          (original, nonsmooth)
J(x~) = ||A N(x~) - y||^2 + alpha ||x~||_2^2   (substituted; N_eps if eps > 0)

Minimizers correspond through x = N(x~) at equal alpha, since
||x~||_2^2 = ||N(x~)||_1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import SparseMatrix, as_vector, check_number


@dataclass(frozen=True)
class TransformSpec:
    """Smoothing width; ``epsilon == 0`` selects the exact transform."""

    epsilon: float = 0.0

    def __post_init__(self):
        check_number("epsilon", self.epsilon, 0)


def _require_smooth(spec: TransformSpec, what: str):
    if spec.epsilon <= 0.0:
        raise ValueError(f"{what} requires epsilon > 0")


def apply_N(x) -> np.ndarray:
    """Exact transform applied componentwise; ||apply_N(x)||_1 == ||x||_2^2."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * x * x


def apply_N_eps(spec: TransformSpec, x) -> np.ndarray:
    """Smoothed transform eta_eps applied componentwise; odd, so computed
    from |x|.  At |x_k| == eps the cubic branch applies; both agree there."""
    _require_smooth(spec, "apply_N_eps")
    eps = spec.epsilon
    x = np.asarray(x, dtype=np.float64)
    u = np.abs(x)
    inner = u * u * u / (3.0 * eps) + eps * u
    outer = u * u + eps * eps / 3.0
    return np.sign(x) * np.where(u <= eps, inner, outer)


def apply_N_inverse(x) -> np.ndarray:
    """Inverse of the exact transform: sign(x) sqrt(|x|)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.sqrt(np.abs(x))


def gradient_diag(spec: TransformSpec, x) -> np.ndarray:
    """Diagonal of the transform Jacobian at x: eta_eps'(x_k), that is
    x_k^2/eps + eps inside [-eps, eps] and 2|x_k| outside.

    With epsilon == 0 this is 2|x_k| (the exact transform is C^1); with
    epsilon > 0 every entry is at least eps, so the Jacobian is invertible.
    """
    eps = spec.epsilon
    u = np.abs(np.asarray(x, dtype=np.float64))
    if eps == 0.0:
        return 2.0 * u
    return np.where(u <= eps, u * u / eps + eps, 2.0 * u)


def hessian_diag(spec: TransformSpec, x, w) -> np.ndarray:
    """Diagonal of the second-derivative action: entries eta_eps''(x_k) * w_k,
    with eta_eps'' = 2 x_k/eps inside [-eps, eps] and 2 sign(x_k) outside."""
    _require_smooth(spec, "hessian_diag (exact transform is not twice differentiable)")
    eps = spec.epsilon
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape != w.shape:
        raise ValueError(f"x has shape {x.shape} but w has shape {w.shape}")
    u = np.abs(x)
    return np.sign(x) * np.where(u <= eps, 2.0 * u / eps, 2.0) * w


@dataclass
class ProblemData:
    """Operator, noisy data and regularization weight.

    warm_starts holds the FISTA warm starts computed on A and y_delta, keyed
    by every further input they read (see solvers._initial_point).  A sweep
    hands the cells of one instance the same dict, so only the first cell
    that asks for a warm start computes it; a new ProblemData starts empty.
    """

    A: SparseMatrix
    y_delta: np.ndarray
    alpha: float
    warm_starts: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.y_delta = as_vector(self.y_delta)
        if self.y_delta.size != self.A.n_rows:
            raise ValueError(
                f"y_delta has length {self.y_delta.size} but A has {self.A.n_rows} rows"
            )
        check_number("alpha", self.alpha, 0, False)


def back_transform(x, spec: Optional[TransformSpec]):
    """The image of an iterate: N(x~) or N_eps(x~) on the substituted
    variable, and x itself when spec is None (the original variable)."""
    if spec is None:
        return x
    return apply_N_eps(spec, x) if spec.epsilon > 0.0 else apply_N(x)


def eval_T(p: ProblemData, x, Fx=None) -> float:
    """Original l1-Tikhonov value at x; Fx is A x when the caller has it."""
    x = np.asarray(x, dtype=np.float64)
    if Fx is None:
        Fx = p.A.matvec(x)
    r = Fx - p.y_delta
    return float(r @ r + p.alpha * np.sum(np.abs(x)))


def eval_J(p: ProblemData, x, spec: TransformSpec, Fx=None) -> float:
    """Substituted-functional value at x (exact when spec.epsilon == 0); Fx is
    the forward image A N(x) when the caller has it."""
    x = np.asarray(x, dtype=np.float64)
    if Fx is None:
        Fx = p.A.matvec(back_transform(x, spec))
    r = Fx - p.y_delta
    return float(r @ r + p.alpha * (x @ x))


def _adjoint_residual(p: ProblemData, x, spec: TransformSpec, atr) -> np.ndarray:
    """A^T (A N(x) - y): atr itself when given, else computed."""
    if atr is not None:
        return atr
    return p.A.transpose_matvec(p.A.matvec(back_transform(x, spec)) - p.y_delta)


def grad_J(p: ProblemData, x, spec: TransformSpec, *, atr=None) -> np.ndarray:
    """Gradient 2 G(x) A^T (A N(x) - y) + 2 alpha x with G the Jacobian diagonal.

    atr (A^T (A N(x) - y)) spares the products the caller has already made.
    """
    x = np.asarray(x, dtype=np.float64)
    atr = _adjoint_residual(p, x, spec, atr)
    return 2.0 * (gradient_diag(spec, x) * atr) + 2.0 * p.alpha * x


def hessian_operator(p: ProblemData, x, spec: TransformSpec, *,
                     atr=None) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free Hessian of J_eps at x; requires spec.epsilon > 0.

    Returns w -> 2 H(x, A^T r) w + 2 G A^T A G w + 2 alpha w, with the
    residual term A^T r precomputed once (or taken from atr as in grad_J).
    The Hessian is only ever exposed through this action; it is never
    assembled.
    """
    x = np.asarray(x, dtype=np.float64)
    atr = _adjoint_residual(p, x, spec, atr)
    curvature = hessian_diag(spec, x, atr)
    g = gradient_diag(spec, x)

    def apply_hessian(w):
        w = np.asarray(w, dtype=np.float64)
        gw = g * w
        return 2.0 * curvature * w + 2.0 * g * p.A.transpose_matvec(p.A.matvec(gw)) \
            + 2.0 * p.alpha * w

    return apply_hessian
