"""Tikhonov functionals for the original and substituted problems.

T(x)  = ||A x - y||^2 + alpha ||x||_1          (original, nonsmooth)
J(x~) = ||A N(x~) - y||^2 + alpha ||x~||_2^2   (substituted; N_eps if eps > 0)

Minimizers correspond through x = N(x~) at equal alpha, since
||x~||_2^2 = ||N(x~)||_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import SparseMatrix, as_vector
from .transform import (
    TransformSpec,
    apply_N,
    apply_N_eps,
    gradient_diag,
    hessian_diag,
)


@dataclass
class ProblemData:
    """Operator, noisy data and regularization weight."""

    A: SparseMatrix
    y_delta: np.ndarray
    alpha: float

    def __post_init__(self):
        self.y_delta = as_vector(self.y_delta)
        if self.y_delta.size != self.A.n_rows:
            raise ValueError(
                f"y_delta has length {self.y_delta.size} but A has {self.A.n_rows} rows"
            )
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def _transformed(spec: TransformSpec, x) -> np.ndarray:
    return apply_N_eps(spec, x) if spec.epsilon > 0.0 else apply_N(x)


def eval_T(p: ProblemData, x) -> float:
    """Original l1-Tikhonov value at x."""
    x = np.asarray(x, dtype=np.float64)
    r = p.A.matvec(x) - p.y_delta
    return float(r @ r + p.alpha * np.sum(np.abs(x)))


def eval_J(p: ProblemData, x, spec: TransformSpec) -> float:
    """Substituted-functional value at x (exact when spec.epsilon == 0)."""
    x = np.asarray(x, dtype=np.float64)
    r = p.A.matvec(_transformed(spec, x)) - p.y_delta
    return float(r @ r + p.alpha * (x @ x))


def grad_J(p: ProblemData, x, spec: TransformSpec) -> np.ndarray:
    """Gradient 2 G(x) A^T (A N(x) - y) + 2 alpha x with G the Jacobian diagonal."""
    x = np.asarray(x, dtype=np.float64)
    r = p.A.matvec(_transformed(spec, x)) - p.y_delta
    atr = p.A.transpose_matvec(r)
    return 2.0 * (gradient_diag(spec, x) * atr) + 2.0 * p.alpha * x


def hessian_operator(p: ProblemData, x, spec: TransformSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free Hessian of J_eps at x; requires spec.epsilon > 0.

    Returns w -> 2 H(x, A^T r) w + 2 G A^T A G w + 2 alpha w, with the
    residual term A^T r precomputed once.  The Hessian is only ever exposed
    through this action; it is never assembled.
    """
    if spec.epsilon <= 0.0:
        raise ValueError("exact transform is not twice differentiable; epsilon > 0 required")
    x = np.asarray(x, dtype=np.float64)
    r = p.A.matvec(apply_N_eps(spec, x)) - p.y_delta
    atr = p.A.transpose_matvec(r)
    curvature = hessian_diag(spec, x, atr)
    g = gradient_diag(spec, x)

    def apply_hessian(w):
        w = np.asarray(w, dtype=np.float64)
        gw = g * w
        return 2.0 * curvature * w + 2.0 * g * p.A.transpose_matvec(p.A.matvec(gw)) \
            + 2.0 * p.alpha * w

    return apply_hessian


def hess_J_eps_matvec(p: ProblemData, x, spec: TransformSpec, w) -> np.ndarray:
    """One Hessian-vector product; see :func:`hessian_operator`."""
    return hessian_operator(p, x, spec)(w)


def back_transform(x_tilde, spec: TransformSpec) -> np.ndarray:
    """Map a substituted-variable iterate back to the image: N(x~) or N_eps(x~)."""
    return _transformed(spec, np.asarray(x_tilde, dtype=np.float64))
