"""Tikhonov functionals for the original and substituted problems.

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
from .transform import (
    TransformSpec,
    apply_N,
    apply_N_eps,
    gradient_diag,
    hessian_diag,
)


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
