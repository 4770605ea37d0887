"""The componentwise quadratic substitution and its C^2 smoothing.

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
inverts eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_number


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
