"""The componentwise quadratic substitution and its C^2 smoothing.

The substitution eta(tau) = sign(tau) tau^2 turns the l1 penalty into a
squared l2 norm: ||N(x)||_1 = ||x||_2^2 componentwise.  eta is C^1 but not
twice differentiable at 0, so a cubic blend on [-eps, eps] replaces it
whenever second derivatives are needed:

    eta_eps(tau) = -tau^2 - eps^2/3          tau < -eps
                   tau^3/(3 eps) + eps tau   |tau| <= eps
                   tau^2 + eps^2/3           tau > eps

The blend matches value, slope and curvature at the knots tau = +-eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TransformSpec:
    """Smoothing width; ``epsilon == 0`` selects the exact transform."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


def _require_smooth(spec: TransformSpec, what: str):
    if spec.epsilon <= 0.0:
        raise ValueError(f"{what} requires epsilon > 0")


def _shaped(raw, like):
    arr = np.asarray(like)
    return raw if arr.ndim else float(raw)


def eta(tau):
    """sign(tau) * tau^2, elementwise."""
    t = np.asarray(tau, dtype=np.float64)
    return _shaped(np.sign(t) * t * t, t)


def eta_eps(spec: TransformSpec, tau):
    """Smoothed transform; odd in tau, so computed from |tau|.

    At |tau| == eps the cubic branch applies; both branches agree there.
    """
    _require_smooth(spec, "eta_eps")
    eps = spec.epsilon
    t = np.asarray(tau, dtype=np.float64)
    u = np.abs(t)
    inner = u * u * u / (3.0 * eps) + eps * u
    outer = u * u + eps * eps / 3.0
    return _shaped(np.sign(t) * np.where(u <= eps, inner, outer), t)


def eta_eps_d1(spec: TransformSpec, tau):
    """First derivative of eta_eps: tau^2/eps + eps inside, 2|tau| outside (even)."""
    _require_smooth(spec, "eta_eps_d1")
    eps = spec.epsilon
    t = np.asarray(tau, dtype=np.float64)
    u = np.abs(t)
    return _shaped(np.where(u <= eps, u * u / eps + eps, 2.0 * u), t)


def eta_eps_d2(spec: TransformSpec, tau):
    """Second derivative of eta_eps: 2 tau/eps inside, 2 sign(tau) outside (odd)."""
    _require_smooth(spec, "eta_eps_d2 (exact transform is not twice differentiable)")
    eps = spec.epsilon
    t = np.asarray(tau, dtype=np.float64)
    u = np.abs(t)
    return _shaped(np.sign(t) * np.where(u <= eps, 2.0 * u / eps, 2.0), t)


def apply_N(x) -> np.ndarray:
    """Exact transform applied componentwise; ||apply_N(x)||_1 == ||x||_2^2."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * x * x


def apply_N_eps(spec: TransformSpec, x) -> np.ndarray:
    """Smoothed transform applied componentwise."""
    _require_smooth(spec, "apply_N_eps")
    return np.asarray(eta_eps(spec, np.asarray(x, dtype=np.float64)))


def apply_N_inverse(x) -> np.ndarray:
    """Inverse of the exact transform: sign(x) sqrt(|x|)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.sqrt(np.abs(x))


def gradient_diag(spec: TransformSpec, x) -> np.ndarray:
    """Diagonal of the transform Jacobian at x.

    With epsilon == 0 this is 2|x_k| (the exact transform is C^1); with
    epsilon > 0 every entry is at least eps, so the Jacobian is invertible.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.epsilon == 0.0:
        return 2.0 * np.abs(x)
    return np.asarray(eta_eps_d1(spec, x))


def hessian_diag(spec: TransformSpec, x, w) -> np.ndarray:
    """Diagonal of the second-derivative action: entries eta_eps''(x_k) * w_k."""
    _require_smooth(spec, "hessian_diag (exact transform is not twice differentiable)")
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape != w.shape:
        raise ValueError(f"x has shape {x.shape} but w has shape {w.shape}")
    return np.asarray(eta_eps_d2(spec, x)) * w
