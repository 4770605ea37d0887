"""Vector and sparse-matrix primitives plus a matrix-free conjugate gradient.

Vectors are plain 1-D float64 numpy arrays.  Matrices are stored once in CSR
form; transpose products are evaluated as a scatter pass over the same three
arrays (via the CSC view, which shares memory), so no transposed copy is ever
materialized.

``cg_solve`` is the one CG of the package.  Without a radius it solves a
symmetric positive definite system; with a radius it is Steihaug's truncated
CG for the trust-region model q(s) = 1/2 s^T H s - b^T s, which stops on the
sphere ||s|| = radius instead of failing on non-positive curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse


class CurvatureError(RuntimeError):
    """Raised by cg_solve when a search direction has non-positive curvature."""

    def __init__(self, iteration: int):
        super().__init__(
            f"non-positive curvature p^T(Ap) <= 0 encountered at CG iteration {iteration}; "
            "operator is not positive definite"
        )
        self.iteration = iteration


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array of length >= 1."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got array with shape {v.shape}")
    if v.size < 1:
        raise ValueError("vectors must have length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or infinite entries")
    return v


class SparseMatrix:
    """CSR matrix with its three arrays exposed as the public contract.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape; both must be positive.
    row_offsets : array of int, length n_rows + 1
        Nondecreasing, starts at 0, ends at nnz.
    col_indices : array of int, length nnz
        Column index of each stored entry, each in [0, n_cols).
    values : array of float, length nnz
        Stored entries; must all be finite.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        n_rows = int(n_rows)
        n_cols = int(n_cols)
        if n_rows < 1 or n_cols < 1:
            raise ValueError(f"matrix shape must be positive, got {n_rows}x{n_cols}")
        row_offsets = np.asarray(row_offsets, dtype=np.int64)
        col_indices = np.asarray(col_indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if row_offsets.ndim != 1 or row_offsets.size != n_rows + 1:
            raise ValueError("row_offsets must be 1-D with length n_rows + 1")
        if row_offsets[0] != 0:
            raise ValueError("row_offsets must start at 0")
        if np.any(np.diff(row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        nnz = int(row_offsets[-1])
        if col_indices.shape != (nnz,) or values.shape != (nnz,):
            raise ValueError(
                f"col_indices and values must have length row_offsets[-1] = {nnz}"
            )
        if nnz and (col_indices.min() < 0 or col_indices.max() >= n_cols):
            raise ValueError(f"column indices must lie in [0, {n_cols})")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values contain NaN or infinite entries")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._csr = scipy.sparse.csr_matrix(
            (values, col_indices, row_offsets), shape=(n_rows, n_cols), copy=False
        )
        # scipy's own arrays (its index type, usually int32) are the public ones
        self.row_offsets = self._csr.indptr
        self.col_indices = self._csr.indices
        self.values = self._csr.data
        # CSC view sharing the CSR arrays; products through it are the scatter pass.
        self._csc_t = self._csr.T
        self._norm2_estimate: Optional[float] = None

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        m = scipy.sparse.csr_matrix(np.asarray(arr, dtype=np.float64))
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(
                f"matvec: matrix has {self.n_cols} columns but vector has shape {x.shape}"
            )
        return self._csr.dot(x)

    def transpose_matvec(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise ValueError(
                f"transpose_matvec: matrix has {self.n_rows} rows but vector has shape {y.shape}"
            )
        return self._csc_t.dot(y)

    def norm2_estimate(self) -> float:
        """Spectral-norm estimate from 100 power iterations on A^T A from a
        seed-0 random start (cached after the first call)."""
        if self._norm2_estimate is None:
            rng = np.random.default_rng(0)
            v = rng.standard_normal(self.n_cols)
            v /= np.linalg.norm(v)
            sigma2 = 0.0
            for _ in range(100):
                w = self.transpose_matvec(self.matvec(v))
                nw = np.linalg.norm(w)
                if nw == 0.0:
                    break
                sigma2 = nw
                v = w / nw
            self._norm2_estimate = float(np.sqrt(sigma2))
        return self._norm2_estimate


@dataclass
class CGResult:
    """Outcome of a conjugate-gradient solve.

    ``x`` is the iterate with the smallest residual norm seen in
    ``iterations`` iterations, or the point where a solve with a radius
    stopped on the sphere ||x|| = radius (then ``on_boundary``).
    ``converged`` says that the residual test was met or that the solve
    stopped on that sphere.  ``model`` is q(x) = 1/2 x^T A x - b^T x, built
    from the solve's own scalars without another operator product.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    model: float
    on_boundary: bool


# Recurrence residuals drift; recompute b - A x this often.
_CG_RECOMPUTE_EVERY = 50


def cg_solve(apply_op: Callable[[np.ndarray], np.ndarray], b, tol: float = 1e-10,
             max_iter: Optional[int] = None, radius: Optional[float] = None) -> CGResult:
    """Solve ``apply_op(x) = b``, or minimize q(x) = 1/2 x^T A x - b^T x
    inside the ball ||x|| <= radius.

    Parameters
    ----------
    apply_op : callable
        Matrix-free application of the symmetric operator A.
    b : array
        Right-hand side.
    tol : float
        Relative tolerance; stop once the residual norm is <= tol * ||b||.
    max_iter : int, optional
        Defaults to ``2 * len(b)``.
    radius : float, optional
        Trust-region radius (Steihaug, SIAM J. Numer. Anal. 1983; Nocedal and
        Wright, Algorithm 7.2).  When a direction p has p^T(Ap) <= 0, or the
        next iterate would leave the ball, the solve returns the point where
        the current iterate plus a nonnegative multiple of p meets the sphere
        ||x|| = radius.  Otherwise it stops as without a radius, and a ball
        that no iterate leaves gives the same result.

    Raises
    ------
    CurvatureError
        Without a radius, if some direction p has p^T(Ap) <= 0, naming the
        iteration.  With a radius it is never raised.
    """
    b = as_vector(b)
    n = b.size
    if max_iter is None:
        max_iter = 2 * n
    if radius is not None and not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(n)
    if b_norm == 0.0:
        return CGResult(x, True, 0, 0.0, False)
    target = tol * b_norm
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    q = 0.0  # the model at x: q(x + tau p) = q(x) - tau r^T p + tau^2 p^T A p / 2
    best_norm = float(np.sqrt(rs))
    best_x, best_q = x.copy(), q
    k = 0
    while k < max_iter and best_norm > target:
        Ap = apply_op(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0 and radius is None:
            raise CurvatureError(k)
        rp = float(r @ p)
        k += 1
        if radius is not None:
            pp, xp = float(p @ p), float(x @ p)  # tau >= 0 puts x + tau p on the sphere
            tau = (np.sqrt(xp * xp - pp * (float(x @ x) - radius * radius)) - xp) / pp
            if pAp <= 0.0 or rs >= tau * pAp:  # the CG step rs / pAp would leave the ball
                return CGResult(x + tau * p, True, k, q - tau * rp + 0.5 * tau * tau * pAp, True)
        step = rs / pAp
        x = x + step * p
        q += step * (0.5 * step * pAp - rp)
        if k % _CG_RECOMPUTE_EVERY == 0:
            r = b - apply_op(x)
        else:
            r = r - step * Ap
        rs_new = float(r @ r)
        res_norm = float(np.sqrt(rs_new))
        if res_norm < best_norm:
            best_norm = res_norm
            best_x, best_q = x.copy(), q
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGResult(best_x, best_norm <= target, k, best_q, False)
