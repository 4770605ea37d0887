"""Vector and sparse-matrix primitives plus a matrix-free conjugate gradient.

Vectors are plain 1-D float64 numpy arrays.  Matrices are stored once in CSR
form.  Products call the compiled CSR kernels behind scipy's own products
directly (``csr_matvec`` and ``csc_matvec`` of ``scipy.sparse._sparsetools``,
a private module), each adding into one zeroed output array per product.
Transpose products are the scatter pass ``csc_matvec`` makes over the same
three arrays read as the CSC form of A^T, so no transposed copy is ever
materialized.  The kernels' results are those of scipy's public products;
tier-1 pins them bit for bit, and ``sparsenewton verify`` checks them against
dense products, so a scipy whose private kernels differ fails both.

A matrix with at least _SPLIT_NNZ stored entries runs each product as two
row blocks: the rows up to the one that holds entry nnz // 2, and the rest.
A x writes each block's rows into its own slice of the output, equal bit for
bit to the one-pass product.  A^T y is top^T y_1 + bottom^T y_2, summed in
that order, which differs from the one-pass scatter by round-off only.  The
blocks are used at every CPU count, so the bytes do not depend on the
machine; where the process may use two CPUs the second block runs on one
worker thread while the caller runs the first (the kernels release the GIL).
The CPUs are counted once at import, and again in a forked child, not on
every product.

``cg_solve`` is the one CG of the package, with two modes.  Without a radius
it solves a symmetric positive definite system.  With ``radius=`` it is
Steihaug's truncated CG for the trust-region model q(s) = 1/2 s^T H s - b^T s,
which stops on the sphere ||s|| = radius instead of failing on non-positive
curvature.  In both it returns the point it stopped at, its last iterate,
whose model value is the lowest it reached.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csc_matvec, csr_matvec


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


def check_number(name: str, value, floor, floor_allowed: bool = True, *,
                 integer: bool = False) -> None:
    """Raise ValueError naming name unless value is a number above floor, or
    at it when floor_allowed: an integer (numbers.Integral) when integer,
    otherwise a finite real.  A bool is never a number, and a negative zero
    is below a floor of 0."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if not integer and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if floor_allowed and (value < floor or value == floor == 0 and math.copysign(1, value) < 0):
        raise ValueError(f"{name} must be >= {floor}, got {value!r}")
    if not floor_allowed and value <= floor:
        raise ValueError(f"{name} must exceed {floor}, got {value!r}")


def _index_array(name: str, arr) -> np.ndarray:
    """``arr`` as an integer array at the width it arrives in (scipy narrows
    it only when its values fit); an empty list, which numpy makes float64,
    becomes int64, and any other non-integer dtype is an error."""
    a = np.asarray(arr)
    if a.dtype.kind not in "iu":
        if a.size:
            raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
        a = a.astype(np.int64)
    return a


# Stored entries per pass of SparseMatrix.column_sums_of_squares.
_COLUMN_CHUNK = 65536
# Stored entries from which a SparseMatrix splits its products in two halves.
# Time of the halves over one pass, A x / A^T y, in three runs (medians of
# 7 x 50 calls, 2-core host): 103,000 entries (32/60/45) 0.91-2.07 /
# 0.80-1.91; 203,536 (40/76/56) 1.07-1.49 / 1.09-1.39; 351,152 (48/90/68)
# 0.82-1.23 / 0.74-1.02; 560,480 (56/106/79) 0.70-0.82 / 0.68-0.83.  The
# hand-off to the worker costs about 0.07 ms a product.
_SPLIT_NNZ = 1 << 19

_halves_pool: Optional[ThreadPoolExecutor]  # runs bottom halves; None on one CPU


def _start_halves_pool() -> None:
    """Give this process a one-thread pool for bottom halves when it may use
    two CPUs, otherwise none.  Runs at import and in a forked child, which
    has none of its parent's threads."""
    global _halves_pool
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    _halves_pool = (ThreadPoolExecutor(1, thread_name_prefix="sparsenewton-halves")
                    if cpus >= 2 else None)


_start_halves_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_halves_pool)


def _run_blocks(kernel, calls) -> None:
    """kernel(*args) for each args of calls: the first in the caller, the
    rest on the pool's thread when there is a pool, otherwise after the
    first in the caller."""
    if _halves_pool is None or len(calls) == 1:
        for args in calls:
            kernel(*args)
        return
    futures = [_halves_pool.submit(kernel, *args) for args in calls[1:]]
    try:
        kernel(*calls[0])
    finally:
        for future in futures:
            future.result()


class SparseMatrix:
    """CSR matrix with its three arrays exposed as the public contract.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape; both must be integers >= 1.
    row_offsets : array of int, length n_rows + 1
        Nondecreasing, starts at 0, ends at nnz.
    col_indices : array of int, length nnz
        Column index of each stored entry, each in [0, n_cols).  Index arrays
        of an integer dtype are taken at their width, so int32 arrays are
        stored without a copy; any other dtype is an error unless empty.
    values : array of float, length nnz
        Stored entries; must all be finite.

    Products call scipy's compiled CSR kernels (``scipy.sparse._sparsetools``,
    a private module) on these arrays, each into one new output array; tier-1
    and ``sparsenewton verify`` pin their results.  With nnz >= _SPLIT_NNZ
    every product runs as two row blocks split at the row holding entry
    nnz // 2 (see the module docstring), otherwise as one block, the whole
    matrix.  A block's column indices and values are views of the arrays;
    only the second block's row offsets are copied, re-based to start at 0.
    Whether the second block runs on a worker thread was settled when the
    module was imported (or the process forked) from the CPUs the process
    could use then; no product counts them.
    """

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        check_number("n_rows", n_rows, 1, integer=True)
        check_number("n_cols", n_cols, 1, integer=True)
        n_rows, n_cols = int(n_rows), int(n_cols)
        row_offsets = _index_array("row_offsets", row_offsets)
        col_indices = _index_array("col_indices", col_indices)
        values = np.asarray(values, dtype=np.float64)
        if row_offsets.ndim != 1 or row_offsets.size != n_rows + 1:
            raise ValueError("row_offsets must be 1-D with length n_rows + 1")
        if row_offsets[0] != 0:
            raise ValueError("row_offsets must start at 0")
        if np.any(row_offsets[1:] < row_offsets[:-1]):
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
        # (first row, end row, row offsets from 0, column indices, values) of each block
        cuts = [0, n_rows]
        if nnz >= _SPLIT_NNZ:
            cuts.insert(1, int(np.searchsorted(self.row_offsets, nnz // 2)))
        self._blocks = []
        for a, b in zip(cuts, cuts[1:]):
            s, e = int(self.row_offsets[a]), int(self.row_offsets[b])
            offsets = self.row_offsets[a:b + 1]
            self._blocks.append((a, b, offsets - s if s else offsets,
                                 self.col_indices[s:e], self.values[s:e]))
        self._norm2_estimate: Optional[float] = None
        self._column_sums_of_squares: Optional[np.ndarray] = None

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
        out = np.zeros(self.n_rows)
        _run_blocks(csr_matvec, [(b - a, self.n_cols, p, j, v, x, out[a:b])
                                 for a, b, p, j, v in self._blocks])
        return out

    def transpose_matvec(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise ValueError(
                f"transpose_matvec: matrix has {self.n_rows} rows but vector has shape {y.shape}"
            )
        outs = [np.zeros(self.n_cols) for _ in self._blocks]
        _run_blocks(csc_matvec, [(self.n_cols, b - a, p, j, v, y[a:b], out)
                                 for (a, b, p, j, v), out in zip(self._blocks, outs)])
        for part in outs[1:]:
            outs[0] += part
        return outs[0]

    def norm2_estimate(self) -> float:
        """Spectral-norm estimate from power iterations on A^T A, run until
        the estimate ||A^T A v|| repeats bit for bit, at most 100 (cached
        after the first call).

        A matrix with no negative entry, such as a projector, starts from the
        all-ones vector: A^T A is then entrywise nonnegative, so its top
        eigenvalue has a nonnegative (Perron) eigenvector, which the ones
        vector cannot be orthogonal to.  Any other matrix starts from a
        seed-0 random vector.
        """
        if self._norm2_estimate is None:
            if not (self.values < 0).any():
                v = np.ones(self.n_cols)
            else:
                v = np.random.default_rng(0).standard_normal(self.n_cols)
            v /= np.linalg.norm(v)
            sigma2 = 0.0
            for _ in range(100):
                w = self.transpose_matvec(self.matvec(v))
                nw = np.linalg.norm(w)
                if nw == 0.0 or nw == sigma2:
                    break
                sigma2 = nw
                v = w / nw
            self._norm2_estimate = float(np.sqrt(sigma2))
        return self._norm2_estimate

    def column_sums_of_squares(self) -> np.ndarray:
        """c_j = sum_i A_ij^2, the diagonal of A^T A, from the stored entries
        with no operator product (cached after the first call, read-only).
        The entries are taken _COLUMN_CHUNK at a time, so the temporaries stay
        small however large nnz is."""
        if self._column_sums_of_squares is None:
            c = np.zeros(self.n_cols)
            for start in range(0, self.nnz, _COLUMN_CHUNK):
                chunk = slice(start, start + _COLUMN_CHUNK)
                c += np.bincount(self.col_indices[chunk], weights=self.values[chunk] ** 2,
                                 minlength=self.n_cols)
            c.flags.writeable = False
            self._column_sums_of_squares = c
        return self._column_sums_of_squares


@dataclass
class CGResult:
    """Outcome of a conjugate-gradient solve.

    ``x`` is the iterate the solve stopped at after ``iterations``
    iterations: the last CG iterate, or the point where a solve with a
    radius stopped on the sphere ||x|| = radius (then ``on_boundary``).
    ``converged`` says that the residual test was met or that the solve
    stopped on that sphere.  ``model`` is q(x) = 1/2 x^T A x - b^T x, built
    from the solve's own scalars without another operator product; it falls
    at every iteration.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    model: float
    on_boundary: bool


# Recurrence residuals drift; recompute b - A x this often.
_CG_RECOMPUTE_EVERY = 50
# The largest radius whose square is a finite float.
_RADIUS_MAX = float(np.sqrt(np.finfo(float).max))


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
        Relative tolerance; stop once the residual norm ||b - A x|| is
        <= tol * ||b||.
    max_iter : int, optional
        Defaults to ``2 * len(b)``.  A solve that reaches it returns its last
        iterate, the one with the lowest model value, unconverged.
    radius : float, optional
        Trust-region radius (Steihaug, SIAM J. Numer. Anal. 1983; Nocedal and
        Wright, Algorithm 7.2), positive and at most sqrt of the largest
        float, so that its square is finite.  When a direction p has
        p^T(Ap) <= 0, or the next iterate would leave the ball, the solve
        returns the point where the current iterate plus a nonnegative
        multiple of p meets the sphere ||x|| = radius.  Otherwise it stops as
        without a radius, and a ball that no iterate leaves gives the same
        result.

    Raises
    ------
    CurvatureError
        Without a radius, if some direction p has p^T(Ap) <= 0, naming the
        iteration: the caller's operator is not positive definite.  With a
        radius it is never raised.
    ValueError
        For a radius outside (0, sqrt(float max)].
    """
    b = as_vector(b)
    n = b.size
    if max_iter is None:
        max_iter = 2 * n
    if radius is not None and not 0.0 < radius <= _RADIUS_MAX:
        raise ValueError(f"radius must be positive and at most {_RADIUS_MAX:.6g}, "
                         f"got {radius!r}")
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(n)
    if b_norm == 0.0:
        return CGResult(x, True, 0, 0.0, False)
    target = tol * b_norm
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    q = 0.0  # the model at x: q(x + tau p) = q(x) + tau (tau p^T A p / 2 - r^T p)
    k = 0
    while k < max_iter and float(np.sqrt(rs)) > target:
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
                return CGResult(x + tau * p, True, k, q + tau * (0.5 * tau * pAp - rp), True)
        step = rs / pAp
        x = x + step * p
        q += step * (0.5 * step * pAp - rp)
        if k % _CG_RECOMPUTE_EVERY == 0:
            r = b - apply_op(x)
        else:
            r = r - step * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGResult(x, float(np.sqrt(rs)) <= target, k, q, False)
