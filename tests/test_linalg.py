"""Sparse matrix products, adjoint consistency and the CG inner solver."""

import numpy as np
import pytest

from sparsenewton import (
    CurvatureError,
    SparseMatrix,
    as_vector,
    cg_solve,
)


def random_sparse(rng, rows, cols, density=0.4):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense, SparseMatrix.from_dense(dense)


def test_matvec_identity():
    A = SparseMatrix.from_dense(np.eye(2))
    np.testing.assert_array_equal(A.matvec(np.array([3.0, -1.0])), [3.0, -1.0])


def test_matvec_hand_values():
    A = SparseMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
    np.testing.assert_array_equal(A.matvec(np.array([1.0, 1.0])), [3.0, 3.0])


def test_transpose_matvec_hand_values():
    A = SparseMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
    np.testing.assert_array_equal(A.transpose_matvec(np.array([1.0, 1.0])), [1.0, 5.0])
    eye5 = SparseMatrix.from_dense(np.eye(5))
    v = np.arange(5.0)
    np.testing.assert_array_equal(eye5.transpose_matvec(v), v)


def test_products_match_dense_oracle():
    rng = np.random.default_rng(7)
    dense, A = random_sparse(rng, 50, 30)
    x = rng.standard_normal(30)
    y = rng.standard_normal(50)
    np.testing.assert_allclose(A.matvec(x), dense @ x, atol=1e-12)
    np.testing.assert_allclose(A.transpose_matvec(y), dense.T @ y, atol=1e-12)


def test_dimension_mismatch_messages():
    A = SparseMatrix.from_dense(np.ones((3, 2)))
    with pytest.raises(ValueError, match="2 columns.*shape \\(3,\\)"):
        A.matvec(np.zeros(3))
    with pytest.raises(ValueError, match="3 rows.*shape \\(2,\\)"):
        A.transpose_matvec(np.zeros(2))


def test_csr_validation():
    with pytest.raises(ValueError, match="shape must be positive"):
        SparseMatrix(0, 2, [0], [], [])
    with pytest.raises(ValueError, match="start at 0"):
        SparseMatrix(1, 2, [1, 2], [0], [1.0])
    with pytest.raises(ValueError, match="length n_rows"):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="length row_offsets"):
        SparseMatrix(1, 2, [0, 2], [0], [1.0])
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        SparseMatrix(1, 2, [0, 1], [2], [1.0])
    with pytest.raises(ValueError, match="NaN or infinite"):
        SparseMatrix(1, 2, [0, 1], [0], [np.nan])


def test_from_dense_roundtrip_and_counts():
    rng = np.random.default_rng(11)
    dense, A = random_sparse(rng, 9, 6)
    assert A.shape == (9, 6)
    assert A.nnz == np.count_nonzero(dense)
    np.testing.assert_array_equal(A.to_dense(), dense)
    # the public arrays are the ones the products read: the matrix is stored once
    assert A.row_offsets is A._csr.indptr and A.col_indices is A._csr.indices
    assert A.values is A._csr.data


def test_adjoint_consistency():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(2, 40))
        dense, A = random_sparse(rng, rows, cols)
        x = rng.standard_normal(cols)
        y = rng.standard_normal(rows)
        gap = abs(A.matvec(x) @ y - x @ A.transpose_matvec(y))
        bound = 1e-12 * np.linalg.norm(dense) * np.linalg.norm(x) * np.linalg.norm(y)
        assert gap <= bound + 1e-300


def test_norm2_estimate_against_svd():
    rng = np.random.default_rng(1)
    for _ in range(5):
        dense = rng.standard_normal((30, 20))
        A = SparseMatrix.from_dense(dense)
        exact = np.linalg.norm(dense, 2)
        est = A.norm2_estimate()
        # power iteration approaches the top singular value from below
        assert est <= exact * (1 + 1e-12)
        assert est >= exact * (1 - 1e-3)
        assert A.norm2_estimate() == est  # cached


def test_cg_identity_one_iteration():
    result = cg_solve(lambda v: v, np.array([1.0, 2.0, 3.0]), tol=1e-10)
    np.testing.assert_allclose(result.x, [1.0, 2.0, 3.0], atol=1e-14)
    assert result.converged
    assert result.iterations == 1


def test_cg_diagonal_solve():
    result = cg_solve(lambda v: np.array([1.0, 4.0]) * v, np.array([1.0, 4.0]))
    np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-12)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(3)
    dense, A = random_sparse(rng, 20, 20, density=0.8)
    g = np.abs(rng.standard_normal(20)) + 0.1
    alpha = 0.05
    op_dense = np.diag(g) @ dense.T @ dense @ np.diag(g) + alpha * np.eye(20)
    b = rng.standard_normal(20)

    def op(v):
        return g * A.transpose_matvec(A.matvec(g * v)) + alpha * v

    result = cg_solve(op, b, tol=1e-12)
    np.testing.assert_allclose(result.x, np.linalg.solve(op_dense, b), atol=1e-8)


def test_cg_finite_termination():
    # an n-dimensional SPD solve finishes in n iterations up to round-off
    rng = np.random.default_rng(5)
    n = 30
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = q @ np.diag(rng.uniform(1.0, 10.0, n)) @ q.T
    b = rng.standard_normal(n)
    result = cg_solve(lambda v: M @ v, b, tol=0.0, max_iter=n)
    assert np.linalg.norm(M @ result.x - b) <= 1e-8 * np.linalg.norm(b)


def test_cg_curvature_error_names_iteration():
    with pytest.raises(CurvatureError, match="iteration 0") as info:
        cg_solve(lambda v: np.array([1.0, -1.0]) * v, np.array([1.0, 1.0]))
    assert info.value.iteration == 0


def test_cg_zero_rhs():
    result = cg_solve(lambda v: v, np.zeros(4))
    np.testing.assert_array_equal(result.x, np.zeros(4))
    assert result.converged
    assert result.iterations == 0


def test_cg_max_iter_returns_best_iterate():
    d = np.array([1.0, 4.0])
    result = cg_solve(lambda v: d * v, d, max_iter=1)
    assert not result.converged
    assert result.iterations == 1
    # one step along b from x = 0 is the best the solve saw, so it is returned
    assert np.linalg.norm(d * result.x - d) < np.linalg.norm(d)
    step = (d @ d) / (d @ (d * d))
    np.testing.assert_allclose(result.x, step * d, rtol=1e-15)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="length >= 1"):
        as_vector([])
    with pytest.raises(ValueError, match="NaN or infinite"):
        as_vector([1.0, np.inf])
