"""Sparse matrix products, adjoint consistency and the CG inner solver."""

import re
import tracemalloc

import numpy as np
import pytest

from sparsenewton import (
    CurvatureError,
    SparseMatrix,
    TomoGeometry,
    as_vector,
    build_parallel_tomo,
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


def test_csr_rejects_index_arrays_that_are_not_integers():
    with pytest.raises(ValueError, match="col_indices must hold integers, got dtype float64"):
        SparseMatrix(1, 2, [0, 1], [1.7], [3.0])
    with pytest.raises(ValueError, match="row_offsets must hold integers, got dtype float64"):
        SparseMatrix(1, 2, [0.0, 1.9], [1], [3.0])
    with pytest.raises(ValueError, match="col_indices must hold integers, got dtype bool"):
        SparseMatrix(1, 2, [0, 1], [True], [3.0])
    A = SparseMatrix(2, 3, [0, 0, 0], [], [])  # empty lists are float64 to numpy
    assert A.nnz == 0


def test_csr_keeps_int32_indices_without_a_copy():
    rows = np.array([0, 1, 3], dtype=np.int32)
    cols = np.array([2, 0, 1], dtype=np.int32)
    A = SparseMatrix(2, 3, rows, cols, [1.0, 2.0, 3.0])
    assert A.col_indices.dtype == np.int32
    assert np.shares_memory(A.col_indices, cols) and np.shares_memory(A.row_offsets, rows)
    np.testing.assert_array_equal(A.to_dense(), [[0.0, 0.0, 1.0], [2.0, 3.0, 0.0]])


def test_csr_validation_holds_for_int32_indices():
    def i32(values):
        return np.array(values, dtype=np.int32)

    with pytest.raises(ValueError, match="start at 0"):
        SparseMatrix(1, 2, i32([1, 2]), i32([0]), [1.0])
    with pytest.raises(ValueError, match="length n_rows"):
        SparseMatrix(2, 2, i32([0, 1]), i32([0]), [1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(2, 2, i32([0, 2, 1]), i32([0, 1]), [1.0, 1.0])
    with pytest.raises(ValueError, match="length row_offsets"):
        SparseMatrix(1, 2, i32([0, 2]), i32([0]), [1.0])
    for bad in (2, -1):
        with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
            SparseMatrix(1, 2, i32([0, 1]), i32([bad]), [1.0])


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


def power_method_100(A):
    """The norm estimate's power iteration run for all 100 steps."""
    v = np.random.default_rng(0).standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(100):
        w = A.transpose_matvec(A.matvec(v))
        sigma2 = np.linalg.norm(w)
        v = w / sigma2
    return float(np.sqrt(sigma2))


def test_norm2_estimate_stops_at_its_fixed_point(monkeypatch):
    applications = []  # each application of A^T A is one A and one A^T product
    matvec = SparseMatrix.matvec

    def counted_matvec(A, x):
        applications.append(x)
        return matvec(A, x)

    monkeypatch.setattr(SparseMatrix, "matvec", counted_matvec)
    for geom in (TomoGeometry(16, 24, 20), TomoGeometry(32, 60, 45)):
        A = build_parallel_tomo(geom)
        reference = power_method_100(A)
        applications.clear()
        assert A.norm2_estimate() == reference  # bit for bit
    assert 2 * len(applications) <= 60  # at m=32
    assert SparseMatrix.from_dense(np.zeros((3, 2))).norm2_estimate() == 0.0


def test_column_sums_of_squares_match_the_dense_sums_and_are_cached():
    rng = np.random.default_rng(2)
    for rows, cols in ((1, 1), (9, 6), (40, 25)):
        dense, A = random_sparse(rng, rows, cols)
        c = A.column_sums_of_squares()
        np.testing.assert_allclose(c, (dense**2).sum(0), rtol=1e-12, atol=0.0)
        assert A.column_sums_of_squares() is c and not c.flags.writeable
    A = build_parallel_tomo(TomoGeometry(16, 20, 24))
    np.testing.assert_allclose(A.column_sums_of_squares(), (A.to_dense()**2).sum(0),
                               rtol=1e-12, atol=0.0)


def test_column_sums_of_squares_at_m64_take_several_small_passes():
    A = build_parallel_tomo(TomoGeometry(64, 120, 90))
    assert A.nnz > 10 * 65536  # more than ten chunks
    tracemalloc.start()
    try:
        c = A.column_sums_of_squares()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < A.nnz * 4  # one pass over all entries would need about 16 bytes each
    one_pass = np.bincount(A.col_indices, weights=A.values**2, minlength=A.n_cols)
    np.testing.assert_allclose(c, one_pass, rtol=1e-12, atol=0.0)


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


def test_cg_max_iter_returns_the_last_iterate_and_its_model():
    d = np.array([1.0, 4.0])
    result = cg_solve(lambda v: d * v, d, max_iter=1)
    assert not result.converged
    assert result.iterations == 1
    step = (d @ d) / (d @ (d * d))
    np.testing.assert_allclose(result.x, step * d, rtol=1e-15)
    # CG lowers the model at every iteration, so a capped solve's last
    # iterate is its best point, even where its residual norm has risen
    d = np.geomspace(1.0, 1e4, 120)
    b = np.ones(120)
    models = []
    for k in range(1, 241):
        result = cg_solve(lambda v: d * v, b, tol=1e-12, max_iter=k)
        assert result.iterations == k
        direct = 0.5 * result.x @ (d * result.x) - b @ result.x
        assert abs(result.model - direct) <= 1e-12 * max(1.0, abs(result.model))
        models.append(result.model)
    assert all(b < a for a, b in zip(models, models[1:]))


def reference_cg(apply_op, b, tol=1e-10, max_iter=None):
    """The CG loop without the radius option, kept as the reference that
    radius-free solves and solves in a ball no iterate leaves must equal;
    returns the last iterate."""
    n = b.size
    max_iter = 2 * n if max_iter is None else max_iter
    x = np.zeros(n)
    target = tol * np.linalg.norm(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    k = 0
    while k < max_iter and np.sqrt(rs) > target:
        Ap = apply_op(p)
        step = rs / float(p @ Ap)
        x = x + step * p
        k += 1
        r = b - apply_op(x) if k % 50 == 0 else r - step * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, np.sqrt(rs) <= target, k


def spd_cases():
    """(operator, b, cg_solve keywords): the SPD solves of the tests above,
    and one long enough to recompute its residual."""
    rng = np.random.default_rng(3)
    dense, A = random_sparse(rng, 20, 20, density=0.8)
    g = np.abs(rng.standard_normal(20)) + 0.1
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((30, 30)))
    M = q @ np.diag(np.random.default_rng(5).uniform(1.0, 10.0, 30)) @ q.T
    d = np.geomspace(1.0, 1e4, 120)
    return [
        (lambda v: v, np.array([1.0, 2.0, 3.0]), {}),
        (lambda v: np.array([1.0, 4.0]) * v, np.array([1.0, 4.0]), {}),
        (lambda v: g * A.transpose_matvec(A.matvec(g * v)) + 0.05 * v,
         rng.standard_normal(20), {"tol": 1e-12}),
        (lambda v: M @ v, rng.standard_normal(30), {"tol": 0.0, "max_iter": 30}),
        (lambda v: np.array([1.0, 4.0]) * v, np.array([1.0, 4.0]), {"max_iter": 1}),
        (lambda v: d * v, np.ones(120), {"tol": 1e-12}),
    ]


@pytest.mark.parametrize("case", range(len(spd_cases())))
def test_cg_without_a_radius_or_in_a_wide_ball_matches_the_reference(case):
    op, b, kwargs = spd_cases()[case]
    want_x, want_converged, want_iterations = reference_cg(op, b, **kwargs)
    for radius in (None, 1e100):
        result = cg_solve(op, b, radius=radius, **kwargs)
        np.testing.assert_array_equal(result.x, want_x)
        assert (result.converged, result.iterations) == (want_converged, want_iterations)
        assert not result.on_boundary
    assert case < len(spd_cases()) - 1 or want_iterations > 50  # the recompute path ran


def quadratic(H, b, x):
    return 0.5 * x @ H @ x - b @ x


@pytest.mark.parametrize("case", range(len(spd_cases())))
def test_cg_with_a_unit_diagonal_is_plain_cg(case):
    op, b, kwargs = spd_cases()[case]
    plain = cg_solve(op, b, **kwargs)
    result = cg_solve(op, b, diagonal=np.ones(b.size), **kwargs)
    np.testing.assert_array_equal(result.x, plain.x)
    assert (result.converged, result.iterations, result.model, result.on_boundary) == \
        (plain.converged, plain.iterations, plain.model, plain.on_boundary)


def test_cg_with_the_jacobi_diagonal_converges_in_fewer_iterations():
    # eigenvalues spread over 1..1e4 that a diagonal scaling almost removes
    rng = np.random.default_rng(4)
    u = rng.standard_normal(120)
    H = np.diag(np.geomspace(1.0, 1e4, 120)) + 0.1 * np.outer(u, u)
    b = rng.standard_normal(120)
    tol = 1e-10
    plain = cg_solve(lambda v: H @ v, b, tol=tol)
    result = cg_solve(lambda v: H @ v, b, tol=tol, diagonal=np.diag(H).copy())
    assert result.converged and result.iterations < plain.iterations
    assert result.iterations <= 10
    assert np.linalg.norm(b - H @ result.x) <= tol * np.linalg.norm(b)
    assert result.model == pytest.approx(quadratic(H, b, result.x), rel=1e-10)
    assert not result.on_boundary


@pytest.mark.filterwarnings("error")
def test_cg_rejects_a_diagonal_that_is_not_positive_finite_and_of_length_n():
    b = np.ones(3)
    for diagonal in (np.array([1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0]),
                     np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf, 1.0]),
                     np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3))):
        with pytest.raises(ValueError, match="diagonal must be a positive, finite array "
                                             "of length 3"):
            cg_solve(lambda v: v, b, diagonal=diagonal)
    with pytest.raises(ValueError, match="diagonal cannot be combined with radius"):
        cg_solve(lambda v: v, b, radius=1.0, diagonal=np.ones(3))


def test_cg_with_a_radius_stops_on_the_sphere_at_non_positive_curvature():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    H = (q * np.linspace(-1.0, 3.0, 12)) @ q.T
    b = rng.standard_normal(12)
    with pytest.raises(CurvatureError):
        cg_solve(lambda v: H @ v, b)
    for radius in (0.3, 5.0, 1e3):
        result = cg_solve(lambda v: H @ v, b, radius=radius)
        assert result.on_boundary and result.converged
        assert abs(np.linalg.norm(result.x) - radius) <= 1e-12 * radius
        assert result.model == pytest.approx(quadratic(H, b, result.x), rel=1e-10)
    # curvature met on the first direction b: the step is b scaled to the sphere
    result = cg_solve(lambda v: np.array([1.0, -1.0]) * v, np.array([1.0, 1.0]), radius=2.0)
    np.testing.assert_allclose(result.x, [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-15)
    assert result.iterations == 1


@pytest.mark.parametrize("radius, on_boundary", [(1e3, False), (0.05, True)])
def test_cg_model_value_matches_the_quadratic(radius, on_boundary):
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    H = (q * np.geomspace(1.0, 100.0, 30)) @ q.T
    b = rng.standard_normal(30)
    result = cg_solve(lambda v: H @ v, b, tol=1e-12, radius=radius)
    assert result.on_boundary == on_boundary and result.converged
    assert result.model == pytest.approx(quadratic(H, b, result.x), rel=1e-10)
    if on_boundary:
        assert abs(np.linalg.norm(result.x) - radius) <= 1e-12 * radius


@pytest.mark.filterwarnings("error")
def test_cg_rejects_a_radius_that_is_not_positive():
    # nor one whose square overflows, which would make the model value NaN
    for radius in (0.0, -1.0, float("nan"), 1e200, np.inf):
        with pytest.raises(ValueError, match="radius must be positive.*" + re.escape(repr(radius))):
            cg_solve(lambda v: np.array([1.0, -1.0]) * v, np.array([1.0, 1.0]), radius=radius)


@pytest.mark.filterwarnings("error")
def test_cg_boundary_model_stays_finite_at_a_huge_radius():
    # tau is about 7e155 here, so tau^2 alone would overflow
    result = cg_solve(lambda v: np.array([1.0, -1.0]) * v, np.array([1e-3, 1e-3]),
                      radius=1e153)
    assert result.on_boundary
    assert np.isfinite(result.model) and result.model == pytest.approx(-2.17e289, rel=1e-3)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="length >= 1"):
        as_vector([])
    with pytest.raises(ValueError, match="NaN or infinite"):
        as_vector([1.0, np.inf])
