"""Property tests of the linear-algebra layer: the adjoint identity, CG on
random SPD operators, and the norm estimate behind omega = "auto"."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsenewton import SparseMatrix, cg_solve

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def sparse_matrices(draw, max_side=8):
    """A SparseMatrix built from CSR arrays (unsorted and repeated column
    indices included), together with its dense equivalent."""
    n_rows = draw(st.integers(1, max_side))
    n_cols = draw(st.integers(1, max_side))
    counts = draw(st.lists(st.integers(0, 2 * n_cols), min_size=n_rows, max_size=n_rows))
    nnz = sum(counts)
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    values = draw(st.lists(entries, min_size=nnz, max_size=nnz))
    A = SparseMatrix(n_rows, n_cols, np.concatenate([[0], np.cumsum(counts)]), cols, values)
    dense = np.zeros((n_rows, n_cols))
    rows = np.repeat(np.arange(n_rows), counts)
    np.add.at(dense, (rows, np.asarray(cols, dtype=int)), values)
    return A, dense


@PROPERTY_SETTINGS
@given(st.data())
def test_products_satisfy_the_adjoint_identity(data):
    A, dense = data.draw(sparse_matrices())
    x = data.draw(arrays(np.float64, A.n_cols, elements=entries))
    y = data.draw(arrays(np.float64, A.n_rows, elements=entries))
    np.testing.assert_allclose(A.matvec(x), dense @ x, rtol=1e-12, atol=1e-10)
    gap = abs(A.matvec(x) @ y - x @ A.transpose_matvec(y))
    # rounding of the two dot products, each bounded by |y|^T |A| |x|
    scale = np.abs(y) @ np.abs(dense) @ np.abs(x)
    assert gap <= 1e-13 * scale + 1e-300


@PROPERTY_SETTINGS
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       condition=st.floats(1.0, 1e4), tol=st.sampled_from([1e-2, 1e-6, 1e-10]))
def test_cg_reaches_tol_on_random_spd_operators(n, seed, condition, tol):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = np.geomspace(1.0, condition, n)
    H = (q * eigenvalues) @ q.T
    b = rng.standard_normal(n)
    result = cg_solve(lambda v: H @ v, b, tol=tol)
    assert result.converged
    assert result.iterations <= 2 * n
    # the recurrence residual CG stops on tracks the true one to rounding
    residual = np.linalg.norm(H @ result.x - b)
    assert residual <= tol * np.linalg.norm(b) + 1e-12 * condition * np.linalg.norm(b)


@PROPERTY_SETTINGS
@given(st.data())
def test_norm_estimate_stays_below_the_norm_and_its_one_inf_bound(data):
    A, dense = data.draw(sparse_matrices())
    estimate = A.norm2_estimate()
    one_inf = np.sqrt(np.abs(dense).sum(axis=0).max() * np.abs(dense).sum(axis=1).max())
    # power iteration approaches ||A||_2 from below, and ||A||_2 <= sqrt(||A||_1 ||A||_inf)
    assert estimate <= np.linalg.norm(dense, 2) * (1 + 1e-12) + 1e-300
    assert estimate <= one_inf * (1 + 1e-12) + 1e-300
