"""Property tests: the adjoint identity, CG on random SPD operators, CG in a
trust region on random symmetric ones and the norm estimate behind omega =
"auto"; the identities of the substitution N and the bound on its smoothing
N_eps; and the inclusive discrepancy boundary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsenewton import (
    SparseMatrix,
    TransformSpec,
    apply_N,
    apply_N_eps,
    apply_N_inverse,
    cg_solve,
    check_discrepancy,
)

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


def assert_adjoint_identity(A, x, y):
    gap = abs(A.matvec(x) @ y - x @ A.transpose_matvec(y))
    # rounding of the sums the two products form, each bounded by |y|^T M |x|
    # with M summing the absolute stored entries of each cell: stored entries
    # that share a cell can cancel in the dense matrix, not in those sums
    magnitudes = np.zeros((A.n_rows, A.n_cols))
    rows = np.repeat(np.arange(A.n_rows), np.diff(A.row_offsets))
    np.add.at(magnitudes, (rows, A.col_indices), np.abs(A.values))
    scale = np.abs(y) @ magnitudes @ np.abs(x)
    assert gap <= 1e-13 * scale + 1e-300


@PROPERTY_SETTINGS
@given(st.data())
def test_products_satisfy_the_adjoint_identity(data):
    A, dense = data.draw(sparse_matrices())
    x = data.draw(arrays(np.float64, A.n_cols, elements=entries))
    y = data.draw(arrays(np.float64, A.n_rows, elements=entries))
    np.testing.assert_allclose(A.matvec(x), dense @ x, rtol=1e-12, atol=1e-10)
    assert_adjoint_identity(A, x, y)


def test_the_adjoint_identity_holds_where_stored_entries_cancel():
    # row 0 stores 1 and -1 in column 0, so the dense matrix is [[0, 1], [0, 0]]
    # and bounds the rounding by 4.65e-58; but A x rounds the tiny x[1] away
    # against 1, while A^T y sums column 0 to exactly 0 and keeps it
    A = SparseMatrix(2, 2, [0, 3, 3], [0, 1, 0], [1.0, 1.0, -1.0])
    x, y = np.array([1.0, 4.65e-45]), np.array([1.0, 1.0])
    assert abs(A.matvec(x) @ y - x @ A.transpose_matvec(y)) > 1e-13 * 4.65e-45
    assert_adjoint_identity(A, x, y)


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
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       condition=st.floats(1.0, 1e4))
def test_cg_lowers_the_model_at_every_iteration(n, seed, condition):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * np.geomspace(1.0, condition, n)) @ q.T
    b = rng.standard_normal(n)
    models = [0.0]  # q(0)
    for k in range(1, 2 * n + 1):
        result = cg_solve(lambda v: H @ v, b, tol=1e-10, max_iter=k)
        if result.iterations < k:
            break  # converged in fewer than k iterations
        assert result.model == pytest.approx(0.5 * result.x @ H @ result.x - b @ result.x,
                                             rel=1e-8, abs=1e-12)
        models.append(result.model)
    # once the residual is near rounding, a step may lower q by less than an ulp
    assert models[1] < models[0]
    assert all(later <= earlier for earlier, later in zip(models, models[1:]))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), lowest=st.floats(-1.0, 1.0),
       radius=st.floats(1e-3, 1e3))
def test_cg_in_a_ball_stays_in_it_and_lowers_the_model(n, seed, lowest, radius):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * np.linspace(lowest, 2.0, n)) @ q.T  # indefinite when lowest < 0
    b = rng.standard_normal(n)
    result = cg_solve(lambda v: H @ v, b, tol=1e-8, radius=radius)
    assert np.linalg.norm(result.x) <= radius * (1 + 1e-12)
    assert result.model < 0.0
    direct = 0.5 * result.x @ H @ result.x - b @ result.x
    assert abs(result.model - direct) <= 1e-9 * (abs(direct) + radius * np.linalg.norm(b))


@PROPERTY_SETTINGS
@given(st.data())
def test_norm_estimate_stays_below_the_norm_and_its_one_inf_bound(data):
    A, dense = data.draw(sparse_matrices())
    estimate = A.norm2_estimate()
    one_inf = np.sqrt(np.abs(dense).sum(axis=0).max() * np.abs(dense).sum(axis=1).max())
    # power iteration approaches ||A||_2 from below, and ||A||_2 <= sqrt(||A||_1 ||A||_inf)
    assert estimate <= np.linalg.norm(dense, 2) * (1 + 1e-12) + 1e-300
    assert estimate <= one_inf * (1 + 1e-12) + 1e-300


# zero, or magnitudes whose squares neither underflow nor overflow
components = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))
vectors = arrays(np.float64, st.integers(1, 20), elements=components)


@PROPERTY_SETTINGS
@given(x=vectors)
def test_substitution_turns_squares_into_l1_and_inverts(x):
    np.testing.assert_allclose(np.sum(np.abs(apply_N(x))), x @ x, rtol=1e-13)
    np.testing.assert_allclose(apply_N_inverse(apply_N(x)), x, rtol=1e-15)


@PROPERTY_SETTINGS
@given(x=vectors, eps=st.floats(1e-6, 10.0))
def test_smoothing_stays_within_seven_thirds_eps(x, eps):
    gap = np.linalg.norm(apply_N(x) - apply_N_eps(TransformSpec(eps), x))
    assert gap <= (7.0 / 3.0) * eps * np.linalg.norm(x) * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(tau=st.floats(1.0, 10.0, exclude_min=True), delta=st.floats(0.0, 1e6))
def test_discrepancy_boundary_is_inclusive(tau, delta):
    assert check_discrepancy(tau * delta, tau, delta)
    assert not check_discrepancy(np.nextafter(tau * delta, np.inf), tau, delta)
