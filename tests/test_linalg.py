"""Sparse matrix products, adjoint consistency, the norm estimate and the CG
inner solver, with property tests of the adjoint identity, the norm estimate
behind omega = "auto", CG on random SPD operators and CG in a trust region
on random symmetric ones."""

import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsenewton import (
    CurvatureError,
    SparseMatrix,
    TomoGeometry,
    as_vector,
    build_parallel_tomo,
    cg_solve,
)
from sparsenewton import linalg
from sparsenewton.linalg import check_number


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


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
    with pytest.raises(ValueError, match="n_rows must be >= 1, got 0"):
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


def test_csr_refuses_a_shape_that_is_not_an_integer():
    for shape, message in (((3.7, 2), "n_rows must be an integer, got 3.7"),
                           ((1, True), "n_cols must be an integer, got True"),
                           ((1, 0), "n_cols must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SparseMatrix(*shape, [0, 1], [0], [1.0])
    A = SparseMatrix(np.int64(1), np.int32(2), [0, 1], [0], [1.0])
    assert A.shape == (1, 2) and type(A.n_rows) is int and type(A.n_cols) is int


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


def public_csr(A):
    """scipy's product of A's public arrays, the one-pass reference."""
    return scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets), shape=A.shape)


@pytest.fixture
def fresh_pool():
    """A one-thread pool like the one linalg starts, shut down afterwards."""
    pool = ThreadPoolExecutor(1, thread_name_prefix="sparsenewton-halves")
    yield pool
    pool.shutdown()


def test_a_large_matrix_multiplies_by_row_halves_at_any_cpu_count(monkeypatch, fresh_pool):
    A = build_parallel_tomo(TomoGeometry(64, 120, 90))
    assert A.nnz >= linalg._SPLIT_NNZ
    k = int(np.searchsorted(A.row_offsets, A.nnz // 2))  # the row that holds entry nnz // 2
    s = A.row_offsets[k]
    top = scipy.sparse.csr_matrix((A.values[:s], A.col_indices[:s], A.row_offsets[:k + 1]),
                                  shape=(k, A.n_cols))
    bottom = scipy.sparse.csr_matrix((A.values[s:], A.col_indices[s:], A.row_offsets[k:] - s),
                                     shape=(A.n_rows - k, A.n_cols))
    rng = np.random.default_rng(21)
    x, y = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)
    whole = public_csr(A)
    one_pass = whole.T @ y
    for pool in (fresh_pool, None):  # the bottom half on the worker thread, then on the caller's
        monkeypatch.setattr(linalg, "_halves_pool", pool)
        np.testing.assert_array_equal(A.matvec(x), whole @ x)
        ATy = A.transpose_matvec(y)
        np.testing.assert_array_equal(ATy, top.T @ y[:k] + bottom.T @ y[k:])
        assert np.abs(ATy - one_pass).max() <= 1e-14 * np.abs(one_pass).max()
        if pool is not None:
            assert any(t.name.startswith("sparsenewton-halves") for t in threading.enumerate())


class RefusingPool:
    """A pool that fails any product handed to it."""

    def submit(self, *args):
        raise AssertionError("a product was handed to the worker thread")


def test_a_small_matrix_multiplies_in_one_pass_on_the_calling_thread(monkeypatch):
    A = build_parallel_tomo(TomoGeometry(32, 60, 45))
    assert A.nnz < linalg._SPLIT_NNZ
    monkeypatch.setattr(linalg, "_halves_pool", RefusingPool())
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)
    whole = public_csr(A)
    np.testing.assert_array_equal(A.matvec(x), whole @ x)
    np.testing.assert_array_equal(A.transpose_matvec(y), whole.T @ y)


class CountingPool:
    """A pool that counts the products handed to it and runs them on pool."""

    def __init__(self, pool):
        self.pool, self.submits = pool, 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


def test_a_matrix_with_split_nnz_entries_splits_and_one_with_fewer_does_not(monkeypatch,
                                                                             fresh_pool):
    # small integer entries and vectors make every sum exact, so the split
    # A^T y equals scipy's one-pass bytes too
    rng = np.random.default_rng(27)
    nnz, n_cols = linalg._SPLIT_NNZ, 1000
    offsets = np.arange(0, nnz + 1, 8)
    cols, vals = rng.integers(0, n_cols, nnz), rng.integers(-8, 9, nnz).astype(float)
    at = SparseMatrix(offsets.size - 1, n_cols, offsets, cols, vals)
    offsets[-1] -= 1
    below = SparseMatrix(offsets.size - 1, n_cols, offsets, cols[:-1], vals[:-1])
    x = rng.integers(-8, 9, n_cols).astype(float)
    y = rng.integers(-8, 9, at.n_rows).astype(float)
    counting = CountingPool(fresh_pool)
    for A, pool in ((at, counting), (below, RefusingPool())):
        monkeypatch.setattr(linalg, "_halves_pool", pool)
        whole = public_csr(A)
        np.testing.assert_array_equal(A.matvec(x), whole @ x)
        np.testing.assert_array_equal(A.transpose_matvec(y), whole.T @ y)
    assert (at.nnz, below.nnz, counting.submits) == (nnz, nnz - 1, 2)  # one block a product


# one block (below linalg._SPLIT_NNZ) and two row blocks (above it)
SWEEP_GEOMETRIES = [TomoGeometry(32, 60, 45), TomoGeometry(64, 120, 90)]


@pytest.mark.parametrize("geom", SWEEP_GEOMETRIES)
def test_every_kernel_call_reads_the_matrix_s_own_arrays(geom, monkeypatch, fresh_pool):
    # the matrix is stored once: each block is a view of the row offsets and
    # reads the whole column and value arrays, with no copy or slice of them
    A = build_parallel_tomo(geom)
    calls = []
    for name in ("csr_matvec", "csc_matvec"):
        def recording(*args, kernel=getattr(linalg, name)):
            calls.append(args)
            kernel(*args)

        monkeypatch.setattr(linalg, name, recording)
    monkeypatch.setattr(linalg, "_halves_pool", fresh_pool)
    A.matvec(np.ones(A.n_cols))
    A.transpose_matvec(np.ones(A.n_rows))
    assert len(calls) == 2 * (1 + (A.nnz >= linalg._SPLIT_NNZ))
    for _, _, Ap, Aj, Ax, _, _ in calls:
        assert Aj is A.col_indices and Ax is A.values
        assert np.shares_memory(Ap, A.row_offsets)


@pytest.mark.parametrize("geom", SWEEP_GEOMETRIES)
def test_each_product_is_a_new_writable_array_of_its_own(geom, monkeypatch, fresh_pool):
    # the kernels add into the output array, so each call must start from a fresh one
    A = build_parallel_tomo(geom)
    rng = np.random.default_rng(24)
    x, y = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)
    for pool in (fresh_pool, None):
        monkeypatch.setattr(linalg, "_halves_pool", pool)
        for product, v in ((A.matvec, x), (A.transpose_matvec, y)):
            first, second = product(v), product(v)
            np.testing.assert_array_equal(first, second)
            for result in (first, second):
                assert result.flags.writeable and result.flags.owndata
                for held in (A.row_offsets, A.col_indices, A.values, v):
                    assert not np.shares_memory(result, held)
            assert not np.shares_memory(first, second)


@pytest.mark.parametrize("geom", SWEEP_GEOMETRIES)
def test_a_strided_vector_multiplies_like_its_contiguous_copy(geom, monkeypatch, fresh_pool):
    A = build_parallel_tomo(geom)
    rng = np.random.default_rng(25)
    x, y = rng.standard_normal(2 * A.n_cols)[::2], rng.standard_normal(2 * A.n_rows)[::2]
    assert not x.flags.c_contiguous and not y.flags.c_contiguous
    for pool in (fresh_pool, None):
        monkeypatch.setattr(linalg, "_halves_pool", pool)
        np.testing.assert_array_equal(A.matvec(x), A.matvec(x.copy()))
        np.testing.assert_array_equal(A.transpose_matvec(y), A.transpose_matvec(y.copy()))


def test_a_one_row_matrix_with_an_empty_second_block_and_an_empty_matrix_match_scipy():
    rng = np.random.default_rng(26)
    n = 600_000  # one row holds every entry, so the second row block has no rows
    wide = SparseMatrix(1, n, np.array([0, n]), np.arange(n), rng.standard_normal(n))
    assert wide.nnz >= linalg._SPLIT_NNZ
    empty = SparseMatrix(3, 5, np.zeros(4, dtype=np.int32), [], [])
    for A in (wide, empty):
        whole = public_csr(A)
        x, y = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)
        np.testing.assert_array_equal(A.matvec(x), whole @ x)
        np.testing.assert_array_equal(A.transpose_matvec(y), whole.T @ y)


def test_products_do_not_count_the_cpus(monkeypatch):
    A = build_parallel_tomo(TomoGeometry(64, 120, 90))
    assert A.nnz >= linalg._SPLIT_NNZ
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: calls.append(pid) or {0, 1},
                        raising=False)
    x = np.linspace(0.0, 1.0, A.n_cols)
    for _ in range(5):  # ten products
        A.transpose_matvec(A.matvec(x))
    assert calls == []


def test_two_threads_multiplying_at_once_get_one_thread_s_results(monkeypatch, fresh_pool):
    # both threads hand their bottom halves to the one worker
    monkeypatch.setattr(linalg, "_halves_pool", fresh_pool)
    A = build_parallel_tomo(TomoGeometry(64, 120, 90))
    assert A.nnz >= linalg._SPLIT_NNZ
    rng = np.random.default_rng(23)
    xs = [rng.standard_normal(A.n_cols) for _ in range(2)]
    expected = [A.transpose_matvec(A.matvec(x)) for x in xs]
    got = [None, None]
    start = threading.Barrier(2)

    def work(i):
        start.wait()
        got[i] = [A.transpose_matvec(A.matvec(xs[i])) for _ in range(20)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "the two threads did not finish within 60 s"
    for i in range(2):
        assert all(np.array_equal(g, expected[i]) for g in got[i])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_child_forked_after_a_large_product_runs_its_own_halves(monkeypatch, fresh_pool):
    # the parent's worker thread does not exist in a forked child, so a child
    # that submitted to the parent's pool would wait for it forever
    monkeypatch.setattr(linalg, "_halves_pool", fresh_pool)
    A = build_parallel_tomo(TomoGeometry(64, 120, 90))
    y = np.linspace(0.0, 1.0, A.n_rows)
    expected = A.transpose_matvec(y)  # starts the parent's worker thread
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            if linalg._halves_pool is fresh_pool:
                code = 3
            else:
                code = 0 if np.array_equal(A.transpose_matvec(y), expected) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the forked child did not finish its product within 60 s"
    # 3: the child kept the parent's pool; 2: its product differed
    assert os.waitstatus_to_exitcode(done[1]) == 0


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


@PROPERTY_SETTINGS
@given(st.data())
def test_norm_estimate_stays_below_the_norm_and_its_one_inf_bound(data):
    A, dense = data.draw(sparse_matrices())
    estimate = A.norm2_estimate()
    one_inf = np.sqrt(np.abs(dense).sum(axis=0).max() * np.abs(dense).sum(axis=1).max())
    # power iteration approaches ||A||_2 from below, and ||A||_2 <= sqrt(||A||_1 ||A||_inf)
    assert estimate <= np.linalg.norm(dense, 2) * (1 + 1e-12) + 1e-300
    assert estimate <= one_inf * (1 + 1e-12) + 1e-300


def power_method_100(A):
    """Power iteration on A^T A from a seed-0 random start, run for all 100
    steps."""
    v = np.random.default_rng(0).standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(100):
        w = A.transpose_matvec(A.matvec(v))
        sigma2 = np.linalg.norm(w)
        v = w / sigma2
    return float(np.sqrt(sigma2))


def test_norm2_estimate_stops_at_its_fixed_point(product_log):
    log = product_log()
    for geom in (TomoGeometry(16, 24, 20), TomoGeometry(32, 60, 45)):
        A = build_parallel_tomo(geom)
        reference = power_method_100(A)
        before = log.products
        assert A.norm2_estimate() == reference  # bit for bit
    assert log.products - before <= 32  # at m=32, from the all-ones start
    assert SparseMatrix.from_dense(np.zeros((3, 2))).norm2_estimate() == 0.0


@pytest.mark.parametrize("geom", [TomoGeometry(32, 60, 45), TomoGeometry(64, 120, 90)])
def test_norm2_estimate_of_a_sweep_projector_stops_where_its_value_repeats(geom, call_log):
    # ISTA's "auto" step 1.7 / ||A||_2^2 passes 2 / ||A||_2^2 once the estimate
    # is 8% low; on the sweep projectors the power loop leaves at a repeated
    # value, not at its 100-iteration cap, and at m = 32 it is the SVD norm
    A = build_parallel_tomo(geom)
    iterations = call_log(SparseMatrix, "transpose_matvec")
    estimate = A.norm2_estimate()
    assert len(iterations) < 100
    if geom.m == 32:
        assert estimate == pytest.approx(np.linalg.norm(A.to_dense(), 2), rel=1e-12)


def test_norm2_estimate_of_a_signed_matrix_keeps_the_random_start():
    # the top right singular vector (1, -1, 0) / sqrt(2), for 2 sqrt(2), is
    # orthogonal to the ones vector, from which the power method finds only
    # the second singular value 1
    dense = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
    assert SparseMatrix.from_dense(dense).norm2_estimate() == pytest.approx(2.0 * np.sqrt(2.0))
    assert SparseMatrix.from_dense([[1.0, -1.0]]).norm2_estimate() == pytest.approx(np.sqrt(2.0))


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


def test_check_number_takes_no_bool_and_holds_its_floor():
    check_number("k", 0, 0)
    check_number("k", np.int64(1), 1, integer=True)
    check_number("x", np.float32(0.5), 0, False)
    check_number("x", 2, 1, False)  # an integer is a number
    for value, options, message in (
        (True, {"integer": True}, "k must be an integer, got True"),
        (False, {}, "k must be a number, got False"),
        (np.True_, {}, f"k must be a number, got {np.True_!r}"),
        (2.0, {"integer": True}, "k must be an integer, got 2.0"),
        ("1", {}, "k must be a number, got '1'"),
        (None, {}, "k must be a number, got None"),
        (float("nan"), {}, "k must be finite, got nan"),
        (-np.inf, {}, "k must be finite, got -inf"),
        (-1, {}, "k must be >= 0, got -1"),
        (-0.0, {}, "k must be >= 0, got -0.0"),
        (0.0, {"floor_allowed": False}, "k must exceed 0, got 0.0"),
        (0, {"integer": True, "floor_allowed": False}, "k must exceed 0, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_number("k", value, 0, **options)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="length >= 1"):
        as_vector([])
    with pytest.raises(ValueError, match="NaN or infinite"):
        as_vector([1.0, np.inf])
