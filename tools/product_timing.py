"""Time the A x / A^T y layer: milliseconds per SparseMatrix product on the
benchmark workloads' projectors.

    PYTHONPATH=src python tools/product_timing.py --rounds 30 --calls 100

For the m = 32 projector (32/60/45, desk-sweep's, below
``linalg._SPLIT_NNZ``: one block) and the m = 64 projector (64/120/90,
lownoise-m64's, above it: two row blocks) it prints the median over the
rounds of the milliseconds per ``matvec`` and per ``transpose_matvec`` call
in three ways:

- ``pool``: as a sweep runs them, the second block on the worker thread
  (absent when the process may use only one CPU, which starts no pool);
- ``caller``: with ``linalg._halves_pool = None``, every block in the
  calling thread;
- ``scipy``: scipy's public one-pass product of the same arrays,
  ``csr @ x`` and ``csr.T @ y``, the reference.

Each round times ``--calls`` calls of each product in each way, one way
after the other, so that a change in the host's load falls on all of them.
Run it once against each of two source trees (``PYTHONPATH=<tree>/src``) to
size a change to the products.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse

from sparsenewton import TomoGeometry, build_parallel_tomo, linalg

GEOMETRIES = (TomoGeometry(32, 60, 45), TomoGeometry(64, 120, 90))


def per_call_ms(product, v, calls: int) -> float:
    """Milliseconds per call of product(v), over calls calls."""
    start = perf_counter()
    for _ in range(calls):
        product(v)
    return (perf_counter() - start) * 1e3 / calls


def time_products(A, rounds: int, calls: int) -> dict:
    """{(way, product name): median ms per call} for A's two products."""
    csr = scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets), shape=A.shape)
    pool = linalg._halves_pool
    ways = {"caller": (A.matvec, A.transpose_matvec),
            "scipy": (csr.__matmul__, csr.T.__matmul__)}
    if pool is not None:
        ways = {"pool": ways["caller"], **ways}
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)
    samples = {(way, name): [] for way in ways for name in ("matvec", "transpose_matvec")}
    try:
        for _ in range(rounds):
            for way, (matvec, transpose_matvec) in ways.items():
                linalg._halves_pool = None if way == "caller" else pool
                samples[way, "matvec"].append(per_call_ms(matvec, x, calls))
                samples[way, "transpose_matvec"].append(per_call_ms(transpose_matvec, y, calls))
    finally:
        linalg._halves_pool = pool
    return {key: statistics.median(ms) for key, ms in samples.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=30, help="rounds per projector")
    parser.add_argument("--calls", type=int, default=100, help="calls per product per round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")
    print(f"median ms per call over {args.rounds} rounds of {args.calls} calls"
          + ("" if linalg._halves_pool is not None else "; one CPU, so no pool"))
    for geometry in GEOMETRIES:
        A = build_parallel_tomo(geometry)
        blocks = 2 if A.nnz >= linalg._SPLIT_NNZ else 1
        print(f"m={geometry.m} ({geometry.m}/{geometry.n_angles}/{geometry.n_beams}), "
              f"nnz {A.nnz:,}, {blocks} block{'s' * (blocks > 1)}")
        for (way, name), ms in time_products(A, args.rounds, args.calls).items():
            print(f"  {name:<17} {way:<7} {ms:.4f}")


if __name__ == "__main__":
    main()
