"""Fixtures shared by the module tests."""

from collections import Counter

import numpy as np
import pytest

from sparsenewton import SparseMatrix


class ProductLog:
    """Counts the A and A^T products made while it is installed, by the bytes
    of the vector each one multiplied: inputs["matvec"] and
    inputs["transpose_matvec"] are Counters of those bytes."""

    def __init__(self, monkeypatch):
        self.inputs = {"matvec": Counter(), "transpose_matvec": Counter()}
        for attr, counter in self.inputs.items():
            product = getattr(SparseMatrix, attr)

            def counted(A, v, product=product, counter=counter):
                counter[np.asarray(v, dtype=np.float64).tobytes()] += 1
                return product(A, v)

            monkeypatch.setattr(SparseMatrix, attr, counted)

    @property
    def products(self):
        return sum(sum(counter.values()) for counter in self.inputs.values())


@pytest.fixture
def product_log(monkeypatch):
    """product_log() installs a ProductLog, which counts until the test ends."""
    return lambda: ProductLog(monkeypatch)
