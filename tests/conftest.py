"""Load mira before any test module imports numpy, so that the package's BLAS
thread cap (``MIRA_THREADS``, one thread by default) holds for the whole run."""

import mira  # noqa: F401

import numpy as np
import pytest

from mira import matrices


@pytest.fixture
def eliminations(monkeypatch):
    """The shapes of the matrices ``matrices.pivot_columns`` is called on,
    in order (``matrices.rank`` goes through it)."""
    calls = []
    original = matrices.pivot_columns

    def spy(field, mat):
        calls.append(np.shape(mat))
        return original(field, mat)

    monkeypatch.setattr(matrices, "pivot_columns", spy)
    return calls
