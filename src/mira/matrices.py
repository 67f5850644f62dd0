"""Matrices over GF(q): rank, rank-bounded sampling, column embedding.

A matrix is a plain numpy uint8 array of shape (rows, cols).  The column
embedding identifies column j with the extension field element whose
coefficient vector (ascending basis order) is that column, so an (m, n)
matrix maps to n elements of GF(q^m).
"""

import numpy as np


def rank(field, mat):
    """Row echelon rank via Gaussian elimination, first nonzero pivot."""
    a = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = field.mul(field.inv(a[r, c]), a[r])
        mask = a[:, c].copy()
        mask[r] = 0
        nz = np.nonzero(mask)[0]
        if len(nz):
            a[nz] = field.sub(a[nz], field.mul(mask[nz, None], a[r][None, :]))
        r += 1
        if r == rows:
            break
    return r


def sample_rank_bounded(field, m, n, r, sampler):
    """Sample E = A @ B with A (m, r), B (r, n); retry until rank(E) == r.

    The factorization alone only bounds the rank by r; a handful of retries
    (rank-drop probability is about q^-(m-r+1)) pins it exactly, which the
    annihilator construction downstream requires.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError("need 1 <= r <= min(m, n)")
    while True:
        a = sampler.matrix(m, r)
        b = sampler.matrix(r, n)
        e = field.matmul(a, b)
        if rank(field, e) == r:
            return e


def columns_to_ext(mat):
    """(m, n) matrix -> (n, m) array of extension element coefficients."""
    return np.ascontiguousarray(np.asarray(mat, np.uint8).T)
