"""Matrices over GF(q): pivot columns and rank, small determinants,
rank-bounded sampling, column embedding.

A matrix is a plain numpy uint8 array of shape (rows, cols).  The column
embedding identifies column j with the extension field element whose
coefficient vector (ascending basis order) is that column, so an (m, n)
matrix maps to n elements of GF(q^m).

``pivot_columns`` is the one exact rank path.  Keygen's rank check first
tries a shortcut: E = A B has rank at most r, so a nonzero determinant of
its leading r x r block (``determinant``, a Leibniz sum of at most 6!
products) already proves rank r, and the elimination runs only when that
determinant is zero.
"""

import functools
import itertools

import numpy as np

# the largest block ``determinant`` takes: 6! = 720 products, and every
# shipped set has r <= 6
_LEIBNIZ_MAX_R = 6


def pivot_columns(field, mat):
    """Pivot columns of the row echelon form of ``mat`` (Gaussian elimination,
    first nonzero pivot): in order, the columns that are not combinations of
    the columns before them.  This is the one GF(q) elimination of the
    package: the annihilator's basis, Rabin's test and keygen's rank check
    when its determinant shortcut fails all use it."""
    a = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
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
        pivots.append(c)
    return pivots


def rank(field, mat):
    """Rank over GF(q): the number of pivot columns."""
    return len(pivot_columns(field, mat))


@functools.cache
def _leibniz_terms(r):
    """Flat positions (i, sigma(i)) of the r! Leibniz terms of an (r, r)
    block, one row per permutation sigma, the even ones first; and the
    number of even ones.  The parity is the inversion count of every
    permutation at once."""
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(r))),
                        np.intp).reshape(-1, r)
    i, j = np.triu_indices(r, 1)
    odd = (perms[:, i] > perms[:, j]).sum(axis=1) % 2
    order = np.argsort(odd, kind="stable")
    return perms[order] + r * np.arange(r), len(odd) - int(odd.sum())


def determinant(field, block):
    """Determinant over GF(q) of an (r, r) block, 1 <= r <= 6.

    The Leibniz sum over all r! permutations at once: r - 1 ``field.mul``
    give every product, ``field.axis_sum`` adds the even and the odd half,
    and ``field.sub`` takes their difference, so GF(2^d) and GF(p) share
    the code.  The term table is built once per r.
    """
    r = len(block)
    if not 1 <= r <= _LEIBNIZ_MAX_R:
        raise ValueError(f"need 1 <= r <= {_LEIBNIZ_MAX_R}")
    index, even = _leibniz_terms(r)
    terms = np.asarray(block, np.uint8).reshape(-1)[index]      # (r!, r)
    prod = terms[:, 0]
    for col in terms.T[1:]:
        prod = field.mul(prod, col)
    return field.sub(field.axis_sum(prod[:even]), field.axis_sum(prod[even:]))


def sample_rank_bounded(field, m, n, r, sampler):
    """Sample E = A @ B with A (m, r), B (r, n); retry until rank(E) == r.

    The factorization alone only bounds the rank by r.  The rank drops when
    either factor does, with probability about q^-(m-r+1) + q^-(n-r+1), and
    a retry then pins it exactly, which the annihilator construction
    downstream requires.  A nonzero determinant of E's leading r x r block
    proves rank r, so the elimination runs only when that determinant is
    zero (the leading block of A or of B is singular: about 13 % of draws
    over GF(16), under 1 % over GF(251)) or when r > 6.  Every draw gets
    the accept or retry decision of the elimination alone.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError("need 1 <= r <= min(m, n)")
    while True:
        a = sampler.matrix(m, r)
        b = sampler.matrix(r, n)
        e = field.matmul(a, b)
        if (r <= _LEIBNIZ_MAX_R and determinant(field, e[:r, :r])) or rank(field, e) == r:
            return e


def columns_to_ext(mat):
    """(m, n) matrix -> (n, m) array of extension element coefficients."""
    return np.ascontiguousarray(np.asarray(mat, np.uint8).T)
