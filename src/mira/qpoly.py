"""Linearized polynomials: annihilator construction and evaluation.

A monic q-polynomial of q-degree r is L(X) = X^(q^r) + sum_i beta_i X^(q^i),
stored as the coefficient stack ``beta`` of shape (r, m) over GF(q^m) (the
leading term is implicit).  The annihilator of an r-dimensional GF(q)-sub-
space U is the unique such L vanishing exactly on U.
"""

from dataclasses import dataclass

import numpy as np


class SupportDimensionError(ValueError):
    """Raised when the span of the given elements is not of the stated dimension."""


@dataclass
class QPolynomial:
    r: int
    beta: np.ndarray  # (r, m) coefficients beta_0..beta_{r-1}


def fq_basis(base, elems, expected_dim=None):
    """Greedy basis of the GF(q)-span of elems (rows), in first-seen order."""
    elems = np.asarray(elems, np.uint8)
    m = elems.shape[1]
    basis = []
    reduced = np.zeros((0, m), np.uint8)  # row echelon, pivot-normalized
    pivots = []
    for row in elems:
        v = row.copy()
        for rr, pc in zip(reduced, pivots):
            if v[pc]:
                v = base.sub(v, base.mul(v[pc], rr))
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            continue
        piv = nz[0]
        basis.append(row.copy())
        reduced = np.concatenate([reduced, base.mul(base.inv(v[piv]), v)[None, :]])
        pivots.append(piv)
    if expected_dim is not None and len(basis) != expected_dim:
        raise SupportDimensionError(
            f"span has dimension {len(basis)}, expected {expected_dim}")
    return basis


def annihilator(ext, support, r):
    """Monic q-polynomial of q-degree r vanishing on the span of ``support``.

    Built iteratively over a basis (b_1..b_r): starting from L_0(X) = X,
    L_{i+1}(X) = L_i(X)^q - L_i(b_{i+1})^(q-1) * L_i(X).  Each step doubles
    the root space by b_{i+1}, giving the same polynomial as the product
    over all q^r span elements without enumerating them.
    """
    basis = fq_basis(ext.base, support, expected_dim=r)
    coeffs = [ext.one()]  # L_0(X) = X
    for b in basis:
        lb = evaluate_coeffs(ext, coeffs, b)
        if ext.is_zero(lb):  # pragma: no cover - basis rows are independent
            raise SupportDimensionError("basis element already a root")
        scale = ext.pow(lb, ext.q - 1)
        nxt = [ext.zero() for _ in range(len(coeffs) + 1)]
        for t, c in enumerate(coeffs):
            nxt[t + 1] = ext.add(nxt[t + 1], ext.frob(c, 1))
            nxt[t] = ext.sub(nxt[t], ext.mul(scale, c))
        coeffs = nxt
    assert np.array_equal(coeffs[-1], ext.one())
    return QPolynomial(r=r, beta=np.stack(coeffs[:-1]) if r else np.zeros((0, ext.m), np.uint8))


def evaluate_coeffs(ext, coeffs, x):
    """Evaluate sum_t coeffs[t] * x^(q^t) (coeffs is a full list, ascending)."""
    acc = ext.zero()
    xp = np.asarray(x, np.uint8)
    for t, c in enumerate(coeffs):
        if t:
            xp = ext.frob(xp, 1)
        acc = ext.add(acc, ext.mul(c, xp))
    return acc
