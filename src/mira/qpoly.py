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
    over all q^r span elements without enumerating them.  The coefficients
    stay one (i+1, m) stack, so a step is one ``frob`` and one ``mul``.
    """
    basis = fq_basis(ext.base, support, expected_dim=r)
    coeffs = ext.one(1)  # L_0(X) = X
    for b in basis:
        lb = evaluate_coeffs(ext, coeffs, b)
        if ext.is_zero(lb):  # pragma: no cover - basis rows are independent
            raise SupportDimensionError("basis element already a root")
        nxt = ext.zero(len(coeffs) + 1)
        nxt[1:] = ext.frob(coeffs, 1)
        nxt[:-1] = ext.sub(nxt[:-1], ext.mul(ext.pow(lb, ext.q - 1), coeffs))
        coeffs = nxt
    assert np.array_equal(coeffs[-1], ext.one())
    return QPolynomial(r=r, beta=coeffs[:-1])


def evaluate_coeffs(ext, coeffs, x):
    """Evaluate sum_t coeffs[t] * x^(q^t) for a (k, m) coefficient stack."""
    x = np.asarray(x, np.uint8)
    powers = np.stack([ext.frob(x, t) for t in range(len(coeffs))])
    return ext.dot(coeffs, powers, axis=0)
