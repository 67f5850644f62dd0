"""Linearized polynomials: annihilator construction.

A monic q-polynomial of q-degree r is L(X) = X^(q^r) + sum_i beta_i X^(q^i),
held as the coefficient stack beta of shape (r, m) over GF(q^m): the
leading term is implicit and r is len(beta).  The annihilator of an
r-dimensional GF(q)-subspace U is the unique such L vanishing exactly on U.
"""

import numpy as np

from .matrices import pivot_columns


class SupportDimensionError(ValueError):
    """Raised when the span of the given elements is not of the stated dimension."""


def annihilator(ext, support, r):
    """beta (r, m) of the monic q-polynomial of q-degree r vanishing on ``support``'s span.

    Built iteratively over a basis (b_1..b_r): starting from M_0(X) = X,
    M_{i+1}(X) = w M_i(X)^q - w^q M_i(X) with w = M_i(b_{i+1}) != 0.  Each
    step doubles the root space by b_{i+1}, giving the same roots as the
    product over all q^r span elements without enumerating them.  M_i is a
    nonzero multiple of the monic annihilator of b_1..b_i, so one division
    by the leading coefficient at the end gives the result.  The powers
    b_j^(q^t), t < r, come from one ``frob`` up front, and the coefficients
    stay one (i+1, m) stack: a step is one ``dot`` for w, one ``frob`` of
    the stacked [M_i; w] and one ``mul`` of the stacked pair, with no
    exponentiation.

    The basis is the support elements at the pivot columns of the (m, n)
    matrix they form, from ``matrices.pivot_columns``, the one exact rank
    path, which keygen's rank check also runs when its determinant
    shortcut is zero (``SupportDimensionError`` unless there are r of them).
    """
    support = np.asarray(support, np.uint8)
    basis = support[pivot_columns(ext.base, support.T)]
    if len(basis) != r:
        raise SupportDimensionError(f"span has dimension {len(basis)}, expected {r}")
    powers = ext.frob(basis, range(r))    # [t, j] = b_j^(q^t)
    coeffs = ext.one(1)  # M_0(X) = X
    for j in range(r):
        w = ext.dot(coeffs, powers[:len(coeffs), j], axis=0)
        if ext.is_zero(w):  # pragma: no cover - basis rows are independent
            raise SupportDimensionError("basis element already a root")
        conj = ext.frob(np.concatenate([coeffs, w[None]]), 1)    # [M_i^q; w^q]
        # [w M_i^q; w^q M_i] from one product
        prods = ext.mul(np.stack([conj[:-1], coeffs]), np.stack([w, conj[-1]])[:, None])
        nxt = ext.zero(len(coeffs) + 1)
        nxt[1:] = prods[0]
        nxt[:-1] = ext.sub(nxt[:-1], prods[1])
        coeffs = nxt
    return ext.mul(coeffs[:-1], ext.inv(coeffs[-1]))
