"""Reference helpers the tests share; the library itself never needs them."""

from fractions import Fraction

import numpy as np

from mira.matrices import rank
from mira.params import PARAM_IDS, parameter_set
from mira.sharing import shamir_expand


def all_parameter_sets():
    return [parameter_set(variant, level) for variant, level in PARAM_IDS]


def validate_witness(pk, x):
    """Accept iff rank(M_0 + sum x_i M_i) <= r."""
    ps = pk.params
    x = np.asarray(x, np.uint8)
    if x.shape != (ps.k,):
        raise ValueError("witness length mismatch")
    return rank(ps.base, witness_matrix(pk, x)) <= ps.r


def witness_matrix(pk, x):
    """E = M_0 + sum x_i M_i as an (m, n) matrix."""
    ps = pk.params
    l_rows, m0_flat = pk.matrices()
    e_flat = ps.base.add(m0_flat, ps.base.matmul(np.asarray(x, np.uint8)[None, :], l_rows)[0])
    return e_flat.reshape(ps.m, ps.n)


def leaf_side(leaf, dim):
    """Side (1 or 2) of 1-based ``leaf`` along 1-based ``dim``."""
    return ((leaf - 1) >> (dim - 1) & 1) + 1


def shamir_reconstruct(field, shares, points):
    """Interpolate at zero: shares (..., t, C), points (..., t) -> (..., C)."""
    return shamir_expand(field, shares, points, np.zeros(1, np.uint8))[..., 0, :]


def evaluate(ext, qp, x):
    """L(x) for a single element x of shape (m,)."""
    return evaluate_many(ext, qp, np.asarray(x, np.uint8)[None, :])[0]


def evaluate_many(ext, qp, xs):
    """L applied to a batch (B, m) of elements."""
    xs = np.asarray(xs, np.uint8)
    acc = ext.frob(xs, qp.r)  # leading monic term
    for t in range(qp.r):
        acc = ext.add(acc, ext.mul(qp.beta[t], ext.frob(xs, t)))
    return acc


def mul_matrices_by_shifts(ext, us):
    """(B, m) -> (B, m, m): column t holds us * X^t, built by shift and reduce."""
    base, m = ext.base, ext.m
    cur = np.asarray(us, np.uint8)
    out = np.empty(cur.shape + (m,), np.uint8)
    for t in range(m):
        out[:, :, t] = cur
        top = cur[:, -1:]
        cur = np.concatenate([np.zeros_like(top), cur[:, :-1]], axis=1)
        cur = base.sub(cur, base.mul(top, ext.modulus[:m]))
    return out


def ext_to_columns(vec):
    """Inverse of ``mira.matrices.columns_to_ext``."""
    return np.ascontiguousarray(np.asarray(vec, np.uint8).T)


def gaussian_binomial(m, r, q):
    """Number of r-dimensional subspaces of an m-dimensional space over GF(q)."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    out = Fraction(1)
    for i in range(r):
        out *= Fraction(q ** m - q ** i, q ** r - q ** i)
    assert out.denominator == 1
    return out.numerator
