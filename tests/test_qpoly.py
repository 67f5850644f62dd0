import itertools

import numpy as np
import pytest

from mira.fields import base_field, ext_field
from mira.qpoly import QPolynomial, SupportDimensionError, annihilator, fq_basis

from helpers import evaluate, evaluate_many


def all_elements(ext):
    q, m = ext.q, ext.m
    for digits in itertools.product(range(q), repeat=m):
        yield np.array(digits, np.uint8)


def span(ext, basis):
    """All GF(q)-combinations of the basis elements (q prime or 2^d)."""
    out = []
    for coefs in itertools.product(range(ext.q), repeat=len(basis)):
        acc = ext.zero()
        for c, b in zip(coefs, basis):
            acc = ext.add(acc, ext.base.mul(np.uint8(c), b))
        out.append(acc)
    return out


def product_annihilator_oracle(ext, elems):
    """L(X) as the literal product over all span elements (ordinary poly)."""
    roots = {tuple(e) for e in elems}
    poly = [ext.one()]  # ascending ordinary coefficients, poly = 1
    for root in roots:
        root = np.array(root, np.uint8)
        nxt = [ext.zero() for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            nxt[i + 1] = ext.add(nxt[i + 1], c)
            nxt[i] = ext.sub(nxt[i], ext.mul(root, c))
        poly = nxt
    return poly


def test_annihilator_of_01_over_f8():
    ext = ext_field(2, 3)
    support = np.stack([ext.zero(), ext.one()])
    qp = annihilator(ext, support, 1)
    # L(X) = X^2 + X
    assert np.array_equal(qp.beta, ext.one()[None, :])
    assert ext.is_zero(evaluate(ext, qp, ext.one()))
    assert ext.is_zero(evaluate(ext, qp, ext.zero()))


def test_rank_one_coefficient_formula_q4():
    # beta_0 = -u^(q-1), by expanding prod_{c in F_q} (X - c*u)
    ext = ext_field(4, 3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.integers(0, 4, 3).astype(np.uint8)
        if ext.is_zero(u):
            u[0] = 1
        qp = annihilator(ext, u[None, :], 1)
        expected = ext.neg(ext.pow(u, ext.q - 1))
        assert np.array_equal(qp.beta[0], expected)
        # cross-check the full product really is X^q + beta_0 X
        poly = product_annihilator_oracle(ext, span(ext, [u]))
        assert np.array_equal(poly[1], expected)  # coefficient of X
        assert ext.is_zero(poly[0])


def test_annihilator_vanishes_on_inputs():
    rng = np.random.default_rng(1)
    for q, m, n, r in [(16, 16, 16, 5), (251, 12, 13, 5), (2, 4, 6, 2)]:
        ext = ext_field(q, m)
        basis = rng.integers(0, q, (r, m)).astype(np.uint8)
        while len(fq_basis(ext.base, basis)) != r:
            basis = rng.integers(0, q, (r, m)).astype(np.uint8)
        combos = rng.integers(0, q, (n, r)).astype(np.uint8)
        elems = np.stack([
            ext.base.axis_sum(ext.base.mul(combos[j][:, None], basis), axis=0)
            for j in range(n)])
        if len(fq_basis(ext.base, elems)) != r:
            continue
        qp = annihilator(ext, elems, r)
        assert not evaluate_many(ext, qp, elems).any()


def test_evaluate_basics_and_linearity():
    ext = ext_field(2, 3)
    qp = annihilator(ext, np.stack([ext.zero(), ext.one()]), 1)
    assert ext.is_zero(evaluate(ext, qp, ext.zero()))
    assert ext.is_zero(evaluate(ext, qp, ext.one()))

    rng = np.random.default_rng(2)
    ext = ext_field(16, 16)
    beta = rng.integers(0, 16, (3, 16)).astype(np.uint8)
    qp = QPolynomial(r=3, beta=beta)
    x = rng.integers(0, 16, 16).astype(np.uint8)
    y = rng.integers(0, 16, 16).astype(np.uint8)
    for _ in range(20):
        al, be = rng.integers(0, 16, 2)
        lin = ext.add(ext.base.mul(np.uint8(al), x), ext.base.mul(np.uint8(be), y))
        lhs = evaluate(ext, qp, lin)
        rhs = ext.add(ext.base.mul(np.uint8(al), evaluate(ext, qp, x)),
                      ext.base.mul(np.uint8(be), evaluate(ext, qp, y)))
        assert np.array_equal(lhs, rhs)


def test_roots_are_exactly_the_span():
    rng = np.random.default_rng(3)
    for m, r in [(3, 1), (4, 2), (4, 3)]:
        ext = ext_field(2, m)
        while True:
            basis = rng.integers(0, 2, (r, m)).astype(np.uint8)
            if len(fq_basis(ext.base, basis)) == r:
                break
        qp = annihilator(ext, basis, r)
        subspace = {tuple(e) for e in span(ext, list(basis))}
        assert len(subspace) == 2 ** r
        roots = {tuple(x) for x in all_elements(ext)
                 if ext.is_zero(evaluate(ext, qp, x))}
        assert roots == subspace


def test_basis_independence():
    rng = np.random.default_rng(4)
    ext = ext_field(16, 8)
    r = 3
    while True:
        basis = rng.integers(0, 16, (r, 8)).astype(np.uint8)
        if len(fq_basis(ext.base, basis)) == r:
            break
    qp1 = annihilator(ext, basis, r)
    # a different generating set of the same span
    alt = basis.copy()
    alt[0] = ext.add(ext.base.mul(np.uint8(3), basis[0]),
                     ext.base.mul(np.uint8(7), basis[1]))
    alt = alt[::-1].copy()
    mixed = np.concatenate([alt, basis])
    qp2 = annihilator(ext, mixed, r)
    assert np.array_equal(qp1.beta, qp2.beta)


def test_iterative_equals_full_product_small():
    rng = np.random.default_rng(5)
    for m, r in [(3, 1), (4, 2), (4, 3)]:
        ext = ext_field(2, m)
        while True:
            basis = rng.integers(0, 2, (r, m)).astype(np.uint8)
            if len(fq_basis(ext.base, basis)) == r:
                break
        qp = annihilator(ext, basis, r)
        poly = product_annihilator_oracle(ext, span(ext, list(basis)))
        # only q-power degrees may be populated, and they match beta
        for deg, coef in enumerate(poly):
            if deg == 2 ** r:
                assert np.array_equal(coef, ext.one())
            elif deg in {2 ** i for i in range(r)}:
                assert np.array_equal(coef, qp.beta[int(np.log2(deg))])
            else:
                assert ext.is_zero(coef)


def test_wrong_dimension_raises():
    ext = ext_field(2, 4)
    dep = np.array([[1, 0, 0, 0], [1, 0, 0, 0]], np.uint8)
    with pytest.raises(SupportDimensionError):
        annihilator(ext, dep, 2)
    with pytest.raises(SupportDimensionError):
        annihilator(ext, dep[:1], 2)


def test_beta_serialization():
    ext = ext_field(251, 3)
    beta = np.array([[1, 2, 3], [4, 5, 6]], np.uint8)
    qp = QPolynomial(r=2, beta=beta)
    assert ext.pack(qp.beta) == bytes([1, 2, 3, 4, 5, 6])
