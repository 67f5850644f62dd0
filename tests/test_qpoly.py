import itertools

import numpy as np
import pytest

from mira.fields import base_field, ext_field
from mira.matrices import rank
from mira.qpoly import SupportDimensionError, annihilator

from helpers import all_parameter_sets, annihilator_by_pow, evaluate, evaluate_many


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
    beta = annihilator(ext, support, 1)
    # L(X) = X^2 + X
    assert np.array_equal(beta, ext.one()[None, :])
    assert ext.is_zero(evaluate(ext, beta, ext.one()))
    assert ext.is_zero(evaluate(ext, beta, ext.zero()))


def test_rank_one_coefficient_formula_q4():
    # beta_0 = -u^(q-1), by expanding prod_{c in F_q} (X - c*u)
    ext = ext_field(4, 3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.integers(0, 4, 3).astype(np.uint8)
        if ext.is_zero(u):
            u[0] = 1
        beta = annihilator(ext, u[None, :], 1)
        expected = ext.neg(ext.pow(u, ext.q - 1))
        assert np.array_equal(beta[0], expected)
        # cross-check the full product really is X^q + beta_0 X
        poly = product_annihilator_oracle(ext, span(ext, [u]))
        assert np.array_equal(poly[1], expected)  # coefficient of X
        assert ext.is_zero(poly[0])


def test_annihilator_vanishes_on_inputs():
    rng = np.random.default_rng(1)
    for q, m, n, r in [(16, 16, 16, 5), (251, 12, 13, 5), (2, 4, 6, 2)]:
        ext = ext_field(q, m)
        basis = rng.integers(0, q, (r, m)).astype(np.uint8)
        while rank(ext.base, basis) != r:
            basis = rng.integers(0, q, (r, m)).astype(np.uint8)
        combos = rng.integers(0, q, (n, r)).astype(np.uint8)
        elems = np.stack([
            ext.base.axis_sum(ext.base.mul(combos[j][:, None], basis), axis=0)
            for j in range(n)])
        if rank(ext.base, elems) != r:
            continue
        beta = annihilator(ext, elems, r)
        assert not evaluate_many(ext, beta, elems).any()


def test_evaluate_basics_and_linearity():
    ext = ext_field(2, 3)
    beta = annihilator(ext, np.stack([ext.zero(), ext.one()]), 1)
    assert ext.is_zero(evaluate(ext, beta, ext.zero()))
    assert ext.is_zero(evaluate(ext, beta, ext.one()))

    rng = np.random.default_rng(2)
    ext = ext_field(16, 16)
    beta = rng.integers(0, 16, (3, 16)).astype(np.uint8)
    x = rng.integers(0, 16, 16).astype(np.uint8)
    y = rng.integers(0, 16, 16).astype(np.uint8)
    for _ in range(20):
        al, be = rng.integers(0, 16, 2)
        lin = ext.add(ext.base.mul(np.uint8(al), x), ext.base.mul(np.uint8(be), y))
        lhs = evaluate(ext, beta, lin)
        rhs = ext.add(ext.base.mul(np.uint8(al), evaluate(ext, beta, x)),
                      ext.base.mul(np.uint8(be), evaluate(ext, beta, y)))
        assert np.array_equal(lhs, rhs)


def test_roots_are_exactly_the_span():
    rng = np.random.default_rng(3)
    for m, r in [(3, 1), (4, 2), (4, 3)]:
        ext = ext_field(2, m)
        while True:
            basis = rng.integers(0, 2, (r, m)).astype(np.uint8)
            if rank(ext.base, basis) == r:
                break
        beta = annihilator(ext, basis, r)
        subspace = {tuple(e) for e in span(ext, list(basis))}
        assert len(subspace) == 2 ** r
        roots = {tuple(x) for x in all_elements(ext)
                 if ext.is_zero(evaluate(ext, beta, x))}
        assert roots == subspace


def test_basis_independence():
    rng = np.random.default_rng(4)
    ext = ext_field(16, 8)
    r = 3
    while True:
        basis = rng.integers(0, 16, (r, 8)).astype(np.uint8)
        if rank(ext.base, basis) == r:
            break
    beta1 = annihilator(ext, basis, r)
    # a different generating set of the same span
    alt = basis.copy()
    alt[0] = ext.add(ext.base.mul(np.uint8(3), basis[0]),
                     ext.base.mul(np.uint8(7), basis[1]))
    alt = alt[::-1].copy()
    mixed = np.concatenate([alt, basis])
    beta2 = annihilator(ext, mixed, r)
    assert np.array_equal(beta1, beta2)


def test_iterative_equals_full_product_small():
    rng = np.random.default_rng(5)
    for m, r in [(3, 1), (4, 2), (4, 3)]:
        ext = ext_field(2, m)
        while True:
            basis = rng.integers(0, 2, (r, m)).astype(np.uint8)
            if rank(ext.base, basis) == r:
                break
        beta = annihilator(ext, basis, r)
        poly = product_annihilator_oracle(ext, span(ext, list(basis)))
        # only q-power degrees may be populated, and they match beta
        for deg, coef in enumerate(poly):
            if deg == 2 ** r:
                assert np.array_equal(coef, ext.one())
            elif deg in {2 ** i for i in range(r)}:
                assert np.array_equal(coef, beta[int(np.log2(deg))])
            else:
                assert ext.is_zero(coef)


# (q, m, support size n, r): every shipped set's, then the toy fields above
SHIPPED_AND_TOY = sorted({(ps.q, ps.m, ps.n, ps.r) for ps in all_parameter_sets()}) + [
    (2, 3, 4, 1), (2, 4, 6, 2), (2, 4, 4, 3), (4, 3, 5, 2), (7, 3, 4, 2),
    (16, 8, 6, 3), (251, 3, 4, 2)]


@pytest.mark.parametrize("q, m, n, r", SHIPPED_AND_TOY)
def test_annihilator_matches_pow_recurrence(q, m, n, r):
    ext = ext_field(q, m)
    base = ext.base
    rng = np.random.default_rng([q, m, n, r])
    for _ in range(3):
        while True:   # n columns spanning an r-dimensional space, as E's do
            a = rng.integers(0, q, (m, r)).astype(np.uint8)
            b = rng.integers(0, q, (r, n)).astype(np.uint8)
            support = np.ascontiguousarray(base.matmul(a, b).T)
            if rank(base, support) == r:
                break
        beta = annihilator(ext, support, r)
        assert beta.shape == (r, m)
        assert np.array_equal(beta, annihilator_by_pow(ext, support, r))
        assert not evaluate_many(ext, beta, support).any()


def test_wrong_dimension_raises():
    ext = ext_field(2, 4)
    dep = np.array([[1, 0, 0, 0], [1, 0, 0, 0]], np.uint8)
    with pytest.raises(SupportDimensionError):
        annihilator(ext, dep, 2)
    with pytest.raises(SupportDimensionError):
        annihilator(ext, dep[:1], 2)
    with pytest.raises(SupportDimensionError):
        annihilator(ext, np.eye(3, 4, dtype=np.uint8), 2)   # dimension r + 1


def test_zero_space_annihilator_is_x():
    # r = 0: no basis, no Frobenius powers, M_0(X) = X with no beta
    for q, m in [(2, 4), (16, 5), (251, 3)]:
        ext = ext_field(q, m)
        for support in (ext.zero(0), ext.zero(3)):
            assert annihilator(ext, support, 0).shape == (0, m)


def test_beta_serialization():
    ext = ext_field(251, 3)
    beta = np.array([[1, 2, 3], [4, 5, 6]], np.uint8)
    assert ext.base.pack(beta) == bytes([1, 2, 3, 4, 5, 6])
