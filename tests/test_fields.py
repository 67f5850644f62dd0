import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira.fields import (Char2Field, Gf2Table, PrimeField, base_field,
                         ext_field, _KNOWN_TAILS, _ext_irreducible)

from helpers import mul_matrices_by_shifts


def ext_euclid_inverse(ext, a):
    """Oracle: extended Euclid on the polynomial representation."""
    base = ext.base
    m = ext.m

    def trim(p):
        i = len(p)
        while i and p[i - 1] == 0:
            i -= 1
        return np.array(p[:i], np.uint8)

    def poly_mul(p, q):
        out = np.zeros(max(len(p) + len(q) - 1, 1), np.uint8)
        for i, pc in enumerate(p):
            for j, qc in enumerate(q):
                out[i + j] = base.add(out[i + j], base.mul(pc, qc))
        return trim(out)

    def poly_sub(p, q):
        ln = max(len(p), len(q), 1)
        out = np.zeros(ln, np.uint8)
        out[:len(p)] = p
        out[:len(q)] = base.sub(out[:len(q)], np.asarray(q, np.uint8))
        return trim(out)

    def divmod_poly(num, den):
        num = np.array(num, np.uint8)
        quo = np.zeros(max(len(num) - len(den) + 1, 1), np.uint8)
        inv_lead = base.inv(den[-1])
        for sh in range(len(num) - len(den), -1, -1):
            coef = base.mul(num[sh + len(den) - 1], inv_lead)
            quo[sh] = coef
            for i, d in enumerate(den):
                num[sh + i] = base.sub(num[sh + i], base.mul(coef, d))
        return trim(quo), trim(num)

    r0 = trim(ext.modulus.copy())
    r1 = trim(np.asarray(a, np.uint8).copy())
    s0, s1 = np.zeros(1, np.uint8), np.ones(1, np.uint8)
    while len(r1) > 0:
        quo, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quo, s1))
    scale = base.inv(r0[-1])
    out = np.zeros(m, np.uint8)
    out[:len(s0)] = base.mul(scale, s0)
    return out


def test_char2_identity_in_f16m():
    ext = ext_field(16, 16)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 16, (20, 16)).astype(np.uint8)
    assert not ext.add(a, a).any()


def test_inverse_of_one():
    for q, m in [(2, 3), (16, 16), (251, 12), (7, 2)]:
        ext = ext_field(q, m)
        assert np.array_equal(ext.inv(ext.one()), ext.one())


def test_inverse_matches_extended_euclid_oracle():
    rng = np.random.default_rng(1)
    for q, m in [(251, 12), (16, 16), (7, 3)]:
        ext = ext_field(q, m)
        for _ in range(10):
            a = rng.integers(0, q, m).astype(np.uint8)
            if ext.is_zero(a):
                a[0] = 1
            inv = ext.inv(a)
            assert np.array_equal(ext.mul(a, inv), ext.one())
            assert np.array_equal(inv, ext_euclid_inverse(ext, a))


def test_inversion_of_zero_raises():
    ext = ext_field(16, 16)
    with pytest.raises(ZeroDivisionError):
        ext.inv(ext.zero())
    with pytest.raises(ZeroDivisionError):
        base_field(251).inv(np.zeros(3, np.uint8))
    with pytest.raises(ZeroDivisionError):
        base_field(16).inv(np.zeros(3, np.uint8))


def test_frobenius_fixed_points_and_identity_exponent():
    for q, m in [(2, 3), (16, 19), (251, 12)]:
        ext = ext_field(q, m)
        rng = np.random.default_rng(2)
        x = rng.integers(0, q, m).astype(np.uint8)
        for i in range(3):
            assert ext.is_zero(ext.frob(ext.zero(), i))
            assert np.array_equal(ext.frob(ext.one(), i), ext.one())
        assert np.array_equal(ext.frob(x, 0), x)


def test_frobenius_exhaustive_f8():
    ext = ext_field(2, 3)
    for v in range(8):
        x = np.array([v & 1, v >> 1 & 1, v >> 2 & 1], np.uint8)
        sq = ext.mul(x, x)  # square-and-multiply oracle for x^2
        assert np.array_equal(ext.frob(x, 1), sq)


def test_frobenius_linearity_property():
    rng = np.random.default_rng(3)
    for q, m in [(16, 16), (251, 12)]:
        ext = ext_field(q, m)
        xs = rng.integers(0, q, (1000, m)).astype(np.uint8)
        ys = rng.integers(0, q, (1000, m)).astype(np.uint8)
        al = rng.integers(0, q, (1000, 1)).astype(np.uint8)
        be = rng.integers(0, q, (1000, 1)).astype(np.uint8)
        for i in (1, 2):
            lin = ext.add(ext.base.mul(al, xs), ext.base.mul(be, ys))
            lhs = ext.frob(lin, i)
            rhs = ext.add(ext.base.mul(al, ext.frob(xs, i)),
                          ext.base.mul(be, ext.frob(ys, i)))
            assert np.array_equal(lhs, rhs)


def test_frobenius_order_m():
    # frob(x, m) is the identity by construction, so check the order of F_1
    # itself: applied m times, and as a matrix power
    for q, m in [(16, 16), (251, 12), (2, 4)]:
        ext = ext_field(q, m)
        rng = np.random.default_rng(4)
        x = rng.integers(0, q, (50, m)).astype(np.uint8)
        y = x
        for _ in range(m):
            y = ext.frob(y, 1)
        assert np.array_equal(y, x)
        f1 = ext.frob_matrix(1)
        power = np.eye(m, dtype=np.uint8)
        for _ in range(m):
            power = ext.base.matmul(f1, power)
        assert np.array_equal(power, np.eye(m, dtype=np.uint8))
        for i in range(m):
            assert np.array_equal(ext.frob_matrix(i + m), ext.frob_matrix(i))


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("q, max_m", [(2, 8), (3, 5), (4, 4), (5, 3)])
def test_irreducible_count_matches_gauss_formula(q, max_m):
    # every monic of degree m through Rabin's test, against the number of
    # monic irreducibles (1/m) sum_{d | m} mu(d) q^(m/d)
    base = base_field(q)
    for m in range(1, max_m + 1):
        count = 0
        for tail in itertools.product(range(q), repeat=m):
            count += _ext_irreducible(base, np.array(tail + (1,), np.uint8)) is not None
        expected = sum(_mobius(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        assert count == expected, (q, m)


def _schoolbook_mul_oracle(ext, a, b):
    """Polynomial multiply then long division by the modulus (batched)."""
    base = ext.base
    m = ext.m
    conv = np.zeros((a.shape[0], 2 * m - 1), np.int64)
    for i in range(m):
        for j in range(m):
            conv[:, i + j] += np.int64(1) * a[:, i].astype(np.int64) * b[:, j]
    if base.char == 2 and base.q > 2:
        # redo exactly in the field: convolution via field muls
        conv = np.zeros((a.shape[0], 2 * m - 1), np.uint8)
        for i in range(m):
            for j in range(m):
                conv[:, i + j] = base.add(conv[:, i + j], base.mul(a[:, i], b[:, j]))
        work = conv
    else:
        work = (conv % base.q).astype(np.uint8)
    # synthetic division by the monic modulus
    work = np.concatenate([work, np.zeros((a.shape[0], 1), np.uint8)], axis=1)
    for deg in range(2 * m - 2, m - 1, -1):
        lead = work[:, deg].copy()
        for i in range(m + 1):
            work[:, deg - m + i] = base.sub(work[:, deg - m + i],
                                            base.mul(lead, ext.modulus[i]))
    return work[:, :m]


def test_mul_matches_schoolbook_oracle():
    rng = np.random.default_rng(5)
    for q, m in [(16, 16), (251, 12)]:
        ext = ext_field(q, m)
        a = rng.integers(0, q, (10000, m)).astype(np.uint8)
        b = rng.integers(0, q, (10000, m)).astype(np.uint8)
        assert np.array_equal(ext.mul(a, b), _schoolbook_mul_oracle(ext, a, b))


def test_mul_commutative_and_assoc():
    rng = np.random.default_rng(6)
    for q, m in [(16, 16), (251, 12), (2, 8)]:
        ext = ext_field(q, m)
        a, b, c = (rng.integers(0, q, (64, m)).astype(np.uint8) for _ in range(3))
        assert np.array_equal(ext.mul(a, b), ext.mul(b, a))
        assert np.array_equal(ext.mul(ext.mul(a, b), c), ext.mul(a, ext.mul(b, c)))


@settings(max_examples=30, deadline=None)
@given(q=hs.sampled_from([2, 16, 251]), m=hs.sampled_from([1, 2, 5, 16]),
       b=hs.integers(0, 40),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_mul_matrices_match_shift_reduce(q, m, b, seed):
    # the one-GEMM build against the fixed X^(u+t) map equals the
    # column-by-column shift and reduce; ext.mul, built on these matrices,
    # matches the schoolbook oracle, also broadcast and on empty batches
    ext = ext_field(q, m)
    rng = np.random.default_rng(seed)
    us = rng.integers(0, q, (b, m)).astype(np.uint8)
    assert np.array_equal(ext.mul_matrices(us), mul_matrices_by_shifts(ext, us))
    ys = rng.integers(0, q, (b, m)).astype(np.uint8)
    assert np.array_equal(ext.mul(us, ys), _schoolbook_mul_oracle(ext, us, ys))
    el = rng.integers(0, q, m).astype(np.uint8)
    ref = _schoolbook_mul_oracle(ext, us, np.tile(el, (b, 1)))
    assert np.array_equal(ext.mul(us, el), ref)
    assert np.array_equal(ext.mul(el, us), ref)


def test_gf16_wire_format_modulus():
    f = base_field(16)
    assert f.modulus_bits == 0b10011  # y^4 + y + 1


def test_known_modulus_tails_match_search_rule():
    # the cheap entries regenerate quickly; slow ones are spot checked
    for (q, m) in [(251, 12), (16, 19)]:
        base = base_field(q)
        tail = next(val for val in range(1, q ** m) if _ext_irreducible(
            base, np.array([val // q ** i % q for i in range(m)] + [1], np.uint8)))
        assert tail == _KNOWN_TAILS[(q, m)]


def test_packing_conventions():
    f16 = base_field(16)
    arr = np.array([0xA, 0x3, 0xF], np.uint8)
    packed = f16.pack(arr)
    assert packed == bytes([0x3A, 0x0F])  # low nibble = lower index
    assert np.array_equal(f16.unpack(packed, 3), arr)

    f251 = base_field(251)
    arr = np.array([0, 250, 17], np.uint8)
    assert f251.pack(arr) == bytes([0, 250, 17])
    assert np.array_equal(f251.unpack(bytes([0, 250, 17]), 3), arr)
    with pytest.raises(ValueError):
        f251.unpack(bytes([251]), 1)


@pytest.mark.parametrize("q", [2, 7, 16, 251])
@pytest.mark.parametrize("odd", [0, 1], ids=["even-T", "odd-T"])
@settings(max_examples=40, deadline=None)
@given(rows=hs.integers(0, 7), half=hs.integers(0, 12), flip=hs.booleans(),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_pack_rows_equals_per_row_pack(q, odd, rows, half, flip, seed):
    field = base_field(q)
    arr = np.random.default_rng(seed).integers(0, q, (rows, 2 * half + odd)).astype(np.uint8)
    if flip:
        arr = arr[:, ::-1]      # a strided view packs like its copy
    assert field.pack_rows(arr) == [field.pack(row) for row in arr]


def test_ext_element_serialization_order():
    ext = ext_field(251, 3)
    el = np.array([[1, 2, 3], [4, 5, 6]], np.uint8)
    blob = ext.pack(el)
    assert blob == bytes([1, 2, 3, 4, 5, 6])  # ascending basis order
    assert np.array_equal(ext.unpack(blob, 2), el)


def test_matmul_paths_agree():
    rng = np.random.default_rng(7)
    f16 = base_field(16)
    a = rng.integers(0, 16, (37, 200)).astype(np.uint8)
    b = rng.integers(0, 16, (200, 150)).astype(np.uint8)
    ref = np.zeros((37, 150), np.uint8)
    for i in range(37):
        ref[i] = np.bitwise_xor.reduce(f16.MUL[a[i][:, None], b], axis=0)
    assert np.array_equal(f16.matmul(a, b), ref)
    a3 = rng.integers(0, 16, (5, 9, 40)).astype(np.uint8)
    b3 = rng.integers(0, 16, (5, 40, 13)).astype(np.uint8)
    got = f16.matmul3(a3, f16.matmul3_prepare(b3))
    for t in range(5):
        assert np.array_equal(got[t], f16.matmul(a3[t], b3[t]))

    f251 = base_field(251)
    a = rng.integers(0, 251, (30, 100)).astype(np.uint8)
    b = rng.integers(0, 251, (100, 40)).astype(np.uint8)
    assert np.array_equal(f251.matmul(a, b),
                          (a.astype(np.int64) @ b.astype(np.int64)) % 251)
    a3 = rng.integers(0, 251, (4, 7, 30)).astype(np.uint8)
    b3 = rng.integers(0, 251, (4, 30, 9)).astype(np.uint8)
    got = f251.matmul3(a3, f251.matmul3_prepare(b3))
    for t in range(4):
        assert np.array_equal(got[t], f251.matmul(a3[t], b3[t]))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 251])
def test_prime_reduce_is_exact_on_every_float32_integer(q):
    # every count a float32 GEMM can hold exactly, in slices of 2^20
    field = PrimeField(q)
    step = 1 << 20
    for lo in range(0, 1 << 24, step):
        ints = np.arange(lo, lo + step, dtype=np.int64)
        got = field._reduce(ints.astype(np.float32))
        assert np.array_equal(got, (ints % q).astype(np.uint8)), lo


def _int64_product(q, a, b):
    return (a.astype(np.int64) @ b.astype(np.int64) % q).astype(np.uint8)


# inner sizes just under the exact float32 bound at q = 251 (K <= 268) and
# above it, where the product runs in reduced chunks along K
@pytest.mark.parametrize("inner_range", [(250, 268), (269, 700)], ids=["exact", "chunked"])
@settings(max_examples=10, deadline=None)
@given(data=hs.data(), seed=hs.integers(0, 2 ** 32 - 1))
def test_prime_products_match_int64_reference(inner_range, data, seed):
    q = 251
    field = PrimeField(q)
    inner = data.draw(hs.integers(*inner_range))
    rows, cols, stack = (data.draw(hs.integers(1, 9)) for _ in range(3))
    rng = np.random.default_rng(seed)

    def near_top(shape):
        # half the entries q - 1, so the counts come near 2^24
        low = rng.integers(0, 2, shape) * rng.integers(0, q, shape)
        return (q - 1 - low).astype(np.uint8)

    a3 = near_top((stack, rows, inner))
    b3 = near_top((stack, inner, cols))
    ref = _int64_product(q, a3, b3)
    assert np.array_equal(field.matmul3(a3, field.matmul3_prepare(b3)), ref)
    assert np.array_equal(field.matmul(a3[0], b3[0]), ref[0])


@pytest.mark.parametrize("q", [7, 251])
def test_prime_gemm_at_and_past_the_exact_bound(q):
    field = PrimeField(q)
    step = ((1 << 24) - 1) // (q - 1) ** 2
    for inner in (step, step + 1, 2 * step + 3):
        a = np.full((2, inner), q - 1, np.uint8)
        b = np.full((inner, 3), q - 1, np.uint8)
        b[::5, 1] = 1
        assert np.array_equal(field.matmul(a, b), _int64_product(q, a, b)), inner


def _mul_table_product(field, a, b):
    """(..., R, K) @ (..., K, C) one MUL-table lookup per element product."""
    return np.bitwise_xor.reduce(field.MUL[a[..., :, :, None], b[..., None, :, :]],
                                 axis=-2)


# (R, K, C) ranges below and above the 2^18-MAC switch of ``Char2Field.matmul``
_GATHER_SHAPES = ((1, 12), (1, 24), (1, 12))
_GEMM_SHAPES = ((8, 12), (150, 250), (220, 260))


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("stack", [1, 3])
@pytest.mark.parametrize("shapes", [_GATHER_SHAPES, _GEMM_SHAPES], ids=["gather", "gemm"])
@settings(max_examples=8, deadline=None)
@given(data=hs.data(), seed=hs.integers(0, 2 ** 32 - 1))
def test_char2_products_match_mul_table(d, stack, shapes, data, seed):
    field = Char2Field(d)
    rows, inner, cols = (data.draw(hs.integers(*bounds)) for bounds in shapes)
    rng = np.random.default_rng(seed)
    a3 = rng.integers(0, field.q, (stack, rows, inner)).astype(np.uint8)
    b3 = rng.integers(0, field.q, (stack, inner, cols)).astype(np.uint8)
    ref = _mul_table_product(field, a3, b3)
    assert np.array_equal(field.matmul3(a3, field.matmul3_prepare(b3)), ref)
    assert np.array_equal(field.matmul(a3[0], b3[0]), ref[0])


@pytest.mark.parametrize("d", [2, 4, 8])
def test_char2_gemm_exact_at_the_inner_bound(d):
    # d * K bit-plane products are summed per output bit; int16 holds them
    # while d * K < 2^15.  All-ones left planes make the counts large.
    field = Char2Field(d)
    inner = ((1 << 15) - 1) // d
    rng = np.random.default_rng(d)
    a = np.full((2, inner), field.q - 1, np.uint8)
    b = rng.integers(0, field.q, (inner, 48)).astype(np.uint8)
    ref = _mul_table_product(field, a, b)
    assert np.array_equal(field.matmul(a, b), ref)          # above the gather switch
    assert np.array_equal(field.matmul3(a[None], field.matmul3_prepare(b[None]))[0], ref)


def test_gf16_padding_nibble_must_be_zero():
    f16 = base_field(16)
    assert np.array_equal(f16.unpack(bytes([0x3A, 0x0F]), 3), [0xA, 0x3, 0xF])
    with pytest.raises(ValueError):
        f16.unpack(bytes([0x3A, 0x1F]), 3)
    # with an even count the high nibble is an element, not padding
    assert np.array_equal(f16.unpack(bytes([0x3A, 0x1F]), 4), [0xA, 0x3, 0xF, 0x1])


def test_gf2_table_matches_bit_matmul():
    rng = np.random.default_rng(8)
    mbits = rng.integers(0, 2, (45, 70)).astype(np.uint8)
    table = Gf2Table(mbits)
    x = rng.integers(0, 2, (23, 45)).astype(np.uint8)
    ref = (x @ mbits) & 1
    xb = np.packbits(x, axis=1)
    got = np.unpackbits(table.apply_packed(xb), axis=1)[:, :70]
    assert np.array_equal(got, ref)


def test_base_field_flags():
    assert base_field(16).q == 16
    with pytest.raises(ValueError):
        base_field(12)
