import numpy as np
import pytest

from mira import matrices
from mira.fields import base_field
from mira.hashing import HashSuite, FieldSampler, X_KEYSEC
from mira.matrices import (columns_to_ext, determinant, pivot_columns, rank,
                           sample_rank_bounded)

from helpers import ext_to_columns, sample_rank_bounded_by_elimination


def span_size_oracle(rows):
    """Brute force over GF(2): rank = log2 of the row-span cardinality."""
    seen = set()
    n = len(rows)
    for mask in range(1 << n):
        acc = np.zeros(rows.shape[1], np.uint8)
        for i in range(n):
            if mask >> i & 1:
                acc ^= rows[i]
        seen.add(acc.tobytes())
    return len(seen).bit_length() - 1


def sampler_for(q, tag=b"t"):
    return FieldSampler(base_field(q), HashSuite(128).xof(X_KEYSEC, tag))


def test_rank_trivial_cases():
    f = base_field(16)
    assert rank(f, np.zeros((5, 7), np.uint8)) == 0
    assert rank(f, np.eye(6, dtype=np.uint8)) == 6


def test_rank_one_outer_product():
    rng = np.random.default_rng(0)
    for q in (16, 251, 2):
        f = base_field(q)
        u = rng.integers(1, q, (6, 1)).astype(np.uint8)
        v = rng.integers(1, q, (1, 5)).astype(np.uint8)
        assert rank(f, f.matmul(u, v)) == 1


def test_rank_matches_span_oracle_over_f2():
    rng = np.random.default_rng(1)
    f2 = base_field(2)
    for _ in range(200):
        m = rng.integers(0, 2, (4, 4)).astype(np.uint8)
        assert rank(f2, m) == span_size_oracle(m)


def test_sample_rank_bounded_exact_and_bounds():
    for q, m, n, r in [(16, 6, 5, 3), (251, 4, 6, 2), (2, 3, 3, 1)]:
        f = base_field(q)
        e = sample_rank_bounded(f, m, n, r, sampler_for(q))
        assert rank(f, e) == r
    # full-rank target: any accepted sample has rank exactly min(m, n)
    f = base_field(16)
    e = sample_rank_bounded(f, 4, 5, 4, sampler_for(16, b"full"))
    assert rank(f, e) == 4
    # (q, m, n, r) = (2, 3, 3, 1): nonzero rank-1 output
    f2 = base_field(2)
    e = sample_rank_bounded(f2, 3, 3, 1, sampler_for(2, b"tiny"))
    assert e.any() and rank(f2, e) == 1
    with pytest.raises(ValueError):
        sample_rank_bounded(f, 3, 3, 0, sampler_for(16))
    with pytest.raises(ValueError):
        sample_rank_bounded(f, 3, 3, 4, sampler_for(16))


def test_columns_to_ext_basics():
    z = np.zeros((4, 3), np.uint8)
    assert not columns_to_ext(z).any()
    m = np.zeros((4, 3), np.uint8)
    m[0, 2] = 1  # single 1 in row 1, column 3
    v = columns_to_ext(m)
    assert np.array_equal(v[2], np.array([1, 0, 0, 0], np.uint8))
    assert not v[:2].any()


def test_columns_round_trip():
    rng = np.random.default_rng(2)
    m = rng.integers(0, 16, (7, 5)).astype(np.uint8)
    assert np.array_equal(ext_to_columns(columns_to_ext(m)), m)


def test_span_dimension_equals_rank():
    rng = np.random.default_rng(3)
    for q in (2, 16):
        f = base_field(q)
        for _ in range(50):
            m = rng.integers(0, q, (5, 6)).astype(np.uint8)
            basis = columns_to_ext(m)[pivot_columns(f, m)]
            assert len(basis) == rank(f, m.T)
            assert rank(f, basis) == len(basis)


def prefix_rank_pivots_oracle(field, mat):
    """Columns that are not in the span of the columns before them, with the
    span enumerated element by element."""
    span = np.zeros((1, mat.shape[0]), np.uint8)
    pivots = []
    for c, col in enumerate(mat.T):
        if col.tobytes() in {v.tobytes() for v in span}:
            continue
        pivots.append(c)
        scaled = field.mul(np.arange(field.q, dtype=np.uint8)[:, None], col[None, :])
        span = field.add(span[:, None, :], scaled[None, :, :]).reshape(-1, len(col))
    return pivots


@pytest.mark.parametrize("q, rows, inner", [(2, 6, 6), (16, 5, 3), (251, 4, 2)])
def test_pivot_columns_raise_the_prefix_rank(q, rows, inner):
    # products through an inner dimension keep the span small enough to
    # enumerate; a zero column and the second copy of a column are no pivots
    f = base_field(q)
    rng = np.random.default_rng(q)
    assert pivot_columns(f, np.zeros((rows, 4), np.uint8)) == []
    for _ in range(12):
        cols = int(rng.integers(1, 9))
        mat = f.matmul(rng.integers(0, q, (rows, inner)).astype(np.uint8),
                       rng.integers(0, q, (inner, cols)).astype(np.uint8))
        mat = np.concatenate([np.zeros((rows, 1), np.uint8), mat, mat[:, :2]], axis=1)
        mat = mat[:, rng.permutation(mat.shape[1])]
        pivots = pivot_columns(f, mat)
        assert pivots == prefix_rank_pivots_oracle(f, mat)
        assert len(pivots) == rank(f, mat)


def determinant_by_elimination(field, block):
    """Product of the pivots of a row reduction, negated per row swap."""
    a = np.array(block, np.uint8)
    det = np.uint8(1)
    for c in range(len(a)):
        nz = np.flatnonzero(a[c:, c])
        if not len(nz):
            return np.uint8(0)
        if nz[0]:
            a[[c, c + nz[0]]] = a[[c + nz[0], c]]
            det = field.neg(det)
        det = field.mul(det, a[c, c])
        factors = field.mul(a[c + 1:, c], field.inv(a[c, c]))
        a[c + 1:] = field.sub(a[c + 1:], field.mul(factors[:, None], a[c][None, :]))
    return det


def singular_blocks(field, rng, r):
    """Blocks of rank < r by construction: a zero row, a repeated row and a
    row that is the sum of two others (as far as r has the rows)."""
    i, j, k = (list(rng.permutation(r)) + [None, None])[:3]
    zero, repeat, total = rng.integers(0, field.q, (3, r, r)).astype(np.uint8)
    zero[i] = 0
    yield zero
    if r >= 2:
        repeat[i] = repeat[j]
        yield repeat
    if r >= 3:
        total[i] = field.add(total[j], total[k])
        yield total


@pytest.mark.parametrize("q", [2, 16, 251])
@pytest.mark.parametrize("r", range(1, 7))
def test_determinant_matches_the_elimination(q, r):
    f = base_field(q)
    rng = np.random.default_rng(100 * q + r)
    blocks = [rng.integers(0, q, (r, r)).astype(np.uint8) for _ in range(40)]
    singular = list(singular_blocks(f, rng, r))
    assert len(singular) == {1: 1, 2: 2}.get(r, 3)
    for block in blocks + singular:
        det = determinant(f, block)
        assert det == determinant_by_elimination(f, block)
        assert bool(det) == (rank(f, block) == r)
    assert not any(determinant(f, block) for block in singular)
    # over GF(2) random blocks give both outcomes
    if q == 2:
        assert {bool(determinant(f, block)) for block in blocks} == {False, True}


def test_determinant_takes_up_to_six_rows():
    f = base_field(16)
    assert determinant(f, np.eye(6, dtype=np.uint8)) == 1
    with pytest.raises(ValueError):
        determinant(f, np.eye(7, dtype=np.uint8))


class ScriptedSampler:
    """Hands out the given matrices in order, each for its own shape."""

    def __init__(self, mats):
        self.mats = list(mats)

    def matrix(self, rows, cols):
        mat = self.mats.pop(0)
        assert mat.shape == (rows, cols)
        return mat.copy()


def full_rank(field, rng, rows, cols):
    while True:
        mat = rng.integers(0, field.q, (rows, cols)).astype(np.uint8)
        if rank(field, mat) == min(rows, cols):
            return mat


@pytest.mark.parametrize("q", [16, 251])
def test_singular_leading_block_of_a_rank_r_draw_is_accepted(q, eliminations):
    # A's first row is zero, so E's leading block is singular, yet A and B
    # have rank r and so has E: the elimination accepts the first draw
    f = base_field(q)
    m, n, r = 6, 5, 3
    rng = np.random.default_rng(q)
    a = full_rank(f, rng, m, r)
    a[0] = 0
    assert rank(f, a) == r
    b = full_rank(f, rng, r, n)
    e = f.matmul(a, b)
    assert not determinant(f, e[:r, :r]) and rank(f, e) == r
    eliminations.clear()
    script = [a, b]
    sampler = ScriptedSampler(script)
    got = sample_rank_bounded(f, m, n, r, sampler)
    assert np.array_equal(got, e) and not sampler.mats
    assert eliminations == [(m, n)]
    assert np.array_equal(got, sample_rank_bounded_by_elimination(
        f, m, n, r, ScriptedSampler(script)))


@pytest.mark.parametrize("q", [16, 251])
def test_rank_deficient_draw_is_retried(q, eliminations):
    # the first A has a zero column, so rank(E) < r: its zero determinant
    # sends it to the elimination, which retries; the second draw's leading
    # block is nonsingular, so it is accepted without one
    f = base_field(q)
    m, n, r = 6, 5, 3
    rng = np.random.default_rng(q + 1)
    a1, b1 = full_rank(f, rng, m, r), full_rank(f, rng, r, n)
    a1[:, 1] = 0
    a2, b2 = full_rank(f, rng, m, r), full_rank(f, rng, r, n)
    assert rank(f, f.matmul(a1, b1)) < r
    e2 = f.matmul(a2, b2)
    assert determinant(f, e2[:r, :r])
    eliminations.clear()
    script = [a1, b1, a2, b2]
    sampler = ScriptedSampler(script)
    got = sample_rank_bounded(f, m, n, r, sampler)
    assert np.array_equal(got, e2) and not sampler.mats
    assert eliminations == [(m, n)]
    assert np.array_equal(got, sample_rank_bounded_by_elimination(
        f, m, n, r, ScriptedSampler(script)))


@pytest.mark.parametrize("q, m, n, r", [(2, 4, 4, 2), (2, 5, 4, 4), (16, 6, 6, 6),
                                        (251, 3, 4, 3)])
def test_sample_rank_bounded_matches_the_elimination_only_loop(q, m, n, r):
    f = base_field(q)
    for i in range(20):
        tag = b"loop-%d" % i
        got = sample_rank_bounded(f, m, n, r, sampler_for(q, tag))
        assert np.array_equal(got, sample_rank_bounded_by_elimination(
            f, m, n, r, sampler_for(q, tag)))


def test_rank_above_six_goes_straight_to_the_elimination(monkeypatch, eliminations):
    def no_determinant(field, block):
        raise AssertionError("determinant called for r > 6")

    monkeypatch.setattr(matrices, "determinant", no_determinant)
    f = base_field(251)
    got = sample_rank_bounded(f, 8, 9, 7, sampler_for(251, b"r7"))
    assert rank(f, got) == 7
    assert eliminations[0] == (8, 9)
    assert np.array_equal(got, sample_rank_bounded_by_elimination(
        f, 8, 9, 7, sampler_for(251, b"r7")))
