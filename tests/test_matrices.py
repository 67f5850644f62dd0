import numpy as np
import pytest

from mira.fields import base_field
from mira.hashing import HashSuite, FieldSampler, X_KEYSEC
from mira.matrices import columns_to_ext, rank, sample_rank_bounded

from helpers import ext_to_columns


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
    from mira.qpoly import fq_basis
    for q in (2, 16):
        f = base_field(q)
        for _ in range(50):
            m = rng.integers(0, q, (5, 6)).astype(np.uint8)
            basis = fq_basis(f, columns_to_ext(m))
            assert len(basis) == rank(f, m)
