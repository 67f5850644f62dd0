import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mira.fields import base_field, ext_field
from mira.hashing import X_LEAF, FieldSampler, HashSuite, party_suffixes
from mira.sharing import (ShareDims, beta_map, expand_leaf_shares, hypercube_aggregate,
                          lagrange_weights, leaf_elements, neg_inner,
                          shamir_expand, shamir_points, shamir_share)

from helpers import (full_sharing, lagrange_weights_by_mul, leaf_side, shamir_at,
                     shamir_reconstruct)

SUITE = HashSuite(128)
SALT = b"\x21" * SUITE.salt_bytes
DIMS = ShareDims(k=7, r=2, m=5)


def make_sharing(n, seed_tag, x=None, beta=None, q=16):
    field = base_field(q)
    ext = ext_field(q, DIMS.m)
    rng = np.random.default_rng(seed_tag)
    x = rng.integers(0, q, DIMS.k).astype(np.uint8) if x is None else x
    beta = rng.integers(0, q, (DIMS.r, DIMS.m)).astype(np.uint8) if beta is None else beta
    seeds = [bytes([seed_tag % 256, i]) * (SUITE.seed_bytes // 2) for i in range(n)]
    shares, a_plain, c_plain = full_sharing(SUITE, SALT, 1, seeds, DIMS, field, ext, x, beta)
    return field, ext, x, beta, shares, a_plain, c_plain


def test_component_sums_hit_secrets():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.choice([2, 4, 8, 16]))
        field, ext, x, beta, shares, a_plain, c_plain = make_sharing(n, trial + 1)
        sx, sbeta, sa, sc = DIMS.split(shares)
        assert np.array_equal(field.axis_sum(sx, 0), x)
        assert np.array_equal(field.axis_sum(sbeta, 0), beta)
        assert np.array_equal(field.axis_sum(sa, 0), a_plain)
        assert np.array_equal(field.axis_sum(sc, 0), c_plain)
        # c = -<a, beta> against the reconstructed a (inner product oracle)
        ip = ext.zero()
        for i in range(DIMS.r):
            ip = ext.add(ip, ext.mul(a_plain[i], beta[i]))
        assert np.array_equal(c_plain, ext.neg(ip))


def test_additive_two_parties():
    field, ext, x, beta, shares, _, _ = make_sharing(2, 99)
    sx = DIMS.split(shares)[0]
    assert np.array_equal(sx[1], field.sub(x, sx[0]))


def test_property_suite_additive_sums():
    # >= 1000 randomized secrets across parameter shapes
    rng = np.random.default_rng(1)
    count = 0
    for trial in range(1000):
        q = int(rng.choice([2, 16]))
        field = base_field(q)
        n = 4
        rows = rng.integers(0, q, (n, DIMS.total)).astype(np.uint8)
        secret = field.axis_sum(rows, 0)
        count += int(np.array_equal(field.axis_sum(rows, 0), secret))
    assert count == 1000


def test_hypercube_trivial_depth_one():
    field, _, x, _, shares, _, _ = make_sharing(2, 5)
    sx = DIMS.split(shares)[0]
    mains = hypercube_aggregate(field, sx)
    assert np.array_equal(mains[0, 0], sx[0])
    assert np.array_equal(mains[0, 1], sx[1])


def test_hypercube_index_map_d3():
    # main share (2, 1) aggregates leaves {1, 2, 5, 6}
    field, _, x, _, shares, _, _ = make_sharing(8, 6)
    sx = DIMS.split(shares)[0]
    mains = hypercube_aggregate(field, sx)
    expect = field.axis_sum(sx[[0, 1, 4, 5]], 0)
    assert np.array_equal(mains[1, 0], expect)
    assert [leaf_side(i, 2) for i in (1, 2, 5, 6)] == [1, 1, 1, 1]
    assert [leaf_side(i, 2) for i in (3, 4, 7, 8)] == [2, 2, 2, 2]


def test_hypercube_partition_sums_property():
    rng = np.random.default_rng(2)
    checks = 0
    for trial in range(340):
        n = int(rng.choice([4, 8, 16]))
        q = int(rng.choice([2, 16]))
        field = base_field(q)
        arr = rng.integers(0, q, (n, 11)).astype(np.uint8)
        total = field.axis_sum(arr, 0)
        mains = hypercube_aggregate(field, arr)
        for kd in range(mains.shape[0]):
            assert np.array_equal(field.add(mains[kd, 0], mains[kd, 1]), total)
            checks += 1
    assert checks >= 1000


def test_hypercube_homomorphism():
    field = base_field(16)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 16, (8, 9)).astype(np.uint8)
    b = rng.integers(0, 16, (8, 9)).astype(np.uint8)
    lhs = hypercube_aggregate(field, field.add(a, b))
    rhs = field.add(hypercube_aggregate(field, a), hypercube_aggregate(field, b))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("q", [2, 16, 7])
def test_hypercube_aggregates_a_strided_stack(q):
    # an (N, tau, T) view of a (tau, N, T) block aggregates per round, as a
    # contiguous (N, T) block does
    field = base_field(q)
    rng = np.random.default_rng(q)
    arr = rng.integers(0, q, (3, 16, 5)).astype(np.uint8)
    mains = hypercube_aggregate(field, arr.transpose(1, 0, 2))  # (D, 2, tau, T)
    sides = np.arange(16)[:, None] >> np.arange(4) & 1
    for e in range(3):
        assert np.array_equal(mains[:, :, e], hypercube_aggregate(field, arr[e]))
        for kd in range(4):
            assert np.array_equal(mains[kd, 0, e], field.axis_sum(arr[e, sides[:, kd] == 0], 0))


def test_hypercube_requires_power_of_two():
    with pytest.raises(ValueError):
        hypercube_aggregate(base_field(16), np.zeros((6, 3), np.uint8))


def _leaf_rows(e, seeds, field):
    """``expand_leaf_shares`` of ``seeds`` (None = hidden) as (N, T) elements, and a_n."""
    suffixes = party_suffixes(range(1, len(seeds) + 1), seeds)
    rows, a_n = expand_leaf_shares(SUITE, SALT, e, suffixes, DIMS, field)
    return leaf_elements(field, rows, DIMS.total), a_n


def leaf_stream(e, i, seed):
    """Leaf i's stream in round e: X_LEAF || salt || u16(e) || u16(i) || seed."""
    return SUITE.xof(X_LEAF, SALT, e.to_bytes(2, "little"), i.to_bytes(2, "little"), seed)


def test_leaf_n_stream_only_samples_a():
    field = base_field(16)
    seeds = [bytes([i]) * 16 for i in range(4)]
    shares, a_n = _leaf_rows(2, seeds, field)
    sx, sbeta, sa, sc = DIMS.split(shares)
    assert not sx[-1].any() and not sbeta[-1].any() and not sc[-1].any()
    assert not sa[-1].any() and a_n.any()     # leaf N's draw comes apart from its row
    # hidden leaves stay zero
    shares2, _ = _leaf_rows(2, [seeds[0], None, seeds[2], seeds[3]], field)
    assert not shares2[1].any()
    assert np.array_equal(shares2[0], shares[0])


def test_bulk_and_stream_paths_agree():
    # the vectorized power-of-two path must equal the generic sampler path
    field = base_field(16)
    seeds = [bytes([7, i]) * 8 for i in range(5)]
    shares, a_n = _leaf_rows(3, seeds, field)
    for i in range(1, 5):
        sampler = FieldSampler(field, leaf_stream(3, i, seeds[i - 1]))
        assert np.array_equal(shares[i - 1], sampler.take(DIMS.total))
    sampler = FieldSampler(field, leaf_stream(3, 5, seeds[4]))
    assert np.array_equal(a_n.ravel(), sampler.take(DIMS.r * DIMS.m))


@pytest.mark.parametrize("k", [6, 7], ids=["odd-T", "even-T"])
@pytest.mark.parametrize("q", [2, 7, 16])
@pytest.mark.parametrize("hidden", [1, 3, 8])
def test_raw_rows_and_their_sums_match_per_leaf_samplers(q, k, hidden):
    # every row, and the sum of any set of rows, reads as the per-leaf
    # sampler's elements; a GF(16) row of odd length ends in a pad nibble
    # that neither a row nor a sum may keep
    dims = ShareDims(k=k, r=2, m=5)
    field = base_field(q)
    seeds = [bytes([q, i]) * 8 for i in range(8)]
    seeds[hidden - 1] = None
    rows, a_n = expand_leaf_shares(SUITE, SALT, 4, party_suffixes(range(1, 9), seeds),
                                   dims, field)
    assert rows.shape == (8, field.packed_size(dims.total))
    assert not rows[hidden - 1].any() and not rows[-1].any()
    ref = np.zeros((8, dims.total), np.uint8)
    for i, seed in enumerate(seeds[:-1], start=1):
        if seed is not None:
            ref[i - 1] = FieldSampler(field, leaf_stream(4, i, seed)).take(dims.total)
    assert np.array_equal(leaf_elements(field, rows, dims.total), ref)
    if hidden == 8:
        assert a_n is None
    else:
        sampler = FieldSampler(field, leaf_stream(4, 8, seeds[-1]))
        assert np.array_equal(a_n, sampler.take(dims.r * dims.m).reshape(dims.r, dims.m))
    for pick in ([0, 1, 2, 3, 4, 5, 6], [0, 4], [2]):
        assert np.array_equal(leaf_elements(field, field.axis_sum(rows[pick], 0), dims.total),
                              field.axis_sum(ref[pick], 0))
    if q == 16 and dims.total & 1:
        assert (rows[[i for i in range(7) if i != hidden - 1], -1] >> 4).any()


# ---------------------------------------------------------------------------
# Shamir sharing

def test_shamir_worked_example():
    # P(X) = 5 + 2X over GF(251) at points 1, 2 -> (7, 9)
    f = base_field(251)
    shares, = shamir_share(f, np.array([[5]], np.uint8), 1, 2,
                           np.array([[[2]]], np.uint8))
    assert shares.ravel().tolist() == [7, 9]
    rec = shamir_reconstruct(f, shares, np.array([1, 2], np.uint8))
    assert rec.tolist() == [5]


def test_shamir_degree_zero():
    f = base_field(251)
    shares, = shamir_share(f, np.array([[42, 7]], np.uint8), 0, 5,
                           np.zeros((1, 0, 2), np.uint8))
    assert np.array_equal(shares, np.tile([42, 7], (5, 1)))


def test_shamir_reconstruct_linearity():
    f = base_field(251)
    rng = np.random.default_rng(4)
    pts = np.array([2, 9, 31], np.uint8)
    v0 = rng.integers(0, 251, (3, 6)).astype(np.uint8)
    v1 = rng.integers(0, 251, (3, 6)).astype(np.uint8)
    al = np.uint8(77)
    lhs = shamir_reconstruct(f, f.add(f.mul(al, v0), v1), pts)
    rhs = f.add(f.mul(al, shamir_reconstruct(f, v0, pts)),
                shamir_reconstruct(f, v1, pts))
    assert np.array_equal(lhs, rhs)


def _poly_fit_oracle(q, pts, vals):
    """Solve the Vandermonde system over GF(q) by Gaussian elimination."""
    t = len(pts)
    aug = np.zeros((t, t + vals.shape[1]), np.int64)
    for i, p in enumerate(pts):
        aug[i, :t] = [pow(int(p), j, q) for j in range(t)]
        aug[i, t:] = vals[i]
    for col in range(t):
        piv = next(i for i in range(col, t) if aug[i, col] % q)
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), q - 2, q) % q
        for i in range(t):
            if i != col and aug[i, col] % q:
                aug[i] = (aug[i] - aug[i, col] * aug[col]) % q
    return aug[:, t:] % q  # coefficient rows, ascending degree


def test_shamir_expand_matches_polynomial_fit():
    q = 7
    f = base_field(q)
    rng = np.random.default_rng(5)
    secrets = rng.integers(0, q, 4).astype(np.uint8)
    rand = rng.integers(0, q, (2, 4)).astype(np.uint8)
    shares, = shamir_share(f, secrets[None], 2, 6, rand[None])
    pts = np.array([1, 3, 5], np.uint8)
    coeffs = _poly_fit_oracle(q, pts, shares[[0, 2, 4]].astype(np.int64))
    everywhere = shamir_at(f, shares[[0, 2, 4]], pts, shamir_points(f, 6))
    for i in range(6):
        evald = sum(coeffs[j] * pow(i + 1, j, q) for j in range(3)) % q
        assert np.array_equal(everywhere[i], evald.astype(np.uint8))
    # expand of an honest sharing reproduces it, and restriction is identity
    assert np.array_equal(everywhere, shares)


def test_expand_reconstruct_consistency_all_subsets():
    q = 251
    f = base_field(q)
    rng = np.random.default_rng(6)
    secrets = rng.integers(0, q, 5).astype(np.uint8)
    shares, = shamir_share(f, secrets[None], 2, 6, rng.integers(0, q, (1, 2, 5)).astype(np.uint8))
    pts = shamir_points(f, 6)
    for subset in itertools.combinations(range(6), 3):
        sel = np.array(subset)
        rec = shamir_reconstruct(f, shares[sel], pts[sel])
        assert np.array_equal(rec, secrets)


def test_shamir_privacy_exhaustive_q7():
    # any l shares of a (l+1, N) sharing are exactly uniform
    q = 7
    f = base_field(q)
    for ell in (1, 2, 3):
        n = 5
        counts = {}
        for rand_tuple in itertools.product(range(q), repeat=ell):
            rand = np.array(rand_tuple, np.uint8).reshape(1, ell, 1)
            shares, = shamir_share(f, np.array([[3]], np.uint8), ell, n, rand)
            key = tuple(int(shares[i, 0]) for i in range(ell))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == q ** ell
        assert set(counts.values()) == {1}


def test_shamir_privacy_chi_square_q251():
    q = 251
    f = base_field(q)
    rng = np.random.default_rng(7)
    vals = []
    for _ in range(5000):
        rand = rng.integers(0, q, (1, 1, 1)).astype(np.uint8)
        shares, = shamir_share(f, np.array([[123]], np.uint8), 1, 3, rand)
        vals.append(int(shares[1, 0]))
    counts = np.bincount(vals, minlength=q).astype(float)
    expect = 5000 / q
    chi2 = ((counts - expect) ** 2 / expect).sum()
    assert chi2 < 304.940  # df = 250, significance 0.01


def test_shamir_point_capacity_error():
    f = base_field(7)
    with pytest.raises(ValueError):
        shamir_points(f, 7)
    assert len(shamir_points(f, 6)) == 6
    with pytest.raises(ValueError):
        shamir_reconstruct(f, np.zeros((2, 1), np.uint8), np.array([3, 3], np.uint8))


# ---------------------------------------------------------------------------
# batched interpolation: one point set per round, evaluated in one call

@st.composite
def shamir_rounds(draw):
    """Per-round sharings with their coefficients, points and targets."""
    q = draw(st.sampled_from([251, 16]))
    n = min(20, q - 1)
    ell = draw(st.integers(0, 4))
    rounds = draw(st.integers(1, 5))
    ncoords = draw(st.integers(1, 4))
    coeffs = np.array(draw(st.lists(st.integers(0, q - 1),
                                    min_size=rounds * (ell + 1) * ncoords,
                                    max_size=rounds * (ell + 1) * ncoords)),
                      np.uint8).reshape(rounds, ell + 1, ncoords)
    # point 0 stands for the secret itself, the other points for parties
    points = np.array([draw(st.lists(st.integers(0, n), min_size=ell + 1,
                                     max_size=ell + 1, unique=True))
                       for _ in range(rounds)], np.uint8)
    targets = np.array(draw(st.lists(st.integers(0, n), min_size=1, max_size=6)),
                       np.uint8)
    return q, n, ell, coeffs, points, targets


def _evaluate(q, coeffs, at):
    """Reference P(at) by Horner's rule from ascending coefficients (ell+1, C)."""
    f = base_field(q)
    acc = np.zeros(coeffs.shape[1], np.uint8)
    for c in coeffs[::-1]:
        acc = f.add(f.mul(acc, np.uint8(at)), c)
    return acc


@settings(max_examples=60, deadline=None)
@given(shamir_rounds())
def test_batched_expand_matches_known_evaluations(case):
    q, n, ell, coeffs, points, targets = case
    f = base_field(q)
    vals = []
    for e in range(len(points)):
        shares, = shamir_share(f, coeffs[e:e + 1, 0], ell, n, coeffs[e:e + 1, 1:])
        at = np.concatenate([coeffs[e, :1], shares])      # row p = P(p)
        vals.append(at[points[e]])
    got = shamir_at(f, np.stack(vals), points, targets)
    assert got.shape == (len(points), len(targets), coeffs.shape[2])
    for e in range(len(points)):
        for a, tgt in enumerate(targets):
            assert np.array_equal(got[e, a], _evaluate(q, coeffs[e], tgt))
    # the single-round call is the B = 1 batch, and each round's slice of
    # one weight computation is that round's own weights
    assert np.array_equal(shamir_at(f, vals[0], points[0], targets), got[0])
    weights = lagrange_weights(f, points, targets)
    for e in range(len(points)):
        assert np.array_equal(weights[e:e + 1], lagrange_weights(f, points[e:e + 1], targets))
        assert np.array_equal(shamir_expand(f, vals[e][None], weights[e:e + 1])[0], got[e])
    rec = shamir_reconstruct(f, np.stack(vals), points)
    assert np.array_equal(rec, coeffs[:, 0])


@settings(max_examples=30, deadline=None)
@given(shamir_rounds(), st.data())
def test_batched_expand_rejects_duplicate_points_in_any_row(case, data):
    q, n, ell, coeffs, points, targets = case
    assume(ell > 0)
    f = base_field(q)
    row = data.draw(st.integers(0, len(points) - 1))
    i, j = data.draw(st.lists(st.integers(0, ell), min_size=2, max_size=2,
                              unique=True))
    points[row, i] = points[row, j]
    shares = np.zeros((len(points), ell + 1, coeffs.shape[2]), np.uint8)
    with pytest.raises(ValueError):
        shamir_at(f, shares, points, targets)


@pytest.mark.parametrize("q, t", [(q, t) for q in (7, 11, 251) for t in range(1, 10) if t <= q])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lagrange_weights_match_per_weight_products(q, t, data):
    # up to t = 9 points: at q = 251 one int64 product of the t - 1 = 8
    # factors of a weight could reach 250^8 > 2^63
    f = base_field(q)
    rounds = data.draw(st.integers(1, 3), label="rounds")
    points = np.array([data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t,
                                          unique=True), label="points")
                       for _ in range(rounds)], np.uint8)
    # targets inside and, where one is left, outside the first row's points
    targets = data.draw(st.lists(st.integers(0, q - 1), max_size=4), label="targets")
    targets.append(int(points[0, -1]))
    if t < q:
        targets.append(data.draw(st.sampled_from(sorted(set(range(q)) - set(points[0].tolist()))),
                                 label="outside"))
    targets = np.array(targets, np.uint8)
    assert np.array_equal(lagrange_weights(f, points, targets),
                          lagrange_weights_by_mul(f, points, targets))
    if t > 1:
        points[-1, 0] = points[-1, 1]
        with pytest.raises(ValueError):
            lagrange_weights(f, points, targets)


@settings(max_examples=40, deadline=None)
@given(shamir_rounds())
def test_round_batched_share_equals_per_round_calls(case):
    q, n, ell, coeffs, _, _ = case
    f = base_field(q)
    got = shamir_share(f, coeffs[:, 0], ell, n, coeffs[:, 1:])
    assert got.shape == (len(coeffs), n, coeffs.shape[2])
    for e in range(len(coeffs)):
        assert np.array_equal(got[e], shamir_share(f, coeffs[e:e + 1, 0], ell, n,
                                                   coeffs[e:e + 1, 1:])[0])
        assert np.array_equal(got[e, 0], _evaluate(q, coeffs[e], 1))


# ---------------------------------------------------------------------------
# c = -<a, beta> through beta's multiplication map

@pytest.mark.parametrize("q", [251, 16, 7])
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), r=st.integers(1, 4), rounds=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_neg_inner_equals_per_round_dot(q, m, r, rounds, seed):
    ext = ext_field(q, m)
    rng = np.random.default_rng(seed)
    beta = rng.integers(0, q, (r, m)).astype(np.uint8)
    a = rng.integers(0, q, (rounds, r, m)).astype(np.uint8)
    w_beta = beta_map(ext, beta)
    got = neg_inner(ext, a, w_beta)
    assert got.shape == (rounds, m)
    for e in range(rounds):
        ref = ext.neg(ext.dot(a[e], beta, axis=0))
        assert np.array_equal(got[e], ref)
        assert np.array_equal(neg_inner(ext, a[e], w_beta), ref)    # one round: (m,)
