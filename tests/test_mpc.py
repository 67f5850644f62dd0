import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira import params
from mira.estimator import false_positive, flog2
from mira.fields import base_field, ext_field
from mira.hashing import HashSuite
from mira.keys import keygen_optimized
from mira.matrices import columns_to_ext, rank, sample_rank_bounded
from mira.mpc import ChallengeBatch, PkOperand
from mira.params import ParameterSet
from mira.qpoly import annihilator
from mira.sharing import ShareDims, hypercube_aggregate, plain_rows, shamir_share

from helpers import full_sharing, shamir_reconstruct, stacked, systematic

SUITE = HashSuite(128)
SALT = b"\x31" * SUITE.salt_bytes


def setup_instance(q, m, n, k, r, tag=b"i"):
    # a MinRank instance only: N and tau are placeholders
    mr = ParameterSet("additive", 0, q=q, m=m, n=n, k=k, r=r, N=2, tau=1, eta=1,
                      lam=128).minrank()
    pk, sk = keygen_optimized(mr, tag)
    x, e_mat = sk.witness()
    beta = annihilator(mr.ext, columns_to_ext(e_mat), r)
    return mr, pk, x, beta


def random_challenge(mr, rng):
    gamma = rng.integers(0, mr.q, (mr.n, mr.m)).astype(np.uint8)
    eps = rng.integers(0, mr.q, mr.m).astype(np.uint8)
    return gamma, eps


def plain_run(batch, op, x, beta, a, c):
    """The check of a one-round batch on plaintext inputs: (alpha, v)."""
    rows = plain_rows(x, beta, a, c)[None, None]
    al, z = batch.broadcast_alpha(op, rows, [True])
    v = batch.broadcast_v(z, rows, al)
    return al[0, 0], v[0, 0]


def test_honest_witness_always_accepts():
    rng = np.random.default_rng(0)
    for q, m, n, k, r in [(16, 6, 5, 8, 2), (251, 5, 6, 7, 2), (2, 4, 4, 5, 1)]:
        mr, pk, x, beta = setup_instance(q, m, n, k, r)
        ext = mr.ext
        op = PkOperand.of(pk)
        for trial in range(20):
            gamma, eps = random_challenge(mr, rng)
            a = rng.integers(0, q, (r, m)).astype(np.uint8)
            c = ext.neg(ext.dot(a, beta, axis=0))
            batch = ChallengeBatch(ext, r, gamma[None], eps[None])
            _, v = plain_run(batch, op, x, beta, a, c)
            assert not v.any()


def test_additive_sum_equals_plaintext():
    rng = np.random.default_rng(1)
    mr, pk, x, beta = setup_instance(16, 6, 5, 8, 2)
    ext = mr.ext
    dims = ShareDims(k=mr.k, r=mr.r, m=mr.m)
    op = PkOperand.of(pk)
    n_parties = 8
    seeds = [bytes([i]) * 16 for i in range(n_parties)]
    shares, a_plain, c_plain = full_sharing(SUITE, SALT, 1, seeds, dims, mr.base, ext, x, beta)
    batch = ChallengeBatch(ext, mr.r, *stacked([random_challenge(mr, rng)]))
    alpha_p, v_p = plain_run(batch, op, x, beta, a_plain, c_plain)
    offs = np.zeros(n_parties, bool)
    offs[0] = True
    al, z = batch.broadcast_alpha(op, shares[None], offs)
    assert np.array_equal(mr.base.axis_sum(al[0], 0), alpha_p)
    v = batch.broadcast_v(z, shares[None], alpha_p[None, None])
    assert np.array_equal(mr.base.axis_sum(v[0], 0), v_p)
    assert not v_p.any()


def test_shamir_parties_reconstruct_to_plaintext():
    rng = np.random.default_rng(2)
    mr, pk, x, beta = setup_instance(251, 5, 6, 7, 2)
    ext = mr.ext
    op = PkOperand.of(pk)
    ell, n_parties = 2, 9
    a = rng.integers(0, 251, (mr.r, mr.m)).astype(np.uint8)
    c = ext.neg(ext.dot(a, beta, axis=0))
    coords = np.concatenate([x, beta.ravel(), a.ravel(), c])
    rand = rng.integers(0, 251, (ell, coords.size)).astype(np.uint8)
    sh, = shamir_share(mr.base, coords[None], ell, n_parties, rand[None])
    batch = ChallengeBatch(ext, mr.r, *stacked([random_challenge(mr, rng)]))
    alpha_p, v_p = plain_run(batch, op, x, beta, a, c)
    sel = np.array([1, 4, 7], np.uint8)  # any ell+1 parties
    al, z = batch.broadcast_alpha(op, sh[None, sel - 1], np.ones(3, bool))
    arec = shamir_reconstruct(mr.base, al[0].reshape(3, -1), sel)
    assert np.array_equal(arec.reshape(mr.r, mr.m), alpha_p)
    v = batch.broadcast_v(z, sh[None, sel - 1], alpha_p[None, None])
    vrec = shamir_reconstruct(mr.base, v[0], sel)
    assert np.array_equal(vrec, v_p)
    assert not v_p.any()


def test_share_linearity():
    rng = np.random.default_rng(3)
    mr, pk, x, beta = setup_instance(16, 6, 5, 8, 2)
    op = PkOperand.of(pk)
    ext = mr.ext
    batch = ChallengeBatch(ext, mr.r, *stacked([random_challenge(mr, rng)]))
    xu = rng.integers(0, 16, (2, mr.k)).astype(np.uint8)
    au = rng.integers(0, 16, (2, mr.r, mr.m)).astype(np.uint8)
    ru = plain_rows(xu, np.zeros_like(au), au, np.zeros((2, mr.m), np.uint8))
    al, z = batch.broadcast_alpha(op, ru[None], np.array([True, False]))
    al_sum, z_sum = batch.broadcast_alpha(op, mr.base.add(ru[0], ru[1])[None, None],
                                          np.array([True]))
    assert np.array_equal(mr.base.axis_sum(al[0], 0), al_sum[0, 0])
    assert np.array_equal(mr.base.axis_sum(z[0], 0), z_sum[0, 0])


def test_hypercube_consistency_and_shortcut():
    rng = np.random.default_rng(4)
    mr, pk, x, beta = setup_instance(16, 6, 5, 8, 2)
    ext = mr.ext
    dims = ShareDims(k=mr.k, r=mr.r, m=mr.m)
    op = PkOperand.of(pk)
    seeds = [bytes([i]) * 16 for i in range(16)]
    shares, a_plain, c_plain = full_sharing(SUITE, SALT, 1, seeds, dims, mr.base, ext, x, beta)
    batch = ChallengeBatch(ext, mr.r, *stacked([random_challenge(mr, rng)]))
    alpha_p, v_p = plain_run(batch, op, x, beta, a_plain, c_plain)
    depth = 4
    rows = hypercube_aggregate(mr.base, shares).reshape(1, 2 * depth, -1)
    offs = np.array([True, False] * depth)
    al, z = batch.broadcast_alpha(op, rows, offs)
    al = al.reshape(depth, 2, mr.r, mr.m)
    v = batch.broadcast_v(z, rows, alpha_p[None, None])
    v = v.reshape(depth, 2, mr.m)
    for kd in range(depth):
        # both main parties of every dimension open the same plaintext
        assert np.array_equal(mr.base.add(al[kd, 0], al[kd, 1]), alpha_p)
        assert np.array_equal(mr.base.add(v[kd, 0], v[kd, 1]), v_p)
        # recomputation shortcut is exact
        assert np.array_equal(al[kd, 1], ext.sub(alpha_p, al[kd, 0]))


def test_exhaustive_false_positive_bound_toy():
    # q=2, m=3, n=3, r=1 with a rank-2 witness matrix: over all (gamma, eps)
    # challenges the accept fraction stays within the advertised bound
    q, m, n, r = 2, 3, 3, 1
    ext = ext_field(q, m)
    base = ext.base
    rng = np.random.default_rng(5)
    from mira.hashing import FieldSampler, X_KEYSEC
    sampler = FieldSampler(base, SUITE.xof(X_KEYSEC, b"E2"))
    e_mat = sample_rank_bounded(base, m, n, 2, sampler)  # rank two, beyond r
    cols = columns_to_ext(e_mat)
    # best cheating annihilator: vanish on a one-dimensional subspace
    u = cols[0] if cols[0].any() else cols[1]
    beta = annihilator(ext, u[None, :], r)
    a = rng.integers(0, q, (r, m)).astype(np.uint8)
    c = ext.neg(ext.dot(a, beta, axis=0))

    # a systematic key around the rank-2 E, as key generation builds one: x is
    # E's first two entries and M_0' = E's tail - x L'
    l_prime = rng.integers(0, q, (2, m * n - 2)).astype(np.uint8)
    e_flat = e_mat.reshape(-1)
    x = e_flat[:2].copy()
    op = PkOperand(base, l_prime, base.sub(e_flat[2:], base.matmul(x[None, :], l_prime)[0]))

    challenges = []
    for bits in itertools.product(range(8), repeat=n + 1):
        gamma = np.array([[b & 1, b >> 1 & 1, b >> 2 & 1] for b in bits[:n]], np.uint8)
        eps = np.array([bits[n] & 1, bits[n] >> 1 & 1, bits[n] >> 2 & 1], np.uint8)
        challenges.append((gamma, eps))
    batch = ChallengeBatch(ext, r, *stacked(challenges))
    rows = np.tile(plain_rows(x, beta, a, c), (len(challenges), 1, 1))
    al, z = batch.broadcast_alpha(op, rows, np.ones(1, bool))
    v = batch.broadcast_v(z, rows, al)
    accepts = int((~v.reshape(len(challenges), m).any(axis=1)).sum())
    frac = Fraction(accepts, len(challenges))
    assert frac <= Fraction(15, 64)
    assert frac > 0


def test_zero_epsilon_always_accepts():
    # eps = 0 with honest (a, c) gives v = 0 regardless of the witness
    rng = np.random.default_rng(6)
    mr, pk, x, _ = setup_instance(16, 6, 5, 8, 2)
    ext = mr.ext
    op = PkOperand.of(pk)
    beta_bad = rng.integers(0, 16, (mr.r, mr.m)).astype(np.uint8)
    a = rng.integers(0, 16, (mr.r, mr.m)).astype(np.uint8)
    c = ext.neg(ext.dot(a, beta_bad, axis=0))
    gamma = rng.integers(0, 16, (mr.n, mr.m)).astype(np.uint8)
    batch = ChallengeBatch(ext, mr.r, gamma[None], np.zeros((1, mr.m), np.uint8))
    _, v = plain_run(batch, op, x, beta_bad, a, c)
    assert not v.any()


def test_false_positive_rate_values():
    ps = params.parameter_set("additive", 1)

    def rate(q, m):
        return false_positive(ps.with_overrides(q=q, m=m, eta=1))

    assert rate(2, 3) == Fraction(15, 64)
    assert abs(flog2(rate(16, 16)) - (-63.0)) < 0.01
    assert abs(flog2(rate(251, 12)) - (-94.66)) < 0.01


def reference_run(ext, r, challenges, l_rows, m0_flat, x, a, beta, c, offsets):
    """(alpha, z, v) party by party, straight from w_i = sum_j gamma_j e_j^(q^i).

    Reads all of L and M_0, as ``helpers.systematic`` builds them from a
    key's (L', M_0'): identity block and zero head included.
    """
    base, m = ext.base, ext.m
    tau, b, k = x.shape
    alpha = np.empty((tau, b, r, m), np.uint8)
    z = np.empty((tau, b, m), np.uint8)
    v = np.empty((tau, b, m), np.uint8)
    for e, (gamma, eps) in enumerate(challenges):
        for p in range(b):
            e_flat = m0_flat.copy() if offsets[e, p] else np.zeros_like(m0_flat)
            for i in range(k):
                e_flat = base.add(e_flat, base.mul(x[e, p, i], l_rows[i]))
            cols = e_flat.reshape(m, -1).T                     # e_j, (n, m)
            w = [base.axis_sum(ext.mul(gamma, ext.frob(cols, i)), axis=0)
                 for i in range(r + 1)]
            z[e, p] = ext.neg(w[r])
            for i in range(r):
                alpha[e, p, i] = ext.add(ext.mul(eps, w[i]), a[e, p, i])
    for e, (_, eps) in enumerate(challenges):
        for p in range(b):
            ip = base.axis_sum(ext.mul(alpha[e, p], beta[e, p]), axis=0)
            v[e, p] = ext.sub(ext.sub(ext.mul(eps, z[e, p]), ip), c[e, p])
    return alpha, z, v


@settings(max_examples=30, deadline=None)
@given(q=hs.sampled_from([2, 16, 251]), m=hs.integers(1, 5), n=hs.integers(1, 5),
       tau=hs.integers(2, 3), b=hs.integers(1, 4), data=hs.data())
def test_batched_contraction_matches_per_party_reference(q, m, n, tau, b, data):
    # the operand takes a key's (L', M_0'); the reference reads the full
    # L = [I_k | L'] and M_0 with its zero head
    r = data.draw(hs.integers(1, min(m, n)), label="r")
    k = data.draw(hs.integers(1, min(4, m * n)), label="k")
    rng = np.random.default_rng(data.draw(hs.integers(0, 2 ** 32 - 1), label="seed"))
    ext = ext_field(q, m)

    def rand(*shape):
        return rng.integers(0, q, shape).astype(np.uint8)

    l_prime, m0_tail = rand(k, m * n - k), rand(m * n - k)
    l_rows, m0_flat = systematic(l_prime, m0_tail)
    challenges = [(rand(n, m), rand(m)) for _ in range(tau)]
    x, a, beta, c = rand(tau, b, k), rand(tau, b, r, m), rand(tau, b, r, m), rand(tau, b, m)
    offsets = rng.random((tau, b)) < 0.5
    batch = ChallengeBatch(ext, r, *stacked(challenges))
    rows = plain_rows(x, beta, a, c)
    alpha, ez = batch.broadcast_alpha(PkOperand(ext.base, l_prime, m0_tail), rows, offsets)
    v = batch.broadcast_v(ez, rows, alpha)
    ref = reference_run(ext, r, challenges, l_rows, m0_flat, x, a, beta, c, offsets)
    eps = np.stack([e for _, e in challenges])[:, None]
    assert np.array_equal(alpha, ref[0])
    assert np.array_equal(ez, ext.mul(eps, ref[1]))
    assert np.array_equal(v, ref[2])


def shipped_row_counts(ps):
    """Share-of-E row counts the schemes pass: 1, tau and tau (D + 1) for
    additive, tau ell and tau (ell + 2) for threshold."""
    if ps.variant == "additive":
        return [1, ps.tau, ps.tau * (ps.depth + 1)]
    return [ps.tau * ps.ell, ps.tau * (ps.ell + 2)]


@pytest.mark.parametrize("variant", ["additive", "threshold"])
@pytest.mark.parametrize("level", [1, 3, 5])
def test_e_shares_match_the_full_l_on_shipped_keys(variant, level):
    ps = params.parameter_set(variant, level).sign_params()
    base = ps.base
    pk, _ = keygen_optimized(ps, b"e shares")
    l_prime = pk.matrices()[0]
    l_rows, m0_flat = systematic(*pk.matrices())
    op = PkOperand.of(pk)
    rng = np.random.default_rng(level)
    for rows in shipped_row_counts(ps):
        x = rng.integers(0, ps.q, (rows, ps.k)).astype(np.uint8)
        offsets = rng.random(rows) < 0.5
        offsets[-1] = not offsets[0]        # both kinds when rows > 1
        # E = M_0 + sum_i x_i M_i, row by row of L
        ref = np.where(offsets[:, None], m0_flat, 0).astype(np.uint8)
        for i in range(ps.k):
            ref = base.add(ref, base.mul(x[:, i, None], l_rows[i]))
        assert np.array_equal(op.e_shares(x, offsets), ref)
    if variant == "additive":
        # the GF(2) table that perfbench's tracer still names maps x to x @ L'
        d, cols = base.d, ps.m * ps.n - ps.k
        table = PkOperand._gf2_table(base, l_prime)
        xbits = np.concatenate([(x >> s) & 1 for s in range(d)], axis=1)
        ybits = np.unpackbits(table.apply_packed(np.packbits(xbits, axis=1)), axis=1)
        tail = sum(ybits[:, t * cols:(t + 1) * cols] << t for t in range(d))
        assert np.array_equal(tail, op.e_shares(x, np.zeros(len(x), bool))[:, ps.k:])


@pytest.mark.parametrize("offsets", ["none", "all", "mixed"])
@pytest.mark.parametrize("q", [16, 251])
def test_e_shares_are_x_then_x_l_prime_plus_offset_m0(q, offsets):
    # E = [x | x L'] + o M_0 with M_0 = [0 | M_0'], against the operand's
    # one product [x | o] @ [L'; M_0']
    base = base_field(q)
    rng = np.random.default_rng(q)
    rows, k, tail = 6, 7, 23
    x = rng.integers(0, q, (rows, k)).astype(np.uint8)
    l_prime = rng.integers(0, q, (k, tail)).astype(np.uint8)
    m0_tail = rng.integers(1, q, tail).astype(np.uint8)
    m0_flat = systematic(l_prime, m0_tail)[1]
    o = {"none": np.zeros(rows, bool), "all": np.ones(rows, bool),
         "mixed": np.arange(rows) % 2 == 1}[offsets]
    ref = np.concatenate([x, base.matmul(x, l_prime)], axis=1)
    ref = np.where(o[:, None], base.add(ref, m0_flat), ref)
    assert np.array_equal(PkOperand(base, l_prime, m0_tail).e_shares(x, o), ref)


@settings(max_examples=30, deadline=None)
@given(q=hs.sampled_from([2, 16, 251]), m=hs.integers(1, 5), tau=hs.integers(1, 3),
       b=hs.integers(1, 4), r=hs.integers(1, 3), seed=hs.integers(0, 2 ** 32 - 1))
def test_broadcast_v_with_one_opened_alpha_per_round(q, m, tau, b, r, seed):
    # the (tau, 1, r, m) form every scheme passes: <alpha, beta> as one GEMM
    # against each round's alpha, checked party by party
    rng = np.random.default_rng(seed)
    ext = ext_field(q, m)

    def rand(*shape):
        return rng.integers(0, q, shape).astype(np.uint8)

    challenges = [(rand(2, m), rand(m)) for _ in range(tau)]
    z, beta, c, alpha = rand(tau, b, m), rand(tau, b, r, m), rand(tau, b, m), rand(tau, 1, r, m)
    rows = plain_rows(np.zeros((tau, b, 0), np.uint8), beta, np.zeros_like(beta), c)
    ez = ext.mul(np.stack([e for _, e in challenges])[:, None], z)
    v = ChallengeBatch(ext, r, *stacked(challenges)).broadcast_v(ez, rows, alpha)
    for e, (_, eps) in enumerate(challenges):
        for p in range(b):
            ip = ext.base.axis_sum(ext.mul(alpha[e, 0], beta[e, p]), axis=0)
            assert np.array_equal(v[e, p], ext.sub(ext.sub(ext.mul(eps, z[e, p]), ip), c[e, p]))


def test_challenge_batches_share_the_cached_rank_map():
    rng = np.random.default_rng(7)
    ext = ext_field(16, 5)

    def challenge():
        return rng.integers(0, 16, (4, 5)).astype(np.uint8), rng.integers(0, 16, 5).astype(np.uint8)

    first = ChallengeBatch(ext, 2, *stacked([challenge()]))
    assert ChallengeBatch(ext, 2, *stacked([challenge(), challenge()]))._map is first._map
    assert ChallengeBatch(ext, 3, *stacked([challenge()]))._map is not first._map
