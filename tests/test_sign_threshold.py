import itertools
import math

import numpy as np
import pytest

from mira import estimator, params, sign_threshold as st
from mira.fields import base_field
from mira.hashing import derive_challenge1, derive_challenge2_threshold
from mira.keys import keygen_optimized
from mira.matrices import columns_to_ext
from mira.mpc import ChallengeBatch, PkOperand
from mira.params import ParameterSet
from mira.qpoly import annihilator
from mira.sharing import shamir_share
from mira.trees import MerkleTree, merkle_auth, merkle_root_from_auth

from helpers import shamir_at, shamir_reconstruct

TOY = ParameterSet("threshold", 0, q=251, m=3, n=3, k=3, r=1, N=10, tau=3, eta=1,
                   lam=128, ell=2).sign_params()
TOY7 = ParameterSet("threshold", 0, q=7, m=2, n=2, k=3, r=1, N=6, tau=1, eta=1,
                    lam=128, ell=1).sign_params()
# GF(16) packs two elements per byte; T = k + 2rm + m = 13 is odd, so each
# committed party state ends in a padding nibble and the opened block does not
TOY16 = ParameterSet("threshold", 0, q=16, m=3, n=3, k=4, r=1, N=15, tau=2, eta=1,
                     lam=128, ell=2).sign_params()


@pytest.mark.parametrize("level", [1, 3, 5])
def test_round_trip_and_size_bound(level):
    ps = params.parameter_set("threshold", level)
    tp = ps.sign_params()
    assert tp.n_parties == 250  # operational cap at q - 1
    pk, sk = keygen_optimized(tp, b"rt%d" % level)
    msg = b"threshold round trip"
    # the worst-case formula over the operational party count
    bound = estimator.sig_size_bound_bits(ps.with_overrides(N=tp.n_parties))
    for i in range(3):
        sig = st.sign(tp, pk, sk, msg, b"e%d" % i)
        assert len(sig) * 8 <= bound
        assert st.verify(tp, pk, msg, sig)
        assert not st.verify(tp, pk, msg + b"!", sig)


@pytest.mark.parametrize("n, ell, tight", [(10, 3, True), (16, 3, True), (33, 3, True),
                                           (15, 1, True), (20, 4, False), (12, 5, False)])
def test_auth_limit_bounds_every_subset(n, ell, tight):
    ps = params.parameter_set("threshold", 1).with_overrides(N=n, ell=ell)
    tree = MerkleTree(ps.suite, [bytes([i]) for i in range(n)])
    most = max(len(merkle_auth(tree, subset))
               for subset in itertools.combinations(range(1, n + 1), ell))
    limit, = st.layout(ps).shape("auth")
    assert limit == most if tight else limit > most


@pytest.mark.parametrize("level, largest, bound", [(1, 8713, 8720), (3, 18634, 18658),
                                                   (5, 31902, 31965)])
def test_layout_maximum_within_the_estimator_bound(level, largest, bound):
    ps = params.parameter_set("threshold", level)
    lay = st.layout(ps)
    assert lay.shape("auth") == (19,)
    assert lay.max_bytes == largest
    assert largest <= math.ceil(estimator.sig_size_bound_bits(ps) / 8) == bound


def test_per_round_field_payload_level1():
    tp = params.parameter_set("threshold", 1).sign_params()
    dims = tp.share_dims
    k, r, m = dims.k, dims.r, dims.m
    state = k + r * m + r * m + m
    assert state == dims.total == 187
    assert tp.ell * state + r * m == 621


def test_determinism_and_variable_length():
    pk, sk = keygen_optimized(TOY, b"det")
    s1 = st.sign(TOY, pk, sk, b"m", b"fixed")
    s2 = st.sign(TOY, pk, sk, b"m", b"fixed")
    assert s1 == s2
    sizes = {len(st.sign(TOY, pk, sk, b"m", b"e%d" % i)) for i in range(12)}
    assert len(sizes) > 1  # authentication paths vary per challenge


def test_toy_round_trips():
    for tp, tag in ((TOY, b"t251"), (TOY7, b"t7")):
        pk, sk = keygen_optimized(tp, tag)
        for i in range(10):
            sig = st.sign(tp, pk, sk, b"msg%d" % i, b"e%d" % i)
            assert st.verify(tp, pk, b"msg%d" % i, sig)


def test_gf16_odd_state_width_round_trips():
    tp = TOY16
    assert tp.share_dims.total % 2 == 1
    pk, sk = keygen_optimized(tp, b"t16")
    for i in range(4):
        msg = b"msg%d" % i
        sig = st.sign(tp, pk, sk, msg, b"e%d" % i)
        assert st.encode(tp, st.decode(tp, sig)) == sig
        assert st.verify(tp, pk, msg, sig)
        assert not st.verify(tp, pk, msg + b"!", sig)


def test_gf16_round_batched_share_equals_per_round_calls():
    tp = TOY16
    t_cols = tp.share_dims.total
    assert t_cols % 2 == 1
    rng = np.random.default_rng(16)
    secrets = rng.integers(0, 16, (tp.tau + 1, t_cols)).astype(np.uint8)
    rand = rng.integers(0, 16, (tp.tau + 1, tp.ell, t_cols)).astype(np.uint8)
    got = shamir_share(tp.base, secrets, tp.ell, tp.n_parties, rand)
    for e in range(tp.tau + 1):
        assert np.array_equal(got[e], shamir_share(tp.base, secrets[e:e + 1], tp.ell,
                                                   tp.n_parties, rand[e:e + 1])[0])
    # every party row is a degree-ell sharing of its round's secrets
    rec = shamir_reconstruct(tp.base, got[:, :tp.ell + 1],
                             np.tile(np.arange(1, tp.ell + 2, dtype=np.uint8), (tp.tau + 1, 1)))
    assert np.array_equal(rec, secrets)


def test_gf16_nonzero_padding_nibble_is_a_format_error():
    tp = TOY16
    assert tp.r * tp.m % 2 == 1          # each round ends in alpha_star's padding nibble
    pk, sk = keygen_optimized(tp, b"pad")
    data = st.sign(tp, pk, sk, b"m", b"e")
    assert st.verify(tp, pk, b"m", data)
    padded = data[:-1] + bytes([data[-1] ^ 0x10])
    with pytest.raises(st.SignatureFormatError):
        st.decode(tp, padded)
    assert not st.verify(tp, pk, b"m", padded)


def manual_protocol_run(tp, n_run, tag=b"run"):
    """Shares and broadcasts for n_run parties of a fresh honest instance."""
    rng = np.random.default_rng(int.from_bytes(tag, "little"))
    mr = tp
    ext = mr.ext
    pk, sk = keygen_optimized(mr, tag)
    x, e_mat = sk.witness()
    beta = annihilator(ext, columns_to_ext(e_mat), mr.r)
    a = rng.integers(0, mr.q, (mr.r, mr.m)).astype(np.uint8)
    c = ext.neg(ext.dot(a, beta, axis=0))
    coords = np.concatenate([x, beta.ravel(), a.ravel(), c])
    rand = rng.integers(0, mr.q, (tp.ell, coords.size)).astype(np.uint8)
    shares, = shamir_share(mr.base, coords[None], tp.ell, n_run, rand[None])
    gamma = rng.integers(0, mr.q, (mr.n, mr.m)).astype(np.uint8)
    eps = rng.integers(0, mr.q, mr.m).astype(np.uint8)
    batch = ChallengeBatch(ext, mr.r, gamma[None], eps[None])
    op = PkOperand.of(pk)
    al_p, z_p = batch.broadcast_alpha(op, coords[None, None], [True])
    v_p = batch.broadcast_v(z_p, coords[None, None], al_p)
    alpha_p = al_p[0, 0]
    assert not v_p.any()
    al, z = batch.broadcast_alpha(op, shares[None], np.ones(n_run, bool))
    v = batch.broadcast_v(z, shares[None], alpha_p[None, None])
    return mr, alpha_p, al[0], v[0]


def test_degree_preservation_of_alpha_shares():
    tp = TOY
    mr, alpha_p, al, v = manual_protocol_run(tp, 8)
    base = mr.base
    flat = al.reshape(8, -1)
    pts = np.arange(1, 9, dtype=np.uint8)
    # interpolate from l+1 parties, check every remaining share is consistent
    expanded = shamir_at(base, flat[:tp.ell + 1], pts[:tp.ell + 1], pts)
    assert np.array_equal(expanded, flat)
    rec = shamir_reconstruct(base, flat[[0, 3, 6]], pts[[0, 3, 6]])
    assert np.array_equal(rec.reshape(mr.r, mr.m), alpha_p)


def test_v_reconstructs_to_zero_from_any_subset():
    tp = TOY
    mr, _, _, v = manual_protocol_run(tp, 8, tag=b"vz")
    pts = np.arange(1, 9, dtype=np.uint8)
    for sel in ([0, 1, 2], [2, 4, 7], [0, 5, 6]):
        rec = shamir_reconstruct(mr.base, v[sel], pts[sel])
        assert not rec.any()


def test_alpha_star_replacement_rejects():
    tp = TOY7
    pk, sk = keygen_optimized(tp, b"rm")
    rng = np.random.default_rng(5)
    rejects = 0
    trials = 60
    for t in range(trials):
        data = st.sign(tp, pk, sk, b"m", b"e%d" % t)
        sig = st.decode(tp, data)
        alpha_star = sig.columns["alpha_star"]
        new = alpha_star[0].copy()
        while np.array_equal(new, alpha_star[0]):
            new = rng.integers(0, 7, new.shape).astype(np.uint8)
        alpha_star[0] = new
        rejects += not st.verify(tp, pk, b"m", st.encode(tp, sig))
    # false positive rate is 2/49 per round; with tau = 1 almost all reject
    assert rejects >= trials - 8


def test_verify_decoded_reads_rebound_fields():
    # the columns are what verify_decoded checks: rebinding one to an equal
    # copy keeps the signature valid, to one changed in round 1 rejects it
    # exactly as the re-encoded bytes do
    tp = TOY
    pk, sk = keygen_optimized(tp, b"rb")
    data = st.sign(tp, pk, sk, b"m", b"e")
    for name in ("alpha_star", "opened"):
        sig = st.decode(tp, data)
        sig.columns[name] = sig.columns[name].copy()
        assert st.verify_decoded(tp, pk, b"m", sig)
        new = sig.columns[name].copy()
        new[1].flat[0] = (int(new[1].flat[0]) + 1) % tp.base.q
        sig.columns[name] = new
        assert not st.verify_decoded(tp, pk, b"m", sig)
        assert not st.verify(tp, pk, b"m", st.encode(tp, sig))


def two_witness_instance():
    """Public matrices with two known rank-r solutions (q = 7)."""
    base = base_field(7)
    rng = np.random.default_rng(6)
    e1 = np.array([[1, 0], [0, 0]], np.uint8)
    e2 = np.array([[0, 2], [0, 0]], np.uint8)
    x1 = np.array([3, 1, 5], np.uint8)
    x2 = np.array([5, 1, 5], np.uint8)  # differs only in coordinate 1
    # M_1 = (e1 - e2) / (x1_1 - x2_1); M_2, M_3 random
    diff = base.sub(e1, e2).reshape(-1)
    m1 = base.mul(base.inv(base.sub(x1[0], x2[0])), diff)
    l_rows = np.stack([m1,
                       rng.integers(0, 7, 4).astype(np.uint8),
                       rng.integers(0, 7, 4).astype(np.uint8)])
    m0 = base.sub(e1.reshape(-1), base.matmul(x1[None, :], l_rows)[0])
    from mira.matrices import rank
    for x in (x1, x2):
        e = base.add(m0, base.matmul(x[None, :], l_rows)[0]).reshape(2, 2)
        assert rank(base, e) <= 1
    return (l_rows, m0), (x1, e1), (x2, e2)


def test_opened_share_marginals_independent_of_witness():
    # exhaustive over the sharing randomness at q = 7, l = 1, N = 4: each
    # opened coordinate takes every field value equally often under both
    # witnesses of the same public key
    _, (x1, _), (x2, _) = two_witness_instance()
    base = base_field(7)
    for x in (x1, x2):
        for party in range(4):
            for coord in range(3):
                counts = np.zeros(7, int)
                for rnd in range(7):
                    shares, = shamir_share(base, [x], 1, 4,
                                           np.full((1, 1, 3), rnd, np.uint8))
                    counts[shares[party, coord]] += 1
                assert set(counts.tolist()) == {1}


def test_fuzz_bit_flips_toy():
    tp = TOY
    pk, sk = keygen_optimized(tp, b"fz")
    data = st.sign(tp, pk, sk, b"m", b"e")
    rng = np.random.default_rng(7)
    for _ in range(150):
        pos = int(rng.integers(0, len(data) * 8))
        mutated = bytearray(data)
        mutated[pos // 8] ^= 1 << (pos % 8)
        assert not st.verify(tp, pk, b"m", bytes(mutated))


def test_decode_errors():
    tp = TOY
    pk, sk = keygen_optimized(tp, b"de")
    data = st.sign(tp, pk, sk, b"m", b"e")
    with pytest.raises(st.SignatureFormatError):
        st.decode(tp, data[:-1])
    with pytest.raises(st.SignatureFormatError):
        st.decode(tp, data + b"\x00")
    # out-of-range field byte inside an opened state
    sig = st.decode(tp, data)
    blob = bytearray(data)
    # first opened state begins after salt/h1/h2, count header and auth
    off = tp.suite.salt_bytes + 2 * tp.suite.digest_bytes + 2
    off += len(sig.columns["auth"][0]) * tp.suite.digest_bytes
    blob[off] = 255
    with pytest.raises(st.SignatureFormatError):
        st.decode(tp, bytes(blob))
    # oversized auth count header
    blob = bytearray(data)
    pos = tp.suite.salt_bytes + 2 * tp.suite.digest_bytes
    blob[pos:pos + 2] = (60000).to_bytes(2, "little")
    with pytest.raises(st.SignatureFormatError):
        st.decode(tp, bytes(blob))


def test_operational_party_cap():
    # N >= q runs on the q - 1 nonzero Shamir points; ell + 1 must fit in them
    row = ParameterSet("threshold", 0, q=7, m=2, n=2, k=3, r=1, N=7, tau=1, eta=1,
                       lam=128, ell=1)
    assert row.sign_params().n_parties == 6
    with pytest.raises(ValueError):
        row.with_overrides(ell=6).sign_params()


@pytest.fixture(scope="module")
def t1_signed():
    ps = params.parameter_set("threshold", 1)
    pk, sk = keygen_optimized(ps, b"auth shape")
    return ps, pk, st.sign(ps, pk, sk, b"m", b"e")


@pytest.mark.parametrize("edit", ["short", "long"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_bad_auth_shape_in_one_round_rejects(t1_signed, edit, where, monkeypatch):
    # the Merkle recompute of all rounds returns None for the edited round
    # alone, and verify rejects there
    ps, pk, data = t1_signed
    sig = st.decode(ps, data)
    bad = {"first": 0, "middle": ps.tau // 2, "last": ps.tau - 1}[where]
    auth = sig.columns["auth"][bad]
    sig.columns["auth"][bad] = auth[:-1] if edit == "short" else auth + auth[-1:]
    results = []

    def spy(*args):
        results.append(merkle_root_from_auth(*args))
        return results[-1]

    monkeypatch.setattr(st, "merkle_root_from_auth", spy)
    assert st.verify_decoded(ps, pk, b"m", sig) is False
    roots, = results
    assert [b for b, root in enumerate(roots) if root is None] == [bad]
