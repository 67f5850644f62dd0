import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira.fields import base_field, ext_field
from mira.hashing import (H0_COMMIT, H1, H2, H3, H4, H_MERKLE, FieldSampler,
                          HashSuite, commit, derive_challenge1,
                          derive_challenge2_additive,
                          derive_challenge2_threshold, encode_u16)

SUITE = HashSuite(128)

# chi-square critical values at significance 0.01
CHI2_CRIT = {15: 30.578, 27: 46.963, 250: 304.940}


def test_commit_determinism_and_sensitivity():
    salt = b"\x42" * SUITE.salt_bytes
    [c1] = commit(SUITE, salt, 3, [7], [b"state"])
    assert [c1] == commit(SUITE, salt, 3, [7], [b"state"])
    assert [c1] != commit(SUITE, salt, 3, [8], [b"state"])
    assert [c1] != commit(SUITE, salt, 4, [7], [b"state"])
    assert [c1] != commit(SUITE, b"\x43" + salt[1:], 3, [7], [b"state"])
    assert len(c1) == SUITE.digest_bytes


@settings(max_examples=40, deadline=None)
@given(e=hs.integers(0, 2 ** 16 - 1),
       parties=hs.lists(hs.tuples(hs.integers(0, 2 ** 16 - 1), hs.binary(max_size=40)),
                        max_size=8),
       salt=hs.binary(min_size=32, max_size=32))
def test_round_commit_equals_one_hash_per_party(e, parties, salt):
    indices = [i for i, _ in parties]
    states = [s for _, s in parties]
    assert commit(SUITE, salt, e, indices, states) == [
        SUITE.hash(H0_COMMIT, salt, encode_u16(e), encode_u16(i), s) for i, s in parties]


def test_hash_role_domain_separation():
    payload = b"identical payload"
    digests = {SUITE.hash(role, payload)
               for role in (H0_COMMIT, H1, H2, H3, H4, H_MERKLE)}
    assert len(digests) == 6


def test_suite_sizes_per_level():
    for lam in (128, 192, 256):
        s = HashSuite(lam)
        assert s.digest_bytes == 2 * lam // 8
        assert s.seed_bytes == lam // 8
        assert len(s.hash(0, b"x")) == s.digest_bytes
        assert len(s.xof_digest(6, b"x", 17)) == 17


def test_sampler_rejection_bound_f251():
    f = base_field(251)
    vals = FieldSampler(f, SUITE.xof(8, b"gamma")).take(100000)
    assert vals.max() < 251


def test_sampler_chi_square_uniformity():
    for q, df in [(251, 250), (16, 15)]:
        f = base_field(q)
        vals = FieldSampler(f, SUITE.xof(8, b"u%d" % q)).take(100000)
        counts = np.bincount(vals, minlength=q).astype(float)
        expect = 100000 / q
        chi2 = ((counts - expect) ** 2 / expect).sum()
        assert chi2 < CHI2_CRIT[df], (q, chi2)


def test_challenge1_shape_and_stability():
    ext = ext_field(16, 16)
    ch = derive_challenge1(SUITE, b"\x01" * 32, ext, n=16, tau=4)
    ch2 = derive_challenge1(SUITE, b"\x01" * 32, ext, n=16, tau=4)
    assert len(ch) == 4
    for (g, e), (g2, e2) in zip(ch, ch2):
        assert g.shape == (16, 16) and e.shape == (16,)
        assert np.array_equal(g, g2) and np.array_equal(e, e2)
    ch3 = derive_challenge1(SUITE, b"\x02" * 32, ext, n=16, tau=4)
    assert not np.array_equal(ch[0][0], ch3[0][0])


def test_challenge2_additive():
    idx = derive_challenge2_additive(SUITE, b"h2", 256, 1000)
    assert min(idx) >= 1 and max(idx) <= 256
    # one byte per round: all byte values usable
    assert len(set(idx)) > 200
    small = derive_challenge2_additive(SUITE, b"h2", 4, 1000)
    assert set(small) == {1, 2, 3, 4}
    try:
        derive_challenge2_additive(SUITE, b"h2", 6, 1)
        assert False
    except ValueError:
        pass


def test_challenge2_threshold_contract():
    subs = derive_challenge2_threshold(SUITE, b"h2", 250, 3, 200)
    for s in subs:
        assert len(s) == 3 and len(set(s)) == 3
        assert list(s) == sorted(s)
        assert min(s) >= 1 and max(s) <= 250


def test_challenge2_threshold_subset_uniformity():
    # N=8, l=2: 28 subsets, frequency chi-square over 10^4 draws
    subs = derive_challenge2_threshold(SUITE, b"freq", 8, 2, 10000)
    from itertools import combinations
    keys = {c: 0 for c in combinations(range(1, 9), 2)}
    for s in subs:
        keys[s] += 1
    counts = np.array(list(keys.values()), float)
    expect = 10000 / 28
    chi2 = ((counts - expect) ** 2 / expect).sum()
    assert chi2 < CHI2_CRIT[27], chi2
