import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira.fields import base_field, ext_field
from mira.hashing import (H0_COMMIT, H1, H2, H3, H4, H_MERKLE, X_LEAF, X_TREE, FieldSampler,
                          HashSuite, commit, derive_challenge1,
                          derive_challenge2_additive,
                          derive_challenge2_threshold, encode_u16, party_suffixes,
                          XofStream)

SUITE = HashSuite(128)

# chi-square critical values at significance 0.01
CHI2_CRIT = {15: 30.578, 27: 46.963, 250: 304.940}


def test_commit_determinism_and_sensitivity():
    salt = b"\x42" * SUITE.salt_bytes
    [c1] = commit(SUITE, salt, 3, party_suffixes([7], [b"state"]))
    assert [c1] == commit(SUITE, salt, 3, party_suffixes([7], [b"state"]))
    assert [c1] != commit(SUITE, salt, 3, party_suffixes([8], [b"state"]))
    assert [c1] != commit(SUITE, salt, 4, party_suffixes([7], [b"state"]))
    assert [c1] != commit(SUITE, b"\x43" + salt[1:], 3, party_suffixes([7], [b"state"]))
    assert len(c1) == SUITE.digest_bytes


@settings(max_examples=40, deadline=None)
@given(e=hs.integers(0, 2 ** 16 - 1),
       parties=hs.lists(hs.tuples(hs.integers(0, 2 ** 16 - 1), hs.binary(max_size=40)),
                        max_size=8),
       salt=hs.binary(min_size=32, max_size=32))
def test_round_commit_equals_one_hash_per_party(e, parties, salt):
    indices = [i for i, _ in parties]
    states = [s for _, s in parties]
    assert commit(SUITE, salt, e, party_suffixes(indices, states)) == [
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


SUFFIX_LISTS = {"zero": [], "one": [b"only"],
                "many": [bytes([i]) * (i % 9) for i in range(40)]}


@pytest.mark.parametrize("lam", [128, 192, 256])
@pytest.mark.parametrize("suffixes", list(SUFFIX_LISTS.values()), ids=list(SUFFIX_LISTS))
@pytest.mark.parametrize("prefix", [b"", b"salt and round"], ids=["bare", "prefixed"])
def test_batched_digests_equal_single_calls(lam, suffixes, prefix):
    suite = HashSuite(lam)
    assert suite.hash_many(H_MERKLE, prefix, suffixes) == [
        suite.hash(H_MERKLE, prefix, s) for s in suffixes]
    assert suite.xof_many(X_TREE, prefix, suffixes, 37) == [
        suite.xof_digest(X_TREE, prefix + s, 37) for s in suffixes]


@pytest.mark.parametrize("count", [0, 1, 25])
def test_wrapped_single_methods_see_a_batch_as_single_calls(count, monkeypatch):
    suffixes = [bytes([i]) * (1 + i % 5) for i in range(count)]
    expected = (SUITE.hash_many(H0_COMMIT, b"prefix", suffixes),
                SUITE.xof_many(X_LEAF, b"prefix", suffixes, 21))
    seen = []
    hash_, xof_digest = HashSuite.hash, HashSuite.xof_digest

    def counted_hash(self, role, *parts):
        seen.append(("hash", role, b"".join(parts)))
        return hash_(self, role, *parts)

    def counted_xof_digest(self, role, payload, n):
        seen.append(("xof_digest", role, payload))
        return xof_digest(self, role, payload, n)

    monkeypatch.setattr(HashSuite, "hash", counted_hash)
    monkeypatch.setattr(HashSuite, "xof_digest", counted_xof_digest)
    got = (SUITE.hash_many(H0_COMMIT, b"prefix", suffixes),
           SUITE.xof_many(X_LEAF, b"prefix", suffixes, 21))
    assert got == expected
    assert seen == ([("hash", H0_COMMIT, b"prefix" + s) for s in suffixes]
                    + [("xof_digest", X_LEAF, b"prefix" + s) for s in suffixes])


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
    gamma, eps = derive_challenge1(SUITE, b"\x01" * 32, ext, n=16, tau=4)
    gamma2, eps2 = derive_challenge1(SUITE, b"\x01" * 32, ext, n=16, tau=4)
    assert gamma.shape == (4, 16, 16) and eps.shape == (4, 16)
    assert np.array_equal(gamma, gamma2) and np.array_equal(eps, eps2)
    gamma3, _ = derive_challenge1(SUITE, b"\x02" * 32, ext, n=16, tau=4)
    assert not np.array_equal(gamma[0], gamma3[0])


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


class _Bytes:
    """A SHAKE stand-in: ``digest(n)`` is the first n bytes of a fixed buffer."""

    def __init__(self, buf):
        self.buf = buf

    def digest(self, n):
        assert n <= len(self.buf), "test buffer too short"
        return self.buf[:n]


class _CountingStream(XofStream):
    unreads = 0

    def unread(self, n):
        self.unreads += 1
        super().unread(n)


def _biased_bytes(seed, reject_rate, size=1 << 17):
    """Bytes where about ``reject_rate`` of them are 255, rejected by GF(251)."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 251, size, dtype=np.uint8)
    vals[rng.random(size) < reject_rate] = 255
    return vals.tobytes()


def _take_many_matches_takes(q, counts, make_stream):
    # many draws taken as one ``take_joined`` block against one ``take`` each
    field = base_field(q)
    one, seq = make_stream(), make_stream()
    got = FieldSampler(field, one).take_joined(counts)
    sampler = FieldSampler(field, seq)
    want = [sampler.take(c) for c in counts]
    assert got.dtype == np.uint8 and got.shape == (sum(counts),)
    ends = np.cumsum(counts)
    for g, w in zip(np.split(got, ends[:-1]), want):
        assert g.dtype == np.uint8 and np.array_equal(g, w)
    # both samplers leave their streams (and any pending nibble) at the same place
    assert np.array_equal(FieldSampler(field, one).take(3), FieldSampler(field, seq).take(3))
    return one


@pytest.mark.parametrize("q", [16, 251])
@settings(max_examples=60, deadline=None)
@given(counts=hs.lists(hs.integers(0, 400), min_size=1, max_size=12),
       seed=hs.binary(min_size=1, max_size=8), lead=hs.integers(0, 40))
def test_take_many_equals_sequential_takes(q, counts, seed, lead):
    def make():
        stream = SUITE.xof(0x0D, seed)
        stream.read(lead)           # signing reads the salt first
        return stream
    _take_many_matches_takes(q, counts, make)


@settings(max_examples=60, deadline=None)
@given(counts=hs.lists(hs.integers(0, 400), min_size=1, max_size=12),
       seed=hs.integers(0, 2 ** 32 - 1), rate=hs.sampled_from([0.1, 0.2, 0.5]))
def test_take_many_short_window_fallback(counts, seed, rate):
    buf = _biased_bytes(seed, rate)
    one = _take_many_matches_takes(251, counts, lambda: _CountingStream(_Bytes(buf)))
    if rate == 0.5 and max(counts) >= 8:
        assert one.unreads == 1     # half the bytes rejected: some window runs short


@pytest.mark.parametrize("counts", [[50, 3, 200], [3, 2, 300, 4]], ids=["first", "third"])
def test_take_many_fallback_from_one_window_on(counts):
    buf = _biased_bytes(7, 0.5)
    one = _take_many_matches_takes(251, counts, lambda: _CountingStream(_Bytes(buf)))
    assert one.unreads == 1


@pytest.mark.parametrize("q, m, n, tau", [(16, 5, 3, 4), (251, 12, 13, 7), (131, 3, 3, 6)],
                         ids=["gf16", "gf251", "gf131"])
def test_challenge1_arrays_equal_per_round_takes(q, m, n, tau, monkeypatch):
    # GF(16) rounds of an odd n*m start mid-byte; q = 131 accepts about half
    # of the bytes, so a window runs short and the draws from it on are
    # taken one by one
    take, takes = FieldSampler.take, []
    monkeypatch.setattr(FieldSampler, "take", lambda self, c: takes.append(c) or take(self, c))
    ext = ext_field(q, m)
    h1 = b"\x06" * 32
    gamma, eps = derive_challenge1(SUITE, h1, ext, n, tau)
    assert gamma.shape == (tau, n, m) and eps.shape == (tau, m)
    monkeypatch.undo()
    sampler = FieldSampler(ext.base, SUITE.xof(0x08, h1))
    for e in range(tau):
        assert np.array_equal(gamma[e], sampler.take(n * m).reshape(n, m))
        assert np.array_equal(eps[e], sampler.take(m))
    if q == 16:
        assert takes == [tau * (n + 1) * m]          # a power of two: one take
    elif q == 251:
        assert takes == []                           # every window holds its draw
    else:
        assert 0 < len(takes) < 2 * tau              # a later window runs short


def test_challenge1_one_read_per_stream():
    ext = ext_field(251, 12)
    h1 = b"\x05" * 32
    chals = derive_challenge1(SUITE, h1, ext, 13, 7)
    sampler = FieldSampler(ext.base, SUITE.xof(0x08, h1))
    for gamma, eps in zip(*chals):
        assert np.array_equal(gamma, sampler.take(13 * 12).reshape(13, 12))
        assert np.array_equal(eps, sampler.take(12))
