import numpy as np
import pytest

from mira import params, sign_additive as sa
from mira.hashing import X_SIGN, derive_challenge1, derive_challenge2_additive
from mira.keys import keygen_optimized
from mira.mpc import ChallengeBatch, PkOperand
from mira.matrices import columns_to_ext
from mira.params import ParameterSet
from mira.qpoly import annihilator
from mira.sharing import additive_share, beta_map
from mira.trees import SeedTree, leaves_from_path

TABLE_SIZES = {1: 5640, 3: 11779, 5: 20762}

TOY = ParameterSet("additive", 0, q=16, m=4, n=4, k=5, r=2, N=8, tau=3, eta=1,
                   lam=128).sign_params()
TOY2 = ParameterSet("additive", 0, q=2, m=8, n=6, k=7, r=2, N=4, tau=2, eta=1,
                    lam=128).sign_params()


def toy_keys(ap, tag=b"toy"):
    pk, sk = keygen_optimized(ap, tag)
    x, e_mat = sk.witness()
    beta = annihilator(ap.ext, columns_to_ext(e_mat), ap.r).beta
    return pk, sk, x, beta


@pytest.mark.parametrize("level", [1, 3, 5])
def test_round_trip_and_exact_size(level):
    ps = params.parameter_set("additive", level)
    ap = ps.sign_params()
    pk, sk = keygen_optimized(ap, b"rt%d" % level)
    msg = b"round trip"
    sig = sa.sign(ap, pk, sk, msg, b"entropy")
    assert len(sig) == TABLE_SIZES[level] == sa.signature_size_bytes(ap)
    assert sa.verify(ap, pk, msg, sig)
    assert not sa.verify(ap, pk, msg + b"!", sig)


def test_per_round_response_size_level1():
    ap = params.parameter_set("additive", 1).sign_params()
    total = sa.signature_size_bytes(ap)
    fixed = 6 * ap.lam // 8
    per_round = (total - fixed) // ap.tau
    assert per_round == 308
    # 148 field bytes + 160 tree/commitment bytes
    field_bytes = sa.field_elems_per_round(ap) // 2
    assert field_bytes == 148
    assert per_round - field_bytes == (ap.depth + 2) * ap.lam // 8 == 160


def test_determinism():
    pk, sk, _, _ = toy_keys(TOY)
    s1 = sa.sign(TOY, pk, sk, b"m", b"fixed entropy")
    s2 = sa.sign(TOY, pk, sk, b"m", b"fixed entropy")
    assert s1 == s2
    assert s1 != sa.sign(TOY, pk, sk, b"m", b"other entropy")


def test_toy_round_trips_both_fields():
    for ap, tag in ((TOY, b"t16"), (TOY2, b"t2")):
        pk, sk = keygen_optimized(ap, tag)
        for i in range(10):
            msg = b"msg%d" % i
            sig = sa.sign(ap, pk, sk, msg, b"e%d" % i)
            assert sa.verify(ap, pk, msg, sig)


def test_hidden_leaf_stays_hidden():
    ap = TOY
    pk, sk, x, beta = toy_keys(ap)
    data = sa.sign(ap, pk, sk, b"hide", b"ent")
    sig = sa.decode(ap, data)
    ch2 = derive_challenge2_additive(ap.suite, sig.h2, ap.n_parties, ap.tau)
    # rebuild the signing-side trees to learn the hidden seeds
    rng = ap.suite.xof(X_SIGN, b"ent")
    assert rng.read(ap.suite.salt_bytes) == sig.salt
    for e in range(1, ap.tau + 1):
        tree = SeedTree.expand(ap.suite, rng.read(ap.suite.seed_bytes),
                               sig.salt, e, ap.n_parties)
        istar = ch2[e - 1]
        hidden_seed = tree.leaf(istar)
        assert hidden_seed not in data
        got = leaves_from_path(ap.suite, sig.rounds[e - 1].path, istar,
                               sig.salt, e, ap.n_parties)
        assert got[istar - 1] is None
        for i in range(1, ap.n_parties + 1):
            if i != istar:
                assert got[i - 1] == tree.leaf(i)


def test_aux_zeroed_when_hidden_leaf_is_last():
    ap = TOY
    pk, sk, x, beta = toy_keys(ap)
    sig = sa._sign_core(ap, pk, x, beta, b"m", b"e",
                        ch2_override=[ap.n_parties] * ap.tau)
    for rr in sig.rounds:
        assert not rr.aux_x.any() and not rr.aux_beta.any() and not rr.aux_c.any()
    # and with a different hidden leaf the aux holds the real corrections
    sig = sa._sign_core(ap, pk, x, beta, b"m", b"e", ch2_override=[1] * ap.tau)
    assert any(rr.aux_x.any() or rr.aux_beta.any() for rr in sig.rounds)


def test_aux_block_must_be_zero_when_hidden_leaf_is_last():
    # the fixed-size aux slot is redundant for i* = N and carries zeros; a
    # verifier that ignored it would accept altered copies (malleability)
    ap = TOY
    pk, sk = keygen_optimized(ap, b"aux")
    found = None
    for t in range(200):
        ent = b"aux%d" % t
        data = sa.sign(ap, pk, sk, b"m", ent)
        sig = sa.decode(ap, data)
        ch2 = derive_challenge2_additive(ap.suite, sig.h2, ap.n_parties, ap.tau)
        if ap.n_parties in ch2:
            found = (data, ch2.index(ap.n_parties))
            break
    assert found is not None
    data, ridx = found
    assert sa.verify(ap, pk, b"m", data)
    for name in ("aux_x", "aux_beta", "aux_c"):
        sig = sa.decode(ap, data)
        aux = getattr(sig.rounds[ridx], name)
        assert not aux.any()
        aux.reshape(-1)[-1] ^= 1
        assert not sa.verify(ap, pk, b"m", sa.encode(ap, sig)), name


@pytest.mark.parametrize("ap, istars", [(TOY, [1, 8, 5]), (TOY2, [1, 4])],
                         ids=["gf16-1-N-mid", "q2-1-N"])
def test_opened_alpha_is_alpha_of_the_full_leaf_sum(ap, istars, monkeypatch):
    # verify rebuilds each round's opened alpha from the opened leaves and the
    # hidden leaf's share; it must be alpha of all N leaf rows summed, hidden
    # leaf included, with the M_0 offset.  The rows come from the signing
    # entropy, whichever leaf (1, N or a middle one) carries the offset.
    monkeypatch.setattr(sa, "derive_challenge2_additive", lambda *args: list(istars))
    pk, sk = keygen_optimized(ap, b"open")
    x, beta = sk.sign_inputs()
    sig = sa.decode(ap, sa.sign(ap, pk, sk, b"m", b"e"))
    ok, details = sa.verify_decoded(ap, pk, b"m", sig)
    assert ok
    rng = ap.suite.xof(X_SIGN, b"e")
    assert rng.read(ap.suite.salt_bytes) == sig.salt
    sums = []
    for e in range(1, ap.tau + 1):
        tree = SeedTree.expand(ap.suite, rng.read(ap.suite.seed_bytes), sig.salt, e,
                               ap.n_parties)
        shares, _, _ = additive_share(ap.suite, sig.salt, e, tree.leaves(), ap.share_dims,
                                      ap.base, ap.ext, x, beta,
                                      beta_map(ap.ext, beta))
        sums.append(ap.base.axis_sum(shares, axis=0))
    batch = ChallengeBatch(ap.ext, ap.r, derive_challenge1(ap.suite, sig.h1, ap.ext, ap.n, ap.tau))
    alpha, _ = batch.broadcast_alpha(PkOperand.of(pk), np.stack(sums)[:, None], [True])
    opened = details["alpha_open"]                            # (tau, D, r, m)
    assert np.array_equal(opened, np.broadcast_to(alpha, opened.shape))


def test_challenge_injection_seams():
    ap = TOY
    pk, sk, x, beta = toy_keys(ap)
    rng = np.random.default_rng(0)
    gamma = [(rng.integers(0, 16, (ap.n, ap.m)).astype(np.uint8),
              rng.integers(0, 16, ap.m).astype(np.uint8))
             for _ in range(ap.tau)]
    ch2 = [3] * ap.tau
    sig = sa._sign_core(ap, pk, x, beta, b"m", b"e",
                        ch1_override=gamma, ch2_override=ch2)
    # responses answer the injected challenge: leaf 3 is the hidden one
    for e in range(1, ap.tau + 1):
        got = leaves_from_path(ap.suite, sig.rounds[e - 1].path, 3,
                               sig.salt, e, ap.n_parties)
        assert got[2] is None


def test_single_leaf_cheat_accepts_iff_challenge_hits():
    # a forger with a bad witness corrects the v broadcast at one leaf; the
    # signature verifies exactly when the derived leaf challenge equals that
    # leaf (false positives are negligible at these field sizes)
    ap = ParameterSet("additive", 0, q=16, m=8, n=6, k=7, r=2, N=4, tau=1, eta=1,
                      lam=128).sign_params()
    pk, sk = keygen_optimized(ap, b"cheat")
    rng = np.random.default_rng(1)
    hits = 0
    for t in range(40):
        xbad = rng.integers(0, 16, ap.k).astype(np.uint8)
        beta_bad = rng.integers(0, 16, (ap.r, ap.m)).astype(np.uint8)
        leaf = int(rng.integers(1, 5))
        sig = sa._sign_core(ap, pk, xbad, beta_bad, b"m", b"c%d" % t,
                            cheat_leaf=leaf)
        data = sa.encode(ap, sig)
        istar = derive_challenge2_additive(ap.suite, sig.h2, 4, 1)[0]
        accepted = sa.verify(ap, pk, b"m", data)
        assert accepted == (istar == leaf)
        hits += accepted
    assert 0 < hits < 40


def test_fuzz_bit_flips_toy():
    ap = TOY
    pk, sk = keygen_optimized(ap, b"fuzz")
    data = sa.sign(ap, pk, sk, b"m", b"e")
    sig = sa.decode(ap, data)
    ch2 = derive_challenge2_additive(ap.suite, sig.h2, ap.n_parties, ap.tau)
    assert ap.n_parties not in ch2  # no redundant aux slot in this signature
    rng = np.random.default_rng(2)
    for _ in range(150):
        pos = int(rng.integers(0, len(data) * 8))
        mutated = bytearray(data)
        mutated[pos // 8] ^= 1 << (pos % 8)
        assert not sa.verify(ap, pk, b"m", bytes(mutated))


def test_decode_errors():
    ap = TOY
    pk, sk = keygen_optimized(ap, b"dec")
    data = sa.sign(ap, pk, sk, b"m", b"e")
    with pytest.raises(sa.SignatureFormatError):
        sa.decode(ap, data[:-1])
    with pytest.raises(sa.SignatureFormatError):
        sa.decode(ap, data + b"\x00")
    assert not sa.verify(ap, pk, b"m", b"")
    assert not sa.verify(ap, pk, b"m", data[:-1])


def _spy_broadcast_alpha(monkeypatch):
    calls = []
    orig = ChallengeBatch.broadcast_alpha

    def spy(self, pk_op, rows, offsets):
        out = orig(self, pk_op, rows, offsets)
        calls.append((self, pk_op, np.asarray(rows).shape, out))
        return out

    monkeypatch.setattr(ChallengeBatch, "broadcast_alpha", spy)
    return calls


@pytest.mark.parametrize("ap", [TOY, TOY2], ids=["gf16", "q2"])
def test_verify_runs_d_plus_one_rows_per_round(ap, monkeypatch):
    pk, sk = keygen_optimized(ap, b"rows")
    sig = sa.decode(ap, sa.sign(ap, pk, sk, b"m", b"e"))
    calls = _spy_broadcast_alpha(monkeypatch)
    ok, _ = sa.verify_decoded(ap, pk, b"m", sig)
    assert ok
    assert sum(shape[0] * shape[1] for _, _, shape, _ in calls) == ap.tau * (ap.depth + 1)


@pytest.mark.parametrize("ap, istars", [(TOY, [1, 8, 5]), (TOY2, [1, 4]), (TOY2, [3, 2])],
                         ids=["gf16-1-N-mid", "q2-1-N", "q2-mid"])
def test_sum_row_gives_the_part_row_alphas(ap, istars, monkeypatch):
    # alpha(sum of opened leaves) - alpha(full row) is the part row's alpha,
    # which the verifier used to compute directly on D more rows per round
    monkeypatch.setattr(sa, "derive_challenge2_additive", lambda *args: list(istars))
    pk, sk = keygen_optimized(ap, b"part")
    sig = sa.decode(ap, sa.sign(ap, pk, sk, b"m", b"e"))
    flats = []
    orig_aggregate = sa._aggregate_rounds
    monkeypatch.setattr(sa, "_aggregate_rounds",
                        lambda field, flat: flats.append(flat) or orig_aggregate(field, flat))
    calls = _spy_broadcast_alpha(monkeypatch)
    ok, _ = sa.verify_decoded(ap, pk, b"m", sig)
    assert ok
    [(batch, pk_op, _, (alphas, _))] = calls
    depth, ext = ap.depth, ap.ext
    mains = orig_aggregate(ap.base, flats[0])                 # (tau, D, 2, T)
    ist = np.asarray(istars)
    bits = (ist[:, None] - 1 >> np.arange(depth)[None, :]) & 1
    part_rows = np.take_along_axis(mains, bits[:, :, None, None], axis=2)[:, :, 0]
    al_part, _ = batch.broadcast_alpha(pk_op, part_rows, (bits == 0) & (ist[:, None] != 1))
    assert np.array_equal(ext.sub(alphas[:, depth:], alphas[:, :depth]), al_part)
