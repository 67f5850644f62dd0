import numpy as np
import pytest

from mira import keys, params, sign_additive, sign_threshold
from mira.keys import KeyFormatError, PublicKey, SecretKey, keygen_optimized
from mira.matrices import columns_to_ext, rank
from mira.qpoly import annihilator

from helpers import validate_witness, witness_matrix

TABLE_PK_BODY = {("additive", 1): 84, ("additive", 3): 121, ("additive", 5): 150,
                 ("threshold", 1): 117, ("threshold", 3): 155, ("threshold", 5): 195}
TABLE_SK = {1: 16, 3: 24, 5: 32}


@pytest.mark.parametrize("variant,level", list(TABLE_PK_BODY))
def test_optimized_keygen_table_sizes(variant, level):
    ps = params.parameter_set(variant, level)
    pk, sk = keygen_optimized(ps.minrank(), b"size-check")
    assert len(pk.body_bytes()) == TABLE_PK_BODY[(variant, level)]
    assert len(sk.seed_sk) == TABLE_SK[level]


@pytest.mark.parametrize("variant,level", [("additive", 1), ("threshold", 1)])
def test_witness_is_valid_and_rank_exact(variant, level):
    mr = params.parameter_set(variant, level).minrank()
    pk, sk = keygen_optimized(mr, b"w")
    x, e_mat = sk.witness()
    assert validate_witness(pk, x)
    assert rank(mr.base, e_mat) == mr.r
    assert np.array_equal(witness_matrix(pk, x), e_mat)


def test_systematic_head_is_zero():
    mr = params.parameter_set("additive", 1).minrank()
    pk, sk = keygen_optimized(mr, b"sys")
    l_rows, m0 = pk.matrices()
    assert not m0[:mr.k].any()
    assert np.array_equal(l_rows[:, :mr.k], np.eye(mr.k, dtype=np.uint8))


def test_different_entropy_different_keys():
    mr = params.parameter_set("additive", 1).minrank()
    pk1, _ = keygen_optimized(mr, b"a")
    pk2, _ = keygen_optimized(mr, b"b")
    assert pk1.body_bytes() != pk2.body_bytes()
    pk3, _ = keygen_optimized(mr, b"a")
    assert pk1.body_bytes() == pk3.body_bytes()


def test_random_witness_rejected():
    mr = params.parameter_set("additive", 1).minrank()
    pk, sk = keygen_optimized(mr, b"rej")
    rng = np.random.default_rng(0)
    for _ in range(10):
        xbad = rng.integers(0, mr.q, mr.k).astype(np.uint8)
        assert not validate_witness(pk, xbad)


def test_zero_witness_rejected_when_m0_full_rank():
    mr = params.parameter_set("threshold", 1).minrank()
    for tag in range(10):
        pk, _ = keygen_optimized(mr, b"full%d" % tag)
        _, m0 = pk.matrices()
        if rank(mr.base, m0.reshape(mr.m, mr.n)) > mr.r:
            assert not validate_witness(pk, np.zeros(mr.k, np.uint8))
            break
    else:
        pytest.fail("no full-rank M0 found in ten key pairs")


def test_serialization_round_trip_and_rederivation():
    for variant, level in TABLE_PK_BODY:
        ps = params.parameter_set(variant, level)
        pk, sk = keygen_optimized(ps, b"ser")
        pk2 = PublicKey.from_bytes(pk.to_bytes())
        sk2 = SecretKey.from_bytes(sk.to_bytes())
        assert pk2.params is ps and sk2.params is ps
        assert sk2.public_key().body_bytes() == pk.body_bytes()
        x2, e2 = sk2.witness()
        assert validate_witness(pk2, x2)
        assert np.array_equal(pk2.m0_entries, pk.m0_entries)
        x1, e1 = sk.witness()
        assert np.array_equal(x1, x2) and np.array_equal(e1, e2)


def test_key_format_errors():
    with pytest.raises(KeyFormatError):
        PublicKey.from_bytes(b"")
    with pytest.raises(KeyFormatError):
        PublicKey.from_bytes(b"\xff" + b"\x00" * 32)
    mr = params.parameter_set("additive", 1).minrank()
    pk, sk = keygen_optimized(mr, b"fmt")
    blob = pk.to_bytes()
    with pytest.raises(KeyFormatError):
        PublicKey.from_bytes(blob[:-1])
    with pytest.raises(KeyFormatError):
        SecretKey.from_bytes(sk.to_bytes() + b"\x00")


def test_nonzero_gf16_padding_nibble_is_a_key_format_error():
    ps = params.parameter_set("additive", 3)
    assert (ps.m * ps.n - ps.k) % 2 == 1     # the packed tail ends in a padding nibble
    pk, _ = keygen_optimized(ps, b"pad")
    blob = pk.to_bytes()
    assert PublicKey.from_bytes(blob).to_bytes() == blob
    with pytest.raises(KeyFormatError):
        PublicKey.from_bytes(blob[:-1] + bytes([blob[-1] ^ 0x10]))


def test_witness_length_check():
    mr = params.parameter_set("additive", 1).minrank()
    pk, _ = keygen_optimized(mr, b"len")
    with pytest.raises(ValueError):
        validate_witness(pk, np.zeros(mr.k + 1, np.uint8))


@pytest.fixture
def annihilator_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return annihilator(*args)

    monkeypatch.setattr(keys, "annihilator", counted)
    return calls


@pytest.mark.parametrize("variant,scheme", [("additive", sign_additive),
                                            ("threshold", sign_threshold)])
def test_beta_is_built_once_per_key(variant, scheme, annihilator_calls):
    ps = params.parameter_set(variant, 1)
    pk, sk = keygen_optimized(ps, b"beta " + variant.encode())
    sk.public_key()
    assert annihilator_calls == []
    sigs = [scheme.sign(ps, pk, sk, b"m%d" % i, b"e%d" % i) for i in range(2)]
    assert len(annihilator_calls) == 1
    assert all(scheme.verify(ps, pk, b"m%d" % i, sig) for i, sig in enumerate(sigs))


def test_kept_beta_is_read_only_and_fresh(annihilator_calls):
    ps = params.parameter_set("threshold", 1)
    _, sk = keygen_optimized(ps, b"kept beta")
    x, beta = sk.sign_inputs()
    x2, beta2 = sk.sign_inputs()
    assert beta2 is beta and x2 is x
    assert len(annihilator_calls) == 1
    assert not beta.flags.writeable
    with pytest.raises(ValueError):
        beta[0, 0] ^= 1
    _, e_mat = sk.witness()
    assert np.array_equal(beta, annihilator(ps.ext, columns_to_ext(e_mat), ps.r).beta)
    # equality and repr ignore the kept beta, as they ignore the derivation
    fresh = SecretKey.from_bytes(sk.to_bytes())
    assert fresh == sk and repr(fresh) == repr(sk)
