import os
import subprocess
import sys

import numpy as np
import pytest

import mira
from mira import keys, params
from mira.hashing import HashSuite
from mira.keys import (KeyFormatError, KeyMismatchError, PublicKey, SecretKey,
                       keygen_optimized)
from mira.matrices import columns_to_ext, rank
from mira.mpc import PkOperand
from mira.qpoly import annihilator

from helpers import derive_two_products, systematic, validate_witness, witness_matrix

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
    # the key holds only the tails (L', M_0'): E is x followed by x L' + M_0',
    # so E's head is x and M_0's head is zero
    mr = params.parameter_set("additive", 1).minrank()
    pk, sk = keygen_optimized(mr, b"sys")
    l_prime, m0_tail = pk.matrices()
    x, e_mat = sk.witness()
    e_flat = e_mat.reshape(-1)
    assert np.array_equal(e_flat[:mr.k], x)
    assert np.array_equal(e_flat[mr.k:], mr.base.add(mr.base.matmul(x[None, :], l_prime)[0],
                                                     m0_tail))


@pytest.mark.parametrize("variant,level", list(TABLE_PK_BODY))
def test_key_matrices_are_the_systematic_tails(variant, level):
    ps = params.parameter_set(variant, level)
    tail = ps.m * ps.n - ps.k
    pk, sk = keygen_optimized(ps, b"tails")
    for l_prime, m0_tail in (pk.matrices(), sk._derivation()[:2],
                             PublicKey.from_bytes(pk.to_bytes()).matrices()):
        assert l_prime.shape == (ps.k, tail) and m0_tail.shape == (tail,)


# eliminations per keygen_optimized(ps, b"eliminations-%d" % i), i = 0..7: E's
# rank is proven by its leading r x r determinant unless that is zero
ELIMINATIONS = {("additive", 1): [0, 0, 0, 0, 0, 0, 0, 1],
                ("additive", 3): [1, 0, 0, 0, 0, 1, 0, 0],
                ("additive", 5): [0, 0, 0, 1, 0, 0, 0, 0],
                ("threshold", 1): [0] * 8,
                ("threshold", 3): [0] * 8,
                ("threshold", 5): [0] * 8}


@pytest.mark.parametrize("variant,level", list(ELIMINATIONS))
def test_keygen_runs_the_elimination_only_on_a_zero_determinant(variant, level, eliminations):
    ps = params.parameter_set(variant, level)
    keygen_optimized(ps, b"warm-up")      # field set-up runs its own ranks
    counts = []
    for i in range(8):
        eliminations.clear()
        keygen_optimized(ps, b"eliminations-%d" % i)
        counts.append(len(eliminations))
        assert set(eliminations) <= {(ps.m, ps.n)}
    assert counts == ELIMINATIONS[(variant, level)]


@pytest.mark.parametrize("variant,level", list(TABLE_PK_BODY))
def test_one_product_derivation_matches_two_product_reference(variant, level):
    ps = params.parameter_set(variant, level)
    base, k = ps.base, ps.k
    for entropy in (b"derive-0", b"derive-1", b"derive-2"):
        pk, sk = keygen_optimized(ps, entropy)
        l_prime, m0_tail, x, e_mat = keys._derive(ps, sk.seed_pk, sk.seed_sk)
        e_flat = e_mat.reshape(-1)
        assert np.array_equal(x, e_flat[:k])
        assert np.array_equal(m0_tail, base.sub(e_flat[k:], base.matmul(x[None, :], l_prime)[0]))
        # the reference's full L and M_0 are [I_k | L'] and M_0' after a zero head
        ref = derive_two_products(ps, sk.seed_pk, sk.seed_sk)
        for have, want in zip(systematic(l_prime, m0_tail) + (x, e_mat), ref):
            assert np.array_equal(have, want)
        ref_pk = PublicKey(params=ps, seed_pk=sk.seed_pk, m0_entries=ref[1][k:])
        assert pk.to_bytes() == ref_pk.to_bytes()


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
        m0 = systematic(*pk.matrices())[1]
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


def test_keys_compare_by_params_and_bytes():
    ps = params.parameter_set("additive", 1)
    pk, sk = keygen_optimized(ps, b"eq")
    PkOperand.of(pk)                            # prepared state is not compared
    assert PublicKey.from_bytes(pk.to_bytes()) == pk == sk.public_key()
    assert SecretKey.from_bytes(sk.to_bytes()) == sk
    other_pk, other_sk = keygen_optimized(ps, b"ne")
    assert pk != other_pk and sk != other_sk
    assert pk != keygen_optimized(params.parameter_set("additive", 3), b"eq")[0]
    flipped = PublicKey(ps, pk.seed_pk, pk.m0_entries ^ np.uint8(1))
    assert pk != flipped and pk != pk.to_bytes()


def test_keygen_leaves_the_operand_unbuilt():
    # the prepared L' of x @ L' is the operand's largest part: keygen does
    # not pay for it, and the key keeps the one operand its first use builds
    ps = params.parameter_set("additive", 1)
    pk, _ = keygen_optimized(ps, b"operand")
    assert pk._operand is None
    op = PkOperand.of(pk)
    assert op is PkOperand.of(pk) is pk._operand
    op.e_shares(np.zeros((1, ps.k), np.uint8), [False])
    assert PkOperand.of(pk) is op


def test_public_keys_share_the_secret_keys_l():
    ps = params.parameter_set("threshold", 1)
    _, sk = keygen_optimized(ps, b"shared l")
    l_prime, m0_tail = sk.public_key().matrices()
    assert sk.public_key().matrices()[0] is l_prime is sk._derivation()[0]
    assert m0_tail is sk._derivation()[1]


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


@pytest.mark.parametrize("variant", ["additive", "threshold"])
def test_beta_is_built_once_per_key(variant, annihilator_calls):
    ps = params.parameter_set(variant, 1)
    scheme = ps.scheme
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
    assert np.array_equal(beta, annihilator(ps.ext, columns_to_ext(e_mat), ps.r))
    # equality and repr ignore the kept beta, as they ignore the derivation
    fresh = SecretKey.from_bytes(sk.to_bytes())
    assert fresh == sk and repr(fresh) == repr(sk)


def _no_hashing(patch):
    def fail(*args):
        raise AssertionError("hashed before the key check")

    for method in ("hash", "xof", "xof_digest"):
        patch.setattr(HashSuite, method, fail)


@pytest.mark.parametrize("variant", ["additive", "threshold"])
def test_sign_with_a_foreign_set_or_public_seed_raises_before_hashing(variant, monkeypatch):
    ps = params.parameter_set(variant, 1)
    pk, sk = keygen_optimized(ps, b"mismatch")
    other_pk, _ = keygen_optimized(ps, b"other")
    cases = {"other key": (ps, other_pk), "other level": (params.parameter_set(variant, 3), pk),
             "other tau": (ps.with_overrides(tau=ps.tau - 1), pk)}
    for name, (sign_ps, sign_pk) in cases.items():
        # a secret key read back from bytes has not replayed its derivation yet
        fresh = SecretKey.from_bytes(sk.to_bytes())
        with monkeypatch.context() as patch:
            _no_hashing(patch)
            with pytest.raises(KeyMismatchError, match="not the secret key's own"):
                sign_ps.scheme.sign(sign_ps, sign_pk, fresh, b"m", b"e")
    assert issubclass(KeyMismatchError, ValueError)


@pytest.mark.parametrize("variant", ["additive", "threshold"])
def test_sign_with_a_foreign_m0_raises_right_after_the_derivation_replay(variant, monkeypatch):
    # same set and public seed: only the replayed derivation tells M_0 apart,
    # so sign hashes what the replay hashes and nothing more
    ps = params.parameter_set(variant, 1)
    pk, sk = keygen_optimized(ps, b"mismatch")
    flipped = PublicKey(ps, pk.seed_pk, pk.m0_entries ^ np.uint8(1))
    calls = []
    for method in ("hash", "xof", "xof_digest"):
        def record(*args, _method=method, _real=getattr(HashSuite, method)):
            calls.append(_method)
            return _real(*args)
        monkeypatch.setattr(HashSuite, method, record)
    SecretKey.from_bytes(sk.to_bytes()).witness()
    replay = list(calls)
    calls.clear()
    with pytest.raises(KeyMismatchError, match="not the secret key's own"):
        ps.scheme.sign(ps, flipped, SecretKey.from_bytes(sk.to_bytes()), b"m", b"e")
    assert replay and calls == replay


def test_key_mismatch_is_raised_under_python_O():
    # the check is no assert, so -O keeps it
    code = """
import sys
from mira import params
from mira.keys import KeyMismatchError, keygen_optimized
assert not __debug__
for variant in ("additive", "threshold"):
    ps = params.parameter_set(variant, 1)
    _, sk = keygen_optimized(ps, b"mismatch")
    other_pk, _ = keygen_optimized(ps, b"other")
    try:
        ps.scheme.sign(ps, other_pk, sk, b"m", b"e")
    except KeyMismatchError:
        continue
    sys.exit(variant + " signed with a foreign public key")
"""
    src = os.path.dirname(os.path.dirname(mira.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
