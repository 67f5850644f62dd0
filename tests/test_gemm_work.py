"""Pin the field-GEMM work of one fixed-input keygen, sign and verify per set.

GEMMs are most of a signature's arithmetic, so a change that adds a product
or widens one shows here without wall-clock noise.  ``matmul`` and
``matmul3`` of both base fields are counted where perfbench's tracer counts
them, at the public entry points: one call each, and (R, K) of the left
operand times the C columns of the right one (from the prepared
``(planes, C)`` tuple in characteristic 2, else from the array).  Key
generation is the rank-bounded E = A B and the derivation's one product
with L', and uses no cache.  One sign and verify run before the pinned
ones, so per-process and per-key caches (rank map, Frobenius matrices,
public-key operand, beta) are built and the sign and verify counts hold
per-signature work only, whatever ran before.  A party's share of E takes
one counted ``matmul3`` in both fields, [x | o] @ [L'; M_0'], and eps
enters the rank check through one product with gamma per signature.

``FIRST_SIGN`` pins the first signature of a key read back from its bytes,
as ``mira sign`` runs it: the derivation replay, the annihilator beta and
the operand's first products come on top of the per-signature work, so a
change that adds per-key products shows here.
"""

import collections

import numpy as np
import pytest

from mira import params
from mira.fields import Char2Field, PrimeField
from mira.keys import PublicKey, SecretKey, keygen_optimized


# method -> (calls, multiply-accumulates)
PINNED = {
    ("additive", 1): {
        "keygen": {"matmul": (2, 17600)},
        "sign": {"matmul": (1, 23040), "matmul3": (11, 8866976)},
        "verify": {"matmul3": (7, 8011152)},
    },
    ("additive", 3): {
        "keygen": {"matmul": (2, 34590)},
        "sign": {"matmul": (1, 56316), "matmul3": (11, 24721810)},
        "verify": {"matmul3": (7, 22349626)},
    },
    ("additive", 5): {
        "keygen": {"matmul": (2, 66721)},
        "sign": {"matmul": (1, 107916), "matmul3": (11, 58982864)},
        "verify": {"matmul3": (7, 53337228)},
    },
    ("threshold", 1): {
        "keygen": {"matmul": (2, 6335)},
        "sign": {"matmul": (8, 1314040), "matmul3": (8, 745880)},
        "verify": {"matmul3": (9, 486360)},
    },
    ("threshold", 3): {
        "keygen": {"matmul": (2, 15479)},
        "sign": {"matmul": (11, 2862800), "matmul3": (8, 2509940)},
        "verify": {"matmul3": (9, 1625900)},
    },
    ("threshold", 5): {
        "keygen": {"matmul": (2, 19399)},
        "sign": {"matmul": (15, 4459504), "matmul3": (8, 4161212)},
        "verify": {"matmul3": (9, 2697380)},
    },
}

# a fresh key's first sign: method -> (calls, multiply-accumulates)
FIRST_SIGN = {
    ("additive", 1): {"matmul": (10, 56000), "matmul3": (27, 9034912)},
    ("additive", 3): {"matmul": (11, 120147), "matmul3": (30, 25078478)},
    ("additive", 5): {"matmul": (11, 219602), "matmul3": (30, 59664216)},
    ("threshold", 1): {"matmul": (17, 1328439), "matmul3": (24, 809816)},
    ("threshold", 3): {"matmul": (20, 2893639), "matmul3": (24, 2677876)},
    ("threshold", 5): {"matmul": (25, 4498871), "matmul3": (26, 4361916)},
}


def _columns(method, right):
    if method == "matmul":
        return np.shape(right)[-1]
    return right[1] if isinstance(right, tuple) else np.shape(right)[-1]


def _counting(monkeypatch):
    tally = collections.defaultdict(lambda: [0, 0])
    for cls in (Char2Field, PrimeField):
        for method in ("matmul", "matmul3"):
            orig = getattr(cls, method)

            def counted(self, left, right, _orig=orig, _method=method):
                entry = tally[_method]
                entry[0] += 1
                entry[1] += int(np.prod(np.shape(left))) * int(_columns(_method, right))
                return _orig(self, left, right)

            monkeypatch.setattr(cls, method, counted)
    return tally


@pytest.mark.parametrize("variant, level", list(PINNED))
def test_gemm_calls_and_macs(variant, level, monkeypatch):
    ps = params.parameter_set(variant, level).sign_params()
    scheme = ps.scheme
    ps.ext                  # the fields are built once per process, not per key
    tally = _counting(monkeypatch)

    def taken():
        counts = {key: tuple(val) for key, val in sorted(tally.items())}
        tally.clear()
        return counts

    pk, sk = keygen_optimized(ps, b"gemm work")
    generated = taken()
    assert scheme.verify(ps, pk, b"warm-up", scheme.sign(ps, pk, sk, b"warm-up", b"w"))
    taken()
    data = scheme.sign(ps, pk, sk, b"pinned message", b"pinned entropy")
    signed = taken()
    assert scheme.verify(ps, pk, b"pinned message", data)
    verified = taken()
    assert {"keygen": generated, "sign": signed, "verify": verified} == PINNED[(variant, level)]


@pytest.mark.parametrize("variant, level", list(FIRST_SIGN))
def test_first_sign_of_a_fresh_key(variant, level, monkeypatch):
    ps = params.parameter_set(variant, level).sign_params()
    scheme = ps.scheme
    pk, sk = keygen_optimized(ps, b"warm key")
    scheme.sign(ps, pk, sk, b"warm-up", b"w")        # per-process caches only
    pk, sk = keygen_optimized(ps, b"fresh key")
    pk, sk = PublicKey.from_bytes(pk.to_bytes()), SecretKey.from_bytes(sk.to_bytes())
    tally = _counting(monkeypatch)

    def taken():
        counts = {key: tuple(val) for key, val in sorted(tally.items())}
        tally.clear()
        return counts

    scheme.sign(ps, pk, sk, b"first message", b"e")
    assert taken() == FIRST_SIGN[(variant, level)]
    scheme.sign(ps, pk, sk, b"second message", b"e")
    assert taken() == PINNED[(variant, level)]["sign"]


@pytest.mark.parametrize("variant", ["additive", "threshold"])
def test_h1_mismatch_rejects_before_any_gemm(variant, monkeypatch):
    # h1 is checked as soon as the round digests give it, before the rank
    # check builds its challenge operand
    ps = params.parameter_set(variant, 1).sign_params()
    pk, sk = keygen_optimized(ps, b"h1 flip")
    data = bytearray(ps.scheme.sign(ps, pk, sk, b"m", b"e"))
    data[ps.suite.salt_bytes] ^= 1                    # the first byte of h1
    tally = _counting(monkeypatch)
    assert ps.scheme.verify(ps, pk, b"m", bytes(data)) is False
    assert dict(tally) == {}
