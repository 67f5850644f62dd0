"""Pin the field-GEMM work of one fixed-input sign and verify per variant.

GEMMs are most of a signature's arithmetic, so a change that adds a product
or widens one shows here without wall-clock noise.  ``matmul`` and
``matmul3`` of both base fields are counted where perfbench's tracer counts
them, at the public entry points: one call each, and (R, K) of the left
operand times the C columns of the right one (from the prepared
``(planes, C)`` tuple in characteristic 2, else from the array).  One sign
and verify run first, so per-process and per-key caches (rank map,
Frobenius matrices, public-key operand) are built and the counts hold
per-signature work only, whatever ran before.
"""

import collections

import numpy as np
import pytest

from mira import params, sign_additive, sign_threshold
from mira.fields import Char2Field, PrimeField
from mira.keys import keygen_optimized

SCHEMES = {"additive": sign_additive, "threshold": sign_threshold}

# method -> (calls, multiply-accumulates)
PINNED = {
    ("additive", 1): {
        "sign": {"matmul": (18, 23040), "matmul3": (11, 6103040)},
        "verify": {"matmul3": (7, 5515776)},
    },
    ("threshold", 1): {
        "sign": {"matmul": (9, 1614340), "matmul3": (8, 565056)},
        "verify": {"matmul": (1, 180180), "matmul3": (9, 372624)},
    },
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
    scheme = SCHEMES[variant]
    pk, sk = keygen_optimized(ps, b"gemm work")
    assert scheme.verify(ps, pk, b"warm-up", scheme.sign(ps, pk, sk, b"warm-up", b"w"))
    tally = _counting(monkeypatch)
    data = scheme.sign(ps, pk, sk, b"pinned message", b"pinned entropy")
    signed = {key: tuple(val) for key, val in sorted(tally.items())}
    tally.clear()
    assert scheme.verify(ps, pk, b"pinned message", data)
    verified = {key: tuple(val) for key, val in sorted(tally.items())}
    assert {"sign": signed, "verify": verified} == PINNED[(variant, level)]
