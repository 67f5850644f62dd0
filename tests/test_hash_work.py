"""Pin the hash work of one fixed-input sign and verify per variant.

Hash and XOF calls are most of a signature's cost and are fixed by the wire
format, so a change that adds, drops or batches one shows here, without
wall-clock noise.  ``HashSuite.hash``, ``xof`` and ``xof_digest`` are counted
by role byte (see ``mira.hashing``) together with the bytes they absorb.

The bytes each XOF role squeezes are pinned too.  A stream (``xof``)
squeezes again from byte 0 whenever its buffer grows, so a read pattern
that grows it in steps squeezes more than it uses; a one-shot
``xof_digest`` squeezes exactly what it returns.
"""

import collections

import pytest

from mira import params, sign_additive, sign_threshold
from mira.hashing import (H0_COMMIT, H1, H2, H3, H4, H_MERKLE, X_CH1, X_CH2, X_LEAF,
                          X_SIGN, X_TREE, HashSuite)
from mira.keys import keygen_optimized

SCHEMES = {"additive": sign_additive, "threshold": sign_threshold}

# (method, role byte) -> (calls, bytes absorbed including the role byte)
PINNED = {
    ("additive", 1): {
        "sign": {
            ("hash", H0_COMMIT): (4608, 246168),
            ("hash", H1): (18, 148086),
            ("hash", H2): (1, 623),
            ("hash", H3): (144, 19008),
            ("hash", H4): (1, 4771),
            ("xof", X_CH1): (1, 33),
            ("xof", X_CH2): (1, 33),
            ("xof", X_SIGN): (1, 15),
            ("xof_digest", X_TREE): (4590, 252450),
            ("xof_digest", X_LEAF): (4608, 244224),
        },
        "verify": {
            ("hash", H0_COMMIT): (4590, 245214),
            ("hash", H1): (18, 148086),
            ("hash", H2): (1, 623),
            ("hash", H3): (144, 19008),
            ("hash", H4): (1, 4771),
            ("xof", X_CH1): (1, 33),
            ("xof", X_CH2): (1, 33),
            ("xof_digest", X_TREE): (4446, 244530),
            ("xof_digest", X_LEAF): (4590, 243270),
        },
    },
    ("threshold", 1): {
        "sign": {
            ("hash", H0_COMMIT): (1750, 392000),
            ("hash", H1): (1, 388),
            ("hash", H2): (1, 2212),
            ("hash", H_MERKLE): (3535, 173775),
            ("xof", X_CH1): (1, 33),
            ("xof", X_CH2): (1, 33),
            ("xof", X_SIGN): (1, 15),
        },
        "verify": {
            ("hash", H0_COMMIT): (21, 4704),
            ("hash", H1): (1, 388),
            ("hash", H2): (1, 2212),
            ("hash", H_MERKLE): (155, 9403),
            ("xof", X_CH1): (1, 33),
            ("xof", X_CH2): (1, 33),
        },
    },
}


def _counting(monkeypatch):
    tally = collections.defaultdict(lambda: [0, 0])

    def wrap(name, absorbed):
        orig = getattr(HashSuite, name)

        def counted(self, role, *args):
            entry = tally[(name, role)]
            entry[0] += 1
            entry[1] += 1 + absorbed(args)
            return orig(self, role, *args)

        monkeypatch.setattr(HashSuite, name, counted)

    wrap("hash", lambda parts: sum(len(p) for p in parts))
    wrap("xof", lambda parts: sum(len(p) for p in parts))
    wrap("xof_digest", lambda args: len(args[0]))
    return tally


def _frozen(tally):
    return {key: tuple(val) for key, val in sorted(tally.items())}


@pytest.mark.parametrize("variant, level", list(PINNED))
def test_hash_calls_and_bytes_by_role(variant, level, monkeypatch):
    ps = params.parameter_set(variant, level).sign_params()
    scheme = SCHEMES[variant]
    pk, sk = keygen_optimized(ps, b"hash work")
    sk.sign_inputs()                     # key-only work stays out of the counts
    pk.matrices()
    tally = _counting(monkeypatch)
    data = scheme.sign(ps, pk, sk, b"pinned message", b"pinned entropy")
    signed = _frozen(tally)
    tally.clear()
    assert scheme.verify(ps, pk, b"pinned message", data)
    verified = _frozen(tally)
    assert {"sign": signed, "verify": verified} == PINNED[(variant, level)]


# (method, role byte) -> bytes squeezed from the XOF, every refill counted.
# Each challenge stream is drawn with one read, so X_CH1 squeezes the bytes
# it uses; X_SIGN's first 64 bytes are the buffer of the salt read.
PINNED_SQUEEZED = {
    ("additive", 1): {
        "sign": {("xof", X_CH1): 2448, ("xof", X_CH2): 64, ("xof", X_SIGN): 960,
                 ("xof_digest", X_TREE): 146880, ("xof_digest", X_LEAF): 680040},
        "verify": {("xof", X_CH1): 2448, ("xof", X_CH2): 64,
                   ("xof_digest", X_TREE): 142272, ("xof_digest", X_LEAF): 677376},
    },
    ("threshold", 1): {
        "sign": {("xof", X_CH1): 1428, ("xof", X_CH2): 64, ("xof", X_SIGN): 5094},
        "verify": {("xof", X_CH1): 1428, ("xof", X_CH2): 64},
    },
}


class _CountingShake:
    """A SHAKE object that adds every ``digest(n)`` to a tally entry."""

    def __init__(self, xof, entry):
        self._xof = xof
        self._entry = entry

    def digest(self, n):
        self._entry[0] += n
        return self._xof.digest(n)


def _counting_squeezed(monkeypatch):
    tally = collections.defaultdict(lambda: [0])
    xof, xof_digest = HashSuite.xof, HashSuite.xof_digest

    def counted_xof(self, role, *parts):
        stream = xof(self, role, *parts)
        stream._xof = _CountingShake(stream._xof, tally[("xof", role)])
        return stream

    def counted_digest(self, role, payload, n):
        tally[("xof_digest", role)][0] += n
        return xof_digest(self, role, payload, n)

    monkeypatch.setattr(HashSuite, "xof", counted_xof)
    monkeypatch.setattr(HashSuite, "xof_digest", counted_digest)
    return tally


@pytest.mark.parametrize("variant, level", list(PINNED_SQUEEZED))
def test_xof_bytes_squeezed_by_role(variant, level, monkeypatch):
    ps = params.parameter_set(variant, level).sign_params()
    scheme = SCHEMES[variant]
    pk, sk = keygen_optimized(ps, b"hash work")
    sk.sign_inputs()
    pk.matrices()
    tally = _counting_squeezed(monkeypatch)
    data = scheme.sign(ps, pk, sk, b"pinned message", b"pinned entropy")
    signed = {key: val[0] for key, val in sorted(tally.items())}
    tally.clear()
    assert scheme.verify(ps, pk, b"pinned message", data)
    verified = {key: val[0] for key, val in sorted(tally.items())}
    assert {"sign": signed, "verify": verified} == PINNED_SQUEEZED[(variant, level)]
