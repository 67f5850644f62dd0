"""Pin the hash work of one fixed-input sign and verify per variant.

Hash and XOF calls are most of a signature's cost and are fixed by the wire
format, so a change that adds, drops or batches one shows here, without
wall-clock noise.  ``HashSuite.hash``, ``xof`` and ``xof_digest`` are counted
by role byte (see ``mira.hashing``) together with the bytes they absorb.
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
