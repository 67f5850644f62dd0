"""Pin the hash work of one fixed-input sign and verify per variant and level.

Hash and XOF calls are most of a signature's cost and are fixed by the wire
format, so a change that adds, drops or batches one shows here, without
wall-clock noise.  The counts are taken where the hash objects are made:
the parameter set's ``HashSuite`` builds every hash and XOF object through
its ``_hash_ctor`` and ``_xof_ctor``, so counting there sees the batched
``hash_many`` and ``xof_many`` paths as they run, one object per digest.
Each object counts as one call of its role, the first byte it absorbs (see
``mira.hashing``), together with the bytes it absorbs.  A hash object counts
as ``hash``; an XOF object counts as ``xof`` for the stream roles X_CH1,
X_CH2 and X_SIGN, read through ``HashSuite.xof``, and as ``xof_digest`` for
the one-shot roles.

The bytes each XOF role squeezes are pinned too: the sum of its objects'
``digest(n)`` calls.  A stream (``xof``) squeezes again from byte 0 whenever
its buffer grows, so a read pattern that grows it in steps squeezes more
than it uses; a one-shot ``xof_digest`` squeezes exactly what it returns.
"""

import collections
import functools
import os
import sys

import pytest

import mira
from mira import params
from mira.hashing import (H0_COMMIT, H1, H2, H3, H4, H_MERKLE, X_CH1, X_CH2, X_LEAF,
                          X_SIGN, X_TREE)
from mira.keys import keygen_optimized


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
    ("additive", 3): {
        "sign": {
            ("hash", H0_COMMIT): (6656, 516438),
            ("hash", H1): (26, 320814),
            ("hash", H2): (1, 1311),
            ("hash", H3): (208, 38688),
            ("hash", H4): (1, 10216),
            ("xof", X_CH1): (1, 49),
            ("xof", X_CH2): (1, 49),
            ("xof", X_SIGN): (1, 15),
            ("xof_digest", X_TREE): (6630, 523770),
            ("xof_digest", X_LEAF): (6656, 512512),
        },
        "verify": {
            ("hash", H0_COMMIT): (6630, 514436),
            ("hash", H1): (26, 320814),
            ("hash", H2): (1, 1311),
            ("hash", H3): (208, 38688),
            ("hash", H4): (1, 10216),
            ("xof", X_CH1): (1, 49),
            ("xof", X_CH2): (1, 49),
            ("xof_digest", X_TREE): (6422, 507338),
            ("xof_digest", X_LEAF): (6630, 510510),
        },
    },
    ("additive", 5): {
        "sign": {
            ("hash", H0_COMMIT): (8704, 886448),
            ("hash", H1): (34, 559334),
            ("hash", H2): (1, 2255),
            ("hash", H3): (272, 62560),
            ("hash", H4): (1, 17701),
            ("xof", X_CH1): (1, 65),
            ("xof", X_CH2): (1, 65),
            ("xof", X_SIGN): (1, 15),
            ("xof_digest", X_TREE): (8670, 893010),
            ("xof_digest", X_LEAF): (8704, 879104),
        },
        "verify": {
            ("hash", H0_COMMIT): (8670, 883014),
            ("hash", H1): (34, 559334),
            ("hash", H2): (1, 2255),
            ("hash", H3): (272, 62560),
            ("hash", H4): (1, 17701),
            ("xof", X_CH1): (1, 65),
            ("xof", X_CH2): (1, 65),
            ("xof_digest", X_TREE): (8398, 864994),
            ("xof_digest", X_LEAF): (8670, 875670),
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
    ("threshold", 3): {
        "sign": {
            ("hash", H0_COMMIT): (2500, 845000),
            ("hash", H1): (1, 698),
            ("hash", H2): (1, 4106),
            ("hash", H_MERKLE): (5050, 369850),
            ("xof", X_CH1): (1, 49),
            ("xof", X_CH2): (1, 49),
            ("xof", X_SIGN): (1, 15),
        },
        "verify": {
            ("hash", H0_COMMIT): (30, 10140),
            ("hash", H1): (1, 698),
            ("hash", H2): (1, 4106),
            ("hash", H_MERKLE): (231, 20967),
            ("xof", X_CH1): (1, 49),
            ("xof", X_CH2): (1, 49),
        },
    },
    ("threshold", 5): {
        "sign": {
            ("hash", H0_COMMIT): (3500, 1351000),
            ("hash", H1): (1, 1170),
            ("hash", H2): (1, 6610),
            ("hash", H_MERKLE): (7070, 688030),
            ("xof", X_CH1): (1, 65),
            ("xof", X_CH2): (1, 65),
            ("xof", X_SIGN): (1, 15),
        },
        "verify": {
            ("hash", H0_COMMIT): (42, 16212),
            ("hash", H1): (1, 1170),
            ("hash", H2): (1, 6610),
            ("hash", H_MERKLE): (316, 38076),
            ("xof", X_CH1): (1, 65),
            ("xof", X_CH2): (1, 65),
        },
    },
}

# (method, role byte) -> bytes squeezed from the XOF, every refill counted.
# Each challenge stream is drawn with one read, and additive signing reads
# its salt and all root seeds with one read, so X_CH1 and additive X_SIGN
# squeeze exactly the bytes they use.
PINNED_SQUEEZED = {
    ("additive", 1): {
        "sign": {("xof", X_CH1): 2448, ("xof", X_CH2): 64, ("xof", X_SIGN): 320,
                 ("xof_digest", X_TREE): 146880, ("xof_digest", X_LEAF): 680040},
        "verify": {("xof", X_CH1): 2448, ("xof", X_CH2): 64,
                   ("xof_digest", X_TREE): 142272, ("xof_digest", X_LEAF): 677376},
    },
    ("additive", 3): {
        "sign": {("xof", X_CH1): 4940, ("xof", X_CH2): 64, ("xof", X_SIGN): 672,
                 ("xof_digest", X_TREE): 318240, ("xof_digest", X_LEAF): 1380522},
        "verify": {("xof", X_CH1): 4940, ("xof", X_CH2): 64,
                   ("xof_digest", X_TREE): 308256, ("xof_digest", X_LEAF): 1375114},
    },
    ("additive", 5): {
        "sign": {("xof", X_CH1): 8993, ("xof", X_CH2): 64, ("xof", X_SIGN): 1152,
                 ("xof_digest", X_TREE): 554880, ("xof_digest", X_LEAF): 2473296},
        "verify": {("xof", X_CH1): 8993, ("xof", X_CH2): 64,
                   ("xof_digest", X_TREE): 537472, ("xof_digest", X_LEAF): 2463606},
    },
    ("threshold", 1): {
        "sign": {("xof", X_CH1): 1428, ("xof", X_CH2): 64, ("xof", X_SIGN): 5094},
        "verify": {("xof", X_CH1): 1428, ("xof", X_CH2): 64},
    },
    ("threshold", 3): {
        "sign": {("xof", X_CH1): 3040, ("xof", X_CH2): 64, ("xof", X_SIGN): 10782},
        "verify": {("xof", X_CH1): 3040, ("xof", X_CH2): 64},
    },
    ("threshold", 5): {
        "sign": {("xof", X_CH1): 4760, ("xof", X_CH2): 64, ("xof", X_SIGN): 16830},
        "verify": {("xof", X_CH1): 4760, ("xof", X_CH2): 64},
    },
}


@functools.cache
def _operations(variant, level):
    """The fixed-input sign and its verify as calls, key-only work done already."""
    ps = params.parameter_set(variant, level).sign_params()
    scheme = ps.scheme
    pk, sk = keygen_optimized(ps, b"hash work")
    sk.sign_inputs()
    pk.matrices()
    data = scheme.sign(ps, pk, sk, b"pinned message", b"pinned entropy")
    return {"sign": lambda: scheme.sign(ps, pk, sk, b"pinned message", b"pinned entropy"),
            "verify": lambda: scheme.verify(ps, pk, b"pinned message", data)}


STREAM_ROLES = (X_CH1, X_CH2, X_SIGN)


class _Counted:
    """A hash or XOF object that adds every ``digest(n)`` to its tally entry."""

    def __init__(self, obj, entry):
        self._obj = obj
        self._entry = entry

    def digest(self, *n):
        self._entry[2] += sum(n)
        return self._obj.digest(*n)


def _per_operation(variant, level, monkeypatch):
    """Run the sign and the verify, each with fresh tallies of the hash and
    XOF objects made: (method, role) -> [calls, bytes absorbed, bytes squeezed]."""
    tally = collections.defaultdict(lambda: [0, 0, 0])
    suite = params.parameter_set(variant, level).suite

    def counting(ctor, name_of):
        def make(data):
            entry = tally[(name_of(data[0]), data[0])]
            entry[0] += 1
            entry[1] += len(data)
            return _Counted(ctor(data), entry)
        return make

    monkeypatch.setattr(suite, "_hash_ctor", counting(suite._hash_ctor, lambda role: "hash"))
    monkeypatch.setattr(suite, "_xof_ctor", counting(
        suite._xof_ctor, lambda role: "xof" if role in STREAM_ROLES else "xof_digest"))
    out = {}
    for op, run in _operations(variant, level).items():
        tally.clear()
        assert run()
        out[op] = dict(tally)
    return out


@pytest.mark.parametrize("variant, level", list(PINNED))
def test_hash_calls_and_bytes_by_role(variant, level, monkeypatch):
    got = _per_operation(variant, level, monkeypatch)
    assert {op: {key: (calls, absorbed) for key, (calls, absorbed, _) in tally.items()}
            for op, tally in got.items()} == PINNED[(variant, level)]


@pytest.mark.parametrize("variant, level", list(PINNED_SQUEEZED))
def test_xof_bytes_squeezed_by_role(variant, level, monkeypatch):
    got = _per_operation(variant, level, monkeypatch)
    assert {op: {key: squeezed for key, (_, _, squeezed) in tally.items() if key[0] != "hash"}
            for op, tally in got.items()} == PINNED_SQUEEZED[(variant, level)]


def _mira_frames(run):
    """Python frames entered in the ``mira`` package while ``run()`` runs."""
    root = os.path.dirname(mira.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    sys.setprofile(profile)
    try:
        assert run()
    finally:
        sys.setprofile(None)
    return count


# frames allowed per hash call where a quarter is not the bound: threshold
# verify makes only about 180 digests, so its fixed per-signature frames
# (decode, challenge draws, the rank check's GEMMs) weigh more
FRAMES_PER_CALL = {("threshold", 1, "verify"): 2}


@pytest.mark.parametrize("variant, level, op", [("additive", 1, "sign"),
                                                ("additive", 1, "verify"),
                                                ("threshold", 1, "sign"),
                                                ("threshold", 1, "verify")])
def test_python_frames_per_hash_call(variant, level, op):
    """Batched digests keep the Python frames well below one per hash call,
    and threshold verify's Merkle roots cost no frames per node.

    A ratio, not an exact count: how many frames a comprehension opens
    depends on the Python version.
    """
    calls = sum(calls for calls, _ in PINNED[(variant, level)][op].values())
    bound = FRAMES_PER_CALL.get((variant, level, op), 1 / 4) * calls
    assert _mira_frames(_operations(variant, level)[op]) < bound
