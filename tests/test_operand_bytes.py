"""Pin the bytes of the fixed operands a signer keeps, for every set.

Each process keeps one prepared rank map per (field, r), and each public key
one prepared [L'; M_0'], L' with M_0's tail as one more row, for
[x | o] @ [L'; M_0'] (bit-sliced lane words over GF(16), float32 over
GF(251)).  Their size sets how much of a signature's field work runs from
cache, so a layout that grows them shows here without wall-clock noise.
"""

import pytest

from mira import mpc, params
from mira.keys import keygen_optimized

# level -> (rank map bytes, prepared [L'; M_0'] bytes)
PINNED = {
    "additive": {1: (786432, 526592), 3: (1536416, 1043744), 5: (2725408, 2045440)},
    "threshold": {1: (41472, 22624), 3: (98304, 57640), 5: (114688, 71720)},
}


def _prepared(op):
    """(array, columns) of a prepared right operand of either base field."""
    return op if isinstance(op, tuple) else (op, op.shape[-1])


def _operand_bytes(variant, level):
    ps = params.parameter_set(variant, level).sign_params()
    rank_map, cols = _prepared(mpc._rank_map(ps.ext, ps.r))
    assert cols == (ps.r + 1) * ps.m
    pk, _ = keygen_optimized(ps, b"operand bytes")
    l_m0, cols = _prepared(mpc.PkOperand.of(pk)._l_m0)
    assert cols == ps.m * ps.n - ps.k
    return rank_map.nbytes, l_m0.nbytes


@pytest.mark.parametrize("level", sorted(PINNED["additive"]))
def test_additive_operand_bytes(level):
    assert _operand_bytes("additive", level) == PINNED["additive"][level]


@pytest.mark.parametrize("level", sorted(PINNED["threshold"]))
def test_threshold_operand_bytes(level):
    assert _operand_bytes("threshold", level) == PINNED["threshold"][level]
