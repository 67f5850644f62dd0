"""Pin the bytes of the fixed GF(16) operands an additive signer keeps.

Each process keeps one prepared rank map per (field, r), and each public key
one ``Gf2Table`` for x @ L.  Their size sets how much of a signature's field
work runs from cache, so a layout that grows them shows here without
wall-clock noise.
"""

import pytest

from mira import mpc, params
from mira.keys import keygen_optimized

# level -> (rank map bytes, x @ L table bytes)
PINNED = {
    1: (786432, 245760),
    3: (1536416, 486528),
    5: (2725408, 1101056),
}


@pytest.mark.parametrize("level", sorted(PINNED))
def test_additive_operand_bytes(level):
    ps = params.parameter_set("additive", level).sign_params()
    rank_map, cols = mpc._rank_map(ps.ext, ps.r)
    assert cols == (ps.r + 1) * ps.m
    pk, _ = keygen_optimized(ps, b"operand bytes")
    table = mpc.PkOperand.of(pk)._gf2_table().table
    assert (rank_map.nbytes, table.nbytes) == PINNED[level]
