"""Signature codec properties for all six parameter sets.

``decode`` meets bytes from outside the program: whatever it is given, it
either parses them or raises ``SignatureFormatError``, the one error both
variants share; and whatever it parses, ``encode`` writes back unchanged.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira import params, sign_additive as sa, sign_threshold as st
from mira.bitio import SignatureFormatError
from mira.keys import keygen_optimized

SCHEMES = {params.ADDITIVE: sa, params.THRESHOLD: st}
# (variant, level); a level-1 set is named by its variant alone.  Additive
# level 3 has an odd state width, so every other round starts mid-byte.
VARIANTS = [pytest.param((variant, level), id=variant if level == 1 else f"{variant}-{level}")
            for variant in SCHEMES for level in (1, 3, 5)]


@lru_cache(maxsize=None)
def valid_signature(variant):
    ps = params.parameter_set(*variant)
    sp = ps.sign_params()
    pk, sk = keygen_optimized(ps.minrank(), b"codec-" + variant[0].encode())
    return sp, SCHEMES[variant[0]].sign(sp, pk, sk, b"codec message", b"codec entropy")


def decode_or_format_error(variant, data):
    """Decode; on success the encoding must give ``data`` back."""
    scheme = SCHEMES[variant[0]]
    sp, _ = valid_signature(variant)
    try:
        sig = scheme.decode(sp, data)
    except SignatureFormatError:
        return False
    assert scheme.encode(sp, sig) == data
    return True


def test_one_shared_format_error():
    assert sa.SignatureFormatError is st.SignatureFormatError is SignatureFormatError
    assert issubclass(SignatureFormatError, ValueError)


@pytest.mark.parametrize("variant", VARIANTS)
def test_valid_signature_round_trips(variant):
    _, sig = valid_signature(variant)
    assert decode_or_format_error(variant, sig)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150, deadline=None)
@given(data=hs.binary(max_size=12000))
def test_arbitrary_bytes(variant, data):
    decode_or_format_error(variant, data)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=100, deadline=None)
@given(frac=hs.floats(0, 1, exclude_max=True))
def test_truncated_signature(variant, frac):
    _, sig = valid_signature(variant)
    assert not decode_or_format_error(variant, sig[:int(frac * len(sig))])


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=100, deadline=None)
@given(tail=hs.binary(min_size=1, max_size=300))
def test_extended_signature(variant, tail):
    _, sig = valid_signature(variant)
    assert not decode_or_format_error(variant, sig + tail)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=200, deadline=None)
@given(edits=hs.lists(hs.tuples(hs.floats(0, 1, exclude_max=True),
                                hs.integers(1, 255)), min_size=1, max_size=8))
def test_byte_mutated_signature(variant, edits):
    _, sig = valid_signature(variant)
    data = bytearray(sig)
    for frac, mask in edits:
        data[int(frac * len(data))] ^= mask
    decode_or_format_error(variant, bytes(data))
