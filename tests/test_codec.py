"""Signature codec properties for all six parameter sets.

``decode`` meets bytes from outside the program: whatever it is given, it
either parses them or raises ``SignatureFormatError``, the one error both
variants share; and whatever it parses, ``encode`` writes back unchanged.
The threshold decoder also gives the same result, or the same error
message, as a straightforward round-by-round reference decoder.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira import params, sign_additive as sa, sign_threshold as st
from mira.bitio import ELEM, U16, SignatureFormatError
from mira.keys import keygen_optimized

from helpers import threshold_decode_by_round

README = Path(__file__).resolve().parents[1] / "README.md"
# (variant, level); a level-1 set is named by its variant alone.  Additive
# level 3 has an odd state width, so every other round starts mid-byte.
VARIANTS = [pytest.param((variant, level), id=variant if level == 1 else f"{variant}-{level}")
            for variant in (params.ADDITIVE, params.THRESHOLD) for level in (1, 3, 5)]


@lru_cache(maxsize=None)
def valid_signature(variant):
    ps = params.parameter_set(*variant)
    sp = ps.sign_params()
    pk, sk = keygen_optimized(ps.minrank(), b"codec-" + variant[0].encode())
    return sp, sp.scheme.sign(sp, pk, sk, b"codec message", b"codec entropy")


def decode_or_format_error(variant, data):
    """Decode; on success the encoding must give ``data`` back."""
    sp, _ = valid_signature(variant)
    try:
        sig = sp.scheme.decode(sp, data)
    except SignatureFormatError:
        return False
    assert sp.scheme.encode(sp, sig) == data
    return True


def test_one_shared_format_error():
    assert sa.SignatureFormatError is st.SignatureFormatError is SignatureFormatError
    assert issubclass(SignatureFormatError, ValueError)


@pytest.mark.parametrize("variant", [params.ADDITIVE, params.THRESHOLD])
def test_readme_layout_line_matches_the_layout(variant):
    ps = params.parameter_set(variant, 1)
    lay = ps.scheme.layout(ps)
    line = (f"`{' || '.join(name for name, _ in lay.header)}`, then per round "
            f"`{' || '.join(name for name, _, _ in lay.fields)}`.")
    assert line in README.read_text()


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("malformed: ")


@pytest.mark.parametrize("variant", [params.ADDITIVE, params.THRESHOLD])
def test_verify_decoded_returns_a_bool(variant):
    ps = params.parameter_set(variant, 1)
    pk, sk = keygen_optimized(ps, b"bool")
    sig = ps.scheme.decode(ps, ps.scheme.sign(ps, pk, sk, b"m", b"e"))
    assert ps.scheme.verify_decoded(ps, pk, b"m", sig) is True
    assert ps.scheme.verify_decoded(ps, pk, b"other message", sig) is False


# a toy set of each variant: GF(16) with an odd state width, so the additive
# stream's rounds start mid-byte and every threshold block ends in a padding
# nibble
COLUMN_SETS = {
    "a1": params.parameter_set("additive", 1).sign_params(),
    "t1": params.parameter_set("threshold", 1).sign_params(),
    "additive-toy": params.ParameterSet("additive", 0, q=16, m=4, n=4, k=5, r=2, N=8, tau=3,
                                        eta=1, lam=128).sign_params(),
    "threshold-toy": params.ParameterSet("threshold", 0, q=16, m=3, n=3, k=4, r=1, N=15,
                                         tau=2, eta=1, lam=128, ell=2).sign_params(),
}


@pytest.mark.parametrize("name", list(COLUMN_SETS))
def test_decoded_columns_are_the_signers_columns(name):
    # a signature is its layout's fields as all-round columns, round axis
    # first, from the signer and from the decoder alike; ``rounds`` is a
    # read-only per-round view of them
    ps = COLUMN_SETS[name]
    pk, sk = keygen_optimized(ps, b"columns " + name.encode())
    x, beta = sk.sign_inputs()
    signed = ps.scheme._sign_core(ps, pk, x, beta, b"columns", b"columns entropy")
    sig = ps.scheme.decode(ps, ps.scheme.encode(ps, signed))
    fields = [(field, unit, shape) for field, unit, shape in ps.scheme.layout(ps).fields
              if unit != U16]
    assert list(sig.columns) == list(signed.columns) == [field for field, _, _ in fields]
    for field, unit, shape in fields:
        got, want = sig.columns[field], signed.columns[field]
        if unit == ELEM:
            assert got.dtype == want.dtype == np.uint8
            assert got.shape == want.shape == (ps.tau,) + shape
            assert np.array_equal(got, want)
        else:
            assert len(got) == ps.tau and got == want
            assert all(isinstance(v, bytes) for entry in got
                       for v in (entry if shape else [entry]))
    records = sig.rounds
    assert len(records) == ps.tau
    for e, record in enumerate(records):
        for field, unit, _ in fields:
            value, row = getattr(record, field), sig.columns[field][e]
            assert np.array_equal(value, row) if unit == ELEM else value == row
        with pytest.raises(AttributeError):
            setattr(record, fields[0][0], None)


@pytest.mark.parametrize("variant", ["a1", "t1"])
def test_rounds_records_keep_one_class(variant):
    # the record class was once made anew on every access of ``rounds``
    ps = COLUMN_SETS[variant]
    pk, sk = keygen_optimized(ps, b"records")
    sig = ps.scheme.decode(ps, ps.scheme.sign(ps, pk, sk, b"records", b"records entropy"))
    first, second = sig.rounds[0], sig.rounds[1]
    assert type(first) is type(second) is type(sig.rounds[0])
    with pytest.raises(AttributeError):
        first.salt = None
    with pytest.raises(AttributeError):
        setattr(second, next(iter(sig.columns)), None)


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


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=50, deadline=None)
@given(seed=hs.integers(0, 2 ** 32 - 1))
def test_arbitrary_bytes_of_signature_length(variant, seed):
    # arbitrary bytes of a valid signature's length: additive ones mostly
    # decode, so the canonical-encoding check above sees them
    _, sig = valid_signature(variant)
    decode_or_format_error(variant, np.random.default_rng(seed).bytes(len(sig)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_mutated_signatures_reach_the_canonical_encoding_check(variant):
    # the byte-mutation fuzz asserts encode(decode(b)) == b on every b that
    # decodes; most single-byte mutations do decode, in both variants
    _, sig = valid_signature(variant)
    rng = np.random.default_rng(13)
    decoded = 0
    for _ in range(40):
        data = bytearray(sig)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        decoded += decode_or_format_error(variant, bytes(data))
    assert decoded >= 20


# ---------------------------------------------------------------------------
# the threshold decoder against the round-by-round reference decoder

# GF(16) with ell = 1: T = 13, so both the opened block and the r*m = 3
# alpha block end in a padding nibble
EQUIV_SETS = {
    "t1": params.parameter_set("threshold", 1).sign_params(),
    "gf16": params.ParameterSet("threshold", 0, q=16, m=3, n=3, k=4, r=1, N=15, tau=3,
                                eta=1, lam=128, ell=1).sign_params(),
}
EDITS = ("count", "element", "truncate", "trail", "xor")


@lru_cache(maxsize=None)
def equiv_signature(name):
    ps = EQUIV_SETS[name]
    pk, sk = keygen_optimized(ps, b"equiv " + name.encode())
    data = st.sign(ps, pk, sk, b"equiv message", b"equiv entropy")
    return data, _layout(ps, data)


def _layout(ps, data):
    """(count, opened, alpha, end) byte offsets of every round of ``data``."""
    db = ps.suite.digest_bytes
    opened_bytes = ps.base.packed_size(ps.ell * ps.share_dims.total)
    alpha_bytes = ps.base.packed_size(ps.r * ps.m)
    pos = ps.suite.salt_bytes + 2 * db
    out = []
    for auth in threshold_decode_by_round(ps, data).columns["auth"]:
        opened = pos + 2 + len(auth) * db
        out.append((pos, opened, opened + opened_bytes, opened + opened_bytes + alpha_bytes))
        pos = out[-1][-1]
    return out


def _edit(ps, data, layout, kind, frac, value):
    e = layout[int(frac * len(layout))]
    if kind == "count":
        # near the auth path limit, or any 16-bit count
        limit, = st.layout(ps).shape("auth")
        count = value if value & 1 else value % (limit + 4)
        data[e[0]:e[0] + 2] = count.to_bytes(2, "little")
    elif kind == "element":
        if ps.base.q == 16:      # a nonzero padding nibble of either block
            data[e[2 + value % 2] - 1] |= 0x10 * (1 + value % 15)
        else:                    # an element byte >= q
            data[e[1] + value % (e[3] - e[1])] = 251 + value % 5
    elif kind == "truncate":
        del data[int(frac * len(data)):]
    elif kind == "trail":
        data += bytes([value & 0xFF]) * (1 + value % 40)
    elif data:
        data[int(frac * len(data))] ^= 1 + value % 255


def _decoded(decoder, ps, data):
    """Everything a decode gives: the parsed fields, or the error message."""
    try:
        sig = decoder(ps, data)
    except SignatureFormatError as exc:
        return str(exc)
    cols = sig.columns
    return (sig.salt, sig.h1, sig.h2, list(cols), cols["auth"],
            cols["opened"].shape, cols["opened"].tolist(),
            cols["alpha_star"].shape, cols["alpha_star"].tolist())


@pytest.mark.parametrize("name", list(EQUIV_SETS))
@settings(max_examples=300, deadline=None)
@given(edits=hs.lists(hs.tuples(hs.sampled_from(EDITS), hs.floats(0, 1, exclude_max=True),
                                hs.integers(0, 2 ** 16 - 1)), max_size=4))
def test_threshold_decode_matches_round_by_round_reference(name, edits):
    ps = EQUIV_SETS[name]
    valid, layout = equiv_signature(name)
    data = bytearray(valid)
    for kind, frac, value in edits:
        if len(data) >= len(valid) or kind in ("truncate", "trail", "xor"):
            _edit(ps, data, layout, kind, frac, value)
    data = bytes(data)
    assert _decoded(st.decode, ps, data) == _decoded(threshold_decode_by_round, ps, data)


@pytest.mark.parametrize("name", list(EQUIV_SETS))
def test_threshold_decode_checks_elements_before_a_later_fault(name):
    # a bad element ahead of a truncated alpha block or an oversized count
    # of the next round is reported first, as a round-by-round parse finds it
    ps = EQUIV_SETS[name]
    valid, layout = equiv_signature(name)
    last, first = layout[-1], layout[0]
    bad_last, bad_first = bytearray(valid), bytearray(valid)
    _edit(ps, bad_last, layout, "element", 0.99, 0)          # last round's opened block
    _edit(ps, bad_first, layout, "element", 0.0, 0)
    bad_first[layout[1][0]:layout[1][0] + 2] = b"\xff\xff"
    cases = [bytes(bad_last[:last[2] + 1]), bytes(bad_first)]
    want = "nonzero padding nibble" if ps.base.q == 16 else "field element out of range"
    for data in cases:
        assert _decoded(threshold_decode_by_round, ps, data) == want
        assert _decoded(st.decode, ps, data) == want
