"""Signature wire layouts, nibble packing for GF(16) data, and the
signature decoders' shared error and result.

GF(16) elements travel as 4-bit values, two per byte with the low nibble
first; an odd count ends in one zero padding nibble.

``SignatureFormatError`` is the one error both signature decoders raise.
``Signature`` is what both signers return and both decoders give: the
header byte strings and ``columns``, each layout field's value for all
rounds at once, round axis first.  Its ``rounds`` property is a derived,
read-only per-round view of those columns; the library never reads it.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate

import numpy as np

SEED, DIGEST, ELEM, U16 = "seed", "digest", "element", "u16"


# ``Signature.rounds``'s record class, made once per tuple of field names
_round_record = cache(partial(namedtuple, "Round"))


class SignatureFormatError(ValueError):
    """A signature's bytes do not parse under its parameter set."""


@dataclass
class Signature:
    """A signature's header byte strings and its rounds' responses as columns.

    ``columns`` maps each layout field name, in wire order, to its value for
    all rounds, round axis first: an ELEM field is a (tau, *shape) uint8
    array; a SEED or DIGEST field is a list of tau entries, each a byte
    string, or a list of byte strings when the field has a shape (``path``,
    ``auth``).  A U16 count field is left out, since its list's length
    gives it.
    """
    salt: bytes
    h1: bytes
    h2: bytes
    columns: dict

    @property
    def rounds(self):
        """Per-round records of ``columns``, built on each access; a record's
        fields cannot be assigned, and its arrays are rows of the columns."""
        record = _round_record(tuple(self.columns))
        return [record(*row) for row in zip(*self.columns.values())]


class Layout:
    """A signature variant's wire layout, which its codec and size bounds read.

    Every signature starts with the ``header`` byte strings, (name, bytes)
    each and ``head`` bytes in all; ``ps.tau`` rounds follow, each with the
    ``fields`` in wire order as (name, unit, shape).  A unit is a SEED or
    DIGEST byte string, a field ELEMent, or the U16 count of the
    variable-length field after it, whose shape is then its largest.  With
    ``stream`` the rounds form one stream of codec units, one per element
    and two per byte when q = 16, packed at once (additive); otherwise
    every element field is a block packed on its own (threshold).
    ``widths`` are the fields' largest sizes in codec units, of which a
    byte holds ``units_per_byte``, and ``max_bytes`` is the largest
    signature, the size of every additive one.
    """

    def __init__(self, ps, fields, stream):
        suite = ps.suite
        sb, db = suite.salt_bytes, suite.digest_bytes
        nbytes = {SEED: suite.seed_bytes, DIGEST: db, U16: 2}
        self.header, self.head = (("salt", sb), ("h1", db), ("h2", db)), sb + 2 * db
        self.fields = fields
        self.units_per_byte = upb = 2 if stream and ps.q == 16 else 1
        counts = [(unit, math.prod(shape)) for _, unit, shape in fields]
        self.widths = tuple(upb * nbytes[unit] * n if unit != ELEM
                            else n if stream else ps.base.packed_size(n) for unit, n in counts)
        self.max_bytes = self.head + -(-ps.tau * sum(self.widths) // upb)

    def units(self, data):
        """Bytes as codec units: two nibbles each, or one byte."""
        if self.units_per_byte == 2:
            return unpack_nibbles(data)
        return np.frombuffer(data, np.uint8).copy()

    def shape(self, name):
        return next(shape for field, _, shape in self.fields if field == name)

    def header_bytes(self, sig):
        return b"".join(getattr(sig, name) for name, _ in self.header)

    def signature(self, data, columns):
        """``data``'s header fields with ``columns``, one per field but the
        U16 counts, in wire order."""
        ends = accumulate(size for _, size in self.header)
        names = [name for name, unit, _ in self.fields if unit != U16]
        return Signature(*(data[end - size:end] for (_, size), end in zip(self.header, ends)),
                         dict(zip(names, columns)))


def unpack_nibbles(data):
    """Bytes or a uint8 array -> 4-bit values along the last axis, low nibble first."""
    raw = data if isinstance(data, np.ndarray) else np.frombuffer(data, np.uint8)
    out = np.empty(raw.shape[:-1] + (2 * raw.shape[-1],), np.uint8)
    out[..., 0::2] = raw & 0x0F
    out[..., 1::2] = raw >> 4
    return out


def pack_nibbles(nib):
    """Flat uint8 array of 4-bit values -> bytes, low nibble first.

    The inverse of ``unpack_nibbles``; an odd count is padded with a 0 nibble.
    """
    if len(nib) & 1:
        nib = np.concatenate([nib, np.zeros(1, np.uint8)])
    return (nib[0::2] | (nib[1::2] << 4)).tobytes()
