"""Nibble packing for GF(16) data, and the signature decoders' shared error.

GF(16) elements travel as 4-bit values, two per byte with the low nibble
first; an odd count ends in one zero padding nibble.

``SignatureFormatError`` is the one error both signature decoders raise.
"""

import numpy as np


class SignatureFormatError(ValueError):
    """A signature's bytes do not parse under its parameter set."""


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
