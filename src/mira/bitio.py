"""Nibble-granular byte stream used by the fixed-layout signature encodings.

The additive signature mixes byte-sized components (seed paths, digests)
with 4-bit field elements.  Components are concatenated without padding,
so a round may legally end half way through a byte; padding happens once,
at the very end of the stream.  Within a byte the low nibble comes first.

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


class NibbleWriter:
    def __init__(self):
        self._chunks = []

    def write_nibbles(self, vals):
        """Append 4-bit values (iterable or uint8 array, each < 16)."""
        arr = np.asarray(vals, dtype=np.uint8)
        self._chunks.append(arr.ravel())

    def write_bytes(self, data):
        self._chunks.append(unpack_nibbles(data))

    def getvalue(self):
        nib = np.concatenate(self._chunks) if self._chunks else np.zeros(0, np.uint8)
        return pack_nibbles(nib)


class NibbleReader:
    def __init__(self, data):
        self._nib = unpack_nibbles(data)
        self._pos = 0

    def read_nibbles(self, count):
        if self._pos + count > len(self._nib):
            raise ValueError("nibble stream exhausted")
        out = self._nib[self._pos:self._pos + count]
        self._pos += count
        return out

    def read_bytes(self, count):
        return pack_nibbles(self.read_nibbles(2 * count))

    def remaining_nibbles(self):
        return len(self._nib) - self._pos
