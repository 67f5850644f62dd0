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


class NibbleWriter:
    def __init__(self):
        self._chunks = []

    def write_nibbles(self, vals):
        """Append 4-bit values (iterable or uint8 array, each < 16)."""
        arr = np.asarray(vals, dtype=np.uint8)
        self._chunks.append(arr.ravel())

    def write_bytes(self, data):
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        pair = np.empty(2 * len(arr), dtype=np.uint8)
        pair[0::2] = arr & 0x0F
        pair[1::2] = arr >> 4
        self._chunks.append(pair)

    def getvalue(self):
        nib = np.concatenate(self._chunks) if self._chunks else np.zeros(0, np.uint8)
        if len(nib) & 1:
            nib = np.concatenate([nib, np.zeros(1, np.uint8)])
        packed = nib[0::2] | (nib[1::2] << 4)
        return packed.tobytes()


class NibbleReader:
    def __init__(self, data):
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        nib = np.empty(2 * len(arr), dtype=np.uint8)
        nib[0::2] = arr & 0x0F
        nib[1::2] = arr >> 4
        self._nib = nib
        self._pos = 0

    def read_nibbles(self, count):
        if self._pos + count > len(self._nib):
            raise ValueError("nibble stream exhausted")
        out = self._nib[self._pos:self._pos + count]
        self._pos += count
        return out

    def read_bytes(self, count):
        nib = self.read_nibbles(2 * count)
        return (nib[0::2] | (nib[1::2] << 4)).tobytes()

    def remaining_nibbles(self):
        return len(self._nib) - self._pos
