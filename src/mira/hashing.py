"""Hashing, XOF streams, commitments and challenge derivation.

One 2*lambda-bit hash (SHA3-256/384/512 by security level) and one XOF
(SHAKE128 for lambda = 128, SHAKE256 above) cover every symmetric need.
Each invocation is domain-separated by a single role byte:

    0x00..0x04  hash roles H0..H4 (commitments, per-round digests, h1,
                broadcast digests, h2)
    0x05        Merkle tree node hash
    0x06        seed tree node expansion          (XOF)
    0x07        per-leaf input share stream       (XOF)
    0x08        first challenge stream            (XOF)
    0x09        second challenge stream           (XOF)
    0x0a..0x0d  key generation / signing / KAT randomness (XOF)

Integer framing in hash inputs: round index e and party index i are 2-byte
little endian, tree node indices 4-byte, hypercube dimension 1 byte.

The hot loops hash whole levels or rounds at once: ``HashSuite.hash_many``
and ``xof_many`` digest ``role || prefix || suffix`` for every suffix of a
list in one comprehension, with the same bytes and in the same order as one
``hash`` or ``xof_digest`` call per suffix.  Seed-tree levels, leaf
payloads, ``commit``, Merkle levels and the additive H3 digests go through
them.  While ``HashSuite.hash`` or ``xof_digest`` is replaced on the class,
a batch runs through the replacement one call per suffix, so wrapping those
methods still sees every digest.  Outside the tests only perfbench's
tracer relies on that fallback; the pinned hash-work counts are taken at
``_hash_ctor`` and ``_xof_ctor``, where every hash object is made.

``derive_challenge1`` draws all rounds' gamma and eps with one stream read
and returns them as (tau, n, m) and (tau, m) arrays, as ``mpc.ChallengeBatch``
takes them.
"""

import hashlib

import numpy as np

from .bitio import unpack_nibbles

H0_COMMIT = 0x00
H1 = 0x01
H2 = 0x02
H3 = 0x03
H4 = 0x04
H_MERKLE = 0x05
X_TREE = 0x06
X_LEAF = 0x07
X_CH1 = 0x08
X_CH2 = 0x09
X_KEYPUB = 0x0A
X_KEYSEC = 0x0B
X_SIGN = 0x0C
X_KAT = 0x0D

_HASHES = {128: "sha3_256", 192: "sha3_384", 256: "sha3_512"}
_XOFS = {128: "shake_128", 192: "shake_256", 256: "shake_256"}


class HashSuite:
    """Level-dependent hash/XOF pair with role-byte domain separation."""

    def __init__(self, lam):
        if lam not in _HASHES:
            raise ValueError(f"unsupported security parameter {lam}")
        self.lam = lam
        self.seed_bytes = lam // 8
        self.digest_bytes = 2 * lam // 8
        self.salt_bytes = 2 * lam // 8
        self._hash_ctor = getattr(hashlib, _HASHES[lam])
        self._xof_ctor = getattr(hashlib, _XOFS[lam])
        self._roles = [bytes([b]) for b in range(256)]

    def hash(self, role, *parts):
        return self._hash_ctor(self._roles[role] + b"".join(parts)).digest()

    def hash_many(self, role, prefix, suffixes):
        """``[self.hash(role, prefix, s) for s in suffixes]`` in one comprehension."""
        if HashSuite.hash is not _HASH:
            return [self.hash(role, prefix, s) for s in suffixes]
        ctor = self._hash_ctor
        head = self._roles[role] + prefix
        return [ctor(head + s).digest() for s in suffixes]

    def xof_digest(self, role, payload, n):
        """One-shot XOF output; ``payload`` is a single bytes object."""
        return self._xof_ctor(self._roles[role] + payload).digest(n)

    def xof_many(self, role, prefix, suffixes, n):
        """``[self.xof_digest(role, prefix + s, n) for s in suffixes]`` in one comprehension."""
        if HashSuite.xof_digest is not _XOF_DIGEST:
            return [self.xof_digest(role, prefix + s, n) for s in suffixes]
        ctor = self._xof_ctor
        head = self._roles[role] + prefix
        return [ctor(head + s).digest(n) for s in suffixes]

    def xof(self, role, *parts):
        return XofStream(self._xof_ctor(self._roles[role] + b"".join(parts)))


# the unwrapped single-digest methods; see the module docstring
_HASH = HashSuite.hash
_XOF_DIGEST = HashSuite.xof_digest


class XofStream:
    """Sequential reader over a SHAKE object."""

    def __init__(self, xof):
        self._xof = xof
        self._buf = b""
        self._pos = 0

    def read(self, n):
        end = self._pos + n
        if end > len(self._buf):
            # extend geometrically; digest() re-reads from the start
            newlen = max(end, 2 * len(self._buf), 64)
            self._buf = self._xof.digest(newlen)
        out = self._buf[self._pos:end]
        self._pos = end
        return out

    def unread(self, n):
        """Step back over the last ``n`` bytes read; the next read returns them again."""
        self._pos -= n


class _LittleEndian(dict):
    """Memo of fixed-width little-endian encodings, looked up at C speed."""

    def __init__(self, width):
        super().__init__()
        self.width = width

    def __missing__(self, v):
        b = self[v] = int(v).to_bytes(self.width, "little")
        return b


encode_u16 = _LittleEndian(2).__getitem__
encode_u32 = _LittleEndian(4).__getitem__


def party_suffixes(indices, states):
    """``u16(i) || state`` per party, None for a None state (a hidden party).

    After a round's ``salt || u16(e)`` these are the commitment inputs; with
    the leaf seeds as states they are also the leaf streams' inputs.
    """
    return [None if s is None else encode_u16(i) + s for i, s in zip(indices, states)]


def commit(suite, salt, e, suffixes):
    """Position-bound commitments to round ``e``'s parties, one per
    ``party_suffixes`` entry."""
    return suite.hash_many(H0_COMMIT, salt + encode_u16(e), suffixes)


# ---------------------------------------------------------------------------
# field element sampling

class FieldSampler:
    """Uniform field elements from an XOF stream.

    GF(16) consumes two elements per byte (low nibble first); other powers
    of two mask the low bits of one byte; prime fields use per-byte
    rejection (values >= floor(256/p)*p are discarded, then reduced through
    the field's byte -> residue vector ``RESIDUE``).  For q = 251 that is
    exactly "reject bytes >= 251".
    """

    def __init__(self, field, stream):
        self.field = field
        self.stream = stream
        self._nibbles = None

    def take(self, count):
        q = self.field.q
        if q == 16:
            return self._take_nibbles(count)
        if q & (q - 1) == 0:  # power of two
            raw = np.frombuffer(self.stream.read(count), np.uint8)
            return raw & np.uint8(q - 1)
        thresh = (256 // q) * q
        out = np.empty(count, np.uint8)
        got = 0
        while got < count:
            need = count - got
            raw = np.frombuffer(self.stream.read(need + (need >> 3) + 8), np.uint8)
            ok = raw[raw < thresh]
            take = min(len(ok), need)
            out[got:got + take] = np.take(self.field.RESIDUE, ok[:take])
            got += take
        return out

    def take_joined(self, counts):
        """``np.concatenate([self.take(c) for c in counts])`` with one stream read.

        Power-of-two fields read the bytes those takes consume as one block.
        A prime field reads every take's first rejection window at once
        (``take`` sizes it ``need + need // 8 + 8``), accepts bytes with one
        mask and keeps the first ``count`` accepted bytes of each window.  If
        a window holds too few, the stream steps back to its start and that
        take and the ones after it run one by one.
        """
        counts = np.asarray(counts, np.intp)
        q = self.field.q
        if q & (q - 1) == 0:
            return self.take(int(counts.sum()))
        draws = np.flatnonzero(counts)
        if not len(draws):
            return np.zeros(0, np.uint8)
        need = counts[draws]
        wins = need + (need >> 3) + 8
        ends = np.cumsum(wins)
        starts = ends - wins
        total = int(ends[-1])
        raw = np.frombuffer(self.stream.read(total), np.uint8)
        ok = raw < (256 // q) * q
        # accepted bytes per window beyond its count; element j of a window
        # is the j-th accepted byte from its start
        surplus = np.add.reduceat(ok, starts, dtype=np.intp) - need
        kept = np.repeat(np.cumsum(surplus) - surplus, need)
        kept += np.arange(len(kept))
        short = np.flatnonzero(surplus < 0)
        if not len(short):
            return np.take(self.field.RESIDUE, raw[ok][kept])
        fast = int(short[0])
        self.stream.unread(total - int(starts[fast]))
        head = np.take(self.field.RESIDUE, raw[ok][kept[:int(need[:fast].sum())]])
        return np.concatenate([head] + [self.take(int(c)) for c in counts[draws[fast]:]])

    def _take_nibbles(self, count):
        pend = self._nibbles if self._nibbles is not None else np.zeros(0, np.uint8)
        if len(pend) < count:
            nbytes = (count - len(pend) + 1) // 2
            pend = np.concatenate([pend, unpack_nibbles(self.stream.read(nbytes))])
        out, self._nibbles = pend[:count], pend[count:]
        return out

    def matrix(self, rows, cols):
        return self.take(rows * cols).reshape(rows, cols)


# ---------------------------------------------------------------------------
# Fiat-Shamir challenge streams

def derive_challenge1(suite, h1, ext, n, tau):
    """(gamma, eps) over GF(q^m) from h1: every round's gamma_1..gamma_n as
    one (tau, n, m) array and its eps as one (tau, m) array.

    The stream holds the rounds in order, each its n*m gamma coordinates
    and then its m eps coordinates, drawn with one ``take_joined``.
    """
    m = ext.m
    rounds = FieldSampler(ext.base, suite.xof(X_CH1, h1)).take_joined(
        (n * m, m) * tau).reshape(tau, (n + 1) * m)
    return rounds[:, :n * m].reshape(tau, n, m), rounds[:, n * m:]


def derive_challenge2_additive(suite, h2, n_parties, tau):
    """One hidden leaf index in [1, N] per round; N must be a power of two."""
    if n_parties & (n_parties - 1):
        raise ValueError("additive challenge needs N a power of two")
    stream = suite.xof(X_CH2, h2)
    nbytes = max(1, (n_parties - 1).bit_length() + 7 >> 3)
    out = []
    for _ in range(tau):
        v = int.from_bytes(stream.read(nbytes), "little") & (n_parties - 1)
        out.append(v + 1)
    return out


def derive_challenge2_threshold(suite, h2, n_parties, ell, tau):
    """Per round, a sorted ell-subset of [1, N], duplicates rejected.

    Bytes are read 64 at first, then doubling: the stream's own squeezes.
    """
    if n_parties > 255:
        raise ValueError("party indices larger than a byte are not supported")
    stream = suite.xof(X_CH2, h2)
    thresh = (256 // n_parties) * n_parties
    buf, pos = stream.read(64), 0
    out = []
    for _ in range(tau):
        chosen = set()
        while len(chosen) < ell:
            if pos == len(buf):
                buf += stream.read(len(buf))
            b = buf[pos]
            pos += 1
            if b < thresh:
                chosen.add(b % n_parties + 1)
        out.append(tuple(sorted(chosen)))
    return out
