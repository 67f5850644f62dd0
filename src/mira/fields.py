"""Finite field arithmetic for GF(q) and its extensions GF(q^m).

Elements of the base field are represented as plain integers 0..q-1 held in
numpy uint8 arrays; all operations accept and return arrays (broadcasting),
so bulk protocol data never needs per-element Python objects.  An element of
GF(q^m) is a length-m coefficient vector over GF(q) in ascending basis order
(index t is the coefficient of X^t); batches are arrays of shape (..., m).

Two base field flavours are provided, both subclasses of ``ByteField``:

* ``PrimeField(p)``  - integers mod p (p prime, p <= 251 shipped);
* ``Char2Field(d)``  - GF(2^d) with elements encoded as d-bit polynomial
  values over GF(2), its multiplication table read off the ring
  ``ext_field(2, d)``.

``ByteField`` holds what the two share, driven by the subclass's (q, q)
multiplication table: ``mul`` as one gather from a flat (256, 256) table,
``inv`` from the inverse table, and the codec (one byte per element, two
per byte at q = 16).  Each characteristic keeps only what differs:
``add``/``sub``/``neg`` (gathers from (256, 256) tables and a (256,)
vector for p; XOR and a copy for 2^d, where a gather is 10-25x slower),
``axis_sum`` and the matrix products.  Every table has an entry for every
byte pair: byte y stands for y mod q (the low d bits for q = 2^d), so sums
of raw stream bytes (``sharing.leaf_elements``) are defined at q = 2, a
prime field.

``ExtField`` derives all of its arithmetic from one table built with the
field, X^k mod f for k < 2m - 1.  It gives the fixed (m, m*m) map whose one
GEMM turns a batch of b into multiplication matrices (column t = b * X^t);
``mul(a, b)`` is those matrices times a, summed over t, and ``pow``,
``inv``, ``dot`` and q-polynomials build on it.  The Frobenius matrices F_i
(v -> v^(q^i)), i < m, are one read-only stack built with the field: F_1
holds the powers (X^q)^t, and F_i = F_1 F_(i-1); ``frob`` applies one of
them, or several side by side in one product.  ``inv`` needs no
exponentiation (Itoh-Tsujii, from the conjugates).  The modulus test runs
Rabin's test in GF(q)[X]/(f) through the same class, its gcd conditions as
ranks of multiplication matrices (``matrices.rank``).

Extension moduli are fixed deterministically (see ``ext_field``):
the monic irreducible of degree m whose non-leading coefficient vector,
read as a little-endian base-q integer, is minimal.  This reproduces
y^4 + y + 1 for GF(16) and is part of the wire format: all serialized keys
and signatures depend on it.

Matrix products over GF(q) go through ``matmul`` (one (R, K) @ (K, C)
product) or ``matmul3`` (a (T, R, K) @ (T, K, C) stack, right operand
prepared once with ``matmul3_prepare``); both public methods share one
private body per field.

Prime fields multiply in float32 BLAS, exact while K * (q-1)^2 < 2^24
(K <= 268 at q = 251; the largest shipped K is m^2 = 256, in the rank map),
and reduce with a rint and an int16 sign fix-up (see ``PrimeField``).  On a
(250, 4) @ (4, 317) share product that is 0.15 ms against 0.53 ms for the
float64 product with rint / int64 ``%`` passes (one thread of a 2-vCPU
x86-64 host, OpenBLAS).

Characteristic-2 fields pick a path by input:

* table gather - a ``matmul`` of at most 2^18 multiply-adds is one gather
  from the full multiplication table and an XOR reduction;
* bit-sliced GEMM - larger ``matmul`` products and every ``matmul3``
  (the public key's x @ L' among them) lay the left operand's d bit planes
  side by side along K and multiply them, in one float32 BLAS call, by a
  (d*K, W*C) right operand holding y^s * b in row block s, already reduced
  by the modulus.  Each output bit has a lane of bit_length(d*K) bits in
  one of W float32 words, so at d = 4 two lanes share a word while
  d*K <= 4095 (half the bytes and multiply-adds of a word per bit), and
  W = d from 4096 on; the parity of each lane's count is an output bit.
  ``matmul`` runs the ``matmul3`` body without the stack axis (T = 1).
"""

from functools import lru_cache

import numpy as np

from .bitio import pack_nibbles, unpack_nibbles
from .matrices import rank

# float32 holds every integer below this exactly
_F32_EXACT = 1 << 24
# count lanes per float32 word in a GF(2^d) GEMM: with at most 4, lanes sit
# at least 6 bits apart, more than their number, as ``Char2Field._gemm``'s
# multiply needs
_MAX_LANES = 4


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class ByteField:
    """The element-wise tables and the codec of a base field GF(q), q <= 256.

    A subclass passes its (q, q) ``MUL`` table.  ``INV`` holds the b with
    a * b = 1, and ``RESIDUE`` maps each byte y to the element y mod q.
    ``mul`` reads a flat (256, 256) table at ``(a << 8) | b``, one intp
    index per product; its entry is ``MUL[y mod q, z mod q]`` for every byte
    pair, so no input byte reads another pair's entry.
    """

    def __init__(self, q, mul):
        self.q = q
        self.MUL = mul
        self.INV = np.argmax(mul == 1, axis=1).astype(np.uint8)
        self.RESIDUE = (np.arange(256) % q).astype(np.uint8)
        self._mul = mul.take(self.RESIDUE, 0).take(self.RESIDUE, 1).ravel()

    def mul(self, a, b):
        return self._mul.take((np.asarray(a, np.uint8).astype(np.intp) << 8)
                               | np.asarray(b, np.uint8))

    def inv(self, a):
        a = np.asarray(a, np.uint8)
        if np.any(a == 0):
            raise ZeroDivisionError("inversion of zero")
        return self.INV[a]

    # -- byte encoding -----------------------------------------------------

    def pack(self, arr):
        arr = np.asarray(arr, np.uint8).ravel()
        return pack_nibbles(arr) if self.q == 16 else arr.tobytes()

    def pack_rows(self, arr):
        """``[self.pack(row) for row in arr]`` from one pack of the 2-D block."""
        arr = np.asarray(arr, np.uint8)
        if self.q == 16 and arr.shape[1] & 1:
            arr = np.pad(arr, ((0, 0), (0, 1)))   # each row pads its own nibble
        data = self.pack(arr)
        width = len(data) // len(arr) if len(arr) else 0
        return [data[i * width:(i + 1) * width] for i in range(len(arr))]

    def unpack(self, data, count):
        raw = np.frombuffer(data, dtype=np.uint8, count=self.packed_size(count))
        return self.unpack_rows(raw, count)

    def unpack_rows(self, raw, count):
        """(..., count) elements from (..., packed_size(count)) uint8 rows, each
        checked as ``unpack`` checks one block."""
        if self.q != 16:
            if np.any(raw >= self.q):
                raise ValueError("field element out of range")
            return raw.copy()
        if count & 1 and np.any(raw[..., -1] >> 4):
            raise ValueError("nonzero padding nibble")
        return unpack_nibbles(raw)[..., :count]

    def packed_size(self, count):
        return (count + 1) // 2 if self.q == 16 else count


class PrimeField(ByteField):
    """Integers modulo a prime p, elementwise over numpy arrays.

    ``add`` and ``sub`` read flat (256, 256) tables as ``mul`` does, defined
    on every byte pair: ``sharing`` sums raw stream bytes at q = 2.

    Products run in float32: prepared right operands are float32 arrays,
    and ``_gemm`` multiplies chunks of at most (2^24 - 1) // (p-1)^2 inner
    terms, each exact, so one chunk covers every shipped shape.  ``_reduce``
    maps the float32 counts to uint8 residues by ``c - p * rint(c / p)``
    (a residue in (-p, p)), an int16 cast and ``+ p`` on negatives.
    """

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > 256:
            raise ValueError("prime fields larger than a byte are not supported")
        self.char = p
        # residues of all bytes; uint16 holds their sums and products
        res = np.arange(256, dtype=np.uint16) % p
        self._add = ((res[:, None] + res) % p).astype(np.uint8).ravel()
        self._sub = ((res[:, None] + (p - res)) % p).astype(np.uint8).ravel()
        self._neg = ((p - res) % p).astype(np.uint8)
        super().__init__(p, (res[:p, None] * res[:p] % p).astype(np.uint8))

    def add(self, a, b):
        return self._add.take((np.asarray(a, np.uint8).astype(np.intp) << 8)
                               | np.asarray(b, np.uint8))

    def sub(self, a, b):
        return self._sub.take((np.asarray(a, np.uint8).astype(np.intp) << 8)
                               | np.asarray(b, np.uint8))

    def neg(self, a):
        return self._neg.take(np.asarray(a, np.uint8))

    def axis_sum(self, a, axis=0):
        return (np.asarray(a, np.int64).sum(axis=axis) % self.q).astype(np.uint8)

    def matmul(self, a, b):
        """(R, K) @ (K, C)."""
        return self._gemm(a, self.matmul3_prepare(b))

    def matmul3_prepare(self, b3):
        return np.asarray(b3).astype(np.float32)

    def matmul3(self, a3, prepared):
        """(T, R, K) @ (T, K, C) stacked products."""
        return self._gemm(a3, prepared)

    def _gemm(self, a, bf):
        af = np.asarray(a).astype(np.float32)
        step = (_F32_EXACT - 1) // (self.q - 1) ** 2     # largest exact K
        c = np.matmul(af[..., :step], bf[..., :step, :])
        for lo in range(step, af.shape[-1], step):       # longer K: exact chunks
            c = self._fold(c) + self._fold(
                np.matmul(af[..., lo:lo + step], bf[..., lo:lo + step, :]))
        return self._reduce(c)

    def _fold(self, c):
        """Integer-valued float32 c, |c| < 2^24, to a residue in (-q, q), in place."""
        c -= self.q * np.rint(c * (1.0 / self.q))
        return c

    def _reduce(self, c):
        """c mod q as uint8 for integer-valued float32 c, |c| < 2^24."""
        r = self._fold(c).astype(np.int16)
        r += (r >> 15) & self.q
        return r.astype(np.uint8)

    def __repr__(self):
        return f"PrimeField({self.q})"


class Char2Field(ByteField):
    """GF(2^d), d >= 2; addition is XOR, multiplication by a (q, q) table.

    The modulus is ``ext_field(2, d)``'s, the least irreducible y^d + tail
    under the same rule as every extension modulus.
    """

    def __init__(self, d):
        if not 2 <= d <= 8:
            raise ValueError("supported GF(2^d) range is d in [2, 8]")
        q = 1 << d
        self.d = d
        self.char = 2
        ring = ext_field(2, d)
        self.modulus_bits = int(ring.modulus @ (1 << np.arange(d + 1)))
        # column s of v's multiplication matrix in the ring is y^s * v, so
        # u * v is the XOR of those columns at u's set bits, one bit at a time
        bits = (np.arange(q)[:, None] >> np.arange(d)) & 1
        ysv = ring.mul_matrices(bits).transpose(0, 2, 1) @ (1 << np.arange(d))   # [v, s]
        mul = np.zeros((q, q), np.uint8)
        for s in range(d):
            mul[1 << s:2 << s] = mul[:1 << s] ^ ysv[:, s].astype(np.uint8)
        super().__init__(q, mul)
        # the GEMM's right-operand entries for every word count (see
        # ``_word_count``), gathered by ``matmul3_prepare``
        self._word_tables = {words: self._lane_words(words) for words in
                             {-(-d // per) for per in range(1, min(d, _MAX_LANES) + 1)}}

    def _word_count(self, inner):
        """float32 words per output element of a product with inner size K.

        Each lane counts at most d*K bit products, so it needs
        bit_length(d*K) bits; 24 // that many lanes (at most ``_MAX_LANES``)
        share a word, whose value then stays below 2^24.
        """
        assert self.d * inner < _F32_EXACT
        width = (self.d * inner).bit_length() or 1
        per_word = min(self.d, _MAX_LANES, 24 // width)
        return -(-self.d // per_word)

    def _lanes(self, words):
        """(lanes, spacing): output bits per word and the distance between them."""
        lanes = -(-self.d // words)
        return lanes, 24 // lanes

    def _lane_words(self, words):
        """(d, q) operand entries of ``words`` float32 words, one void item each.

        Word j of entry [s, v] holds 2^(l * spacing) for each set bit
        j*lanes + l of y^s * v.
        """
        d, q = self.d, self.q
        lanes, spacing = self._lanes(words)
        ysv = self.MUL[1 << np.arange(d)].astype(np.int64)        # (d, q)
        table = np.zeros((d, q, words), np.int64)
        for u in range(d):
            j, lane = divmod(u, lanes)
            table[:, :, j] |= ((ysv >> u) & 1) << (lane * spacing)
        table = np.ascontiguousarray(table.astype(np.float32))
        return table.view(np.dtype((np.void, 4 * words))).reshape(d, q)

    def add(self, a, b):
        return np.bitwise_xor(np.asarray(a, np.uint8), np.asarray(b, np.uint8))

    sub = add

    def neg(self, a):
        """-a = a in characteristic 2: a copy, 20x faster than a gather."""
        return np.array(a, np.uint8)

    def axis_sum(self, a, axis=0):
        return np.bitwise_xor.reduce(np.asarray(a, np.uint8), axis=axis)

    # -- matrix product ----------------------------------------------------

    def matmul(self, a, b):
        """(R, K) @ (K, C): table gather when small, else the sliced GEMM."""
        a = np.asarray(a, np.uint8)
        b = np.asarray(b, np.uint8)
        if a.shape[0] * a.shape[1] * b.shape[1] <= (1 << 18):
            return np.bitwise_xor.reduce(
                self._mul.take((a[:, :, None].astype(np.intp) << 8) | b), axis=1)
        return self._gemm(a, self.matmul3_prepare(b))

    def matmul3_prepare(self, b3):
        """Right operand(s) (..., K, C) as float32 (..., d*K, W*C) lane words, and C.

        Row s*K + k, columns c*W .. c*W + W - 1 hold the W = ``_word_count(K)``
        words of y^s * b[k, c], gathered per s from the field's tables.
        """
        b3 = np.asarray(b3, np.uint8)
        inner, cols = b3.shape[-2:]
        words = self._word_count(inner)
        table = self._word_tables[words]
        idx = b3.astype(np.intp)
        bp = np.empty(b3.shape[:-2] + (self.d,) + b3.shape[-2:], table.dtype)
        for s in range(self.d):
            np.take(table[s], idx, out=bp[..., s, :, :])
        return bp.view(np.float32).reshape(b3.shape[:-2] + (self.d * inner, words * cols)), cols

    def matmul3(self, a3, prepared):
        """(T, R, K) @ (T, K, C) stacked products via bit-sliced parity GEMMs."""
        return self._gemm(a3, prepared)

    def _gemm(self, a, prepared):
        # (..., R, K) @ prepared: the d bit planes of a side by side along K,
        # one float32 GEMM giving every lane's count, the parity of each
        # lane moved to its output bit
        bp, cols = prepared
        a = np.asarray(a, np.uint8)
        lead, (rows, inner) = a.shape[:-2], a.shape[-2:]
        d = self.d
        words = self._word_count(inner)
        lanes, spacing = self._lanes(words)
        ap = np.empty(lead + (rows, d * inner), dtype=np.float32)
        for s in range(d):
            ap[..., s * inner:(s + 1) * inner] = (a >> s) & 1
        # keep the parity bit of every lane, then one multiply moves the bit
        # of lane l from l*spacing to shift + l; its partial products land on
        # distinct bits (spacing > lanes), so nothing carries
        counts = np.matmul(ap, bp).astype(np.int32).view(np.uint32)
        counts &= sum(1 << (lane * spacing) for lane in range(lanes))
        shift = (lanes - 1) * (spacing - 1)
        counts *= sum(1 << (shift + lane - lane * spacing) for lane in range(lanes))
        counts >>= shift
        bits = counts.astype(np.uint8).reshape(lead + (rows, cols, words))
        bits &= (1 << lanes) - 1
        out = bits[..., 0]
        for j in range(1, words):
            out = out | (bits[..., j] << (j * lanes))
        return np.ascontiguousarray(out)

    def __repr__(self):
        return f"Char2Field(2^{self.d})"


class Gf2Table:
    """Right-multiplication by a fixed GF(2) matrix via nibble-indexed XOR tables.

    Builds, for every 4-bit chunk of the input vector, a 16-entry table of
    partial output rows; applying the map is one table gather and XOR per
    chunk, 8x smaller than a byte-indexed table (16 rows per 4 input bits
    against 256 per 8).  Not on the signing path since x @ L' became a
    ``matmul3`` (``mpc.PkOperand``); perfbench's tracer still wraps this
    class by name, and it goes when that target table drops it.
    """

    def __init__(self, mbits):
        rows, cols = mbits.shape
        self.chunks = (rows + 7) // 8
        self.out_bytes = (cols + 7) // 8
        padded = np.zeros((self.chunks * 8, cols), np.uint8)
        padded[:rows] = mbits
        packed = np.packbits(padded, axis=1)          # (chunks*8, out_bytes)
        packed = packed.reshape(2 * self.chunks, 4, self.out_bytes)
        table = np.zeros((2 * self.chunks, 16, self.out_bytes), np.uint8)
        for i in range(4):
            step = 1 << i
            # numeric bit i of a nibble selects packed row 3-i of its chunk
            # (packbits is big-endian within a byte: high nibble first)
            table[:, step:2 * step] = table[:, :step] ^ packed[:, 3 - i, None, :]
        self.table = table

    def apply_packed(self, xbytes):
        """(R, chunks) packed input bits -> (R, out_bytes) packed output."""
        nibbles = np.empty((2 * self.chunks, xbytes.shape[0]), np.uint8)
        np.right_shift(xbytes.T, 4, out=nibbles[0::2])
        np.bitwise_and(xbytes.T, 15, out=nibbles[1::2])
        out = np.zeros((xbytes.shape[0], self.out_bytes), np.uint8)
        for t, idx in zip(self.table, nibbles):
            out ^= t[idx]
        return out


@lru_cache(maxsize=None)
def base_field(q):
    if q == 16:
        f = Char2Field(4)
        # fixed wire-format modulus for GF(16)
        assert f.modulus_bits == 0b10011
        return f
    if _is_prime(q):
        return PrimeField(q)
    d = q.bit_length() - 1
    if q == 1 << d:
        return Char2Field(d)
    raise ValueError(f"unsupported field order {q}")


def _ext_irreducible(base, coeffs):
    """Rabin's test: the field GF(q)[X]/(f) if the monic ``coeffs`` (len m+1)
    is irreducible over ``base``, else None.

    f of degree m is irreducible iff X^(q^m) = X mod f and
    gcd(X^(q^(m/t)) - X, f) = 1 for every prime t | m.  The powers come from
    the Frobenius stack of the ring GF(q)[X]/(f), whose F_i is the q^i-power
    map for every i < m whether or not f is irreducible.  g is coprime to f
    exactly when multiplying by g is invertible on the ring, so each gcd is
    the rank of g's multiplication matrix.
    """
    m = len(coeffs) - 1
    ring = ExtField(base, m, coeffs)
    x = ring.gen()
    # X^(q^m) as F_1 F_(m-1) X: frob_matrix(m) wraps to the identity
    if not np.array_equal(ring.frob(ring.frob(x, m - 1), 1), x):
        return None
    for t in (p for p in range(2, m + 1) if m % p == 0 and _is_prime(p)):
        diff = ring.sub(ring.frob(x, m // t), x)       # X^(q^(m/t)) - X
        if rank(base, ring.mul_matrices(diff[None])[0]) != m:
            return None
    return ring


# Precomputed canonical tail values (c_0..c_{m-1} read little-endian base q)
# for the shipped fields.  The search in ``ext_field`` starts at these, which
# only skips the scan; a test checks that no smaller tail is irreducible.
_KNOWN_TAILS = {
    (16, 16): 4227,   # X^16 + 1*X^3 + 8*X + 3
    (16, 19): 265,    # X^19 + X^2 + 9
    (16, 22): 585,    # X^22 + 2*X^2 + 4*X + 9
    (16, 23): 533,    # X^23 + 2*X^2 + X + 5
    (251, 12): 258,   # X^12 + X + 7
    (251, 16): 754,   # X^16 + 3*X + 1
}


class ExtField:
    """GF(q^m) as coefficient vectors over a base field, batched over numpy."""

    def __init__(self, base, m, modulus):
        self.base = base
        self.m = m
        self.q = base.q
        self.modulus = np.asarray(modulus, np.uint8)
        assert len(self.modulus) == m + 1 and self.modulus[m] == 1
        # powers[k] = coeffs of X^k mod modulus; X^(k+1) = X^k @ (rows X^1..X^m)
        powers = np.zeros((2 * m - 1, m), np.uint8)
        powers[:m] = np.eye(m, dtype=np.uint8)
        if m > 1:
            powers[m] = base.neg(self.modulus[:m])
        for k in range(m, 2 * m - 2):
            powers[k + 1] = base.matmul(powers[k:k + 1], powers[1:m + 1])[0]
        # (m, m*m) map u -> (v, t): coefficient v of X^(u+t) mod modulus, so
        # a @ map holds the coefficients of a * X^t; prepared once per field
        xut = powers[np.arange(m)[:, None] + np.arange(m)[None, :]]   # [u, t, v]
        self._mul_map = base.matmul3_prepare(
            np.ascontiguousarray(xut.transpose(0, 2, 1)).reshape(m, m * m))
        # F_0 = I; F_1 has columns (X^q)^t; F_i = F_1 F_(i-1)
        stack = np.empty((m, m, m), np.uint8)
        stack[0] = np.eye(m, dtype=np.uint8)
        if m > 1:
            cols = [self.one()]
            xq = self.pow(self.gen(), self.q)
            for _ in range(m - 1):
                cols.append(self.mul(cols[-1], xq))
            stack[1] = np.stack(cols, axis=1)
            for i in range(2, m):
                stack[i] = base.matmul(stack[1], stack[i - 1])
        stack.flags.writeable = False
        self._frob_stack = stack

    # -- element helpers ----------------------------------------------------

    def zero(self, *lead):
        return np.zeros(lead + (self.m,), np.uint8)

    def one(self, *lead):
        z = self.zero(*lead)
        z[..., 0] = 1
        return z

    def gen(self):
        z = self.zero()
        if self.m > 1:
            z[1] = 1
        return z

    def add(self, a, b):
        return self.base.add(a, b)

    def sub(self, a, b):
        return self.base.sub(a, b)

    def neg(self, a):
        return self.base.neg(a)

    def is_zero(self, a):
        return not np.any(np.asarray(a) != 0)

    def mul(self, a, b):
        """a * b for broadcastable (..., m) stacks: b's multiplication matrices times a."""
        a = np.asarray(a, np.uint8)
        b = np.asarray(b, np.uint8)
        mats = self.mul_matrices(b.reshape(-1, self.m)).reshape(b.shape + (self.m,))
        return self.base.axis_sum(self.base.mul(mats, a[..., None, :]), -1)

    def pow(self, a, e):
        e = int(e)
        out = self.one()
        sq = np.asarray(a, np.uint8).copy()
        while e:
            if e & 1:
                out = self.mul(out, sq)
            e >>= 1
            if e:
                sq = self.mul(sq, sq)
        return out

    def inv(self, a):
        """Itoh-Tsujii: a^(-1) = N(a)^(-1) a^(q + ... + q^(m-1)), the conjugates
        a^(q^i) from one ``frob`` multiplied by a pairwise tree, and the norm
        N(a) in GF(q) inverted there (ZeroDivisionError for a zero element)."""
        a = np.asarray(a, np.uint8)
        conj = self.frob(a, range(1, self.m))
        while len(conj) > 1:
            half = len(conj) // 2
            conj = np.concatenate([self.mul(conj[:half], conj[half:2 * half]),
                                   conj[2 * half:]])
        norm = self.mul(a, conj[0])[..., 0]
        return self.base.mul(conj[0], self.base.inv(norm)[..., None])

    def dot(self, a, b, axis=-2):
        """Sum of elementwise field products along ``axis`` of (..., m) stacks."""
        prods = self.mul(a, b)
        return self.base.axis_sum(prods, axis=axis)

    # -- Frobenius and multiplication matrices ------------------------------

    def frob_matrix(self, i):
        """Read-only F_i with F_i @ v = coeffs(v^(q^i)).

        i is taken mod m, which holds because v^(q^m) = v when the modulus is
        irreducible; in a ring with a reducible modulus only i < m is valid.
        """
        return self._frob_stack[int(i) % self.m]

    def frob(self, a, i=1):
        """a^(q^i) for a of shape (..., m).

        A sequence of exponents gives (len(i),) + a.shape, every power from
        one product with the matrices F_i side by side.
        """
        a = np.asarray(a, np.uint8)
        m = self.m
        idx = np.asarray(i, np.int64) % m
        cols = self._frob_stack[idx.ravel()].transpose(2, 0, 1).reshape(m, -1)
        rows = a.size // m
        out = self.base.matmul(a.reshape(rows, m), cols).reshape(rows, idx.size, m)
        return out.swapaxes(0, 1).reshape(idx.shape + a.shape)

    def mul_matrices(self, us):
        """(B, m) elements -> (B, m, m) multiplication matrices, one GEMM."""
        us = np.asarray(us, np.uint8)
        m = self.m
        return self.base.matmul3(us, self._mul_map).reshape(us.shape[0], m, m)

    def __repr__(self):
        return f"ExtField({self.base!r}^{self.m})"


@lru_cache(maxsize=None)
def ext_field(q, m):
    """GF(q^m) under the canonical modulus: the monic irreducible of degree m
    with minimal little-endian tail value, as the ring that passed Rabin's test.

    For m >= 2 a candidate with a root in GF(q), f(0) = 0 included, is
    reducible; it is skipped before its ring is built, by evaluating it at
    every x with the (q, m+1) table of powers x^i.
    """
    base = base_field(q)
    powers = np.ones((q, m + 1), np.uint8)
    for i in range(1, m + 1):
        powers[:, i] = base.mul(powers[:, i - 1], np.arange(q))
    for val in range(_KNOWN_TAILS.get((q, m), 1), q ** m):
        coeffs = np.array([val // q ** i % q for i in range(m)] + [1], np.uint8)
        if m > 1 and not base.matmul(powers, coeffs[:, None]).all():
            continue
        field = _ext_irreducible(base, coeffs)
        if field is not None:
            return field
    raise ValueError("no irreducible found")  # pragma: no cover
