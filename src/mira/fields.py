"""Finite field arithmetic for GF(q) and its extensions GF(q^m).

Elements of the base field are represented as plain integers 0..q-1 held in
numpy uint8 arrays; all operations accept and return arrays (broadcasting),
so bulk protocol data never needs per-element Python objects.  An element of
GF(q^m) is a length-m coefficient vector over GF(q) in ascending basis order
(index t is the coefficient of X^t); batches are arrays of shape (..., m).

Two base field flavours are provided:

* ``PrimeField(p)``  - integers mod p (p prime, p <= 251 shipped);
* ``Char2Field(d)``  - GF(2^d) with elements encoded as d-bit polynomial
  values over GF(2) and multiplication via log/antilog tables.

``ExtField`` derives all of its arithmetic from one table built with the
field, X^k mod f for k < 2m - 1.  It gives the fixed (m, m*m) map whose one
GEMM turns a batch of b into multiplication matrices (column t = b * X^t);
``mul(a, b)`` is those matrices times a, summed over t, and ``pow``,
``inv``, ``dot`` and q-polynomials build on it.  The Frobenius matrices F_i
(v -> v^(q^i)), i < m, are one read-only stack built with the field: F_1
holds the powers (X^q)^t, and F_i = F_1 F_(i-1).  The modulus test runs
Rabin's test in GF(q)[X]/(f) through the same class.

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

* table gather - a product of at most 2^18 multiply-adds is one gather
  from the full multiplication table and an XOR reduction;
* bit-sliced GEMM - larger products lay the left operand's d bit planes
  side by side along K and multiply them, in one float32 BLAS call, by a
  (d*K, d*C) right operand whose row block s holds the bit planes of
  y^s * b, already reduced by the modulus; the parity of each count is an
  output bit, and the d output planes shift into place; ``matmul`` runs
  the ``matmul3`` body without the stack axis, as its T = 1 case;
* ``Gf2Table`` - the public-key operand x @ L, a fixed GF(2) map applied
  to every party's share, is a byte-indexed XOR table built once per key.
  On the share-of-E shapes it beats the bit-sliced GEMM: 3.1-3.4 against
  8.5-8.7 ms on the 306 rows of an additive level-5 verify and 3.7-4.5
  against 9.7-9.9 ms on the 340 rows of a sign (one thread of a 2-vCPU
  x86-64 host, OpenBLAS, medians of 21 in two runs).
"""

from functools import lru_cache

import numpy as np

from .bitio import pack_nibbles, unpack_nibbles

# float32 holds every integer below this exactly
_F32_EXACT = 1 << 24


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# GF(2)[y] bit-polynomial helpers (used only to build Char2Field tables)

def _bitpoly_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _bitpoly_mod(a, mod):
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _bitpoly_irreducible(mod):
    deg = mod.bit_length() - 1
    if deg < 1 or not mod & 1:
        return False
    for d in range(1, deg // 2 + 1):
        for low in range(1 << d):
            div = (1 << d) | low
            if _bitpoly_mod(mod, div) == 0:
                return False
    return True


def _char2_modulus(d):
    """Lexicographically least irreducible y^d + tail over GF(2)."""
    for tail in range(1, 1 << d):
        mod = (1 << d) | tail
        if _bitpoly_irreducible(mod):
            return mod
    raise ValueError(f"no irreducible of degree {d}")


def _split_rows(data, rows):
    """Cut ``data`` into ``rows`` equal consecutive pieces."""
    width = len(data) // rows if rows else 0
    return [data[i * width:(i + 1) * width] for i in range(rows)]


class PrimeField:
    """Integers modulo a prime p, elementwise over numpy arrays.

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
        self.q = p
        self.char = p
        inv = np.zeros(p, dtype=np.uint8)
        for a in range(1, p):
            inv[a] = pow(a, p - 2, p)
        self._inv = inv

    def add(self, a, b):
        return ((np.asarray(a, np.int64) + np.asarray(b, np.int64)) % self.q).astype(np.uint8)

    def sub(self, a, b):
        return ((np.asarray(a, np.int64) - np.asarray(b, np.int64)) % self.q).astype(np.uint8)

    def neg(self, a):
        return ((-np.asarray(a, np.int64)) % self.q).astype(np.uint8)

    def mul(self, a, b):
        return ((np.asarray(a, np.int64) * np.asarray(b, np.int64)) % self.q).astype(np.uint8)

    def inv(self, a):
        a = np.asarray(a, np.uint8)
        if np.any(a == 0):
            raise ZeroDivisionError("inversion of zero")
        return self._inv[a]

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

    def pack(self, arr):
        return np.ascontiguousarray(np.asarray(arr, np.uint8).ravel()).tobytes()

    def pack_rows(self, arr):
        """``[self.pack(row) for row in arr]`` from one pack of the 2-D block."""
        return _split_rows(self.pack(arr), len(arr))

    def unpack(self, data, count):
        arr = np.frombuffer(data, dtype=np.uint8, count=count)
        if np.any(arr >= self.q):
            raise ValueError("field element out of range")
        return arr.copy()

    def packed_size(self, count):
        return count

    def __repr__(self):
        return f"PrimeField({self.q})"


class Char2Field:
    """GF(2^d), d >= 2; addition is XOR, multiplication by antilog tables."""

    def __init__(self, d):
        if not 2 <= d <= 8:
            raise ValueError("supported GF(2^d) range is d in [2, 8]")
        self.q = 1 << d
        self.d = d
        self.char = 2
        self.modulus_bits = _char2_modulus(d)
        self._build_tables()

    def _build_tables(self):
        q, mod = self.q, self.modulus_bits

        def clmul(a, b):
            return _bitpoly_mod(_bitpoly_mul(a, b), mod)

        # find a generator, then log/antilog tables
        gen = None
        for g in range(2, q):
            x, order = 1, 0
            seen = set()
            while True:
                x = clmul(x, g)
                order += 1
                if x == 1:
                    break
                if x in seen:  # pragma: no cover - cannot happen in a field
                    break
                seen.add(x)
            if order == q - 1:
                gen = g
                break
        assert gen is not None
        exp = np.zeros(2 * (q - 1), dtype=np.uint8)
        log = np.zeros(q, dtype=np.int32)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = clmul(x, gen)
        exp[q - 1:] = exp[:q - 1]
        mul = np.zeros((q, q), dtype=np.uint8)
        nz = np.arange(1, q)
        mul[1:, 1:] = exp[(log[nz][:, None] + log[nz][None, :]) % (q - 1)]
        inv = np.zeros(q, dtype=np.uint8)
        inv[1:] = exp[(q - 1 - log[nz]) % (q - 1)]
        self.EXP, self.LOG, self.MUL, self.INV = exp, log, mul, inv

    def add(self, a, b):
        return np.bitwise_xor(np.asarray(a, np.uint8), np.asarray(b, np.uint8))

    sub = add

    def neg(self, a):
        return np.asarray(a, np.uint8).copy()

    def mul(self, a, b):
        return self.MUL[np.asarray(a, np.uint8), np.asarray(b, np.uint8)]

    def inv(self, a):
        a = np.asarray(a, np.uint8)
        if np.any(a == 0):
            raise ZeroDivisionError("inversion of zero")
        return self.INV[a]

    def axis_sum(self, a, axis=0):
        return np.bitwise_xor.reduce(np.asarray(a, np.uint8), axis=axis)

    # -- matrix product ----------------------------------------------------

    def matmul(self, a, b):
        """(R, K) @ (K, C): table gather when small, else the sliced GEMM."""
        a = np.asarray(a, np.uint8)
        b = np.asarray(b, np.uint8)
        if a.shape[0] * a.shape[1] * b.shape[1] <= (1 << 18):
            return np.bitwise_xor.reduce(self.MUL[a[:, :, None], b[None, :, :]], axis=1)
        return self._gemm(a, self.matmul3_prepare(b))

    def matmul3_prepare(self, b3):
        """Right operand(s) (..., K, C) as (..., d*K, d*C) bit planes, and C.

        Row block s, column block u holds bit u of y^s * b: the reduction
        modulo the field polynomial is built into the operand.
        """
        b3 = np.asarray(b3, np.uint8)
        inner, cols = b3.shape[-2:]
        d = self.d
        bp = np.empty(b3.shape[:-2] + (d * inner, d * cols), dtype=np.float32)
        for s in range(d):
            ysb = self.MUL[1 << s][b3]
            for u in range(d):
                bp[..., s * inner:(s + 1) * inner, u * cols:(u + 1) * cols] = (ysb >> u) & 1
        return bp, cols

    def matmul3(self, a3, prepared):
        """(T, R, K) @ (T, K, C) stacked products via bit-sliced parity GEMMs."""
        return self._gemm(a3, prepared)

    def _gemm(self, a, prepared):
        # (..., R, K) @ prepared: the d bit planes of a side by side along K,
        # one float32 GEMM, parity of the counts, output planes shifted in
        bp, cols = prepared
        a = np.asarray(a, np.uint8)
        lead, (rows, inner) = a.shape[:-2], a.shape[-2:]
        d = self.d
        assert d * inner < (1 << 15)
        ap = np.empty(lead + (rows, d * inner), dtype=np.float32)
        for s in range(d):
            ap[..., s * inner:(s + 1) * inner] = (a >> s) & 1
        prod = np.matmul(ap, bp).astype(np.int16)
        prod &= 1
        prod = prod.astype(np.uint8)
        out = prod[..., :cols].copy()
        for u in range(1, d):
            out |= prod[..., u * cols:(u + 1) * cols] << u
        return out

    # -- byte encoding -----------------------------------------------------

    def pack(self, arr):
        arr = np.asarray(arr, np.uint8).ravel()
        if self.q != 16:
            return arr.tobytes()
        return pack_nibbles(arr)

    def pack_rows(self, arr):
        """``[self.pack(row) for row in arr]`` from one pack of the 2-D block."""
        arr = np.asarray(arr, np.uint8)
        if self.q == 16 and arr.shape[1] & 1:
            arr = np.pad(arr, ((0, 0), (0, 1)))   # each row pads its own nibble
        return _split_rows(self.pack(arr), len(arr))

    def unpack(self, data, count):
        if self.q != 16:
            arr = np.frombuffer(data, dtype=np.uint8, count=count)
            if np.any(arr >= self.q):
                raise ValueError("field element out of range")
            return arr.copy()
        raw = np.frombuffer(data, dtype=np.uint8, count=(count + 1) // 2)
        if count & 1 and raw[-1] >> 4:
            raise ValueError("nonzero padding nibble")
        return unpack_nibbles(raw)[:count]

    def packed_size(self, count):
        return (count + 1) // 2 if self.q == 16 else count

    def __repr__(self):
        return f"Char2Field(2^{self.d})"


class Gf2Table:
    """Right-multiplication by a fixed GF(2) matrix via byte-indexed XOR tables.

    Builds, for every 8-bit chunk of the input vector, a 256-entry table of
    partial output rows; applying the map is one table gather and XOR per
    chunk.  Used for the large fixed operands (public key matrices).
    """

    def __init__(self, mbits):
        rows, cols = mbits.shape
        self.in_bits = rows
        self.out_bits = cols
        self.chunks = (rows + 7) // 8
        self.out_bytes = (cols + 7) // 8
        padded = np.zeros((self.chunks * 8, cols), np.uint8)
        padded[:rows] = mbits
        packed = np.packbits(padded, axis=1)          # (chunks*8, out_bytes)
        packed = packed.reshape(self.chunks, 8, self.out_bytes)
        table = np.zeros((self.chunks, 256, self.out_bytes), np.uint8)
        for i in range(8):
            step = 1 << i
            # numeric bit i of the chunk byte selects packed row 7-i (packbits
            # is big-endian within a byte)
            table[:, step:2 * step] = table[:, :step] ^ packed[:, 7 - i, None, :]
        self.table = table

    def apply_packed(self, xbytes):
        """(R, chunks) packed input bits -> (R, out_bytes) packed output."""
        out = np.zeros((xbytes.shape[0], self.out_bytes), np.uint8)
        t = self.table
        for c in range(self.chunks):
            out ^= t[c, xbytes[:, c]]
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


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary base field (setup-time only)

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_gcd_deg(base, a, b):
    """Degree of gcd(a, b) for ascending coefficient vectors."""
    a, b = _poly_trim(a.copy()), _poly_trim(b.copy())
    while len(b):
        if len(a) < len(b):
            a, b = b, a
            continue
        lead = base.mul(a[-1], base.inv(b[-1]))
        shift = len(a) - len(b)
        a[shift:] = base.sub(a[shift:], base.mul(lead, b))
        a = _poly_trim(a)
    return len(a) - 1


def _ext_irreducible(base, coeffs):
    """Rabin's test: the field GF(q)[X]/(f) if the monic ``coeffs`` (len m+1)
    is irreducible over ``base``, else None.

    f of degree m is irreducible iff X^(q^m) = X mod f and
    gcd(X^(q^(m/t)) - X, f) = 1 for every prime t | m.  The powers come from
    the Frobenius stack of the ring GF(q)[X]/(f), whose F_i is the q^i-power
    map for every i < m whether or not f is irreducible.
    """
    m = len(coeffs) - 1
    ring = ExtField(base, m, coeffs)
    x = ring.gen()
    # X^(q^m) as F_1 F_(m-1) X: frob_matrix(m) wraps to the identity
    if not np.array_equal(ring.frob(ring.frob(x, m - 1), 1), x):
        return None
    for t in (p for p in range(2, m + 1) if m % p == 0 and _is_prime(p)):
        diff = ring.sub(ring.frob(x, m // t), x)       # X^(q^(m/t)) - X
        if not diff.any() or _poly_gcd_deg(base, coeffs, diff) != 0:
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
        if self.is_zero(a):
            raise ZeroDivisionError("inversion of zero")
        return self.pow(a, self.q ** self.m - 2)

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
        """a^(q^i) for a of shape (..., m)."""
        a = np.asarray(a, np.uint8)
        fi = self.frob_matrix(i)
        shp = a.shape
        return self.base.matmul(a.reshape(-1, self.m), fi.T).reshape(shp)

    def mul_matrices(self, us):
        """(B, m) elements -> (B, m, m) multiplication matrices, one GEMM."""
        us = np.asarray(us, np.uint8)
        m = self.m
        return self.base.matmul3(us, self._mul_map).reshape(us.shape[0], m, m)

    def pack(self, arr):
        return self.base.pack(arr)

    def unpack(self, data, count):
        flat = self.base.unpack(data, count * self.m)
        return flat.reshape(count, self.m)

    def __repr__(self):
        return f"ExtField({self.base!r}^{self.m})"


@lru_cache(maxsize=None)
def ext_field(q, m):
    """GF(q^m) under the canonical modulus: the monic irreducible of degree m
    with minimal little-endian tail value, as the ring that passed Rabin's test."""
    base = base_field(q)
    for val in range(_KNOWN_TAILS.get((q, m), 1), q ** m):
        field = _ext_irreducible(base, np.array([val // q ** i % q for i in range(m)] + [1],
                                                np.uint8))
        if field is not None:
            return field
    raise ValueError("no irreducible found")  # pragma: no cover
