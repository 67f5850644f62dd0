"""Additive sharing with hypercube aggregation, and Shamir sharing.

A party's share of the MPC input tuple (x, beta, a, c) is one flat
coordinate row of length T = k + r*m + r*m + m over GF(q), in that
component order; a sharing is the (N, T) stack of rows, and
``plain_rows`` lays out the plaintext tuple the same way.  The same layout
is the serialized party state, so commitment payloads are just row slices,
and the rank check (``mpc.ChallengeBatch``) takes the rows as they are.

Additive sharings derive leaves 1..N-1 from their tree seeds and leaf N
carries explicit corrections making every component column sum to its
secret.  The hypercube identifies leaf i with the base-2 coordinate vector
of i-1 (least significant bit = dimension 1, bit b = side b+1); the main
party (k, j) is the sum of the leaves on side j of dimension k.  A round's
leaf rows stay as their streams' bytes (``expand_leaf_shares``): in GF(16)
two elements per byte, and adding is XOR on the packed bytes as on the
elements.  Every sum of a round runs on those raw rows, and only the rows
the rank check reads are unpacked by ``leaf_elements``: the D side-1 main
parties and one row sum per round, and the hidden leaf's row.

Both signers compute the aux value c = -<a, beta> through ``beta_map``, the
(r*m, m) matrix of beta's multiplications, built once per signature: c of
all rounds is then one GF(q) product (``additive_share`` in the additive
signer).

Shamir sharing evaluates an independent random degree-l polynomial per
coordinate at the public points e_i = i, which caps N at q - 1.  Both
directions take a leading round axis: ``shamir_share`` builds the
Vandermonde matrix once for all rounds, and ``shamir_expand`` takes the
Lagrange weights of one point set per round (``lagrange_weights`` computes
them for any number of point sets at once) and evaluates every round's
polynomials with one stacked field GEMM.
"""

from dataclasses import dataclass

import numpy as np

from .bitio import unpack_nibbles
from .hashing import X_LEAF, FieldSampler, encode_u16


@dataclass(frozen=True)
class ShareDims:
    k: int
    r: int
    m: int

    @property
    def total(self):
        return self.k + 2 * self.r * self.m + self.m

    def split(self, flat):
        """Views of a (..., T) array as (x, beta, a, c) component blocks."""
        k, rm = self.k, self.r * self.m
        lead = flat.shape[:-1]
        x = flat[..., :k]
        beta = flat[..., k:k + rm].reshape(lead + (self.r, self.m))
        a = flat[..., k + rm:k + 2 * rm].reshape(lead + (self.r, self.m))
        c = flat[..., k + 2 * rm:]
        return x, beta, a, c


def plain_rows(x, beta, a, c):
    """(..., T) state rows of x (..., k), beta and a (..., r, m) and c (..., m).

    Leading axes broadcast, so one key's (x, beta) against a stack of
    per-round (a, c) gives every round's plaintext row.
    """
    x, beta, a, c = (np.asarray(v, np.uint8) for v in (x, beta, a, c))
    parts = [x, beta.reshape(beta.shape[:-2] + (-1,)), a.reshape(a.shape[:-2] + (-1,)), c]
    lead = np.broadcast_shapes(*(v.shape[:-1] for v in parts))
    return np.concatenate([np.broadcast_to(v, lead + v.shape[-1:]) for v in parts], axis=-1)


def leaf_elements(field, rows, count):
    """The first ``count`` elements of each raw leaf row, or raw row sum.

    GF(16) rows are stream bytes of two elements each (low nibble first),
    other powers of two stream bytes whose low bits are the element, and
    odd prime fields keep elements.  For every power of two sums run on raw
    rows: in GF(2^d) ``field.add`` on raw bytes is XOR, and q = 2 is a prime
    field whose add/sub tables are defined on all byte pairs (mod 2: the
    same low bit as XOR); the pad nibble of an odd-length GF(16) row is
    dropped here.
    """
    q = field.q
    if q == 16:
        return unpack_nibbles(rows[..., :(count + 1) // 2])[..., :count]
    if q & (q - 1) == 0:
        return rows[..., :count] & np.uint8(q - 1)
    return rows[..., :count]


def expand_leaf_shares(suite, salt, e, suffixes, dims, field):
    """One round's leaf rows, as the leaf streams give them.

    ``suffixes`` are the N leaves' ``party_suffixes`` of their seeds, None
    for a hidden leaf.  Returns (rows, a_n).  rows (N, W), W =
    ``field.packed_size(T)``, holds leaves 1..N-1 in the raw form
    ``leaf_elements`` reads, zero for a hidden leaf and for leaf N.  Leaf
    N's stream draws only its ``a`` block, returned as (r, m) elements in
    a_n (None when leaf N is hidden): the rest of its row is corrections.
    """
    n, t = len(suffixes), dims.total
    r, m = dims.r, dims.m
    width = field.packed_size(t)
    last = suffixes[-1]
    prefix = salt + encode_u16(e)
    a_n = None
    if field.q & (field.q - 1) == 0:
        zero = bytes(width)
        drawn = suffixes[:-1]
        live = iter(suite.xof_many(X_LEAF, prefix, [s for s in drawn if s is not None], width))
        blobs = [zero if s is None else next(live) for s in drawn]
        rows = np.frombuffer(b"".join(blobs) + zero, np.uint8).reshape(n, width)
        if last is not None:
            raw = suite.xof_digest(X_LEAF, prefix + last, field.packed_size(r * m))
            a_n = leaf_elements(field, np.frombuffer(raw, np.uint8), r * m)
    else:
        rows = np.zeros((n, width), np.uint8)
        for i, s in enumerate(suffixes[:-1]):
            if s is not None:
                rows[i] = FieldSampler(field, suite.xof(X_LEAF, prefix, s)).take(t)
        if last is not None:
            a_n = FieldSampler(field, suite.xof(X_LEAF, prefix, last)).take(r * m)
    return rows, None if a_n is None else a_n.reshape(r, m)


def beta_map(ext, beta):
    """(r*m, m) matrix W with a.ravel() @ W = <a, beta> for (r, m) a and beta.

    Row (i, t) holds the coefficients of beta_i * X^t, so W stacks the
    transposed multiplication matrices of the beta_i; one GEMM builds it.
    """
    r, m = np.shape(beta)
    return np.ascontiguousarray(ext.mul_matrices(beta).transpose(0, 2, 1)).reshape(r * m, m)


def neg_inner(ext, a, w_beta):
    """c = -<a, beta> for a of shape (..., r, m), given W = ``beta_map(ext, beta)``."""
    a = np.asarray(a, np.uint8)
    ip = ext.base.matmul(a.reshape(-1, w_beta.shape[0]), w_beta)
    return ext.neg(ip).reshape(a.shape[:-2] + (ext.m,))


def additive_share(field, ext, dims, x, beta, heads, a_ns):
    """Plaintext rows and leaf N's rows of any number of rounds.

    ``heads`` (..., T) are the element sums of leaves 1..N-1 and ``a_ns``
    (..., r, m) leaf N's ``a`` draws (``expand_leaf_shares``), so a is
    their sum and c = -<a, beta> of every round is one product through
    beta's ``beta_map``.  Leaf N's row is the plaintext row minus the head:
    its x, beta and c entries correct the column sums to the secret, and
    its a entries come out as its own draw.  Returns (plains, leaf_n), both
    (..., T).
    """
    a_plains = field.add(dims.split(heads)[2], a_ns)
    plains = plain_rows(x, beta, a_plains, neg_inner(ext, a_plains, beta_map(ext, beta)))
    return plains, field.sub(plains, heads)


def hypercube_aggregate(field, arr):
    """Main shares per (dimension, side): (D, 2, ...) from (N, ...).

    Side 1 of the top remaining dimension is the lower half of the leaves;
    folding the upper half onto it removes that dimension, so all D sides
    cost about 2N row additions.  Side 2 is derived as total - side 1, so a
    zeroed (hidden) leaf row simply drops out of whichever side it belongs to.
    The rows may be raw leaf rows (``leaf_elements``): only ``field.add``,
    ``sub`` and ``axis_sum`` touch them.
    """
    arr = np.asarray(arr, np.uint8)
    n = arr.shape[0]
    if n & (n - 1) or n < 2:
        raise ValueError("hypercube needs a power-of-two party count")
    d = (n - 1).bit_length()
    out = np.empty((d, 2) + arr.shape[1:], np.uint8)
    for kdim in reversed(range(d)):
        low, high = arr[:1 << kdim], arr[1 << kdim:]
        out[kdim, 0] = field.axis_sum(low, axis=0)
        arr = field.add(low, high)
    out[:, 1] = field.sub(arr[0], out[:, 0])
    return out


# ---------------------------------------------------------------------------
# Shamir sharing over the base field, componentwise

def shamir_points(field, n_parties):
    if n_parties > field.q - 1:
        raise ValueError("Shamir sharing needs N <= q - 1 distinct nonzero points")
    return np.arange(1, n_parties + 1, dtype=np.uint8)


def shamir_share(field, secrets, ell, n_parties, rand):
    """Share coordinate vectors of B rounds; share i = P(i) with P(0) = secret.

    secrets (B, C) with ``rand`` (B, ell, C), the ell higher coefficients
    per coordinate, give (B, N, C).  The Vandermonde matrix is built once
    and each round takes its own (N, ell+1) @ (ell+1, C) product: at
    threshold level 5 that took 2.1 ms per signature, one (N, B*C)
    product 16 ms.
    """
    secrets = np.asarray(secrets, np.uint8)
    rounds, cols = secrets.shape
    rand = np.asarray(rand, np.uint8).reshape(rounds, ell, cols)
    pts = shamir_points(field, n_parties)
    vand = np.empty((n_parties, ell + 1), np.uint8)
    acc = np.ones(n_parties, np.uint8)
    for j in range(ell + 1):
        vand[:, j] = acc
        acc = field.mul(acc, pts)
    coeffs = np.concatenate([secrets[:, None], rand], axis=1)     # (B, ell+1, C)
    out = np.empty((rounds, n_parties, cols), np.uint8)
    for b in range(rounds):
        out[b] = field.matmul(vand, coeffs[b])
    return out


def _products_but_one(field, diff):
    """(..., t) -> (..., t): entry j is the product of every diff[..., k], k != j.

    Prefix times suffix products, 3(t - 1) of them for any t.  Over GF(p)
    they run on int64 residues, reduced mod p after every product, so no
    value passes (p - 1)^2; other fields take ``field.mul``.
    """
    if field.char == field.q:
        q = field.q
        diff = diff.astype(np.int64)

        def mul(u, v):
            return u * v % q
    else:
        mul = field.mul
    t = diff.shape[-1]
    out = np.ones(diff.shape, diff.dtype)
    for j in range(1, t):
        out[..., j] = mul(out[..., j - 1], diff[..., j - 1])
    suffix = np.ones(diff.shape[:-1], diff.dtype)
    for j in range(t - 2, -1, -1):
        suffix = mul(suffix, diff[..., j + 1])
        out[..., j] = mul(out[..., j], suffix)
    return out.astype(np.uint8)


def lagrange_weights(field, points, targets):
    """(B, A, t) weights w with P_b(targets_a) = sum_j w_baj P_b(points_bj).

    Each row of ``points`` (B, t) holds t distinct points of its own
    degree-(t-1) polynomial P_b.  The numerators prod_(k != j) (x_a - p_bk)
    and the denominators prod_(k != j) (p_bj - p_bk) are one products-but-one
    pass over the differences of every target and every point to the points.
    """
    (b, t), a = points.shape, len(targets)
    srt = np.sort(points, axis=-1)
    if (srt[:, 1:] == srt[:, :-1]).any():
        raise ValueError("duplicate interpolation points")
    xs = np.empty((b, a + t), np.uint8)
    xs[:, :a] = targets
    xs[:, a:] = points
    prods = _products_but_one(field, field.sub(xs[:, :, None], points[:, None, :]))
    den = np.diagonal(prods[:, a:], axis1=1, axis2=2)
    return field.mul(prods[:, :a], field.inv(den)[:, None, :])


def shamir_expand(field, shares, weights):
    """Evaluate interpolating polynomials at every target point.

    shares (B, t, C) hold B independent degree-(t-1) sharings, e.g. one per
    signature round, and ``weights`` (B, A, t) their ``lagrange_weights``
    for A targets; the result is (B, A, C).  One weight computation can
    serve several point sets, each then passing its own slice.
    """
    return field.matmul3(weights, field.matmul3_prepare(np.asarray(shares, np.uint8)))
