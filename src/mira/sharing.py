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
party (k, j) is the sum of the leaves on side j of dimension k.

Both signers compute the aux value c = -<a, beta> through ``beta_map``, the
(r*m, m) matrix of beta's multiplications, built once per signature: c for
any number of a's is then one GF(q) product.

Shamir sharing evaluates an independent random degree-l polynomial per
coordinate at the public points e_i = i, which caps N at q - 1.  Both
directions take a leading round axis: ``shamir_share`` builds the
Vandermonde matrix once for all rounds, and ``shamir_expand`` takes one
point set per round and evaluates every round's polynomials with one weight
computation and one stacked field GEMM.
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


def leaf_stream(suite, salt, e, i, seed):
    return suite.xof(X_LEAF, salt, encode_u16(e), encode_u16(i), seed)


def expand_leaf_shares(suite, salt, e, seeds, dims, field):
    """Expand per-leaf pseudorandom rows; the last leaf samples only ``a``.

    Returns the (N, T) rows.  ``seeds`` lists all N leaf seeds; a None
    entry (hidden leaf) leaves its row zero.  Components are drawn in flat
    row order from each leaf's stream; leaf N's stream starts directly at
    the ``a`` block.
    """
    n = len(seeds)
    t = dims.total
    a_lo = dims.k + dims.r * dims.m
    a_hi = a_lo + dims.r * dims.m
    flat = np.zeros((n, t), np.uint8)
    q = field.q
    if q & (q - 1) == 0:
        nib = q == 16
        nbytes = (t + 1) // 2 if nib else t
        prefix = salt + encode_u16(e)
        xof = suite.xof_digest
        live = [i for i in range(n - 1) if seeds[i] is not None]
        blobs = b"".join([xof(X_LEAF, prefix + encode_u16(i + 1) + seeds[i], nbytes)
                          for i in live])
        if live:
            raw = np.frombuffer(blobs, np.uint8).reshape(len(live), nbytes)
            if nib:
                flat[live] = unpack_nibbles(raw)[:, :t]
            else:
                flat[live] = raw & np.uint8(q - 1)
        if seeds[-1] is not None:
            cnt = a_hi - a_lo
            nb = (cnt + 1) // 2 if nib else cnt
            raw = np.frombuffer(xof(X_LEAF, prefix + encode_u16(n) + seeds[-1], nb),
                                np.uint8)
            if nib:
                flat[n - 1, a_lo:a_hi] = unpack_nibbles(raw)[:cnt]
            else:
                flat[n - 1, a_lo:a_hi] = raw & np.uint8(q - 1)
    else:
        for i, seed in enumerate(seeds, start=1):
            if seed is None:
                continue
            sampler = FieldSampler(field, leaf_stream(suite, salt, e, i, seed))
            if i < n:
                flat[i - 1] = sampler.take(t)
            else:
                flat[i - 1, a_lo:a_hi] = sampler.take(a_hi - a_lo)
    return flat


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


def additive_share(suite, salt, e, seeds, dims, field, ext, x, beta, w_beta):
    """Full additive sharing with the aux correction leaf.

    a is the sum of the per-leaf pseudorandom draws (all N of them) and
    c = -<a, beta> is computed against that reconstructed a, through
    beta's ``beta_map`` ``w_beta``.  Returns ((N, T) rows, a_plain, c_plain).
    """
    rows = expand_leaf_shares(suite, salt, e, seeds, dims, field)
    a_plain = field.axis_sum(dims.split(rows)[2], axis=0)
    c_plain = neg_inner(ext, a_plain, w_beta)
    # leaf N's x, beta and c correct the column sums to the secret; its a
    # entries come back unchanged, as a_plain minus the other leaves' a
    head = field.axis_sum(rows[:-1], axis=0)
    rows[-1] = field.sub(plain_rows(x, beta, a_plain, c_plain), head)
    return rows, a_plain, c_plain


def hypercube_aggregate(field, arr):
    """Main shares per (dimension, side): (D, 2, ...) from (N, ...).

    Side 1 of the top remaining dimension is the lower half of the leaves;
    folding the upper half onto it removes that dimension, so all D sides
    cost about 2N row additions.  Side 2 is derived as total - side 1, so a
    zeroed (hidden) leaf row simply drops out of whichever side it belongs to.
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
    """Share coordinate vectors; share i = P(i) with P(0) = secret.

    secrets (C,) with ``rand`` (ell, C), the ell higher coefficients per
    coordinate, give (N, C).  With a leading round axis, secrets (B, C) and
    rand (B, ell, C) give (B, N, C): the Vandermonde matrix is built once
    and each round takes its own (N, ell+1) @ (ell+1, C) product: at
    threshold level 5 that took 2.1 ms per signature, one (N, B*C)
    product 16 ms.
    """
    secrets = np.asarray(secrets, np.uint8)
    single = secrets.ndim == 1
    secrets = secrets.reshape(-1, secrets.shape[-1])
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
    return out[0] if single else out


def _field_prod(field, arr):
    """Field product over the last axis."""
    out = arr[..., 0]
    for j in range(1, arr.shape[-1]):
        out = field.mul(out, arr[..., j])
    return out


def _lagrange_weights(field, points, targets):
    """(B, A, t) weights w with P_b(targets_a) = sum_j w_baj P_b(points_bj).

    Each row of ``points`` (B, t) holds t distinct points of its own
    degree-(t-1) polynomial P_b.
    """
    t = points.shape[-1]
    srt = np.sort(points, axis=-1)
    if np.any(srt[:, 1:] == srt[:, :-1]):
        raise ValueError("duplicate interpolation points")
    off = ~np.eye(t, dtype=bool)
    one = np.uint8(1)
    # den[b, j] = prod_{k != j} (p_bj - p_bk); num[b, a, j] = prod_{k != j} (x_a - p_bk)
    den = _field_prod(field, np.where(
        off, field.sub(points[:, :, None], points[:, None, :]), one))
    dist = field.sub(targets[None, :, None], points[:, None, :])
    num = _field_prod(field, np.where(off, dist[:, :, None, :], one))
    return field.mul(num, field.inv(den)[:, None, :])


def shamir_expand(field, shares, points, targets):
    """Evaluate interpolating polynomials at every target point.

    shares (B, t, C) and points (B, t) hold B independent degree-(t-1)
    sharings, e.g. one per signature round; the result is (B, A, C) for
    targets (A,).  Without the leading B axis, shares (t, C) and points
    (t,) give (A, C).
    """
    shares = np.asarray(shares, np.uint8)
    points = np.asarray(points, np.uint8)
    targets = np.asarray(targets, np.uint8).ravel()
    single = points.ndim == 1
    if single:
        shares, points = shares[None], points[None]
    w = _lagrange_weights(field, points, targets)
    out = field.matmul3(w, field.matmul3_prepare(shares))
    return out[0] if single else out
