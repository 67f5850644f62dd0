"""Reference helpers the tests share; the library itself never needs them."""

from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np

from mira import sign_additive
from mira.bitio import Signature, SignatureFormatError
from mira.hashing import (H_MERKLE, X_KEYSEC, X_TREE, FieldSampler, encode_u16, encode_u32,
                          party_suffixes)
from mira.keys import _expand_l
from mira.matrices import pivot_columns, rank
from mira.mpc import ChallengeBatch
from mira.params import PARAM_IDS, parameter_set
from mira.sharing import (additive_share, expand_leaf_shares, lagrange_weights, leaf_elements,
                          shamir_expand)
from mira.sign_threshold import layout


def all_parameter_sets():
    return [parameter_set(variant, level) for variant, level in PARAM_IDS]


def validate_witness(pk, x):
    """Accept iff rank(M_0 + sum x_i M_i) <= r."""
    ps = pk.params
    x = np.asarray(x, np.uint8)
    if x.shape != (ps.k,):
        raise ValueError("witness length mismatch")
    return rank(ps.base, witness_matrix(pk, x)) <= ps.r


def witness_matrix(pk, x):
    """E = M_0 + sum x_i M_i as an (m, n) matrix: [x | x L' + M_0'] of a
    systematic key's (L', M_0')."""
    ps = pk.params
    l_prime, m0_tail = pk.matrices()
    x = np.asarray(x, np.uint8)
    tail = ps.base.add(ps.base.matmul(x[None, :], l_prime)[0], m0_tail)
    return np.concatenate([x, tail]).reshape(ps.m, ps.n)


def systematic(l_prime, m0_tail):
    """The full (L, M_0) of a systematic key's tails: L = [I_k | L'], and M_0
    is M_0' after k zero entries."""
    k = len(l_prime)
    l_rows = np.hstack([np.eye(k, dtype=np.uint8), l_prime])
    return l_rows, np.concatenate([np.zeros(k, np.uint8), m0_tail])


def leaf_side(leaf, dim):
    """Side (1 or 2) of 1-based ``leaf`` along 1-based ``dim``."""
    return ((leaf - 1) >> (dim - 1) & 1) + 1


def full_sharing(suite, salt, e, seeds, dims, field, ext, x, beta):
    """One round's whole additive sharing from its N leaf ``seeds``, as elements.

    Returns ((N, T) rows, a_plain, c_plain): ``expand_leaf_shares``'s rows
    through ``leaf_elements``, with leaf N's row from ``additive_share``.
    """
    suffixes = party_suffixes(range(1, len(seeds) + 1), seeds)
    rows, a_n = expand_leaf_shares(suite, salt, e, suffixes, dims, field)
    head = leaf_elements(field, field.axis_sum(rows[:-1], axis=0), dims.total)
    plain, leaf_n = additive_share(field, ext, dims, x, beta, head, a_n)
    shares = np.concatenate([leaf_elements(field, rows[:-1], dims.total), leaf_n[None]])
    _, _, a_plain, c_plain = dims.split(plain)
    return shares, a_plain, c_plain


class CheatingBatch(ChallengeBatch):
    """The rank check of an additive prover without a witness who bets on one leaf.

    Its plaintext v is nonzero.  ``broadcast_v`` reports v = 0 instead and,
    in every dimension where ``leaf`` is on side 1, takes the difference out
    of the side-1 main party; where ``leaf`` is on side 2, the side-2 party,
    signed as v - side 1, takes it.  The main party without ``leaf`` is
    honest in every dimension, so a verifier that hides ``leaf`` recomputes
    the same broadcasts.
    """

    def __init__(self, ext, r, gamma, eps, leaf):
        super().__init__(ext, r, gamma, eps)
        self.leaf = leaf

    def broadcast_v(self, z_shares, rows, alphas):
        vs = super().broadcast_v(z_shares, rows, alphas)     # (tau, 1 + D, m)
        dims = np.arange(1, vs.shape[1])
        side1 = dims[leaf_side(self.leaf, dims) == 1]
        vs[:, side1] = self.ext.sub(vs[:, side1], vs[:, :1])
        vs[:, 0] = 0
        return vs


def stacked(challenges):
    """Per-round (gamma, eps) pairs as ``ChallengeBatch``'s (tau, n, m) and (tau, m) arrays."""
    gamma, eps = zip(*challenges)
    return np.stack(gamma), np.stack(eps)


def sign_cheating(ps, pk, x, beta, message, entropy, leaf):
    """Additive ``_sign_core`` with the rank check of ``CheatingBatch``: for any
    (x, beta), a signature that verifies when the second challenge hides ``leaf``."""
    with mock.patch.object(sign_additive, "ChallengeBatch", partial(CheatingBatch, leaf=leaf)):
        return sign_additive._sign_core(ps, pk, x, beta, message, entropy)


def shamir_at(field, shares, points, targets):
    """Interpolating polynomials at ``targets`` (A,): shares (B, t, C) and
    points (B, t) give (B, A, C); without the B axis, (t, C) and (t,) give (A, C)."""
    shares = np.asarray(shares, np.uint8)
    points = np.asarray(points, np.uint8)
    single = points.ndim == 1
    if single:
        shares, points = shares[None], points[None]
    weights = lagrange_weights(field, points, np.asarray(targets, np.uint8).ravel())
    out = shamir_expand(field, shares, weights)
    return out[0] if single else out


def lagrange_weights_by_mul(field, points, targets):
    """Reference ``lagrange_weights``: every weight
    prod_(k != j) (x_a - p_k) / (p_j - p_k) from one ``field.mul`` per factor."""
    points = np.asarray(points, np.uint8)
    out = np.empty((len(points), len(targets), points.shape[1]), np.uint8)
    for b, row in enumerate(points):
        for a, tgt in enumerate(targets):
            for j, pj in enumerate(row):
                num = den = np.uint8(1)
                for k, pk in enumerate(row):
                    if k != j:
                        num = field.mul(num, field.sub(tgt, pk))
                        den = field.mul(den, field.sub(pj, pk))
                out[b, a, j] = field.mul(num, field.inv(den))
    return out


def shamir_reconstruct(field, shares, points):
    """Interpolate at zero: shares (..., t, C), points (..., t) -> (..., C)."""
    return shamir_at(field, shares, points, np.zeros(1, np.uint8))[..., 0, :]


def evaluate(ext, beta, x):
    """L(x) for a single element x of shape (m,), L the monic q-polynomial
    of coefficients ``beta`` (r, m)."""
    return evaluate_many(ext, beta, np.asarray(x, np.uint8)[None, :])[0]


def evaluate_many(ext, beta, xs):
    """L applied to a batch (B, m) of elements, r = len(beta)."""
    xs = np.asarray(xs, np.uint8)
    acc = ext.frob(xs, len(beta))  # leading monic term
    for t, coef in enumerate(beta):
        acc = ext.add(acc, ext.mul(coef, ext.frob(xs, t)))
    return acc


def sample_rank_bounded_by_elimination(field, m, n, r, sampler):
    """Reference ``matrices.sample_rank_bounded``: each draw E = A @ B is
    accepted or retried on the elimination's rank alone."""
    while True:
        e = field.matmul(sampler.matrix(m, r), sampler.matrix(r, n))
        if rank(field, e) == r:
            return e


def derive_two_products(ps, seed_pk, seed_sk):
    """Reference key derivation through a blinding vector beta drawn after E:
    f = E - beta L, x = beta + f_head and M_0 = f - f_head L, two full-width
    products over the whole L = [I_k | L'].  Returns (L, M_0, x, E) in full,
    where ``keys._derive`` returns (L', M_0', x, E)."""
    base = ps.base
    l_prime = _expand_l(ps, seed_pk)
    l_rows = np.hstack([np.eye(ps.k, dtype=np.uint8), l_prime])
    sk_sampler = FieldSampler(base, ps.suite.xof(X_KEYSEC, seed_sk))
    e_mat = sample_rank_bounded_by_elimination(base, ps.m, ps.n, ps.r, sk_sampler)
    beta = sk_sampler.take(ps.k)
    f_flat = base.sub(e_mat.reshape(-1), base.matmul(beta[None, :], l_rows)[0])
    f_head = f_flat[:ps.k]
    m0_flat = base.sub(f_flat, base.matmul(f_head[None, :], l_rows)[0])
    return l_rows, m0_flat, base.add(beta, f_head), e_mat


def annihilator_by_pow(ext, support, r):
    """Reference annihilator beta (r, m) through the monic recurrence
    L_{i+1}(X) = L_i(X)^q - L_i(b)^(q-1) L_i(X), one ``pow`` per basis element."""
    support = np.asarray(support, np.uint8)
    basis = support[pivot_columns(ext.base, support.T)]
    assert len(basis) == r
    coeffs = ext.one(1)  # L_0(X) = X
    for b in basis:
        lb = ext.base.axis_sum(np.stack([ext.mul(c, ext.frob(b, t))
                                         for t, c in enumerate(coeffs)]), 0)
        nxt = ext.zero(len(coeffs) + 1)
        nxt[1:] = ext.frob(coeffs, 1)
        nxt[:-1] = ext.sub(nxt[:-1], ext.mul(ext.pow(lb, ext.q - 1), coeffs))
        coeffs = nxt
    assert np.array_equal(coeffs[-1], ext.one())
    return coeffs[:-1]


def clmul(a, b):
    """Carry-less product of two GF(2)[y] polynomials held as int bit masks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def bitpoly_mod(a, mod):
    """a mod ``mod`` in GF(2)[y], by shifting out the leading bit."""
    deg = mod.bit_length() - 1
    while a.bit_length() - 1 >= deg:
        a ^= mod << (a.bit_length() - 1 - deg)
    return a


def bitpoly_irreducible(mod):
    """Trial division by every polynomial of degree 1 .. deg(mod) // 2."""
    deg = mod.bit_length() - 1
    return deg >= 1 and all(bitpoly_mod(mod, div)
                            for div in range(2, 1 << (deg // 2 + 1)))


def char2_reference(d):
    """(modulus, MUL, INV) of GF(2^d) from bit-polynomial arithmetic: the least
    irreducible y^d + tail, carry-less products reduced by it, and a^(q-2)."""
    q = 1 << d
    mod = next(v for v in range(q + 1, 2 * q) if bitpoly_irreducible(v))
    mul = np.array([[bitpoly_mod(clmul(a, b), mod) for b in range(q)] for a in range(q)],
                   np.uint8)
    inv = np.zeros(q, np.uint8)
    for a in range(1, q):
        acc = 1
        for _ in range(q - 2):
            acc = int(mul[acc, a])
        inv[a] = acc
    return mod, mul, inv


def mul_matrices_by_shifts(ext, us):
    """(B, m) -> (B, m, m): column t holds us * X^t, built by shift and reduce."""
    base, m = ext.base, ext.m
    cur = np.asarray(us, np.uint8)
    out = np.empty(cur.shape + (m,), np.uint8)
    for t in range(m):
        out[:, :, t] = cur
        top = cur[:, -1:]
        cur = np.concatenate([np.zeros_like(top), cur[:, :-1]], axis=1)
        cur = base.sub(cur, base.mul(top, ext.modulus[:m]))
    return out


def ext_to_columns(vec):
    """Inverse of ``mira.matrices.columns_to_ext``."""
    return np.ascontiguousarray(np.asarray(vec, np.uint8).T)


def gaussian_binomial(m, r, q):
    """Number of r-dimensional subspaces of an m-dimensional space over GF(q)."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    out = Fraction(1)
    for i in range(r):
        out *= Fraction(q ** m - q ** i, q ** r - q ** i)
    assert out.denominator == 1
    return out.numerator


def threshold_decode_by_round(ps, data):
    """Reference threshold decoder: one round at a time, each block on its own.

    ``mira.sign_threshold.decode`` must parse the same signatures into the
    same columns and reject the rest with the same ``SignatureFormatError``
    message.
    """
    suite = ps.suite
    base = ps.base
    dims = ps.share_dims
    r, m = dims.r, dims.m
    db = suite.digest_bytes
    opened_count = ps.ell * dims.total
    opened_bytes = base.packed_size(opened_count)
    alpha_bytes = base.packed_size(r * m)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise SignatureFormatError("truncated signature")
        out = data[pos:pos + n]
        pos += n
        return out

    try:
        salt = take(suite.salt_bytes)
        h1 = take(db)
        h2 = take(db)
        auths, openeds, alpha_stars = [], [], []
        for _ in range(ps.tau):
            count = int.from_bytes(take(2), "little")
            if count > layout(ps).shape("auth")[0]:
                raise SignatureFormatError("authentication path too long")
            auth = [take(db) for _ in range(count)]
            opened = base.unpack(take(opened_bytes), opened_count)
            alpha_star = base.unpack(take(alpha_bytes), r * m).reshape(r, m)
            auths.append(auth)
            openeds.append(opened.reshape(ps.ell, dims.total))
            alpha_stars.append(alpha_star)
    except ValueError as exc:
        raise SignatureFormatError(str(exc)) from None
    if pos != len(data):
        raise SignatureFormatError("trailing data")
    return Signature(salt=salt, h1=h1, h2=h2, columns={
        "auth": auths, "opened": np.stack(openeds), "alpha_star": np.stack(alpha_stars)})


def merkle_root_from_auth_by_dict(suite, leaf_hashes, indices, auth, n_leaves):
    """Reference Merkle recompute: a dict of known nodes, sorted per level.

    ``mira.trees.merkle_root_from_auth`` must return the same root (or None)
    and make the same hash calls in the same order.
    """
    order = np.argsort(indices)
    pairs = [(indices[j] - 1, leaf_hashes[j]) for j in order]
    if not pairs or pairs[0][0] < 0 or pairs[-1][0] >= n_leaves:
        return None
    if len({p for p, _ in pairs}) != len(pairs):
        return None
    pad = 1 << max(0, (n_leaves - 1).bit_length())
    cur = dict(pairs)
    it = iter(auth)
    width = pad
    try:
        while width > 1:
            nxt = {}
            for pos in sorted(cur):
                par = pos >> 1
                if par in nxt:
                    continue
                sib = pos ^ 1
                left = cur[pos] if pos & 1 == 0 else cur.get(sib)
                right = cur[pos] if pos & 1 == 1 else cur.get(sib)
                if left is None:
                    left = next(it)
                if right is None:
                    right = next(it)
                nxt[par] = suite.hash(H_MERKLE, left + right)
            cur = nxt
            width >>= 1
    except StopIteration:
        return None
    if next(it, None) is not None:
        return None
    return cur[0]


def merkle_levels_by_node(suite, leaf_values):
    """Reference Merkle levels, bottom-up: one ``suite.hash`` per node.

    Leaves are hashed, the level is padded with zero digests to a power of
    two, and each parent hashes its left child followed by its right one.
    """
    n = len(leaf_values)
    pad = 1 << max(0, (n - 1).bit_length())
    level = [suite.hash(H_MERKLE, v) for v in leaf_values]
    level += [bytes(suite.digest_bytes)] * (pad - n)
    levels = [level]
    while len(level) > 1:
        level = [suite.hash(H_MERKLE, level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def seed_tree_by_node(suite, root_seed, salt, round_index, n_leaves):
    """Reference seed-tree heap list: one ``xof_digest`` per inner node."""
    sb = suite.seed_bytes
    nodes = [None, root_seed] + [None] * (2 * n_leaves - 2)
    for i in range(1, n_leaves):
        payload = salt + encode_u16(round_index) + encode_u32(i) + nodes[i]
        pair = suite.xof_digest(X_TREE, payload, 2 * sb)
        nodes[2 * i], nodes[2 * i + 1] = pair[:sb], pair[sb:]
    return nodes
