"""Threshold-sharing signature over (l+1, N) Shamir shares.

Per round the signer Shamir-shares (x, beta, a, c) coordinatewise, commits
every party state under a Merkle root, and runs the rank check on the
public set S of the first l+1 parties only.  The second challenge picks an
l-subset I of all parties; the response opens those states with their
Merkle authentication paths and adds the alpha share of one deterministic
extra party i* = min(S \\ I), enough for the verifier to reconstruct the
degree-l broadcast sharings (using v(0) = 0 for the response values).

Shares of a low-threshold sharing are correlated, so no seed tree is used
and signature length varies with the authentication paths (see ``layout``).
"""

import math
from functools import lru_cache

import numpy as np

from .bitio import DIGEST, ELEM, U16, Layout, Signature, SignatureFormatError
from .hashing import (H1, H2, X_SIGN, FieldSampler, commit,
                      derive_challenge1, derive_challenge2_threshold, party_suffixes)
from .mpc import ChallengeBatch, PkOperand
from .sharing import (beta_map, lagrange_weights, neg_inner, plain_rows, shamir_expand,
                      shamir_share)
from .trees import (H_MERKLE, MerkleTree, merkle_auth, merkle_root,
                    merkle_root_from_auth)


@lru_cache(maxsize=None)
def layout(ps):
    """Per round the auth count and digests (bottom-up, left to right), then
    two element blocks: the opened states in ascending party order, and the
    alpha share of i*.

    Level l of the padded Merkle tree gives 2 k_(l-1) - k_l digests, k_l <=
    min(ell, 2^l) being its nodes on the opened leaves' paths (``merkle_auth``).
    The sum telescopes to 2 + sum(k_l, 0 < l < depth) - ell, so it is at most
    the same sum with every k_l at its bound: 19 for ell = 3 of 250 leaves.
    """
    ell, depth = ps.ell, (ps.n_parties - 1).bit_length()
    max_auth = sum(2 * min(ell, 1 << (l - 1)) - min(ell, 1 << l) for l in range(1, depth + 1))
    return Layout(ps, (
        ("auth_count", U16, ()), ("auth", DIGEST, (max_auth,)),
        ("opened", ELEM, (ell, ps.share_dims.total)), ("alpha_star", ELEM, (ps.r, ps.m))),
        stream=False)


def encode(ps, sig):
    base, lay = ps.base, layout(ps)
    cols = sig.columns
    blocks = [base.pack_rows(cols[name].reshape(ps.tau, -1))
              for name, unit, _ in lay.fields if unit == ELEM]
    out = [lay.header_bytes(sig)]
    for auth, *packed in zip(cols["auth"], *blocks):
        out += [len(auth).to_bytes(2, "little"), *auth, *packed]
    return b"".join(out)


def decode(ps, data):
    base, lay = ps.base, layout(ps)
    db = ps.suite.digest_bytes
    max_nodes, = lay.shape("auth")
    blocks = [(shape, width) for (_, unit, shape), width in zip(lay.fields, lay.widths)
              if unit == ELEM]
    block = sum(width for _, width in blocks)
    size = len(data)

    # one pass over the 2-byte auth counts locates every round's element
    # blocks; a malformed round ends it, and its fault is raised after the
    # element checks of the blocks before it, as a round-by-round parse would
    pos, fault, counts, starts = lay.head, None, [], []
    for _ in range(ps.tau):
        if pos + 2 > size:
            fault = "truncated signature"
            break
        count = int.from_bytes(data[pos:pos + 2], "little")
        if count > max_nodes:
            fault = "authentication path too long"
            break
        pos += 2 + count * db
        starts.append(pos)
        if pos + block > size:
            fault = "truncated signature"
            break
        counts.append(count)
        pos += block

    rows = np.frombuffer(data, np.uint8).take(
        np.asarray(starts, np.intp)[:, None] + np.arange(block), mode="clip")
    columns, at = [], 0
    try:
        for shape, width in blocks:
            # a truncated round's whole blocks are checked too
            fits = len(starts) if starts and starts[-1] + at + width <= size else len(counts)
            elems = base.unpack_rows(rows[:fits, at:at + width], math.prod(shape))
            columns.append(elems[:len(counts)].reshape((-1,) + shape))
            at += width
    except ValueError as exc:
        raise SignatureFormatError(str(exc)) from None
    if fault is not None:
        raise SignatureFormatError(fault)
    if pos != size:
        raise SignatureFormatError("trailing data")
    auth = [[data[p:p + db] for p in range(start - count * db, start, db)]
            for count, start in zip(counts, starts)]
    return lay.signature(data, [auth, *columns])


def _extra_parties(s_set, subsets):
    """Per round the position in S of i* = min(S \\ I), the one party of S
    whose alpha share is also opened; ``subsets`` holds one I per row."""
    outside = (np.asarray(subsets)[:, :, None] != np.asarray(s_set)).all(axis=1)
    return outside.argmax(axis=1)


def _h2(suite, base, message, pk_bytes, salt, h1, alphas, vs):
    """H2 over the (tau, l+1) parties' alpha and v shares, party by party."""
    count = vs.shape[0] * vs.shape[1]
    pairs = zip(base.pack_rows(alphas.reshape(count, -1)), base.pack_rows(vs.reshape(count, -1)))
    return suite.hash(H2, message, pk_bytes, salt, h1, *[blob for pair in pairs for blob in pair])


def sign(ps, pk, sk, message, entropy):
    """Serialized signature of ``message``; deterministic in all inputs.

    The salt, a and the Shamir coefficients derive from ``entropy`` alone,
    so one ``entropy`` must never sign two different messages: the two
    signatures open more than l parties of one sharing, and Lagrange
    interpolation at 0 of l + 1 of them gives the witness x (two level-1
    signatures do).  Raises ``keys.KeyMismatchError`` if ``ps`` or ``pk``
    is not ``sk``'s own.
    """
    sk.check_pair(ps, pk)
    x, beta = sk.sign_inputs()
    sig = _sign_core(ps, pk, x, beta, message, entropy)
    return encode(ps, sig)


def _sign_core(ps, pk, x, beta, message, entropy):
    base, ext = ps.base, ps.ext
    suite = ps.suite
    n_parties, ell, tau = ps.n_parties, ps.ell, ps.tau
    s_set = ps.opened_set
    dims = ps.share_dims
    r, m = ps.r, ps.m
    pk_op = PkOperand.of(pk)
    pk_bytes = pk.body_bytes()

    rng = suite.xof(X_SIGN, entropy)
    salt = rng.read(suite.salt_bytes)

    # draws in round order (a, then the Shamir coefficients) from one
    # read; c and the shares of all rounds follow in one batch each
    draws = FieldSampler(base, rng).take_joined((r * m, ell * dims.total) * tau).reshape(tau, -1)
    a_plains = draws[:, :r * m].reshape(tau, r, m)
    rands = draws[:, r * m:].reshape(tau, ell, dims.total)
    c_plains = neg_inner(ext, a_plains, beta_map(ext, beta))
    secrets = plain_rows(x, beta, a_plains, c_plains)
    shares_all = shamir_share(base, secrets, ell, n_parties, rands)
    trees, roots = [], []
    for e in range(1, tau + 1):
        states = base.pack_rows(shares_all[e - 1])
        tree = MerkleTree(suite, commit(suite, salt, e,
                                        party_suffixes(range(1, n_parties + 1), states)))
        trees.append(tree)
        roots.append(merkle_root(tree))

    h1 = suite.hash(H1, message, pk_bytes, salt, *roots)
    batch = ChallengeBatch(ext, r, *derive_challenge1(suite, h1, ext, ps.n, tau))

    # batch: row 0 = plaintext, rows 1..l+1 = the public parties of S
    s_idx = np.asarray(s_set) - 1
    rows = np.concatenate([secrets[:, None], shares_all[:, s_idx]], axis=1)
    alphas, ezs = batch.broadcast_alpha(pk_op, rows, np.ones(ell + 2, bool))
    vs = batch.broadcast_v(ezs, rows, alphas[:, :1])
    assert not vs[:, 0].any(), "witness does not satisfy the rank bound"
    alpha_s = alphas[:, 1:]

    h2 = _h2(suite, base, message, pk_bytes, salt, h1, alpha_s, vs[:, 1:])
    ch2 = derive_challenge2_threshold(suite, h2, n_parties, ell, tau)

    # the opened states and alpha* of all rounds, one gather each
    first = np.arange(tau)
    opened = shares_all[first[:, None], np.asarray(ch2) - 1]
    alpha_star = alpha_s[first, _extra_parties(s_set, ch2)]
    return Signature(salt, h1, h2, {
        "auth": [merkle_auth(tree, subset) for tree, subset in zip(trees, ch2)],
        "opened": opened, "alpha_star": alpha_star})


def verify(ps, pk, message, data):
    """Accept/reject; malformed input rejects (CLI separates that case)."""
    try:
        sig = decode(ps, data)
    except SignatureFormatError:
        return False
    return verify_decoded(ps, pk, message, sig)


def verify_decoded(ps, pk, message, sig):
    """Accept/reject a decoded signature."""
    base, ext = ps.base, ps.ext
    suite = ps.suite
    n_parties, ell, tau = ps.n_parties, ps.ell, ps.tau
    s_set = ps.opened_set
    r, m = ps.r, ps.m

    # every round's commitments, their leaf digests in one call, then all
    # Merkle roots level by level; h1 is checked before the rank check
    ch2 = derive_challenge2_threshold(suite, sig.h2, n_parties, ell, tau)
    cols = sig.columns
    opened = cols["opened"]                                  # (tau, ell, T)
    states = base.pack_rows(opened.reshape(tau * ell, -1))
    cmts = []
    for e in range(1, tau + 1):
        cmts += commit(suite, sig.salt, e,
                       party_suffixes(ch2[e - 1], states[(e - 1) * ell:e * ell]))
    leaves = suite.hash_many(H_MERKLE, b"", cmts)
    roots = merkle_root_from_auth(suite, [leaves[i:i + ell] for i in range(0, tau * ell, ell)],
                                  ch2, cols["auth"], n_parties)
    if None in roots:
        return False
    pk_bytes = pk.body_bytes()
    h1bar = suite.hash(H1, message, pk_bytes, sig.salt, *roots)
    if h1bar != sig.h1:
        return False

    batch = ChallengeBatch(ext, r, *derive_challenge1(suite, sig.h1, ext, ps.n, tau))
    alpha_i, ezs = batch.broadcast_alpha(PkOperand.of(pk), opened, np.ones(ell, bool))

    # all rounds at once: alpha through I + {i*} at S + {0}; v through
    # I + {0}, where v(0) = 0, at S; one weight computation for both
    targets = np.asarray(s_set + (0,), np.uint8)
    points = np.zeros((2, tau, ell + 1), np.uint8)
    points[:, :, :ell] = ch2
    points[0, :, ell] = targets[_extra_parties(s_set, ch2)]
    weights = lagrange_weights(base, points.reshape(2 * tau, ell + 1), targets)
    alpha_star = cols["alpha_star"].reshape(tau, 1, r * m)
    alpha_at = shamir_expand(
        base, np.concatenate([alpha_i.reshape(tau, ell, r * m), alpha_star], axis=1),
        weights[:tau])
    alpha_sharings = alpha_at[:, :ell + 1]
    alpha_opens = alpha_at[:, ell + 1].reshape(tau, r, m)
    v_i_all = batch.broadcast_v(ezs, opened, alpha_opens[:, None])
    v_sharings = shamir_expand(
        base, np.concatenate([v_i_all, np.zeros((tau, 1, m), np.uint8)], axis=1),
        weights[tau:, :ell + 1])

    h2bar = _h2(suite, base, message, pk_bytes, sig.salt, h1bar,
                alpha_sharings, v_sharings)
    return h2bar == sig.h2
