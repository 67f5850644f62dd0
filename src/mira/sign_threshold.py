"""Threshold-sharing signature over (l+1, N) Shamir shares.

Per round the signer Shamir-shares (x, beta, a, c) coordinatewise, commits
every party state under a Merkle root, and runs the rank check on the
public set S of the first l+1 parties only.  The second challenge picks an
l-subset I of all parties; the response opens those states with their
Merkle authentication paths and adds the alpha share of one deterministic
extra party i* = min(S \\ I), enough for the verifier to reconstruct the
degree-l broadcast sharings (using v(0) = 0 for the response values).

Shares of a low-threshold sharing are correlated, so no seed tree is used
and signature length varies with the authentication paths; every per-round
block starts with a 2-byte node count.
"""

from dataclasses import dataclass

import numpy as np

from .bitio import SignatureFormatError
from .hashing import (H1, H2, X_SIGN, FieldSampler, commit,
                      derive_challenge1, derive_challenge2_threshold)
from .mpc import ChallengeBatch, PkOperand
from .sharing import beta_map, neg_inner, plain_rows, shamir_expand, shamir_share
from .trees import (H_MERKLE, MerkleTree, merkle_auth, merkle_root,
                    merkle_root_from_auth)


@dataclass
class RoundResponse:
    auth: list                 # Merkle digests, bottom-up left-right
    opened: np.ndarray         # (ell, T) state rows, ascending party index
    alpha_star: np.ndarray     # (r, m)


@dataclass
class ThresholdSignature:
    salt: bytes
    h1: bytes
    h2: bytes
    rounds: list


def encode(ps, sig):
    base = ps.base
    out = bytearray(sig.salt + sig.h1 + sig.h2)
    for rr in sig.rounds:
        out += len(rr.auth).to_bytes(2, "little")
        out += b"".join(rr.auth)
        out += base.pack(rr.opened)
        out += base.pack(rr.alpha_star)
    return bytes(out)


def _max_auth_nodes(ps):
    pad_depth = max(1, (ps.n_parties - 1).bit_length())
    return ps.ell * (pad_depth + 1)


def decode(ps, data):
    suite = ps.suite
    base = ps.base
    dims = ps.share_dims
    r, m = dims.r, dims.m
    db = suite.digest_bytes
    opened_count = ps.ell * dims.total
    opened_bytes = base.packed_size(opened_count)    # encode packs the block
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
        rounds = []
        for _ in range(ps.tau):
            count = int.from_bytes(take(2), "little")
            if count > _max_auth_nodes(ps):
                raise SignatureFormatError("authentication path too long")
            auth = [take(db) for _ in range(count)]
            opened = base.unpack(take(opened_bytes), opened_count)
            alpha_star = base.unpack(take(alpha_bytes), r * m).reshape(r, m)
            rounds.append(RoundResponse(auth=auth,
                                        opened=opened.reshape(ps.ell, dims.total),
                                        alpha_star=alpha_star))
    except ValueError as exc:
        raise SignatureFormatError(str(exc)) from None
    if pos != len(data):
        raise SignatureFormatError("trailing data")
    return ThresholdSignature(salt=salt, h1=h1, h2=h2, rounds=rounds)


def _extra_party(s_set, subset):
    """i* = min(S \\ I): the one party of S whose alpha share is also opened."""
    return min(i for i in s_set if i not in subset)


def _h2(suite, base, message, pk_bytes, salt, h1, alphas, vs):
    """H2 over the (tau, l+1) parties' alpha and v shares, party by party."""
    count = vs.shape[0] * vs.shape[1]
    pairs = zip(base.pack_rows(alphas.reshape(count, -1)), base.pack_rows(vs.reshape(count, -1)))
    return suite.hash(H2, message, pk_bytes, salt, h1, *[blob for pair in pairs for blob in pair])


def sign(ps, pk, sk, message, entropy):
    """Serialized signature of ``message``; deterministic in all inputs."""
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
    sampler = FieldSampler(base, rng)

    # draws in round order (a, then the Shamir coefficients); c and the
    # shares of all rounds follow in one batch each
    a_plains = np.empty((tau, r, m), np.uint8)
    rands = np.empty((tau, ell, dims.total), np.uint8)
    for e in range(tau):
        a_plains[e] = sampler.take(r * m).reshape(r, m)
        rands[e] = sampler.take(ell * dims.total).reshape(ell, dims.total)
    c_plains = neg_inner(ext, a_plains, beta_map(ext, beta))
    secrets = plain_rows(x, beta, a_plains, c_plains)
    shares_all = shamir_share(base, secrets, ell, n_parties, rands)
    trees, roots = [], []
    for e in range(1, tau + 1):
        tree = MerkleTree(suite, commit(suite, salt, e, range(1, n_parties + 1),
                                        base.pack_rows(shares_all[e - 1])))
        trees.append(tree)
        roots.append(merkle_root(suite, tree))

    h1 = suite.hash(H1, message, pk_bytes, salt, *roots)
    ch1 = derive_challenge1(suite, h1, ext, ps.n, tau)
    batch = ChallengeBatch(ext, r, ch1)

    # batch: row 0 = plaintext, rows 1..l+1 = the public parties of S
    s_idx = np.asarray(s_set) - 1
    rows = np.concatenate([secrets[:, None], shares_all[:, s_idx]], axis=1)
    alphas, zs = batch.broadcast_alpha(pk_op, rows, np.ones(ell + 2, bool))
    vs = batch.broadcast_v(zs, rows, alphas[:, :1])
    assert not vs[:, 0].any(), "witness does not satisfy the rank bound"
    alpha_s = alphas[:, 1:]

    h2 = _h2(suite, base, message, pk_bytes, salt, h1, alpha_s, vs[:, 1:])
    ch2 = derive_challenge2_threshold(suite, h2, n_parties, ell, tau)

    rounds = []
    for e in range(1, tau + 1):
        subset = ch2[e - 1]
        istar = _extra_party(s_set, subset)
        rounds.append(RoundResponse(
            auth=merkle_auth(suite, trees[e - 1], subset),
            opened=shares_all[e - 1, np.asarray(subset) - 1],
            alpha_star=alpha_s[e - 1, s_set.index(istar)]))
    return ThresholdSignature(salt=salt, h1=h1, h2=h2, rounds=rounds)


def verify(ps, pk, message, data):
    """Accept/reject; malformed input rejects (CLI separates that case)."""
    try:
        sig = decode(ps, data)
    except SignatureFormatError:
        return False
    ok, _ = verify_decoded(ps, pk, message, sig)
    return ok


def verify_decoded(ps, pk, message, sig):
    base, ext = ps.base, ps.ext
    suite = ps.suite
    n_parties, ell, tau = ps.n_parties, ps.ell, ps.tau
    s_set = ps.opened_set
    s_pts = np.asarray(s_set, np.uint8)
    r, m = ps.r, ps.m
    pk_op = PkOperand.of(pk)

    ch1 = derive_challenge1(suite, sig.h1, ext, ps.n, tau)
    ch2 = derive_challenge2_threshold(suite, sig.h2, n_parties, ell, tau)

    roots = []
    for e in range(1, tau + 1):
        rr = sig.rounds[e - 1]
        subset = ch2[e - 1]
        cmt_hashes = [suite.hash(H_MERKLE, cmt) for cmt in
                      commit(suite, sig.salt, e, subset, base.pack_rows(rr.opened))]
        root = merkle_root_from_auth(suite, cmt_hashes, list(subset), rr.auth,
                                     n_parties)
        if root is None:
            return False, None
        roots.append(root)
    h1bar = suite.hash(H1, message, pk.body_bytes(), sig.salt, *roots)

    batch = ChallengeBatch(ext, r, ch1)
    opened = np.stack([rr.opened for rr in sig.rounds])      # (tau, ell, T)
    alpha_i, zs = batch.broadcast_alpha(pk_op, opened, np.ones(ell, bool))

    # all rounds at once: alpha through I + {i*} at S + {0}; v through
    # I + {0}, where v(0) = 0, at S
    subsets = np.asarray(ch2, np.uint8)                      # (tau, ell)
    istars = np.asarray([_extra_party(s_set, subset) for subset in ch2], np.uint8)
    alpha_star = np.stack([rr.alpha_star.reshape(1, r * m) for rr in sig.rounds])
    alpha_at = shamir_expand(
        base, np.concatenate([alpha_i.reshape(tau, ell, r * m), alpha_star], axis=1),
        np.column_stack([subsets, istars]), np.append(s_pts, 0))
    alpha_sharings = alpha_at[:, :ell + 1]
    alpha_opens = alpha_at[:, ell + 1].reshape(tau, r, m)
    v_i_all = batch.broadcast_v(zs, opened, alpha_opens[:, None])
    v_sharings = shamir_expand(
        base, np.concatenate([v_i_all, np.zeros((tau, 1, m), np.uint8)], axis=1),
        np.column_stack([subsets, np.zeros(tau, np.uint8)]), s_pts)

    h2bar = _h2(suite, base, message, pk.body_bytes(), sig.salt, h1bar,
                alpha_sharings, v_sharings)
    return h1bar == sig.h1 and h2bar == sig.h2, None
