"""Additive-sharing signature: hypercube main parties, seed-tree openings.

Per round the signer expands N = 2^D leaf input shares from a salted seed
tree, commits to every leaf state, and answers the first challenge with
D + 1 rank-check executions only: the plaintext run plus one main party
per dimension; the opposite main shares follow by subtracting from the
plaintext broadcast.  The second challenge hides one leaf; the response
opens all other seeds via the sibling path, the hidden leaf's commitment
and its broadcast alpha share, plus the aux corrections of leaf N.  The
verifier also runs D + 1 executions per round: per dimension the main
party without the hidden leaf, and the sum of all opened leaves.

The aux block is part of the fixed signature layout even when the hidden
leaf is N itself; in that case it is zeroed (leaf N's state must not leak)
and the verifier rejects any nonzero aux, so no bit of a signature is
malleable.
"""

from dataclasses import dataclass

import numpy as np

from .bitio import SignatureFormatError, unpack_nibbles
from .hashing import (H1, H2, H3, H4, X_SIGN, commit,
                      derive_challenge1, derive_challenge2_additive, encode_u16)
from .mpc import ChallengeBatch, PkOperand
from .sharing import (additive_share, beta_map, expand_leaf_shares,
                      hypercube_aggregate, plain_rows)
from .trees import SeedTree, leaves_from_path


@dataclass
class RoundResponse:
    path: list          # D sibling seeds, root side first
    cmt_hidden: bytes
    alpha_hidden: np.ndarray   # (r, m)
    aux_x: np.ndarray          # (k,)
    aux_beta: np.ndarray       # (r, m)
    aux_c: np.ndarray          # (m,)


@dataclass
class AdditiveSignature:
    salt: bytes
    h1: bytes
    h2: bytes
    rounds: list


def field_elems_per_round(ps):
    # alpha_hidden (r*m), aux_x (k), aux_beta (r*m), aux_c (m): one state row
    return ps.share_dims.total


def signature_size_bits(ps):
    bits = 4 if ps.q == 16 else 8
    per_round = ps.depth * ps.lam + 2 * ps.lam + field_elems_per_round(ps) * bits
    return 6 * ps.lam + ps.tau * per_round


def signature_size_bytes(ps):
    return (signature_size_bits(ps) + 7) // 8


def _byte_units(base, data):
    """Bytes as codec units: two nibbles each when q = 16, else one byte."""
    return unpack_nibbles(data) if base.q == 16 else np.frombuffer(data, np.uint8)


def encode(ps, sig):
    """One unit stream, packed once: nibbles when q = 16, else bytes.

    The header bytes come first, then per round its path and hidden
    commitment bytes and its field block (alpha_hidden, aux_x, aux_beta,
    aux_c).  With an odd unit count per round every other round starts
    mid-byte; only the stream's last byte is padded.
    """
    base = ps.base
    rounds = sig.rounds
    paths = _byte_units(base, b"".join(b"".join(rr.path) + rr.cmt_hidden for rr in rounds))
    fields = np.stack([np.concatenate([rr.alpha_hidden.ravel(), rr.aux_x,
                                       rr.aux_beta.ravel(), rr.aux_c]) for rr in rounds])
    body = np.concatenate([paths.reshape(len(rounds), -1), fields], axis=1)
    out = base.pack(np.concatenate([_byte_units(base, sig.salt + sig.h1 + sig.h2),
                                    body.ravel()]))
    assert len(out) == signature_size_bytes(ps)
    return out


def decode(ps, data):
    if len(data) != signature_size_bytes(ps):
        raise SignatureFormatError("signature length mismatch")
    base, suite = ps.base, ps.suite
    k, r, m, depth = ps.k, ps.r, ps.m, ps.depth
    sb, db, seed = suite.salt_bytes, suite.digest_bytes, suite.seed_bytes
    head = sb + 2 * db
    step = depth * seed + db                        # path and commitment bytes per round
    upb = 2 if base.q == 16 else 1                  # units per byte
    units = _byte_units(base, data)
    end = upb * head + ps.tau * (upb * step + field_elems_per_round(ps))
    if units[end:].any():
        raise SignatureFormatError("trailing data")
    body = units[upb * head:end].reshape(ps.tau, -1)
    fields = body[:, upb * step:].copy()
    if np.any(fields >= base.q):
        raise SignatureFormatError("field element out of range")
    paths = base.pack(body[:, :upb * step])
    rounds = []
    for e, f in enumerate(fields):
        raw = paths[e * step:(e + 1) * step]
        rounds.append(RoundResponse(
            path=[raw[j * seed:(j + 1) * seed] for j in range(depth)],
            cmt_hidden=raw[depth * seed:], alpha_hidden=f[:r * m].reshape(r, m),
            aux_x=f[r * m:r * m + k], aux_beta=f[r * m + k:2 * r * m + k].reshape(r, m),
            aux_c=f[2 * r * m + k:]))
    return AdditiveSignature(salt=data[:sb], h1=data[sb:sb + db], h2=data[sb + db:head],
                             rounds=rounds)


def _aux_state(base, seed, x_n, beta_n, c_n):
    return seed + base.pack(np.concatenate([np.asarray(x_n, np.uint8),
                                            np.asarray(beta_n, np.uint8).ravel(),
                                            np.asarray(c_n, np.uint8)]))


def _aggregate_rounds(field, flat_tnt):
    """(tau, N, T) leaf rows -> (tau, D, 2, T) main-party rows, through views."""
    return hypercube_aggregate(field, flat_tnt.transpose(1, 0, 2)).transpose(2, 0, 1, 3)


def _exec_hashes(suite, base, salt, al1, v1, al2, v2):
    """H3 digest of every (round, dimension), rounds outer; operands (tau, D, ...)."""
    tau, depth = al1.shape[:2]
    packed = [base.pack_rows(op.reshape(tau * depth, -1)) for op in (al1, v1, al2, v2)]
    keys = [(encode_u16(e), bytes([kd])) for e in range(1, tau + 1)
            for kd in range(1, depth + 1)]
    return [suite.hash(H3, salt, eb, kb, *parts)
            for (eb, kb), parts in zip(keys, zip(*packed))]


def sign(ps, pk, sk, message, entropy):
    """Serialized signature of ``message``; deterministic in all inputs."""
    x, beta = sk.sign_inputs()
    sig = _sign_core(ps, pk, x, beta, message, entropy)
    return encode(ps, sig)


def _sign_core(ps, pk, x, beta, message, entropy, cheat_leaf=None,
               ch1_override=None, ch2_override=None):
    base, ext = ps.base, ps.ext
    suite = ps.suite
    n_parties, depth, tau = ps.n_parties, ps.depth, ps.tau
    dims = ps.share_dims
    r, m = ps.r, ps.m
    pk_op = PkOperand.of(pk)
    pk_bytes = pk.body_bytes()

    rng = suite.xof(X_SIGN, entropy)
    salt = rng.read(suite.salt_bytes)

    trees, cmts_all, h0s = [], [], []
    flat_all = np.empty((tau, n_parties, dims.total), np.uint8)
    a_plains = np.empty((tau, r, m), np.uint8)
    c_plains = np.empty((tau, m), np.uint8)
    w_beta = beta_map(ext, beta)
    for e in range(1, tau + 1):
        tree = SeedTree.expand(suite, rng.read(suite.seed_bytes), salt, e, n_parties)
        flat_all[e - 1], a_plains[e - 1], c_plains[e - 1] = additive_share(
            suite, salt, e, tree.leaves(), dims, base, ext, x, beta, w_beta)
        states = tree.leaves()
        xn, bn, _, cn = dims.split(flat_all[e - 1, -1])
        states[-1] = _aux_state(base, states[-1], xn, bn, cn)
        cmts = commit(suite, salt, e, range(1, n_parties + 1), states)
        h0s.append(suite.hash(H1, salt, encode_u16(e), *cmts))
        trees.append(tree)
        cmts_all.append(cmts)

    h1 = suite.hash(H2, salt, message, *h0s)
    ch1 = ch1_override or derive_challenge1(suite, h1, ext, ps.n, tau)
    batch = ChallengeBatch(ext, r, ch1)

    # one batched run: row 0 = plaintext, rows 1..D = side-1 main parties
    mains = _aggregate_rounds(base, flat_all)               # (tau, D, 2, T)
    rows = np.concatenate([plain_rows(x, beta, a_plains, c_plains)[:, None],
                           mains[:, :, 0]], axis=1)
    alphas, zs = batch.broadcast_alpha(pk_op, rows, np.ones(depth + 1, bool))
    alpha_plain = alphas[:, 0]
    al1 = alphas[:, 1:]
    vs = batch.broadcast_v(zs, rows, alphas[:, :1])
    v_plain = vs[:, 0]
    v1 = vs[:, 1:]
    if cheat_leaf is None:
        assert not v_plain.any(), "witness does not satisfy the rank bound"
    al2 = ext.sub(alpha_plain[:, None], al1)
    v2 = ext.sub(v_plain[:, None], v1)
    if cheat_leaf is not None:
        delta = ext.neg(v_plain)
        for kdim in range(1, depth + 1):
            if (cheat_leaf - 1) >> (kdim - 1) & 1 == 0:
                v1[:, kdim - 1] = ext.add(v1[:, kdim - 1], delta)
            else:
                v2[:, kdim - 1] = ext.add(v2[:, kdim - 1], delta)

    exec_hashes = _exec_hashes(suite, base, salt, al1, v1, al2, v2)
    h2 = suite.hash(H4, message, pk_bytes, salt, h1, *exec_hashes)
    ch2 = ch2_override or derive_challenge2_additive(suite, h2, n_parties, tau)

    istars = np.asarray(ch2)
    al_hidden, _ = batch.broadcast_alpha(
        pk_op, flat_all[np.arange(tau), istars - 1][:, None], (istars == 1)[:, None])
    # leaf N's aux corrections; zeros where leaf N is the hidden one
    aux_x, aux_beta, _, aux_c = dims.split(
        np.where((istars == n_parties)[:, None], 0, flat_all[:, -1]))

    rounds = []
    for e in range(1, tau + 1):
        istar = ch2[e - 1]
        rounds.append(RoundResponse(
            path=trees[e - 1].sibling_path(istar),
            cmt_hidden=cmts_all[e - 1][istar - 1],
            alpha_hidden=al_hidden[e - 1, 0], aux_x=aux_x[e - 1],
            aux_beta=aux_beta[e - 1], aux_c=aux_c[e - 1]))

    return AdditiveSignature(salt=salt, h1=h1, h2=h2, rounds=rounds)


def verify(ps, pk, message, data):
    """Accept/reject; malformed input rejects (CLI separates that case)."""
    try:
        sig = decode(ps, data)
    except SignatureFormatError:
        return False
    ok, _ = verify_decoded(ps, pk, message, sig)
    return ok


def verify_decoded(ps, pk, message, sig):
    """Returns (accept, per-round reconstructed broadcast details)."""
    base, ext = ps.base, ps.ext
    suite = ps.suite
    n_parties, depth, tau = ps.n_parties, ps.depth, ps.tau
    dims = ps.share_dims
    pk_op = PkOperand.of(pk)

    ch1 = derive_challenge1(suite, sig.h1, ext, ps.n, tau)
    ch2 = derive_challenge2_additive(suite, sig.h2, n_parties, tau)
    istars = np.asarray(ch2)

    h0s = []
    flat_all = np.empty((tau, n_parties, dims.total), np.uint8)
    for e in range(1, tau + 1):
        rr = sig.rounds[e - 1]
        istar = ch2[e - 1]
        if istar == n_parties and (rr.aux_x.any() or rr.aux_beta.any() or rr.aux_c.any()):
            return False, None
        try:
            leaves = leaves_from_path(suite, rr.path, istar, sig.salt, e, n_parties)
        except ValueError:
            return False, None
        flat = expand_leaf_shares(suite, sig.salt, e, leaves, dims, base)
        if istar != n_parties:
            flat[-1] = plain_rows(rr.aux_x, rr.aux_beta, dims.split(flat[-1])[2], rr.aux_c)
            # leaf N's committed state is its seed and its aux corrections
            leaves[-1] = _aux_state(base, leaves[-1], rr.aux_x, rr.aux_beta, rr.aux_c)
        flat_all[e - 1] = flat
        opened = [i for i in range(1, n_parties + 1) if i != istar]
        cmts = commit(suite, sig.salt, e, opened, [leaves[i - 1] for i in opened])
        cmts.insert(istar - 1, rr.cmt_hidden)
        h0s.append(suite.hash(H1, sig.salt, encode_u16(e), *cmts))

    batch = ChallengeBatch(ext, ps.r, ch1)
    mains = _aggregate_rounds(base, flat_all)               # (tau, D, 2, T)
    bits = (istars[:, None] - 1 >> np.arange(depth)[None, :]) & 1   # (tau, D)
    e_idx = np.repeat(np.arange(tau)[:, None], depth, axis=1)
    d_idx = np.broadcast_to(np.arange(depth)[None, :], (tau, depth))
    full_rows = mains[e_idx, d_idx, 1 - bits]               # (tau, D, T)
    # alpha is affine in the share: the opened alpha is alpha(sum of the
    # opened leaves, whose hidden row is zero) plus the hidden leaf's share
    sum_rows = base.add(mains[:, 0, 0], mains[:, 0, 1])[:, None]   # (tau, 1, T)
    rows = np.concatenate([full_rows, sum_rows], axis=1)    # (tau, D + 1, T)
    offsets = np.concatenate([bits == 1, istars[:, None] != 1], axis=1)
    alphas, zs = batch.broadcast_alpha(pk_op, rows, offsets)
    al_full = alphas[:, :depth]
    alpha_hid = np.stack([rr.alpha_hidden for rr in sig.rounds])
    al_open = ext.add(alphas[:, depth:], alpha_hid[:, None])   # (tau, 1, r, m)
    al_hidden_side = ext.sub(al_open, al_full)
    v_full = batch.broadcast_v(zs[:, :depth], rows[:, :depth], al_open)
    v_hidden_side = ext.neg(v_full)
    # the hidden leaf sits on side 2 of dimension k when its bit k is set
    side1_full = bits.astype(bool)
    exec_hashes = _exec_hashes(
        suite, base, sig.salt,
        np.where(side1_full[..., None, None], al_full, al_hidden_side),
        np.where(side1_full[..., None], v_full, v_hidden_side),
        np.where(side1_full[..., None, None], al_hidden_side, al_full),
        np.where(side1_full[..., None], v_hidden_side, v_full))

    h1bar = suite.hash(H2, sig.salt, message, *h0s)
    h2bar = suite.hash(H4, message, pk.body_bytes(), sig.salt, h1bar, *exec_hashes)
    details = {"alpha_open": np.broadcast_to(al_open, al_full.shape), "istars": ch2}
    return h1bar == sig.h1 and h2bar == sig.h2, details
