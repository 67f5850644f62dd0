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

from .bitio import NibbleReader, NibbleWriter, SignatureFormatError
from .hashing import (H1, H2, H3, H4, X_SIGN, commit,
                      derive_challenge1, derive_challenge2_additive, encode_u16)
from .mpc import ChallengeBatch, PkOperand
from .sharing import (additive_share, beta_map, expand_leaf_shares,
                      hypercube_aggregate)
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


def encode(ps, sig):
    w = NibbleWriter()
    base = ps.base
    w.write_bytes(sig.salt + sig.h1 + sig.h2)
    for rr in sig.rounds:
        w.write_bytes(b"".join(rr.path) + rr.cmt_hidden)
        flat = np.concatenate([rr.alpha_hidden.ravel(), rr.aux_x,
                               rr.aux_beta.ravel(), rr.aux_c])
        if base.q == 16:
            w.write_nibbles(flat)
        else:
            w.write_bytes(base.pack(flat))
    out = w.getvalue()
    assert len(out) == signature_size_bytes(ps)
    return out


def decode(ps, data):
    if len(data) != signature_size_bytes(ps):
        raise SignatureFormatError("signature length mismatch")
    base = ps.base
    suite = ps.suite
    k, r, m = ps.k, ps.r, ps.m
    rd = NibbleReader(data)
    try:
        salt = rd.read_bytes(suite.salt_bytes)
        h1 = rd.read_bytes(suite.digest_bytes)
        h2 = rd.read_bytes(suite.digest_bytes)
        rounds = []
        nfield = field_elems_per_round(ps)
        for _ in range(ps.tau):
            raw = rd.read_bytes(ps.depth * suite.seed_bytes)
            path = [raw[j * suite.seed_bytes:(j + 1) * suite.seed_bytes]
                    for j in range(ps.depth)]
            cmt_hidden = rd.read_bytes(suite.digest_bytes)
            if base.q == 16:
                flat = rd.read_nibbles(nfield)
            else:
                flat = base.unpack(rd.read_bytes(base.packed_size(nfield)), nfield)
            alpha = flat[:r * m].reshape(r, m)
            aux_x = flat[r * m:r * m + k]
            aux_beta = flat[r * m + k:2 * r * m + k].reshape(r, m)
            aux_c = flat[2 * r * m + k:]
            rounds.append(RoundResponse(path, cmt_hidden, alpha, aux_x, aux_beta, aux_c))
        if rd.remaining_nibbles() > 1 or (rd.remaining_nibbles() == 1 and rd.read_nibbles(1)[0]):
            raise SignatureFormatError("trailing data")
    except ValueError as exc:
        raise SignatureFormatError(str(exc)) from None
    return AdditiveSignature(salt=salt, h1=h1, h2=h2, rounds=rounds)


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
    k, r, m = ps.k, ps.r, ps.m
    t_cols = dims.total
    pk_op = PkOperand.of(pk)
    pk_bytes = pk.body_bytes()
    x = np.asarray(x, np.uint8)
    beta = np.asarray(beta, np.uint8)

    rng = suite.xof(X_SIGN, entropy)
    salt = rng.read(suite.salt_bytes)

    trees, cmts_all, h0s = [], [], []
    flat_all = np.empty((tau, n_parties, t_cols), np.uint8)
    a_plains = np.empty((tau, r, m), np.uint8)
    c_plains = np.empty((tau, m), np.uint8)
    w_beta = beta_map(ext, beta)
    for e in range(1, tau + 1):
        tree = SeedTree.expand(suite, rng.read(suite.seed_bytes), salt, e, n_parties)
        shares, a_plain, c_plain = additive_share(
            suite, salt, e, tree.leaves(), dims, base, ext, x, beta, w_beta)
        flat_all[e - 1] = shares.flat
        a_plains[e - 1] = a_plain
        c_plains[e - 1] = c_plain
        states = tree.leaves()
        states[-1] = _aux_state(base, states[-1], shares.x[-1], shares.beta[-1],
                                shares.c[-1])
        cmts = commit(suite, salt, e, range(1, n_parties + 1), states)
        h0s.append(suite.hash(H1, salt, encode_u16(e), *cmts))
        trees.append(tree)
        cmts_all.append(cmts)

    h1 = suite.hash(H2, salt, message, *h0s)
    ch1 = ch1_override or derive_challenge1(suite, h1, ext, ps.n, tau)
    batch = ChallengeBatch(ext, r, ch1)

    # one batched run: row 0 = plaintext, rows 1..D = side-1 main parties
    mains = _aggregate_rounds(base, flat_all)               # (tau, D, 2, T)
    side1 = mains[:, :, 0, :]
    rows = np.concatenate([
        np.broadcast_to(np.concatenate([x, beta.ravel(),
                                        np.zeros(r * m + m, np.uint8)]),
                        (tau, 1, t_cols)),
        side1], axis=1)
    rows_x, _, rows_a, _ = dims.split(rows)
    rows_a = rows_a.copy()
    rows_a[:, 0] = a_plains
    alphas, zs = batch.broadcast_alpha(pk_op, rows_x, rows_a, np.ones(depth + 1, bool))
    alpha_plain = alphas[:, 0]
    al1 = alphas[:, 1:]
    _, beta_rows, _, c_rows = dims.split(rows)
    beta_rows = beta_rows.copy()
    beta_rows[:, 0] = np.broadcast_to(beta, (tau, r, m))
    c_rows = c_rows.copy()
    c_rows[:, 0] = c_plains
    vs = batch.broadcast_v(zs, beta_rows, c_rows, alpha_plain[:, None])
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

    hidden_rows = flat_all[np.arange(tau), np.asarray(ch2) - 1][:, None, :]
    hx, _, ha, _ = dims.split(hidden_rows)
    al_hidden, _ = batch.broadcast_alpha(
        pk_op, hx, ha, (np.asarray(ch2) == 1)[:, None])

    rounds = []
    for e in range(1, tau + 1):
        istar = ch2[e - 1]
        if istar == n_parties:
            aux = (np.zeros(k, np.uint8), np.zeros((r, m), np.uint8),
                   np.zeros(m, np.uint8))
        else:
            xn, bn, an_, cn = dims.split(flat_all[e - 1, n_parties - 1])
            aux = (xn, bn, cn)
        rounds.append(RoundResponse(
            path=trees[e - 1].sibling_path(istar),
            cmt_hidden=cmts_all[e - 1][istar - 1],
            alpha_hidden=al_hidden[e - 1, 0], aux_x=aux[0],
            aux_beta=aux[1], aux_c=aux[2]))

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
        shares = expand_leaf_shares(suite, sig.salt, e, leaves, dims, base)
        if istar != n_parties:
            shares.flat[-1] = np.concatenate([rr.aux_x, rr.aux_beta.ravel(),
                                              shares.a[-1].ravel(), rr.aux_c])
            # leaf N's committed state is its seed and its aux corrections
            leaves[-1] = _aux_state(base, leaves[-1], rr.aux_x, rr.aux_beta, rr.aux_c)
        flat_all[e - 1] = shares.flat
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
    rows_x, rows_beta, rows_a, rows_c = dims.split(rows)
    alphas, zs = batch.broadcast_alpha(pk_op, rows_x, rows_a, offsets)
    al_full = alphas[:, :depth]
    alpha_hid = np.stack([rr.alpha_hidden for rr in sig.rounds])
    al_open = ext.add(alphas[:, depth:], alpha_hid[:, None])   # (tau, 1, r, m)
    al_hidden_side = ext.sub(al_open, al_full)
    v_full = batch.broadcast_v(zs[:, :depth], rows_beta[:, :depth],
                               rows_c[:, :depth], al_open)
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
