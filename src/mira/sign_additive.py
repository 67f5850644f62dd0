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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitio import DIGEST, ELEM, SEED, Layout, Signature, SignatureFormatError
from .hashing import (H1, H2, H3, H4, X_SIGN, commit,
                      derive_challenge1, derive_challenge2_additive, encode_u16)
from .mpc import ChallengeBatch, PkOperand
from .sharing import (additive_share, beta_map, expand_leaf_shares,
                      hypercube_aggregate, plain_rows)
from .trees import SeedTree, leaves_from_path


@dataclass
class RoundResponse:
    """One round's response; its fields are the layout's, in wire order."""
    path: list          # D sibling seeds, root side first
    cmt_hidden: bytes
    alpha_hidden: np.ndarray   # (r, m)
    aux_x: np.ndarray          # (k,)
    aux_beta: np.ndarray       # (r, m)
    aux_c: np.ndarray          # (m,)


@lru_cache(maxsize=None)
def layout(ps):
    """Per round the byte fields, then one state row's worth of elements."""
    r, m = ps.r, ps.m
    return Layout(ps, (
        ("path", SEED, (ps.depth,)), ("cmt_hidden", DIGEST, ()), ("alpha_hidden", ELEM, (r, m)),
        ("aux_x", ELEM, (ps.k,)), ("aux_beta", ELEM, (r, m)), ("aux_c", ELEM, (m,))), stream=True)


def encode(ps, sig):
    """The header bytes, then the rounds' unit stream packed at once.

    With an odd unit count per round every other round starts mid-byte;
    only the stream's last byte is padded.
    """
    base, lay = ps.base, layout(ps)
    rounds = sig.rounds
    columns = []
    for name, unit, shape in lay.fields:
        values = [getattr(rr, name) for rr in rounds]
        if unit != ELEM:                    # byte strings, or lists of them
            values = lay.units(b"".join(b"".join(v) if shape else v for v in values))
        columns.append(np.array(values).reshape(len(rounds), -1))
    out = lay.header_bytes(sig) + base.pack(np.concatenate(columns, axis=1).ravel())
    assert len(out) == lay.max_bytes
    return out


def decode(ps, data):
    base, lay = ps.base, layout(ps)
    if len(data) != lay.max_bytes:
        raise SignatureFormatError("signature length mismatch")
    tau, upb = ps.tau, lay.units_per_byte
    units = lay.units(data[lay.head:])
    end = tau * sum(lay.widths)
    if units[end:].any():
        raise SignatureFormatError("trailing data")
    body = units[:end].reshape(tau, -1)
    columns, at = [], 0
    for (_, unit, shape), width in zip(lay.fields, lay.widths):
        block = body[:, at:at + width]
        at += width
        if unit == ELEM:
            if upb == 1 and np.any(block >= base.q):     # a nibble is below q = 16
                raise SignatureFormatError("field element out of range")
            columns.append(block.reshape((tau,) + shape))
            continue
        raw, step = base.pack(block), width // upb      # each round's bytes, back to back
        size = step // math.prod(shape)                 # one seed or digest
        columns.append([[raw[p:p + size] for p in range(e, e + step, size)] if shape
                        else raw[e:e + step] for e in range(0, tau * step, step)])
    return lay.signature(data, [RoundResponse(*vals) for vals in zip(*columns)])


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
    keys = [encode_u16(e) + bytes([kd]) for e in range(1, tau + 1) for kd in range(1, depth + 1)]
    return suite.hash_many(H3, salt, [b"".join(row) for row in zip(keys, *packed)])


def sign(ps, pk, sk, message, entropy):
    """Serialized signature of ``message``; deterministic in all inputs.

    Raises ``keys.KeyMismatchError`` if ``ps`` or ``pk`` is not ``sk``'s own.
    """
    sk.check_pair(ps, pk)
    x, beta = sk.sign_inputs()
    sig = _sign_core(ps, pk, x, beta, message, entropy)
    return encode(ps, sig)


def _sign_core(ps, pk, x, beta, message, entropy):
    base, ext = ps.base, ps.ext
    suite = ps.suite
    n_parties, depth, tau = ps.n_parties, ps.depth, ps.tau
    dims = ps.share_dims
    r, m = ps.r, ps.m
    pk_op = PkOperand.of(pk)
    pk_bytes = pk.body_bytes()

    # the salt and every round's root seed, squeezed with one read
    sb, seed_bytes = suite.salt_bytes, suite.seed_bytes
    randomness = suite.xof(X_SIGN, entropy).read(sb + tau * seed_bytes)
    salt = randomness[:sb]

    trees, cmts_all, h0s = [], [], []
    flat_all = np.empty((tau, n_parties, dims.total), np.uint8)
    a_plains = np.empty((tau, r, m), np.uint8)
    c_plains = np.empty((tau, m), np.uint8)
    w_beta = beta_map(ext, beta)
    for e in range(1, tau + 1):
        root_seed = randomness[sb + (e - 1) * seed_bytes:sb + e * seed_bytes]
        tree = SeedTree.expand(suite, root_seed, salt, e, n_parties)
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
    ch1 = derive_challenge1(suite, h1, ext, ps.n, tau)
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
    assert not v_plain.any(), "witness does not satisfy the rank bound"
    al2 = ext.sub(alpha_plain[:, None], al1)
    v2 = ext.sub(v_plain[:, None], v1)

    exec_hashes = _exec_hashes(suite, base, salt, al1, v1, al2, v2)
    h2 = suite.hash(H4, message, pk_bytes, salt, h1, *exec_hashes)
    ch2 = derive_challenge2_additive(suite, h2, n_parties, tau)

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

    return Signature(salt, h1, h2, rounds)


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
    n_parties, depth, tau = ps.n_parties, ps.depth, ps.tau
    dims = ps.share_dims

    ch2 = derive_challenge2_additive(suite, sig.h2, n_parties, tau)
    istars = np.asarray(ch2)

    h0s = []
    flat_all = np.empty((tau, n_parties, dims.total), np.uint8)
    for e in range(1, tau + 1):
        rr = sig.rounds[e - 1]
        istar = ch2[e - 1]
        if istar == n_parties and (rr.aux_x.any() or rr.aux_beta.any() or rr.aux_c.any()):
            return False
        try:
            leaves = leaves_from_path(suite, rr.path, istar, sig.salt, e, n_parties)
        except ValueError:
            return False
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
    # h1 depends on the round digests alone: check it before the rank check
    h1bar = suite.hash(H2, sig.salt, message, *h0s)
    if h1bar != sig.h1:
        return False

    batch = ChallengeBatch(ext, ps.r, derive_challenge1(suite, sig.h1, ext, ps.n, tau))
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
    alphas, zs = batch.broadcast_alpha(PkOperand.of(pk), rows, offsets)
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

    h2bar = suite.hash(H4, message, pk.body_bytes(), sig.salt, h1bar, *exec_hashes)
    return h2bar == sig.h2
