"""Additive-sharing signature: hypercube main parties, seed-tree openings.

Per round the signer expands N = 2^D leaf input shares from a salted seed
tree, commits to every leaf state, and answers the first challenge with
D + 1 rank-check executions only: the plaintext run plus one main party
per dimension; the opposite main shares follow by subtracting from the
plaintext broadcast.  The leaf shares stay as their streams' packed bytes
and are summed as such; of a round's N leaf rows only D + 1 sums, and the
hidden leaf's row, are ever unpacked.  Leaf N's corrections, and so its
commitment, wait for c of every round, one product for the signature.
The second challenge hides one leaf; the response opens all other seeds
via the sibling path, the hidden leaf's commitment and its broadcast alpha
share, plus the aux corrections of leaf N.  The verifier also runs D + 1
executions per round: per dimension the main party without the hidden
leaf, and the sum of all opened leaves.

The aux block is part of the fixed signature layout even when the hidden
leaf is N itself; in that case it is zeroed (leaf N's state must not leak)
and the verifier rejects any nonzero aux, so no bit of a signature is
malleable.
"""

import math
from functools import lru_cache

import numpy as np

from .bitio import DIGEST, ELEM, SEED, Layout, Signature, SignatureFormatError
from .hashing import (H1, H2, H3, H4, X_SIGN, commit, derive_challenge1,
                      derive_challenge2_additive, encode_u16, party_suffixes)
from .mpc import ChallengeBatch, PkOperand
from .sharing import (additive_share, expand_leaf_shares, hypercube_aggregate, leaf_elements,
                      plain_rows)
from .trees import SeedTree, leaves_from_path


@lru_cache(maxsize=None)
def layout(ps):
    """Per round the byte fields, then one state row's worth of elements:
    the D sibling seeds of ``path`` (root side first), the hidden leaf's
    commitment and broadcast alpha share, and leaf N's aux corrections."""
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
    columns = []
    for name, unit, shape in lay.fields:
        values = sig.columns[name]
        if unit != ELEM:                    # byte strings, or lists of them
            values = lay.units(b"".join(b"".join(v) if shape else v for v in values))
        columns.append(values.reshape(ps.tau, -1))
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
    return lay.signature(data, columns)


def _aux_bytes(base, x_n, beta_n, c_n):
    """Per round, leaf N's committed state after its seed: its x, beta and c
    corrections, packed; arguments (tau, k), (tau, r, m) and (tau, m)."""
    return base.pack_rows(np.concatenate([x_n, beta_n.reshape(len(x_n), -1), c_n], axis=1))


def _aggregate_rounds(field, rows, t):
    """One round's side-1 main parties (D, T) and the sum of its leaves
    1..N-1 (T,), as elements, from ``expand_leaf_shares``'s raw rows.

    Leaf N lies on side 2 of every dimension (all its coordinate bits are
    set), so its zero raw row leaves side 1 whole; only the D side-1 rows
    and the raw total are unpacked.
    """
    sides = hypercube_aggregate(field, rows)                    # (D, 2, W) raw
    return (leaf_elements(field, sides[:, 0], t),
            leaf_elements(field, field.add(sides[0, 0], sides[0, 1]), t))


def _exec_hashes(suite, base, salt, al1, v1, al2, v2):
    """H3 digest of every (round, dimension), rounds outer; operands (tau, D, ...)."""
    tau, depth = al1.shape[:2]
    packed = [base.pack_rows(op.reshape(tau * depth, -1)) for op in (al1, v1, al2, v2)]
    keys = [encode_u16(e) + bytes([kd]) for e in range(1, tau + 1) for kd in range(1, depth + 1)]
    return suite.hash_many(H3, salt, [b"".join(row) for row in zip(keys, *packed)])


def sign(ps, pk, sk, message, entropy):
    """Serialized signature of ``message``; deterministic in all inputs.

    The salt and every round's seeds derive from ``entropy`` alone, so one
    ``entropy`` must never sign two different messages: two such signatures
    that hide different leaves of a round open every leaf seed of it, and
    so the witness.  Raises ``keys.KeyMismatchError`` if ``ps`` or ``pk``
    is not ``sk``'s own.
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
    t = dims.total
    r, m = ps.r, ps.m
    pk_op = PkOperand.of(pk)
    pk_bytes = pk.body_bytes()

    # the salt and every round's root seed, squeezed with one read
    sb, seed_bytes = suite.salt_bytes, suite.seed_bytes
    randomness = suite.xof(X_SIGN, entropy).read(sb + tau * seed_bytes)
    salt = randomness[:sb]

    # per round the leaf rows stay raw; c of all rounds is one product, which
    # leaf N's corrections and so its commitment wait for
    trees, suffixes_all, rows_all = [], [], []
    heads = np.empty((tau, t), np.uint8)
    a_ns = np.empty((tau, r, m), np.uint8)
    side1 = np.empty((tau, depth, t), np.uint8)
    for e in range(1, tau + 1):
        root_seed = randomness[sb + (e - 1) * seed_bytes:sb + e * seed_bytes]
        tree = SeedTree.expand(suite, root_seed, salt, e, n_parties)
        suffixes = party_suffixes(range(1, n_parties + 1), tree.leaves())
        rows, a_ns[e - 1] = expand_leaf_shares(suite, salt, e, suffixes, dims, base)
        side1[e - 1], heads[e - 1] = _aggregate_rounds(base, rows, t)
        trees.append(tree)
        suffixes_all.append(suffixes)
        rows_all.append(rows)
    plains, leaf_n = additive_share(base, ext, dims, x, beta, heads, a_ns)
    xn, bn, _, cn = dims.split(leaf_n)
    aux = _aux_bytes(base, xn, bn, cn)

    cmts_all, h0s = [], []
    for e in range(1, tau + 1):
        suffixes = suffixes_all[e - 1]
        cmts = commit(suite, salt, e, suffixes[:-1] + [suffixes[-1] + aux[e - 1]])
        h0s.append(suite.hash(H1, salt, encode_u16(e), *cmts))
        cmts_all.append(cmts)

    h1 = suite.hash(H2, salt, message, *h0s)
    batch = ChallengeBatch(ext, r, *derive_challenge1(suite, h1, ext, ps.n, tau))

    # one batched run: row 0 = plaintext, rows 1..D = side-1 main parties
    rows = np.concatenate([plains[:, None], side1], axis=1)
    alphas, ezs = batch.broadcast_alpha(pk_op, rows, np.ones(depth + 1, bool))
    alpha_plain = alphas[:, 0]
    al1 = alphas[:, 1:]
    vs = batch.broadcast_v(ezs, rows, alphas[:, :1])
    v_plain = vs[:, 0]
    v1 = vs[:, 1:]
    assert not v_plain.any(), "witness does not satisfy the rank bound"
    al2 = ext.sub(alpha_plain[:, None], al1)
    v2 = ext.sub(v_plain[:, None], v1)

    exec_hashes = _exec_hashes(suite, base, salt, al1, v1, al2, v2)
    h2 = suite.hash(H4, message, pk_bytes, salt, h1, *exec_hashes)
    ch2 = derive_challenge2_additive(suite, h2, n_parties, tau)

    # the hidden leaves' rows; leaf N's raw row is zero, its row is leaf_n
    istars = np.asarray(ch2)
    last = (istars == n_parties)[:, None]
    hidden = leaf_elements(base, np.stack([rows_all[e][i - 1] for e, i in enumerate(ch2)]), t)
    hidden = np.where(last, leaf_n, hidden)
    al_hidden, _ = batch.broadcast_alpha(pk_op, hidden[:, None], (istars == 1)[:, None])
    # leaf N's aux corrections; zeros where leaf N is the hidden one
    aux_x, aux_beta, _, aux_c = dims.split(np.where(last, 0, leaf_n))

    return Signature(salt, h1, h2, {
        "path": [tree.sibling_path(istar) for tree, istar in zip(trees, ch2)],
        "cmt_hidden": [cmts[istar - 1] for cmts, istar in zip(cmts_all, ch2)],
        "alpha_hidden": al_hidden[:, 0], "aux_x": aux_x, "aux_beta": aux_beta, "aux_c": aux_c})


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
    t = dims.total

    ch2 = derive_challenge2_additive(suite, sig.h2, n_parties, tau)
    istars = np.asarray(ch2)
    cols = sig.columns
    aux_x, aux_beta, aux_c = cols["aux_x"], cols["aux_beta"], cols["aux_c"]
    last = istars == n_parties
    if aux_x[last].any() or aux_beta[last].any() or aux_c[last].any():
        return False
    aux = _aux_bytes(base, aux_x, aux_beta, aux_c)

    h0s = []
    side1 = np.empty((tau, depth, t), np.uint8)
    heads = np.empty((tau, t), np.uint8)
    a_n = np.zeros((tau, ps.r, ps.m), np.uint8)       # zero where leaf N is hidden
    for e, (path, cmt_hidden) in enumerate(zip(cols["path"], cols["cmt_hidden"]), 1):
        istar = ch2[e - 1]
        try:
            leaves = leaves_from_path(suite, path, istar, sig.salt, e, n_parties)
        except ValueError:
            return False
        suffixes = party_suffixes(range(1, n_parties + 1), leaves)
        rows, a_last = expand_leaf_shares(suite, sig.salt, e, suffixes, dims, base)
        if istar != n_parties:
            a_n[e - 1] = a_last
            # leaf N's committed state is its seed and its aux corrections
            suffixes[-1] += aux[e - 1]
        side1[e - 1], heads[e - 1] = _aggregate_rounds(base, rows, t)
        del suffixes[istar - 1]
        cmts = commit(suite, sig.salt, e, suffixes)
        cmts.insert(istar - 1, cmt_hidden)
        h0s.append(suite.hash(H1, sig.salt, encode_u16(e), *cmts))
    # h1 depends on the round digests alone: check it before the rank check
    h1bar = suite.hash(H2, sig.salt, message, *h0s)
    if h1bar != sig.h1:
        return False

    batch = ChallengeBatch(ext, ps.r, *derive_challenge1(suite, sig.h1, ext, ps.n, tau))
    # the sum of the opened leaves: leaf N's row is its aux corrections and
    # its own a, and zero where it is hidden (its aux is zero then)
    totals = base.add(heads, plain_rows(aux_x, aux_beta, a_n, aux_c))
    bits = (istars[:, None] - 1 >> np.arange(depth)[None, :]) & 1   # (tau, D)
    # the main party without the hidden leaf: side 1 where the hidden leaf's
    # bit is set, else side 2 = total - side 1 (its hidden row is zero)
    side1_full = bits.astype(bool)
    full_rows = np.where(side1_full[..., None], side1, base.sub(totals[:, None], side1))
    # alpha is affine in the share: the opened alpha is alpha(sum of the
    # opened leaves, whose hidden row is zero) plus the hidden leaf's share
    rows = np.concatenate([full_rows, totals[:, None]], axis=1)    # (tau, D + 1, T)
    offsets = np.concatenate([bits == 1, istars[:, None] != 1], axis=1)
    alphas, ezs = batch.broadcast_alpha(PkOperand.of(pk), rows, offsets)
    al_full = alphas[:, :depth]
    al_open = ext.add(alphas[:, depth:], cols["alpha_hidden"][:, None])   # (tau, 1, r, m)
    al_hidden_side = ext.sub(al_open, al_full)
    v_full = batch.broadcast_v(ezs[:, :depth], rows[:, :depth], al_open)
    v_hidden_side = ext.neg(v_full)
    # the hidden leaf sits on side 2 of dimension k when its bit k is set
    exec_hashes = _exec_hashes(
        suite, base, sig.salt,
        np.where(side1_full[..., None, None], al_full, al_hidden_side),
        np.where(side1_full[..., None], v_full, v_hidden_side),
        np.where(side1_full[..., None, None], al_hidden_side, al_full),
        np.where(side1_full[..., None], v_hidden_side, v_full))

    h2bar = suite.hash(H4, message, pk.body_bytes(), sig.salt, h1bar, *exec_hashes)
    return h2bar == sig.h2
