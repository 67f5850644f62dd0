"""Seed trees with sibling-path reveal, and Merkle commitment trees.

Seed tree: a complete binary tree of lambda-bit seeds, heap-indexed from 1
(children of node i are 2i and 2i+1).  Every expansion binds (salt, round,
parent node index), so seeds are never reused across rounds or positions.
Revealing the sibling path of one leaf lets a verifier recompute every
other leaf while the hidden one stays unreachable.

Merkle tree: leaf values are hashed once, the hashed level is padded with
all-zero digests up to a power of two, and parents hash left || right.
The empty-tree and padding conventions are part of the wire format.
"""

from functools import cached_property

from .hashing import H_MERKLE, X_TREE, encode_u16, encode_u32


class SeedTree:
    def __init__(self, n_leaves, nodes):
        self.n_leaves = n_leaves
        self.nodes = nodes  # heap array, index 0 unused

    @classmethod
    def expand(cls, suite, root_seed, salt, round_index, n_leaves):
        if n_leaves < 2 or n_leaves & (n_leaves - 1):
            raise ValueError("seed tree size must be a power of two >= 2")
        nodes = [None] * (2 * n_leaves)
        nodes[1] = root_seed
        _expand_levels(suite, nodes, salt, round_index, n_leaves)
        return cls(n_leaves, nodes)

    def leaves(self):
        return self.nodes[self.n_leaves:]

    def sibling_path(self, hidden):
        """Seeds revealing all leaves except ``hidden``; root side first."""
        if not 1 <= hidden <= self.n_leaves:
            raise ValueError("leaf index out of range")
        node = self.n_leaves + hidden - 1
        path = []
        while node > 1:
            path.append(self.nodes[node ^ 1])
            node >>= 1
        path.reverse()
        return path


def _expand_levels(suite, nodes, salt, round_index, n_leaves):
    """Derive the children of every known inner node of the heap list
    ``nodes`` (None where unknown), one ``xof_many`` call per tree level."""
    prefix = salt + encode_u16(round_index)
    sb = suite.seed_bytes
    lo = 1
    while lo < n_leaves:
        known = [i for i in range(lo, 2 * lo) if nodes[i] is not None]
        both = suite.xof_many(X_TREE, prefix, [encode_u32(i) + nodes[i] for i in known], 2 * sb)
        for i, pair in zip(known, both):
            nodes[2 * i] = pair[:sb]
            nodes[2 * i + 1] = pair[sb:]
        lo *= 2


def leaves_from_path(suite, path, hidden, salt, round_index, n_leaves):
    """Rebuild all leaf seeds except ``hidden`` from its sibling path.

    Returns a list of length n_leaves (1-based leaf i at slot i-1) with None
    at the hidden position.
    """
    if n_leaves < 2 or n_leaves & (n_leaves - 1):
        raise ValueError("seed tree size must be a power of two >= 2")
    if not 1 <= hidden <= n_leaves:
        raise ValueError("leaf index out of range")
    if len(path) != (n_leaves - 1).bit_length():
        raise ValueError("sibling path length mismatch")
    nodes = [None] * (2 * n_leaves)
    node = n_leaves + hidden - 1
    for seed in reversed(path):          # leaf side first
        nodes[node ^ 1] = seed
        node >>= 1
    _expand_levels(suite, nodes, salt, round_index, n_leaves)
    return nodes[n_leaves:]


# ---------------------------------------------------------------------------
# Merkle trees

class MerkleTree:
    """Leaf values and, built on first use, every level of their tree.

    ``merkle_root`` and ``merkle_auth`` take the tree, so a signer that
    needs both hashes it only once.  The build happens inside the first of
    those calls, which keeps its cost under the Merkle layer in perfbench's
    outside-in trace.
    """

    def __init__(self, suite, leaf_values):
        if not leaf_values:
            raise ValueError("empty Merkle tree")
        self.suite = suite
        self.leaf_values = leaf_values

    @cached_property
    def levels(self):
        suite = self.suite
        n = len(self.leaf_values)
        hashed = suite.hash_many(H_MERKLE, b"", self.leaf_values)
        pad = 1 << max(0, (n - 1).bit_length())
        zero = bytes(suite.digest_bytes)
        level = hashed + [zero] * (pad - n)
        levels = [level]
        while len(level) > 1:
            pairs = [a + b for a, b in zip(level[::2], level[1::2])]
            level = suite.hash_many(H_MERKLE, b"", pairs)
            levels.append(level)
        return levels


def merkle_root(tree):
    """Root digest of a ``MerkleTree``."""
    return tree.levels[-1][0]


def merkle_auth(tree, indices):
    """Digests needed to recompute the root of ``tree`` from its leaves at
    ``indices``.

    1-based indices; output is ordered bottom-up, left to right within each
    level.  Size is at most |I| * log2(N/|I|) + |I| digests.
    """
    indices = sorted(set(indices))
    if not indices or indices[0] < 1 or indices[-1] > len(tree.leaf_values):
        raise ValueError("bad auth indices")
    known = {i - 1 for i in indices}
    auth = []
    for level in tree.levels[:-1]:
        parents = set()
        for pos in sorted(known):
            sib = pos ^ 1
            if sib not in known:
                auth.append(level[sib])
            parents.add(pos >> 1)
        known = parents
    return auth


def merkle_root_from_auth(suite, leaf_hashes, indices, auth, n_leaves):
    """Recompute the roots of several same-size trees, one per round, from
    their (already hashed) opened leaves.

    The arguments are per-round lists: leaf_hashes[b][j] must be the level-0
    digest H_M(v) for 1-based leaf index indices[b][j], and auth[b] is round
    b's path.  Returns one root per round, None where a round's indices or
    path have the wrong shape.  Each level of a round is a sorted list of
    known positions with their digests; a known node's missing sibling is the
    round's next auth digest, taken left to right.  All rounds climb together,
    one ``hash_many`` per level, so digests come level by level, and within
    a level round by round.  A round whose path runs out stops there; the
    pairs it formed on that level are still hashed.
    """
    rounds = []                      # per round [positions, digests, auth iterator] or None
    for hashes, idx, path in zip(leaf_hashes, indices, auth):
        order = sorted(range(len(idx)), key=idx.__getitem__)
        pos = [idx[j] - 1 for j in order]
        if not pos or pos[0] < 0 or pos[-1] >= n_leaves or len(set(pos)) < len(pos):
            rounds.append(None)
        else:
            rounds.append([pos, [hashes[j] for j in order], iter(path)])
    width = 1 << max(0, (n_leaves - 1).bit_length())
    while width > 1:
        pairs, climbed = [], []
        for b, state in enumerate(rounds):
            if state is None:
                continue
            pos, dig, it = state
            start, up = len(pairs), []
            j, known = 0, len(pos)
            try:
                while j < known:
                    p = pos[j]
                    if p & 1:
                        pairs.append(next(it) + dig[j])
                        j += 1
                    elif j + 1 < known and pos[j + 1] == p + 1:
                        pairs.append(dig[j] + dig[j + 1])
                        j += 2
                    else:
                        pairs.append(dig[j] + next(it))
                        j += 1
                    up.append(p >> 1)
            except StopIteration:
                rounds[b] = None
                continue
            climbed.append((state, start, up))
        digests = suite.hash_many(H_MERKLE, b"", pairs)
        for state, start, up in climbed:
            state[0], state[1] = up, digests[start:start + len(up)]
        width >>= 1
    return [None if state is None or next(state[2], None) is not None else state[1][0]
            for state in rounds]
