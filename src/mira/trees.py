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

import numpy as np

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

    def leaf(self, i):
        """Leaf seed, 1-based leaf index."""
        return self.nodes[self.n_leaves + i - 1]

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
    ``nodes`` (None where unknown), one comprehension per tree level."""
    prefix = salt + encode_u16(round_index)
    sb = suite.seed_bytes
    xof = suite.xof_digest
    lo = 1
    while lo < n_leaves:
        known = [i for i in range(lo, 2 * lo) if nodes[i] is not None]
        both = [xof(X_TREE, prefix + encode_u32(i) + nodes[i], 2 * sb) for i in known]
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

    ``merkle_root`` and ``merkle_auth`` accept a tree in place of the leaf
    values, so a signer that needs both hashes the tree only once.  The
    build happens inside the first of those calls, which keeps its cost
    under the Merkle layer in perfbench's outside-in trace.
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
        hashed = [suite.hash(H_MERKLE, v) for v in self.leaf_values]
        pad = 1 << max(0, (n - 1).bit_length())
        zero = bytes(suite.digest_bytes)
        level = hashed + [zero] * (pad - n)
        levels = [level]
        while len(level) > 1:
            level = [suite.hash(H_MERKLE, level[i] + level[i + 1])
                     for i in range(0, len(level), 2)]
            levels.append(level)
        return levels


def _tree(suite, leaves):
    return leaves if isinstance(leaves, MerkleTree) else MerkleTree(suite, leaves)


def merkle_root(suite, leaves):
    """Root digest of leaf values (or of a ``MerkleTree``)."""
    return _tree(suite, leaves).levels[-1][0]


def merkle_auth(suite, leaves, indices):
    """Digests needed to recompute the root from leaves at ``indices``.

    ``leaves`` are the leaf values or a ``MerkleTree`` of them; 1-based
    indices; output is ordered bottom-up, left to right within each level.
    Size is at most |I| * log2(N/|I|) + |I| digests.
    """
    tree = _tree(suite, leaves)
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
    """Recompute the root from (already hashed) leaves at ``indices``.

    Returns None when the path has the wrong shape.  leaf_hashes[j] must be
    the level-0 digest H_M(v) for 1-based leaf index indices[j].
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
