import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mira.hashing import H_MERKLE, HashSuite
from mira.trees import (MerkleTree, SeedTree, leaves_from_path, merkle_auth, merkle_root,
                        merkle_root_from_auth)

from helpers import merkle_levels_by_node, merkle_root_from_auth_by_dict, seed_tree_by_node

SUITE = HashSuite(128)
SALT = b"\x11" * SUITE.salt_bytes


def test_expand_deterministic():
    t1 = SeedTree.expand(SUITE, b"\x01" * 16, SALT, 1, 8)
    t2 = SeedTree.expand(SUITE, b"\x01" * 16, SALT, 1, 8)
    assert t1.leaves() == t2.leaves()
    t3 = SeedTree.expand(SUITE, b"\x01" * 16, SALT, 2, 8)
    assert t1.leaves() != t3.leaves()  # round binding


@pytest.mark.parametrize("lam", [128, 192, 256])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_expand_equals_per_node_reference(lam, n):
    suite = HashSuite(lam)
    root, salt = bytes(range(suite.seed_bytes)), b"\x07" * suite.salt_bytes
    tree = SeedTree.expand(suite, root, salt, 3, n)
    assert tree.nodes == seed_tree_by_node(suite, root, salt, 3, n)


def test_reveal_example_n4_hide_2():
    # hiding leaf 2 reveals the node covering leaves 3,4 plus leaf 1
    tree = SeedTree.expand(SUITE, b"\x02" * 16, SALT, 1, 4)
    path = tree.sibling_path(2)
    assert len(path) == 2
    assert path[0] == tree.nodes[3]     # internal node of leaves 3, 4
    assert path[1] == tree.nodes[4]     # leaf 1
    got = leaves_from_path(SUITE, path, 2, SALT, 1, 4)
    seeds = tree.leaves()
    assert got[0] == seeds[0] and got[1] is None
    assert got[2] == seeds[2] and got[3] == seeds[3]


def test_path_lengths():
    tree = SeedTree.expand(SUITE, b"\x03" * 16, SALT, 1, 2)
    assert len(tree.sibling_path(1)) == 1
    tree = SeedTree.expand(SUITE, b"\x03" * 16, SALT, 1, 256)
    assert len(tree.sibling_path(77)) == 8


def test_reconstruction_exhaustive_n8():
    tree = SeedTree.expand(SUITE, b"\x04" * 16, SALT, 5, 8)
    seeds = tree.leaves()
    for hidden in range(1, 9):
        got = leaves_from_path(SUITE, tree.sibling_path(hidden), hidden, SALT, 5, 8)
        for i in range(1, 9):
            if i == hidden:
                assert got[i - 1] is None
            else:
                assert got[i - 1] == seeds[i - 1]


def test_seed_tree_property_suite():
    # criterion: reveal completeness and hiding over every size, >= 1000 cases
    rng = np.random.default_rng(0)
    cases = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        tree = SeedTree.expand(SUITE, bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
                               SALT, 1, n)
        seeds = tree.leaves()
        hid = rng.integers(1, n + 1, size=max(1000 // 8, 2))
        for hidden in hid:
            hidden = int(hidden)
            got = leaves_from_path(SUITE, tree.sibling_path(hidden), hidden, SALT, 1, n)
            assert got[hidden - 1] is None
            ok = all(got[i - 1] == seeds[i - 1] for i in range(1, n + 1) if i != hidden)
            assert ok
            cases += 1
    assert cases >= 1000


def test_tree_errors():
    with pytest.raises(ValueError):
        SeedTree.expand(SUITE, b"\x00" * 16, SALT, 1, 6)
    tree = SeedTree.expand(SUITE, b"\x00" * 16, SALT, 1, 4)
    with pytest.raises(ValueError):
        tree.sibling_path(0)
    with pytest.raises(ValueError):
        tree.sibling_path(5)
    path = tree.sibling_path(1)
    for bad in (path[:1], path + path[:1]):
        with pytest.raises(ValueError, match="length"):
            leaves_from_path(SUITE, bad, 1, SALT, 1, 4)
    for hidden in (0, 5, -1):
        with pytest.raises(ValueError, match="out of range"):
            leaves_from_path(SUITE, path, hidden, SALT, 1, 4)


def test_merkle_single_leaf():
    v = b"\xabcd leaf"
    assert merkle_root(MerkleTree(SUITE, [v])) == SUITE.hash(H_MERKLE, v)


@pytest.mark.parametrize("lam", [128, 192, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 250])
def test_merkle_levels_equal_per_node_reference(lam, n):
    # non-powers of two pad their hashed level with zero digests
    suite = HashSuite(lam)
    leaves = [bytes([i % 256, i // 256]) * (1 + i % 7) for i in range(n)]
    assert MerkleTree(suite, leaves).levels == merkle_levels_by_node(suite, leaves)


def test_merkle_round_trip_and_tamper():
    rng = np.random.default_rng(1)
    leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(16)]
    tree = MerkleTree(SUITE, leaves)
    root = merkle_root(tree)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        idx = sorted(rng.choice(16, size=k, replace=False) + 1)
        idx = [int(i) for i in idx]
        auth = merkle_auth(tree, idx)
        hashes = [SUITE.hash(H_MERKLE, leaves[i - 1]) for i in idx]
        assert merkle_root_from_auth(SUITE, [hashes], [idx], [auth], 16) == [root]
        # flip one byte of an opened leaf -> different root
        bad = leaves[idx[0] - 1]
        bad = bytes([bad[0] ^ 1]) + bad[1:]
        hashes_bad = [SUITE.hash(H_MERKLE, bad)] + hashes[1:]
        assert merkle_root_from_auth(SUITE, [hashes_bad], [idx], [auth], 16) != [root]


def test_merkle_property_suite():
    # criterion: verification + tamper rejection, >= 1000 randomized cases
    rng = np.random.default_rng(2)
    ok = 0
    for trial in range(350):
        n = int(rng.integers(2, 40))
        leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(n)]
        tree = MerkleTree(SUITE, leaves)
        root = merkle_root(tree)
        k = int(rng.integers(1, min(n, 5) + 1))
        idx = sorted(int(i) + 1 for i in rng.choice(n, size=k, replace=False))
        auth = merkle_auth(tree, idx)
        hashes = [SUITE.hash(H_MERKLE, leaves[i - 1]) for i in idx]
        assert merkle_root_from_auth(SUITE, [hashes], [idx], [auth], n) == [root]
        ok += 1
        # tamper with one auth digest (when present)
        if auth:
            j = int(rng.integers(0, len(auth)))
            bad = list(auth)
            bad[j] = bytes([bad[j][0] ^ 0x80]) + bad[j][1:]
            assert merkle_root_from_auth(SUITE, [hashes], [idx], [bad], n) != [root]
            ok += 1
        # truncated path rejects
        if auth:
            assert merkle_root_from_auth(SUITE, [hashes], [idx], [auth[:-1]], n) == [None]
            ok += 1
    assert ok >= 1000


def test_merkle_auth_size_bound():
    rng = np.random.default_rng(3)
    for n in (16, 64, 256):
        leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(n)]
        for k in (1, 2, 3, 4):
            for _ in range(20):
                idx = sorted(int(i) + 1 for i in rng.choice(n, size=k, replace=False))
                auth = merkle_auth(MerkleTree(SUITE, leaves), idx)
                assert len(auth) <= k * math.log2(n / k) + 1e-9


def test_merkle_reject_malformed_index_sets():
    leaves = [bytes([i]) * 32 for i in range(8)]
    hashes = [SUITE.hash(H_MERKLE, leaves[0])]
    assert merkle_root_from_auth(SUITE, [hashes], [[9]], [[]], 8) == [None]
    assert merkle_root_from_auth(SUITE, [hashes * 2], [[1, 1]], [[]], 8) == [None]


class _Recording:
    """A hash suite that logs every ``hash`` call before making it; a
    ``hash_many`` batch logs one call per digest, with its whole input."""

    def __init__(self, suite):
        self.suite = suite
        self.calls = []

    def hash(self, role, *parts):
        self.calls.append((role,) + parts)
        return self.suite.hash(role, *parts)

    def hash_many(self, role, prefix, suffixes):
        return [self.hash(role, prefix + s) for s in suffixes]


AUTH_EDITS = ("none", "drop_last", "drop_first", "extra", "duplicate", "swap")


@settings(max_examples=400, deadline=None)
@given(n=hs.integers(1, 40), picks=hs.lists(hs.integers(-1, 42), max_size=6),
       edit=hs.sampled_from(AUTH_EDITS))
def test_merkle_walk_matches_dict_reference(n, picks, edit):
    # index lists may repeat a leaf, fall outside [1, n] or be empty; the
    # auth path is the honest one for the in-range leaves, then edited
    leaves = [bytes([i % 256, n]) * 16 for i in range(n)]
    picks = [p % (n + 2) for p in picks]              # 0 and n + 1 fall outside
    valid = sorted({p for p in picks if 1 <= p <= n})
    auth = merkle_auth(MerkleTree(SUITE, leaves), valid) if valid else []
    if edit == "drop_last":
        auth = auth[:-1]
    elif edit == "drop_first":
        auth = auth[1:]
    elif edit == "extra":
        auth = auth + [bytes(SUITE.digest_bytes)]
    elif edit == "duplicate":
        auth = auth + auth[-1:]
    elif edit == "swap":
        auth = auth[::-1]
    hashes = [SUITE.hash(H_MERKLE, leaves[p - 1] if 1 <= p <= n else b"outside") for p in picks]
    new, ref = _Recording(SUITE), _Recording(SUITE)
    got, = merkle_root_from_auth(new, [hashes], [picks], [auth], n)
    assert got == merkle_root_from_auth_by_dict(ref, hashes, picks, auth, n)
    assert new.calls == ref.calls
    if edit == "none" and picks and len(valid) == len(picks):
        assert got == merkle_root(MerkleTree(SUITE, leaves))


def _rounds(rng, n, count):
    """``count`` honest rounds of one n-leaf tree size: (hashes, indices, auth, root)."""
    out = []
    for _ in range(count):
        leaves = [bytes(rng.integers(0, 256, 8, dtype=np.uint8)) for _ in range(n)]
        tree = MerkleTree(SUITE, leaves)
        k = int(rng.integers(1, min(n, 4) + 1))
        idx = [int(i) + 1 for i in rng.permutation(rng.choice(n, size=k, replace=False))]
        out.append(([SUITE.hash(H_MERKLE, leaves[i - 1]) for i in idx], idx,
                    merkle_auth(tree, idx), merkle_root(tree)))
    return out


def test_multi_round_roots_equal_per_round_reference():
    # random subsets of 1-4 leaves (in any order), trees of 2-256 leaves,
    # 1-14 rounds per call
    rng = np.random.default_rng(21)
    for _ in range(120):
        n = int(rng.integers(2, 257))
        rounds = _rounds(rng, n, int(rng.integers(1, 15)))
        hashes, idx, auth, roots = map(list, zip(*rounds))
        got = merkle_root_from_auth(SUITE, hashes, idx, auth, n)
        assert got == [merkle_root_from_auth_by_dict(SUITE, *r[:3], n) for r in rounds]
        assert got == roots


BAD_SHAPES = {
    "short": lambda h, i, a, n: (h, i, a[:-1]),
    "long": lambda h, i, a, n: (h, i, a + [bytes(SUITE.digest_bytes)]),
    "duplicated": lambda h, i, a, n: (h + h[:1], i + i[:1], a),
    "out_of_range": lambda h, i, a, n: (h, i[:-1] + [n + 1], a),
}


@pytest.mark.parametrize("shape", list(BAD_SHAPES))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_multi_round_bad_shape_gives_none_for_that_round_only(shape, where):
    rng = np.random.default_rng(list(BAD_SHAPES).index(shape))
    n, count = 250, 7
    bad = {"first": 0, "middle": count // 2, "last": count - 1}[where]
    rounds = _rounds(rng, n, count)                 # each path has digests to drop
    hashes, idx, auth, roots = map(list, zip(*rounds))
    hashes[bad], idx[bad], auth[bad] = BAD_SHAPES[shape](hashes[bad], idx[bad], auth[bad], n)
    got = merkle_root_from_auth(SUITE, hashes, idx, auth, n)
    assert got == [None if b == bad else root for b, root in enumerate(roots)]
    assert got[bad] is None is merkle_root_from_auth_by_dict(
        SUITE, hashes[bad], idx[bad], auth[bad], n)
