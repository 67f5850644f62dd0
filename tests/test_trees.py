import math

import numpy as np
import pytest

from mira.hashing import H_MERKLE, HashSuite
from mira.trees import (SeedTree, leaves_from_path, merkle_auth, merkle_root,
                        merkle_root_from_auth)

SUITE = HashSuite(128)
SALT = b"\x11" * SUITE.salt_bytes


def test_expand_deterministic():
    t1 = SeedTree.expand(SUITE, b"\x01" * 16, SALT, 1, 8)
    t2 = SeedTree.expand(SUITE, b"\x01" * 16, SALT, 1, 8)
    assert t1.leaves() == t2.leaves()
    t3 = SeedTree.expand(SUITE, b"\x01" * 16, SALT, 2, 8)
    assert t1.leaves() != t3.leaves()  # round binding


def test_reveal_example_n4_hide_2():
    # hiding leaf 2 reveals the node covering leaves 3,4 plus leaf 1
    tree = SeedTree.expand(SUITE, b"\x02" * 16, SALT, 1, 4)
    path = tree.sibling_path(2)
    assert len(path) == 2
    assert path[0] == tree.nodes[3]     # internal node of leaves 3, 4
    assert path[1] == tree.nodes[4]     # leaf 1
    got = leaves_from_path(SUITE, path, 2, SALT, 1, 4)
    assert got[0] == tree.leaf(1) and got[1] is None
    assert got[2] == tree.leaf(3) and got[3] == tree.leaf(4)


def test_path_lengths():
    tree = SeedTree.expand(SUITE, b"\x03" * 16, SALT, 1, 2)
    assert len(tree.sibling_path(1)) == 1
    tree = SeedTree.expand(SUITE, b"\x03" * 16, SALT, 1, 256)
    assert len(tree.sibling_path(77)) == 8


def test_reconstruction_exhaustive_n8():
    tree = SeedTree.expand(SUITE, b"\x04" * 16, SALT, 5, 8)
    for hidden in range(1, 9):
        got = leaves_from_path(SUITE, tree.sibling_path(hidden), hidden, SALT, 5, 8)
        for i in range(1, 9):
            if i == hidden:
                assert got[i - 1] is None
            else:
                assert got[i - 1] == tree.leaf(i)


def test_seed_tree_property_suite():
    # criterion: reveal completeness and hiding over every size, >= 1000 cases
    rng = np.random.default_rng(0)
    cases = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        tree = SeedTree.expand(SUITE, bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
                               SALT, 1, n)
        hid = rng.integers(1, n + 1, size=max(1000 // 8, 2))
        for hidden in hid:
            hidden = int(hidden)
            got = leaves_from_path(SUITE, tree.sibling_path(hidden), hidden, SALT, 1, n)
            assert got[hidden - 1] is None
            ok = all(got[i - 1] == tree.leaf(i) for i in range(1, n + 1) if i != hidden)
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
    assert merkle_root(SUITE, [v]) == SUITE.hash(H_MERKLE, v)


def test_merkle_round_trip_and_tamper():
    rng = np.random.default_rng(1)
    leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(16)]
    root = merkle_root(SUITE, leaves)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        idx = sorted(rng.choice(16, size=k, replace=False) + 1)
        idx = [int(i) for i in idx]
        auth = merkle_auth(SUITE, leaves, idx)
        hashes = [SUITE.hash(H_MERKLE, leaves[i - 1]) for i in idx]
        assert merkle_root_from_auth(SUITE, hashes, idx, auth, 16) == root
        # flip one byte of an opened leaf -> different root
        bad = leaves[idx[0] - 1]
        bad = bytes([bad[0] ^ 1]) + bad[1:]
        hashes_bad = [SUITE.hash(H_MERKLE, bad)] + hashes[1:]
        assert merkle_root_from_auth(SUITE, hashes_bad, idx, auth, 16) != root


def test_merkle_property_suite():
    # criterion: verification + tamper rejection, >= 1000 randomized cases
    rng = np.random.default_rng(2)
    ok = 0
    for trial in range(350):
        n = int(rng.integers(2, 40))
        leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(n)]
        root = merkle_root(SUITE, leaves)
        k = int(rng.integers(1, min(n, 5) + 1))
        idx = sorted(int(i) + 1 for i in rng.choice(n, size=k, replace=False))
        auth = merkle_auth(SUITE, leaves, idx)
        hashes = [SUITE.hash(H_MERKLE, leaves[i - 1]) for i in idx]
        assert merkle_root_from_auth(SUITE, hashes, idx, auth, n) == root
        ok += 1
        # tamper with one auth digest (when present)
        if auth:
            j = int(rng.integers(0, len(auth)))
            bad = list(auth)
            bad[j] = bytes([bad[j][0] ^ 0x80]) + bad[j][1:]
            assert merkle_root_from_auth(SUITE, hashes, idx, bad, n) != root
            ok += 1
        # truncated path rejects
        if auth:
            assert merkle_root_from_auth(SUITE, hashes, idx, auth[:-1], n) is None
            ok += 1
    assert ok >= 1000


def test_merkle_auth_size_bound():
    rng = np.random.default_rng(3)
    for n in (16, 64, 256):
        leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(n)]
        for k in (1, 2, 3, 4):
            for _ in range(20):
                idx = sorted(int(i) + 1 for i in rng.choice(n, size=k, replace=False))
                auth = merkle_auth(SUITE, leaves, idx)
                assert len(auth) <= k * math.log2(n / k) + 1e-9


def test_merkle_reject_malformed_index_sets():
    leaves = [bytes([i]) * 32 for i in range(8)]
    hashes = [SUITE.hash(H_MERKLE, leaves[0])]
    assert merkle_root_from_auth(SUITE, hashes, [9], [], 8) is None
    assert merkle_root_from_auth(SUITE, hashes * 2, [1, 1], [], 8) is None
