"""Acceptance suite: one test per shipped acceptance criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and measured quantities.  Criterion order matches the numbering in the
printed lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mira import estimator as est, params, sign_additive as sa, sign_threshold as st
from mira.fields import base_field, ext_field
from mira.hashing import (HashSuite, X_KEYSEC, FieldSampler,
                          derive_challenge2_additive)
from mira.keys import keygen_optimized
from mira.matrices import columns_to_ext, rank, sample_rank_bounded
from mira.mpc import ChallengeBatch, PkOperand
from mira.params import ParameterSet
from mira.qpoly import annihilator
from mira.sharing import ShareDims, hypercube_aggregate, plain_rows, shamir_share
from mira.trees import MerkleTree, SeedTree, leaves_from_path, merkle_auth, merkle_root
from mira.trees import merkle_root_from_auth, H_MERKLE

from helpers import (evaluate, evaluate_many, full_sharing, shamir_at, shamir_reconstruct,
                     sign_cheating, stacked)

SUITE = HashSuite(128)

ALL_SETS = [(v, l) for v in (params.ADDITIVE, params.THRESHOLD) for l in (1, 3, 5)]


def test_criterion_1_completeness_100_round_trips():
    # 100/100 sign -> verify accepts for all six parameter sets; the wall
    # budget targets < 60 s on laptop hardware, asserted here with 2x slack
    # for slower CI machines
    trials = 100
    t0 = time.perf_counter()
    for variant, level in ALL_SETS:
        ps = params.parameter_set(variant, level)
        sp = ps.sign_params()
        scheme = sp.scheme
        pk, sk = keygen_optimized(ps.minrank(), b"acc1-%s-%d" % (variant.encode(), level))
        accepted = 0
        for i in range(trials):
            msg = b"acceptance message %d" % i
            sig = scheme.sign(sp, pk, sk, msg, b"acc1-ent-%d" % i)
            accepted += scheme.verify(sp, pk, msg, sig)
        assert accepted == trials, (variant, level, accepted)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 1: PASS - 100/100 round trips x 6 sets, "
          f"{elapsed:.1f} s wall (laptop target < 60 s)")
    assert elapsed < 120.0


def test_criterion_2_additive_sizes_exact():
    sizes = {1: 5640, 3: 11779, 5: 20762}
    pk_sizes = {1: 84, 3: 121, 5: 150}
    sk_sizes = {1: 16, 3: 24, 5: 32}
    for level in (1, 3, 5):
        ps = params.parameter_set(params.ADDITIVE, level)
        sp = ps.sign_params()
        pk, sk = keygen_optimized(ps.minrank(), b"acc2-%d" % level)
        sig = sa.sign(sp, pk, sk, b"size probe", b"acc2")
        assert len(sig) == sizes[level]
        assert len(pk.body_bytes()) == pk_sizes[level]
        assert len(sk.seed_sk) == sk_sizes[level]
    print("ACCEPTANCE 2: PASS - additive signatures 5640/11779/20762 B exact, "
          "pk 84/121/150 B, sk seed 16/24/32 B")


def test_criterion_3_threshold_sizes():
    table = {1: 8318, 3: 17797, 5: 30381}
    for level in (1, 3, 5):
        ps = params.parameter_set(params.THRESHOLD, level)
        formula = est.sig_size_bits(ps) / 8
        assert abs(formula - table[level]) / table[level] < 0.02, (level, formula)
        sp = ps.sign_params()
        pk, sk = keygen_optimized(ps.minrank(), b"acc3-%d" % level)
        # the worst-case formula over the operational party count (q - 1)
        bound = est.sig_size_bound_bits(ps.with_overrides(N=sp.n_parties))
        for i in range(10):
            sig = st.sign(sp, pk, sk, b"m%d" % i, b"acc3-%d" % i)
            assert len(sig) * 8 <= bound
    print("ACCEPTANCE 3: PASS - threshold size formula within 2% of "
          "8318/17797/30381 B; every measured signature under the bound")


def test_criterion_4_false_positive_exhaustive():
    # toy (q=2, m=3, n=3, r=1) with a rank-2 matrix: exhaustive challenge
    # enumeration stays within the advertised bound and accepts sometimes
    q, m, n, r = 2, 3, 3, 1
    ext = ext_field(q, m)
    base = ext.base
    sampler = FieldSampler(base, SUITE.xof(X_KEYSEC, b"acc4"))
    e_mat = sample_rank_bounded(base, m, n, 2, sampler)
    assert rank(base, e_mat) == 2 > r
    cols = columns_to_ext(e_mat)
    u = cols[0] if cols[0].any() else cols[1]
    beta = annihilator(ext, u[None, :], r)
    rng = np.random.default_rng(4)
    a = rng.integers(0, q, (r, m)).astype(np.uint8)
    c = ext.neg(ext.dot(a, beta, axis=0))
    # a systematic key around the rank-2 E: with L = [I_2 | 0], x is E's first
    # two entries and M_0' = E's tail - x 0 is E's tail
    x = e_mat.reshape(-1)[:2].copy()
    op = PkOperand(base, np.zeros((2, m * n - 2), np.uint8), e_mat.reshape(-1)[2:])
    challenges = []
    for bits in itertools.product(range(8), repeat=n + 1):
        gam = np.array([[b >> t & 1 for t in range(3)] for b in bits[:n]], np.uint8)
        eps = np.array([bits[n] >> t & 1 for t in range(3)], np.uint8)
        challenges.append((gam, eps))
    batch = ChallengeBatch(ext, r, *stacked(challenges))
    rows = np.tile(plain_rows(x, beta, a, c), (len(challenges), 1, 1))
    al, z = batch.broadcast_alpha(op, rows, np.ones(1, bool))
    v = batch.broadcast_v(z, rows, al)
    accepts = int((~v.reshape(len(challenges), m).any(axis=1)).sum())
    frac = Fraction(accepts, len(challenges))
    assert Fraction(0) < frac <= Fraction(15, 64)
    print(f"ACCEPTANCE 4: PASS - exhaustive accept fraction {frac} "
          f"<= 15/64 on a rank-2 instance")


def test_criterion_5_soundness_monte_carlo():
    # single-leaf cheat at N=4, tau=1 with p < 0.01: acceptance frequency
    # within 3 sigma of 1/4 over 10^4 trials (deterministic entropy)
    ap = ParameterSet("additive", 0, q=2, m=12, n=3, k=6, r=2, N=4, tau=1, eta=1,
                      lam=128).sign_params()
    p = 2 / 2 ** 12 - 1 / 2 ** 24
    assert p < 0.01
    pk, sk = keygen_optimized(ap, b"acc5")
    rng = np.random.default_rng(5)
    trials = 10 ** 4
    accepts = 0
    for t in range(trials):
        xbad = rng.integers(0, 2, ap.k).astype(np.uint8)
        beta_bad = rng.integers(0, 2, (ap.r, ap.m)).astype(np.uint8)
        leaf = int(rng.integers(1, 5))
        sig = sign_cheating(ap, pk, xbad, beta_bad, b"forge", b"acc5-%d" % t, leaf)
        accepts += sa.verify(ap, pk, b"forge", sa.encode(ap, sig))
    freq = accepts / trials
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(freq - 0.25) <= 3 * sigma, freq
    print(f"ACCEPTANCE 5: PASS - cheat accept frequency {freq:.4f} "
          f"within 3 sigma ({3 * sigma:.4f}) of 1/4")


def test_criterion_6_forgery_cost_floor():
    t0 = time.perf_counter()
    worst = math.inf
    for variant, level in ALL_SETS:
        log2c, _ = est.kz_cost(params.parameter_set(variant, level))
        worst = min(worst, log2c)
        assert log2c >= 126, (variant, level, log2c)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6: PASS - forgery cost >= 2^126 for all sets "
          f"(min 2^{worst:.2f}), computed in {elapsed * 1e3:.0f} ms")


def test_criterion_7_oracle_equivalence():
    # additive and Shamir executions reconstruct exactly to the plaintext
    # check on 10^3 random instances per variant
    rng = np.random.default_rng(7)
    per_variant = 1000
    chunk = 100

    mr = ParameterSet("additive", 0, q=16, m=5, n=4, k=6, r=2, N=8, tau=1, eta=1,
                      lam=128).minrank()
    dims = ShareDims(k=mr.k, r=mr.r, m=mr.m)
    ext = mr.ext
    done = 0
    for kp in range(per_variant // chunk):
        pk, sk = keygen_optimized(mr, b"acc7a-%d" % kp)
        x, e_mat = sk.witness()
        beta = annihilator(ext, columns_to_ext(e_mat), mr.r)
        op = PkOperand.of(pk)
        challenges = [(rng.integers(0, 16, (mr.n, mr.m)).astype(np.uint8),
                       rng.integers(0, 16, mr.m).astype(np.uint8))
                      for _ in range(chunk)]
        batch = ChallengeBatch(ext, mr.r, *stacked(challenges))
        n_parties = 8
        leaf_rows = np.empty((chunk, n_parties, dims.total), np.uint8)
        a_plains = np.empty((chunk, mr.r, mr.m), np.uint8)
        c_plains = np.empty((chunk, mr.m), np.uint8)
        for e in range(chunk):
            seeds = [bytes([kp, e, i]) * 8 for i in range(n_parties)]
            shares, a_p, c_p = full_sharing(SUITE, b"\x00" * 32, e + 1, seeds,
                                            dims, mr.base, ext, x, beta)
            leaf_rows[e] = shares
            a_plains[e] = a_p
            c_plains[e] = c_p
        offs = np.zeros(n_parties, bool)
        offs[0] = True
        al, z = batch.broadcast_alpha(op, leaf_rows, offs)
        plains = plain_rows(x, beta, a_plains, c_plains)[:, None]
        al_p, z_p = batch.broadcast_alpha(op, plains, np.ones(1, bool))
        v_p = batch.broadcast_v(z_p, plains, al_p)
        v = batch.broadcast_v(z, leaf_rows, al_p)
        assert np.array_equal(mr.base.axis_sum(al, 1), al_p[:, 0])
        assert np.array_equal(mr.base.axis_sum(v, 1), v_p[:, 0])
        assert not v_p.any()
        done += chunk
    assert done == per_variant

    mr = ParameterSet("threshold", 0, q=251, m=4, n=4, k=5, r=2, N=7, tau=1, eta=1,
                      lam=128, ell=2).minrank()
    dims = ShareDims(k=mr.k, r=mr.r, m=mr.m)
    ext = mr.ext
    ell, n_parties = 2, 7
    pts = np.arange(1, n_parties + 1, dtype=np.uint8)
    done = 0
    for kp in range(per_variant // chunk):
        pk, sk = keygen_optimized(mr, b"acc7t-%d" % kp)
        x, e_mat = sk.witness()
        beta = annihilator(ext, columns_to_ext(e_mat), mr.r)
        op = PkOperand.of(pk)
        challenges = [(rng.integers(0, 251, (mr.n, mr.m)).astype(np.uint8),
                       rng.integers(0, 251, mr.m).astype(np.uint8))
                      for _ in range(chunk)]
        batch = ChallengeBatch(ext, mr.r, *stacked(challenges))
        rows = np.empty((chunk, n_parties, dims.total), np.uint8)
        plains = np.empty((chunk, 1, dims.total), np.uint8)
        for e in range(chunk):
            a = rng.integers(0, 251, (mr.r, mr.m)).astype(np.uint8)
            c = ext.neg(ext.dot(a, beta, axis=0))
            coords = np.concatenate([x, beta.ravel(), a.ravel(), c])
            rand = rng.integers(0, 251, (ell, coords.size)).astype(np.uint8)
            rows[e] = shamir_share(mr.base, coords[None], ell, n_parties, rand[None])[0]
            plains[e, 0] = coords
        al, z = batch.broadcast_alpha(op, rows, np.ones(n_parties, bool))
        al_p, z_p = batch.broadcast_alpha(op, plains, np.ones(1, bool))
        v_p = batch.broadcast_v(z_p, plains, al_p)
        v = batch.broadcast_v(z, rows, al_p)
        assert not v_p.any()
        for e in range(chunk):
            sel = np.array([0, 3, 6])
            arec = shamir_reconstruct(mr.base, al[e, sel].reshape(3, -1), pts[sel])
            assert np.array_equal(arec.reshape(mr.r, mr.m), al_p[e, 0])
            vrec = shamir_reconstruct(mr.base, v[e][sel], pts[sel])
            assert np.array_equal(vrec, v_p[e, 0])
        done += chunk
    assert done == per_variant
    print("ACCEPTANCE 7: PASS - 1000 additive + 1000 Shamir executions "
          "reconstruct exactly to the plaintext check")


def test_criterion_8_annihilator_correctness():
    for variant, level in ALL_SETS:
        mr = params.parameter_set(variant, level).minrank()
        pk, sk = keygen_optimized(mr, b"acc8-%s-%d" % (variant.encode(), level))
        x, e_mat = sk.witness()
        cols = columns_to_ext(e_mat)
        beta = annihilator(mr.ext, cols, mr.r)
        assert not evaluate_many(mr.ext, beta, cols).any()
    # iterative construction equals the literal product over the subspace
    rng = np.random.default_rng(8)
    for m, r in [(3, 1), (4, 2), (4, 3)]:
        ext = ext_field(2, m)
        while True:
            basis = rng.integers(0, 2, (r, m)).astype(np.uint8)
            if rank(ext.base, basis) == r:
                break
        beta = annihilator(ext, basis, r)
        # product over the whole span, as an ordinary polynomial
        span = []
        for coefs in itertools.product(range(2), repeat=r):
            acc = ext.zero()
            for cbit, b in zip(coefs, basis):
                if cbit:
                    acc = ext.add(acc, b)
            span.append(acc)
        poly = [ext.one()]
        for root in span:
            nxt = [ext.zero() for _ in range(len(poly) + 1)]
            for i, cf in enumerate(poly):
                nxt[i + 1] = ext.add(nxt[i + 1], cf)
                nxt[i] = ext.sub(nxt[i], ext.mul(root, cf))
            poly = nxt
        for deg, cf in enumerate(poly):
            if deg == 2 ** r:
                assert np.array_equal(cf, ext.one())
            elif deg in {2 ** i for i in range(r)}:
                assert np.array_equal(cf, beta[int(math.log2(deg))])
            else:
                assert ext.is_zero(cf)
    print("ACCEPTANCE 8: PASS - annihilator vanishes on all key columns for "
          "all six sets; iterative == full product at q=2, r <= 3")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(9)

    # seed tree reveal completeness/hiding
    cases = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        tree = SeedTree.expand(SUITE, bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
                               b"\x01" * 32, 1, n)
        seeds = tree.leaves()
        for hidden in rng.integers(1, n + 1, size=125):
            hidden = int(hidden)
            got = leaves_from_path(SUITE, tree.sibling_path(hidden), hidden,
                                   b"\x01" * 32, 1, n)
            assert got[hidden - 1] is None
            assert all(got[i - 1] == seeds[i - 1]
                       for i in range(1, n + 1) if i != hidden)
            cases += 1
    assert cases >= 1000

    # Merkle authentication and tamper rejection
    cases = 0
    while cases < 1000:
        n = int(rng.integers(2, 33))
        leaves = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(n)]
        tree = MerkleTree(SUITE, leaves)
        root = merkle_root(tree)
        k = int(rng.integers(1, min(n, 4) + 1))
        idx = sorted(int(i) + 1 for i in rng.choice(n, size=k, replace=False))
        auth = merkle_auth(tree, idx)
        hashes = [SUITE.hash(H_MERKLE, leaves[i - 1]) for i in idx]
        assert merkle_root_from_auth(SUITE, [hashes], [idx], [auth], n) == [root]
        bad = [bytes([h[0] ^ 1]) + h[1:] for h in hashes]
        assert merkle_root_from_auth(SUITE, [bad], [idx], [auth], n) != [root]
        cases += 2

    # Shamir share/reconstruct/expand round trips
    f = base_field(251)
    from mira.sharing import shamir_points
    for _ in range(1000):
        ell = int(rng.integers(1, 4))
        n = int(rng.integers(ell + 1, 10))
        secrets = rng.integers(0, 251, 4).astype(np.uint8)
        rand = rng.integers(0, 251, (ell, 4)).astype(np.uint8)
        shares, = shamir_share(f, secrets[None], ell, n, rand[None])
        sel = rng.choice(n, size=ell + 1, replace=False)
        pts = shamir_points(f, n)
        assert np.array_equal(shamir_reconstruct(f, shares[sel], pts[sel]), secrets)
        assert np.array_equal(shamir_at(f, shares[sel], pts[sel], pts), shares)

    # Frobenius linearity
    ext = ext_field(16, 16)
    xs = rng.integers(0, 16, (1000, 16)).astype(np.uint8)
    ys = rng.integers(0, 16, (1000, 16)).astype(np.uint8)
    al = rng.integers(0, 16, (1000, 1)).astype(np.uint8)
    be = rng.integers(0, 16, (1000, 1)).astype(np.uint8)
    lin = ext.add(ext.base.mul(al, xs), ext.base.mul(be, ys))
    lhs = ext.frob(lin, 1)
    rhs = ext.add(ext.base.mul(al, ext.frob(xs, 1)), ext.base.mul(be, ext.frob(ys, 1)))
    assert np.array_equal(lhs, rhs)

    # hypercube partition sums
    checks = 0
    while checks < 1000:
        n = int(rng.choice([4, 8, 16]))
        arr = rng.integers(0, 16, (n, 7)).astype(np.uint8)
        f16 = base_field(16)
        mains = hypercube_aggregate(f16, arr)
        total = f16.axis_sum(arr, 0)
        for kd in range(mains.shape[0]):
            assert np.array_equal(f16.add(mains[kd, 0], mains[kd, 1]), total)
            checks += 1
    print("ACCEPTANCE 9: PASS - seed-tree, Merkle, Shamir, Frobenius and "
          "hypercube property suites, >= 1000 cases each, zero failures")


def test_criterion_10_fuzz_rejection():
    # 10^3 single-bit mutations per variant, all rejected or malformed;
    # toy-scale parameters keep the runtime sane and exercise the same code
    rng = np.random.default_rng(10)

    ap = ParameterSet("additive", 0, q=16, m=4, n=4, k=5, r=2, N=8, tau=3, eta=1,
                      lam=128).sign_params()
    pk, sk = keygen_optimized(ap, b"acc10a")
    ent = 0
    while True:
        data = sa.sign(ap, pk, sk, b"fuzz", b"acc10-%d" % ent)
        sig = sa.decode(ap, data)
        ch2 = derive_challenge2_additive(ap.suite, sig.h2, ap.n_parties, ap.tau)
        if ap.n_parties in ch2:
            break  # a round hides leaf N, so its aux block is zeroed
        ent += 1
    accepts = 0
    for _ in range(1000):
        pos = int(rng.integers(0, len(data) * 8))
        mutated = bytearray(data)
        mutated[pos // 8] ^= 1 << (pos % 8)
        accepts += sa.verify(ap, pk, b"fuzz", bytes(mutated))
    # and every bit of the zeroed aux block of the round that hides leaf N
    lay = sa.layout(ap)
    names = [name for name, _, _ in lay.fields]
    lo = ch2.index(ap.n_parties) * sum(lay.widths) + sum(lay.widths[:names.index("aux_x")])
    hi = lo + sum(lay.widths[names.index("aux_x"):])
    assert lay.units_per_byte == 2 and hi - lo == ap.k + ap.r * ap.m + ap.m   # GF(16) nibbles
    assert not lay.units(data[lay.head:])[lo:hi].any()
    aux_flips = [8 * lay.head + 4 * unit + bit for unit in range(lo, hi) for bit in range(4)]
    for pos in aux_flips:
        mutated = bytearray(data)
        mutated[pos // 8] ^= 1 << (pos % 8)
        accepts += sa.verify(ap, pk, b"fuzz", bytes(mutated))
    assert accepts == 0

    tp = ParameterSet("threshold", 0, q=251, m=3, n=3, k=3, r=1, N=10, tau=3, eta=1,
                      lam=128, ell=2).sign_params()
    pk, sk = keygen_optimized(tp, b"acc10t")
    data = st.sign(tp, pk, sk, b"fuzz", b"acc10")
    for _ in range(1000):
        pos = int(rng.integers(0, len(data) * 8))
        mutated = bytearray(data)
        mutated[pos // 8] ^= 1 << (pos % 8)
        accepts += st.verify(tp, pk, b"fuzz", bytes(mutated))
    assert accepts == 0

    # spot check at the full level-1 parameters as well
    for variant in (params.ADDITIVE, params.THRESHOLD):
        ps = params.parameter_set(variant, 1)
        sp = ps.sign_params()
        scheme = sp.scheme
        pk, sk = keygen_optimized(ps.minrank(), b"acc10-%s" % variant.encode())
        data = scheme.sign(sp, pk, sk, b"fuzz", b"x")
        for _ in range(25):
            pos = int(rng.integers(0, len(data) * 8))
            mutated = bytearray(data)
            mutated[pos // 8] ^= 1 << (pos % 8)
            accepts += scheme.verify(sp, pk, b"fuzz", bytes(mutated))
    assert accepts == 0
    print("ACCEPTANCE 10: PASS - %d single-bit mutations rejected, zero accepts"
          % (2050 + len(aux_flips)))
