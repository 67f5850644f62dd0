"""Signing and verification from several threads while lazy caches fill up.

The public-key operand (``PublicKey._cache``), the Frobenius matrices of the
extension field, the fixed rank-check map and a secret key's derivation and
annihilator are all built on first use and stored without a lock; each is
stored by one assignment of its finished value, so a thread sees either
nothing (and builds it too) or the whole thing.
"""

import sys
import threading

import numpy as np
import pytest

from mira import mpc, params, sign_additive, sign_threshold
from mira.keys import PublicKey, SecretKey, keygen_optimized

THREADS = 4
SCHEMES = {"additive": sign_additive, "threshold": sign_threshold}


def tampered(sig, rng):
    out = bytearray(sig)
    pos = int(rng.integers(0, len(out)))
    out[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(out)


def run_threads(worker):
    threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


@pytest.mark.parametrize("variant", ["additive", "threshold"])
def test_concurrent_verify_matches_single_threaded(variant):
    ps = params.parameter_set(variant, 1)
    scheme = SCHEMES[variant]
    pk, sk = keygen_optimized(ps, b"threads " + variant.encode())
    rng = np.random.default_rng(11)
    cases = []
    for i in range(2):
        msg = b"message %d" % i
        sig = scheme.sign(ps, pk, sk, msg, b"entropy %d" % i)
        cases += [(msg, sig), (msg, tampered(sig, rng)), (msg + b"!", sig)]
    expected = [scheme.verify(ps, pk, msg, sig) for msg, sig in cases]
    assert expected == [True, False, False] * 2

    fresh = PublicKey.from_bytes(pk.to_bytes())
    ext = ps.ext
    ext.__dict__.pop("_rank_maps", None)
    barrier = threading.Barrier(THREADS)
    verdicts = [None] * THREADS
    maps = [None] * THREADS

    def worker(t):
        barrier.wait(timeout=60)
        maps[t] = mpc._rank_map(ext, ps.r)
        order = cases[t:] + cases[:t]
        got = [scheme.verify(ps, fresh, msg, sig) for msg, sig in order]
        verdicts[t] = got[-t:] + got[:-t]

    run_threads(worker)
    assert verdicts == [expected] * THREADS
    assert all(mp is maps[0] for mp in maps)
    assert mpc._rank_map(ext, ps.r) is maps[0]


@pytest.mark.parametrize("variant", ["additive", "threshold"])
def test_concurrent_sign_on_fresh_key_matches_single_threaded(variant):
    ps = params.parameter_set(variant, 1)
    scheme = SCHEMES[variant]
    pk, sk = keygen_optimized(ps, b"sign threads " + variant.encode())
    inputs = [(b"message %d" % i, b"entropy %d" % i) for i in range(2)]
    expected = [scheme.sign(ps, pk, sk, msg, ent) for msg, ent in inputs]

    fresh = SecretKey.from_bytes(sk.to_bytes())
    barrier = threading.Barrier(THREADS)
    sigs = [None] * THREADS

    def worker(t):
        barrier.wait(timeout=60)
        step = -1 if t % 2 else 1       # half the threads sign in reverse order
        got = [scheme.sign(ps, pk, fresh, msg, ent) for msg, ent in inputs[::step]]
        sigs[t] = got[::step]

    run_threads(worker)
    assert sigs == [expected] * THREADS
    assert fresh.sign_inputs()[1] is fresh.sign_inputs()[1]
