"""Bound the memory one warmed additive level-5 sign and verify allocate.

``tracemalloc`` traces every Python object and every numpy buffer, so the
peak it reports for one operation is the same on every run of the same code:
a change that keeps a larger block alive shows here without wall-clock or
RSS noise.  One sign and verify run first, so per-process and per-key caches
are built and the peaks hold per-signature work only.

The bounds are this test's peaks for the code that kept every round's
(N, T) leaf rows as elements in one (tau, N, T) block: sign 14 032 849 bytes
and verify 12 263 802 bytes.
"""

import tracemalloc

from mira import params, sign_additive as sa
from mira.keys import keygen_optimized

BOUNDS = {"sign": 14_032_849, "verify": 12_263_802}


def test_a5_sign_and_verify_peak_traced_bytes():
    ps = params.parameter_set("additive", 5).sign_params()
    pk, sk = keygen_optimized(ps, b"memory")
    assert sa.verify(ps, pk, b"warm", sa.sign(ps, pk, sk, b"warm", b"w"))
    peaks = {}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        data = sa.sign(ps, pk, sk, b"m", b"e")
        peaks["sign"] = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert sa.verify(ps, pk, b"m", data)
        peaks["verify"] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(peaks[op] < BOUNDS[op] for op in BOUNDS), peaks
