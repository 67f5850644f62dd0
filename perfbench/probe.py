"""Host-speed probe: a fixed slice of work that uses no mira code.

The shared host's speed drifts by tens of percent between runs, and CPU
time tracks wall time when it does, so the drift is the machine, not
scheduling.  The probe repeats the same three kinds of work the signature
code spends its time on: many small stdlib SHA3 calls from a Python loop,
float32 GEMMs (the bit-sliced field products) and uint8 array arithmetic.
The benchmark runs it just before each timed operation (and between the
phases of set-up) and reports a timing t taken next to a probe time p as
t * (REFERENCE_MS / p) ** ELASTICITY, so a slower host scales both alike.

Nothing here may import ``mira``: a change to the program must not be able
to move the yardstick it is measured with.
"""

import hashlib
import time

import numpy as np

# Probe time, in ms, that scaled timings are expressed against.  It is a
# fixed unit, about the probe median on the reference host (a shared 2-vCPU
# Intel Xeon VM, numpy 2.4, Python 3.11) when it is not contended; changing
# it rescales every reported timing.
REFERENCE_MS = 1.5

# How much more than the probe the signature code slows when the shared
# host is contended: a timing t taken next to a probe time p is reported as
# t * (REFERENCE_MS / p) ** ELASTICITY.  With 1.0, runs on a contended host
# still read up to 10 % slower than runs on a quiet one.  Over 58 runs of
# the three workloads on the reference host, 1.15 gave the smallest
# worst-case spread between runs (6.4 %, against 10.2 % with 1.0).
ELASTICITY = 1.15


class Probe:
    """Fixed inputs, independent of the workload seed."""

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._msgs = [rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
                      for _ in range(384)]
        self._a = rng.integers(0, 2, (64, 512)).astype(np.float32)
        self._b = rng.integers(0, 2, (512, 256)).astype(np.float32)
        self._u = rng.integers(0, 256, (128, 512), dtype=np.uint8)
        self.samples = []

    def run_once(self):
        """Run the probe once; record and return its wall time in seconds."""
        t0 = time.perf_counter()
        h = hashlib.sha3_256
        acc = b""
        for m in self._msgs:
            acc = h(m + acc[:8]).digest()
        for _ in range(4):
            par = (self._a @ self._b).astype(np.int16) & 1
        for s in range(6):
            red = np.bitwise_xor.reduce((self._u >> s) & 1, axis=0)
        dt = time.perf_counter() - t0
        if not (acc and par.shape and red.shape):
            raise RuntimeError("probe produced no output")
        self.samples.append(dt)
        return dt

    def median_ms(self):
        xs = sorted(self.samples)
        if not xs:
            raise RuntimeError("probe never ran")
        mid = len(xs) // 2
        med = xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2
        return med * 1e3

    def scale(self):
        """Factor taking raw host timings to reference-speed timings."""
        return scale_for(self.median_ms())


def scale_for(probe_ms):
    """Factor for a timing taken while the probe ran in ``probe_ms``."""
    return (REFERENCE_MS / probe_ms) ** ELASTICITY
