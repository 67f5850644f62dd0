"""Sign/verify benchmark for mira: one process, one closed-loop client.

    python3 perfbench/run.py --workload {additive,threshold,fresh-keys}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics: keygen,
sign and verify medians (geometric mean over the workload's parameter
sets; each set's median is printed too), set-up time, the share of
operations that succeeded and peak memory.  ``--trace 1`` runs the same
loop with every other round-robin cycle under the layer tracer and prints
the per-layer metrics.  All timings are multiplied by the host-speed
factor of ``probe.py``; raw values stay in the detail file written to
``.bench_build/perfbench/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_T0 = time.perf_counter()   # set-up time is counted from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# BLAS threads, pinned through the program's own variable before numpy loads;
# one client on one core keeps neighbouring load out of the numbers
MIRA_THREADS = "1"

# set-up is measured this many times per run (this process plus children)
SETUP_REPEATS = 5
SETUP_PROBES = 3            # probe runs between two set-up phases

MAX_REPORTED_FAILURES = 5


def import_program():
    """Import mira from this checkout's ``src``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "mira" / "__init__.py").is_file():
        print(f"perfbench: no mira sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    os.environ["MIRA_THREADS"] = MIRA_THREADS
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import mira
    import mira.cli
    if Path(mira.__file__).resolve().parent != (src / "mira").resolve():
        print(f"perfbench: imported mira from {mira.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return mira


class Recorder:
    """Times operations, applies their output checks and counts failures."""

    def __init__(self, probe=None):
        self.samples = {}          # (kind, set, traced) -> [seconds]
        self.probes = {}           # same keys -> [probe seconds just before each]
        self._probe = probe
        self.attempted = 0
        self.failures = []
        self.loop_ops = []         # traced loop operations
        self.canonical_ops = []    # traced fixed-input operations
        self._tracer = None

    @contextlib.contextmanager
    def tracing(self, tracer):
        with tracer.installed():
            self._tracer = tracer
            try:
                yield
            finally:
                self._tracer = None

    def op(self, kind, set_name, call, check=None, canonical=False, probed=True):
        """Run ``call`` timed; a failed check or an exception counts as failed.

        Loop operations are preceded by one probe run, which scales them.
        """
        self.attempted += 1
        tracer = self._tracer
        probe_s = None
        if self._probe is not None and probed and not canonical:
            probe_s = self._probe.run_once()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = call()
                dt = time.perf_counter() - t0
            else:
                with tracer.operation(kind, set_name) as top:
                    t0 = time.perf_counter()
                    out = call()
                    dt = time.perf_counter() - t0
                (self.canonical_ops if canonical else self.loop_ops).append(top)
            reason = check(out) if check else None
        except Exception:  # the loop must go on; the failure is reported
            reason = traceback.format_exc()
        if reason:
            self.failures.append(f"{kind} {set_name}: {reason}")
            return None
        if not canonical:
            key = (kind, set_name, tracer is not None)
            self.samples.setdefault(key, []).append(dt)
            self.probes.setdefault(key, []).append(probe_s)
        return out

    def scaled_ms(self, key):
        """Samples of ``key`` in ms, each scaled by the probe run just before it."""
        from perfbench.probe import scale_for
        return [dt * 1e3 * scale_for(p * 1e3)
                for dt, p in zip(self.samples[key], self.probes[key])]

    @property
    def failed(self):
        return len(self.failures)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs):
    """(percentile, value): the highest of p75..p99.9 with >= 10 samples above."""
    xs = sorted(xs)
    n = len(xs)
    best = None
    for p in (75, 90, 95, 99, 99.9):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def _geomean_of(per_set, kind, names):
    """Geometric mean of the sets' medians; NaN when a set has no sample."""
    vals = [per_set[f"{kind}_ms.{n}"]["p50_ms"] for n in names if f"{kind}_ms.{n}" in per_set]
    if len(vals) != len(names):
        return float("nan")
    return math.exp(sum(math.log(x) for x in vals) / len(vals))


def setup(mira, workload, seed, workdir, probe_mod):
    """Set the workload up; return (runners, inputs, set-up record).

    Set-up runs from process start through the imports, then one keygen and
    warm-up per set.  Probe runs between those phases give each phase the
    host speed on both sides of it (the imports only the one after), and
    their own time is left out of set-up.  The record holds the scaled
    seconds, the raw seconds of each phase and the probe medians.
    """
    from perfbench import workloads
    probe = probe_mod.Probe()
    inputs = workloads.Inputs(workload, seed)
    runs = workloads.runners(mira, workload, workdir)
    raw = [time.perf_counter() - _T0]
    probes = [_gap_probe_ms(probe)]
    for runner in runs:
        t0 = time.perf_counter()
        runner.setup(inputs)
        raw.append(time.perf_counter() - t0)
        probes.append(_gap_probe_ms(probe))
    scales = [probe_mod.scale_for(ms) for ms in probes]
    scaled = raw[0] * scales[0] + sum(
        dt * (a + b) / 2 for dt, a, b in zip(raw[1:], scales, scales[1:]))
    return runs, inputs, {"setup_s": scaled, "phases_s": raw, "probe_ms": probes}


def _gap_probe_ms(probe):
    """Median of a few probe runs between two set-up phases."""
    return statistics.median(probe.run_once() for _ in range(SETUP_PROBES)) * 1e3


def child_setups(args, count):
    """Set-up records of ``count`` fresh processes doing the same set-up."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up child exited {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_loop(rec, runs, inputs, seconds, tracer):
    """Round-robin steps until ``seconds`` pass; with a tracer, odd cycles are traced."""
    min_cycles = 2 if tracer else 1
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < min_cycles or time.perf_counter() < deadline:
        traced = tracer is not None and cycle % 2 == 1
        with rec.tracing(tracer) if traced else contextlib.nullcontext():
            for runner in runs:
                runner.step(rec, inputs.step(runner.name))
                if cycle >= min_cycles and time.perf_counter() >= deadline:
                    break
        cycle += 1
    return cycle


def end_to_end(rec, runs, setup_s, detail):
    """Medians of probe-scaled samples per set, and the gated metrics."""
    per_set = {}
    for key, xs in sorted(rec.samples.items()):
        kind, name, traced = key
        if traced or kind == "tamper":
            continue
        scaled = rec.scaled_ms(key)
        row = {"p50_ms": median(scaled), "raw_p50_ms": median(xs) * 1e3, "n": len(xs)}
        tl = tail(scaled)
        if tl:
            row[f"p{tl[0]:g}_ms"] = tl[1]
        per_set[f"{kind}_ms.{name}"] = row
    detail["per_set"] = per_set
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    # one figure per operation over all the workload's sets: a median per set
    # or per level moves with the host by more than a quarter of the bound
    names = [r.name for r in runs]
    for kind in ("keygen", "sign", "verify"):
        metrics[f"{kind}_ms.p50"] = {"value": _geomean_of(per_set, kind, names), "unit": "ms"}
    metrics["ok_ops_frac"] = {"value": 1 - rec.failed / rec.attempted, "unit": "fraction"}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run

def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _by_set(ops, kind):
    out = {}
    for op in ops:
        if op.kind == kind:
            out.setdefault(op.set_name, []).append(op)
    return out


def _timed(rec, scale, kind, layer, quantity=None, total=False):
    """Mean self (or total) ms per ``kind`` operation, averaged over the sets."""
    groups = _by_set(rec.loop_ops, kind)
    ms = (lambda op: op.total_ms(layer, quantity)) if total else \
        (lambda op: op.self_ms(layer, quantity))
    return _mean([_mean([ms(op) for op in ops]) * scale for ops in groups.values()])


def _canonical(rec, kind, value):
    """Mean over the workload's sets of ``value(op, set)`` on the fixed-input op.

    Sets for which ``value`` is None (the quantity does not apply) are skipped.
    """
    groups = _by_set(rec.canonical_ops, kind)
    vals = [[value(op, name) for op in ops] for name, ops in groups.items()]
    return _mean([_mean(v) for v in vals if None not in v])


def _counter(key):
    return lambda op, name: op.counters.get(key, 0)


def _ratio(num, den):
    return lambda op, name: (op.counters.get(num, 0) / op.counters[den]
                             if op.counters.get(den) else 0.0)


def _merkle_builds_per_round(runners):
    # one Merkle build hashes n leaves and pad - 1 inner nodes; threshold only
    def value(op, name):
        sp = runners[name].sp
        if runners[name].variant != "threshold":
            return None
        pad = 1 << (sp.n_parties - 1).bit_length()
        return op.counters.get("calls.merkle", 0) / (sp.tau * (sp.n_parties + pad - 1))
    return value


def _overhead(rec):
    """Traced over untraced median latency, minus one, averaged over sets and ops."""
    out = []
    for (kind, name, traced) in rec.samples:
        if traced and kind in ("sign", "verify") and (kind, name, False) in rec.samples:
            out.append(median(rec.scaled_ms((kind, name, True)))
                       / median(rec.scaled_ms((kind, name, False))) - 1)
    return _mean(out)


def per_layer_specs(runners):
    """(name, unit, function of (rec, scale, probe)) for every per-layer metric."""
    specs = []

    def timed(name, kind, layer, quantity=None, total=False):
        specs.append((name, "ms",
                      lambda rec, s, p: _timed(rec, s, kind, layer, quantity, total)))

    def canon(name, unit, kind, value):
        specs.append((name, unit, lambda rec, s, p: _canonical(rec, kind, value)))

    for op in ("sign", "verify"):
        for role in ("commit", "merkle", "tree", "leaf", "h"):
            canon(f"{op}.hashing.calls.{role}", "count", op, _counter(f"calls.{role}"))
        canon(f"{op}.hashing.bytes_in", "bytes", op, _counter("bytes_in"))
        canon(f"{op}.hashing.xof_squeeze_ratio", "ratio", op,
              _ratio("xof_squeezed", "xof_read"))
        timed(f"{op}.hashing.ms", op, "hashing")
    timed("sign.trees.seed_expand.ms", "sign", "trees", "seed_expand")
    timed("verify.trees.seed_from_path.ms", "verify", "trees", "seed_from_path")
    timed("sign.trees.merkle.ms", "sign", "trees", "merkle")
    timed("verify.trees.merkle.ms", "verify", "trees", "merkle")
    canon("sign.trees.merkle_builds_per_round", "count", "sign",
          _merkle_builds_per_round(runners))
    for op in ("sign", "verify"):
        timed(f"{op}.sharing.leaf_expand.ms", op, "sharing", "leaf_expand")
        timed(f"{op}.sharing.hypercube.ms", op, "sharing", "hypercube")
    timed("sign.sharing.shamir_share.ms", "sign", "sharing", "shamir_share")
    timed("verify.sharing.shamir_expand.ms", "verify", "sharing", "shamir_expand")
    canon("verify.sharing.shamir_expand.calls", "count", "verify",
          lambda op, name: op.calls("sharing", "shamir_expand"))
    for op in ("sign", "verify"):
        for q in ("challenge_build", "broadcast_alpha", "broadcast_v", "pk_operand"):
            timed(f"{op}.mpc.{q}.ms", op, "mpc", q)
        timed(f"{op}.mpc.challenge_build.total_ms", op, "mpc", "challenge_build", total=True)
        canon(f"{op}.mpc.pk_operand.builds", "count", op, _counter("pk_operand.builds"))
    for op in ("sign", "verify"):
        canon(f"{op}.fields.gemm.calls", "count", op, _counter("gemm.calls"))
        canon(f"{op}.fields.gemm.macs", "count", op, _counter("gemm.macs"))
        timed(f"{op}.fields.gemm.ms", op, "fields", "gemm")
        timed(f"{op}.fields.ext.ms", op, "fields", "ext")
    timed("sign.qpoly.annihilator.ms", "sign", "qpoly", "annihilator")
    timed("sign.qpoly.annihilator.total_ms", "sign", "qpoly", "annihilator", total=True)
    timed("keygen.keys.derive.ms", "keygen", "keys", "derive")
    timed("sign.keys.derive.ms", "sign", "keys", "derive")
    timed("sign.keys.derive.total_ms", "sign", "keys", "derive", total=True)
    canon("sign.keys.derive.calls", "count", "sign", lambda op, name: op.calls("keys", "derive"))
    timed("sign.keys.expand.ms", "sign", "keys", "expand")
    timed("verify.keys.expand.ms", "verify", "keys", "expand")
    timed("sign.codec.encode.ms", "sign", "codec", "encode")
    timed("verify.codec.decode.ms", "verify", "codec", "decode")
    canon("sign.codec.sig_bytes", "bytes", "sign", _counter("sig_bytes"))
    timed("sign.scheme.self_ms", "sign", "scheme")
    timed("verify.scheme.self_ms", "verify", "scheme")
    for op in ("keygen", "sign", "verify"):
        timed(f"{op}.cli.self_ms", op, "cli")
    specs.append(("host.probe_ms", "ms", lambda rec, s, p: p.median_ms()))
    specs.append(("trace.overhead_frac", "fraction", lambda rec, s, p: _overhead(rec)))
    return specs


def layer_table(rec, scale):
    """Mean self ms per operation kind and layer, plus time outside any layer."""
    table = {}
    for kind in ("keygen", "sign", "verify"):
        groups = _by_set(rec.loop_ops, kind)
        if not groups:
            continue
        layers = sorted({lay for ops in groups.values() for op in ops for lay, _ in op.tally})
        row = {lay: _timed(rec, scale, kind, lay) for lay in layers}
        row["outside"] = _mean([_mean([(op.duration_ns - op.child_ns) / 1e6 for op in ops])
                                * scale for ops in groups.values()])
        table[kind] = row
    return table


# ---------------------------------------------------------------------------

def parse_args(argv):
    from perfbench.workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (used for the repeats)")
    return p.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    mira = import_program()
    from perfbench import probe as probe_mod, tracer as tracer_mod

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="files-") as workdir:
        runs, inputs, setup_self = setup(mira, args.workload, args.seed, workdir, probe_mod)
        if args.setup_only:
            print(json.dumps(setup_self))
            return 0
        # the traced run reports no set-up time, so it starts no children
        setups = [setup_self] + ([] if args.trace else child_setups(args, SETUP_REPEATS - 1))

        probe = probe_mod.Probe()
        rec = Recorder(probe)
        tracer = tracer_mod.Tracer() if args.trace else None
        for runner in runs:
            runner.canonical(rec, tracer)
        t_loop = time.perf_counter()
        cycles = run_loop(rec, runs, inputs, args.seconds, tracer)
        loop_s = time.perf_counter() - t_loop

    scale = probe.scale()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "mira_threads": MIRA_THREADS,
              "blas_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
              "probe_median_ms": probe.median_ms(), "probe_reference_ms": probe_mod.REFERENCE_MS,
              "scale": scale, "probe_samples": len(probe.samples),
              "setups": setups, "cycles": cycles, "loop_s": loop_s,
              "attempted": rec.attempted, "failed": rec.failed,
              "ignored_slot_accepts": sum(r.ignored_slot_accepts for r in runs),
              "failures": rec.failures[:MAX_REPORTED_FAILURES]}
    if args.trace:
        runners = {r.name: r for r in runs}
        metrics = {name: {"value": fn(rec, scale, probe), "unit": unit}
                   for name, unit, fn in per_layer_specs(runners)}
        detail["layers_ms"] = layer_table(rec, scale)
        detail["tracer_missing"] = tracer.missing
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup_s = median([s["setup_s"] for s in setups])
        metrics = end_to_end(rec, runs, setup_s, detail)
    detail["metrics"] = metrics
    detail["samples_s"] = {"/".join(map(str, k)): list(zip(v, rec.probes[k]))
                           for k, v in rec.samples.items()}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True))

    for line in rec.failures[:MAX_REPORTED_FAILURES]:
        print("FAILED " + line.rstrip().replace("\n", "\n  "), file=sys.stderr)
    report(detail)
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


def report(detail):
    """Human-readable lines ahead of the JSON result."""
    print(f"# workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{detail['cycles']} cycles in {detail['loop_s']:.1f} s, "
          f"probe {detail['probe_median_ms']:.3f} ms -> scale {detail['scale']:.3f}, "
          f"MIRA_THREADS={detail['mira_threads']}, "
          f"failed {detail['failed']}/{detail['attempted']} "
          f"(failed_ops_frac {detail['failed'] / detail['attempted']:.4f}), "
          f"tampered accepts in ignored additive aux slots {detail['ignored_slot_accepts']}"
          + (f", trace targets not found (metrics read 0): {' '.join(detail['tracer_missing'])}"
             if detail.get("tracer_missing") else ""))
    for key, row in detail.get("per_set", {}).items():
        tails = " ".join(f"{k[:-3]} {v:.2f}" for k, v in row.items()
                         if k.startswith("p") and k != "p50_ms")
        print(f"#   {key:<16} p50 {row['p50_ms']:8.2f} ms (raw {row['raw_p50_ms']:8.2f}) "
              f"{tails or 'no tail: < 10 samples beyond p75'} n={row['n']}")
    for kind, row in detail.get("layers_ms", {}).items():
        cells = " ".join(f"{k} {v:.2f}" for k, v in sorted(row.items(), key=lambda kv: -kv[1]))
        print(f"#   {kind} self ms: {cells}")
    for name, m in detail["metrics"].items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
