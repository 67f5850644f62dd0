"""Tests of the benchmark itself: inputs, tracer, probe, checks, output.

    python3 -m pytest perfbench/tests
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mira
import mira.cli
from perfbench import probe, run, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _steps(workload, seed, count=6):
    inputs = workloads.Inputs(workload, seed)
    names = workloads.WORKLOADS[workload][1]
    out = []
    for i in range(count):
        s = inputs.step(names[i % len(names)])
        out.append((s.set_name, s.keygen_entropy, s.message, s.sign_entropy,
                    s.tamper, s.tamper_u))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _steps(workload, 7) == _steps(workload, 7)
    a, b = _steps(workload, 7), _steps(workload, 8)
    for x, y in zip(a, b):
        assert x[0] == y[0] and x[1:4] != y[1:4]


def test_message_sizes_and_tamper_schedule():
    inputs = workloads.Inputs("additive", 1)
    steps = [inputs.step("a1") for _ in range(3 * workloads.TAMPER_EVERY)]
    assert all(32 <= len(s.message) <= 4096 for s in steps)
    assert sum(s.tamper for s in steps) == 3
    fresh = workloads.Inputs("fresh-keys", 1)
    assert all(fresh.step("t1").tamper for _ in range(3))


def _attribute_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "mira" or name.startswith("mira."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for cattr, cval in vars(val).items():
                        snap[(name, attr, cattr)] = cval
    return snap


def _changed(before, after):
    return [k for k in before if after.get(k) is not before[k]]


def test_tracer_restores_every_patched_attribute():
    before = _attribute_snapshot()
    tr = tracer.Tracer()
    with tr.installed():
        during = _attribute_snapshot()
        patched = len(tr.patched())
        assert tr.missing == []
        assert patched >= len(tracer.TARGETS)
        # imported-by-name functions are replaced where they are looked up
        assert mira.sign_threshold.commit is not before[("mira.hashing", "commit")]
        assert mira.sign_threshold.merkle_root is mira.trees.merkle_root
        assert mira.sign_threshold.shamir_expand is mira.sharing.shamir_expand
    assert len(_changed(before, during)) == patched
    assert _changed(before, _attribute_snapshot()) == []
    assert tr.patched() == []


def test_probe_imports_nothing_from_mira():
    tree = ast.parse((ROOT / "perfbench" / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0] if not node.level else "relative")
    assert imported <= {"hashlib", "time", "numpy"}
    code = ("import sys; sys.path.insert(0, sys.argv[1]);"
            "from perfbench import probe; p = probe.Probe(); p.run_once();"
            "print([m for m in sys.modules if m.split('.')[0] == 'mira'])")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT)], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_probe_scale():
    p = probe.Probe()
    for _ in range(3):
        p.run_once()
    assert p.median_ms() > 0
    assert p.scale() == pytest.approx((probe.REFERENCE_MS / p.median_ms()) ** probe.ELASTICITY)
    assert probe.scale_for(probe.REFERENCE_MS) == 1.0


def _tamper_step(set_name):
    inputs = workloads.Inputs("threshold", 3)
    steps = [inputs.step(set_name) for _ in range(workloads.TAMPER_EVERY)]
    assert steps[-1].tamper
    return steps[-1]


def test_forced_wrong_verdict_makes_failed_ops_nonzero(monkeypatch):
    runner = workloads.LibraryRunner(mira, "t1")
    runner.setup(workloads.Inputs("threshold", 3))
    step = _tamper_step("t1")
    rec = run.Recorder()
    runner.step(rec, step)
    assert rec.failed == 0 and rec.attempted == 4

    monkeypatch.setattr(mira.sign_threshold, "verify", lambda *a, **k: True)
    rec = run.Recorder()
    runner.step(rec, step)
    assert rec.failed == 1
    assert "tamper t1" in rec.failures[0]
    assert 0 < rec.failed / rec.attempted < 1


def test_exception_and_wrong_size_count_as_failures(monkeypatch):
    runner = workloads.LibraryRunner(mira, "a1")
    rec = run.Recorder()
    assert rec.op("sign", "a1", lambda: b"x" * 5639, lambda s: runner.check_sig_size(len(s))) is None
    assert rec.op("sign", "a1", lambda: 1 / 0) is None
    assert rec.failed == 2 and rec.samples == {}
    assert runner.check_pinned(b"x" * 5640) is not None


def _traced_canonical(set_name):
    runner = workloads.LibraryRunner(mira, set_name)
    rec = run.Recorder()
    tr = tracer.Tracer()
    runner.canonical(rec, tr)
    assert rec.failed == 0, rec.failures   # traced signature matches the pinned digest
    return {op.kind: op for op in rec.canonical_ops}


def test_traced_hash_counts_match_the_code():
    # threshold L1: tau = 7, N = 250 parties padded to 256 Merkle leaves;
    # merkle_root and merkle_auth each build the tree: 250 + 255 hashes
    ops = _traced_canonical("t1")
    c = ops["sign"].counters
    assert c["calls.commit"] == 7 * 250
    assert c["calls.merkle"] == 7 * 2 * (250 + 255)
    assert c["calls.h"] == 2
    assert c["calls.commit"] + c["calls.merkle"] + c["calls.h"] == 8822
    assert c["sig_bytes"] == 8393
    assert ops["sign"].calls("keys", "derive") == 1
    assert ops["sign"].counters.get("pk_operand.builds", 0) == 0
    assert ops["verify"].calls("sharing", "shamir_expand") == 7 * 3
    # the annihilator's field arithmetic is its own layer: total covers it
    sign = ops["sign"]
    assert sign.total_ms("qpoly", "annihilator") > sign.self_ms("qpoly", "annihilator") > 0

    # additive L1: tau = 18, N = 256, D = 8
    c = _traced_canonical("a1")["sign"].counters
    assert c["calls.commit"] == 18 * 256
    assert c["calls.h"] == 18 + 1 + 18 * 8 + 1
    assert c["calls.commit"] + c["calls.h"] == 4772
    assert c["calls.tree"] == 18 * 255
    assert c["calls.leaf"] == 18 * 256
    assert "calls.merkle" not in c


def test_traced_counters_repeat_exactly():
    a = _traced_canonical("t3")
    b = _traced_canonical("t3")
    for kind in ("keygen", "sign", "verify"):
        assert a[kind].counters == b[kind].counters
        assert {k: v[0] for k, v in a[kind].tally.items()} == \
               {k: v[0] for k, v in b[kind].tally.items()}


def test_cli_fresh_keys_pinned_and_tamper(tmp_path):
    runner = workloads.CliRunner(mira, "t1", str(tmp_path))
    rec = run.Recorder()
    tr = tracer.Tracer()
    runner.canonical(rec, tr)
    assert rec.failed == 0, rec.failures
    sign = [op for op in rec.canonical_ops if op.kind == "sign"][0]
    assert sign.calls("keys", "derive") == 2           # mira sign derives twice
    assert sign.counters["pk_operand.builds"] == 1
    step = workloads.Inputs("fresh-keys", 5).step("t1")
    runner.step(rec, step)
    assert rec.failed == 0 and ("tamper", "t1", False) in rec.samples


def _metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_output_contract(trace, kind):
    out = subprocess.run(RUN + ["--workload", "threshold", "--seed", "11", "--seconds", "0.5",
                                "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _metric_names(kind)


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "additive",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _sig_with_hidden_leaf_n(runner, pair):
    sa = mira.sign_additive
    sp = runner.sp
    for i in range(200):   # about one a1 signature in 14 hides leaf N somewhere
        sig = runner.sign(b"msg", b"entropy %d" % i, pair)
        dec = sa.decode(sp, sig)
        hidden = mira.hashing.derive_challenge2_additive(sp.suite, dec.h2, sp.n_parties, sp.tau)
        if sp.n_parties in hidden:
            return sig, dec, hidden.index(sp.n_parties)
    raise AssertionError("no signature hides leaf N")


def test_tamper_in_ignored_aux_slot_is_counted_not_failed():
    sa = mira.sign_additive
    runner = workloads.LibraryRunner(mira, "a1")
    pair = runner.keygen(b"ignored slot")
    sig, dec, e = _sig_with_hidden_leaf_n(runner, pair)

    dec.rounds[e].aux_x = dec.rounds[e].aux_x.copy()
    dec.rounds[e].aux_x[0] ^= 1
    bad = sa.encode(runner.sp, dec)
    assert runner.verify(b"msg", bad, pair[0])          # the slot is not bound
    assert runner.check_tampered(sig, bad, True) is None
    assert runner.ignored_slot_accepts == 1

    dec = sa.decode(runner.sp, sig)
    dec.rounds[e].alpha_hidden = dec.rounds[e].alpha_hidden ^ 1
    other = sa.encode(runner.sp, dec)
    assert runner.check_tampered(sig, other, False) is None
    assert runner.check_tampered(sig, other, True) == "tampered signature accepted"
    assert runner.ignored_slot_accepts == 1


def test_missing_trace_target_is_reported(monkeypatch, capsys):
    gone = ("mira.sharing", "no_such_function", "sharing", "gone", False, None, None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [gone])
    tr = tracer.Tracer()
    with tr.installed():
        pass
    assert tr.missing == ["mira.sharing.no_such_function"]
    run.report({"workload": "threshold", "seed": 1, "trace": 1, "cycles": 2, "loop_s": 1.0,
                "probe_median_ms": 1.5, "scale": 1.0, "mira_threads": "1", "failed": 0,
                "attempted": 1, "ignored_slot_accepts": 0, "tracer_missing": tr.missing,
                "metrics": {}})
    assert "mira.sharing.no_such_function" in capsys.readouterr().out.splitlines()[0]
