"""The library and CLI calls the benchmark makes must keep working.

``perfbench/workloads.py`` (standard library only) drives ``mira`` by name:
``ParameterSet.minrank``/``sign_params``, ``keys.keygen_optimized``, the
scheme modules' ``sign``/``verify``/``decode`` and ``mira.cli.main``.  A
rename there would pass every other test and only show up as failed
benchmark operations, so this runs the benchmark's own canonical
keygen/sign/verify on one set of each variant, through both of its
interfaces, and checks the results with the benchmark's own checks.
"""

import importlib.util
from pathlib import Path

import pytest

import mira
import mira.cli  # noqa: F401  (the CLI runner calls mira.cli.main)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _Recorder:
    """The part of the benchmark's recorder that ``canonical`` uses."""

    def __init__(self):
        self.results = []       # (kind, value returned, failed check or None)

    def op(self, kind, set_name, call, check=None, canonical=False, probed=True):
        out = call()
        reason = check(out) if check else None
        self.results.append((kind, out, reason))
        return None if reason else out


@pytest.fixture(scope="module")
def workloads():
    return _workloads()


@pytest.mark.parametrize("set_name", ["a1", "t1"])
def test_library_runner_reproduces_pinned_signature(workloads, set_name):
    rec = _Recorder()
    sig = workloads.LibraryRunner(mira, set_name).canonical(rec)
    assert [(kind, reason) for kind, _, reason in rec.results] == [
        ("keygen", None), ("sign", None), ("verify", None)]
    assert workloads.sig_digest(sig) == workloads.PINNED_SHA3[set_name]
    assert rec.results[2][1] is True


@pytest.mark.parametrize("set_name", ["a1", "t1"])
def test_cli_runner_reproduces_pinned_signature(workloads, set_name, tmp_path):
    rec = _Recorder()
    workloads.CliRunner(mira, set_name, str(tmp_path)).canonical(rec)
    assert [(kind, out, reason) for kind, out, reason in rec.results] == [
        ("keygen", 0, None), ("sign", 0, None), ("verify", 0, None)]
