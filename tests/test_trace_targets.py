"""Every attribute the benchmark's layer tracer hooks must exist in mira.

The tracer skips a target it cannot resolve, so a rename would silently
zero that layer's per-layer metrics.  This reads the target table from
``perfbench/tracer.py`` (standard library only) and changes nothing there.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_trace_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module, attr, *_ in targets:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []
