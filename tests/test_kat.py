"""Pinned known-answer vectors: keys and signatures must stay byte-identical.

The files under ``tests/data`` were written with ``mira kat --count 2`` (the
default all-zero master seed) and are never regenerated by the tests.
``mira kat --check`` re-derives every record from its seed, compares all
fields byte for byte and re-verifies the recorded signature.
"""

from pathlib import Path

import pytest

from mira import cli

DATA = Path(__file__).parent / "data"
SETS = [(variant, level) for variant in ("additive", "threshold")
        for level in (1, 3, 5)]


@pytest.mark.parametrize("variant,level", SETS,
                         ids=[f"{v}-{lv}" for v, lv in SETS])
def test_pinned_kat_checks(variant, level, capsys):
    path = DATA / f"kat_{variant}_{level}.txt"
    assert cli.main(["kat", "--variant", variant, "--level", str(level),
                     "--check", str(path)]) == 0
    assert "checked 2 records: ok" in capsys.readouterr().out
