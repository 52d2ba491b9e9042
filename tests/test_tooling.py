"""The benchmark's tracer (perfbench/spans.py) patches this package by name.

Installing and uninstalling it here makes a rename or deletion of a
traced name fail the test suite, not a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans
        tracer = spans.Tracer()
        try:
            tracer.install()
        finally:
            patched = list(tracer._patches)
            tracer.uninstall()
    finally:
        sys.modules.pop("spans", None)
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
