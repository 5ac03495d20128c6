"""The benchmark tracer (perfbench/tracer.py) wraps ffperm functions and
methods by attribute name, so every name it lists must still exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, *_ in tracer._targets()
               if not hasattr(owner, attr)]
    assert missing == []
