"""The benchmark's name contract: bench/spans.py wraps library functions by
name, so each name it traces must resolve against the library. A rename
that would break the traced benchmark fails here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("kflag_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    traced = [*spans.TARGETS, spans.POINTS_TESTED]
    assert len(traced) > 1
    for target in traced:
        obj = importlib.import_module(target.owner)
        for part in target.attr.split("."):
            assert part in vars(obj), f"{target.owner}.{target.attr}"
            obj = vars(obj)[part]
        assert callable(obj), f"{target.owner}.{target.attr}"
