"""The benchmark's name and count contract: bench/spans.py wraps library
functions by name, so each name it traces must resolve against the library,
and it counts the zero tests of support(f), which bench/test_bench.py pins.
A rename or a count change that would break the traced benchmark fails
here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import kflag

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


def test_support_makes_one_zero_test_per_point(spans):
    # bench/test_bench.py pins 6 _nonzero_at calls for G_213 under the tracer
    # (gkm.support.points_tested): support(f) must not take the coset walk
    # until that pin is re-recorded
    with spans.Tracer() as tracer:
        kflag.gkm.support(kflag.grothendieck(kflag.Permutation((2, 1, 3))))
    assert tracer.summary()["gkm.support"]["b"] == 6
