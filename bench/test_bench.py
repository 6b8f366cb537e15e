"""Tests of the benchmark itself, at the tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import Tracer

kflag = run.import_kflag()
BENCHMARK = run.BENCHMARK


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_named_metric_is_present(name):
    setup = run.measure_setup(name, 5, "tiny")
    line, record, _ = run.execute(kflag, name, 5, 0, False, "tiny", setup_times=setup)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["fail_rate"] == 0 and record["seed"] == 5

    line, record, tracer = run.execute(kflag, name, 5, 0, True, "tiny")
    assert line["correct"] and len(tracer.span_name) > 0
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert record["passes"]["traced"] >= 1 and record["passes"]["untraced"] >= 1


def test_pass_s_scales_each_step_by_its_calibrations():
    ref = run.REFERENCE_CALIBRATION_S
    passes = [{"steps_s": [1.0, 2.0], "calib_s": [ref, ref, 2 * ref]},
              {"steps_s": [3.0, 4.0], "calib_s": [2 * ref, 2 * ref, 2 * ref]}]
    # scaled steps: (1.0, 2.0 / 1.5) and (1.5, 2.0); medians over the passes, summed
    assert run.pass_s(passes) == pytest.approx(1.25 + (2.0 / 1.5 + 2.0) / 2)


def test_corrupted_reference_digest_fails_checks():
    reference = run.load_reference()
    key = "classes/n4/1234"
    reference[key] = "0" * len(reference[key])
    line, record, _ = run.execute(kflag, "classes", 1, 0, False, "tiny", reference=reference)
    assert not line["correct"]
    # one class of the six in each pass is checked against the corrupted digest
    assert line["failed"] == record["passes"]["untraced"] > 0
    assert record["fail_rate"] > 0


def test_exception_fails_the_remaining_checks():
    def explode(kflag, inputs):
        raise RuntimeError("boom")

    broken = workloads.Workload(
        "broken", lambda kflag, seed, size: None, explode, lambda inputs: 4, None
    )
    result = run.measure(kflag, broken, None, {}, 0, False)
    assert result["attempted"] == result["failed"] == 4
    assert "boom" in result["error"]


def test_tracer_restores_every_patched_name():
    before = (kflag.groth.pi, kflag.ddo.pi, kflag.laurent.LaurentPoly.__mul__,
              kflag.grothendieck, kflag.gkm.grothendieck)
    tracer = Tracer()
    with tracer:
        assert kflag.groth.pi is kflag.ddo.pi is not before[0]
        kflag.groth.clear_cache()
        kflag.gkm.support(kflag.grothendieck(kflag.Permutation((2, 1, 3))))
    after = (kflag.groth.pi, kflag.ddo.pi, kflag.laurent.LaurentPoly.__mul__,
             kflag.grothendieck, kflag.gkm.grothendieck)
    assert after == before
    summary = tracer.summary()
    assert summary["groth.grothendieck"]["calls"] == 2  # the class, then its parent
    assert summary["groth.top"]["calls"] == summary["ddo.pi"]["calls"] == 1
    assert summary["groth.grothendieck"]["hits"] == 0
    assert summary["gkm.support"]["b"] == 6  # one _nonzero_at call per point of S_3


def test_exits_without_kflag_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
