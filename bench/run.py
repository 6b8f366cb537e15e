#!/usr/bin/env python3
"""Run one workload of the kflag benchmark and print its result.

    python3 bench/run.py --workload classes --seed 1 --seconds 30 --trace 0

The workload body runs again and again, each pass from a cold class cache,
until ``--seconds`` have gone by and at least MIN_PASSES passes are done.
Each step of a pass is timed on its own, between two timings of a fixed
calibration kernel, and scaled to the speed at which that kernel takes
REFERENCE_CALIBRATION_S; ``wall_s`` sums each step's median scaled time over
the passes (``pass_s``). This takes out the speed changes of a shared host,
which are large and can come and go within a second. Set-up times are
scaled too (``setup_s``). Every pass's outputs are checked outside its
timing. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``. A
fuller record (every step and calibration time, machine details, per-span
totals, and with tracing the spans themselves) goes to ``.bench_out/`` at
the repository root. bench/README.md explains the metrics.

Exits 2, printing no result, when the kflag sources are not next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import OUT_DIR, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_PASSES = 2
SETUP_REPEATS = 11
# The times reported are scaled to a machine on which calibration_kernel
# takes this long (about its time at full speed on the machine of the
# baseline in bench/README.md).
REFERENCE_CALIBRATION_S = 0.0025

# per-layer metric -> (span, statistic). Counts and times are per traced
# pass; hit_ratio and a_per_call are per call of the span. Units and
# directions are in BENCHMARK.json.
PER_LAYER = {
    "ddo.pi.calls": ("ddo.pi", "calls"),
    "ddo.pi.self_s": ("ddo.pi", "self_s"),
    "ddo.pi.terms_in": ("ddo.pi", "a"),
    "ddo.pi.terms_out": ("ddo.pi", "b"),
    "ddo.delta.self_s": ("ddo.delta", "self_s"),
    "laurent.exact_div.calls": ("laurent.exact_div", "calls"),
    "laurent.exact_div.self_s": ("laurent.exact_div", "self_s"),
    "laurent.exact_div.terms_in": ("laurent.exact_div", "a"),
    "laurent.mul.calls": ("laurent.mul", "calls"),
    "laurent.mul.self_s": ("laurent.mul", "self_s"),
    "groth.grothendieck.calls": ("groth.grothendieck", "calls"),
    "groth.grothendieck.self_s": ("groth.grothendieck", "self_s"),
    "groth.grothendieck.hit_ratio": ("groth.grothendieck", "hit_ratio"),
    "groth.class_terms": ("groth.grothendieck", "miss_b"),
    "groth.permuted_grothendieck.calls": ("groth.permuted_grothendieck", "calls"),
    "groth.permuted_grothendieck.self_s": ("groth.permuted_grothendieck", "self_s"),
    "laurent.permute_y.calls": ("laurent.permute_y", "calls"),
    "laurent.permute_y.self_s": ("laurent.permute_y", "self_s"),
    "laurent.permute_y.terms": ("laurent.permute_y", "a"),
    "gkm.verify_support_theorem.calls": ("gkm.verify_support_theorem", "calls"),
    "gkm.verify_support_theorem.self_s": ("gkm.verify_support_theorem", "self_s"),
    "gkm.verify_support_theorem.pairs": ("gkm.verify_support_theorem", "a"),
    "gkm.support.calls": ("gkm.support", "calls"),
    "gkm.support.self_s": ("gkm.support", "self_s"),
    "gkm.support.terms_in": ("gkm.support", "a"),
    "gkm.support.points_tested": ("gkm.support", "b"),
    "perm.bruhat_leq.calls": ("perm.bruhat_leq", "calls"),
    "perm.bruhat_leq.self_s": ("perm.bruhat_leq", "self_s"),
    "gkm.restrict.calls": ("gkm.restrict", "calls"),
    "gkm.restrict.self_s": ("gkm.restrict", "self_s"),
    "gkm.restrict.nonzero_ratio": ("gkm.restrict", "a_per_call"),
    "gkm.decompose.self_s": ("gkm.decompose", "self_s"),
    "gkm.recompose.self_s": ("gkm.recompose", "self_s"),
    "laurent.canonical_zero_test.calls": ("laurent.canonical_zero_test", "calls"),
    "laurent.canonical_zero_test.self_s": ("laurent.canonical_zero_test", "self_s"),
    "kirwan.is_regular.self_s": ("kirwan.is_regular", "self_s"),
    "kirwan.kernel_generators.self_s": ("kirwan.kernel_generators", "self_s"),
    "kirwan.kernel_generators.generators": ("kirwan.kernel_generators", "a"),
    "kirwan.half_space_soundness.calls": ("kirwan.half_space_soundness", "calls"),
    "kirwan.half_space_soundness.self_s": ("kirwan.half_space_soundness", "self_s"),
    "kirwan.half_space_soundness.support_points": ("kirwan.half_space_soundness", "a"),
    "kirwan.presentation.self_s": ("kirwan.presentation", "self_s"),
    "kirwan.to_json_obj.self_s": ("kirwan.to_json_obj", "self_s"),
    "laurent.poly_to_json.calls": ("laurent.poly_to_json", "calls"),
    "laurent.poly_to_json.self_s": ("laurent.poly_to_json", "self_s"),
    "laurent.poly_to_json.terms": ("laurent.poly_to_json", "a"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "cli.main.output_bytes": ("cli.main", "a"),
}
TRACE_OVERHEAD = "bench.trace_overhead"


class SetupError(Exception):
    pass


def import_kflag():
    """Import kflag from the sources next to the benchmark, never from elsewhere."""
    init = SRC / "kflag" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no kflag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kflag
    import kflag.cli  # noqa: F401  (cli is not imported by the package itself)

    if Path(kflag.__file__).resolve() != init.resolve():
        raise SetupError(f"imported kflag from {kflag.__file__}, not from {SRC}")
    return kflag


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["digests"]


def calibration_kernel() -> int:
    """Fixed pure-Python work, a dict-of-tuples polynomial product like the
    library's own inner loops; its time says how fast the machine runs now."""
    a = {(i, j, k): i - j + k for i in range(12) for j in range(12) for k in range(3)}
    b = {(i, j): 1 for i in range(5) for j in range(5)}
    out: dict[tuple[int, int, int], int] = {}
    for (i, j, k), ca in a.items():
        for (p, q), cb in b.items():
            key = (i + p, j + q, k)
            out[key] = out.get(key, 0) + ca * cb
    return len(out)


def calibrate() -> float:
    """Seconds the calibration kernel takes now. The garbage collector is off
    meanwhile, so the size of the program's heap does not enter the time."""
    clock = time.perf_counter
    gc.disable()
    try:
        t0 = clock()
        calibration_kernel()
        return clock() - t0
    finally:
        gc.enable()


def measure_setup(workload: str, seed: int, size: str) -> list[dict]:
    """Seconds from starting a fresh process until it has imported kflag and
    built the inputs, which it signals by printing a line; each with the
    calibrations the child runs right after that line. (The child may run on
    the other CPU, which need not run at this one's speed.)"""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # readline returns as soon as the child is ready; wait(timeout=...)
        # polls in steps of up to 50 ms and would round the time
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up process exited {code} without becoming ready")
        times.append({"seconds": elapsed, "calib_s": json.loads(rest)})
    return times


def setup_s(times: list[dict]) -> float:
    """Median set-up time in reference seconds."""
    return statistics.median(
        t["seconds"] * REFERENCE_CALIBRATION_S / statistics.median(t["calib_s"]) for t in times
    )


def timed_pass(workload, kflag, inputs, times: list[float], calib: list[float]) -> list:
    """Run one pass; append each step's seconds to `times` and the calibration
    time before the first step and after every step to `calib`; return the outputs."""
    clock = time.perf_counter
    outputs = []
    calib.append(calibrate())
    t0 = clock()
    for out in workload.run_pass(kflag, inputs):
        times.append(clock() - t0)
        outputs.append(out)
        calib.append(calibrate())
        t0 = clock()
    return outputs


def pass_s(passes: list[dict]) -> float:
    """One pass in reference seconds: each step's time, scaled by the
    calibrations on either side of it, its median over the passes, summed
    over the steps."""
    per_pass = []
    for p in passes:
        c = p["calib_s"]
        per_pass.append([t * REFERENCE_CALIBRATION_S / ((c[k] + c[k + 1]) / 2)
                         for k, t in enumerate(p["steps_s"])])
    return sum(statistics.median(step) for step in zip(*per_pass))


def measure(kflag, workload, inputs, reference: dict, seconds: float, trace: bool) -> dict:
    """Run passes until `seconds` are used; with tracing every second pass is traced."""
    tracer = Tracer() if trace else None
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    error = None
    begin = time.perf_counter()
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() - begin < seconds:
        use_trace = trace and (len(untraced) + len(traced)) % 2 == 1
        expected = workload.expected_checks(inputs)
        this = {"steps_s": [], "calib_s": []}
        try:
            with tracer if use_trace else contextlib.nullcontext():
                outputs = timed_pass(workload, kflag, inputs, this["steps_s"], this["calib_s"])
            results = workload.check(kflag, inputs, outputs, reference)
            del outputs
        except Exception:  # a failing library call or check fails the pass's checks
            error = traceback.format_exc()
            attempted += expected
            failed += expected
            if not untraced:  # so that a run failing in its first pass still has a time
                untraced.append(this)
            break
        (traced if use_trace else untraced).append(this)
        attempted += max(expected, len(results))
        failed += results.count(False) + max(0, expected - len(results))
    return {
        "untraced": untraced,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "tracer": tracer,
    }


def with_units(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists under ``section``, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK[section]}


def per_layer_metrics(summary: dict, passes: int, untraced: list, traced: list) -> dict:
    values = {}
    for name, (span, stat) in PER_LAYER.items():
        row = summary[span]
        if stat == "hit_ratio":
            value = row["hits"] / row["calls"] if row["calls"] else 0.0
        elif stat == "a_per_call":
            value = row["a"] / row["calls"] if row["calls"] else 0.0
        else:
            value = row[stat] / passes if passes else 0.0
        values[name] = value
    values[TRACE_OVERHEAD] = 0.0
    if untraced and traced:
        values[TRACE_OVERHEAD] = pass_s(traced) / pass_s(untraced) - 1
    return with_units(values, "per_layer")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "kflag").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": git_commit(),
        "kflag_src_lines": lines,
    }


def execute(kflag, name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            reference: dict | None = None, setup_times: list[dict] | None = None):
    """One benchmark run in this process; returns (result line, full record, tracer or None)."""
    workload = WORKLOADS[name]
    reference = load_reference() if reference is None else reference
    inputs = workload.build(kflag, seed, size)
    run = measure(kflag, workload, inputs, reference, seconds, trace)
    untraced, traced = run["untraced"], run["traced"]
    if trace:
        summary = run["tracer"].summary()
        metrics = per_layer_metrics(summary, len(traced), untraced, traced)
    else:
        summary = None
        metrics = with_units({
            "wall_s": pass_s(untraced),
            "setup_s": setup_s(setup_times) if setup_times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, "end_to_end")
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "fail_rate": run["failed"] / run["attempted"] if run["attempted"] else 1.0,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_seconds": {"untraced": [sum(p["steps_s"]) for p in untraced],
                         "traced": [sum(p["steps_s"]) for p in traced]},
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "pass_timings": {"untraced": untraced, "traced": traced},
        "setup_timings": setup_times,
        "error": run["error"],
        "machine": machine_info(),
        "spans": summary,
        **line,
    }
    return line, record, run["tracer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="import kflag, build the inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    try:
        kflag = import_kflag()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload].build(kflag, args.seed, args.size)
        print("ready", flush=True)
        # the first run of the kernel in a process is slow; the median skips it
        print(json.dumps([calibrate() for _ in range(3)]), flush=True)
        return 0
    try:
        setup_times = None if args.trace else measure_setup(args.workload, args.seed, args.size)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line, record, tracer = execute(kflag, args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.size, setup_times=setup_times)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.csv")
    if record["error"]:
        print(record["error"], file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
