"""Span tracing of kflag's layers from outside the library.

``Tracer.install`` replaces each traced public function by a wrapper at every
name it is reachable through: module attributes in any loaded ``kflag``
module (``kflag.groth.pi`` as well as ``kflag.ddo.pi``) and attributes of the
classes defined there (``LaurentPoly.__mul__`` and ``__rmul__``). Spans are
kept in memory as parallel arrays; ``summary`` turns them into per-name
totals at the end. A span's self time is its duration minus the time its
child spans cover. One helper, ``gkm._nonzero_at``, is counted instead of
spanned (``POINTS_TESTED``).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from dataclasses import dataclass


def _terms_of_first(args, kwargs, result):
    return len(args[0].terms), 0


def _terms_in_out(args, kwargs, result):
    # pi(i, f): the polynomial is the second argument
    return len(args[1].terms), len(result.terms)


def _terms_of_second(args, kwargs, result):
    return len(args[1].terms), 0


def _result_terms(args, kwargs, result):
    return 0, len(result.terms)


def _pairs_probe(args, kwargs, result):
    return len(result.checks), 0


def _nonzero_probe(args, kwargs, result):
    return int(not result.is_zero), 0


def _len_result(args, kwargs, result):
    return len(result), 0


def _support_points_probe(args, kwargs, result):
    return len({check.z for check in result.checks}), 0


def _output_bytes_probe(args, kwargs, result):
    argv = list(args[0]) if args and args[0] is not None else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.isfile(path):
            return os.path.getsize(path), 0
    return 0, 0


@dataclass(frozen=True)
class Target:
    span: str  # the name reported, "<layer>.<function>"
    owner: str  # module that defines the function
    attr: str  # attribute path inside it, e.g. "LaurentPoly.__mul__"
    probe: object = None  # (args, kwargs, result) -> (a, b), added to the span's counters


TARGETS = (
    Target("perm.bruhat_leq", "kflag.perm", "bruhat_leq"),
    Target("perm.permuted_bruhat_leq", "kflag.perm", "permuted_bruhat_leq"),
    Target("laurent.mul", "kflag.laurent", "LaurentPoly.__mul__"),
    Target("laurent.exact_div", "kflag.laurent", "exact_div", _terms_of_first),
    Target("laurent.permute_y", "kflag.laurent", "permute_y", _terms_of_second),
    Target("laurent.canonical_zero_test", "kflag.laurent", "canonical_zero_test"),
    Target("laurent.poly_to_json", "kflag.laurent", "poly_to_json", _len_result),
    Target("ddo.pi", "kflag.ddo", "pi", _terms_in_out),
    Target("ddo.delta", "kflag.ddo", "delta", _terms_in_out),
    Target("groth.top", "kflag.groth", "top"),
    Target("groth.grothendieck", "kflag.groth", "grothendieck", _result_terms),
    Target("groth.permuted_grothendieck", "kflag.groth", "permuted_grothendieck"),
    Target("gkm.restrict", "kflag.gkm", "restrict", _nonzero_probe),
    Target("gkm.restrict_all", "kflag.gkm", "restrict_all"),
    Target("gkm.support", "kflag.gkm", "support", _terms_of_first),
    Target("gkm.verify_support_theorem", "kflag.gkm", "verify_support_theorem", _pairs_probe),
    Target("gkm.decompose", "kflag.gkm", "decompose"),
    Target("gkm.recompose", "kflag.gkm", "recompose"),
    Target("kirwan.is_regular", "kflag.kirwan", "is_regular"),
    Target("kirwan.kernel_generators", "kflag.kirwan", "kernel_generators", _len_result),
    Target("kirwan.half_space_soundness", "kflag.kirwan", "half_space_soundness",
           _support_points_probe),
    Target("kirwan.presentation", "kflag.kirwan", "presentation"),
    Target("kirwan.to_json_obj", "kflag.kirwan", "Presentation.to_json_obj"),
    Target("cli.main", "kflag.cli", "main", _output_bytes_probe),
)


@dataclass(frozen=True)
class Count:
    """Calls of a helper, added to counter b of the innermost open span when
    that span is ``into``. No span is recorded, so the helper's time stays in
    the caller's self time."""

    into: str
    owner: str
    attr: str


# support decides each fixed point by one _nonzero_at call; calls made by the
# sweep's own loop fall under gkm.verify_support_theorem and are not counted
POINTS_TESTED = Count("gkm.support", "kflag.gkm", "_nonzero_at")


def _resolve(target):
    obj = sys.modules[target.owner]
    for part in target.attr.split("."):
        obj = vars(obj)[part]
    return obj


def _name_sites(original):
    """Every (namespace, name) in the loaded kflag modules bound to ``original``."""
    sites = []
    for modname, module in list(sys.modules.items()):
        if modname != "kflag" and not modname.startswith("kflag."):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                sites.append((module, name))
            elif isinstance(value, type) and value.__module__ == modname:
                for cname, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        sites.append((value, cname))
    return sites


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.names = [t.span for t in TARGETS]
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, sid: int, fn, probe):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        a_arr, b_arr, stack = self.a, self.b, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            a_arr.append(0)
            b_arr.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                a, b = probe(args, kwargs, result)
                a_arr[idx] += a
                b_arr[idx] += b
            return result

        return wrapper

    def _count(self, sid: int, fn):
        span_name, b_arr, stack = self.span_name, self.b, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = stack[-1]
            if idx >= 0 and span_name[idx] == sid:
                b_arr[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, original, wrapper) -> None:
        for namespace, name in _name_sites(original):
            setattr(namespace, name, wrapper)
            self._patched.append((namespace, name, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for sid, target in enumerate(TARGETS):
            original = _resolve(target)
            self._patch(original, self._wrap(sid, original, target.probe))
        original = _resolve(POINTS_TESTED)
        self._patch(original, self._count(self.names.index(POINTS_TESTED.into), original))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patched):
            setattr(namespace, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, hits (spans with no child span),
        the two probe counters a and b, and miss_b (b summed over spans that
        had a child span)."""
        n = len(self.span_name)
        child_time = [0.0] * n
        has_child = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                has_child[p] = 1
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0,
                   "a": 0, "b": 0, "miss_b": 0}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[i]
            row["a"] += self.a[i]
            row["b"] += self.b[i]
            if has_child[i]:
                row["miss_b"] += self.b[i]
            else:
                row["hits"] += 1
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, parent index, start, end, a, b."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,parent,start_s,end_s,a,b\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.parent[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{self.a[i]},{self.b[i]}\n"
                )
