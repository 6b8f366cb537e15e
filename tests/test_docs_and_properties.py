"""Doctest runner plus cross-module property sweeps that fit nowhere else."""

import ast
import doctest
import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kflag.ddo
import kflag.gkm
import kflag.groth
import kflag.kirwan
import kflag.laurent
import kflag.perm
from kflag.kirwan import (
    WeightVector,
    half_space_soundness,
    is_regular,
    kernel_generators,
)


@pytest.mark.parametrize(
    "module",
    [kflag.perm, kflag.laurent, kflag.ddo, kflag.groth, kflag.gkm, kflag.kirwan],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


ROOT = Path(__file__).resolve().parent.parent


# sha256 of each demo's stdout, with elapsed times such as "(0.01s)" read as "(-s)"
DEMO_STDOUT = {
    "support_theorem_sweep.py":
        "7bc0eccd29f1a2845269e56d17da56e49461d7f01d0ad2a5340691005c2e1e2b",
    "weight_variety_presentation.py":
        "788e881b06fc73f0ea0d9d0c5cc77cc37d24adc9292012d428a16fcdf07b06ac",
    "worked_example_s3.py":
        "dee1328b5e7611b669fb197eb2a7304d323c1b1625e5b1d3dd036e2647f473c6",
}


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    stdout = re.sub(rb"\(\d+\.\d+s\)", b"(-s)", done.stdout)
    assert hashlib.sha256(stdout).hexdigest() == DEMO_STDOUT[script.name]


def _reads(nodes):
    """The names that nodes read: Name loads, attribute names and from-imports."""
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _private_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def leftovers(sources):
    """Unused module-level imports, and private module-level names that nothing
    reads outside their own definition, over {module name: source text}."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = {name: set(_reads(ast.walk(tree))) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(r for other, r in reads.items() if other != name))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if getattr(stmt, "module", None) == "__future__":
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        found.append(f"{name}: unused import {bound}")
            for private in _private_names(stmt):
                inside = set(map(id, ast.walk(stmt))) if hasattr(stmt, "name") else set()
                here = _reads(n for n in ast.walk(tree) if id(n) not in inside)
                if private not in elsewhere and private not in set(here):
                    found.append(f"{name}: private name {private} is never read")
    return found


def test_no_unused_imports_or_private_names():
    modules = sorted(p for p in (ROOT / "src" / "kflag").glob("*.py") if p.name != "__init__.py")
    assert leftovers({p.stem: p.read_text() for p in modules}) == []


def test_leftover_check_finds_its_targets():
    sources = {
        "a": "from operator import add, mul\n"
        "def _dead():\n    return _dead() * mul(2, 3)\n"
        "def _used():\n    return 1\n"
        "_TABLE = {}\n_SHARED = 1\n"
        "X = _used()\n",
        "b": "from a import _SHARED\nY = _SHARED\n",
    }
    assert leftovers(sources) == [
        "a: unused import add",
        "a: private name _dead is never read",
        "a: private name _TABLE is never read",
    ]


def _random_zero_sum(rng, n, generic):
    while True:
        raw = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(n - 1)]
        entries = raw + [-sum(raw, Fraction(0))]
        if generic:
            entries = sorted(entries, reverse=True)
            if any(a == b for a, b in zip(entries, entries[1:])):
                continue
        return WeightVector(tuple(entries))


def test_soundness_holds_for_random_regular_levels():
    # full generator sweep at rank 3 for at least three random regular pairs
    rng = random.Random(101)
    passed_pairs = 0
    attempts = 0
    while passed_pairs < 3 and attempts < 200:
        attempts += 1
        lam = _random_zero_sum(rng, 3, generic=True)
        mu = _random_zero_sum(rng, 3, generic=False)
        if not is_regular(lam, mu).regular:
            continue
        gens = kernel_generators(lam, mu)
        for gen in gens:
            half_space_soundness(gen, lam, mu)
        passed_pairs += 1
    assert passed_pairs == 3
