"""Doctest runner plus cross-module property sweeps that fit nowhere else."""

import doctest
import os
import random
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


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


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
