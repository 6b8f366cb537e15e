"""Workload bodies, seeded inputs and correctness checks of the kflag benchmark.

A workload has three parts:

* ``build(kflag, seed, size)`` makes the inputs. It runs during set-up and
  draws every sampled pair, product and generator choice from ``seed``; the
  library only ever receives the finished inputs.
* ``run_pass(kflag, inputs)`` is the timed body, a generator. It calls the
  public functions of ``kflag`` and yields their outputs untouched, one per
  step; the runner times each step (the code between two yields) on its own.
  A pass is deterministic given its inputs, so step k of every pass does
  the same work.
* ``check(kflag, inputs, outputs, reference)`` runs outside the timed body
  on the list of yielded outputs and returns one boolean per check.
  ``expected_checks(inputs)`` says how many checks a pass makes, so that an
  exception can count the rest as failed.

Fixed outputs are compared with digests recorded from the seed commit
(``reference.json``, written by ``record_reference.py``); seeded outputs are
checked by invariants. Every body starts from a cold class cache, so all
passes of a run do the same work.

``size`` is ``"full"`` for measurements and ``"tiny"`` for the smoke tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def digest_polys(items) -> str:
    """sha256 over (label, term count, hash of the term set) for each polynomial.

    The term set is hashed as a frozenset, which ignores dict order and is
    several times faster than sorting a million terms. Hashes of int tuples do not
    depend on PYTHONHASHSEED, but the algorithm is CPython's (stable since
    3.8): reference.json records the Python version it was recorded with.
    """
    h = hashlib.sha256()
    for label, poly in items:
        terms = poly.terms
        h.update(repr((label, len(terms), hash(frozenset(terms.items())))).encode())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _zero_mod_det(terms: dict[tuple[int, ...], int], n: int) -> bool:
    """Whether a y-only term dict vanishes modulo y_1 * ... * y_n = 1.

    Written here, apart from ``kflag.laurent.canonical_zero_test``, so the
    round-trip check does not lean on the code it checks: every monomial
    y^e is moved to y^(e - e_n * (1, ..., 1)), which drops y_n.
    """
    acc: dict[tuple[int, ...], int] = {}
    for key, c in terms.items():
        if any(key[:n]):
            return False
        last = key[-1]
        red = tuple(e - last for e in key[n:-1])
        acc[red] = acc.get(red, 0) + c
    return not any(acc.values())


# -- classes -------------------------------------------------------------------
#
# Why: building rank-6 classes from a cold cache is almost all ddo.pi and
# laurent.exact_div; gkm, kirwan and perm stay idle. A pass is a slice of the
# class table: every stride-th element of S_6 in lex order, one step per
# class, sharing the cache within the pass (so lookups of classes already on
# a chain hit). The whole table (12 s) would leave too few passes in a run.
# The seed does not change the inputs: the slice is fixed.

CLASSES_SIZES = {"full": (6, 60), "tiny": (4, 4)}  # (n, stride)


@dataclass
class ClassesInputs:
    n: int
    perms: list


def classes_build(kflag, seed: int, size: str) -> ClassesInputs:
    n, stride = CLASSES_SIZES[size]
    return ClassesInputs(n, list(kflag.perm.all_permutations(n))[::stride])


def classes_pass(kflag, inputs: ClassesInputs):
    kflag.groth.clear_cache()
    for w in inputs.perms:
        yield kflag.groth.grothendieck(w)


def classes_checks(inputs: ClassesInputs) -> int:
    return len(inputs.perms)


def class_key(w) -> str:
    return f"classes/n{w.n}/" + "".join(map(str, w.images))


def classes_check(kflag, inputs: ClassesInputs, classes, reference: dict) -> list[bool]:
    return [digest_polys([(w.images, g)]) == reference[class_key(w)]
            for w, g in zip(inputs.perms, classes)]


# -- localize ------------------------------------------------------------------
#
# Why: the time goes to gkm (support, restriction, decomposition) and perm
# (Bruhat tests) with only a small warm class cache. The rank-4 sweeps are
# sized to take at least half the body. Rank-5 work is stratified: the pair
# queries cover a fixed set of base classes u (every pair_stride-th element
# of S_5) with a seeded relabelling gamma, and each round trip multiplies two
# fixed base shapes relabelled by one seeded gamma, so the work per pass is
# the same for every seed while the inputs differ.

LOCALIZE_SIZES = {
    "full": {
        "sweep_n": 4,
        "sweeps": 5,
        "pair_n": 5,
        "pair_stride": 5,
        "shapes": [((1, 2, 5, 4, 3), (5, 1, 4, 2, 3)), ((2, 3, 1, 4, 5), (3, 4, 1, 2, 5))],
    },
    "tiny": {
        "sweep_n": 3,
        "sweeps": 2,
        "pair_n": 3,
        "pair_stride": 1,
        "shapes": [((1, 3, 2), (2, 1, 3))],
    },
}


@dataclass
class LocalizeInputs:
    sweep_n: int
    sweeps: int
    pair_n: int
    points: list
    pairs: list = field(default_factory=list)
    round_trips: list = field(default_factory=list)


def localize_build(kflag, seed: int, size: str) -> LocalizeInputs:
    cfg = LOCALIZE_SIZES[size]
    rng = random.Random(seed)
    Permutation = kflag.perm.Permutation
    points = list(kflag.perm.all_permutations(cfg["pair_n"]))
    inputs = LocalizeInputs(cfg["sweep_n"], cfg["sweeps"], cfg["pair_n"], points)
    for u in points[:: cfg["pair_stride"]]:
        gamma = rng.choice(points)
        inputs.pairs.append((gamma * u, gamma))
    rng.shuffle(inputs.pairs)
    for u1, u2 in cfg["shapes"]:
        gamma = rng.choice(points)
        inputs.round_trips.append(
            (gamma * Permutation(u1), gamma * Permutation(u2), gamma)
        )
    return inputs


def localize_pass(kflag, inputs: LocalizeInputs):
    groth, gkm, perm = kflag.groth, kflag.gkm, kflag.perm
    for _ in range(inputs.sweeps):
        groth.clear_cache()
        yield gkm.verify_support_theorem(inputs.sweep_n)
    for w, gamma in inputs.pairs:
        supp = gkm.support(groth.permuted_grothendieck(w, gamma))
        interval = frozenset(
            v for v in inputs.points if perm.permuted_bruhat_leq(v, w, gamma)
        )
        yield supp, interval
    for w1, w2, gamma in inputs.round_trips:
        a = groth.permuted_grothendieck(w1, gamma)
        b = groth.permuted_grothendieck(w2, gamma)
        alpha = gkm.restrict_all(a * b)
        back = gkm.recompose(gkm.decompose(alpha, gamma), gamma, inputs.pair_n)
        yield alpha, back


def localize_checks(inputs: LocalizeInputs) -> int:
    return inputs.sweeps + len(inputs.pairs) + len(inputs.round_trips)


def sweep_digest(report) -> str:
    """Digest of the bytes ``kflag verify --n N --json`` prints."""
    text = json.dumps(report.to_json_obj(), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def localize_check(kflag, inputs: LocalizeInputs, outputs, reference: dict) -> list[bool]:
    sweeps = outputs[: inputs.sweeps]
    queries = outputs[inputs.sweeps : inputs.sweeps + len(inputs.pairs)]
    trips = outputs[inputs.sweeps + len(inputs.pairs) :]
    want = reference[f"localize/n{inputs.sweep_n}/sweep"]
    results = [sweep_digest(report) == want for report in sweeps]
    results += [supp == interval for supp, interval in queries]
    n = inputs.pair_n
    for alpha, back in trips:
        results.append(
            set(back.entries) == set(alpha.entries)
            and all(
                _zero_mod_det((back.entries[z] - alpha.entries[z]).terms, n)
                for z in alpha.entries
            )
        )
    return results


# -- weight --------------------------------------------------------------------
#
# Why: kirwan (walls, kernel, soundness), laurent.permute_y and JSON
# serialisation, with only the n! base classes read from the cache. The
# kernel is the rank-5 one; the presentation goes through the CLI at rank 4,
# because the rank-5 presentation writes 280 MB with a 2.5 GB peak, too much
# for a shared machine and for repeated runs. Soundness runs on
# sound_samples generators: their v are evenly spaced over the v that have
# generators, and the seed picks gamma among the generators of each such v,
# so the work per pass hardly depends on the seed.

WEIGHT_SIZES = {
    "full": {
        "lam": "4,2,0,-2,-4",
        "mu": "31/97,17/97,5/97,-11/97,-42/97",
        "sound_samples": 24,
        "pres_lam": "3,1,-1,-3",
        "pres_mu": "31/97,17/97,-11/97,-37/97",
    },
    "tiny": {
        "lam": "1,0,-1",
        "mu": "1/4,1/8,-3/8",
        "sound_samples": 3,
        "pres_lam": "1,0,-1",
        "pres_mu": "1/4,1/8,-3/8",
    },
}


@dataclass
class WeightInputs:
    lam: object
    mu: object
    n: int
    pres_n: int
    pres_argv: list
    out_path: Path
    draws: list  # one uniform draw in [0, 1) per soundness sample


def weight_build(kflag, seed: int, size: str) -> WeightInputs:
    cfg = WEIGHT_SIZES[size]
    rng = random.Random(seed)
    W = kflag.kirwan.WeightVector
    lam, mu = W.parse(cfg["lam"]), W.parse(cfg["mu"])
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"presentation-{os.getpid()}.json"
    argv = ["presentation", "--lambda", cfg["pres_lam"], "--mu", cfg["pres_mu"],
            "--out", str(out_path)]
    pres_n = len(cfg["pres_lam"].split(","))
    return WeightInputs(lam, mu, lam.n, pres_n, argv, out_path,
                        [rng.random() for _ in range(cfg["sound_samples"])])


def weight_pass(kflag, inputs: WeightInputs):
    kirwan = kflag.kirwan
    kflag.groth.clear_cache()
    yield kirwan.is_regular(inputs.lam, inputs.mu)
    gens = kirwan.kernel_generators(inputs.lam, inputs.mu)
    yield gens
    by_v: dict[tuple[int, ...], list] = {}
    for gen in gens:
        by_v.setdefault(gen.v.images, []).append(gen)
    groups = [by_v[v] for v in sorted(by_v)]
    for i, draw in enumerate(inputs.draws):
        choices = groups[i * len(groups) // len(inputs.draws)]
        gen = choices[int(draw * len(choices))]
        try:
            yield len(kirwan.half_space_soundness(gen, inputs.lam, inputs.mu).checks)
        except kflag.SoundnessFailureError:
            yield None
    yield kflag.cli.main(inputs.pres_argv)


def weight_checks(inputs: WeightInputs) -> int:
    return 3 + len(inputs.draws)


def kernel_digest(gens) -> str:
    return digest_polys(
        ((g.v.images, g.gamma.images, g.witnesses), g.poly) for g in gens
    )


def weight_check(kflag, inputs: WeightInputs, outputs, reference: dict) -> list[bool]:
    cert, gens, sound, code = outputs[0], outputs[1], outputs[2:-1], outputs[-1]
    results = [cert.regular]
    results.append(kernel_digest(gens) == reference[f"weight/n{inputs.n}/kernel"])
    results += [bool(checks) for checks in sound]
    results.append(
        code == 0
        and inputs.out_path.is_file()
        and file_digest(inputs.out_path)
        == reference[f"weight/n{inputs.pres_n}/presentation"]
    )
    inputs.out_path.unlink(missing_ok=True)
    return results


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run_pass: object
    expected_checks: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classes", classes_build, classes_pass, classes_checks, classes_check),
        Workload("localize", localize_build, localize_pass, localize_checks, localize_check),
        Workload("weight", weight_build, weight_pass, weight_checks, weight_check),
    )
}
