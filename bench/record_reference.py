#!/usr/bin/env python3
"""Record the reference digests the benchmark checks fixed outputs against.

    python3 bench/record_reference.py

Run it once, on the commit whose outputs are taken as correct; it rewrites
bench/reference.json. Before recording, the presentation path is anchored
to the frozen rank-3 golden file tests/testdata/presentation_n3_golden.json,
which it only reads: if ``kflag presentation`` at rank 3 does not reproduce
those bytes, nothing is written. The tiny weight size is that same rank-3
case, so its presentation digest is the golden file's digest.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys

from run import HERE, ROOT, git_commit, import_kflag
from workloads import (
    CLASSES_SIZES,
    LOCALIZE_SIZES,
    OUT_DIR,
    WEIGHT_SIZES,
    class_key,
    digest_polys,
    file_digest,
    kernel_digest,
    sweep_digest,
)

GOLDEN = ROOT / "tests" / "testdata" / "presentation_n3_golden.json"
GOLDEN_ARGV = ["presentation", "--lambda", "1,0,-1", "--mu", "1/4,1/8,-3/8"]


def _presentation_digest(kflag, lam: str, mu: str) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "reference-presentation.json"
    code = kflag.cli.main(["presentation", "--lambda", lam, "--mu", mu, "--out", str(path)])
    if code != 0:
        raise SystemExit(f"kflag presentation exited {code}")
    try:
        return file_digest(path)
    finally:
        path.unlink()


def record(kflag) -> dict:
    golden = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
    lam, mu = GOLDEN_ARGV[2], GOLDEN_ARGV[4]
    if _presentation_digest(kflag, lam, mu) != golden:
        raise SystemExit(f"rank-3 presentation does not reproduce {GOLDEN.name}")
    digests = {}
    for n, stride in CLASSES_SIZES.values():
        kflag.groth.clear_cache()
        for w in list(kflag.perm.all_permutations(n))[::stride]:
            digests[class_key(w)] = digest_polys([(w.images, kflag.groth.grothendieck(w))])
    for cfg in LOCALIZE_SIZES.values():
        n = cfg["sweep_n"]
        digests[f"localize/n{n}/sweep"] = sweep_digest(kflag.gkm.verify_support_theorem(n))
    W = kflag.kirwan.WeightVector
    for cfg in WEIGHT_SIZES.values():
        lam, mu = W.parse(cfg["lam"]), W.parse(cfg["mu"])
        digests[f"weight/n{lam.n}/kernel"] = kernel_digest(kflag.kirwan.kernel_generators(lam, mu))
        pres_n = len(cfg["pres_lam"].split(","))
        digests[f"weight/n{pres_n}/presentation"] = _presentation_digest(
            kflag, cfg["pres_lam"], cfg["pres_mu"]
        )
    return dict(sorted(digests.items()))


def main() -> int:
    kflag = import_kflag()
    data = {
        "recorded_at_commit": git_commit(),
        "python": platform.python_version(),
        "digests": record(kflag),
    }
    (HERE / "reference.json").write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(data, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
