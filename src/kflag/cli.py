"""Command line front end.

Exit codes: 0 success; 2 invalid input (parse or precondition failures);
3 the reduction level is not regular; 4 internal invariant violation
(including soundness failures); 5 the exhaustive verification found a
counterexample. All stdout output is deterministic byte-for-byte for a
given invocation; progress chatter goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import gkm, groth, kirwan
from .ddo import delta, pi
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    KflagError,
    NotDivisibleError,
    NotRegularError,
    SoundnessFailureError,
)
from .laurent import (
    LaurentPoly,
    poly_from_json,
    polys_to_json,
    render_poly,
    write_json,
)
from .perm import Permutation

_CYCLE_HINT = (
    "cycle notation is not accepted; use comma-separated one-line notation. "
    "For S_3: (12) -> 2,1,3  (23) -> 1,3,2  (13) -> 3,2,1  "
    "(123) -> 2,3,1  (132) -> 3,1,2"
)


def _parse_permutation(text: str, n: int | None = None) -> Permutation:
    if text.strip().startswith("("):
        raise InvalidInputError(f"cannot parse {text!r}: {_CYCLE_HINT}")
    w = Permutation.from_one_line(text)
    if n is not None and w.n != n:
        raise InvalidInputError(f"permutation {text!r} does not have rank {n}")
    return w


def _parse_gamma(args, n: int) -> Permutation:
    if args.gamma is None:
        return Permutation.identity(n)
    return _parse_permutation(args.gamma, n)


def _emit_json(tree, fh=None) -> None:
    # the text of json.dumps(polys_to_json(tree), indent=2) plus a newline
    if fh is None:
        fh = sys.stdout
    write_json(tree, fh)
    fh.write("\n")


def _print_poly(args, poly: LaurentPoly) -> None:
    if args.json:
        _emit_json(poly)
    else:
        print(render_poly(poly))


def _read_poly(path: str) -> LaurentPoly:
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read polynomial file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"polynomial file is not valid JSON: {exc}") from exc
    return poly_from_json(data)


# -- subcommands ---------------------------------------------------------------


def _cmd_groth(args) -> int:
    w = _parse_permutation(args.w, args.n)
    gamma = _parse_gamma(args, args.n)
    _print_poly(args, groth.permuted_grothendieck(w, gamma))
    return 0


def _cmd_ddo(args) -> int:
    poly = _read_poly(args.poly)
    op = {"delta": delta, "pi": pi}[args.op]
    _print_poly(args, op(args.i, poly))
    return 0


def _cmd_restrict(args) -> int:
    w = _parse_permutation(args.w, args.n)
    gamma = _parse_gamma(args, args.n)
    z = _parse_permutation(args.at, args.n)
    _print_poly(args, gkm.restrict(groth.permuted_grothendieck(w, gamma), z))
    return 0


def _cmd_support(args) -> int:
    w = _parse_permutation(args.w, args.n)
    gamma = _parse_gamma(args, args.n)
    members = sorted(
        gkm.support(groth.permuted_grothendieck(w, gamma)), key=lambda p: p.images
    )
    if args.json:
        _emit_json([list(z.images) for z in members])
    else:
        for z in members:
            print(z.one_line())
    return 0


def _cmd_verify(args) -> int:
    report = gkm.verify_support_theorem(args.n)
    if args.json:
        _emit_json(report.to_json_obj())
    else:
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(
                f"{status} w={','.join(map(str, check.w))}"
                f" gamma={','.join(map(str, check.gamma))}"
            )
        print(report.summary())
    return 0 if report.all_passed else 5


def _cmd_decompose(args) -> int:
    try:
        with open(args.cls, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read class file {args.cls!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"class file is not valid JSON: {exc}") from exc
    alpha = restriction_class_from_json(data)
    if alpha.n != args.n:
        raise InvalidInputError(f"class file has rank {alpha.n}, expected {args.n}")
    gamma = _parse_permutation(args.gamma, args.n)
    coeffs = gkm.decompose(alpha, gamma)
    items = sorted(coeffs.items(), key=lambda kv: kv[0].images)
    if args.json:
        _emit_json([{"w": list(w.images), "coeff": c} for w, c in items])
    else:
        for w, c in items:
            print(f"{w.one_line()}: {render_poly(c)}")
    return 0


def _cmd_regular(args) -> int:
    lam = kirwan.WeightVector.parse(args.lam)
    mu = kirwan.WeightVector.parse(args.mu)
    cert = kirwan.is_regular(lam, mu)
    if args.json:
        _emit_json(cert.to_json_obj())
    else:
        print("regular" if cert.regular else "not regular")
        for wall in cert.walls:
            print(
                f"wall v={wall.v.one_line()} gamma={wall.gamma.one_line()}"
                f" k={wall.k} value={wall.value}"
            )
    return 0


def _cmd_kernel(args) -> int:
    lam = kirwan.WeightVector.parse(args.lam)
    mu = kirwan.WeightVector.parse(args.mu)
    gens = kirwan.kernel_generators(lam, mu)
    if args.check:
        kirwan.kernel_soundness(gens, lam, mu)
    if args.json:
        _emit_json([gen.json_tree() for gen in gens])
    else:
        # the generators share their key tuples, so one memo renders each
        # distinct monomial once
        memo: dict = {}
        for gen in gens:
            ks = ",".join(map(str, gen.witnesses))
            print(
                f"v={gen.v.one_line()} gamma={gen.gamma.one_line()}"
                f" witnesses={ks} poly={render_poly(gen.poly, memo)}"
            )
    return 0


def _cmd_presentation(args) -> int:
    lam = kirwan.WeightVector.parse(args.lam)
    mu = kirwan.WeightVector.parse(args.mu)
    tree = kirwan.presentation(lam, mu).json_tree()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _emit_json(tree, fh)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        _emit_json(tree)
    return 0


def restriction_class_from_json(data) -> gkm.RestrictionClass:
    """Parse {"n": N, "entries": [{"z": "...", "poly": [...]}, ...]}."""
    try:
        n = data["n"]
        raw_entries = data["entries"]
        # integers only, here and in "z": int() would truncate 2.9 to 2
        if type(n) is not int:
            raise TypeError("'n' must be an integer")
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("class file must carry 'n' and 'entries'") from exc
    if not isinstance(raw_entries, list):
        raise InvalidInputError(
            f"class file 'entries' must be an array, got {type(raw_entries).__name__}"
        )
    entries = {}
    for item in raw_entries:
        try:
            raw_z = item["z"]
            if isinstance(raw_z, str):
                z = _parse_permutation(raw_z, n)
            else:
                if any(type(v) is not int for v in raw_z):
                    raise TypeError("'z' must be an array of integers")
                z = Permutation(tuple(raw_z))
                if z.n != n:
                    raise InvalidInputError(f"entry {raw_z!r} does not have rank {n}")
            terms = item["poly"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed class entry {item!r}") from exc
        if z in entries:
            raise InvalidInputError(f"duplicate class entry at {z.one_line()}")
        # only [] is the zero polynomial; 0, null, "" and {} are refused
        if not isinstance(terms, list):
            raise InvalidInputError(f"class entry 'poly' at {z.one_line()} must be an array")
        entries[z] = poly_from_json(terms) if terms else LaurentPoly.zero(n)
    return gkm.RestrictionClass(n, entries)


def restriction_class_to_json(alpha: gkm.RestrictionClass) -> dict:
    return polys_to_json({
        "n": alpha.n,
        "entries": [
            {"z": list(z.images), "poly": alpha.entries[z]}
            for z in sorted(alpha.entries, key=lambda p: p.images)
        ],
    })


# -- parser ----------------------------------------------------------------------

_JOBS_HELP = "accepted for compatibility and ignored; every run is serial (must be >= 1)"


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kflag",
        description="Exact Schubert-class computations and weight-variety presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    p = add("groth", "permuted double Grothendieck polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True, help="one-line notation, e.g. 1,3,2")
    p.add_argument("--gamma", default=None)
    p.set_defaults(func=_cmd_groth)

    p = add("ddo", "apply a divided difference operator to a polynomial file")
    p.add_argument("--op", choices=("delta", "pi"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--poly", required=True, help="JSON term file, or - for stdin")
    p.set_defaults(func=_cmd_ddo)

    p = add("restrict", "restrict a class at a fixed point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--at", required=True, help="fixed point, one-line notation")
    p.set_defaults(func=_cmd_restrict)

    p = add("support", "support of a class over the fixed points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--gamma", default=None)
    p.set_defaults(func=_cmd_support)

    p = add("verify", "exhaustive support/interval sweep over S_n x S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=_jobs, default=1, help=_JOBS_HELP)
    p.set_defaults(func=_cmd_verify)

    p = add("decompose", "decompose a localized class in a permuted basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--class", dest="cls", required=True, help="restriction class JSON file")
    p.set_defaults(func=_cmd_decompose)

    p = add("regular", "wall-avoidance check for a reduction level")
    p.add_argument("--lambda", dest="lam", required=True, help="e.g. 1,0,-1")
    p.add_argument("--mu", dest="mu", required=True, help="e.g. 1/4,1/8,-3/8")
    p.set_defaults(func=_cmd_regular)

    p = add("kernel", "kernel generators for a regular reduction level")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", dest="mu", required=True)
    p.add_argument("--jobs", type=_jobs, default=1, help=_JOBS_HELP)
    p.add_argument("--check", action="store_true", help="run soundness certificates")
    p.set_defaults(func=_cmd_kernel)

    p = add("presentation", "assembled generators-and-relations presentation (JSON)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", dest="mu", required=True)
    p.add_argument("--jobs", type=_jobs, default=1, help=_JOBS_HELP)
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_presentation)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotRegularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cert = exc.certificate
        if cert is not None:
            for wall in cert.walls:
                print(
                    f"  wall v={wall.v.one_line()} gamma={wall.gamma.one_line()}"
                    f" k={wall.k} value={wall.value}",
                    file=sys.stderr,
                )
        return 3
    except (InternalInvariantError, SoundnessFailureError, NotDivisibleError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except KflagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
