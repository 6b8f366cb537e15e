"""Command line front end.

Exit codes: 0 success; 2 invalid input (parse or precondition failures);
3 the reduction level is not regular; 4 internal invariant violation
(including soundness failures); 5 the exhaustive verification found a
counterexample; 141 (128 + SIGPIPE) the reader closed stdout early, as in
``kflag ... | head``, and nothing is printed about it. All stdout output is
deterministic byte-for-byte for a given invocation; progress chatter goes
to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import gkm, groth, kirwan
from .ddo import delta, pi
from .errors import (
    InternalInvariantError,
    InvalidInputError,
    KflagError,
    NotRegularError,
    SoundnessFailureError,
)
from .laurent import LaurentPoly, poly_from_json, render_poly, write_json
from .perm import Permutation

_CYCLE_HINT = (
    "cycle notation is not accepted; use comma-separated one-line notation. "
    "For S_3: (12) -> 2,1,3  (23) -> 1,3,2  (13) -> 3,2,1  "
    "(123) -> 2,3,1  (132) -> 3,1,2"
)


def _parse_permutation(text: str, n: int) -> Permutation:
    if text.strip().startswith("("):
        raise InvalidInputError(f"cannot parse {text!r}: {_CYCLE_HINT}")
    w = Permutation.from_one_line(text)
    if w.n != n:
        raise InvalidInputError(f"permutation {text!r} does not have rank {n}")
    return w


def _parse_class(args) -> tuple[Permutation, Permutation]:
    """w and gamma of --n/--w/--gamma; gamma defaults to the identity."""
    w = _parse_permutation(args.w, args.n)
    if args.gamma is None:
        return w, Permutation.identity(args.n)
    return w, _parse_permutation(args.gamma, args.n)


def _parse_weights(args) -> tuple[kirwan.WeightVector, kirwan.WeightVector]:
    """lambda and mu of --lambda/--mu."""
    return kirwan.WeightVector.parse(args.lam), kirwan.WeightVector.parse(args.mu)


def _wall_line(wall: kirwan.WallHit) -> str:
    return f"wall v={wall.v} gamma={wall.gamma} k={wall.k} value={wall.value}"


def _emit_json(tree, fh=None) -> None:
    # write_json's text plus a newline; poly_to_json reads the same text back
    if fh is None:
        fh = sys.stdout
    write_json(tree, fh)
    fh.write("\n")


def _print_poly(args, poly: LaurentPoly) -> None:
    if args.json:
        _emit_json(poly)
    else:
        print(render_poly(poly))


def _read_json(path: str, what: str):
    """The JSON value in the file at path, or on stdin for "-", read as UTF-8.

    what names the file kind in the messages; every failure to read or to
    decode it is an InvalidInputError.
    """
    try:
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # past the interpreter's digit limit; RecursionError deep nesting
        raise InvalidInputError(f"{what} is not valid JSON: {exc}") from exc


# -- subcommands ---------------------------------------------------------------


def _cmd_groth(args) -> int:
    _print_poly(args, groth.permuted_grothendieck(*_parse_class(args)))
    return 0


def _cmd_ddo(args) -> int:
    poly = poly_from_json(_read_json(args.poly, "polynomial file"))
    op = {"delta": delta, "pi": pi}[args.op]
    _print_poly(args, op(args.i, poly))
    return 0


def _cmd_restrict(args) -> int:
    w, gamma = _parse_class(args)
    z = _parse_permutation(args.at, args.n)
    _print_poly(args, gkm.restrict(groth.permuted_grothendieck(w, gamma), z))
    return 0


def _cmd_support(args) -> int:
    f = groth.permuted_grothendieck(*_parse_class(args))
    members = sorted(gkm.support(f), key=lambda p: p.images)
    if args.json:
        _emit_json([list(z.images) for z in members])
    else:
        for z in members:
            print(z.one_line())
    return 0


def _cmd_verify(args) -> int:
    report = gkm.verify_support_theorem(args.n)
    if args.json:
        # one pair's tree at a time: the whole report's tree would hold every pair
        _emit_json(map(gkm.PairCheck.to_json_obj, report.checks))
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
    alpha = restriction_class_from_json(_read_json(args.cls, "class file"))
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
    cert = kirwan.is_regular(*_parse_weights(args))
    if args.json:
        _emit_json({"regular": cert.regular, "walls": map(kirwan.WallHit.to_json_obj, cert.walls)})
    else:
        print("regular" if cert.regular else "not regular")
        for wall in cert.walls:
            print(_wall_line(wall))
    return 0


def _cmd_kernel(args) -> int:
    lam, mu = _parse_weights(args)
    gens = kirwan.kernel_generators(lam, mu)
    if args.check:
        # completeness first: it reads lam alone
        kirwan.cover_monotonicity(lam)
        kirwan.kernel_soundness(gens, lam, mu)
    if args.json:
        _emit_json(map(kirwan.KernelGenerator.json_tree, gens))
    else:
        # the generators share their key tuples, so one memo renders each
        # distinct monomial once; generators of one v share their polys, so
        # a second memo, cleared when v changes, renders each poly once
        memo: dict = {}
        rendered: dict[int, str] = {}
        v = None
        for gen in gens:
            if gen.v is not v:
                v = gen.v
                rendered.clear()
            text = rendered.get(id(gen.poly))
            if text is None:
                text = rendered[id(gen.poly)] = render_poly(gen.poly, memo)
            ks = ",".join(map(str, gen.witnesses))
            print(
                f"v={gen.v.one_line()} gamma={gen.gamma.one_line()}"
                f" witnesses={ks} poly={text}"
            )
    return 0


def _cmd_presentation(args) -> int:
    tree = kirwan.presentation(*_parse_weights(args)).json_tree()
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
    """Parse {"n": N, "entries": [{"z": Z, "poly": [...]}, ...]}; the fixed point
    Z is either a one-line string such as "2,1,3" or an array such as [2, 1, 3]."""
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
            if not isinstance(raw_z, str):
                if any(type(v) is not int for v in raw_z):
                    raise TypeError("'z' must be an array of integers")
                raw_z = ",".join(map(str, raw_z))
            terms = item["poly"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed class entry {item!r}") from exc
        # a refused fixed point keeps its reason (cycle notation, wrong rank)
        z = _parse_permutation(raw_z, n)
        if z in entries:
            raise InvalidInputError(f"duplicate class entry at {z.one_line()}")
        # only [] is the zero polynomial; 0, null, "" and {} are refused
        if not isinstance(terms, list):
            raise InvalidInputError(f"class entry 'poly' at {z.one_line()} must be an array")
        entries[z] = poly_from_json(terms) if terms else LaurentPoly.zero(n)
    return gkm.RestrictionClass(n, entries)


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kflag",
        description="Exact Schubert-class computations and weight-variety presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func, *options) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    # the option groups that several subcommands share
    rank = ("--n", {"type": int, "required": True})
    klass = (
        rank,
        ("--w", {"required": True, "help": "one-line notation, e.g. 1,3,2"}),
        ("--gamma", {"default": None}),
    )
    weights = (
        ("--lambda", {"dest": "lam", "required": True, "help": "e.g. 1,0,-1"}),
        ("--mu", {"dest": "mu", "required": True, "help": "e.g. 1/4,1/8,-3/8"}),
    )

    add("groth", "permuted double Grothendieck polynomial", _cmd_groth, *klass)
    add(
        "ddo", "apply a divided difference operator to a polynomial file", _cmd_ddo,
        ("--op", {"choices": ("delta", "pi"), "required": True}),
        ("--i", {"type": int, "required": True}),
        ("--poly", {"required": True, "help": "JSON term file, or - for stdin"}),
    )
    add(
        "restrict", "restrict a class at a fixed point", _cmd_restrict, *klass,
        ("--at", {"required": True, "help": "fixed point, one-line notation"}),
    )
    add("support", "support of a class over the fixed points", _cmd_support, *klass)
    add("verify", "exhaustive support/interval sweep over S_n x S_n", _cmd_verify, rank)
    add(
        "decompose", "decompose a localized class in a permuted basis", _cmd_decompose, rank,
        ("--gamma", {"required": True}),
        ("--class", {"dest": "cls", "required": True, "help": "restriction class JSON file"}),
    )
    add("regular", "wall-avoidance check for a reduction level", _cmd_regular, *weights)
    add(
        "kernel", "kernel generators for a regular reduction level", _cmd_kernel, *weights,
        ("--check", {"action": "store_true", "help": "certify soundness and cover monotonicity"}),
    )
    add(
        "presentation", "assembled generators-and-relations presentation (JSON)",
        _cmd_presentation, *weights,
        ("--out", {"default": None, "help": "write to a file instead of stdout"}),
    )

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
                print(f"  {_wall_line(wall)}", file=sys.stderr)
        return 3
    except (InternalInvariantError, SoundnessFailureError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except KflagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at os.devnull so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
