import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import cli, ddo, gkm, groth, kirwan
from kflag.cli import MAX_TERMS, build_parser, main, restriction_class_from_json
from kflag.errors import InvalidInputError, LimitExceededError
from kflag.gkm import decompose, recompose, restrict_all
from kflag.groth import top
from kflag.laurent import LaurentPoly, poly_from_json, poly_to_json, polys_to_json, render_poly
from kflag.perm import Permutation

from oracles import restriction_class_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroth:
    def test_worked_example_text(self, capsys):
        code, out, _ = run(capsys, "groth", "--n", "3", "--w", "1,3,2", "--gamma", "2,1,3")
        assert code == 0
        assert out == "1 - y3*x1^-1\n"

    def test_json_output_parses(self, capsys):
        code, out, _ = run(
            capsys, "groth", "--n", "3", "--w", "1,3,2", "--gamma", "2,1,3", "--json"
        )
        assert code == 0
        poly = poly_from_json(json.loads(out))
        assert str(poly) == "1 - y3*x1^-1"

    def test_default_gamma_is_identity(self, capsys):
        code_plain, out_plain, _ = run(capsys, "groth", "--n", "2", "--w", "1,2")
        code_gamma, out_gamma, _ = run(
            capsys, "groth", "--n", "2", "--w", "1,2", "--gamma", "1,2"
        )
        assert code_plain == code_gamma == 0
        assert out_plain == out_gamma == "1 - y2*x1^-1\n"


class TestInputValidation:
    def test_bad_permutation_exits_2(self, capsys):
        code, _, err = run(capsys, "groth", "--n", "3", "--w", "1,1,2")
        assert code == 2
        assert "error" in err

    def test_cycle_notation_rejected_with_hint(self, capsys):
        code, _, err = run(capsys, "groth", "--n", "3", "--w", "(12)")
        assert code == 2
        assert "one-line notation" in err
        assert "2,1,3" in err

    def test_rank_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "groth", "--n", "3", "--w", "1,2")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_sweep_bound_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "7")
        assert code == 2


def _never(*args, **kwargs):
    raise AssertionError("an oversized input was run")


class TestRankBounds:
    """Oversized ranks are refused before any work, with exit 2 and the bound named."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["groth", "--n", "8", "--w", "8,7,6,5,4,3,2,1"],
            ["groth", "--n", "8", "--w", "1,2,3,4,5,6,7,8", "--json"],
            ["support", "--n", "8", "--w", "2,1,3,4,5,6,7,8"],
            ["restrict", "--n", "9", "--w", "1,2,3,4,5,6,7,8,9", "--at", "1,2,3,4,5,6,7,8,9"],
        ],
    )
    def test_classes_above_rank_seven(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(groth, "pi", _never)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "class bound 7" in err
        assert not any(len(key) > 7 for key in groth._CACHE)

    @pytest.mark.parametrize("command", ["regular", "kernel", "presentation"])
    def test_weight_layer_above_rank_six(self, capsys, monkeypatch, command):
        monkeypatch.setattr(kirwan, "all_permutations", _never)
        start = time.perf_counter()
        code, out, err = run(
            capsys, command, "--lambda", "6,4,2,0,-2,-4,-6", "--mu", "3,2,1,0,-1,-2,-3"
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "weight-layer bound 6" in err

    def test_library_refusals(self, monkeypatch):
        monkeypatch.setattr(kirwan, "all_permutations", _never)
        with pytest.raises(LimitExceededError, match="class bound 7"):
            top(8)
        lam = kirwan.WeightVector.staircase(7)
        for fn in (kirwan.is_regular, kirwan.kernel_generators, kirwan.presentation):
            with pytest.raises(LimitExceededError, match="weight-layer bound 6"):
                fn(lam, lam)


class TestDdoPipe:
    def test_round_trip_from_groth(self, capsys, tmp_path):
        code, out, _ = run(capsys, "groth", "--n", "2", "--w", "1,2", "--json")
        assert code == 0
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(out)
        code, out2, _ = run(capsys, "ddo", "--op", "pi", "--i", "1", "--poly", str(poly_file))
        assert code == 0
        assert out2 == "1\n"

    def test_delta_from_file(self, capsys, tmp_path):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(
            json.dumps([{"coeff": "1", "x": [2, 0], "y": [0, 0]}])
        )
        code, out, _ = run(capsys, "ddo", "--op", "delta", "--i", "1", "--poly", str(poly_file))
        assert code == 0
        assert out == "x1 + x2\n"

    def test_empty_poly_file_exits_2(self, capsys, tmp_path):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text("[]")
        code, _, err = run(capsys, "ddo", "--op", "pi", "--i", "1", "--poly", str(poly_file))
        assert code == 2

    def test_string_exponents_exit_2(self, capsys, tmp_path):
        # "12" must not be read as the exponent vector [1, 2]
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps([{"coeff": "1", "x": "12", "y": [0, 0]}]))
        code, out, err = run(capsys, "ddo", "--op", "pi", "--i", "1", "--poly", str(poly_file))
        assert code == 2
        assert out == ""
        assert "malformed polynomial term" in err

    def test_boolean_exponents_exit_2(self, capsys, tmp_path):
        # [true, false] must not be read as [1, 0]
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps([{"coeff": "1", "x": [True, False], "y": [0, 0]}]))
        code, out, err = run(
            capsys, "ddo", "--op", "delta", "--i", "1", "--poly", str(poly_file)
        )
        assert code == 2
        assert out == ""
        assert "malformed polynomial term" in err

    @pytest.mark.parametrize(
        "coeff",
        [
            pytest.param("1_0", id="underscore"),  # int() reads it as 10
            pytest.param(7, id="bare-integer"),
            pytest.param(" 5", id="blank"),
        ],
    )
    def test_coefficient_not_a_decimal_string_exits_2(self, capsys, tmp_path, coeff):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps([{"coeff": coeff, "x": [2, 0], "y": [0, 0]}]))
        code, out, err = run(
            capsys, "ddo", "--op", "delta", "--i", "1", "--poly", str(poly_file)
        )
        assert code == 2
        assert out == ""
        assert "malformed polynomial term" in err


class TestDdoTermBound:
    """An operator that would write more than MAX_TERMS terms is refused before
    it expands anything, with exit 2 and the bound named."""

    @staticmethod
    def monomial_file(tmp_path, x):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps([{"coeff": "1", "x": x, "y": [0, 0]}]))
        return str(poly_file)

    @pytest.mark.parametrize("op", ["pi", "delta"])
    def test_oversized_output_exits_2(self, capsys, monkeypatch, tmp_path, op):
        # pi_1 on x1^(10^9) writes 10^9 + 1 terms, delta_1 10^9
        monkeypatch.setattr(ddo, "_divided_difference", _never)
        poly_file = self.monomial_file(tmp_path, [10**9, 0])
        start = time.perf_counter()
        code, out, err = run(capsys, "ddo", "--op", op, "--i", "1", "--poly", poly_file)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"over the term bound MAX_TERMS = {MAX_TERMS}" in err

    def test_moderate_power_succeeds(self, capsys, tmp_path):
        # pi_1(x1^1000) = sum over k of x1^k * x2^(1000 - k)
        poly_file = self.monomial_file(tmp_path, [1000, 0])
        code, out, _ = run(capsys, "ddo", "--op", "pi", "--i", "1", "--poly", poly_file, "--json")
        assert code == 0
        got = poly_from_json(json.loads(out))
        assert got.terms == {(k, 1000 - k, 0, 0): 1 for k in range(1001)}

    @pytest.mark.parametrize(
        "x, op, expected",
        [
            # |alpha_1 + s - alpha_2| terms: s = 1 for pi, 0 for delta
            ([1000, 0], "delta", 0),
            ([1000, 0], "pi", 2),
            ([1000, 1000], "pi", 0),
            ([0, 1002], "pi", 2),
        ],
    )
    def test_the_bound_counts_written_terms(self, capsys, monkeypatch, tmp_path, x, op, expected):
        monkeypatch.setattr(cli, "MAX_TERMS", 1000)
        poly_file = self.monomial_file(tmp_path, x)
        code, out, err = run(capsys, "ddo", "--op", op, "--i", "1", "--poly", poly_file)
        assert code == expected
        if expected:
            assert out == "" and "would write up to 1001 terms" in err


class TestRestrictAndSupport:
    def test_restrict_zero_point(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--n", "3", "--w", "1,3,2", "--gamma", "2,1,3", "--at", "3,2,1",
        )
        assert code == 0
        assert out == "0\n"

    def test_restrict_nonzero_point(self, capsys):
        code, out, _ = run(
            capsys,
            "restrict", "--n", "3", "--w", "1,3,2", "--gamma", "2,1,3", "--at", "1,2,3",
        )
        assert code == 0
        assert out == "1 - y3*y1^-1\n"

    def test_support_text(self, capsys):
        code, out, _ = run(capsys, "support", "--n", "3", "--w", "1,3,2", "--gamma", "2,1,3")
        assert code == 0
        assert out.splitlines() == ["1,2,3", "1,3,2", "2,1,3", "2,3,1"]

    def test_support_json(self, capsys):
        code, out, _ = run(
            capsys, "support", "--n", "3", "--w", "1,3,2", "--gamma", "2,1,3", "--json"
        )
        assert code == 0
        assert json.loads(out) == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1]]


class TestVerify:
    def test_rank_three_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 0
        assert out.splitlines()[-1] == "checked 36 pairs: all pass"

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report) == 4
        entry = report[0]
        assert entry["w"] == [1, 2]
        assert entry["gamma"] == [1, 2]
        assert entry["pass"] is True
        assert entry["support"] == entry["bruhat_interval"] == [[1, 2]]


class TestDecompose:
    def test_basis_roundtrip_via_files(self, capsys, tmp_path):
        alpha = restrict_all(top(3))
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(restriction_class_to_json(alpha)))
        code, out, _ = run(
            capsys,
            "decompose", "--n", "3", "--gamma", "1,2,3", "--class", str(class_file),
        )
        assert code == 0
        lines = out.splitlines()
        assert "1,2,3: 1" in lines
        assert all(line.endswith(": 0") for line in lines if not line.startswith("1,2,3"))

    def test_json_output_is_the_stdlib_text(self, capsys, tmp_path):
        alpha = restrict_all(top(3))
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(restriction_class_to_json(alpha)))
        code, out, _ = run(
            capsys,
            "decompose", "--n", "3", "--gamma", "2,3,1", "--class", str(class_file),
            "--json",
        )
        assert code == 0
        coeffs = decompose(alpha, Permutation((2, 3, 1)))
        expected = [
            {"w": list(w.images), "coeff": poly_to_json(coeffs[w])}
            for w in sorted(coeffs, key=lambda p: p.images)
        ]
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_class_file_parser_rejects_bad_rank(self, capsys, tmp_path):
        alpha = restrict_all(top(2))
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(restriction_class_to_json(alpha)))
        code, _, err = run(
            capsys, "decompose", "--n", "3", "--gamma", "1,2,3", "--class", str(class_file)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("n", 2.9, id="n-float"),  # int() truncates it to 2
            pytest.param("z", [1.0, 2.7], id="z-floats"),  # int() reads (1, 2)
        ],
    )
    def test_class_file_non_integers_exit_2(self, capsys, tmp_path, field, value):
        data = restriction_class_to_json(restrict_all(top(2)))
        if field == "n":
            data["n"] = value
        else:
            data["entries"][0]["z"] = value
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", str(class_file)
        )
        assert code == 2
        assert out == ""

    def test_class_parser_rejects_missing_point_and_x_terms(self):
        data = restriction_class_to_json(restrict_all(top(3)))
        partial = {"n": 3, "entries": data["entries"][:-1]}
        with_x = json.loads(json.dumps(data))
        with_x["entries"][2]["poly"] = poly_to_json(top(3))
        for bad, message in [(partial, "one entry per element"), (with_x, "x-variables")]:
            with pytest.raises(InvalidInputError, match=message):
                restriction_class_from_json(bad)

    @pytest.mark.parametrize(
        "entries", [5, None, "entries", {"z": [1, 2]}], ids=["int", "null", "string", "object"]
    )
    def test_class_file_entries_not_an_array_exit_2(self, capsys, tmp_path, entries):
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps({"n": 2, "entries": entries}))
        code, out, err = run(
            capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", str(class_file)
        )
        assert (code, out) == (2, "")
        assert "'entries' must be an array" in err

    @pytest.mark.parametrize(
        "poly",
        [0, None, "", {}, False],
        ids=["zero", "null", "empty-string", "empty-object", "false"],
    )
    def test_class_file_poly_not_an_array_exit_2(self, capsys, tmp_path, poly):
        data = restriction_class_to_json(restrict_all(top(2)))
        data["entries"][0]["poly"] = poly
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", str(class_file)
        )
        assert (code, out) == (2, "")
        assert "'poly' at 1,2 must be an array" in err

    @pytest.mark.parametrize(
        "z, message",
        [
            pytest.param(
                "(12)",
                "error: cannot parse '(12)': cycle notation is not accepted; "
                "use comma-separated one-line notation.",
                id="cycle-notation",
            ),
            pytest.param(
                [1, 2, 3], "error: permutation '1,2,3' does not have rank 2\n", id="wrong-rank"
            ),
        ],
    )
    def test_class_file_bad_fixed_point_keeps_its_reason(self, capsys, tmp_path, z, message):
        data = restriction_class_to_json(restrict_all(top(2)))
        data["entries"][1]["z"] = z
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", str(class_file)
        )
        assert (code, out) == (2, "")
        assert err.startswith(message)

    def test_class_outside_the_span_exits_2(self, capsys, tmp_path):
        one = [{"coeff": "1", "x": [0, 0], "y": [0, 0]}]
        data = {"n": 2, "entries": [{"z": "1,2", "poly": one}, {"z": "2,1", "poly": []}]}
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", str(class_file)
        )
        assert (code, out) == (2, "")
        assert err == "error: residue at 1,2 is not divisible by the diagonal restriction\n"

    def test_class_json_roundtrip(self):
        alpha = restrict_all(top(3))
        data = json.loads(json.dumps(restriction_class_to_json(alpha)))
        again = restriction_class_from_json(data)
        assert again.entries == alpha.entries


class TestDecomposeTermBound:
    """A binomial quotient in decompose that would hold more than MAX_TERMS
    terms is refused before its carry fill runs, with exit 2 and the bound named."""

    @staticmethod
    def class_file(tmp_path, power):
        # 1 - (y2/y1)^N at 1,2 and 0 at 2,1: the coefficient at 1,2 is the
        # quotient by the diagonal 1 - y2/y1, the N terms (y2/y1)^k for k < N
        poly = [
            {"coeff": "1", "x": [0, 0], "y": [0, 0]},
            {"coeff": "-1", "x": [0, 0], "y": [-power, power]},
        ]
        data = {"n": 2, "entries": [{"z": [1, 2], "poly": poly}, {"z": [2, 1], "poly": []}]}
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps(data))
        return data, str(class_file)

    def test_oversized_quotient_exits_2(self, capsys, tmp_path):
        _, class_file = self.class_file(tmp_path, 10**8)
        start = time.perf_counter()
        code, out, err = run(capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", class_file)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: a quotient would exceed the term bound MAX_TERMS = {MAX_TERMS}\n"

    def test_moderate_power_round_trips(self, capsys, tmp_path):
        data, class_file = self.class_file(tmp_path, 1000)
        code, out, _ = run(
            capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", class_file, "--json"
        )
        assert code == 0
        one, zero = json.loads(out)
        assert (one["w"], zero) == ([1, 2], {"w": [2, 1], "coeff": []})
        quotient = poly_from_json(one["coeff"])
        assert quotient.terms == {(0, 0, -k, k): 1 for k in range(1000)}
        coeffs = {Permutation((1, 2)): quotient, Permutation((2, 1)): LaurentPoly.zero(2)}
        alpha = restriction_class_from_json(data)
        assert recompose(coeffs, Permutation((1, 2)), 2).entries == alpha.entries

    @pytest.mark.parametrize("bound, expected", [(1000, 0), (999, 2)])
    def test_the_bound_counts_quotient_terms(self, capsys, monkeypatch, tmp_path, bound, expected):
        # the quotient holds exactly 1000 terms
        monkeypatch.setattr(gkm, "MAX_TERMS", bound)
        _, class_file = self.class_file(tmp_path, 1000)
        code, out, err = run(capsys, "decompose", "--n", "2", "--gamma", "1,2", "--class", class_file)
        assert code == expected
        if expected:
            assert out == "" and f"term bound MAX_TERMS = {bound}" in err


class TestWeightCommands:
    def test_regular_text(self, capsys):
        code, out, _ = run(capsys, "regular", "--lambda", "1/2,-1/2", "--mu", "0,0")
        assert code == 0
        assert out == "regular\n"

    def test_not_regular_lists_walls(self, capsys):
        code, out, _ = run(capsys, "regular", "--lambda", "1,0,-1", "--mu", "0,0,0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "not regular"
        assert any("k=" in line for line in lines[1:])

    def test_regular_json(self, capsys):
        code, out, _ = run(
            capsys, "regular", "--lambda", "1,0,-1", "--mu", "0,0,0", "--json"
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["regular"] is False
        assert cert["walls"][0]["value"] == {"num": 0, "den": 1}

    def test_rank_five_regular_json_is_pinned(self, capsys):
        # 11,520 walls at mu = 0, written one wall at a time
        code, out, _ = run(
            capsys, "regular", "--lambda", "4,2,0,-2,-4", "--mu", "0,0,0,0,0", "--json"
        )
        assert code == 0
        assert len(json.loads(out)["walls"]) == 11520
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d28ee553ad2788a97d01ec74b01add019e6600309ad677c4839597cc417f617a"
        )

    def test_kernel_text(self, capsys):
        code, out, _ = run(capsys, "kernel", "--lambda", "1/2,-1/2", "--mu", "0,0")
        assert code == 0
        assert out.splitlines() == [
            "v=1,2 gamma=1,2 witnesses=1 poly=1 - y2*x1^-1",
            "v=1,2 gamma=2,1 witnesses=1 poly=1 - y1*x1^-1",
        ]

    def test_kernel_not_regular_exits_3(self, capsys):
        code, _, err = run(capsys, "kernel", "--lambda", "1,0,-1", "--mu", "0,0,0")
        assert code == 3
        assert "wall" in err

    def test_kernel_text_matches_per_generator_rendering(self, capsys):
        # the command renders through one memo shared by all generators, and
        # each poly that generators of one v share once
        lam, mu = "3,1,-1,-3", "31/97,17/97,-11/97,-37/97"
        code, out, _ = run(capsys, "kernel", "--lambda", lam, "--mu", mu)
        assert code == 0
        gens = kirwan.kernel_generators(
            kirwan.WeightVector.parse(lam), kirwan.WeightVector.parse(mu)
        )
        assert out.splitlines() == [
            f"v={g.v.one_line()} gamma={g.gamma.one_line()}"
            f" witnesses={','.join(map(str, g.witnesses))} poly={render_poly(g.poly)}"
            for g in gens
        ]

    @pytest.mark.slow
    def test_rank_five_kernel_text_is_pinned(self, capsys):
        # 31,067,472 bytes; 3,195 distinct polys among 11,520 generators
        code, out, _ = run(
            capsys, "kernel", "--lambda", "4,2,0,-2,-4", "--mu", "31/97,17/97,5/97,-11/97,-42/97"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d5bcbace7138caad2b3affd06c27f43e5bf0e8a5c1ec7804c4e81668424dd96c"
        )

    @pytest.mark.parametrize(
        "lam, mu",
        [("1,0,-1", "1/4,1/8,-3/8"), ("3,1,-1,-3", "31/97,17/97,-11/97,-37/97")],
        ids=["rank3", "rank4"],
    )
    def test_kernel_json_parses_to_the_generators(self, capsys, lam, mu):
        code, out, _ = run(capsys, "kernel", "--lambda", lam, "--mu", mu, "--json")
        assert code == 0
        gens = kirwan.kernel_generators(
            kirwan.WeightVector.parse(lam), kirwan.WeightVector.parse(mu)
        )
        assert json.loads(out) == [polys_to_json(g.json_tree()) for g in gens]

    def test_kernel_check_flag(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--lambda", "1/2,-1/2", "--mu", "0,0", "--check"
        )
        assert code == 0

    def test_bad_weights_exit_2(self, capsys):
        code, _, _ = run(capsys, "kernel", "--lambda", "1,0", "--mu", "0,0")
        assert code == 2

    def test_presentation_stdout_and_file_agree(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "presentation", "--lambda", "1/2,-1/2", "--mu", "0,0"
        )
        assert code == 0
        target = tmp_path / "pres.json"
        code2, out2, _ = run(
            capsys,
            "presentation", "--lambda", "1/2,-1/2", "--mu", "0,0", "--out", str(target),
        )
        assert code2 == 0
        assert out2 == ""
        assert target.read_text() == out
        pres = json.loads(out)
        assert pres["n"] == 2
        assert len(pres["ideal_I"]) == 2
        assert len(pres["kernel"]) == 2


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys):
        args = ("verify", "--n", "3", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_kernel_runs_identical(self, capsys):
        args = ("kernel", "--lambda", "1,0,-1", "--mu", "1/4,1/8,-3/8", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


RANK6_WEIGHTS = ("5,3,1,-1,-3,-5", "31/197,17/197,5/197,-11/197,-19/197,-23/197")


class TestKernelRankBound:
    """The rank-6 kernel (432,000 generators, about 357 M terms) is refused
    before the wall scan; rank 7 keeps the weight-layer message."""

    @pytest.mark.parametrize("command", ["kernel", "presentation"])
    def test_rank_six_exits_2(self, capsys, monkeypatch, command):
        monkeypatch.setattr(kirwan, "all_permutations", _never)
        start = time.perf_counter()
        code, out, err = run(
            capsys, command, "--lambda", RANK6_WEIGHTS[0], "--mu", RANK6_WEIGHTS[1]
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "error: rank 6 exceeds the kernel bound 5\n"

    def test_rank_six_library_refusal(self, monkeypatch):
        monkeypatch.setattr(kirwan, "all_permutations", _never)
        lam, mu = map(kirwan.WeightVector.parse, RANK6_WEIGHTS)
        for fn in (kirwan.kernel_generators, kirwan.presentation):
            with pytest.raises(LimitExceededError, match="kernel bound 5"):
                fn(lam, mu)
        assert kirwan.MAX_KERNEL_RANK == 5


# the two JSON file inputs, each argv ending before the file path
POLY_ARGV = ["ddo", "--op", "pi", "--i", "1", "--poly"]
CLASS_ARGV = ["decompose", "--n", "2", "--gamma", "1,2", "--class"]
FILE_INPUTS = [
    pytest.param(POLY_ARGV, "polynomial file", id="poly"),
    pytest.param(CLASS_ARGV, "class file", id="class"),
]


class TestJsonFileReader:
    @pytest.mark.parametrize("argv, what", FILE_INPUTS)
    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(b'["\xff"]', id="not-utf8"),
            pytest.param(b"[" * 100_000, id="nested-100000-deep"),
            pytest.param(b"1" * 5000, id="5000-digit-int"),
        ],
    )
    def test_undecodable_file_exits_2(self, capsys, tmp_path, argv, what, raw):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {what} is not valid JSON: ")

    @pytest.mark.parametrize("argv, what", FILE_INPUTS)
    def test_missing_file_exits_2(self, capsys, tmp_path, argv, what):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {what} {str(path)!r}: ")


_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def _kflag(*argv: str, stdin: bytes) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "kflag.cli", *argv],
        input=stdin, env=_ENV, capture_output=True, timeout=60,
    )


class TestStdinInputs:
    def test_poly_from_stdin(self):
        poly = json.dumps(poly_to_json(top(2))).encode()
        done = _kflag(*POLY_ARGV, "-", stdin=poly)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n", b"")

    def test_class_from_stdin(self):
        alpha = json.dumps(restriction_class_to_json(restrict_all(top(2)))).encode()
        done = _kflag(*CLASS_ARGV, "-", stdin=alpha)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1,2: 1\n2,1: 0\n", b"")

    def test_undecodable_stdin_exits_2(self):
        done = _kflag(*CLASS_ARGV, "-", stdin=b"\xff")
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: class file is not valid JSON: ")


class TestClosedStdout:
    """A reader that closes stdout early, as ``kflag ... | head`` does."""

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    def test_exits_141_without_a_traceback(self, mode):
        # 2.7 MB of JSON or 0.7 MB of text, far past a pipe's buffer
        argv = ["groth", "--n", "6", "--w", "1,2,3,4,5,6", *mode]
        proc = subprocess.Popen(
            [sys.executable, "-m", "kflag.cli", *argv],
            env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


# small values only: the class table has no term budget, so pi on x1^(10^9)
# would try to allocate 10^9 terms
_WORDS = st.sampled_from(["n", "entries", "z", "poly", "x", "y", "coeff", "1", "-1", "2,1"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _WORDS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_WORDS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# near-valid term lists and class objects reach past the shape checks
_EXPONENTS = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
_TERMS = st.lists(
    st.fixed_dictionaries({
        "coeff": st.sampled_from(["1", "-2", "0"]) | _JSON_VALUES,
        "x": _EXPONENTS | _JSON_VALUES,
        "y": _EXPONENTS | _JSON_VALUES,
    }),
    max_size=3,
)
_CLASSES = st.fixed_dictionaries({
    "n": st.integers(0, 3) | _JSON_VALUES,
    "entries": st.lists(
        st.fixed_dictionaries({
            "z": st.sampled_from(["1,2", "2,1", [1, 2], [2, 1], [1, 2, 3]]) | _JSON_VALUES,
            "poly": st.just([]) | _TERMS | _JSON_VALUES,
        }),
        max_size=3,
    ),
})


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize(
    "argv, near_valid", [(POLY_ARGV, _TERMS), (CLASS_ARGV, _CLASSES)], ids=["poly", "class"]
)
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_file_inputs_exit_0_or_2(fuzz_path, argv, near_valid, data):
    values = (_JSON_VALUES | near_valid).map(lambda v: json.dumps(v).encode())
    raw = data.draw(st.binary(max_size=32) | values)
    fuzz_path.write_bytes(raw)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, str(fuzz_path)])
    assert code in (0, 2)


class TestCliSurface:
    """Each subcommand's options in declaration order, with (dest, required, default)."""

    SURFACE = {
        "groth": [
            ("--json", "json", False, False), ("--n", "n", True, None),
            ("--w", "w", True, None), ("--gamma", "gamma", False, None),
        ],
        "ddo": [
            ("--json", "json", False, False), ("--op", "op", True, None),
            ("--i", "i", True, None), ("--poly", "poly", True, None),
        ],
        "restrict": [
            ("--json", "json", False, False), ("--n", "n", True, None),
            ("--w", "w", True, None), ("--gamma", "gamma", False, None),
            ("--at", "at", True, None),
        ],
        "support": [
            ("--json", "json", False, False), ("--n", "n", True, None),
            ("--w", "w", True, None), ("--gamma", "gamma", False, None),
        ],
        "verify": [
            ("--json", "json", False, False), ("--n", "n", True, None),
        ],
        "decompose": [
            ("--json", "json", False, False), ("--n", "n", True, None),
            ("--gamma", "gamma", True, None), ("--class", "cls", True, None),
        ],
        "regular": [
            ("--json", "json", False, False), ("--lambda", "lam", True, None),
            ("--mu", "mu", True, None),
        ],
        "kernel": [
            ("--json", "json", False, False), ("--lambda", "lam", True, None),
            ("--mu", "mu", True, None), ("--check", "check", False, False),
        ],
        "presentation": [
            ("--json", "json", False, False), ("--lambda", "lam", True, None),
            ("--mu", "mu", True, None), ("--out", "out", False, None),
        ],
    }

    def test_subcommand_options(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: [
                (*action.option_strings, action.dest, action.required, action.default)
                for action in p._actions
                if action.dest != "help"
            ]
            for name, p in sub.choices.items()
        }
        assert surface == self.SURFACE
        assert sub.choices["ddo"]._option_string_actions["--op"].choices == ("delta", "pi")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "2"],
            ["kernel", "--lambda", "1/2,-1/2", "--mu", "0,0"],
            ["presentation", "--lambda", "1/2,-1/2", "--mu", "0,0"],
        ],
        ids=["verify", "kernel", "presentation"],
    )
    def test_jobs_is_an_unrecognized_argument(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    def test_kernel_wall_lines_are_the_regular_lines_indented(self, capsys):
        lam, mu = "1,0,-1", "0,0,0"
        code, out, _ = run(capsys, "regular", "--lambda", lam, "--mu", mu)
        assert code == 0
        walls = out.splitlines()[1:]
        assert len(walls) > 1
        code, kernel_out, err = run(capsys, "kernel", "--lambda", lam, "--mu", mu)
        assert (code, kernel_out) == (3, "")
        lines = err.splitlines()
        assert lines[0] == f"error: level 0,0,0 lies on {len(walls)} wall(s) for lambda 1,0,-1"
        assert lines[1:] == ["  " + line for line in walls]
