import hashlib
import itertools
import json
import random
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import gkm, laurent
from kflag.cli import main as cli_main
from kflag.errors import (
    InternalInvariantError,
    InvalidInputError,
    LimitExceededError,
    NotInSpanError,
)
from kflag.gkm import (
    RestrictionClass,
    decompose,
    recompose,
    restrict,
    restrict_all,
    support,
    verify_support_theorem,
)
from kflag.groth import grothendieck, permuted_grothendieck, top
from kflag.kirwan import _y_runs
from kflag.laurent import (
    LaurentPoly,
    canonical_zero_test,
    elementary_symmetric,
)
from kflag.perm import Permutation, all_permutations, bruhat_leq, permuted_bruhat_leq

from oracles import (
    decompose_by_points,
    permute_y_by_terms,
    random_laurent,
    recompose_by_points,
    substitute,
    support_by_substitution,
    sweep_by_pairs,
)


def yv(n, i):
    return LaurentPoly.y(n, i)


def random_y_monomial(rng, n):
    yexp = tuple(rng.randint(-1, 1) for _ in range(n))
    return LaurentPoly.monomial(n, rng.choice([1, 2, -1, 3]), yexp=yexp)


class TestRestrict:
    def test_symmetric_polynomials_relabel(self):
        for i in (1, 2, 3):
            e_x = elementary_symmetric(i, "x", 3)
            e_y = elementary_symmetric(i, "y", 3)
            for z in all_permutations(3):
                assert restrict(e_x, z) == e_y

    def test_paper_restriction_pattern(self):
        g = permuted_grothendieck(Permutation((1, 3, 2)), Permutation((2, 1, 3)))
        zero_at = {(3, 2, 1), (3, 1, 2)}
        for z in all_permutations(3):
            value = restrict(g, z)
            if z.images in zero_at:
                assert value.is_zero
            else:
                assert not value.is_zero
                assert not canonical_zero_test(value)

    def test_identity_restriction_value(self):
        g = permuted_grothendieck(Permutation((1, 3, 2)), Permutation((2, 1, 3)))
        expected = 1 - yv(3, 3) * LaurentPoly.monomial(3, 1, yexp=(-1, 0, 0))
        assert restrict(g, Permutation.identity(3)) == expected

    def test_agrees_with_generic_substitution(self):
        rng = random.Random(71)
        for _ in range(15):
            n = rng.choice((2, 3))
            f = random_laurent(rng, n)
            z = rng.choice(list(all_permutations(n)))
            via_subst = substitute(
                f, x_map={i: LaurentPoly.y(n, z(i)) for i in range(1, n + 1)}
            )
            assert restrict(f, z) == via_subst

    def test_is_ring_homomorphism(self):
        rng = random.Random(73)
        for _ in range(10):
            n = rng.choice((2, 3))
            f = random_laurent(rng, n)
            g = random_laurent(rng, n)
            z = rng.choice(list(all_permutations(n)))
            assert restrict(f * g, z) == restrict(f, z) * restrict(g, z)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            restrict(top(3), Permutation((1, 2)))


class TestRestrictAll:
    def test_constant(self):
        alpha = restrict_all(LaurentPoly.const(3, 5))
        assert all(poly == 5 for poly in alpha.entries.values())

    def test_top_supported_only_at_identity(self):
        alpha = restrict_all(top(3))
        for z, poly in alpha.entries.items():
            if z.is_identity():
                assert not poly.is_zero
            else:
                assert poly.is_zero

    def test_ideal_restricts_to_zero(self):
        for i in (1, 2, 3):
            diff = elementary_symmetric(i, "x", 3) - elementary_symmetric(i, "y", 3)
            alpha = restrict_all(diff)
            assert all(poly.is_zero for poly in alpha.entries.values())

    @pytest.mark.parametrize("n", [3, 4])
    def test_the_bound_counts_each_node_once(self, monkeypatch, n):
        # the constant 5 keeps every node nonzero, so a count that skips a
        # node stays under the bound; x1 alone stops the walk at depth 1
        rng = random.Random(140 + n)
        x1, y1, y2 = LaurentPoly.x(n, 1), yv(n, 1), yv(n, 2)
        u = rng.choice(list(all_permutations(n)))
        polys = [3 * x1 * x1 * y2 - x1 * y1 + 5, grothendieck(u) * (y1 - 2) + 5]
        polys.append(random_laurent(rng, n, 12) + 5)
        for f in polys:
            expected = restrict_all(f)
            entries = expected.entries.values()
            total = sum(len(p.terms) for p in {id(p): p for p in entries}.values())
            if f is polys[0]:
                # a count per point would pass the bound
                assert sum(len(p.terms) for p in entries) > total
            monkeypatch.setattr(laurent, "MAX_TERMS", total)
            assert restrict_all(f).entries == expected.entries
            monkeypatch.setattr(laurent, "MAX_TERMS", total - 1)
            bound = rf"at least {total} terms, over the term bound MAX_TERMS = {total - 1}$"
            with pytest.raises(LimitExceededError, match=bound):
                restrict_all(f)
            monkeypatch.undo()

    def test_validation_rejects_partial_classes(self):
        entries = {z: LaurentPoly.zero(3) for z in all_permutations(3)}
        entries.pop(Permutation((3, 2, 1)))
        with pytest.raises(InvalidInputError):
            RestrictionClass(3, entries)

    def test_validation_rejects_x_variables(self):
        entries = {z: LaurentPoly.zero(3) for z in all_permutations(3)}
        entries[Permutation((1, 2, 3))] = LaurentPoly.x(3, 1)
        with pytest.raises(InvalidInputError):
            RestrictionClass(3, entries)

    def test_validation_rejects_entries_outside_a_dict(self):
        with pytest.raises(InvalidInputError, match="^entries must be a dict, not list$"):
            RestrictionClass(1, [(Permutation((1,)), LaurentPoly.one(1))])

    def test_validation_rejects_entries_that_are_not_polynomials(self):
        with pytest.raises(InvalidInputError, match="^entry at 1 is not a LaurentPoly$"):
            RestrictionClass(1, {Permutation((1,)): 0})

    def test_library_classes_pass_public_validation(self):
        # restrict_all and recompose skip the checks of RestrictionClass(...);
        # what they build must pass them
        gamma = Permutation((2, 4, 1, 3))
        alphas = [restrict_all(grothendieck(u)) for u in all_permutations(4)]
        coeffs = {gamma: LaurentPoly.y(4, 2), Permutation.identity(4): 1 - LaurentPoly.y(4, 1)}
        alphas.append(recompose(coeffs, gamma, 4))
        for alpha in alphas:
            assert RestrictionClass(alpha.n, alpha.entries) == alpha


class TestSupport:
    def test_paper_example(self):
        g = permuted_grothendieck(Permutation((1, 3, 2)), Permutation((2, 1, 3)))
        assert {z.images for z in support(g)} == {
            (1, 2, 3),
            (2, 1, 3),
            (1, 3, 2),
            (2, 3, 1),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_top_supported_at_identity_only(self, n):
        assert support(top(n)) == frozenset({Permutation.identity(n)})

    def test_zero_class(self):
        assert support(LaurentPoly.zero(3)) == frozenset()

    def test_matches_literal_zero_test_route(self):
        rng = random.Random(79)
        for _ in range(10):
            n = rng.choice((2, 3))
            f = random_laurent(rng, n)
            literal = frozenset(
                z
                for z in all_permutations(n)
                if not canonical_zero_test(restrict(f, z))
            )
            assert support(f) == literal

    def test_triangularity_inclusion(self):
        # the support never leaves the permuted interval (one half of the theorem)
        for w in all_permutations(3):
            for gamma in all_permutations(3):
                g = permuted_grothendieck(w, gamma)
                for z in support(g):
                    assert permuted_bruhat_leq(z, w, gamma)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_nonvanishing(self, n):
        for w in all_permutations(n):
            for gamma in all_permutations(n):
                value = restrict(permuted_grothendieck(w, gamma), w)
                assert not canonical_zero_test(value)


def det_minus_one(n):
    return LaurentPoly(n, {(0,) * n + (1,) * n: 1}) - 1


def wide_laurent(rng, n, bound, size):
    """Terms with exponents up to +-bound (extremes included) and coefficients beyond 2**64."""
    terms = {}
    for _ in range(size):
        key = tuple(
            rng.choice((-bound, bound, 0, rng.randint(-bound, bound))) for _ in range(2 * n)
        )
        terms[key] = rng.choice((1, -1)) * rng.randint(1, 1 << 70)
    return LaurentPoly(n, terms)


def assert_walk_matches_points(f):
    """support against substitution, restrict_all against restrict at every point."""
    assert support(f) == support_by_substitution(f)
    alpha = restrict_all(f)
    for z in all_permutations(f.n):
        assert alpha.entries[z] == restrict(f, z), z


class TestPackedWalk:
    """The packed-key walk against the point-by-point routes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_every_class_and_the_top_class(self, n):
        for u in all_permutations(n):
            assert_walk_matches_points(grothendieck(u))
        assert_walk_matches_points(top(n))

    @pytest.mark.parametrize("bound", [1, 3, 1000, 10**6])
    def test_wide_exponents_and_coefficients(self, bound):
        rng = random.Random(bound)
        for n in (2, 3, 4):
            for _ in range(3):
                assert_walk_matches_points(wide_laurent(rng, n, bound, rng.randint(1, 12)))
            # a class times a wide factor: cancellation at every point off the
            # class's support, with a wide packing base
            u = rng.choice(list(all_permutations(n)))
            assert_walk_matches_points(grothendieck(u) * wide_laurent(rng, n, bound, 3))

    def test_packing_base_bound(self):
        rng = random.Random(5)
        for bound in (0, 1, 2, 3, 7, 8, 1000, 10**6):
            for n in (1, 3):
                f = wide_laurent(rng, n, bound, 4)
                m = max(abs(e) for key in f.terms for e in key)
                b = gkm._solve_base(gkm._max_exponent([f]), n, 0)[1]
                assert b > 8 * m and b & (b - 1) == 0 and (b == 1 or b <= 16 * m)

    def test_zero_polynomial(self):
        for n in (1, 3):
            zero = LaurentPoly.zero(n)
            assert support(zero) == frozenset()
            assert all(p.is_zero for p in restrict_all(zero).entries.values())

    def test_rank_one(self):
        # modulo y1 - 1 a rank-1 restriction is the sum of its coefficients
        for f, supported in (
            (LaurentPoly(1, {(2, -1): 3, (0, 5): -3}), False),
            (LaurentPoly(1, {(2, -1): 3, (0, 5): -2}), True),
            (LaurentPoly(1, {(-7, 0): 1 << 80}), True),
        ):
            assert (support(f) == frozenset({Permutation((1,))})) is supported
            assert_walk_matches_points(f)

    def test_multiples_of_the_determinant_relation_have_empty_support(self):
        rng = random.Random(11)
        for n in (1, 2, 3, 4, 5):
            for h in (random_laurent(rng, n), wide_laurent(rng, n, 50, 4)):
                f = h * det_minus_one(n)
                assert support(f) == frozenset()
                assert support_by_substitution(f) == frozenset()
            assert support(top(n) * det_minus_one(n)) == frozenset()

    def test_rank_six_sample(self):
        rng = random.Random(6)
        perms = list(all_permutations(6))
        for u in [Permutation.identity(6)] + perms[::144][1:]:
            f = grothendieck(u)
            supp = support(f)
            # the support is the lower Bruhat interval of u
            assert supp == frozenset(v for v in perms if bruhat_leq(v, u))
            alpha = restrict_all(f)
            for z in rng.sample(perms, 6) + [u]:
                value = restrict(f, z)
                assert alpha.entries[z] == value
                assert (z in supp) is not canonical_zero_test(value)

    @settings(derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_support_is_the_literal_zero_test(self, data):
        n = data.draw(st.integers(2, 5))
        keys = st.tuples(*[st.integers(-4, 4)] * (2 * n))
        terms = data.draw(st.dictionaries(keys, st.integers(-9, 9).filter(bool), max_size=10))
        f = LaurentPoly(n, terms)
        if data.draw(st.booleans()):
            # products cancel at some points and not at others
            f = f * grothendieck(data.draw(st.sampled_from(list(all_permutations(n)))))
        assert support(f) == frozenset(
            z for z in all_permutations(n) if not canonical_zero_test(restrict(f, z))
        )


#: sha256 of the stdout of ``kflag verify --n N --json``, recorded with the
#: per-pair sweep that restricted every relabelled class at every point
VERIFY_JSON_SHA256 = {
    4: "09374090c7bfc256f2890b327858a5793b62a68363c764d726227ee1079935b4",
    5: "49a2e4021425edb0ad3c17be6835c3497c83aeff9c48d9ed79baf579830944f9",
}


def _verify_json_sha256(capsys, n):
    code = cli_main(["verify", "--n", str(n), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


#: sha256 of the stdout of the rank-4 weight-layer JSON commands at
#: --lambda 3,1,-1,-3 --mu 31/97,17/97,-11/97,-37/97, recorded when the CLI
#: still encoded through json.JSONEncoder(indent=2)
WEIGHT_JSON_SHA256 = {
    "kernel": "e233e4b034d66335a4e965f6fa1f572989bdb221a452d7b79ab069eba5d7abf8",
    "presentation": "aca41d2db724694a206de8005ae95302090889c09643e75d232925941b41f364",
}
RANK4_WEIGHTS = ["--lambda", "3,1,-1,-3", "--mu", "31/97,17/97,-11/97,-37/97"]
#: the same for the rank-5 presentation (279,929,806 bytes) at
#: --lambda 4,2,0,-2,-4 --mu 31/97,17/97,5/97,-11/97,-42/97
RANK5_PRESENTATION_SHA256 = "75fe6a306eae028f9527ef49722d9c2c5f3c4a7dc98a080d469190fbb3c64bca"


class TestWeightJsonBytes:
    def test_rank_four_kernel_check_json(self, capsys):
        code = cli_main(["kernel", *RANK4_WEIGHTS, "--check", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == WEIGHT_JSON_SHA256["kernel"]

    def test_rank_four_presentation(self, capsys):
        code = cli_main(["presentation", *RANK4_WEIGHTS])
        out = capsys.readouterr().out
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest() == WEIGHT_JSON_SHA256["presentation"]
        )

    @pytest.mark.slow
    def test_rank_five_presentation(self, tmp_path, shared_rank5_kernel):
        # through --out: 280 MB captured from stdout would be held in memory
        target = tmp_path / "pres.json"
        weights = ["--lambda", "4,2,0,-2,-4", "--mu", "31/97,17/97,5/97,-11/97,-42/97"]
        assert cli_main(["presentation", *weights, "--out", str(target)]) == 0
        digest = hashlib.sha256()
        with open(target, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        target.unlink()
        assert digest.hexdigest() == RANK5_PRESENTATION_SHA256


class TestVerifySweep:
    def test_rank_one(self):
        report = verify_support_theorem(1)
        assert len(report.checks) == 1
        assert report.all_passed

    def test_rank_three(self):
        report = verify_support_theorem(3)
        assert len(report.checks) == 36
        assert report.all_passed
        assert report.summary() == "checked 36 pairs: all pass"
        pairs = [(c.w, c.gamma) for c in report.checks]
        assert pairs == sorted(pairs)

    def test_repeated_call_gives_same_report(self):
        first = verify_support_theorem(3)
        repeated = verify_support_theorem(3)
        assert first.to_json_obj() == repeated.to_json_obj()

    def test_bound(self):
        with pytest.raises(LimitExceededError):
            verify_support_theorem(6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relabelled_sets_match_per_pair_route(self, n):
        # oracle: restrict each pair's own permuted class at every point and
        # test each point against the permuted Bruhat order directly
        perms = list(all_permutations(n))
        report = verify_support_theorem(n)
        assert [(c.w, c.gamma) for c in report.checks] == [
            (w.images, gamma.images) for w in perms for gamma in perms
        ]
        for check in report.checks:
            w, gamma = Permutation(check.w), Permutation(check.gamma)
            assert check.support == tuple(
                sorted(z.images for z in support(permuted_grothendieck(w, gamma)))
            )
            assert check.interval == tuple(
                v.images for v in perms if permuted_bruhat_leq(v, w, gamma)
            )

    def test_rank_four_json_bytes_are_pinned(self, capsys):
        assert _verify_json_sha256(capsys, 4) == VERIFY_JSON_SHA256[4]

    @pytest.mark.slow
    def test_rank_five_json_bytes_are_pinned(self, rank5_verify_json_sha256):
        assert rank5_verify_json_sha256 == VERIFY_JSON_SHA256[5]

    def test_rank_four_json_is_written_pair_by_pair(self, capsys, monkeypatch):
        # verify --json writes one pair's tree at a time, never the whole report's
        def whole_tree(report):
            raise AssertionError("the report's whole JSON tree was built")

        monkeypatch.setattr(gkm.SweepReport, "to_json_obj", whole_tree)
        assert _verify_json_sha256(capsys, 4) == VERIFY_JSON_SHA256[4]

    def test_injected_failures_match_the_per_pair_route(self, monkeypatch):
        # drop u from supp(G_u) at u = 2,4,1,3 and add two points outside
        # [e, u] at u = 1,3,2,4, whose order some gamma reverses; the library
        # reads supports through gkm._coset_support and the oracle through
        # gkm.support, and both are patched with the same injection
        dropped, added = Permutation((2, 4, 1, 3)), Permutation((1, 3, 2, 4))
        extra = {Permutation((4, 3, 2, 1)), Permutation((3, 4, 1, 2))}

        def injected(route):
            def patched(f):
                supp = route(f)
                if f == grothendieck(dropped):
                    return supp - {dropped}
                if f == grothendieck(added):
                    return supp | extra
                return supp

            return patched

        monkeypatch.setattr(gkm, "support", injected(gkm.support))
        monkeypatch.setattr(gkm, "_coset_support", injected(gkm._coset_support))
        report = verify_support_theorem(4)
        oracle = sweep_by_pairs(4)
        assert report.to_json_obj() == oracle
        failed = sum(not obj["pass"] for obj in oracle)
        assert report.summary() == f"checked {len(oracle)} pairs: {failed} failures"
        assert report.summary() == "checked 576 pairs: 48 failures"
        perms = list(all_permutations(4))
        assert {(c.w, c.gamma) for c in report.failures()} == {
            ((gamma * u).images, gamma.images) for u in (dropped, added) for gamma in perms
        }
        # the verdicts of the bases, relabelled by gamma = s_1
        checks = {(c.w, c.gamma): c for c in report.checks}
        obj = checks[(1, 4, 2, 3), (2, 1, 3, 4)].to_json_obj()
        assert obj["pass"] is False
        assert [1, 4, 2, 3] in obj["bruhat_interval"]
        assert [1, 4, 2, 3] not in obj["support"]
        assert obj["counterexamples"] == [
            {"z": [1, 4, 2, 3], "restriction_nonzero": False, "in_interval": True}
        ]
        obj = checks[(2, 3, 1, 4), (2, 1, 3, 4)].to_json_obj()
        assert obj["pass"] is False
        assert obj["counterexamples"] == [
            {"z": [3, 4, 2, 1], "restriction_nonzero": True, "in_interval": False},
            {"z": [4, 3, 1, 2], "restriction_nonzero": True, "in_interval": False},
        ]


class TestDecompose:
    def test_basis_element_roundtrip(self):
        n = 3
        gamma = Permutation((2, 1, 3))
        for w in all_permutations(n):
            alpha = restrict_all(permuted_grothendieck(w, gamma))
            coeffs = decompose(alpha, gamma)
            for v, c in coeffs.items():
                assert c == (1 if v == w else 0)

    def test_constant_is_longest_element(self):
        # the class of the longest element is the constant 1, so the
        # constant class decomposes onto the top of the permuted order
        n = 3
        assert grothendieck(Permutation.longest(n)) == 1
        coeffs = decompose(
            restrict_all(LaurentPoly.one(n)), Permutation.identity(n)
        )
        for v, c in coeffs.items():
            assert c == (1 if v == Permutation.longest(n) else 0)

    def test_constant_under_permuted_basis(self):
        # for general gamma the constant basis element is indexed by gamma * w0
        n = 3
        gamma = Permutation((3, 1, 2))
        top_of_order = gamma * Permutation.longest(n)
        assert permuted_grothendieck(top_of_order, gamma) == 1
        coeffs = decompose(restrict_all(LaurentPoly.one(n)), gamma)
        for v, c in coeffs.items():
            assert c == (1 if v == top_of_order else 0)

    def test_linearity_with_monomial_coefficients(self):
        rng = random.Random(83)
        n = 3
        gamma = Permutation((1, 3, 2))
        perms = list(all_permutations(n))
        for _ in range(10):
            u, v = rng.sample(perms, 2)
            cu, cv = random_y_monomial(rng, n), random_y_monomial(rng, n)
            alpha_entries = {
                z: cu * restrict(permuted_grothendieck(u, gamma), z)
                + cv * restrict(permuted_grothendieck(v, gamma), z)
                for z in perms
            }
            coeffs = decompose(RestrictionClass(n, alpha_entries), gamma)
            assert coeffs[u] == cu
            assert coeffs[v] == cv
            for w, c in coeffs.items():
                if w not in (u, v):
                    assert c.is_zero

    def test_recompose_then_decompose_is_identity(self):
        rng = random.Random(89)
        n = 3
        perms = list(all_permutations(n))
        for _ in range(10):
            gamma = rng.choice(perms)
            chosen = rng.sample(perms, rng.randint(1, 4))
            coeff_map = {w: random_y_monomial(rng, n) for w in chosen}
            alpha = recompose(coeff_map, gamma, n)
            recovered = decompose(alpha, gamma)
            for w in perms:
                expected = coeff_map.get(w, LaurentPoly.zero(n))
                assert recovered[w] == expected

    def test_not_in_span(self):
        n = 2
        gamma = Permutation.identity(n)
        # an entry pattern no Laurent combination can hit: nonzero at id only
        # but not divisible by the diagonal restriction of the top class
        entries = {
            Permutation((1, 2)): LaurentPoly.one(n),
            Permutation((2, 1)): LaurentPoly.zero(n),
        }
        with pytest.raises(NotInSpanError):
            decompose(RestrictionClass(n, entries), gamma)

    def test_rank_mismatch(self):
        alpha = restrict_all(top(2))
        with pytest.raises(InvalidInputError):
            decompose(alpha, Permutation.identity(3))

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda: RestrictionClass(
                    2, {Permutation((1, 2)): LaurentPoly.zero(2), Permutation((2, 1)): yv(3, 1)}
                ),
                "entry at 2,1 has rank 3, expected 2",
                id="class-entry-rank",
            ),
            pytest.param(
                lambda: recompose({}, Permutation.identity(3), 2),
                "rank mismatch: 2 vs 3",
                id="recompose-gamma-rank",
            ),
            pytest.param(
                lambda: recompose({Permutation((2, 1)): yv(3, 1)}, Permutation.identity(2), 2),
                "coefficient at 2,1 has rank 3, expected 2",
                id="recompose-coefficient-rank",
            ),
            pytest.param(
                lambda: recompose(
                    {Permutation((2, 1)): LaurentPoly.x(2, 1)}, Permutation.identity(2), 2
                ),
                "coefficient at 2,1 involves x-variables",
                id="recompose-x-variables",
            ),
        ],
    )
    def test_malformed_class_or_coefficients_refused(self, build, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            build()


class TestDecomposeAgainstPointRoute:
    """decompose and recompose against the routes that restrict point by point."""

    def test_round_trips_rank_four(self):
        rng = random.Random(97)
        n = 4
        perms = list(all_permutations(n))
        for _ in range(4):
            gamma = rng.choice(perms)
            chosen = rng.sample(perms, 3)
            coeff_map = {w: random_y_monomial(rng, n) for w in chosen}
            alpha = recompose(coeff_map, gamma, n)
            assert alpha.entries == recompose_by_points(coeff_map, gamma, n)
            coeffs = decompose(alpha, gamma)
            assert coeffs == decompose_by_points(alpha, gamma)
            for w in perms:
                assert coeffs[w] == coeff_map.get(w, LaurentPoly.zero(n))

    def test_product_class_rank_four(self):
        # the shape of the benchmark's round trips: a product of two permuted classes
        n = 4
        gamma = Permutation((3, 1, 4, 2))
        a = permuted_grothendieck(gamma * Permutation((1, 2, 4, 3)), gamma)
        b = permuted_grothendieck(gamma * Permutation((2, 3, 1, 4)), gamma)
        alpha = restrict_all(a * b)
        coeffs = decompose(alpha, gamma)
        assert coeffs == decompose_by_points(alpha, gamma)
        back = recompose(coeffs, gamma, n)
        assert back.entries == recompose_by_points(coeffs, gamma, n)
        assert back.entries == alpha.entries


class TestProductBudget:
    """decompose and recompose count the summands of each coefficient's
    product with its basis class, len(a) per nonzero term of the class at
    every point, before they write them, and refuse past laurent.MAX_TERMS."""

    @staticmethod
    def summands(coeff_map, gamma, n):
        # counted point by point, through restrict
        points = list(all_permutations(n))
        return [
            len(c.terms)
            * sum(len(restrict(permuted_grothendieck(w, gamma), z).terms) for z in points)
            for w, c in coeff_map.items()
        ]

    def test_the_bound_counts_every_point(self, monkeypatch):
        rng = random.Random(131)
        n = 4
        perms = list(all_permutations(n))
        gamma = Permutation((2, 4, 1, 3))
        coeff_map = {w: wide_y_laurent(rng, n, 2, 5) for w in rng.sample(perms, 3)}
        alpha = recompose(coeff_map, gamma, n)
        largest = max(self.summands(coeff_map, gamma, n))
        monkeypatch.setattr(laurent, "MAX_TERMS", largest)
        assert recompose(coeff_map, gamma, n).entries == alpha.entries
        coeffs = decompose(alpha, gamma)
        assert coeffs == {w: coeff_map.get(w, LaurentPoly.zero(n)) for w in perms}
        monkeypatch.setattr(laurent, "MAX_TERMS", largest - 1)
        bound = rf"over the term bound MAX_TERMS = {largest - 1}$"
        with pytest.raises(LimitExceededError, match=bound):
            recompose(coeff_map, gamma, n)
        with pytest.raises(LimitExceededError, match=bound):
            decompose(alpha, gamma)

    @pytest.fixture(scope="class")
    def wide_rank_six(self):
        # 60,000 y-only terms at w0 and 0 elsewhere. The coefficient at w0 is
        # that entry, and its class G_{w0} = 1 would take it to all 720 points
        n = 6
        w0 = Permutation.longest(n)
        keys = itertools.islice(itertools.product(range(7), repeat=n), 60_000)
        f = LaurentPoly(n, {(0,) * n + k: 1 for k in keys})
        zero = LaurentPoly.zero(n)
        alpha = RestrictionClass(n, {z: f if z == w0 else zero for z in all_permutations(n)})
        # the class cache is warm before any call is timed
        assert grothendieck(w0) == 1
        return alpha, w0, f

    def test_sixty_thousand_terms_at_rank_six_refused_at_once(self, wide_rank_six):
        alpha, w0, f = wide_rank_six
        identity = Permutation.identity(6)
        message = (
            "a product of 60000 terms by a class would write at least 43200000 summands,"
            f" over the term bound MAX_TERMS = {laurent.MAX_TERMS}"
        )
        for solve in (lambda: decompose(alpha, identity), lambda: recompose({w0: f}, identity, 6)):
            start = time.perf_counter()
            with pytest.raises(LimitExceededError) as info:
                solve()
            assert time.perf_counter() - start < 1
            assert str(info.value) == message

    def test_sixty_thousand_terms_at_rank_six_exit_2(self, wide_rank_six, tmp_path, capsys):
        alpha, w0, f = wide_rank_six
        poly = [{"coeff": "1", "x": list(k[:6]), "y": list(k[6:])} for k in f.terms]
        entries = [{"z": list(z.images), "poly": poly if z == w0 else []} for z in alpha.entries]
        class_file = tmp_path / "class.json"
        class_file.write_text(json.dumps({"n": 6, "entries": entries}))
        argv = ["decompose", "--n", "6", "--gamma", "1,2,3,4,5,6", "--class", str(class_file)]
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: a product of 60000 terms by a class would write at least 43200000"
            f" summands, over the term bound MAX_TERMS = {laurent.MAX_TERMS}\n"
        )


def wide_y_laurent(rng, n, bound, size):
    """y-only terms with exponents up to +-bound (extremes included) and
    coefficients beyond 2**64."""
    terms = {}
    for _ in range(size):
        key = (0,) * n + tuple(
            rng.choice((-bound, bound, 0, rng.randint(-bound, bound))) for _ in range(n)
        )
        terms[key] = rng.choice((1, -1)) * rng.randint(1, 1 << 70)
    return LaurentPoly(n, terms)


def assert_solve_matches_points(coeff_map, gamma, n):
    """recompose and decompose against the point-by-point routes, and the round trip."""
    alpha = recompose(coeff_map, gamma, n)
    assert alpha.entries == recompose_by_points(coeff_map, gamma, n)
    coeffs = decompose(alpha, gamma)
    assert coeffs == decompose_by_points(alpha, gamma)
    for w in all_permutations(n):
        assert coeffs[w] == coeff_map.get(w, LaurentPoly.zero(n))


def diagonal_by_binomials(w, gamma):
    """prod over i < j with u(i) < u(j), u = gamma^{-1}w, of (1 - y_{w(j)}/y_{w(i)})."""
    n = w.n
    u = (gamma.inverse() * w).images
    out = LaurentPoly.one(n)
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] < u[j]:
                yexp = [0] * n
                yexp[w.images[j] - 1] += 1
                yexp[w.images[i] - 1] -= 1
                out = out * (1 - LaurentPoly.monomial(n, 1, yexp=yexp))
    return out


def exponent_size(polys):
    return max((abs(e) for f in polys for key in f.terms for e in key), default=0)


class TestPackedSolve:
    """The packed decompose and recompose against the routes that restrict
    point by point and divide with laurent.exact_div."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_gamma(self, n):
        rng = random.Random(100 + n)
        perms = list(all_permutations(n))
        for gamma in perms:
            chosen = rng.sample(perms, rng.randint(1, len(perms)))
            assert_solve_matches_points(
                {w: random_y_monomial(rng, n) for w in chosen}, gamma, n
            )
            # a product of two permuted classes, the benchmark's shape
            a, b = (permuted_grothendieck(rng.choice(perms), gamma) for _ in range(2))
            alpha = restrict_all(a * b)
            coeffs = decompose(alpha, gamma)
            assert coeffs == decompose_by_points(alpha, gamma)
            assert recompose(coeffs, gamma, n).entries == alpha.entries

    def test_seeded_gamma_rank_five(self):
        # rank 4: TestDecomposeAgainstPointRoute.test_round_trips_rank_four
        n = 5
        rng = random.Random(205)
        perms = list(all_permutations(n))
        for _ in range(3):
            gamma = rng.choice(perms)
            chosen = rng.sample(perms, 4)
            assert_solve_matches_points(
                {w: random_y_monomial(rng, n) for w in chosen}, gamma, n
            )

    @pytest.mark.parametrize("bound", [1, 3, 1000, 10**6])
    def test_wide_coefficients(self, bound):
        rng = random.Random(bound)
        for n in (2, 3, 4):
            perms = list(all_permutations(n))
            gamma = rng.choice(perms)
            chosen = rng.sample(perms, min(3, len(perms)))
            coeff_map = {w: wide_y_laurent(rng, n, bound, rng.randint(1, 4)) for w in chosen}
            assert_solve_matches_points(coeff_map, gamma, n)

    def test_outside_the_span(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            perms = list(all_permutations(n))
            for _ in range(4):
                gamma = rng.choice(perms)
                alpha = recompose({rng.choice(perms): random_y_monomial(rng, n)}, gamma, n)
                # one extra monomial at one point leaves the span
                z = rng.choice(perms)
                entries = dict(alpha.entries)
                entries[z] = entries[z] + random_y_monomial(rng, n)
                bad = RestrictionClass(n, entries)
                with pytest.raises(NotInSpanError) as by_points:
                    decompose_by_points(bad, gamma)
                with pytest.raises(NotInSpanError) as packed:
                    decompose(bad, gamma)
                assert str(packed.value) == f"{by_points.value} by the diagonal restriction"

    def test_lines_folded_by_the_packing_stay_apart(self):
        # the diagonal at w = 3,1,2 is 1 - y2/y1. The keys of 1 and y3/y2 lie
        # on one line k + dZ of packed keys for it (B steps apart), but not on
        # one line of exponents: a carry across that gap would make a quotient
        n = 3
        w = Permutation((3, 1, 2))
        y2_over_y1 = LaurentPoly.monomial(n, 1, yexp=(-1, 1, 0))
        assert diagonal_by_binomials(w, Permutation.identity(n)) == 1 - y2_over_y1
        entries = {z: LaurentPoly.zero(n) for z in all_permutations(n)}
        entries[w] = 1 - LaurentPoly.monomial(n, 1, yexp=(0, -1, 1))
        bad = RestrictionClass(n, entries)
        with pytest.raises(NotInSpanError, match="^residue at 3,1,2 is not divisible$"):
            decompose_by_points(bad, Permutation.identity(n))
        with pytest.raises(
            NotInSpanError,
            match="^residue at 3,1,2 is not divisible by the diagonal restriction$",
        ):
            decompose(bad, Permutation.identity(n))

    @pytest.mark.parametrize(
        "fault",
        # on packed keys 1 is 0, and y1 y2 y3 is the sum of the digit weights
        [lambda b: {1 + b + b * b: 1, 0: -1}, lambda b: {0: 1}],
        ids=["y1y2y3-1", "one"],
    )
    def test_a_residue_left_nonzero_is_refused(self, monkeypatch, fault):
        # step w leaves the residue at w exactly 0 and no later step writes
        # there, so a fault added at the first solved point after its step
        # reaches the closing check: y1 y2 y3 - 1, zero only modulo the
        # determinant relation, as well as 1
        n = 3
        perms = list(all_permutations(n))
        gamma = Permutation((2, 3, 1))
        first = gamma * Permutation.longest(n)  # gamma^-1 w = w0: solved first
        alpha = recompose({first: yv(n, 1), Permutation.identity(n): 1 + yv(n, 2)}, gamma, n)
        real, classes = gkm._add_product, []

        def add_product_then_fault(entries, a, f, b):
            real(entries, a, f, b)
            if not classes:
                acc = entries[perms.index(first)]
                for k, c in fault(b).items():
                    acc[k] = acc.get(k, 0) + c
            classes.append(f)

        monkeypatch.setattr(gkm, "_add_product", add_product_then_fault)
        with pytest.raises(
            InternalInvariantError, match=f"^nonzero residue left at {first} after the solve$"
        ):
            decompose(alpha, gamma)
        assert classes[0] == permuted_grothendieck(first, gamma)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_is_a_product_of_binomials(self, n):
        perms = list(all_permutations(n))
        for w in perms:
            for gamma in perms:
                assert restrict(permuted_grothendieck(w, gamma), w) == diagonal_by_binomials(
                    w, gamma
                )

    def test_solve_base_arithmetic(self):
        for m in (0, 1, 3, 1000, 10**6):
            for n in (1, 2, 3, 4, 5):
                for rounds in (1, n * (n - 1) // 2 + 1):
                    bound, b = gkm._solve_base(m, n, rounds)
                    assert bound == m + (n - 1) * rounds
                    assert b > 8 * bound and b & (b - 1) == 0 and (b == 1 or b <= 16 * bound)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_basis_restrictions_meet_the_base_premises(self, n):
        # every exponent of a restriction is at most n - 1 in size, and the
        # restriction is exactly 0 (not only modulo the determinant) off [e, u]
        perms = list(all_permutations(n))
        for u in perms:
            alpha = restrict_all(grothendieck(u))
            assert exponent_size(alpha.entries.values()) <= n - 1
            for z in perms:
                assert alpha.entries[z].is_zero is not bruhat_leq(z, u)

    @pytest.mark.parametrize("bound", [1, 3, 1000])
    def test_solves_stay_inside_the_bound(self, bound):
        # the largest exponent of the input, the coefficients and every product
        # a_w * (restriction at z) bounds every residue of the solve
        rng = random.Random(300 + bound)
        for n in (3, 4):
            perms = list(all_permutations(n))
            gamma = rng.choice(perms)
            coeff_map = {w: wide_y_laurent(rng, n, bound, 2) for w in rng.sample(perms, 3)}
            alpha = recompose(coeff_map, gamma, n)
            coeffs = decompose_by_points(alpha, gamma)
            seen = [exponent_size(alpha.entries.values()), exponent_size(coeffs.values())]
            for w, c in coeffs.items():
                gw = permuted_grothendieck(w, gamma)
                seen += [exponent_size([c * restrict(gw, z)]) for z in perms if not c.is_zero]
            m = exponent_size(alpha.entries.values())
            limit, _ = gkm._solve_base(m, n, n * (n - 1) // 2 + 1)
            assert max(seen) <= limit


class TestWalkEarlyStop:
    @pytest.mark.parametrize(
        "make",
        [top, lambda n: LaurentPoly.one(n), LaurentPoly.zero, lambda n: grothendieck(
            Permutation((2, 1) + tuple(range(3, n + 1))))],
        ids=["top", "constant", "zero", "s1"],
    )
    def test_one_point_test_per_point(self, monkeypatch, make):
        n = 4
        calls = []
        real = gkm._nonzero_at
        monkeypatch.setattr(gkm, "_nonzero_at", lambda sums: calls.append(1) or real(sums))
        f = make(n)
        assert support(f) == support_by_substitution(f)
        assert len(calls) == 24

    def test_points_below_a_stopped_node_share_the_value(self):
        # x_2, ..., x_4 do not occur, so the walk stops after z(1)
        f = LaurentPoly.x(4, 1) - LaurentPoly.y(4, 2)
        nodes = list(gkm._packed_restrictions(f, False))
        assert [(prefix, free) for prefix, free, _ in nodes] == [
            ((j,), [v for v in range(1, 5) if v != j]) for j in range(1, 5)
        ]
        alpha = restrict_all(f)
        for prefix, free, _ in nodes:
            below = [alpha.entries[Permutation(prefix + rest)]
                     for rest in itertools.permutations(free)]
            assert len(below) == 6 and all(entry is below[0] for entry in below)
        assert_walk_matches_points(f)

    def test_a_node_where_few_terms_merge_keeps_them(self):
        # x_1 - y_1 cancels once z(1) = 1, 2 of 10 terms: too few to compact, so
        # the cancelled pair walks on and the nodes below sum it to 0
        terms = {(1, 0, 0, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0, 0, 0): -1}
        terms.update({(0, k, 0, 0, 0, 0, 1, 0): k for k in range(1, 9)})
        f = LaurentPoly(4, terms)
        nodes = list(gkm._packed_restrictions(f, False))
        assert any(0 in sums.values() for prefix, _, sums in nodes if prefix[0] == 1)
        assert restrict_all(f).entries == {z: restrict(f, z) for z in all_permutations(4)}
        assert support(f) == support_by_substitution(f)


# stopped nodes of the walks of G_u over u in S_n; relabelling y keeps the
# x-exponents, so every permuted class of one gamma stops at as many
NODES = {3: 22, 4: 258, 5: 4409}


class WalkSpy:
    """What gkm's packed walk does: the prefix of the node at each gkm._sums call
    the walk makes, the prefixes of the nodes each walk yields, and the names of
    the functions that call gkm._sums outside the walk."""

    def __init__(self, monkeypatch):
        self.summed, self.walks, self.outside = [], [], []
        real_sums, real_walk = gkm._sums, gkm._packed_restrictions
        (walk_code,) = (
            c for c in real_walk.__code__.co_consts
            if isinstance(c, types.CodeType) and c.co_name == "walk"
        )

        def sums(keys, coeffs):
            frame = sys._getframe(1)
            if frame.f_code is walk_code:
                self.summed.append(frame.f_locals["prefix"])
            else:
                self.outside.append(frame.f_code.co_name)
            return real_sums(keys, coeffs)

        def walk(*args, **kwargs):
            stopped = []
            self.walks.append(stopped)
            for node in real_walk(*args, **kwargs):
                stopped.append(node[0])
                yield node

        monkeypatch.setattr(gkm, "_sums", sums)
        monkeypatch.setattr(gkm, "_packed_restrictions", walk)

    def clear(self):
        self.summed.clear()
        self.walks.clear()
        self.outside.clear()

    def assert_each_visited_node_summed_once(self):
        # a walk visits its stopped nodes and their ancestors, the root included
        visited = [p for stopped in self.walks
                   for p in {q[:k] for q in stopped for k in range(len(q) + 1)}]
        assert sorted(self.summed) == sorted(visited)
        assert self.outside == []


class TestNodeOutput:
    """The walk sums each node it visits once, and hands restrict_all, decompose and
    recompose each stopped node's sums, which they read as they are."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_restrict_all_sums_each_node_once(self, monkeypatch, n):
        spy = WalkSpy(monkeypatch)
        perms = list(all_permutations(n))
        stopped = 0
        for u in perms:
            f = grothendieck(u)
            spy.clear()
            alpha = restrict_all(f)
            assert len(spy.walks) == 1
            spy.assert_each_visited_node_summed_once()
            assert list(alpha.entries) == perms
            nodes = list(gkm._packed_restrictions(f, False))
            assert [prefix for prefix, _, _ in nodes] == spy.walks[0]
            stopped += len(nodes)
            # the points below one node hold the very same entry object
            for prefix, free, _ in nodes:
                below = {id(alpha.entries[Permutation(prefix + rest)])
                         for rest in itertools.permutations(free)}
                assert len(below) == 1
            assert len(set(map(id, alpha.entries.values()))) == len(nodes)
            if n < 5:  # rank 5: TestPackedWalk.test_every_class_and_the_top_class
                for z in perms:
                    assert alpha.entries[z] == restrict(f, z), (u, z)
        assert stopped == NODES[n]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_products_sum_each_node_once(self, monkeypatch, n):
        rng = random.Random(400 + n)
        perms = list(all_permutations(n))
        gamma = rng.choice(perms)
        # a nonzero coefficient at every w: one product per basis class
        coeff_map = {w: random_y_monomial(rng, n) for w in perms}
        spy = WalkSpy(monkeypatch)
        alpha = recompose(coeff_map, gamma, n)
        assert len(spy.walks) == len(perms)
        assert sum(map(len, spy.walks)) == NODES[n]
        spy.assert_each_visited_node_summed_once()
        spy.clear()
        coeffs = decompose(alpha, gamma)
        assert len(spy.walks) == len(perms)
        assert sum(map(len, spy.walks)) == NODES[n]
        spy.assert_each_visited_node_summed_once()
        assert coeffs == coeff_map
        if n < 5:  # rank 5: TestPackedSolve.test_seeded_gamma_rank_five
            assert alpha.entries == recompose_by_points(coeff_map, gamma, n)
            assert coeffs == decompose_by_points(alpha, gamma)

    @pytest.mark.parametrize(
        "f",
        [top(4), grothendieck(Permutation((2, 1, 4, 3))),
         LaurentPoly.x(4, 1) - LaurentPoly.y(4, 2), LaurentPoly.one(4)],
        ids=["top", "2143", "x1-y2", "constant"],
    )
    def test_each_node_gets_a_new_dict(self, f):
        expected = {z: restrict(f, z) for z in all_permutations(f.n)}
        first, held = [], []
        for prefix, free, sums in gkm._packed_restrictions(f, False):
            first.append((prefix, free, dict(sums)))
            held.append(sums)
            sums.clear()
        assert len(set(map(id, held))) == len(held)
        assert list(gkm._packed_restrictions(f, False)) == first
        assert restrict_all(f).entries == expected


class TestYKeys:
    """_YKeys, the one owner of the packed y-key format, on its own."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pack_then_decode_round_trips(self, n):
        rng = random.Random(500 + n)
        for m in (1, 3, 1000):
            _, b = gkm._solve_base(m, n, 0)
            keys = gkm._YKeys(n, b)
            assert keys.weights == [b**j for j in range(n)]
            # exponents up to +-m, both extremes reached
            extremes = LaurentPoly.monomial(n, 3, yexp=[m] + [-m] * (n - 1))
            f = wide_y_laurent(rng, n, m, 8) + extremes
            assert exponent_size([f]) == m
            packed = keys.pack(f)
            assert len(packed) == len(f.terms)
            assert keys.poly(packed) == f
            for k in packed:
                assert keys[k] is keys[k]


def tied_values(u):
    """The values a + 2, ..., b of each run [a, b) of kirwan._y_runs(u); the
    runs are the ones whose tied values these are, so each determines the other."""
    return {j for a, b in _y_runs(u) for j in range(a + 2, b + 1)}


def representatives(u):
    """The points z of S_n where each value tied for G_u comes after the value below it."""
    tied = tied_values(u)
    return [
        z for z in all_permutations(u.n)
        if all(z.images.index(j - 1) < z.images.index(j) for j in tied)
    ]


def e_of_run(k, n, a, b):
    """e_k(y_(a+1), ..., y_b): symmetric in the y-variables of the run [a, b)."""
    total = LaurentPoly.zero(n)
    for c in itertools.combinations(range(a, b), k):
        total = total + LaurentPoly.monomial(n, 1, yexp=tuple(int(j in c) for j in range(n)))
    return total


def assert_coset_support_matches(f):
    assert gkm._coset_support(f) == support(f), f


def seeded_polynomials(n):
    """20 seeded (f, g, run) triples: f a random polynomial, g symmetric in
    the y-variables of the run [a, b), from f's y-exponents outside the run
    times e_k of the run."""
    rng = random.Random(240 + n)
    for _ in range(20):
        f = random_laurent(rng, n)
        a = rng.randrange(n - 1)
        b = rng.randint(a + 2, n)
        outside = LaurentPoly(n, {})
        for key, c in f.terms.items():
            yexp = tuple(0 if a <= j < b else e for j, e in enumerate(key[n:]))
            outside = outside + LaurentPoly.monomial(n, c, xexp=key[:n], yexp=yexp)
        yield f, outside * e_of_run(rng.randint(1, b - a), n, a, b), (a, b)


class TestClassSupport:
    """gkm._coset_support(f), over the cosets of the y-symmetries found in f,
    against support(f), the walk over every point: classes and other polynomials."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_class(self, n):
        for u in all_permutations(n):
            assert_coset_support_matches(grothendieck(u))

    def test_rank_six_sample(self):
        rng = random.Random(18)
        perms = list(all_permutations(6))
        for u in rng.sample(perms, 8) + [perms[0], perms[-1]]:
            assert_coset_support_matches(grothendieck(u))

    def test_returns_the_library_permutations(self):
        perms = set(map(id, all_permutations(4)))
        for u in all_permutations(4):
            assert all(id(z) in perms for z in gkm._coset_support(grothendieck(u)))

    def test_ties_are_the_descents_of_the_inverse(self):
        assert _y_runs(Permutation((1, 2, 3))) == ((0, 1), (1, 2), (2, 3))
        assert _y_runs(Permutation((3, 2, 1))) == ((0, 3),)
        # u^-1 = 3,1,2: only 2 comes before 1 in u, so only y_1, y_2 share a run
        assert _y_runs(Permutation((2, 3, 1))) == ((0, 2), (2, 3))
        assert tied_values(Permutation((3, 2, 1))) == {2, 3}
        assert _y_runs(Permutation((1,))) == ((0, 1),)

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_class_plus_y1(self, n):
        # y_1 breaks the symmetry in y_1, y_2 and keeps the others
        for u in all_permutations(n):
            assert_coset_support_matches(grothendieck(u) + yv(n, 1))

    @pytest.mark.parametrize("n, pairs", [(3, 36), (4, 16)])
    def test_products_of_two_classes(self, n, pairs):
        perms = list(all_permutations(n))
        grid = list(itertools.product(perms, perms))
        for u, w in random.Random(220 + n).sample(grid, pairs):
            assert_coset_support_matches(grothendieck(u) * grothendieck(w))

    @pytest.mark.parametrize("n, pairs", [(3, 36), (4, 24)])
    def test_relabelled_classes(self, n, pairs):
        # permute_y(gamma, G_u) is symmetric in y_gamma(j), y_gamma(j+1), which
        # need not be adjacent
        perms = list(all_permutations(n))
        grid = list(itertools.product(perms, perms))
        for u, gamma in random.Random(230 + n).sample(grid, pairs):
            assert_coset_support_matches(permuted_grothendieck(gamma * u, gamma))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_polynomials(self, n):
        for f, g, (a, b) in seeded_polynomials(n):
            assert_coset_support_matches(f)
            for j in range(a + 1, b):
                assert permute_y_by_terms(Permutation.simple(n, j), g) == g
            assert_coset_support_matches(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_and_a_constant(self, n):
        assert gkm._coset_support(LaurentPoly.zero(n)) == frozenset()
        assert gkm._coset_support(LaurentPoly.const(n, -3)) == frozenset(all_permutations(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_runs_found_are_the_descent_runs(self, monkeypatch, n):
        # the spy keeps the tied values the walk is given and ends the walk
        given = []
        monkeypatch.setattr(
            gkm, "_packed_restrictions", lambda f, det, tied: given.append(tied) or iter(())
        )
        for u in all_permutations(n):
            gkm._coset_support(grothendieck(u))
            assert given.pop() == tied_values(u), u

    @pytest.mark.parametrize("n", [3, 4])
    def test_claiming_every_swap_fixes_fails(self, monkeypatch, n):
        # the mutation: the detection finds one run of all n slots for every f
        truth = {u: support(grothendieck(u)) for u in all_permutations(n)}
        monkeypatch.setattr(gkm, "_is_permute_y", lambda sigma, f, g: True)
        longest = Permutation.longest(n)
        for u, supp in truth.items():
            got = gkm._coset_support(grothendieck(u))
            assert (got == supp) == (u == longest), u

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_test_per_stopped_node(self, monkeypatch, n):
        calls = []
        real = gkm._nonzero_at
        monkeypatch.setattr(gkm, "_nonzero_at", lambda sums: calls.append(1) or real(sums))
        for u in all_permutations(n):
            f, tied = grothendieck(u), tied_values(u)
            nodes = list(gkm._packed_restrictions(f, True, tied=tied))
            reps = representatives(u)
            # each node places a tied value only after the value below it, and
            # the representatives are the rule-abiding points below the nodes
            below = set()
            for prefix, free, _ in nodes:
                assert all(j - 1 in prefix[: prefix.index(j)] for j in prefix if j in tied)
                below |= {prefix + rest for rest in itertools.permutations(free)}
            assert {z.images for z in reps} <= below
            calls.clear()
            gkm._coset_support(f)
            assert len(calls) == len(nodes) <= len(reps)
        # G_{w0} = 1 has no x-exponent and ties every value: one node, the root
        calls.clear()
        f = grothendieck(Permutation.longest(n))
        assert gkm._coset_support(f) == frozenset(all_permutations(n))
        assert len(calls) == 1
