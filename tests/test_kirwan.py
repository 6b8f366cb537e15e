import random
from fractions import Fraction
from operator import itemgetter

import pytest

from kflag import gkm, kirwan
from kflag.errors import (
    InvalidInputError,
    NotRegularError,
    SoundnessFailureError,
)
from kflag.gkm import support
from kflag.groth import grothendieck, permuted_grothendieck
from kflag.kirwan import (
    KernelGenerator,
    WeightVector,
    det_relation,
    eta_value,
    half_space_soundness,
    is_regular,
    kernel_generators,
    kernel_soundness,
    moment_image,
    presentation,
)
from kflag.laurent import LaurentPoly, elementary_symmetric, poly_to_json, polys_to_json
from kflag.perm import Permutation, all_permutations, permuted_bruhat_leq

from oracles import permute_y_by_terms, pi_word, soundness_by_points, t_simple


def W(text):
    return WeightVector.parse(text)


def tail_pairs_by_eta(lam, mu):
    """(v, gamma, [(k, lam tail over v, mu tail over gamma)]) for every pair, in
    lexicographic order, with both tail sums as eta_value Fractions."""
    perms = list(all_permutations(lam.n))
    cuts = range(1, lam.n)
    lam_tails = {v: [eta_value(v, k, lam) for k in cuts] for v in perms}
    mu_tails = {g: [eta_value(g, k, mu) for k in cuts] for g in perms}
    return [(v, g, list(zip(cuts, lam_tails[v], mu_tails[g]))) for v in perms for g in perms]


def walls_by_eta(lam, mu):
    """Every (v, gamma, k, value) whose eta_value tails are equal, in lexicographic order."""
    return [(v, g, k, a) for v, g, tails in tail_pairs_by_eta(lam, mu) for k, a, b in tails if a == b]


def tied_levels(lam, seed):
    """Seeded rational levels, the one for cut k moved onto the wall of a random
    (v, gamma, k): mu gains a constant on gamma's tail slots and loses it
    elsewhere, keeping its sum zero."""
    rng = random.Random(seed)
    n = lam.n
    perms = list(all_permutations(n))
    levels = []
    for k in range(1, n):
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        mean = sum(entries) / n
        mu = [e - mean for e in entries]
        v, g = rng.choice(perms), rng.choice(perms)
        tail = [g(i) - 1 for i in range(k + 1, n + 1)]
        shift = (eta_value(v, k, lam) - sum(mu[s] for s in tail)) / len(tail)
        levels.append(
            WeightVector(tuple(e + shift if s in tail else e - shift * len(tail) / k
                               for s, e in enumerate(mu)))
        )
    return levels


# thirds against sevenths: the integer tail sums are scaled by D = 21
MIXED_LAM, MIXED_MU = "2,1/3,-2/3,-5/3", "3/7,1/7,-1/7,-3/7"
# the staircase at rank 5: 11,520 generators over 105 base classes
RANK5_LAM, RANK5_MU = "4,2,0,-2,-4", "31/97,17/97,5/97,-11/97,-42/97"
# one generic lambda per rank for the wall-certificate oracle
ORACLE_LAMS = {2: "1/2,-1/2", 3: "1,0,-1", 4: MIXED_LAM, 5: RANK5_LAM}


def wall_cases():
    """(id, lam, mu) for the wall-certificate oracle: mu = 0, mu = lam and the
    tied levels at ranks 2-5, every moment image at rank 3, and the regular
    rank-5 level."""
    cases = []
    for n, lam in ORACLE_LAMS.items():
        lam = W(lam)
        cases += [(f"rank{n}-zero", lam, WeightVector((0,) * n)), (f"rank{n}-lambda", lam, lam)]
        cases += [(f"rank{n}-tied{k}", lam, mu) for k, mu in enumerate(tied_levels(lam, n), 1)]
    lam = W(ORACLE_LAMS[3])
    for w in all_permutations(3):
        cases.append(("rank3-image" + "".join(map(str, w.images)), lam, moment_image(lam, w)))
    return cases + [("rank5-regular", W(RANK5_LAM), W(RANK5_MU))]


WALL_CASES = wall_cases()


@pytest.fixture(scope="module")
def generators():
    """kernel_generators of (lam, mu) strings. The rank-5 staircase result is
    built once for the module and shared by the tests that take it this way,
    none of which checks that a repeated call gives the same result."""
    rank5 = []

    def get(lam, mu):
        if (lam, mu) != (RANK5_LAM, RANK5_MU):
            return kernel_generators(W(lam), W(mu))
        if not rank5:
            rank5.append(kernel_generators(W(lam), W(mu)))
        return rank5[0]

    return get


class TestWeightVector:
    def test_parse_and_format(self):
        lam = W("1/4,1/8,-3/8")
        assert lam.entries == (Fraction(1, 4), Fraction(1, 8), Fraction(-3, 8))
        assert lam.format() == "1/4,1/8,-3/8"

    def test_zero_sum_enforced(self):
        with pytest.raises(InvalidInputError):
            W("1,0,0")
        with pytest.raises(InvalidInputError):
            WeightVector((Fraction(1),))

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            W("1,abc,-1")
        with pytest.raises(InvalidInputError):
            W("1/0,0,-1")

    def test_generic_flag(self):
        assert W("1,0,-1").is_generic
        assert not W("0,0,0").is_generic
        with pytest.raises(InvalidInputError):
            W("0,0,0").require_generic()

    def test_staircase(self):
        lam = WeightVector.staircase(4)
        assert lam.entries == (3, 1, -1, -3)
        assert lam.is_generic


class TestMomentImage:
    def test_identity(self):
        lam = W("1,0,-1")
        assert moment_image(lam, Permutation.identity(3)) == lam

    def test_definition_table(self):
        lam = W("1,0,-1")
        assert moment_image(lam, Permutation((2, 1, 3))).entries == (0, 1, -1)

    def test_entries_are_permuted(self):
        lam = W("5,2,-3,-4")
        for w in all_permutations(4):
            image = moment_image(lam, w)
            assert sorted(image.entries) == sorted(lam.entries)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            moment_image(W("1,-1"), Permutation.identity(3))


class TestEtaValue:
    def test_identity_gamma_is_tail_sum(self):
        lam = W("1,0,-1")
        e = Permutation.identity(3)
        assert eta_value(e, 1, lam) == Fraction(-1)
        assert eta_value(e, 2, lam) == Fraction(-1)

    def test_unfolded_definition(self):
        lam = W("2,1,-1,-2")
        for gamma in all_permutations(4):
            for w in all_permutations(4):
                for k in (1, 2, 3):
                    winv = w.inverse()
                    expected = sum(
                        (lam.entries[winv(gamma(i)) - 1] for i in range(k + 1, 5)),
                        Fraction(0),
                    )
                    assert eta_value(gamma, k, moment_image(lam, w)) == expected

    def test_minimum_attained_at_gamma(self):
        lam = W("3,1,-1,-3")
        for gamma in all_permutations(4):
            for k in (1, 2, 3):
                values = [
                    eta_value(gamma, k, moment_image(lam, w))
                    for w in all_permutations(4)
                ]
                assert min(values) == eta_value(gamma, k, moment_image(lam, gamma))

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInputError):
            eta_value(Permutation.identity(3), 3, W("1,0,-1"))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monotone_along_permuted_order(self, n):
        lam = WeightVector.staircase(n)
        perms = list(all_permutations(n))
        for gamma in perms:
            for k in range(1, n):
                values = {w: eta_value(gamma, k, moment_image(lam, w)) for w in perms}
                for v in perms:
                    for w in perms:
                        if permuted_bruhat_leq(v, w, gamma):
                            assert values[v] <= values[w]


class TestIsRegular:
    def test_rank_two_regular(self):
        cert = is_regular(W("1/2,-1/2"), W("0,0"))
        assert cert.regular
        assert cert.walls == ()

    def test_rank_three_wall(self):
        cert = is_regular(W("1,0,-1"), W("0,0,0"))
        assert not cert.regular
        assert any(hit.value == 0 for hit in cert.walls)

    def test_mu_equal_lambda_never_regular(self):
        lam = W("1,0,-1")
        cert = is_regular(lam, lam)
        assert not cert.regular

    def test_walls_through_vertices(self):
        lam = W("1,0,-1")
        for w in all_permutations(3):
            assert not is_regular(lam, moment_image(lam, w)).regular

    def test_non_generic_rejected(self):
        with pytest.raises(InvalidInputError):
            is_regular(W("0,0"), W("0,0"))

    def test_certificate_lists_exact_triples(self):
        lam = W("1,0,-1")
        mu = W("0,0,0")
        cert = is_regular(lam, mu)
        # independent count: tail sums of lam over (v, k) hitting mu's zeros
        expected = 0
        perms = list(all_permutations(3))
        for v in perms:
            for g in perms:
                for k in (1, 2):
                    lam_tail = sum(lam.entries[v(i) - 1] for i in range(k + 1, 4))
                    mu_tail = sum(mu.entries[g(i) - 1] for i in range(k + 1, 4))
                    if lam_tail == mu_tail:
                        expected += 1
        assert len(cert.walls) == expected

    @pytest.mark.parametrize(
        "lam, mu",
        [("2/3,1/7,-17/21", "2/3,-1/3,-1/3"), (MIXED_LAM, MIXED_MU)],
        ids=["walls", "regular"],
    )
    def test_mixed_denominators_match_eta_brute_force(self, lam, mu):
        lam, mu = W(lam), W(mu)
        expected = walls_by_eta(lam, mu)
        cert = is_regular(lam, mu)
        assert [(h.v, h.gamma, h.k, h.value) for h in cert.walls] == expected
        assert cert.regular == (not expected)
        assert all(type(h.value) is Fraction for h in cert.walls)
        if expected:
            # a wall off the integers: its value is exact, not rounded to D
            assert Fraction(-2, 3) in {h.value for h in cert.walls}

    @pytest.mark.parametrize("lam, mu", [c[1:] for c in WALL_CASES], ids=[c[0] for c in WALL_CASES])
    def test_wall_certificate_matches_eta_brute_force(self, lam, mu):
        # the whole certificate in order, against every pair and cut compared
        # by eta_value; kernel_generators refuses with the same certificate
        expected = walls_by_eta(lam, mu)
        cert = is_regular(lam, mu)
        assert [(h.v, h.gamma, h.k, h.value) for h in cert.walls] == expected
        assert cert.regular == (not expected)
        if expected:
            with pytest.raises(NotRegularError) as excinfo:
                kernel_generators(lam, mu)
            assert excinfo.value.certificate == cert

    def test_tied_levels_lie_on_their_walls(self):
        # the level built for cut k shares a tail value with lam at k
        for n, lam in ORACLE_LAMS.items():
            lam, perms = W(lam), list(all_permutations(n))
            for k, mu in enumerate(tied_levels(lam, n), 1):
                shared = {eta_value(v, k, lam) for v in perms} & {eta_value(g, k, mu) for g in perms}
                assert shared, (n, k)


def descent_coset_key(v, gamma):
    """gamma's images sorted within each run of positions i, i + 1, ... that
    v's descents v(i) > v(i + 1) join: the coset of gamma under the s_i at
    v's descents."""
    key, run = [], [gamma(1)]
    for i in range(1, v.n):
        if v(i) < v(i + 1):
            key += sorted(run)
            run = []
        run.append(gamma(i + 1))
    return tuple(key + sorted(run))


def symmetric_in_adjacent_y(f, j):
    """Whether f is fixed by swapping y_j and y_{j+1}, by the oracle's relabelling."""
    return permute_y_by_terms(Permutation(t_simple(f.n, j)), f) == f


class TestBaseClassSymmetry:
    # G_{v^-1} is symmetric in y_j, y_{j+1} exactly at the descents of v:
    # the fact behind kernel_generators sharing one poly per coset of gamma

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_symmetric_iff_descent(self, n):
        perms = list(all_permutations(n))
        if n == 6:
            # all 720 rank-6 classes take several seconds; 60 seeded ones
            perms = random.Random(12).sample(perms, 60)
        for v in perms:
            f = grothendieck(v.inverse())
            for j in range(1, n):
                assert symmetric_in_adjacent_y(f, j) == (v(j) > v(j + 1)), (v, j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_support_ties_are_the_descent_runs(self, n):
        # kernel_soundness walks supp(G_{v^-1}) over cosets of the values
        # that gkm ties: value j is tied to j - 1 exactly inside a run of v
        for v in all_permutations(n):
            runs = {j for a, b in kirwan._runs(v) for j in range(a + 2, b + 1)}
            assert gkm._ties(v.inverse()) == runs, v

    def test_coset_key(self):
        v = Permutation((3, 1, 2, 5, 4))  # descents at 1 and 4
        gamma = Permutation((4, 2, 5, 3, 1))
        assert descent_coset_key(v, gamma) == (2, 4, 5, 1, 3)
        assert descent_coset_key(Permutation.identity(5), gamma) == gamma.images


class TestKernelGenerators:
    def test_rank_two_exact_output(self):
        lam, mu = W("1/2,-1/2"), W("0,0")
        gens = kernel_generators(lam, mu)
        labels = [(g.v.images, g.gamma.images, g.witnesses) for g in gens]
        assert labels == [
            ((1, 2), (1, 2), (1,)),
            ((1, 2), (2, 1), (1,)),
        ]
        x1inv = LaurentPoly.monomial(2, 1, xexp=(-1, 0))
        assert gens[0].poly == 1 - LaurentPoly.y(2, 2) * x1inv
        assert gens[1].poly == 1 - LaurentPoly.y(2, 1) * x1inv

    def test_not_regular_refused(self):
        lam = W("1,0,-1")
        with pytest.raises(NotRegularError) as excinfo:
            kernel_generators(lam, W("0,0,0"))
        assert excinfo.value.certificate is not None
        assert not excinfo.value.certificate.regular

    def test_scaling_invariance(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        scale = Fraction(3, 7)
        lam2 = WeightVector(tuple(scale * e for e in lam.entries))
        mu2 = WeightVector(tuple(scale * e for e in mu.entries))
        gens = kernel_generators(lam, mu)
        gens2 = kernel_generators(lam2, mu2)
        assert [(g.v, g.gamma, g.witnesses) for g in gens] == [
            (g.v, g.gamma, g.witnesses) for g in gens2
        ]

    def test_downward_closed_in_tail_order(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        gens = kernel_generators(lam, mu)
        emitted = {(g.v, g.gamma): set(g.witnesses) for g in gens}
        perms = list(all_permutations(3))

        def tails(v):
            return tuple(
                sum(lam.entries[v(i) - 1] for i in range(k + 1, 4)) for k in (1, 2)
            )

        for (v, gamma), ks in emitted.items():
            for v2 in perms:
                if all(a <= b for a, b in zip(tails(v2), tails(v))):
                    assert (v2, gamma) in emitted
                    assert ks <= emitted[(v2, gamma)]

    def test_polynomials_match_word_route(self):
        from kflag.groth import top
        from kflag.laurent import permute_y

        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        for gen in kernel_generators(lam, mu):
            direct = pi_word(gen.v, permute_y(gen.gamma, top(3)))
            assert gen.poly == direct

    @pytest.mark.parametrize(
        "lam, mu",
        [
            # v = (2,1) qualifies: its base class G_{w0} = 1 has a single term
            ("1/2,-1/2", "3/4,-3/4"),
            ("1,0,-1", "1/4,1/8,-3/8"),
            ("3,1,-1,-3", "31/97,17/97,-11/97,-37/97"),
            (MIXED_LAM, MIXED_MU),
            pytest.param(RANK5_LAM, RANK5_MU, marks=pytest.mark.slow),
        ],
        ids=["rank2", "rank3", "rank4", "rank4-mixed", "rank5"],
    )
    def test_matches_per_pair_route(self, generators, lam, mu):
        # oracle: witnesses from eta_value Fractions, polynomials relabelled
        # one exponent at a time, pair by pair. Generators of one v with
        # equal polys share one, built by the first of them, so the terms
        # come in the base order relabelled by that first gamma
        gens = generators(lam, mu)
        lam, mu = W(lam), W(mu)
        expected, firsts = [], {}
        for v, g, tails in tail_pairs_by_eta(lam, mu):
            ks = tuple(k for k, a, b in tails if a < b)
            if ks:
                terms = permute_y_by_terms(g, grothendieck(v.inverse())).terms
                first = firsts.setdefault((v, frozenset(terms.items())), list(terms.items()))
                expected.append((v, g, ks, first))
        got = [(g.v, g.gamma, g.witnesses, list(g.poly.terms.items())) for g in gens]
        assert got == expected
        assert len(gens) == {2: 2, 3: 24, 4: 432, 5: 11520}[lam.n]
        if lam.n == 2:
            assert [len(g.poly.terms) for g in gens] == [2, 1]

    @pytest.mark.parametrize(
        "lam, mu",
        [
            ("3,1,-1,-3", "31/97,17/97,-11/97,-37/97"),
            pytest.param(RANK5_LAM, RANK5_MU, marks=pytest.mark.slow),
        ],
        ids=["rank4", "rank5"],
    )
    def test_generators_share_key_tuples(self, generators, lam, mu):
        keys = [k for gen in generators(lam, mu) for k in gen.poly.terms]
        assert len({id(k) for k in keys}) == len(set(keys)) < len(keys)
        if W(lam).n == 5:
            assert (len(set(keys)), len(keys)) == (9366, 1085892)

    @pytest.mark.parametrize(
        "lam, mu",
        [
            ("1,0,-1", "1/4,1/8,-3/8"),
            ("3,1,-1,-3", "31/97,17/97,-11/97,-37/97"),
            (RANK5_LAM, RANK5_MU),
        ],
        ids=["rank3", "rank4", "rank5"],
    )
    def test_generators_share_one_poly_per_coset(self, generators, lam, mu):
        # one object per (v, coset of gamma), and distinct cosets hold
        # unequal polys, so no two objects could have been one
        gens = generators(lam, mu)
        by_coset = {}
        for gen in gens:
            by_coset.setdefault((gen.v, descent_coset_key(gen.v, gen.gamma)), []).append(gen)
        for members in by_coset.values():
            assert all(gen.poly is members[0].poly for gen in members)
        polys = {id(gen.poly): gen.poly for gen in gens}
        assert len(polys) == len(by_coset)
        values = {(v, frozenset(m[0].poly.terms.items())) for (v, _), m in by_coset.items()}
        assert len(values) == len(by_coset)
        if W(lam).n == 5:
            counts = (len(polys), sum(len(p.terms) for p in polys.values()))
            assert counts == (3195, 455751)

    def test_repeated_call_gives_same_output(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        first = kernel_generators(lam, mu)
        repeated = kernel_generators(lam, mu)
        assert first == repeated


class TestSoundness:
    def test_rank_two_certificate(self):
        lam, mu = W("1/2,-1/2"), W("0,0")
        gens = kernel_generators(lam, mu)
        for gen in gens:
            cert = half_space_soundness(gen, lam, mu)
            assert cert.checks
            for check in cert.checks:
                assert check.fixed_point_value < check.level_value

    def test_full_rank_three_sweep(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        for gen in kernel_generators(lam, mu):
            half_space_soundness(gen, lam, mu)

    def test_corrupted_generator_fails(self):
        lam, mu = W("1/2,-1/2"), W("0,0")
        gens = kernel_generators(lam, mu)
        # v = s1 has lam tail 1/2 at k=1, violating the strict inequality
        bad = KernelGenerator(
            v=Permutation((2, 1)),
            gamma=Permutation((1, 2)),
            witnesses=(1,),
            poly=permuted_grothendieck(Permutation((2, 1)), Permutation((1, 2))),
        )
        with pytest.raises(SoundnessFailureError):
            half_space_soundness(bad, lam, mu)
        # a support point on the level is outside the open half-space: the
        # only support point of G_e sits at lam tail -1/2 = mu tail at k=1
        e = Permutation((1, 2))
        on_level = KernelGenerator(e, e, (1,), grothendieck(e))
        message = "point 1,2 violates the k=1 inequality: -1/2 >= -1/2"
        with pytest.raises(SoundnessFailureError, match=message):
            half_space_soundness(on_level, lam, lam)

    @pytest.mark.parametrize("same_v", [True, False], ids=["same_v", "other_v"])
    def test_checked_poly_in_another_coset_fails(self, same_v):
        # the class check passes once per (v, coset); the checked object handed
        # to a generator of another coset is checked again, and fails there
        lam, mu = W("3,1,-1,-3"), W("31/97,17/97,-11/97,-37/97")
        gens = kernel_generators(lam, mu)
        first = gens[0]
        other = next(
            gen for gen in gens
            if (gen.v == first.v) == same_v
            and descent_coset_key(gen.v, gen.gamma) != descent_coset_key(first.v, first.gamma)
            and gen.poly != first.poly
        )
        assert kernel_soundness((first, other), lam, mu)
        bad = KernelGenerator(other.v, other.gamma, other.witnesses, first.poly)
        with pytest.raises(SoundnessFailureError, match="is not its class"):
            kernel_soundness((first, bad), lam, mu)

    @pytest.mark.parametrize(
        "lam, mu",
        [
            ("1/2,-1/2", "0,0"),
            ("1,0,-1", "1/4,1/8,-3/8"),
            ("3,1,-1,-3", "31/97,17/97,-11/97,-37/97"),
        ],
        ids=["rank2", "rank3", "rank4"],
    )
    def test_kernel_soundness_matches_per_generator_route(self, lam, mu):
        # oracle: every support point of each generator's own polynomial, with
        # both sides of every inequality from eta_value at the moment image;
        # the certificate holds each witness's worst row, the least z on ties
        lam, mu = W(lam), W(mu)
        gens = kernel_generators(lam, mu)
        certs = kernel_soundness(gens, lam, mu)
        assert [cert.generator for cert in certs] == list(gens)
        points = checks = 0
        for gen, cert in zip(gens, certs):
            rows = soundness_by_points(gen, lam, mu)
            assert all(lhs < rhs for _, _, lhs, rhs in rows)
            # max keeps the first of equal rows, and rows run in z order
            expected = [
                max((row for row in rows if row[1] == k), key=itemgetter(2))
                for k in gen.witnesses
            ]
            got = [(c.z, c.k, c.fixed_point_value, c.level_value) for c in cert.checks]
            assert got == expected
            assert all(type(value) is Fraction for row in got for value in row[2:])
            assert half_space_soundness(gen, lam, mu) == cert
            points += len(rows)
            checks += len(got)
        assert (len(gens), checks, points) == {
            2: (2, 2, 2), 3: (24, 36, 72), 4: (432, 864, 4104)
        }[lam.n]

    def test_injected_support_point_at_the_level_fails(self, monkeypatch):
        # a base class gains a point whose lam tail reaches the level of the
        # first generator of its v at its first witness that such a point can
        # break: that point is then the unique worst one
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        gens = kernel_generators(lam, mu)

        def injection():
            for i, gen in enumerate(gens):
                if i and gens[i - 1].v == gen.v:
                    continue
                for k in gen.witnesses:
                    level = eta_value(gen.gamma, k, mu)
                    for p in all_permutations(3):
                        if eta_value(gen.gamma, k, moment_image(lam, gen.gamma * p)) >= level:
                            return gen, k, p

        gen, k, p = injection()
        base = grothendieck(gen.v.inverse())
        assert p not in support(base)
        library_support = kirwan._class_support
        monkeypatch.setattr(
            kirwan,
            "_class_support",
            lambda u: library_support(u) | ({p} if u == gen.v.inverse() else set()),
        )
        message = f"support point {gen.gamma * p} violates the k={k} inequality"
        with pytest.raises(SoundnessFailureError, match=message):
            kernel_soundness(gens, lam, mu)
        with pytest.raises(SoundnessFailureError, match=message):
            half_space_soundness(gen, lam, mu)

    def test_poly_that_is_not_the_class_fails(self):
        # 2 * G has the same support as G, so only the class check can catch it
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        gen = kernel_generators(lam, mu)[5]
        doubled = KernelGenerator(gen.v, gen.gamma, gen.witnesses, 2 * gen.poly)
        with pytest.raises(SoundnessFailureError, match="not its class"):
            kernel_soundness((gen, doubled), lam, mu)
        with pytest.raises(SoundnessFailureError):
            half_space_soundness(doubled, lam, mu)

    def test_poly_of_another_pair_or_with_an_extra_term_fails(self):
        # the class of the same v under another gamma has as many terms, so
        # only the relabelled keys tell it apart; an extra term changes the size
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        gens = kernel_generators(lam, mu)
        gen, other = next(
            (a, b) for a in gens for b in gens if a.v == b.v and a.gamma != b.gamma
        )
        assert len(gen.poly.terms) == len(other.poly.terms)
        extra = gen.poly + LaurentPoly.monomial(3, 1, xexp=(5, 0, 0))
        for poly in (other.poly, extra):
            bad = KernelGenerator(gen.v, gen.gamma, gen.witnesses, poly)
            with pytest.raises(SoundnessFailureError, match="not its class"):
                kernel_soundness((gen, bad), lam, mu)

    def test_witness_out_of_range_refused(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        gen = kernel_generators(lam, mu)[0]
        for ks in [(0,), (3,)]:
            bad = KernelGenerator(gen.v, gen.gamma, ks, gen.poly)
            with pytest.raises(InvalidInputError):
                half_space_soundness(bad, lam, mu)

    def test_rank_one_generator_without_witnesses(self):
        # a single support point and no cut: nothing to check, and the
        # one-slot pick of gamma * p must still give a permutation
        one = Permutation.identity(1)
        gen = KernelGenerator(one, one, (), grothendieck(one))
        (cert,) = kernel_soundness((gen,), W("0"), W("0"))
        assert cert.generator == gen and cert.checks == ()

    def test_gamma_of_another_rank_refused(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        gen = kernel_generators(lam, mu)[0]
        bad = KernelGenerator(gen.v, Permutation.identity(4), gen.witnesses, gen.poly)
        with pytest.raises(InvalidInputError):
            kernel_soundness((bad,), lam, mu)

    @pytest.mark.slow
    def test_rank_five_kernel_is_sound(self, generators):
        # one check per witness, each at a support point whose eta_value is
        # the recorded value, strictly below the level
        gens = generators(RANK5_LAM, RANK5_MU)
        lam, mu = W(RANK5_LAM), W(RANK5_MU)
        certs = kernel_soundness(gens, lam, mu)
        assert len(certs) == 11520
        assert sum(len(cert.checks) for cert in certs) == 28800
        supports = {}
        for cert in certs:
            gen = cert.generator
            if gen.v not in supports:
                supports[gen.v] = support(grothendieck(gen.v.inverse()))
            assert [c.k for c in cert.checks] == list(gen.witnesses)
            for c in cert.checks:
                assert gen.gamma.inverse() * c.z in supports[gen.v]
                assert c.fixed_point_value == eta_value(gen.gamma, c.k, moment_image(lam, c.z))
                assert c.fixed_point_value < c.level_value == eta_value(gen.gamma, c.k, mu)

    def test_support_subset_of_half_space(self):
        # the geometric statement: every support point of an emitted
        # generator lands strictly inside every witnessed half-space
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        for gen in kernel_generators(lam, mu):
            for z in support(gen.poly):
                for k in gen.witnesses:
                    assert eta_value(gen.gamma, k, moment_image(lam, z)) < eta_value(
                        gen.gamma, k, mu
                    )


class TestPresentation:
    def test_rank_two_contents(self):
        lam, mu = W("1/2,-1/2"), W("0,0")
        pres = presentation(lam, mu)
        assert pres.n == 2
        x1, x2 = LaurentPoly.x(2, 1), LaurentPoly.x(2, 2)
        y1, y2 = LaurentPoly.y(2, 1), LaurentPoly.y(2, 2)
        assert pres.ideal_i == (x1 + x2 - (y1 + y2), x1 * x2 - y1 * y2)
        assert pres.det_relation == y1 * y2 - 1
        assert len(pres.kernel) == 2

    def test_relation_counts(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        pres = presentation(lam, mu)
        assert len(pres.ideal_i) == pres.n == 3
        assert pres.det_relation == det_relation(3)
        assert pres.variables == ("x1", "x2", "x3", "y1", "y2", "y3")

    def test_ideal_members_match_symmetric_differences(self):
        lam, mu = W("1,0,-1"), W("1/4,1/8,-3/8")
        pres = presentation(lam, mu)
        for i, rel in enumerate(pres.ideal_i, start=1):
            assert rel == elementary_symmetric(i, "x", 3) - elementary_symmetric(
                i, "y", 3
            )

    def test_not_regular_propagates(self):
        with pytest.raises(NotRegularError):
            presentation(W("1,0,-1"), W("0,0,0"))

    def test_json_obj_has_term_lists(self):
        pres = presentation(W("1,0,-1"), W("1/4,1/8,-3/8"))
        assert pres.to_json_obj() == {
            "n": 3,
            "ideal_I": [poly_to_json(p) for p in pres.ideal_i],
            "det_relation": poly_to_json(pres.det_relation),
            "kernel": [
                {
                    "v": list(g.v.images),
                    "gamma": list(g.gamma.images),
                    "witness_k": list(g.witnesses),
                    "poly": poly_to_json(g.poly),
                }
                for g in pres.kernel
            ],
        }
        assert polys_to_json(pres.kernel[0].json_tree()) == pres.to_json_obj()["kernel"][0]

    def test_rank_one_degenerate(self):
        pres = presentation(W("0"), W("0"))
        assert pres.n == 1
        assert pres.kernel == ()
        assert pres.det_relation == LaurentPoly.y(1, 1) - 1
