import random
from itertools import combinations, combinations_with_replacement, permutations
from math import prod

import pytest

from coxtop.chambers import digon_building, fano_building, thin_building
from coxtop.coxmatrix import INF, CoxeterMatrix, coxeter_degrees, is_spherical, spherical_poset
from coxtop.groups import enumerate_ball, enumerate_group
from coxtop.hc import (
    duality_check,
    graded_module_report,
    hc_standard_realization,
    thin_multiplicity_series,
    vcd,
)
from coxtop.intlinalg import OMEGA, AbGroup, GradedGroup
from test_groups import counts_by_length, longest_element


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


def growth(mat, T, radius):
    """The series of the one type T."""
    [series] = thin_multiplicity_series(spherical_poset(mat), [T], radius)
    return series


A2 = mk("st", [("s", "t", 3)])
FREE3 = mk("stu", [("s", "t", INF), ("t", "u", INF), ("s", "u", INF)])
TRIANGLE333 = mk("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
DINF = mk("st", [("s", "t", INF)])
# right-angled system whose nerve is a 4-cycle: D-infinity x D-infinity
RA4 = mk(
    "abcd",
    [("a", "c", INF), ("b", "d", INF)],
)
# triangle group free product with one more involution: nerve = circle + point
MIXED = mk(
    "abcd",
    [
        ("a", "b", 3),
        ("b", "c", 3),
        ("a", "c", 3),
        ("a", "d", INF),
        ("b", "d", INF),
        ("c", "d", INF),
    ],
)

# every finite type the tests use, H4 aside: its thin building splits in seconds
FINITE_NAMES = ["A1", "A1xA1", "A2", "B2", "G2", "I2(7)", "I2(8)", "A3", "B3", "H3",
                "A2xA1", "I2(7)xA1", "D4", "B4", "F4"]
FINITE = [
    mk("a", []),
    mk("ab", []),
    A2,
    mk("st", [("s", "t", 4)]),
    mk("st", [("s", "t", 6)]),
    mk("ab", [("a", "b", 7)]),
    mk("ab", [("a", "b", 8)]),
    mk("abc", [("a", "b", 3), ("b", "c", 3)]),
    mk("abc", [("a", "b", 4), ("b", "c", 3)]),
    mk("abc", [("a", "b", 5), ("b", "c", 3)]),
    mk("stu", [("s", "t", 3)]),
    mk("abc", [("a", "b", 7)]),
    mk("abcd", [("a", "b", 3), ("b", "c", 3), ("b", "d", 3)]),
    mk("abcd", [("a", "b", 3), ("b", "c", 3), ("c", "d", 4)]),
    mk("abcd", [("a", "b", 3), ("b", "c", 4), ("c", "d", 3)]),
]


H4 = mk("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)])
# E_n: a chain of n - 1 nodes with one more node on the third
E6 = mk("abcdef", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("c", "f", 3)])
E7 = mk("abcdefg", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("e", "f", 3),
                    ("c", "g", 3)])
E8 = mk("abcdefgh", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("e", "f", 3),
                     ("f", "g", 3), ("c", "h", 3)])


class TestSolomonMultiplicities:
    """A finite thin report counts #{w : In(w) = T} by Solomon's
    alternating sum of indices; the descent-class series summed up to the
    longest length is the reference."""

    @pytest.mark.parametrize("mat", FINITE + [H4, E6, E7], ids=FINITE_NAMES + ["H4", "E6", "E7"])
    def test_closed_form_equals_the_summed_series(self, mat):
        longest = sum(d - 1 for d in coxeter_degrees(mat, mat.labels))
        terms = hc_standard_realization(mat).contributions
        every = thin_multiplicity_series(spherical_poset(mat), [c.type for c in terms], longest)
        for c, series in zip(terms, every, strict=True):
            assert c.multiplicity == sum(series.coefficients), c.type

    @pytest.mark.parametrize(
        "mat, order",
        [(A2, 6), (H4, 14400), (E6, 51840), (E7, 2903040), (E8, 696729600)],
        ids=["A2", "H4", "E6", "E7", "E8"],
    )
    def test_multiplicities_sum_to_the_order(self, mat, order):
        assert prod(coxeter_degrees(mat, mat.labels)) == order
        terms = hc_standard_realization(mat).contributions
        assert sum(c.multiplicity for c in terms) == order
        # only the identity has no descent, only the longest element all
        assert terms[0].multiplicity == terms[-1].multiplicity == 1


class TestVcd:
    def test_free_product(self):
        assert vcd(FREE3).value == 1

    def test_infinite_dihedral(self):
        assert vcd(DINF).value == 1

    def test_triangle(self):
        assert vcd(TRIANGLE333).value == 2

    def test_right_angled_4_cycle(self):
        assert vcd(RA4).value == 2

    def test_finite_flagged(self):
        report = vcd(A2)
        assert report.value == 0 and report.w_finite


class TestDuality:
    def test_free_product(self):
        report = duality_check(FREE3)
        assert report.is_duality and report.dimension == 1

    def test_triangle(self):
        report = duality_check(TRIANGLE333)
        assert report.is_duality and report.dimension == 2

    def test_mixed_concentration_fails(self):
        report = duality_check(MIXED)
        assert not report.is_duality
        offenders = {tuple(T) for T, _ in report.offending}
        assert () in offenders

    def test_finite_trivial(self):
        report = duality_check(A2)
        assert report.is_duality and report.dimension == 0


class TestGrowth:
    def test_empty_type_identity_only(self):
        for mat in (FREE3, TRIANGLE333, DINF):
            series = growth(mat, (), 6)
            assert series.coefficients == (1, 0, 0, 0, 0, 0, 0)

    def test_free_product_powers_of_two(self):
        series = growth(FREE3, ("s",), 8)
        assert series.coefficients == (0, 1, 2, 4, 8, 16, 32, 64, 128)

    def test_finite_a2_degenerate(self):
        series = growth(A2, ("s",), 4)
        assert series.coefficients == (0, 1, 1, 0, 0)

    def test_total_matches_ball(self):
        from coxtop.groups import enumerate_ball
        from itertools import combinations

        ball = enumerate_ball(FREE3, 5)
        total = [0] * 6
        for r in range(4):
            for T in combinations("stu", r):
                try:
                    series = growth(FREE3, T, 5)
                except ValueError:
                    continue
                for i, a in enumerate(series.coefficients):
                    total[i] += a
        assert tuple(total) == counts_by_length(ball)

    def test_nonspherical_rejected(self):
        with pytest.raises(ValueError, match="not a spherical subset"):
            growth(FREE3, ("s", "t"), 3)
        with pytest.raises(ValueError, match="not a spherical subset"):
            thin_multiplicity_series(spherical_poset(FREE3), [("s",), ("s", "t")], 3)

    def test_one_call_serves_many_types(self):
        # in order, repeats kept, each equal to its one-type call
        poset = spherical_poset(TRIANGLE333)
        types = [("b",), (), ("a", "c"), ("b",), ("c", "a")]
        every = thin_multiplicity_series(poset, types, 7)
        assert [s.type for s in every] == [("b",), (), ("a", "c"), ("b",), ("a", "c")]
        assert every == [growth(TRIANGLE333, T, 7) for T in types]
        assert thin_multiplicity_series(poset, [], 7) == []


def descent_counts(table, T, radius):
    """#{w : In(w) = T, l(w) = i} for i <= radius, read off an enumeration."""
    counts = [0] * (radius + 1)
    for e in table.elements:
        if e.descents == frozenset(T) and e.length <= radius:
            counts[e.length] += 1
    return tuple(counts)


def spherical_types(mat):
    subsets = (T for r in range(len(mat.labels) + 1) for T in combinations(mat.labels, r))
    return [T for T in subsets if is_spherical(mat, T)]


def relabelled(mat, perm):
    """The matrix with every label m(s, t) moved to the pair (perm[s], perm[t])."""
    return CoxeterMatrix(
        mat.labels, {frozenset(perm[s] for s in pair): m for pair, m in mat.entries.items()}
    )


GROWTH_VALUES = (2, 3, 4, 5, 6, INF)


class TestGrowthAgainstEnumeration:
    """Steinberg's series against descent counts of enumerated elements."""

    @pytest.mark.slow
    def test_rank_at_most_3_against_ball(self):
        # every rank-3 matrix over GROWTH_VALUES is a relabelling of one with
        # m(a,b) <= m(b,c) <= m(a,c); its ball at radius 5 gives the counts of
        # all six relabellings, so 56 balls check all 216 matrices
        pairs = (("a", "b"), ("b", "c"), ("a", "c"))
        key = lambda m: 99 if m is INF else m  # noqa: E731
        checked = 0
        for ms in combinations_with_replacement(sorted(GROWTH_VALUES, key=key), 3):
            mat = mk("abc", [(s, t, m) for (s, t), m in zip(pairs, ms) if m != 2])
            ball = enumerate_ball(mat, 5)
            types = spherical_types(mat)
            for image in permutations("abc"):
                perm = dict(zip("abc", image))
                moved = relabelled(mat, perm)
                every = thin_multiplicity_series(
                    spherical_poset(moved), [[perm[s] for s in T] for T in types], 5
                )
                for T, series in zip(types, every, strict=True):
                    assert series.coefficients == descent_counts(ball, T, 5), (ms, image, T)
                    checked += 1
        assert checked == 6 * 372
        small = [mk("a", [])] + [mk("ab", [("a", "b", m)]) for m in GROWTH_VALUES if m != 2]
        for mat in small + [mk("ab", [])]:
            ball = enumerate_ball(mat, 5)
            for T in spherical_types(mat):
                series = growth(mat, T, 5)
                assert series.coefficients == descent_counts(ball, T, 5), (mat.entries, T)

    def test_rank_4_sample_against_ball(self):
        rng = random.Random(8)
        slots = list(combinations("abcd", 2))
        for _ in range(6):
            pairs = [(s, t, rng.choice(GROWTH_VALUES)) for s, t in slots]
            mat = mk("abcd", [(s, t, m) for s, t, m in pairs if m != 2])
            ball = enumerate_ball(mat, 4)
            types = spherical_types(mat)
            every = thin_multiplicity_series(spherical_poset(mat), types, 4)
            for T, series in zip(types, every, strict=True):
                assert series.coefficients == descent_counts(ball, T, 4), (pairs, T)

    @pytest.mark.parametrize(
        "mat",
        [
            mk("abc", [("a", "b", 7)]),  # I2(7) x A1, 28 elements, longest length 8
            mk("ab", [("a", "b", 8)]),  # I2(8), longest length 8
            mk("abc", [("a", "b", 4), ("b", "c", 3)]),  # B3
            mk("abc", [("a", "b", 5), ("b", "c", 3)]),  # H3
            mk("abcd", [("a", "b", 3), ("b", "c", 4), ("c", "d", 3)]),  # F4
            mk("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)]),  # H4
        ],
    )
    def test_finite_types_against_whole_group(self, mat):
        group = enumerate_group(mat, mat.labels)
        radius = longest_element(group).length + 2
        for T in spherical_types(mat):
            series = growth(mat, T, radius)
            assert series.coefficients == descent_counts(group, T, radius), T
            assert series.coefficients[-2:] == (0, 0)


class TestHcReport:
    def test_growth_report_builds_the_poset_once(self, monkeypatch):
        # one spherical poset serves the nerve, the local groups and the
        # series of all 256 types of E8
        import importlib
        import pkgutil

        import coxtop

        calls = []

        def counted(mat):
            calls.append(mat)
            return spherical_poset(mat)

        for info in pkgutil.iter_modules(coxtop.__path__):
            module = importlib.import_module(f"coxtop.{info.name}")
            if getattr(module, "spherical_poset", None) is spherical_poset:
                monkeypatch.setattr(module, "spherical_poset", counted)
        report = hc_standard_realization(E8, growth_radius=4)
        assert calls == [E8]
        assert len(report.contributions) == 256
        assert all(len(c.series.coefficients) == 5 for c in report.contributions)

    def test_free_product_thin(self):
        report = hc_standard_realization(FREE3, "thin", growth_radius=4)
        assert report.totals.degrees() == [1]
        assert report.totals[1].free == OMEGA
        by_type = {c.type: c for c in report.contributions}
        assert by_type[()].multiplicity == 1
        assert by_type[()].local[1] == AbGroup(2)
        for s in "stu":
            c = by_type[(s,)]
            assert c.multiplicity == OMEGA
            assert c.local[1] == AbGroup(1)
            assert c.series.coefficients[1] == 1

    def test_triangle_thin_affine(self):
        report = hc_standard_realization(TRIANGLE333, "thin")
        assert report.totals == GradedGroup({2: AbGroup(1)})

    def test_finite_concrete_matches_cross_check(self):
        from coxtop.complexes import davis_chamber
        from coxtop.realization import formula_cross_check

        sys = digon_building(3, 3)
        report = hc_standard_realization(sys.matrix, sys)
        cross = formula_cross_check(sys, davis_chamber(sys.matrix))
        assert report.totals == cross.assembled == cross.realized

    def test_finite_thin(self):
        report = hc_standard_realization(A2, "thin")
        assert report.w_finite
        assert report.totals == GradedGroup({0: AbGroup(1)})

    @pytest.mark.parametrize("mat", FINITE, ids=FINITE_NAMES)
    def test_finite_thin_counts_match_the_thin_building(self, mat):
        # a finite thin report sums descent series and splits no building;
        # the thin building's summand ranks are the reference
        counted = hc_standard_realization(mat)
        building = thin_building(mat)
        split = hc_standard_realization(mat, building)
        ranks = [c.multiplicity for c in counted.contributions]
        assert ranks == [c.multiplicity for c in split.contributions]
        assert sum(ranks) == building.size
        assert counted.totals == split.totals

    @pytest.mark.parametrize(
        "matrix, thickness",
        [
            (digon_building(3, 3).matrix, digon_building(3, 3)),
            (FREE3, ("regular", {"s": 3, "t": 3, "u": 3})),
        ],
        ids=["concrete", "regular"],
    )
    def test_growth_radius_needs_thin(self, matrix, thickness):
        # a thick report has no descent-class series to attach
        with pytest.raises(ValueError, match="growth_radius"):
            hc_standard_realization(matrix, thickness, growth_radius=4)

    def test_regular_symbolic(self):
        report = hc_standard_realization(FREE3, ("regular", {"s": 2, "t": 2, "u": 2}))
        assert report.totals[1].free == OMEGA
        by_type = {c.type: c for c in report.contributions}
        assert by_type[()].multiplicity == OMEGA  # thick: not quantified

    def test_regular_needs_infinite(self):
        with pytest.raises(ValueError):
            hc_standard_realization(A2, ("regular", {"s": 2, "t": 2}))

    def test_type_mismatch(self):
        b2 = mk("st", [("s", "t", 4)])
        with pytest.raises(ValueError):
            hc_standard_realization(b2, fano_building())

    def test_fano_is_type_a2(self):
        report = hc_standard_realization(A2, fano_building())
        assert report.totals == GradedGroup({0: AbGroup(1)})


class TestInvariants:
    @pytest.mark.parametrize("mat", [FREE3, DINF, TRIANGLE333, RA4, MIXED])
    def test_vcd_is_top_degree_of_thin_report(self, mat):
        report = hc_standard_realization(mat, "thin")
        assert vcd(mat).value == report.totals.top_degree()

    @pytest.mark.parametrize("mat", [FREE3, TRIANGLE333])
    def test_duality_implies_concentrated_free(self, mat):
        d = duality_check(mat)
        assert d.is_duality
        report = hc_standard_realization(mat, "thin")
        assert report.totals.degrees() == [d.dimension]
        assert report.totals.is_free()


class TestGradedModules:
    def test_fano(self):
        sys = fano_building()
        report = graded_module_report(sys)
        assert report.matches_hc
        ranks = {p: sum(g[k].free for k in g.degrees()) for p, g in report.rows}
        assert sum(ranks.values()) == sum(report.totals[k].free for k in report.totals.degrees())

    def test_thin_a2(self):
        sys = thin_building(A2)
        report = graded_module_report(sys)
        assert report.matches_hc
        # p = 0 row: H(K, K^S) = 0 for spherical type, times D^0 rank 1
        p0 = dict(report.rows)[0]
        assert p0 == GradedGroup({})

    def test_wrong_multiplicity_is_caught(self, monkeypatch):
        # the rows read rank D^T from an echelon basis, so a wrong rank
        # of hat(A)^T in the hc totals must make the check fail
        from coxtop.decomposition import BuildingDecomposition

        sys = fano_building()
        right = BuildingDecomposition.splitting_rank
        monkeypatch.setattr(
            BuildingDecomposition,
            "splitting_rank",
            lambda self, T: right(self, T) + 1,
        )
        assert not graded_module_report(sys).matches_hc

    def test_zero_row_beyond_max(self):
        sys = thin_building(A2)
        report = graded_module_report(sys)
        assert max(p for p, _ in report.rows) == 2
