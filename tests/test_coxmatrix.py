import random
from itertools import combinations, permutations, product, repeat
from math import prod

import pytest

from coxtop import coxmatrix
from coxtop.coxmatrix import (
    INF,
    CoxeterError,
    CoxeterMatrix,
    cosine_gram_definite,
    coxeter_degrees,
    is_spherical,
    parse_coxeter_matrix,
    spherical_poset,
)
from coxtop.groups import enumerate_group
from test_groups import longest_element


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


TRIANGLE333 = mk("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
FREE3 = mk("abc", [("a", "b", INF), ("b", "c", INF), ("a", "c", INF)])
A2 = mk("st", [("s", "t", 3)])


class TestParsing:
    def test_basic(self):
        m = parse_coxeter_matrix("gens a b\n a b 3\n")
        assert m.labels == ("a", "b") and m.m("a", "b") == 3

    def test_triangle(self):
        m = parse_coxeter_matrix("gens a b c\n a b 3\n b c 3\n a c 3")
        assert all(m.m(s, t) == 3 for s, t in combinations("abc", 2))

    def test_default_is_commuting(self):
        m = parse_coxeter_matrix("gens a b c\na b 3\n")
        assert m.m("a", "c") == 2 and m.m("b", "c") == 2

    def test_inf_token_and_comments(self):
        m = parse_coxeter_matrix("# infinite dihedral\ngens s t\ns t inf  # edge\n")
        assert m.m("s", "t") is INF

    def test_errors(self):
        with pytest.raises(CoxeterError):
            parse_coxeter_matrix("gens a b\na b 1\n")
        with pytest.raises(CoxeterError):
            parse_coxeter_matrix("gens a b\na c 3\n")
        with pytest.raises(CoxeterError):
            parse_coxeter_matrix("gens\n")
        with pytest.raises(CoxeterError):
            parse_coxeter_matrix("gens a b\na b 3\na b 4\n")
        with pytest.raises(CoxeterError):
            parse_coxeter_matrix("a b 3\n")

    def test_roundtrip(self):
        text = TRIANGLE333.to_text()
        again = parse_coxeter_matrix(text)
        assert again.labels == TRIANGLE333.labels
        assert again.entries == TRIANGLE333.entries

    def test_equality_is_identity(self):
        # A2 and A1 x A1 share their generators: an equality that skipped
        # the labels merged them as dict keys
        a1a1 = mk("st", [])
        assert A2 != a1a1
        assert len({A2: "A2", a1a1: "A1xA1"}) == 2
        assert A2 == A2 and not A2.same_type(a1a1)


class TestSphericity:
    def test_empty_set(self):
        assert is_spherical(A2, ())

    def test_infinite_dihedral(self):
        m = mk("st", [("s", "t", INF)])
        assert not is_spherical(m, "st")

    def test_triangle_group_infinite(self):
        assert not is_spherical(TRIANGLE333, "abc")
        assert is_spherical(TRIANGLE333, "ab")

    def test_a4_finite(self):
        m = mk("abcd", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3)])
        assert is_spherical(m, "abcd")

    @pytest.mark.parametrize(
        "pairs,finite",
        [
            # B3 / C3 and the affine version
            ([("a", "b", 4), ("b", "c", 3)], True),
            ([("a", "b", 4), ("b", "c", 4)], False),
            # F4 is the 4-label on the middle edge of a 4-chain
            ([("a", "b", 3), ("b", "c", 4), ("c", "d", 3)], True),
            # 4-label in the middle of a 3-chain is affine B2~
            ([("a", "b", 3), ("b", "c", 4)], True),  # this is just B3 reversed
            ([("a", "b", 4), ("a", "c", 3), ("b", "c", 3)], False),  # cycle
            # H3, H4, and the hyperbolic H5-like chain
            ([("a", "b", 5), ("b", "c", 3)], True),
            ([("a", "b", 5), ("b", "c", 3), ("c", "d", 3)], True),
            ([("a", "b", 5), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3)], False),
            ([("a", "b", 3), ("b", "c", 5)], True),
            ([("a", "b", 5), ("b", "c", 5)], False),
            # G2 is rank 2 only
            ([("a", "b", 6), ("b", "c", 3)], False),
            ([("a", "b", 7)], True),  # I2(7)
            ([("a", "b", 7), ("b", "c", 3)], False),
            # D4: central vertex of degree 3
            ([("a", "b", 3), ("c", "b", 3), ("d", "b", 3)], True),
            # affine D4~: degree 4 vertex
            (
                [("a", "b", 3), ("c", "b", 3), ("d", "b", 3), ("e", "b", 3)],
                False,
            ),
            # E6 / E7 / E8 / affine E8~ arm patterns
            (
                [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("c", "f", 3)],
                True,
            ),  # E6: arms 1,2,2 around c
        ],
    )
    def test_classification_cases(self, pairs, finite):
        labels = sorted({x for s, t, _ in pairs for x in (s, t)})
        m = mk(labels, pairs)
        assert is_spherical(m, labels) == finite

    def test_e7_e8_and_beyond(self):
        # chain a-b-c-d-e-f-g with extra vertex h on c: arms (1, 2, 4) = E8
        pairs = [(x, y, 3) for x, y in zip("abcdefg", "bcdefgh")]
        m = mk("abcdefgh", pairs[:-1] + [("c", "h", 3)])
        arms = m.components("abcdefgh")
        assert len(arms) == 1
        assert is_spherical(m, "abcdefgh")
        # adding one more vertex to the long arm gives affine E8~
        pairs9 = [(x, y, 3) for x, y in zip("abcdefg", "bcdefg" + "i")] + [("c", "h", 3)]
        m9 = mk("abcdefghi", pairs9)
        assert not is_spherical(m9, "abcdefghi")


class TestSphericalPoset:
    def test_triangle(self):
        p = spherical_poset(TRIANGLE333)
        assert len(p) == 7
        assert frozenset("abc") not in p

    def test_free_product(self):
        p = spherical_poset(FREE3)
        assert len(p) == 4
        assert all(len(T) <= 1 for T in p)

    def test_finite_rank2(self):
        p = spherical_poset(A2)
        assert len(p) == 4
        assert frozenset(A2.labels) in p

    def test_downward_closed(self):
        p = spherical_poset(TRIANGLE333)
        members = set(p.members)
        for T in members:
            for s in T:
                assert T - {s} in members


class TestGramOracle:
    def test_rank2(self):
        assert cosine_gram_definite(A2, "st")

    def test_triangle_singular(self):
        assert not cosine_gram_definite(TRIANGLE333, "abc")

    def test_empty(self):
        assert cosine_gram_definite(A2, ())

    def test_unsupported(self):
        m = mk("ab", [("a", "b", 7)])
        with pytest.raises(CoxeterError):
            cosine_gram_definite(m, "ab")

    def test_agreement_rank3_sweep(self):
        labels = "abc"
        values = [2, 3, 4, 5, 6, INF]
        for ms in product(values, repeat=3):
            m = mk(labels, [("a", "b", ms[0]), ("a", "c", ms[1]), ("b", "c", ms[2])])
            for r in range(4):
                for T in combinations(labels, r):
                    assert is_spherical(m, T) == cosine_gram_definite(m, T), (ms, T)

    def test_cache_is_order_independent(self):
        labels = "abc"
        values = [2, 3, 4, 5, 6, INF]
        cases = [
            (mk(labels, [("a", "b", ms[0]), ("a", "c", ms[1]), ("b", "c", ms[2])]), T)
            for ms in product(values, repeat=3)
            for r in range(4)
            for T in combinations(labels, r)
        ]
        coxmatrix._gram_pattern_definite.cache_clear()
        forward = [cosine_gram_definite(m, T) for m, T in cases]
        coxmatrix._gram_pattern_definite.cache_clear()
        backward = [cosine_gram_definite(m, T) for m, T in reversed(cases)]
        assert backward[::-1] == forward
        assert forward == [is_spherical(m, T) for m, T in cases]

    def test_unsupported_label_on_warm_cache(self):
        for T in ("a", "ab", "abc"):
            cosine_gram_definite(TRIANGLE333, T)
        m = mk("abc", [("a", "b", 3), ("b", "c", 7)])
        with pytest.raises(CoxeterError):
            cosine_gram_definite(m, "abc")
        with pytest.raises(CoxeterError):
            cosine_gram_definite(m, "bc")
        assert cosine_gram_definite(m, "ab")

    def test_unsupported_label_behind_a_non_definite_prefix(self):
        # the prefix "ab" (m = inf) is not definite, so a check made only
        # where labels become field elements would return False for "abc"
        m = mk("abc", [("a", "b", INF), ("b", "c", 7)])
        message = r"label m\(b,c\)=7 outside the exact-arithmetic set"
        coxmatrix._gram_pattern_definite.cache_clear()
        for _ in range(2):
            with pytest.raises(CoxeterError, match=message):
                cosine_gram_definite(m, "abc")
        assert not cosine_gram_definite(m, "ab")
        with pytest.raises(CoxeterError, match=message):
            cosine_gram_definite(m, "abc")

    def test_label_positions_are_not_conflated(self):
        # the same labels {5, 3, 3} on a 4-chain: H4 when 5 ends the chain,
        # an infinite group when 5 sits in the middle
        h4 = mk("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)])
        middle = mk("abcd", [("a", "b", 3), ("b", "c", 5), ("c", "d", 3)])
        for first, second in ((h4, middle), (middle, h4)):
            coxmatrix._gram_pattern_definite.cache_clear()
            assert cosine_gram_definite(first, "abcd") == (first is h4)
            assert cosine_gram_definite(second, "abcd") == (second is h4)
        # every ordering of H4's generators is its own pattern, all definite
        for order in permutations("abcd"):
            assert cosine_gram_definite(CoxeterMatrix(order, dict(h4.entries)), "abcd")


H4 = mk("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)])
F4 = mk("abcd", [("a", "b", 3), ("b", "c", 4), ("c", "d", 3)])
MIXED4 = mk("abcd", [("a", "b", 7), ("a", "c", INF), ("a", "d", 3), ("b", "d", 4), ("c", "d", 5)])


def reference_pattern(mat, T):
    T = mat.sorted_subset(set(T))
    return len(T), tuple(mat.m(T[i], T[j]) for i in range(len(T)) for j in range(i))


def pattern_before_fast_paths(mat, T):
    """``CoxeterMatrix.pattern`` as it was before its paths for fewer than
    three generators: one frozenset and one lookup per pair."""
    T = set(T)
    backwards = [s for s in reversed(mat.labels) if s in T]
    n = len(backwards)
    if n != len(T):
        raise CoxeterError(f"subset {sorted(T)} not contained in the generators")
    if n < 2:
        return n, ()
    pairs = map(frozenset, combinations(backwards, 2))
    return n, tuple(map(mat.entries.get, pairs, repeat(2)))[::-1]


def outcome(fn, *args):
    try:
        return fn(*args)
    except CoxeterError as exc:
        return ("raised", str(exc))


class TestPatternKey:
    def test_matches_the_previous_pattern_on_random_matrices(self):
        rng = random.Random(19)
        values = [2, 3, 4, 5, 6, 7, 12, INF]
        checked = 0
        for rank in range(1, 7):
            gens = "abcdef"[:rank]
            for _ in range(12):
                # some explicit label-2 entries: they must read like absent ones
                pairs = [(s, t, rng.choice(values)) for s, t in combinations(gens, 2)]
                pairs = [p for p in pairs if p[2] != 2 or rng.random() < 0.5]
                mat = mk(rng.sample(gens, rank), pairs)
                for r in range(rank + 1):
                    for T in combinations(gens, r):
                        # a tuple, a reversed duplicated tuple, a frozenset
                        # and a str; then each with unknown generators
                        forms = (T, T[::-1] + T, frozenset(T), "".join(T))
                        unknown = (T + ("z",), forms[1] + ("z",), forms[2] | {"z"}, forms[3] + "zy")
                        for form in forms + unknown:
                            want = outcome(pattern_before_fast_paths, mat, form)
                            assert outcome(mat.pattern, form) == want, (mat.labels, form)
                            checked += 1
        assert checked > 10_000

    @pytest.mark.parametrize("mat", [H4, F4, MIXED4], ids=["H4", "F4", "mixed"])
    def test_matches_reference_in_every_generator_order(self, mat):
        for order in permutations(mat.labels):
            permuted = CoxeterMatrix(order, dict(mat.entries))
            for r in range(5):
                for T in combinations(mat.labels, r):
                    want = reference_pattern(permuted, T)
                    assert permuted.pattern(T) == want, (order, T)
                    assert permuted.pattern(T[::-1] + T) == want, (order, T)
                    assert permuted.pattern(frozenset(T)) == want, (order, T)

    def test_size_is_part_of_the_key(self):
        # the empty set and a singleton share the label tuple ()
        for order in [((), ("s",)), (("s",), ())]:
            coxmatrix._pattern_degrees.cache_clear()
            assert [coxeter_degrees(A2, T) for T in order] == [(2,) * len(T) for T in order]

    @pytest.mark.parametrize(
        "oracle", [is_spherical, coxeter_degrees, cosine_gram_definite]
    )
    def test_unknown_generator_is_named(self, oracle):
        with pytest.raises(CoxeterError, match=r"subset \['s', 'z'\] not contained"):
            oracle(A2, "sz")

    def test_repeated_generator_counts_once(self):
        assert is_spherical(A2, "ss")
        assert coxeter_degrees(A2, "ss") == (2,)
        assert cosine_gram_definite(A2, "ss")
        assert coxeter_degrees(A2, "tsst") == (2, 3)

    def test_components_in_generator_order(self):
        mat = mk("abcd", [("a", "c", 3), ("b", "d", INF)])
        assert mat.components("dcba") == [("a", "c"), ("b", "d")]
        assert mat.components("cad") == [("a", "c"), ("d",)]
        assert mat.components(()) == []

    def test_cache_is_order_independent(self):
        labels = "abc"
        values = [2, 3, 4, 5, 6, INF]
        cases = [
            (mk(labels, [("a", "b", ms[0]), ("a", "c", ms[1]), ("b", "c", ms[2])]), T)
            for ms in product(values, repeat=3)
            for r in range(4)
            for T in combinations(labels, r)
        ]
        coxmatrix._pattern_degrees.cache_clear()
        forward = [is_spherical(m, T) for m, T in cases]
        coxmatrix._pattern_degrees.cache_clear()
        backward = [is_spherical(m, T) for m, T in reversed(cases)]
        assert backward[::-1] == forward
        assert forward == [cosine_gram_definite(m, T) for m, T in cases]

    def test_label_positions_are_not_conflated(self):
        # the same labels {5, 3, 3} on a 4-chain: H4 when 5 ends the chain,
        # an infinite group when 5 sits in the middle
        middle = mk("abcd", [("a", "b", 3), ("b", "c", 5), ("c", "d", 3)])
        for first, second in ((H4, middle), (middle, H4)):
            coxmatrix._pattern_degrees.cache_clear()
            assert is_spherical(first, "abcd") == (first is H4)
            assert is_spherical(second, "abcd") == (second is H4)
        # every ordering of H4's generators is its own key, all finite
        for order in permutations("abcd"):
            permuted = CoxeterMatrix(order, dict(H4.entries))
            assert is_spherical(permuted, "abcd")
            assert coxeter_degrees(permuted, "abcd") == (2, 12, 20, 30)


def poincare_polynomial(degrees):
    poly = [1]
    for d in degrees:
        poly = [
            sum(poly[k - j] for j in range(d) if 0 <= k - j < len(poly))
            for k in range(len(poly) + d - 1)
        ]
    return poly


class TestDegrees:
    @pytest.mark.parametrize(
        "pairs",
        [
            [("a", "b", 3), ("b", "c", 3)],  # A3
            [("a", "b", 4), ("b", "c", 3)],  # B3
            [("a", "b", 5), ("b", "c", 3)],  # H3
            [("a", "b", 3), ("b", "c", 3), ("c", "d", 3)],  # A4
            [("a", "b", 3), ("b", "c", 3), ("b", "d", 3)],  # D4
            [("a", "b", 7)],  # I2(7) x A1 x A1
            [("a", "b", 12), ("c", "d", 3)],  # I2(12) x A2
        ],
    )
    def test_poincare_polynomial_of_every_subset(self, pairs):
        mat = mk("abcd", pairs)
        for r in range(5):
            for T in combinations("abcd", r):
                if not is_spherical(mat, T):
                    continue
                group = enumerate_group(mat, T)
                counts = [0] * (1 + longest_element(group).length)
                for e in group.elements:
                    counts[e.length] += 1
                assert poincare_polynomial(coxeter_degrees(mat, T)) == counts, T

    @pytest.mark.parametrize(
        "pairs, order, reflections",
        [
            ([("a", "b", 3), ("b", "c", 4), ("c", "d", 3)], 1152, 24),  # F4
            ([("a", "b", 5), ("b", "c", 3), ("c", "d", 3)], 14400, 60),  # H4
            ([("a", "b", 4), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3)], 3840, 25),  # B5
            ([("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("c", "e", 3)], 1920, 20),  # D5
            ([("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3),
              ("c", "f", 3)], 51840, 36),  # E6
            ([("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("e", "f", 3),
              ("c", "g", 3)], 2903040, 63),  # E7
            ([("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("e", "f", 3),
              ("f", "g", 3), ("c", "h", 3)], 696729600, 120),  # E8
        ],
    )
    def test_known_orders(self, pairs, order, reflections):
        labels = sorted({s for p in pairs for s in p[:2]})
        degrees = coxeter_degrees(mk(labels, pairs), labels)
        assert len(degrees) == len(labels)
        assert prod(degrees) == order
        assert sum(d - 1 for d in degrees) == reflections

    def test_infinite_rejected(self):
        with pytest.raises(CoxeterError, match="not spherical"):
            coxeter_degrees(TRIANGLE333, "abc")
        assert coxeter_degrees(TRIANGLE333, "ab") == (2, 3)
        assert coxeter_degrees(TRIANGLE333, ()) == ()
