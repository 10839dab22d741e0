import hashlib
from math import prod

import pytest

from coxtop.coxmatrix import (
    INF,
    CoxeterError,
    CoxeterMatrix,
    coxeter_degrees,
    is_spherical,
    spherical_poset,
)
from coxtop.groups import Element, ElementTable, enumerate_ball, enumerate_group


def mk(labels, pairs):
    return CoxeterMatrix(tuple(labels), {frozenset((s, t)): m for s, t, m in pairs})


# References over the enumerated elements, shared with the other test modules.


def longest_element(table):
    """The element of greatest length of a finite group table."""
    return max(table.elements, key=lambda e: e.length)


def multiply_generator(table, i, s):
    """The index of elements[i] * s."""
    return table.mult[i][table.labels.index(s)]


def multiply_word(table, i, word):
    """The index of elements[i] times the product of ``word``."""
    for s in word:
        i = multiply_generator(table, i, s)
    return i


def index_of_word(table, word):
    return multiply_word(table, 0, word)


def inverse(table, i):
    """The index of elements[i]^-1: its reduced word, reversed."""
    return index_of_word(table, tuple(reversed(table.elements[i].word)))


def descent_count(table, T):
    """#{w : In(w) = T} over the elements of a table."""
    T = frozenset(T)
    return sum(1 for e in table.elements if e.descents == T)


def counts_by_length(ball):
    """The number of elements of each length 0, ..., radius of a ball."""
    counts = [0] * (ball.radius + 1)
    for e in ball.elements:
        counts[e.length] += 1
    return tuple(counts)


A2 = mk("st", [("s", "t", 3)])
FREE3 = mk("stu", [("s", "t", INF), ("t", "u", INF), ("s", "u", INF)])
TRIANGLE333 = mk("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)])
TRIANGLE236 = mk("abc", [("a", "b", 2), ("b", "c", 3), ("a", "c", 6)])
A4 = mk("abcd", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3)])
B4 = mk("abcd", [("a", "b", 4), ("b", "c", 3), ("c", "d", 3)])
D4 = mk("abcd", [("a", "b", 3), ("b", "c", 3), ("b", "d", 3)])
F4 = mk("abcd", [("a", "b", 3), ("b", "c", 4), ("c", "d", 3)])
H4 = mk("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)])
A5 = mk("abcde", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3)])
B5 = mk("abcde", [("a", "b", 4), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3)])
D5 = mk("abcde", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("c", "e", 3)])
E6 = mk("abcdef", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("c", "f", 3)])

A1 = mk("a", [])
B2 = mk("st", [("s", "t", 4)])
I25 = mk("st", [("s", "t", 5)])
I26 = mk("st", [("s", "t", 6)])
I27 = mk("st", [("s", "t", 7)])  # dihedral backend
A3 = mk("abc", [("a", "b", 3), ("b", "c", 3)])
B3 = mk("abc", [("a", "b", 4), ("b", "c", 3)])
H3 = mk("abc", [("a", "b", 5), ("b", "c", 3)])

CLASSIFIED_ORDERS = [
    (A1, "a", 2),
    (A2, "st", 6),
    (B2, "st", 8),
    (I25, "st", 10),
    (I26, "st", 12),
    (I27, "st", 14),
    (A3, "abc", 24),
    (B3, "abc", 48),
    (H3, "abc", 120),
    (A4, "abcd", 120),
]


def table_digest(table):
    """sha256 of (labels, words, lengths, descents, mult) of a group or ball."""
    rows = tuple(
        (e.word, e.length, tuple(s for s in table.labels if s in e.descents))
        for e in table.elements
    )
    return hashlib.sha256(repr((table.labels, rows, table.mult)).encode()).hexdigest()


@pytest.mark.parametrize("mat,T,order", CLASSIFIED_ORDERS)
def test_group_orders(mat, T, order):
    table = enumerate_group(mat, T)
    assert len(table) == order


def test_a2_descent_sets():
    table = enumerate_group(A2, "st")
    by_word = {e.word: e.descents for e in table.elements}
    assert by_word[()] == frozenset()
    assert by_word[("s",)] == {"s"}
    assert by_word[("t",)] == {"t"}
    assert by_word[("s", "t")] == {"t"}
    assert by_word[("t", "s")] == {"s"}
    assert by_word[("s", "t", "s")] == {"s", "t"}


def test_i27_unique_longest():
    table = enumerate_group(mk("st", [("s", "t", 7)]), "st")
    full = [e for e in table.elements if e.descents == {"s", "t"}]
    assert len(full) == 1
    assert full[0].length == 7
    assert longest_element(table).index == full[0].index


def test_identity_and_length_steps():
    table = enumerate_group(mk("abc", [("a", "b", 4), ("b", "c", 3)]), "abc")
    idents = [e for e in table.elements if e.length == 0]
    assert len(idents) == 1 and idents[0].descents == frozenset()
    for e in table.elements:
        for k, s in enumerate(table.labels):
            other = table.elements[table.mult[e.index][k]]
            assert abs(other.length - e.length) == 1


def test_descent_partition_counts():
    # in the table of each finite subgroup, every descent set lies inside
    # its generator set and the descent classes partition the group
    mat = mk("abc", [("a", "b", 3), ("b", "c", 3)])
    from itertools import combinations

    for r in range(4):
        for T in combinations("abc", r):
            table = enumerate_group(mat, T)
            subtotal = 0
            for k in range(len(T) + 1):
                for Tp in combinations(T, k):
                    subtotal += descent_count(table, Tp)
            assert subtotal == len(table), T
    full = enumerate_group(mat, "abc")
    assert descent_count(full, frozenset("abc")) == 1


def test_longest_element_descends_everywhere():
    for mat, T, _ in CLASSIFIED_ORDERS:
        table = enumerate_group(mat, T)
        w0 = longest_element(table)
        assert w0.descents == frozenset(table.labels)


def test_descent_set_accessor():
    table = enumerate_group(A2, "st")
    assert table.elements[0].descents == frozenset()
    st = index_of_word(table, ("s", "t"))
    assert table.elements[st].descents == {"t"}


def test_inverse_roundtrip():
    table = enumerate_group(mk("abc", [("a", "b", 3), ("b", "c", 3)]), "abc")
    for e in table.elements:
        inv = inverse(table, e.index)
        assert multiply_word(table, e.index, table.elements[inv].word) == 0


def test_word_metric_subadditive():
    table = enumerate_group(mk("abc", [("a", "b", 3), ("b", "c", 3)]), "abc")
    import itertools

    for e, f in itertools.islice(itertools.product(table.elements, repeat=2), 200):
        prod = multiply_word(table, e.index, f.word)
        assert table.elements[prod].length <= e.length + f.length


def test_trivial_group_is_one_identity():
    # the empty subset takes the general path: no component, one element
    table = enumerate_group(A2, ())
    assert table == ElementTable((), (Element(0, (), 0, frozenset()),), ((),))


def test_nonspherical_rejected():
    with pytest.raises(CoxeterError):
        enumerate_group(TRIANGLE333, "abc")


def test_reducible_with_large_dihedral_factor():
    # I2(7) x A1 is finite of order 28 but its label 7 needs the
    # dihedral backend inside a product enumeration
    mat = mk("abc", [("a", "b", 7)])
    assert is_spherical(mat, "abc")
    table = enumerate_group(mat, "abc")
    assert len(table) == 28
    w0 = longest_element(table)
    assert w0.length == 8 and w0.descents == frozenset("abc")


class TestBalls:
    def test_free_product_counts(self):
        ball = enumerate_ball(FREE3, 3)
        assert counts_by_length(ball) == (1, 3, 6, 12)

    def test_triangle_counts(self):
        ball = enumerate_ball(TRIANGLE333, 2)
        assert counts_by_length(ball) == (1, 3, 6)

    def test_radius_zero(self):
        ball = enumerate_ball(TRIANGLE333, 0)
        assert len(ball) == 1

    def test_radius_monotone(self):
        small = enumerate_ball(TRIANGLE333, 2)
        big = enumerate_ball(TRIANGLE333, 4)
        cs, cb = counts_by_length(small), counts_by_length(big)
        assert cb[: len(cs)] == cs

    def test_prefix_closed(self):
        ball = enumerate_ball(FREE3, 4)
        words = {e.word for e in ball.elements}
        for w in words:
            assert w[:-1] in words or w == ()

    def test_ball_descents_are_spherical(self):
        ball = enumerate_ball(TRIANGLE333, 4)
        for e in ball.elements:
            assert is_spherical(TRIANGLE333, e.descents)

    def test_finite_group_ball_matches_enumeration(self):
        ball = enumerate_ball(A2, 10)
        assert len(ball) == 6

    def test_descents_exhaust_group_order(self):
        # every ball descent set is spherical and In(w)=T classes in a
        # finite group biject with the table count
        mat = mk("st", [("s", "t", 4)])
        ball = enumerate_ball(mat, 10)
        table = enumerate_group(mat, "st")
        for mask in range(4):
            T = frozenset(l for i, l in enumerate("st") if mask & (1 << i))
            assert descent_count(table, T) == sum(
                1 for e in ball.elements if e.descents == T
            )


def test_spherical_poset_consistency():
    poset = spherical_poset(TRIANGLE333)
    for T in poset:
        table = enumerate_group(TRIANGLE333, T)
        assert len(table) >= 1


# Recorded from the enumeration that multiplied full matrices over
# Q(sqrt2,sqrt3,sqrt5) and decided ball descents by the signs of the roots
# w(alpha_s); the root-table enumeration must reproduce every table.
@pytest.mark.parametrize(
    "mat, T, digest",
    [
        pytest.param(A1, "a",
                     "3d652a7e159a7e9d6818864889c22892e9ab49f7050f11d5d6e4f5930b9cc040", id="A1"),
        pytest.param(A2, "st",
                     "ba7a0a25fe2383d3275e39205d0e080ec112245071030519622c00922622ad20", id="A2"),
        pytest.param(B2, "st",
                     "8b2c8587245c11cd926352af4a622bf61298034c1ae06d8c615c8a9b149a6c72", id="B2"),
        pytest.param(I25, "st",
                     "81cb28be870611c02932907866deb35c10515197fa70b43386bd4b0a3e70ca66", id="I2(5)"),
        pytest.param(I26, "st",
                     "9fad037ae33fd4ecba452f2166e7c518303e5f60d3d441c658cd7a6a5c661f38", id="I2(6)"),
        pytest.param(I27, "st",
                     "0ba8bb37924ee6b15add3fc48157a401aa6a378e54098d2181315d99376c9127", id="I2(7)"),
        pytest.param(A3, "abc",
                     "6a7c732245bd77749a42fac7d21079ac891c22a6429987a473a51d13563ffead", id="A3"),
        pytest.param(B3, "abc",
                     "318f4b31377a51ef05ae7df58aaf8bc319735b326ce039d2a343724a2076fb12", id="B3"),
        pytest.param(H3, "abc",
                     "2a878a80145fdf4dcec6da2e404a802e0778b81916e7d63b7b3be96bcedfe1a8", id="H3"),
        pytest.param(A4, "abcd",
                     "04b330633e0105a09a6e95ddefc983379d6672a2e3c1bfd576fee14e2e367530", id="A4"),
        pytest.param(B4, "abcd",
                     "1759bf396d81a91d8f219aa180ed37d96db1bfc86ad8aa40d363c5dcc117f030", id="B4"),
        pytest.param(D4, "abcd",
                     "0d0953aea4f05c961691ef7929b3190c6e69b570b6d62d230d3774e10cdb369d", id="D4"),
        pytest.param(F4, "abcd",
                     "67c592765e92d6560d03dc53eea7358a6f643d9c3a893297ed684bbfe82593ce", id="F4"),
        pytest.param(A5, "abcde",
                     "03963e1cd835c1fd8d73cea617e26aaf7ef21e709e72247e1c7a58639a7d624e", id="A5"),
    ],
)
def test_group_table_is_pinned(mat, T, digest):
    assert table_digest(enumerate_group(mat, T)) == digest


@pytest.mark.parametrize(
    "mat, radius, digest",
    [
        pytest.param(FREE3, 6,
                     "e6ba5831fc666c29e5e67a510149eb9d9dcac350b10746b492f96954e3aa97df", id="free3"),
        pytest.param(TRIANGLE333, 8,
                     "5419b6dc565a94a7443736382b984f3397dd2ea676fdc7e1af19cb1691eb02eb", id="333"),
        pytest.param(TRIANGLE236, 8,
                     "a899538ffbd6160064d91c7806002f577ac9a4240f55cc06187e0ee2515b2403", id="236"),
    ],
)
def test_ball_table_is_pinned(mat, radius, digest):
    assert table_digest(enumerate_ball(mat, radius)) == digest


@pytest.mark.parametrize(
    "mat",
    [
        pytest.param(F4, id="F4"),
        pytest.param(H4, id="H4"),
        pytest.param(B5, id="B5"),
        pytest.param(D5, id="D5"),
        pytest.param(E6, id="E6"),
    ],
)
def test_large_groups_against_degrees(mat):
    # |W| is the product of the degrees, the longest element has one
    # letter per reflection, sum(d - 1), and it descends on every generator
    table = enumerate_group(mat, mat.labels)
    degrees = coxeter_degrees(mat, mat.labels)
    assert len(table) == prod(degrees)
    w0 = longest_element(table)
    assert w0.length == sum(d - 1 for d in degrees)
    assert w0.descents == frozenset(mat.labels)
