import math
from fractions import Fraction

import pytest

from coxtop.qfield import QF, SQRT2, SQRT3, SQRT5, four_cos_int, sqrtval, two_cos


def test_basis_products():
    assert SQRT2 * SQRT2 == QF.from_int(2)
    assert SQRT3 * SQRT3 == QF.from_int(3)
    assert SQRT5 * SQRT5 == QF.from_int(5)
    assert SQRT2 * SQRT3 == sqrtval(6)
    assert sqrtval(6) * sqrtval(10) == 2 * sqrtval(15)
    assert sqrtval(30) * sqrtval(30) == QF.from_int(30)


def test_golden_ratio_relation():
    phi = two_cos(5)
    assert phi * phi == phi + 1


def test_float_agreement():
    for m in (2, 3, 4, 5, 6):
        assert math.isclose(float(two_cos(m)), 2 * math.cos(math.pi / m), abs_tol=1e-12)
    assert float(two_cos(None)) == 2.0


@pytest.mark.parametrize(
    "elt,expected",
    [
        (QF.from_int(0), 0),
        (QF.from_int(-3), -1),
        (SQRT2 - 1, 1),
        (SQRT2 - 2, -1),
        (SQRT3 - SQRT2, 1),
        (SQRT2 + SQRT3 - SQRT5, 1),  # 1.414+1.732 > 2.236
        (SQRT2 * 3 - SQRT3 * 2, 1),  # 4.24 > 3.46
        (SQRT5 - SQRT2 - 1, -1),  # 2.236 < 2.414
        (sqrtval(30) - 5, 1),
        (sqrtval(30) - 6, -1),
        (SQRT2 + SQRT3 + SQRT5 - sqrtval(30), -1),  # 5.38 < 5.477
    ],
)
def test_exact_signs(elt, expected):
    assert elt.sign() == expected
    assert (-elt).sign() == -expected


def test_sign_matches_float_on_random_combinations():
    import random

    rng = random.Random(7)
    for _ in range(300):
        coords = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8))
        x = QF(coords)
        approx = float(x)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)


def test_int_coordinates_stay_int():
    x = four_cos_int(5) * four_cos_int(6) - four_cos_int(4)
    assert all(isinstance(v, int) for v in x.c)


def test_hash_consistency():
    assert hash(QF.from_int(2)) == hash(QF.from_rational(Fraction(2)))
    assert QF.from_int(2) == QF.from_rational(Fraction(2))


def test_unsupported_label():
    with pytest.raises(ValueError):
        two_cos(7)


def test_additive_operations_match_per_coordinate_formulas():
    import random

    rng = random.Random(19)

    def coords(kind):
        if kind == "int":
            return tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(8))
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8))

    for _ in range(400):
        a, b = coords(rng.choice(("int", "frac"))), coords(rng.choice(("int", "frac")))
        x, y = QF(a), QF(b)
        n = rng.randint(-9, 9)
        assert (x + y).c == tuple(a[i] + b[i] for i in range(8))
        assert (x - y).c == tuple(a[i] - b[i] for i in range(8))
        assert (-x).c == tuple(-a[i] for i in range(8))
        assert x.is_zero() == all(v == 0 for v in a)
        assert (n + x).c == (x + n).c == (a[0] + n,) + a[1:]
        assert (n - x).c == (n - a[0],) + tuple(-v for v in a[1:])
        assert (x - n).c == (a[0] - n,) + a[1:]
    assert QF((0,) * 8).is_zero() and QF((Fraction(0),) * 8).is_zero()
    assert not QF((0, 0, 0, 0, 0, 0, 0, Fraction(1, 3))).is_zero()
