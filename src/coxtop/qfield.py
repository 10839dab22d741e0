"""Exact arithmetic in the real field Q(sqrt2, sqrt3, sqrt5).

Elements are stored as coordinate vectors of length 8 over the basis

    1, sqrt2, sqrt3, sqrt6, sqrt5, sqrt10, sqrt15, sqrt30,

indexed by bitmasks b in 0..7 where bit 0 contributes sqrt2, bit 1
contributes sqrt3 and bit 2 contributes sqrt5.  The product of two basis
vectors is an integer times a third basis vector, so multiplication never
leaves the coordinate lattice.  Coordinates may be ints or Fractions;
all-int inputs keep all-int results, which matters for speed in the
Gram-matrix sweeps.

The field contains 2*cos(pi/m) for m in {2, 3, 4, 5, 6} (and the value 2
used for the m = infinity convention), which is everything needed for
exact Coxeter geometric representations at those labels.

Signs are decided exactly by descending the tower
Q < Q(sqrt2) < Q(sqrt2,sqrt3) < Q(sqrt2,sqrt3,sqrt5):
sign(a + b*sqrt(p)) reduces to signs in the subfield via comparing
a^2 with p*b^2.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub

_PRIMES = (2, 3, 5)

# _SHARED[i][j] = product of primes counted in both masks i and j,
# so basis[i] * basis[j] == _SHARED[i][j] * basis[i ^ j].
_SHARED = [
    [
        (2 if (i & j & 1) else 1) * (3 if (i & j & 2) else 1) * (5 if (i & j & 4) else 1)
        for j in range(8)
    ]
    for i in range(8)
]

_ZERO8 = (0, 0, 0, 0, 0, 0, 0, 0)


class QF:
    """An element of Q(sqrt2, sqrt3, sqrt5).

    >>> SQRT2 * SQRT3 == sqrtval(6)
    True
    >>> (SQRT5 + 1) * (SQRT5 - 1) == QF.from_int(4)
    True
    >>> two_cos(5) * two_cos(5) == two_cos(5) + 1   # golden ratio
    True
    """

    __slots__ = ("c",)

    def __init__(self, coords):
        self.c = tuple(coords)
        if len(self.c) != 8:
            raise ValueError("need 8 coordinates")

    @classmethod
    def from_int(cls, n):
        return cls((n, 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def from_rational(cls, q):
        return cls((Fraction(q), 0, 0, 0, 0, 0, 0, 0))

    def __add__(self, other):
        if isinstance(other, int):
            other = QF.from_int(other)
        return QF(tuple(map(add, self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return QF(tuple(map(neg, self.c)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = QF.from_int(other)
        return QF(tuple(map(sub, self.c, other.c)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return QF(tuple(x * other for x in self.c))
        a, b = self.c, other.c
        out = [0, 0, 0, 0, 0, 0, 0, 0]
        for i in range(8):
            ai = a[i]
            if not ai:
                continue
            shared_i = _SHARED[i]
            for j in range(8):
                bj = b[j]
                if not bj:
                    continue
                out[i ^ j] += ai * bj * shared_i[j]
        return QF(tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = QF.from_int(other)
        if not isinstance(other, QF):
            return NotImplemented
        return all(x == y for x, y in zip(self.c, other.c))

    def __hash__(self):
        # Fraction(n) and int n hash identically, so mixed-representation
        # duplicates collapse as they should.
        return hash(self.c)

    def is_zero(self):
        return not any(self.c)

    def sign(self):
        """-1, 0 or +1, decided exactly."""
        return _sign(self.c)

    def __float__(self):
        roots = (1.0, 2**0.5, 3**0.5, 6**0.5, 5**0.5, 10**0.5, 15**0.5, 30**0.5)
        return float(sum(float(x) * r for x, r in zip(self.c, roots)))

    def __repr__(self):
        return f"QF({self.c!r})"


def _sign(coords):
    # coords is a tuple of length 1, 2, 4 or 8 over the corresponding
    # subfield basis; length 1 is the rational base case.
    n = len(coords)
    if n == 1:
        x = coords[0]
        return (x > 0) - (x < 0)
    half = n // 2
    a, b = coords[:half], coords[half:]
    sa = _sign(a)
    sb = _sign(b)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # a and p*b^2 have opposite signs; compare a^2 against p*b^2 in the
    # subfield.  p is the prime adjoined at this level.
    p = _PRIMES[half.bit_length() - 1]
    c = _sub_sub(_sub_sq(a), tuple(p * x for x in _sub_sq(b)))
    sc = _sign(c)
    if sc == 0:
        raise ArithmeticError("sqrt(p) cannot lie in the subfield")
    return sa if sc > 0 else sb


def _sub_sq(coords):
    # Square within the subfield spanned by masks 0..len-1.
    n = len(coords)
    out = [0] * n
    for i in range(n):
        ai = coords[i]
        if not ai:
            continue
        for j in range(n):
            bj = coords[j]
            if not bj:
                continue
            out[i ^ j] += ai * bj * _SHARED[i][j]
    return tuple(out)


def _sub_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def sqrtval(n):
    """sqrt(n) for squarefree n dividing 30."""
    mask = 0
    for bit, p in enumerate(_PRIMES):
        if n % p == 0:
            mask |= 1 << bit
            n //= p
    if n != 1:
        raise ValueError("not a squarefree divisor of 30")
    coords = [0] * 8
    coords[mask] = 1
    return QF(tuple(coords))


ZERO = QF(_ZERO8)
ONE = QF.from_int(1)
SQRT2 = sqrtval(2)
SQRT3 = sqrtval(3)
SQRT5 = sqrtval(5)

# 2*cos(pi/m) for the supported labels; None stands for m = infinity,
# where the geometric-representation convention uses cos = 1, i.e. 2cos = 2.
_TWO_COS = {
    2: ZERO,
    3: ONE,
    4: SQRT2,
    5: QF((Fraction(1, 2), 0, 0, 0, Fraction(1, 2), 0, 0, 0)),
    6: SQRT3,
    None: QF.from_int(2),
}

SUPPORTED_LABELS = frozenset([2, 3, 4, 5, 6, None])


def two_cos(m):
    """2*cos(pi/m) exactly; m = None means infinity (value 2)."""
    try:
        return _TWO_COS[m]
    except KeyError:
        raise ValueError(f"label m={m} is outside the exact-arithmetic set") from None


def _four_cos(m):
    coords = tuple(x * 2 for x in two_cos(m).c)
    if any(isinstance(x, Fraction) and x.denominator != 1 for x in coords):
        raise AssertionError("4cos should be integral for supported labels")
    return QF(tuple(int(x) for x in coords))


_FOUR_COS = {m: _four_cos(m) for m in SUPPORTED_LABELS}


def four_cos_int(m):
    """4*cos(pi/m) with all-integer coordinates (for fast minor signs)."""
    try:
        return _FOUR_COS[m]
    except KeyError:
        raise ValueError(f"label m={m} is outside the exact-arithmetic set") from None
