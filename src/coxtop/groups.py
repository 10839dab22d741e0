"""Enumeration of Coxeter group elements with lengths and descent sets.

Finite groups are enumerated completely; infinite groups are enumerated
up to a stated word-length radius.  Elements are identified by their
matrices in the geometric representation over Q(sqrt2,sqrt3,sqrt5):
the generator s acts on the simple-root basis by

    s(alpha_t) = alpha_t + 2*cos(pi/m(s,t)) * alpha_s   (t != s)
    s(alpha_s) = -alpha_s

with the value 2 replacing 2*cos at infinite labels.  Equality of
elements is exact matrix equality, so no collisions and no misses.

Words are reported in shortlex-minimal form with respect to the fixed
generator order.  The descent set of w is {s : l(ws) < l(w)}; in a fully
enumerated group it is read off the multiplication table, in a ball it is
decided by the sign pattern of the root w(alpha_s), which is negative
exactly when appending s shortens w.

Dihedral groups I2(m) with m outside {2,3,4,5,6} are handled by an exact
combinatorial model (symmetries of the m-gon), so every finite-type
subset admitted by the classification can be enumerated.

Balls need the geometric representation on the whole generator set and
so only take labels in {2,3,4,5,6,infinity}.  No report enumerates one:
``hc.thin_multiplicity_series`` reads its counts off Steinberg's formula,
and the ball's descent counts are the independent oracle it is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxmatrix import INF, CoxeterError, is_spherical
from .qfield import ONE, ZERO, QF, two_cos

MATRIX_LABELS = frozenset([2, 3, 4, 5, 6])


@dataclass(frozen=True)
class Element:
    index: int
    word: tuple  # shortlex-minimal reduced word, as generator labels
    length: int
    descents: frozenset


@dataclass(frozen=True)
class ElementTable:
    """A completely enumerated finite Coxeter group."""

    labels: tuple
    elements: tuple  # Element, index order = shortlex BFS order
    mult: tuple  # mult[i][k] = index of elements[i] * labels[k]

    def __len__(self):
        return len(self.elements)

    @property
    def identity(self):
        return self.elements[0]

    def multiply_generator(self, i, s):
        return self.mult[i][self.labels.index(s)]

    def multiply_word(self, i, word):
        for s in word:
            i = self.multiply_generator(i, s)
        return i

    def index_of_word(self, word):
        return self.multiply_word(0, word)

    def inverse(self, i):
        return self.index_of_word(tuple(reversed(self.elements[i].word)))

    def longest_element(self):
        return max(self.elements, key=lambda e: e.length)

    def descent_count(self, T):
        T = frozenset(T)
        return sum(1 for e in self.elements if e.descents == T)


@dataclass(frozen=True)
class BallTable:
    """All elements of length <= radius, with table entries None outside."""

    labels: tuple
    radius: int
    elements: tuple
    mult: tuple  # entries may be None when the product leaves the ball

    def __len__(self):
        return len(self.elements)

    def counts_by_length(self):
        counts = [0] * (self.radius + 1)
        for e in self.elements:
            counts[e.length] += 1
        return tuple(counts)


def descent_set(table, i):
    """In(w) = {s : l(ws) < l(w)} for the i-th table entry."""
    return table.elements[i].descents


def _rep_matrices(mat, labels):
    """Generator matrices; column j holds the image of the j-th root."""
    n = len(labels)
    out = {}
    for i, s in enumerate(labels):
        rows = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
        for j, t in enumerate(labels):
            if i == j:
                rows[i][j] = QF.from_int(-1)
            else:
                m = mat.m(s, t)
                rows[i][j] = two_cos(None if m is INF else m)
        out[s] = rows
    return out


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        arow = a[i]
        orow = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                x = arow[k]
                if not x.is_zero():
                    acc = acc + x * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def _matkey(m):
    return tuple(tuple(x.c for x in row) for row in m)


def _unkey(key):
    return [[QF(c) for c in row] for row in key]


def _identity_key(n):
    return _matkey([[ONE if a == b else ZERO for b in range(n)] for a in range(n)])


def _bfs_enumerate(labels, identity_key, mult_right, radius=None, descent_fn=None):
    """Shortlex breadth-first enumeration.

    ``mult_right(key, s)`` returns the key of w*s.  Processing each layer
    in shortlex order and appending generators in label order makes the
    first discovery of an element its shortlex-minimal word.
    """
    index = {identity_key: 0}
    words = [()]
    keys = [identity_key]
    frontier = [0]
    length = 0
    while frontier and (radius is None or length < radius):
        nxt = []
        for i in frontier:
            for s in labels:
                key = mult_right(keys[i], s)
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                    words.append(words[i] + (s,))
                    nxt.append(index[key])
        frontier = nxt
        length += 1
    mult = tuple(
        tuple(index.get(mult_right(k, s)) for s in labels) for k in keys
    )
    elements = []
    for i, w in enumerate(words):
        if descent_fn is not None:
            des = descent_fn(keys[i])
        else:
            des = frozenset(
                s
                for k, s in enumerate(labels)
                if mult[i][k] is not None and len(words[mult[i][k]]) < len(w)
            )
        elements.append(Element(i, w, len(w), des))
    return tuple(elements), mult


def _dihedral_mult_fn(m, labels):
    """Right multiplication in the order-2m dihedral group.

    Keys are (r, k): rotation rot^k when r = 0 and reflection
    sigma * rot^k when r = 1, with the generators sigma and sigma * rot.
    """

    def mult(key, s):
        r, k = key
        if s == labels[0]:
            return (1 - r, (-k) % m)
        return (1 - r, (1 - k) % m)

    return mult


def _component_backend(mat, comp):
    """(identity key, right-multiplication) for one irreducible component.

    Spherical irreducible components of rank >= 3 only carry labels in
    {2,3,4,5} by the classification, so exact matrices always apply;
    rank-2 components with other labels fall back to the dihedral model.
    """
    inner = [mat.m(s, t) for i, s in enumerate(comp) for t in comp[i + 1 :]]
    if all(m in MATRIX_LABELS for m in inner):
        gens = _rep_matrices(mat.restrict(comp), comp)

        def mult(key, s):
            return _matkey(_matmul(_unkey(key), gens[s]))

        return _identity_key(len(comp)), mult
    if len(comp) == 2:
        return (0, 0), _dihedral_mult_fn(mat.m(comp[0], comp[1]), comp)
    raise CoxeterError(f"no exact enumeration backend for labels {sorted(inner)}")


def enumerate_group(mat, T):
    """Complete element table of the finite group generated by T.

    T must be spherical.  Each irreducible component is multiplied in its
    own backend (exact matrices, or the dihedral model for rank-2 labels
    outside {2,3,4,5,6}); the breadth-first search runs over the product,
    so reducible subsets cost no more than their largest factor.
    """
    T = mat.sorted_subset(T)
    if not is_spherical(mat, T):
        raise CoxeterError(f"subset {list(T)} is not spherical")
    if len(T) == 0:
        return ElementTable((), (Element(0, (), 0, frozenset()),), ((),))
    comps = mat.components(T)
    backends = [_component_backend(mat, comp) for comp in comps]
    owner = {s: i for i, comp in enumerate(comps) for s in comp}
    identity = tuple(ident for ident, _ in backends)

    def mult(key, s):
        i = owner[s]
        return key[:i] + (backends[i][1](key[i], s),) + key[i + 1 :]

    elements, mult_table = _bfs_enumerate(T, identity, mult)
    return ElementTable(T, elements, mult_table)


def enumerate_ball(mat, radius):
    """All elements of length <= radius, descents from root signs."""
    for pair, m in mat.entries.items():
        if m is not INF and m not in MATRIX_LABELS:
            raise CoxeterError(f"label m={m} on {sorted(pair)} not supported in balls")
    labels = mat.labels
    gens = _rep_matrices(mat, labels)

    def mult(key, s):
        return _matkey(_matmul(_unkey(key), gens[s]))

    def descents(key):
        w = _unkey(key)
        out = []
        for j, s in enumerate(labels):
            if all(w[i][j].sign() <= 0 for i in range(len(labels))):
                out.append(s)
        return frozenset(out)

    elements, mult_table = _bfs_enumerate(
        labels, _identity_key(len(labels)), mult, radius=radius, descent_fn=descents
    )
    return BallTable(labels, radius, elements, mult_table)
