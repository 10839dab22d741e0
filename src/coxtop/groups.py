"""Enumeration of Coxeter group elements with lengths and descent sets.

Finite groups are enumerated completely; infinite groups are enumerated
up to a stated word-length radius.  Elements act on the roots of the
geometric representation over Q(sqrt2,sqrt3,sqrt5), where the generator
s sends the simple root alpha_t to

    s(alpha_t) = alpha_t + 2*cos(pi/m(s,t)) * alpha_s   (t != s)
    s(alpha_s) = -alpha_s

with the value 2 replacing 2*cos at infinite labels.  Roots are numbered
as they are first reached, and an element w is keyed by the numbers of
the roots w^-1(alpha_t), one per generator t.  The representation is
faithful, so equal keys are equal elements: no collisions and no misses.

Words are reported in shortlex-minimal form with respect to the fixed
generator order.  The descent set of w is {s : l(ws) < l(w)}, read off
the multiplication table; in a ball this needs no special case, since
when ws is shorter than w it lies in the ball too.

Dihedral groups I2(m) with m outside {2,3,4,5,6} have roots outside
Q(sqrt2,sqrt3,sqrt5) and are handled by an exact combinatorial model
(symmetries of the m-gon), so every finite-type subset admitted by the
classification can be enumerated.

Balls need the roots on the whole generator set and so only take labels
in {2,3,4,5,6,infinity}.  No report enumerates one:
``hc.thin_multiplicity_series`` reads its counts off Steinberg's formula,
and the ball's descent counts are the independent oracle it is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .coxmatrix import INF, CoxeterError, is_spherical
from .qfield import ONE, ZERO, two_cos

ROOT_LABELS = frozenset([2, 3, 4, 5, 6])


@dataclass(frozen=True)
class Element:
    index: int
    word: tuple  # shortlex-minimal reduced word, as generator labels
    length: int
    descents: frozenset


@dataclass(frozen=True)
class ElementTable:
    """Enumerated elements of a Coxeter group with their right
    multiplication table: the whole (finite) group when ``radius`` is
    None, else every element of length <= radius, with table entries
    None where the product leaves the ball."""

    labels: tuple
    elements: tuple  # Element, index order = shortlex BFS order
    mult: tuple  # mult[i][k] = index of elements[i] * labels[k]
    radius: int | None = None

    def __len__(self):
        return len(self.elements)


class _RootTable:
    """Roots of the geometric representation on ``labels``, numbered as
    they are first reached; simple root alpha_t has the number of t in
    ``labels``.  A root is its tuple of coordinates over the simple roots.
    """

    def __init__(self, mat, labels):
        self.position = {s: i for i, s in enumerate(labels)}
        # s changes only the alpha_s coordinate of a root b, to
        # -b_s + sum over t != s of 2cos(pi/m(s,t)) * b_t; m = 2 adds 0
        self.coefficients = {s: [] for s in labels}
        for s, t in permutations(labels, 2):
            if mat.m(s, t) != 2:
                self.coefficients[s].append((self.position[t], two_cos(mat.m(s, t))))
        self.roots = []
        self.numbers = {}
        self.images = {s: {} for s in labels}
        for i in range(len(labels)):
            self._number(tuple(ONE if j == i else ZERO for j in range(len(labels))))

    def _number(self, root):
        r = self.numbers.get(root)
        if r is None:
            r = self.numbers[root] = len(self.roots)
            self.roots.append(root)
        return r

    def image(self, s, r):
        """The number of the root s(root r)."""
        images = self.images[s]
        out = images.get(r)
        if out is None:
            b = self.roots[r]
            i = self.position[s]
            coord = sum((c * b[j] for j, c in self.coefficients[s]), -b[i])
            out = images[r] = self._number(b[:i] + (coord,) + b[i + 1 :])
        return out

    def multiply(self, key, s):
        """Key of w*s from the key of w: an element w is keyed by the
        numbers of the roots w^-1(alpha_t), and (ws)^-1 = s w^-1."""
        return tuple(self.image(s, r) for r in key)


def _bfs_enumerate(labels, identity_key, mult_right, radius=None):
    """Shortlex breadth-first enumeration.

    ``mult_right(key, s)`` returns the key of w*s.  Scanning the elements
    in shortlex order and appending generators in label order makes the
    first discovery of an element its shortlex-minimal word.
    """
    index = {identity_key: 0}
    keys = [identity_key]
    words = [()]
    mult = []
    for i, key in enumerate(keys):  # keys grows behind the scan: a queue
        grows = radius is None or len(words[i]) < radius
        row = []
        for s in labels:
            product = mult_right(key, s)
            j = index.get(product)
            if j is None and grows:
                j = index[product] = len(keys)
                keys.append(product)
                words.append(words[i] + (s,))
            row.append(j)
        mult.append(tuple(row))
    elements = []
    for i, w in enumerate(words):
        des = frozenset(
            s for s, j in zip(labels, mult[i]) if j is not None and len(words[j]) < len(w)
        )
        elements.append(Element(i, w, len(w), des))
    return tuple(elements), tuple(mult)


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
    {2,3,4,5} by the classification, so their roots always lie in the
    field; rank-2 components with other labels use the dihedral model.
    """
    inner = [mat.m(s, t) for i, s in enumerate(comp) for t in comp[i + 1 :]]
    if all(m in ROOT_LABELS for m in inner):
        return tuple(range(len(comp))), _RootTable(mat, comp).multiply
    if len(comp) == 2:
        return (0, 0), _dihedral_mult_fn(mat.m(comp[0], comp[1]), comp)
    raise CoxeterError(f"no exact enumeration backend for labels {sorted(inner)}")


def enumerate_group(mat, T):
    """Complete element table of the finite group generated by T.

    T must be spherical.  Each irreducible component is multiplied in its
    own backend (a root table, or the dihedral model for rank-2 labels
    outside {2,3,4,5,6}); the breadth-first search runs over the product,
    so reducible subsets cost no more than their largest factor.
    """
    T = mat.sorted_subset(T)
    if not is_spherical(mat, T):
        raise CoxeterError(f"subset {list(T)} is not spherical")
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
    """All elements of length <= radius, on one root table that grows as
    far as the ball reaches."""
    for pair, m in mat.entries.items():
        if m is not INF and m not in ROOT_LABELS:
            raise CoxeterError(f"label m={m} on {sorted(pair)} not supported in balls")
    labels = mat.labels
    roots = _RootTable(mat, labels)
    elements, mult_table = _bfs_enumerate(
        labels, tuple(range(len(labels))), roots.multiply, radius=radius
    )
    return ElementTable(labels, elements, mult_table, radius)
