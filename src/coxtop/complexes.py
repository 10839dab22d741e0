"""Finite simplicial complexes, mirror structures, and their cohomology.

A complex numbers its vertices once.  ``vertices`` is its table of vertex
labels (strings, ints, tuples or frozensets; the Davis chamber uses
frozensets of generator labels) in the canonical ``vertex_key`` order, and
each face is the increasing tuple of the positions of its vertices in that
table.  That is the one orientation decision: a simplex is oriented by its
ids, which is the ``vertex_key`` order of its labels, the k-cells come in
lexicographic order of their id tuples, and labels appear again only in
``to_json``.  A subcomplex cut out by ``sub`` keeps its parent's table; a
complex on another table is translated once, label by label, where it
meets one (``faces_from``).

A mirror structure on a complex X is a family of subcomplexes X_s indexed
by the generators.  The label of a cell c is S(c) = {s : c lies in X_s};
unions of mirrors are written X^U and intersections X_T, with X^0 the
empty complex and X_0 = X.

All cohomology here is unreduced.  The local groups H(X, X^{S-T}) are
the one relative route: on the Davis chamber K, a cone and so
contractible, H^k(K, K^{S-T}) is the reduced group of K^{S-T} in degree
k - 1, and for T = S, where K^{S-T} is empty, H^0(K) = Z stands for its
reduced group in degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .coxmatrix import cosine_gram_definite, is_spherical, spherical_poset
from .intlinalg import CochainComplex, GradedGroup


def vertex_key(v):
    """Total order on heterogeneous vertex labels."""
    if isinstance(v, frozenset) or isinstance(v, set):
        return (3, len(v), tuple(sorted(vertex_key(x) for x in v)))
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, bool):
        return (0, int(v))
    if isinstance(v, int):
        return (0, v)
    raise TypeError(f"unsupported vertex label {v!r}")


@dataclass(frozen=True)
class SimplicialComplex:
    """Nonempty faces closed under taking subsets, over a numbered vertex table."""

    vertices: tuple  # vertex labels in vertex_key order
    faces: frozenset  # increasing tuples of positions in ``vertices``

    @classmethod
    def from_maximal(cls, maximal):
        """The faces of the given vertex-label sets, numbered afresh.

        >>> X = SimplicialComplex.from_maximal([("b", "a"), ("c",)])
        >>> X.vertices, X.faces_of_dim(1), X.to_json()
        (('a', 'b', 'c'), [(0, 1)], [['a'], ['b'], ['c'], ['a', 'b']])
        """
        maximal = [set(f) for f in maximal]
        table = tuple(sorted(set().union(*maximal), key=vertex_key))
        index = {v: i for i, v in enumerate(table)}
        faces = set()
        for f in maximal:
            ids = sorted(map(index.__getitem__, f))
            for k in range(1, len(ids) + 1):
                faces.update(combinations(ids, k))
        return cls(table, frozenset(faces))

    @classmethod
    def empty(cls):
        return cls((), frozenset())

    def __post_init__(self):
        n = len(self.vertices)
        for f in self.faces:
            if not f or f[0] < 0 or f[-1] >= n or any(a >= b for a, b in zip(f, f[1:])):
                raise ValueError(f"face {f!r} is not a nonempty increasing tuple of ids below {n}")

    def is_empty(self):
        return not self.faces

    @property
    def dim(self):
        return max((len(f) - 1 for f in self.faces), default=-1)

    def faces_of_dim(self, k):
        """The k-faces in cell order: lexicographic in their id tuples."""
        return sorted(f for f in self.faces if len(f) == k + 1)

    def f_vector(self):
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self):
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def sub(self, keep):
        """The faces that pass ``keep``, on this table; ``keep`` must hold
        on every face of a face it holds on."""
        return SimplicialComplex(self.vertices, frozenset(filter(keep, self.faces)))

    def faces_from(self, other):
        """The faces of ``other`` as id tuples of this table, or None when
        one of them is not a face here.  ``other`` may number its vertices
        differently; its labels are looked up once (a label missing here
        becomes id -1, which is in no face)."""
        if other.vertices == self.vertices:
            faces = other.faces
        else:
            index = {v: i for i, v in enumerate(self.vertices)}
            ids = [index.get(v, -1) for v in other.vertices]
            faces = {tuple(sorted(ids[i] for i in f)) for f in other.faces}
        return faces if faces <= self.faces else None

    def is_subcomplex_of(self, other):
        return other.faces_from(self) is not None

    def to_json(self):
        return [
            [_label_json(self.vertices[i]) for i in f]
            for k in range(self.dim + 1)
            for f in self.faces_of_dim(k)
        ]


def _label_json(v):
    if isinstance(v, frozenset):
        return sorted(map(_label_json, v))
    if isinstance(v, tuple):
        return list(map(_label_json, v))
    return v


def flag_complex(elements):
    """Faces are the chains of a finite family of sets under strict inclusion.

    The sets are numbered in ``vertex_key`` order, which puts every set
    after its proper subsets (they are shorter), so each chain is an
    increasing id tuple and is grown once, upwards.
    """
    table = tuple(sorted(elements, key=vertex_key))
    n = len(table)
    above = [{j for j in range(i + 1, n) if table[i] < table[j]} for i in range(n)]
    faces = set()

    def grow(chain, candidates):
        faces.add(chain)
        for j in candidates:
            grow(chain + (j,), [w for w in candidates if w in above[j]])

    for i in range(n):
        grow((i,), sorted(above[i]))
    return SimplicialComplex(table, frozenset(faces))


@dataclass(frozen=True)
class MirroredComplex:
    """A complex with one mirror subcomplex per generator, on its table."""

    labels: tuple
    complex: SimplicialComplex
    mirrors: dict = field(compare=False)  # label -> SimplicialComplex

    def __post_init__(self):
        for s in self.labels:
            m = self.mirror(s)
            if m.vertices != self.complex.vertices or not m.faces <= self.complex.faces:
                raise ValueError(f"mirror {s} is not a subcomplex on the complex's vertex table")

    def mirror(self, s):
        m = self.mirrors.get(s)
        return m if m is not None else SimplicialComplex(self.complex.vertices, frozenset())

    def face_label(self, f):
        """S(c) = the generators whose mirror contains the cell (an id tuple)."""
        return frozenset(s for s in self.labels if f in self.mirror(s).faces)

    def mirror_union(self, U):
        """X^U; the empty union is the empty complex."""
        faces = frozenset().union(*(self.mirror(s).faces for s in U))
        return SimplicialComplex(self.complex.vertices, faces)

    def mirror_intersection(self, T):
        """X_T; the empty intersection is the whole complex."""
        faces = self.complex.faces
        for s in T:
            faces &= self.mirror(s).faces
        return SimplicialComplex(self.complex.vertices, faces)


def simplex_sign(face, subface):
    """Sign of subface inside face: (-1)^(position of the missing vertex)."""
    missing = set(face) - set(subface)
    if len(missing) != 1:
        raise ValueError("not a codimension-one subface")
    v = missing.pop()
    ordered = sorted(face, key=vertex_key)
    return (-1) ** ordered.index(v)


def cochain_complex(cells_by_degree, size, restrict):
    """Cochain complex with one free block of rank ``size(c)`` per cell c.

    ``cells_by_degree`` maps degree -> ordered cells, each a tuple of
    vertices in orientation order (the id tuples of a complex); a cell of
    size 0 contributes nothing.  For the face f of g that drops the vertex
    at position p, basis element i of g's block lies over element
    ``restrict(g, f)[i]`` of f's block, and the coboundary entry between
    them is (-1)^p.  Rows are sparse: (column, entry) pairs, as
    ``CochainComplex`` stores.
    """
    blocks = {}  # degree -> {cell: (first basis index, size)}
    dims = {}
    for k, cells in cells_by_degree.items():
        total = 0
        blocks[k] = {}
        for c in cells:
            r = size(c)
            if r:
                blocks[k][c] = (total, r)
                total += r
        if total:
            dims[k] = total
    maps = {}
    for k in sorted(dims):
        if k + 1 not in dims:
            continue
        low = blocks[k]
        rows = []
        for g, (_, r) in blocks[k + 1].items():
            faces = []
            for p in range(len(g)):
                f = g[:p] + g[p + 1 :]
                if f in low:
                    faces.append((low[f][0], -1 if p % 2 else 1, restrict(g, f)))
            rows.extend([(off + up[i], sign) for off, sign, up in faces] for i in range(r))
        maps[k] = rows
    return CochainComplex(dims, maps)


def relative_cochain_complex(X, A=None):
    """Integer cochain complex of the pair (X, A) with lexicographic signs.

    A may number its vertices differently from X."""
    afaces = X.faces_from(A) if A is not None else frozenset()
    if afaces is None:
        raise ValueError("A is not a subcomplex of X")
    return _pair_cochain_complex(_cells(X), afaces)


def _cells(X):
    """degree -> the cells of X of that degree, in cell order."""
    return {k: X.faces_of_dim(k) for k in range(X.dim + 1)}


def _pair_cochain_complex(cells, afaces):
    """The cochain complex of the pair on ``cells`` (``_cells``) less the
    cells of ``afaces``."""
    kept = {k: [f for f in fs if f not in afaces] for k, fs in cells.items()}
    return cochain_complex(kept, lambda c: 1, lambda g, f: (0,))


def relative_cohomology(X, A=None):
    """Integral simplicial cohomology of (X, A); A = None means absolute."""
    if X.is_empty():
        return GradedGroup({})
    return relative_cochain_complex(X, A).cohomology()


def local_groups(X, types):
    """(T, H(X, X^{S-T})) for each T of ``types``, in order.  X's cells are
    sorted once; each pair drops the cells of its mirror union, which
    lies on X's vertex table."""
    S = set(X.labels)
    cells = _cells(X.complex)
    return [
        (T, _pair_cochain_complex(cells, X.mirror_union(S - set(T)).faces).cohomology())
        for T in types
    ]


# ----------------------------------------------------------- constructions


def nerve(mat):
    """Vertices are the generators; faces are the nonempty spherical subsets."""
    return SimplicialComplex.from_maximal(T for T in spherical_poset(mat) if T)


def davis_chamber(mat):
    """The flag complex of the spherical subsets, with its mirror structure.

    The vertex for the empty subset makes the chamber a cone over the
    barycentric subdivision of the nerve.  The mirror for s consists of
    the chains whose members all contain s.
    """
    K = flag_complex(spherical_poset(mat))
    mirrors = {}
    for s in mat.labels:
        up = {i for i, T in enumerate(K.vertices) if s in T}
        mirrors[s] = K.sub(up.issuperset)
    return MirroredComplex(mat.labels, K, mirrors)


def classical_chamber(mat):
    """The simplex with codimension-one faces indexed by the generators.

    Vertices are the generator labels; the mirror for s is the facet
    spanned by the other labels, so a face f has label S minus f.
    """
    simplex = SimplicialComplex.from_maximal([mat.labels])
    mirrors = {}
    for p, s in enumerate(simplex.vertices):
        mirrors[s] = simplex.sub(lambda f, p=p: p not in f)
    return MirroredComplex(mat.labels, simplex, mirrors)


def model_chamber(mat, name):
    if name == "delta":
        return classical_chamber(mat)
    if name == "K":
        return davis_chamber(mat)
    raise ValueError(f"unknown model chamber {name!r} (expected 'delta' or 'K')")


def metric_flag_check(mat):
    """Consistency of the nerve with the definiteness oracle.

    Every pairwise-spherical subset must be a nerve face exactly when its
    cosine Gram matrix (unit diagonal, off-diagonal -cos(pi/m)) is
    positive definite.  With exact arithmetic this always holds; a False
    return indicates an implementation fault.
    """
    S = mat.labels
    for r in range(1, len(S) + 1):
        for T in combinations(S, r):
            if not all(is_spherical(mat, (s, t)) for s, t in combinations(T, 2)):
                continue  # not a clique in the 1-skeleton
            if is_spherical(mat, T) != cosine_gram_definite(mat, T):
                return False
    return True
