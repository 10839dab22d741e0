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

A mirror structure on a complex X is one table of vertex labels: for each
vertex, the generators whose mirrors hold it.  In both model chambers, K
and the simplex, every mirror X_s is a full subcomplex, so the label of a
cell c is S(c) = S meet the labels of its vertices, and X_s is the cells
whose label holds s.  The empty face gets label S, the augmentation's
convention.  Unions of mirrors are written X^U and intersections X_T,
with X^0 the empty complex and X_0 = X.

All cohomology here is unreduced.  The local groups H(X, X^{S-T}) are
read off the nerve L of the mirror cover (``local_groups``), not off X:
on both model chambers X and every nonempty X_U are acyclic, so
H^k(X, X^{S-T}) is the reduced group of L restricted to S-T in degree
k - 1, and for T = S, where X^{S-T} is empty, H^0(X) = Z stands for its
reduced group in degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .coxmatrix import _walk, cosine_gram_definite, is_spherical, spherical_poset
from .intlinalg import CochainComplex, GradedGroup


def vertex_key(v):
    """Total order on heterogeneous vertex labels."""
    if isinstance(v, frozenset) or isinstance(v, set):
        return (3, len(v), tuple(sorted(vertex_key(x) for x in v)))
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
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

    def __post_init__(self):
        n = len(self.vertices)
        for f in self.faces:
            if not f or f[0] < 0 or f[-1] >= n or any(a >= b for a, b in zip(f, f[1:])):
                raise ValueError(f"face {f!r} is not a nonempty increasing tuple of ids below {n}")

    def is_empty(self):
        return not self.faces

    @cached_property
    def dim(self):
        return max(map(len, self.faces), default=0) - 1

    def faces_of_dim(self, k):
        """The k-faces in cell order: lexicographic in their id tuples."""
        return sorted(f for f in self.faces if len(f) == k + 1)

    def f_vector(self):
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def sub(self, keep):
        """The faces that pass ``keep``, on this table; ``keep`` must hold
        on every face of a face it holds on.  They passed the per-face
        check of ``__post_init__`` here, so it is not run again."""
        return _unchecked_complex(self.vertices, frozenset(filter(keep, self.faces)))

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

    def to_json(self):
        """The faces as label lists, by dimension and then in cell order."""
        labels = list(map(_label_json, self.vertices))
        by_dim = [[] for _ in range(self.dim + 1)]
        for f in self.faces:
            by_dim[len(f) - 1].append(f)
        return [[labels[i] for i in f] for faces in by_dim for f in sorted(faces)]


def _unchecked_complex(vertices, faces):
    """A complex on faces that are increasing id tuples below
    ``len(vertices)`` by construction, without ``__post_init__``'s
    per-face check."""
    out = object.__new__(SimplicialComplex)
    object.__setattr__(out, "vertices", vertices)
    object.__setattr__(out, "faces", faces)
    return out


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


@dataclass(frozen=True, eq=False)  # compared by identity
class MirroredComplex:
    """A complex with one label per vertex: the generators whose mirrors
    hold that vertex.  Every mirror is the full subcomplex on the vertices
    whose label holds its generator."""

    labels: tuple
    complex: SimplicialComplex
    vertex_labels: tuple  # frozenset of generators per vertex, in vertex order

    def __post_init__(self):
        V, table = self.complex.vertices, self.vertex_labels
        if len(table) < len(V):
            raise ValueError(f"vertex {V[len(table)]!r} has no label")
        if len(table) > len(V):
            raise ValueError(f"{len(table)} labels for the {len(V)} vertices")
        S = frozenset(self.labels)
        for v, U in zip(V, table):
            if not U <= S:
                raise ValueError(f"vertex {v!r} names unknown generators {sorted(U - S, key=str)}")

    def face_label(self, f):
        """S(c) = S meet the labels of the cell's vertices (an id tuple);
        the empty face gets S, the augmentation's label."""
        return frozenset(self.labels).intersection(*map(self.vertex_labels.__getitem__, f))

    def mirror(self, s):
        """X_s, the cells whose label holds s."""
        return self.complex.sub(lambda f: s in self.face_label(f))

    def nerve(self):
        """The nerve of the mirror cover: U is a face when some vertex's
        label holds U, so that the mirrors of U meet.

        >>> from coxtop.coxmatrix import CoxeterMatrix
        >>> A2 = CoxeterMatrix(("s", "t"), {frozenset("st"): 3})
        >>> classical_chamber(A2).nerve().to_json()
        [['s'], ['t']]
        """
        return SimplicialComplex.from_maximal(U for U in self.vertex_labels if U)


def cochain_complex(cells_by_degree, size=None, restrict=None):
    """Cochain complex with one free block of rank ``size(c)`` per cell c.

    ``cells_by_degree`` maps degree -> ordered cells, each a tuple of
    vertices in orientation order (the id tuples of a complex); a cell of
    size 0 contributes nothing.  For the face f of g that drops the vertex
    at position p, basis element i of g's block lies over element
    ``restrict(g, f)[i]`` of f's block, and the coboundary entry between
    them is (-1)^p.  Rows are sparse: (column, entry) pairs, as
    ``CochainComplex`` stores.

    Without ``size`` every cell has a block of rank one, which is the
    simplicial cochain complex; ``restrict`` is then not called, and
    each cell's row is written straight from its faces.
    """
    blocks = {}  # degree -> {cell: first basis index}
    sizes = {}  # cell -> block rank, with ``size`` only
    dims = {}
    for k, cells in cells_by_degree.items():
        if size is None:
            blocks[k] = dict(zip(cells, range(len(cells))))
            total = len(cells)
        else:
            total = 0
            blocks[k] = {}
            for c in cells:
                r = sizes[c] = size(c)
                if r:
                    blocks[k][c] = total
                    total += r
        if total:
            dims[k] = total
    maps = {}
    for k in sorted(dims):
        if k + 1 not in dims:
            continue
        low = blocks[k]
        rows = []
        for g in blocks[k + 1]:
            # per face f of g in the complex: (first basis index, sign), or
            # with ``size`` the column of those over restrict(g, f)
            row = []
            sign = 1
            for p in range(len(g)):
                f = g[:p] + g[p + 1 :]
                j = low.get(f)
                if j is not None:
                    row.append(
                        (j, sign) if size is None else [(j + u, sign) for u in restrict(g, f)]
                    )
                sign = -sign
            if size is None:
                rows.append(row)
            elif row:
                rows.extend(map(list, zip(*row)))
            else:  # no face of g in the complex: size(g) empty rows
                rows.extend([] for _ in range(sizes[g]))
        maps[k] = rows
    return CochainComplex(dims, maps)


def relative_cochain_complex(X, A=None):
    """Integer cochain complex of the pair (X, A) with lexicographic signs.

    A may number its vertices differently from X."""
    afaces = X.faces_from(A) if A is not None else frozenset()
    if afaces is None:
        raise ValueError("A is not a subcomplex of X")
    return cochain_complex(
        {k: [f for f in X.faces_of_dim(k) if f not in afaces] for k in range(X.dim + 1)}
    )


def relative_cohomology(X, A=None):
    """Integral simplicial cohomology of (X, A); A = None means absolute."""
    if X.is_empty():
        return GradedGroup({})
    return relative_cochain_complex(X, A).cohomology()


def local_groups(L, types):
    """(T, H(X, X^{S-T})) for each T of ``types``, in order, read off L,
    the nerve of X's mirror cover (``MirroredComplex.nerve``), whose
    vertices are generator labels.  On both model chambers X and every
    nonempty mirror intersection are acyclic, so by the nerve lemma these
    are the groups of the augmented cochain complex of the faces of L
    that avoid T: () in degree 0, a face of k vertices in degree k.  For
    T = S only () is left, and H^0 = Z.

    >>> from coxtop.coxmatrix import CoxeterMatrix, spherical_poset
    >>> m = CoxeterMatrix(tuple("abc"), {frozenset(p): 3 for p in ("ab", "bc", "ac")})
    >>> poset = spherical_poset(m)
    >>> [(sorted(T), str(h)) for T, h in local_groups(nerve(poset), poset) if h]
    [([], 'H^2 = Z')]
    """
    cells = {k + 1: L.faces_of_dim(k) for k in range(L.dim + 1)}
    out = []
    for T in types:
        avoid = {i for i, s in enumerate(L.vertices) if s in T}
        kept = {k: [f for f in fs if avoid.isdisjoint(f)] for k, fs in cells.items()}
        out.append((T, cochain_complex({0: [()], **kept}).cohomology()))
    return out


# ----------------------------------------------------------- constructions


def nerve(poset):
    """Vertices are the generators; faces are the nonempty spherical
    subsets, the members of ``poset`` other than the empty set."""
    return SimplicialComplex.from_maximal(T for T in poset if T)


def davis_chamber(mat):
    """The flag complex of the spherical subsets, with its mirror structure.

    The vertex for the empty subset makes the chamber a cone over the
    barycentric subdivision of the nerve.  Each vertex, a spherical
    subset, is its own label, so the mirror for s consists of the chains
    whose members all contain s.
    """
    K = flag_complex(spherical_poset(mat))
    return MirroredComplex(mat.labels, K, K.vertices)


def classical_chamber(mat):
    """The simplex with codimension-one faces indexed by the generators.

    Vertices are the generator labels, and vertex v has label S - {v}:
    the mirror for s is the facet spanned by the other labels, so a face
    f has label S minus f.
    """
    simplex = SimplicialComplex.from_maximal([mat.labels])
    S = frozenset(mat.labels)
    return MirroredComplex(mat.labels, simplex, tuple(S - {v} for v in simplex.vertices))


def metric_flag_check(mat):
    """Consistency of the nerve with the definiteness oracle.

    Every pairwise-spherical subset must be a nerve face exactly when its
    cosine Gram matrix (unit diagonal, off-diagonal -cos(pi/m)) is
    positive definite.  With exact arithmetic this always holds; a False
    return indicates an implementation fault.

    The walk that lists the nerve runs under both oracles side by side,
    and the first step where they differ returns False.  While they agree
    the walks propose the same sets, and that covers every
    pairwise-spherical V: an unproposed V has a facet F that both rejected
    or that was not proposed (by induction), and F's Gram matrix, a
    principal submatrix of V's, is not definite, so V is neither definite
    nor a face.  The acceptance sweep compares both oracles on every
    subset of rank <= 4.  Every pair is proposed, so an unsupported label
    raises on its first pair in lexicographic order.
    """
    walks = zip(_walk(mat, is_spherical), _walk(mat, cosine_gram_definite))
    return all(face == definite for (_, face), (_, definite) in walks)
