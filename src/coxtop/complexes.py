"""Finite simplicial complexes, mirror structures, and their cohomology.

Vertices may be strings, ints, tuples or frozensets (the Davis chamber
uses frozensets of generator labels); a canonical sort key makes the
orientation convention deterministic: simplices are oriented by the
sorted order of their vertices.

A mirror structure on a complex X is a family of subcomplexes X_s indexed
by the generators.  The label of a cell c is S(c) = {s : c lies in X_s};
unions of mirrors are written X^U and intersections X_T, with X^0 the
empty complex and X_0 = X.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .coxmatrix import is_spherical, spherical_poset
from .intlinalg import AbGroup, CochainComplex, GradedGroup


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


def _vertex_keys(faces):
    """The vertex_key of every vertex of the faces, computed once each."""
    return {v: vertex_key(v) for v in {v for f in faces for v in f}}


@dataclass(frozen=True)
class SimplicialComplex:
    """Nonempty faces closed under taking subsets."""

    faces: frozenset  # frozensets of vertices, all nonempty

    @classmethod
    def from_maximal(cls, maximal):
        faces = set()
        for f in maximal:
            f = frozenset(f)
            for k in range(1, len(f) + 1):
                faces.update(map(frozenset, combinations(f, k)))
        return cls(frozenset(faces))

    @classmethod
    def empty(cls):
        return cls(frozenset())

    def __post_init__(self):
        for f in self.faces:
            if not f:
                raise ValueError("faces must be nonempty vertex sets")

    @property
    def vertices(self):
        return sorted({v for f in self.faces for v in f}, key=vertex_key)

    def is_empty(self):
        return not self.faces

    @property
    def dim(self):
        return max((len(f) - 1 for f in self.faces), default=-1)

    def faces_of_dim(self, k):
        """The k-faces in cell order: lexicographic in their sorted vertex keys."""
        out = [f for f in self.faces if len(f) == k + 1]
        keys = _vertex_keys(out)
        out.sort(key=lambda f: sorted(map(keys.__getitem__, f)))
        return out

    def f_vector(self):
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[len(f) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self):
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def is_subcomplex_of(self, other):
        return self.faces <= other.faces

    def union(self, other):
        return SimplicialComplex(self.faces | other.faces)

    def intersection(self, other):
        return SimplicialComplex(self.faces & other.faces)

    def to_json(self):
        out = []
        for k in range(self.dim + 1):
            for f in self.faces_of_dim(k):
                out.append([_label_json(v) for v in sorted(f, key=vertex_key)])
        return out


def _label_json(v):
    if isinstance(v, frozenset):
        return sorted(map(_label_json, v))
    if isinstance(v, tuple):
        return list(map(_label_json, v))
    return v


def flag_complex(elements):
    """Faces are the chains of a finite family of sets under strict inclusion."""
    elements = list(elements)
    comparable = {}
    for a, b in combinations(elements, 2):
        if a < b or b < a:
            comparable.setdefault(a, set()).add(b)
            comparable.setdefault(b, set()).add(a)
    faces = set()

    def grow(chain, candidates):
        faces.add(frozenset(chain))
        for v in candidates:
            grow(chain + [v], [w for w in candidates if w in comparable.get(v, ())])

    for i, v in enumerate(elements):
        grow([v], [w for w in elements[i + 1 :] if w in comparable.get(v, ())])
    faces.discard(frozenset())
    return SimplicialComplex(frozenset(faces))


@dataclass(frozen=True)
class MirroredComplex:
    """A complex with one mirror subcomplex per generator."""

    labels: tuple
    complex: SimplicialComplex
    mirrors: dict = field(compare=False)  # label -> SimplicialComplex

    def __post_init__(self):
        for s in self.labels:
            m = self.mirrors.get(s, SimplicialComplex.empty())
            if not m.is_subcomplex_of(self.complex):
                raise ValueError(f"mirror {s} is not a subcomplex")

    def mirror(self, s):
        return self.mirrors.get(s, SimplicialComplex.empty())

    def face_label(self, f):
        """S(c) = the generators whose mirror contains the cell."""
        f = frozenset(f)
        return frozenset(s for s in self.labels if f in self.mirror(s).faces)

    def mirror_union(self, U):
        """X^U; the empty union is the empty complex."""
        out = SimplicialComplex.empty()
        for s in U:
            out = out.union(self.mirror(s))
        return out

    def mirror_intersection(self, T):
        """X_T; the empty intersection is the whole complex."""
        out = self.complex
        for s in T:
            out = out.intersection(self.mirror(s))
        return out


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

    ``cells_by_degree`` maps degree -> ordered cells (frozensets of
    vertices); a cell of size 0 contributes nothing.  For a codimension-one
    face f of g, basis element i of g's block lies over element
    ``restrict(g, f)[i]`` of f's block, and the coboundary entry between
    them is (-1)^(position of the vertex g - f in vertex_key order).
    Rows are sparse: (column, entry) pairs, as ``CochainComplex`` stores.
    """
    keys = _vertex_keys(c for cells in cells_by_degree.values() for c in cells)
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
            for position, v in enumerate(sorted(g, key=keys.__getitem__)):
                f = g - {v}
                if f in low:
                    faces.append((low[f][0], -1 if position % 2 else 1, restrict(g, f)))
            rows.extend([(off + up[i], sign) for off, sign, up in faces] for i in range(r))
        maps[k] = rows
    return CochainComplex(dims, maps)


def relative_cochain_complex(X, A=None):
    """Integer cochain complex of the pair (X, A) with lexicographic signs."""
    afaces = A.faces if A is not None else frozenset()
    if A is not None and not afaces <= X.faces:
        raise ValueError("A is not a subcomplex of X")
    cells = {k: [f for f in X.faces_of_dim(k) if f not in afaces] for k in range(X.dim + 1)}
    return cochain_complex(cells, lambda c: 1, lambda g, f: (0,))


def relative_cohomology(X, A=None):
    """Integral simplicial cohomology of (X, A); A = None means absolute."""
    if X.is_empty():
        return GradedGroup({})
    return relative_cochain_complex(X, A).cohomology()


@dataclass(frozen=True)
class ReducedCohomology:
    """Reduced cohomology, with the empty complex kept as an explicit flag
    instead of a degree -1 group."""

    empty_complex: bool
    groups: GradedGroup

    def is_zero(self):
        return not self.empty_complex and not self.groups

    def concentrated_degree(self):
        """The unique nonzero degree, or None; the empty complex reports -1."""
        if self.empty_complex:
            return -1
        degs = self.groups.degrees()
        if len(degs) == 1:
            return degs[0]
        return None

    def to_json(self):
        return {"empty_complex": self.empty_complex, "groups": self.groups.to_json()}


def reduced_cohomology(X):
    if X.is_empty():
        return ReducedCohomology(True, GradedGroup({}))
    plain = relative_cohomology(X)
    groups = dict(plain.groups)
    h0 = groups.get(0, AbGroup())
    # degree 0 is free of rank = number of components; reduce by one Z
    groups[0] = AbGroup(h0.free - 1, h0.torsion)
    return ReducedCohomology(False, GradedGroup(groups))


# ----------------------------------------------------------- constructions


def nerve(mat):
    """Vertices are the generators; faces are the nonempty spherical subsets."""
    poset = spherical_poset(mat)
    faces = frozenset(T for T in poset if T)
    return SimplicialComplex(faces)


def davis_chamber(mat):
    """The flag complex of the spherical subsets, with its mirror structure.

    The vertex for the empty subset makes the chamber a cone over the
    barycentric subdivision of the nerve.  The mirror for s consists of
    the chains whose members all contain s.
    """
    poset = spherical_poset(mat)
    K = flag_complex(list(poset))
    mirrors = {}
    for s in mat.labels:
        up = [T for T in poset if s in T]
        mirrors[s] = flag_complex(up)
    return MirroredComplex(mat.labels, K, mirrors)


def classical_chamber(mat):
    """The simplex with codimension-one faces indexed by the generators.

    Vertices are the generator labels; the mirror for s is the facet
    spanned by the other labels, so a face f has label S minus f.
    """
    S = mat.labels
    top = frozenset(S)
    complex_ = SimplicialComplex.from_maximal([top])
    mirrors = {}
    for s in S:
        rest = top - {s}
        if rest:
            mirrors[s] = SimplicialComplex.from_maximal([rest])
        else:
            mirrors[s] = SimplicialComplex.empty()
    return MirroredComplex(S, complex_, mirrors)


def model_chamber(mat, name):
    if name == "delta":
        return classical_chamber(mat)
    if name == "K":
        return davis_chamber(mat)
    raise ValueError(f"unknown model chamber {name!r} (expected 'delta' or 'K')")


def punctured_nerve_homology(mat):
    """For each spherical T, the reduced cohomology of K^(S-T)."""
    K = davis_chamber(mat)
    poset = spherical_poset(mat)
    S = set(mat.labels)
    out = {}
    for T in poset:
        sub = K.mirror_union(S - set(T))
        out[T] = reduced_cohomology(sub)
    return out


def metric_flag_check(mat):
    """Consistency of the nerve with the definiteness oracle.

    Every pairwise-spherical subset must be a nerve face exactly when its
    cosine Gram matrix (unit diagonal, off-diagonal -cos(pi/m)) is
    positive definite.  With exact arithmetic this always holds; a False
    return indicates an implementation fault.
    """
    from .coxmatrix import cosine_gram_definite

    S = mat.labels
    for r in range(1, len(S) + 1):
        for T in combinations(S, r):
            if not all(is_spherical(mat, (s, t)) for s, t in combinations(T, 2)):
                continue  # not a clique in the 1-skeleton
            if is_spherical(mat, T) != cosine_gram_definite(mat, T):
                return False
    return True
