"""Modules of residue-constant functions and their direct-sum decomposition.

For a finite chamber system Phi, A = Z^Phi and A^T is the submodule of
functions constant on every residue of type T (zero when T is not
spherical).  A^{>T} is the span of the A^U over spherical U strictly
containing T, and D^T = A^T / A^{>T}.  A deterministic complementary
summand hat(A)^T of A^{>T} inside A^T is chosen via the Smith complement,
reduced to canonical representatives.  ``BuildingDecomposition.witness``
assembles the hat(A)^V for V containing T into a square matrix over the
residue-indicator basis of A^T and certifies the direct-sum decomposition
by a unit determinant.

Coefficient cochain complexes assign the module A^{S(c)} to each cell c
of a mirrored complex, with coboundaries combining simplicial signs and
the inclusions between the modules.  For faces of the classical chamber
(the simplex with facet mirrors) the machinery runs *augmented*: the
empty face participates as a (-1)-cell with label the full generator
set.  Over a spherical (finite) type the full-set module is nonzero and
the augmentation removes the constant functions, which is exactly what
makes the top-degree concentration statements and the quotient/sum
formulas hold verbatim on finite buildings; over an infinite type the
full-set module vanishes and augmentation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import simplex_sign, vertex_key
from .coxmatrix import spherical_poset
from .intlinalg import (
    AbGroup,
    CochainComplex,
    GradedGroup,
    TorsionObstruction,
    determinant,
    direct_complement,
    from_columns,
    lattice_rank,
    matmul,
    quotient_structure,
    shape,
    submodule_quotient,
)


@dataclass(frozen=True)
class ResidueModule:
    """A^T with its residue-indicator basis as columns in Z^Phi."""

    type: frozenset
    spherical: bool
    basis: list  # |Phi| x (number of residues); empty columns if not spherical

    @property
    def rank(self):
        return shape(self.basis)[1]


class BuildingDecomposition:
    """Caches the splittings for one chamber system; residue partition maps
    are cached on the system itself."""

    def __init__(self, system):
        self.system = system
        self.matrix = system.matrix
        self.poset = spherical_poset(system.matrix)
        self.n = system.size
        self._splitting = {}

    # -------------------------------------------------------- residue data

    def residue_count(self, T):
        pm = self.system.partition_map(T)
        return max(pm) + 1 if pm else 0

    def residue_module(self, T):
        T = frozenset(T)
        if T not in self.poset:
            return ResidueModule(T, False, [[] for _ in range(self.n)])
        pm = self.system.partition_map(T)
        r = self.residue_count(T)
        basis = [[0] * r for _ in range(self.n)]
        for chamber, block in enumerate(pm):
            basis[chamber][block] = 1
        return ResidueModule(T, True, basis)

    def inclusion_matrix(self, fine, coarse):
        """Matrix of A^coarse -> A^fine in residue-indicator coordinates.

        ``coarse`` must contain ``fine``: a coarse indicator is the sum of
        the fine indicators it covers.
        """
        fine = frozenset(fine)
        coarse = frozenset(coarse)
        if not fine <= coarse:
            raise ValueError("inclusion needs fine <= coarse as types")
        pm_f = self.system.partition_map(fine)
        pm_c = self.system.partition_map(coarse)
        rows = self.residue_count(fine)
        cols = self.residue_count(coarse)
        mat = [[0] * cols for _ in range(rows)]
        seen = set()
        for chamber in range(self.n):
            key = (pm_f[chamber], pm_c[chamber])
            if key not in seen:
                seen.add(key)
                mat[key[0]][key[1]] = 1
        return mat

    def coords_in(self, T, column):
        """Coordinates of a T-residue-constant vector over the T-residues."""
        pm = self.system.partition_map(T)
        r = self.residue_count(T)
        out = [None] * r
        for chamber, value in enumerate(column):
            block = pm[chamber]
            if out[block] is None:
                out[block] = value
            elif out[block] != value:
                raise ValueError("vector is not constant on the residues")
        return out

    # ----------------------------------------------------- module lattices

    def above_in_coordinates(self, T):
        """Generators of A^{>T} written over the T-residue basis of A^T."""
        T = frozenset(T)
        rT = self.residue_count(T)
        cols = []
        for U in self.poset.supersets(T, strict=True):
            inc = self.inclusion_matrix(T, U)
            cols.extend(list(col) for col in zip(*inc))
        return from_columns(cols, rT)

    def d_quotient(self, T):
        """Structure of D^T = A^T / A^{>T}; torsion signals a violation."""
        T = frozenset(T)
        if T not in self.poset:
            return AbGroup()
        rT = self.residue_count(T)
        gens = self.above_in_coordinates(T)
        return quotient_structure(rT, gens)

    def splitting(self, T):
        """Columns of hat(A)^T in Z^Phi: a deterministic complement of
        A^{>T} inside A^T, canonical modulo the A^{>T} lattice."""
        T = frozenset(T)
        if T in self._splitting:
            return self._splitting[T]
        if T not in self.poset:
            raise TorsionObstruction(f"{sorted(T)} is not spherical")
        rT = self.residue_count(T)
        gens = self.above_in_coordinates(T)
        comp = direct_complement(rT, gens)
        module = self.residue_module(T)
        result = matmul(module.basis, comp) if comp and comp[0] else [
            [] for _ in range(self.n)
        ]
        self._splitting[T] = result
        return result

    def splitting_rank(self, T):
        return shape(self.splitting(T))[1]

    def witness(self, T):
        """Assemble the hat(A)^V for V >= T over the A^T basis."""
        T = frozenset(T)
        rT = self.residue_count(T)
        parts = []
        cols = []
        for V in self.poset.supersets(T):
            hat = self.splitting(V)
            hat_cols = list(zip(*hat)) if hat and hat[0] else []
            parts.append((V, len(hat_cols)))
            for col in hat_cols:
                cols.append(self.coords_in(T, list(col)))
        assembled = from_columns(cols, rT)
        rows, ncols = shape(assembled)
        if rows != ncols:
            return DecompositionWitness(
                base_type=T,
                part_ranks=parts,
                matrix=assembled,
                determinant=None,
                ok=False,
                note=f"rank sum {ncols} differs from the number of T-residues {rows}",
            )
        det = determinant(assembled)
        return DecompositionWitness(
            base_type=T,
            part_ranks=parts,
            matrix=assembled,
            determinant=det,
            ok=abs(det) == 1,
            note="" if abs(det) == 1 else "determinant is not a unit",
        )


@dataclass
class DecompositionWitness:
    base_type: frozenset
    part_ranks: list  # (V, rank of hat(A)^V) in canonical subset order
    matrix: list
    determinant: object
    ok: bool
    note: str

    def rank_sum(self):
        return sum(r for _, r in self.part_ranks)

    def to_json(self, matrix_labels=None):
        key = sorted if matrix_labels is None else (
            lambda T: sorted(T, key=matrix_labels.index)
        )
        return {
            "base_type": key(self.base_type),
            "part_ranks": [[key(V), r] for V, r in self.part_ranks],
            "determinant": self.determinant,
            "ok": self.ok,
            "note": self.note,
            "matrix": self.matrix,
        }


# ------------------------------------------------- coefficient cochain data


def _block_cochain_complex(dec, cells_by_degree, labels_of):
    """Cochain complex with one A^{label} block per cell.

    ``cells_by_degree`` maps degree -> ordered cells (frozensets of model
    vertices); cells whose label is not spherical contribute nothing.
    """
    dims = {}
    offsets = {}
    for k, cells in cells_by_degree.items():
        total = 0
        offs = []
        for c in cells:
            lab = labels_of(c)
            r = dec.residue_count(lab) if frozenset(lab) in dec.poset else 0
            offs.append((c, lab, total, r))
            total += r
        if total:
            dims[k] = total
            offsets[k] = offs
        elif cells:
            offsets[k] = offs
    maps = {}
    for k in sorted(dims):
        if k + 1 not in dims:
            continue
        mat = [[0] * dims[k] for _ in range(dims[k + 1])]
        low = {c: (lab, off, r) for c, lab, off, r in offsets[k]}
        for g, lab_g, off_g, r_g in offsets[k + 1]:
            if r_g == 0:
                continue
            for v in g:
                f = g - {v}
                entry = low.get(f)
                if entry is None:
                    continue
                lab_f, off_f, r_f = entry
                if r_f == 0:
                    continue
                sign = simplex_sign(g, f)
                inc = dec.inclusion_matrix(frozenset(lab_g), frozenset(lab_f))
                for i in range(r_g):
                    row = mat[off_g + i]
                    for j in range(r_f):
                        if inc[i][j]:
                            row[off_f + j] += sign * inc[i][j]
        maps[k] = mat
    return CochainComplex(dims, maps)


def coefficient_cochain_complex(X, B, system, dec=None):
    """Def-style coefficient complex on a mirrored complex, unaugmented.

    Degree-k module: one copy of A^{S(c)} per k-cell c of X outside B.
    """
    dec = dec or BuildingDecomposition(system)
    if B is not None and not B.is_subcomplex_of(X.complex):
        raise ValueError("relative subcomplex is not a subcomplex of X")
    bfaces = B.faces if B is not None else frozenset()
    cells_by_degree = {}
    for k in range(X.complex.dim + 1):
        cells = [f for f in X.complex.faces_of_dim(k) if f not in bfaces]
        if cells:
            cells_by_degree[k] = cells
    return _block_cochain_complex(dec, cells_by_degree, X.face_label)


def coefficient_cohomology(X, B, system, dec=None):
    return coefficient_cochain_complex(X, B, system, dec).validate().cohomology()


# --------------------------------------------- classical chamber face sets


def _face_sort_key(f):
    return (len(f), tuple(vertex_key(v) for v in sorted(f, key=vertex_key)))


def _chamber_face_cells(S, T):
    """All faces of the T-fixed face of the chamber simplex, as subsets of
    the free vertex set S - T, including the empty face."""
    free = sorted(set(S) - set(T))
    cells = [frozenset()]
    for k in range(1, len(free) + 1):
        cells.extend(frozenset(c) for c in combinations(free, k))
    return set(cells)


def _mirror_up_faces(cells, U):
    """Faces lying in at least one mirror indexed by U: those not
    containing all of U (a face is in mirror s exactly when s avoids it)."""
    U = set(U)
    if not U:
        return set()
    return {f for f in cells if not U <= f}


def _augmented_pair_cohomology(dec, S, T, total_cells, sub_cells):
    cells = sorted(total_cells - sub_cells, key=_face_sort_key)
    by_degree = {}
    for f in cells:
        by_degree.setdefault(len(f) - 1, []).append(f)
    Sset = frozenset(S)

    def label(f):
        return Sset - f

    return _block_cochain_complex(dec, by_degree, label).validate().cohomology()


def classical_chamber_cohomology(system, dec=None):
    """Augmented coefficient cohomology of the full chamber simplex.

    Concentrated in degree |S| - 1 with top group D^{empty set}; the
    augmentation removes the copy of the constant functions that a
    spherical (finite) type would otherwise leave in degree 0.
    """
    dec = dec or BuildingDecomposition(system)
    S = dec.matrix.labels
    cells = _chamber_face_cells(S, ())
    return _augmented_pair_cohomology(dec, S, (), cells, set())


# ------------------------------------------------------- the face identities


@dataclass
class SigmaEntry:
    name: str
    direct: GradedGroup
    top_degree: int
    quotient_route: AbGroup
    summand_route: AbGroup
    concentrated: bool
    matches_quotient: bool
    matches_summands: bool

    @property
    def ok(self):
        return self.concentrated and self.matches_quotient and self.matches_summands

    def to_json(self):
        return {
            "name": self.name,
            "direct": self.direct.to_json(),
            "top_degree": self.top_degree,
            "quotient_route": self.quotient_route.to_json(),
            "summand_route": self.summand_route.to_json(),
            "concentrated": self.concentrated,
            "matches_quotient": self.matches_quotient,
            "matches_summands": self.matches_summands,
            "ok": self.ok,
        }


@dataclass
class SigmaReport:
    base_type: tuple
    mirror_set: tuple
    entries: list

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def to_json(self):
        return {
            "T": list(self.base_type),
            "U": list(self.mirror_set),
            "entries": [e.to_json() for e in self.entries],
            "ok": self.ok,
        }


def _sum_generators(dec, types):
    cols = []
    for V in types:
        V = frozenset(V)
        if V in dec.poset:
            module = dec.residue_module(V)
            cols.extend(list(col) for col in zip(*module.basis))
    return from_columns(cols, dec.n)


def _free_group(rank):
    return AbGroup(rank, ())


def _expected_graded(top, group):
    return GradedGroup({top: group}) if not group.is_zero() else GradedGroup({})


def sigma_formula_check(system, T, U, dec=None):
    """Check the three face-cohomology identities for the face fixed by T.

    With sigma the face of the chamber simplex fixed by T, m = |S|-1-|T|
    its dimension and U inside S-T, the report compares, in every degree:

    * H(sigma, sigma^U): directly, against A^T modulo the span of the
      A^{T+s} over s outside U, and against the sum of hat(A)^V over
      spherical V >= T with V-T inside U;
    * H(sigma^U, boundary): directly, against the internal span of the
      A^{T+s} over s in U, and against the hat(A)^V with V meeting U;
    * H(sigma^U): directly, against span/span, and against the hat(A)^V
      over V strictly containing T with V-T inside U.

    All three direct computations run augmented, so the identities hold
    on finite buildings exactly as over infinite types.
    """
    dec = dec or BuildingDecomposition(system)
    S = dec.matrix.labels
    T = frozenset(T)
    U = frozenset(U)
    if T not in dec.poset:
        raise ValueError(f"base type {sorted(T)} is not spherical")
    if not U <= set(S) - T:
        raise ValueError("mirror set U must avoid the base type")
    W = frozenset(set(S) - T - U)
    m = len(S) - 1 - len(T)
    sigma = _chamber_face_cells(S, T)
    sigma_U = _mirror_up_faces(sigma, U)
    sigma_W = _mirror_up_faces(sigma, W)

    # relative pair (sigma, sigma^U)
    direct_rel = _augmented_pair_cohomology(dec, S, T, sigma, sigma_U)
    quo_rel = submodule_quotient(
        dec.n,
        dec.residue_module(T).basis,
        _sum_generators(dec, [T | {s} for s in W]),
    )
    sum_rel = _free_group(
        sum(
            dec.splitting_rank(V)
            for V in dec.poset.supersets(T)
            if (V - T) <= U
        )
    )
    entries = [
        _sigma_entry("rel", direct_rel, m, quo_rel, sum_rel)
    ]

    # pair (sigma^U, boundary of sigma^U)
    direct_bnd = _augmented_pair_cohomology(dec, S, T, sigma_U, sigma_U & sigma_W)
    span_U = _sum_generators(dec, [T | {s} for s in U])
    quo_bnd = _free_group(lattice_rank(span_U) if span_U and span_U[0] else 0)
    sum_bnd = _free_group(
        sum(
            dec.splitting_rank(V)
            for V in dec.poset.supersets(T, strict=True)
            if (V - T) & U
        )
    )
    entries.append(_sigma_entry("boundary", direct_bnd, m - 1, quo_bnd, sum_bnd))

    # absolute sigma^U
    direct_abs = _augmented_pair_cohomology(dec, S, T, sigma_U, set())
    pair_gens = _sum_generators(
        dec, [T | {s, t} for s in U for t in W]
    )
    if span_U and span_U[0]:
        quo_abs = submodule_quotient(dec.n, span_U, pair_gens)
    else:
        quo_abs = AbGroup()
    sum_abs = _free_group(
        sum(
            dec.splitting_rank(V)
            for V in dec.poset.supersets(T, strict=True)
            if (V - T) <= U
        )
    )
    entries.append(_sigma_entry("absolute", direct_abs, m - 1, quo_abs, sum_abs))

    key = dec.matrix.index
    return SigmaReport(
        tuple(sorted(T, key=key)), tuple(sorted(U, key=key)), entries
    )


def _sigma_entry(name, direct, top, quotient_group, summand_group):
    concentrated = all(k == top for k in direct.degrees())
    return SigmaEntry(
        name=name,
        direct=direct,
        top_degree=top,
        quotient_route=quotient_group,
        summand_route=summand_group,
        concentrated=concentrated,
        matches_quotient=direct == _expected_graded(top, quotient_group),
        matches_summands=direct == _expected_graded(top, summand_group),
    )


# ---------------------------------------------------------------- filtration


@dataclass
class Filtration:
    convention: str  # the cardinality reading, or "no reading matches"
    ranks: list  # rank of each filtration step, decreasing
    graded: list  # AbGroup per step p: F_p / F_{p+1}
    expected: list  # direct sum of the D^T with |T| = p
    matches: bool

    def graded_ranks(self):
        return [g.free for g in self.graded]

    def to_json(self):
        return {
            "convention": self.convention,
            "ranks": self.ranks,
            "graded": [g.to_json() for g in self.graded],
            "expected": [g.to_json() for g in self.expected],
            "matches": self.matches,
        }


def filtration_ranks(system, dec=None):
    """The decreasing filtration F_p = span of the A^T with |T| >= p.

    Its gradeds F_p / F_{p+1} are compared with the direct sums of the D^T
    with |T| = p.  The increasing reading (|T| <= p) is not tried: it is
    the full module at every step because A^{emptyset} = A, while the D^T
    of a maximal spherical T is nonzero.
    """
    dec = dec or BuildingDecomposition(system)
    max_p = dec.poset.max_cardinality
    expected = []
    for p in range(max_p + 1):
        total = AbGroup()
        for T in dec.poset:
            if len(T) == p:
                total = total.direct_sum(dec.d_quotient(T))
        expected.append(total)

    steps = [
        _sum_generators(dec, [T for T in dec.poset if len(T) >= p])
        for p in range(max_p + 2)
    ]
    ranks = [lattice_rank(g) if g and g[0] else 0 for g in steps]
    graded = []
    for p in range(max_p + 1):
        big, small = steps[p], steps[p + 1]
        if not (big and big[0]):
            graded.append(AbGroup())
        elif small and small[0]:
            graded.append(submodule_quotient(dec.n, big, small))
        else:
            graded.append(_free_group(lattice_rank(big)))
    if graded == expected:
        return Filtration("sum over |T| >= p (decreasing)", ranks, graded, expected, True)
    return Filtration("no reading matches", ranks, graded, expected, False)
