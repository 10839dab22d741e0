"""Modules of residue-constant functions and their direct-sum decomposition.

For a finite chamber system Phi, A = Z^Phi and A^T is the submodule of
functions constant on every residue of type T (zero when T is not
spherical); its basis is the T-residue indicators.  A^{>T} is
the span of the A^U over spherical U strictly containing T, generated by
the covers A^{T+s} alone since A^U lies in A^{T+s} for each s in U - T,
and D^T = A^T / A^{>T}.  Every module lattice is written over the
residue basis of its own type: for V containing T, A^V inside A^T is
spanned by the V-residue indicators as sums of T-residue indicators
(``span_in_coordinates``); only over the empty type, whose residues are
the chambers, are these coordinates those of Z^Phi.  A lattice is a list
of sparse generators, (index, entry) pairs over the T-residues, read
straight off the residue partition maps; the kernels of ``intlinalg``
take it in that form.

A deterministic complementary summand hat(A)^T of A^{>T} inside A^T is
chosen via the Smith complement, as sparse columns over the T-residues,
each the canonical representative of its class modulo A^{>T}.  Most often
the elimination already shows that the complement is a set of T-residue
indicators outside the Hermite pivots, which are canonical as they are;
otherwise they are reduced against an echelon basis of A^{>T}.  D^T is read off that same
factorization: free of the rank of hat(A)^T, or the torsion quotient that
the ``TorsionObstruction`` carries when A^{>T} is not a direct summand.
The splittings are cached on the ``ChamberSystem`` beside its residue
partition maps and its spherical poset (``ChamberSystem.poset``), so a
``BuildingDecomposition`` holds no state of its own: every view of one
system shares them, each splitting is computed once per system and the
poset is walked once.
``BuildingDecomposition.witness`` lifts the hat(A)^V for V containing T
to the T-residues (each T-residue reads the entry of the V-residue that
contains it) and certifies the direct-sum decomposition by a unit
determinant of the square matrix they form; the dense matrix is built
only for the report.

``residue_cochain_complex`` assigns the module A^{S(c)} to each cell c
of a mirrored complex, written over the residue-indicator bases, with
coboundaries combining simplicial signs and the inclusions between the
modules, one block map per pair of labels.  Over every cell of a model
chamber it is the cochain complex of the realization; the face
identities pass it only the cells of spherical label, since A^T = 0 for
a non-spherical T.

For faces of the classical chamber (the simplex with facet mirrors) the
machinery runs *augmented*: the empty face () participates as a
(-1)-cell.  Its label, read off the chamber's vertex-label table like
every other face's, is the full generator set S; each mirror there is the
full subcomplex that table gives.  The face sigma fixed by T is the faces
of ``classical_chamber`` whose label holds T, and sigma^U those of sigma
whose label meets U.  Over a spherical (finite) type the full-set module
is nonzero and the augmentation removes the constant functions, which is
exactly what makes the top-degree concentration statements and the
quotient/sum formulas hold verbatim on finite buildings; over an infinite
type the full-set module vanishes and augmentation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chambers import check_type
from .complexes import classical_chamber, cochain_complex
from .intlinalg import (
    AbGroup,
    GradedGroup,
    TorsionObstruction,
    basis_quotient,
    determinant,
    direct_complement,
    echelon_basis,
    quotient_structure,
)


class BuildingDecomposition:
    """The residue modules of one chamber system, in residue coordinates.

    A view: the poset and the splittings are cached on the system next
    to its residue partition maps, so every view of one system shares
    them and building one is free.
    """

    def __init__(self, system):
        self.system = system
        self.matrix = system.matrix
        self.poset = system.poset()

    # -------------------------------------------------------- residue data

    def residue_count(self, T):
        return len(self.system.least_chambers(T))

    def inclusion_matrix(self, fine, coarse):
        """Matrix of A^coarse -> A^fine in residue-indicator coordinates:
        a coarse indicator is the sum of the fine indicators it covers."""
        up = self.system.containing(fine, coarse)
        width = self.residue_count(coarse)
        mat = [[0] * width for _ in up]
        for i, j in enumerate(up):
            mat[i][j] = 1
        return mat

    # ----------------------------------------------------- module lattices

    def span_in_coordinates(self, T, types):
        """Sparse generators of the span of the A^V, V in ``types``,
        written over the T-residue basis of A^T: each V-residue indicator
        as the T-residues it holds.

        Every V must contain T; a non-spherical V adds nothing (A^V = 0).
        """
        T = frozenset(T)
        gens = []
        for V in types:
            V = frozenset(V)
            if V in self.poset:
                gens.extend([(f, 1) for f in held] for held in self.system.covered(T, V))
        return gens

    def above_in_coordinates(self, T):
        """Sparse generators of A^{>T} over the T-residue basis of A^T.

        Only the covers T+s contribute: A^U lies in A^{T+s} for every s
        in U - T, so the larger types add nothing to the span.
        """
        T = frozenset(T)
        return self.span_in_coordinates(
            T, [U for U in self.poset.supersets(T, strict=True) if len(U) == len(T) + 1]
        )

    def d_quotient(self, T):
        """Structure of D^T = A^T / A^{>T}, read off the factorization that
        chooses hat(A)^T: free of the rank of hat(A)^T, or, when A^{>T} is
        not a direct summand, the quotient with the torsion that says so
        (a violation of the building axioms)."""
        T = frozenset(T)
        if T not in self.poset:
            check_type(self.system, T)
            return AbGroup()
        try:
            return AbGroup(self.splitting_rank(T))
        except TorsionObstruction as exc:
            return exc.quotient

    def splitting(self, T):
        """Sparse columns of hat(A)^T over the T-residue basis of A^T: a
        deterministic complement of A^{>T}, canonical modulo A^{>T}.
        Raises ``TorsionObstruction`` when there is none."""
        T = frozenset(T)
        cache = self.system._splittings
        if T in cache:
            return cache[T]
        if T not in self.poset:
            check_type(self.system, T)
            raise ValueError(f"{sorted(T)} is not spherical")
        result = direct_complement(self.residue_count(T), self.above_in_coordinates(T))
        cache[T] = result
        return result

    def splitting_rank(self, T):
        return len(self.splitting(T))

    def witness(self, T):
        """Assemble the hat(A)^V for V >= T over the A^T basis."""
        T = frozenset(T)
        rT = self.residue_count(T)
        parts = []
        cols = []
        for V in self.poset.supersets(T):
            hat = self.splitting(V)
            parts.append((V, len(hat)))
            # a T-residue takes the value of the V-residue holding it
            held = self.system.covered(T, V)
            cols.extend([(f, x) for v, x in col for f in held[v]] for col in hat)
        matrix = [[0] * len(cols) for _ in range(rT)]
        for k, col in enumerate(cols):
            for f, x in col:
                matrix[f][k] = x
        if len(cols) != rT:
            return DecompositionWitness(
                base_type=T,
                part_ranks=parts,
                matrix=matrix,
                determinant=None,
                ok=False,
                note=f"rank sum {len(cols)} differs from the number of T-residues {rT}",
            )
        det = determinant(cols, rT)
        return DecompositionWitness(
            base_type=T,
            part_ranks=parts,
            matrix=matrix,
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


def residue_cochain_complex(system, cells_by_degree, label):
    """Cochain complex with one block Z^{label(c)-residues} per cell c.

    ``cells_by_degree`` maps degree -> ordered cells, each a tuple of
    vertices in orientation order (the id tuples of a model complex, the
    empty face () included when the complex runs augmented); ``label(c)``
    is the frozenset type of cell c.  Over c sits one basis element per
    label(c)-residue, in residue order: the residue indicators, a basis
    of A^{label(c)}.
    The block map from a cell g to its face f sends each label(g)-residue
    to the label(f)-residue holding it (``system.containing``), with the
    simplicial sign.

    This is the one residue-coefficient builder: over every cell of a
    model complex it is the cochain complex of the realization, and over
    the cells of spherical label it is the coefficient complex (A^T = 0
    for a non-spherical T, so those cells carry nothing there).
    """
    labels = {c: label(c) for cells in cells_by_degree.values() for c in cells}
    return cochain_complex(
        cells_by_degree,
        lambda c: len(system.least_chambers(labels[c])),
        lambda g, f: system.containing(labels[g], labels[f]),
    )


# ------------------------------------------- augmented chamber simplex pairs


def _augmented_pair_cohomology(dec, X, total_cells, sub_cells):
    """Coefficient cohomology of a pair of face sets of the chamber
    simplex X, the empty face () included: its label S is the
    augmentation."""
    by_degree = {}
    for f in sorted(total_cells - sub_cells):
        if X.face_label(f) in dec.poset:
            by_degree.setdefault(len(f) - 1, []).append(f)
    return residue_cochain_complex(dec.system, by_degree, X.face_label).validate().cohomology()


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


def _expected_graded(top, group):
    return GradedGroup({top: group}) if not group.is_zero() else GradedGroup({})


def sigma_formula_check(system, T, U):
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
    dec = BuildingDecomposition(system)
    S = dec.matrix.labels
    T = frozenset(T)
    U = frozenset(U)
    check_type(system, T | U)
    if T not in dec.poset:
        raise ValueError(f"base type {sorted(T)} is not spherical")
    if not U <= set(S) - T:
        raise ValueError("mirror set U must avoid the base type")
    W = frozenset(set(S) - T - U)
    m = len(S) - 1 - len(T)
    # sigma: the faces whose label holds T; sigma^V: those whose label meets V
    X = classical_chamber(dec.matrix)
    sigma = {f for f in X.complex.faces | {()} if T <= X.face_label(f)}
    sigma_U = {f for f in sigma if not X.face_label(f).isdisjoint(U)}
    sigma_W = {f for f in sigma if not X.face_label(f).isdisjoint(W)}

    # relative pair (sigma, sigma^U)
    direct_rel = _augmented_pair_cohomology(dec, X, sigma, sigma_U)
    rT = dec.residue_count(T)
    quo_rel = quotient_structure(rT, dec.span_in_coordinates(T, [T | {s} for s in W]))
    sum_rel = AbGroup(
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
    direct_bnd = _augmented_pair_cohomology(dec, X, sigma_U, sigma_U & sigma_W)
    # one echelon basis of the span of the A^{T+s}, s in U, for both routes
    basis_U = echelon_basis(rT, dec.span_in_coordinates(T, [T | {s} for s in U]))
    quo_bnd = AbGroup(len(basis_U))
    sum_bnd = AbGroup(
        sum(
            dec.splitting_rank(V)
            for V in dec.poset.supersets(T, strict=True)
            if (V - T) & U
        )
    )
    entries.append(_sigma_entry("boundary", direct_bnd, m - 1, quo_bnd, sum_bnd))

    # absolute sigma^U
    direct_abs = _augmented_pair_cohomology(dec, X, sigma_U, set())
    pair_gens = dec.span_in_coordinates(T, [T | {s, t} for s in U for t in W])
    quo_abs = basis_quotient(rT, basis_U, pair_gens)
    sum_abs = AbGroup(
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

    def to_json(self):
        return {
            "convention": self.convention,
            "ranks": self.ranks,
            "graded": [g.to_json() for g in self.graded],
            "expected": [g.to_json() for g in self.expected],
            "matches": self.matches,
        }


def filtration_ranks(system):
    """The decreasing filtration F_p = span of the A^T with |T| >= p.

    Its gradeds F_p / F_{p+1} are compared with the direct sums of the D^T
    with |T| = p.  The increasing reading (|T| <= p) is not tried: it is
    the full module at every step because A^{emptyset} = A, while the D^T
    of a maximal spherical T is nonzero.
    """
    dec = BuildingDecomposition(system)
    max_p = dec.poset.max_cardinality
    expected = []
    for p in range(max_p + 1):
        total = AbGroup()
        for T in dec.poset:
            if len(T) == p:
                total = total.direct_sum(dec.d_quotient(T))
        expected.append(total)

    # over the empty type the residue basis is the chamber basis of A
    steps = [
        dec.span_in_coordinates(frozenset(), [T for T in dec.poset if len(T) >= p])
        for p in range(max_p + 2)
    ]
    bases = [echelon_basis(system.size, g) for g in steps]
    ranks = [len(b) for b in bases]
    graded = [basis_quotient(system.size, bases[p], steps[p + 1]) for p in range(max_p + 1)]
    if graded == expected:
        return Filtration("sum over |T| >= p (decreasing)", ranks, graded, expected, True)
    return Filtration("no reading matches", ranks, graded, expected, False)
