"""Gluing chambers along mirrors: finite realizations and the cross-check.

The realization of a chamber system over a mirrored model complex X has
one copy of each cell c of X per residue of type S(c): the copies of X
indexed by chambers are glued so that chambers in a common S(c)-residue
share the cell c.  For finite systems the result is an explicit
simplicial complex whose cohomology can be compared, degree by degree,
against the direct sum over spherical T of H(X, X^{S-T}) tensored with
the chosen summand hat(A)^T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chambers import thin_building
from .complexes import (
    MirroredComplex,
    SimplicialComplex,
    classical_chamber,
    relative_cohomology,
)
from .decomposition import BuildingDecomposition
from .intlinalg import GradedGroup


@dataclass(frozen=True)
class RealizedComplex:
    """The glued complex; cells carry (model cell, residue index) labels."""

    complex: SimplicialComplex
    cell_labels: dict  # face -> (model cell, label type tuple, residue index)
    model: MirroredComplex

    def f_vector(self):
        return self.complex.f_vector()


def realize(system, X):
    """One copy of each model cell per residue of its label type.

    A vertex of the output is (model vertex, index of the S(v)-residue);
    the face of a glued cell at a model subcell c' is the copy of c'
    indexed by the coarser S(c')-residue through the same chamber.
    """
    matrix = system.matrix
    label_of = {f: X.face_label(f) for f in X.complex.faces}
    pm = {f: system.partition_map(lab) for f, lab in label_of.items()}

    faces = set()
    cell_labels = {}
    for f in X.complex.faces:
        lab = label_of[f]
        vertex_pms = [(v, pm[frozenset([v])]) for v in f]
        seen = set()
        for chamber in range(system.size):
            r = pm[f][chamber]
            if r in seen:
                continue
            seen.add(r)
            glued = frozenset((v, vpm[chamber]) for v, vpm in vertex_pms)
            if len(glued) != len(f):
                raise ValueError("degenerate gluing: vertices collapsed")
            if glued not in faces:
                faces.add(glued)
                cell_labels[glued] = (f, tuple(sorted(lab, key=matrix.index)), r)
    out = SimplicialComplex(frozenset(faces))
    # cell-count identity: one glued cell per (model cell, residue)
    expected = [0] * (X.complex.dim + 1)
    for f in X.complex.faces:
        expected[len(f) - 1] += max(pm[f]) + 1
    if out.f_vector() != tuple(expected):
        raise AssertionError(f"cell count mismatch: {out.f_vector()} != {tuple(expected)}")
    return RealizedComplex(out, cell_labels, X)


def realization_cohomology(realized):
    """Integral cohomology of the glued complex (compact, so this is the
    compactly supported cohomology as well)."""
    return relative_cohomology(realized.complex)


def coxeter_complex(matrix):
    """The realization of the thin building over the classical chamber."""
    system = thin_building(matrix)
    return realize(system, classical_chamber(matrix))


@dataclass
class CrossCheckEntry:
    type: tuple
    local: GradedGroup
    multiplicity: int
    contribution: GradedGroup

    def to_json(self):
        return {
            "T": list(self.type),
            "local": self.local.to_json(),
            "multiplicity": self.multiplicity,
            "contribution": self.contribution.to_json(),
        }


@dataclass
class CrossCheckReport:
    realized: GradedGroup
    assembled: GradedGroup
    entries: list
    ok: bool
    euler_ok: bool

    def to_json(self):
        return {
            "realized": self.realized.to_json(),
            "assembled": self.assembled.to_json(),
            "entries": [e.to_json() for e in self.entries],
            "ok": self.ok,
            "euler_ok": self.euler_ok,
        }


def formula_cross_check(system, X):
    """Graded comparison of the realization cohomology with the sum of
    H(X, X^{S-T}) tensor hat(A)^T over spherical T.

    The tensor is rank multiplication plus torsion replication, valid
    because every hat(A)^T is free.  Requires a finite system whose type
    is spherical (so that the model complex has no cells at infinity).
    """
    dec = BuildingDecomposition(system)
    matrix = system.matrix
    S = set(matrix.labels)
    realized = realization_cohomology(realize(system, X))
    assembled = GradedGroup({})
    entries = []
    for T in dec.poset:
        sub = X.mirror_union(S - set(T))
        local = relative_cohomology(X.complex, sub)
        mult = dec.splitting_rank(T)
        contribution = local.tensor_free(mult)
        assembled = assembled.direct_sum(contribution)
        entries.append(
            CrossCheckEntry(
                tuple(sorted(T, key=matrix.index)), local, mult, contribution
            )
        )
    euler_ok = realized.euler_characteristic() == assembled.euler_characteristic()
    return CrossCheckReport(
        realized, assembled, entries, realized == assembled, euler_ok
    )
