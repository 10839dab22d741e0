"""Gluing chambers along mirrors: finite realizations and the cross-check.

The realization of a chamber system over a mirrored model complex X has
one copy of each cell c of X per residue of type S(c): the copies of X
indexed by chambers are glued so that chambers in a common S(c)-residue
share the cell c.  Its cochain complex is read off the model without
gluing (``realization_cochain_complex``): one free block
Z^{S(c)-residues} per cell c of X, whatever the label (spherical or
not), oriented by X's vertex order, with the block map from a cell to
its face sending each residue to the coarser residue holding it.  The
builder is ``decomposition.residue_cochain_complex``, the one that also
writes the coefficient complexes, which keep only the cells of
spherical label.  That cohomology is compared, degree by degree, against
the direct sum over spherical T of H(X, X^{S-T}) tensored with the
chosen summand hat(A)^T, assembled by ``hc.formula_terms`` as the H_c
report assembles it.

``realize`` builds the glued simplicial complex itself; on the command
line it serves only the face list of ``realize --json``.  The f-vector
is the block ranks of the cochain complex, one glued k-cell per basis
element in degree k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import _unchecked_complex, local_groups
from .decomposition import BuildingDecomposition, residue_cochain_complex
from .hc import formula_terms
from .intlinalg import GradedGroup


def realize(system, X):
    """The glued complex: one copy of each model cell per residue of its
    label type.

    The glued vertices over model vertex v are (label of v, r) for the
    S(v)-residues r = 0, 1, ...; their ids are offset(v) + r, where
    offset(v) counts the residues of the model vertices before v, so the
    ids run in the ``vertex_key`` order of these labels.  The copy of a
    model face f over its S(f)-residue r has the vertices
    offset(v) + ``system.containing(S(f), S(v))[r]`` for v in f: the
    S(v)-residues holding r.  It is an increasing id tuple by
    construction, so the complex skips the per-face check.
    """
    model = X.complex
    label = {f: X.face_label(f) for f in model.faces}
    count = {f: len(system.least_chambers(T)) for f, T in label.items()}
    table, offset = [], {}
    for v, name in enumerate(model.vertices):
        if (v,) in count:
            offset[v] = len(table)
            table.extend((name, r) for r in range(count[(v,)]))
    faces = set()
    for f in model.faces:
        columns = [[offset[v] + u for u in system.containing(label[f], label[(v,)])] for v in f]
        faces.update(zip(*columns))  # one row per copy of f
    out = _unchecked_complex(tuple(table), frozenset(faces))
    # cell-count identity: one glued cell per (model cell, residue)
    expected = [0] * (model.dim + 1)
    for f in model.faces:
        expected[len(f) - 1] += count[f]
    if out.f_vector() != tuple(expected):
        raise AssertionError(f"cell count mismatch: {out.f_vector()} != {tuple(expected)}")
    return out


def realization_cochain_complex(system, X):
    """The cochain complex of ``realize(system, X)`` in residue blocks:
    ``residue_cochain_complex`` over every cell of X, whatever its label.

    The basis over a cell c of X is its glued copies, one per
    S(c)-residue in residue order.  They share c's orientation, since
    ``realize`` numbers glued vertices in model-vertex order, so the
    coboundary entry between the copy of g over a residue and its face
    at f, the copy of f over the coarser S(f)-residue, is the model sign.
    """
    model = X.complex
    cells = {k: model.faces_of_dim(k) for k in range(model.dim + 1)}
    return residue_cochain_complex(system, cells, X.face_label)


def realization_cohomology(system, X):
    """Integral cohomology of the realization of ``system`` over X (compact
    for a finite system, so this is the compactly supported cohomology as
    well), read off ``realization_cochain_complex``."""
    return realization_cochain_complex(system, X).cohomology()


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
    H(X, X^{S-T}) tensor hat(A)^T over spherical T, assembled by
    ``formula_terms`` as ``hc_standard_realization`` assembles it.

    The local groups are read off ``X.nerve()``, the nerve of X's mirror
    cover: X and every nonempty X_U are acyclic on both model chambers
    (K_U is a cone on the vertex U, a face of the simplex is a simplex).

    Requires a finite system whose type is spherical (so that the model
    complex has no cells at infinity).
    """
    dec = BuildingDecomposition(system)
    realized = realization_cohomology(system, X)
    locals_ = local_groups(X.nerve(), dec.poset)
    entries, assembled = formula_terms(dec.poset, locals_, dec.splitting_rank)
    euler_ok = realized.euler_characteristic() == assembled.euler_characteristic()
    return CrossCheckReport(realized, assembled, entries, realized == assembled, euler_ok)
