"""Headline reports: compactly supported cohomology of the standard
realization, virtual cohomological dimension, duality status, filtration
gradeds, and descent-class growth series.

For a finite (spherical) type the report is exact: the multiplicity of
T is the rank of hat(A)^T of a concrete chamber system, or, thin, the
count #{w : In(w) = T}, which is Solomon's alternating sum of the
indices |W|/|W_U| over U >= T (no building is split, and no element is
enumerated).  For an infinite type the local groups H(K, K^{S-T}) are
exact while multiplicities are symbolic: the empty type always contributes
multiplicity one in the thin case (only the identity has empty descent
set), every other spherical type is reported as countably infinite
(``omega``), optionally refined by the exact length-graded counts
#{w : In(w) = T, l(w) = i} up to a truncation.  Those counts are
truncated power series in Z[[t]] built from Steinberg's formula and the
Poincare polynomials of the spherical subgroups, so they take any label
and any radius without enumerating group elements.

The H_c report, ``vcd`` and ``duality_check`` all read the local groups
off ``local_groups`` of the nerve, so no Davis chamber is built; the
duality check's reduced groups are those groups one degree down.  Each
builds the spherical poset once, and the nerve, the local groups and
every growth series of a report are read off it.  The report and the
realization's cross-check assemble the sum of local groups tensor
multiplicities with one helper, ``formula_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .complexes import local_groups, nerve
from .coxmatrix import coxeter_degrees, is_spherical, spherical_poset
from .decomposition import BuildingDecomposition
from .intlinalg import OMEGA, GradedGroup, echelon_basis


@dataclass(frozen=True)
class GrowthSeries:
    """Truncated counts of elements with a fixed descent set, by length."""

    type: tuple
    coefficients: tuple

    def to_json(self):
        return {"T": list(self.type), "coefficients": list(self.coefficients)}


def thin_multiplicity_series(poset, types, radius):
    """For each T of ``types``, in order, a_i = #{w : l(w) = i, In(w) = T}
    for i <= radius, from Steinberg's formula over the spherical subsets
    ``poset``; no group element is enumerated.

    Steinberg's identity 1/W(1/t) = sum over spherical U of
    (-1)^|U| / W_U(t), read at 1/t on the subgroup of each V <= S, gives

        1/W_V(t) = F_V(t) = sum over spherical U <= V of (-1)^|U| t^N_U / W_U(t)

    with N_U the degree of W_U.  The w with In(w) <= V are the minimal
    coset representatives for W_{S-V}, counted by W(t) F_{S-V}(t), so
    Moebius inversion gives a_R = W * sum over V <= R of
    (-1)^|R-V| F_{S-V}.  Summing over V first leaves only the U >= R:

        a_R(t) = W(t) * sum over spherical U >= R of (-1)^|U-R| t^N_U / W_U(t)

    and W = 1/F_S.  Every W_U is the product of [d]_t over the degrees d
    of ``coxeter_degrees`` and has constant term 1, so the series are
    integer recurrences modulo t^(radius+1).  The signed terms and 1/W are
    computed once and shared by every T.
    """
    matrix = poset.matrix
    types = [frozenset(T) for T in types]
    for T in types:
        if not is_spherical(matrix, T):
            raise ValueError(f"{sorted(T)} is not a spherical subset")
    if radius < 0:
        raise ValueError(f"growth radius must be >= 0, got {radius}")
    n = radius + 1
    terms = []  # (U, (-1)^|U| t^N_U / W_U(t))
    for U in poset:
        sign = (-1) ** len(U)
        terms.append((U, [sign * c for c in _steinberg_term(coxeter_degrees(matrix, U), n)]))
    inverse_w = [sum(column) for column in zip(*(term for _, term in terms))]  # F_S = 1/W
    out = []
    for T in types:
        sign = (-1) ** len(T)
        above = [sign * sum(column) for column in zip(*(term for U, term in terms if T <= U))]
        counts = _divide(above, inverse_w)
        out.append(GrowthSeries(tuple(sorted(T, key=matrix.index)), tuple(counts)))
    return out


def _steinberg_term(degrees, n):
    """t^N / W_T(t) modulo t^n, for W_T the product of [d]_t = (1 - t^d) /
    (1 - t) over the degrees d and N = sum(d - 1) its degree."""
    shift = sum(d - 1 for d in degrees)
    if shift >= n:
        return [0] * n
    series = [1] + [0] * (n - shift - 1)
    for d in degrees:
        series = [c - (series[k - 1] if k else 0) for k, c in enumerate(series)]
        for k in range(d, len(series)):
            series[k] += series[k - d]
    return [0] * shift + series


def _divide(num, den):
    """num / den modulo t^len(num), for den with constant term 1."""
    out = []
    for k, c in enumerate(num):
        out.append(c - sum(den[j] * out[k - j] for j in range(1, k + 1)))
    return out


@dataclass
class HcContribution:
    """The term H(X, X^{S-T}) tensor Z^multiplicity of one spherical T."""

    type: tuple
    local: GradedGroup  # H(X, X^{S-T})
    multiplicity: object  # int or OMEGA
    series: GrowthSeries | None = None

    def graded(self):
        return self.local.tensor_free(self.multiplicity)

    def to_json(self):
        out = {
            "T": list(self.type),
            "local": self.local.to_json(),
            "multiplicity": self.multiplicity,
        }
        if self.series is not None:
            out["series"] = self.series.to_json()
        return out


@dataclass
class HcReport:
    matrix_labels: tuple
    thickness: str
    w_finite: bool
    contributions: list
    totals: GradedGroup

    def to_json(self):
        degrees = sorted(
            set(self.totals.degrees())
            | {k for c in self.contributions for k in c.local.degrees()}
        )
        rows = []
        for k in degrees:
            rows.append(
                {
                    "degree": k,
                    "total": self.totals[k].to_json(),
                    "contributions": [
                        {
                            "T": list(c.type),
                            "local": c.local[k].to_json(),
                            "multiplicity": c.multiplicity,
                        }
                        for c in self.contributions
                        if not c.local[k].is_zero()
                    ],
                }
            )
        return {
            "gens": list(self.matrix_labels),
            "thickness": self.thickness,
            "w_finite": self.w_finite,
            "degrees": rows,
            "contributions": [c.to_json() for c in self.contributions],
        }


def formula_terms(poset, locals_, multiplicity, growth_radius=None):
    """The right side of the main formula: one ``HcContribution`` per
    (T, H(X, X^{S-T})) of ``locals_``, with ``multiplicity(T)`` the rank of
    hat(A)^T (or ``OMEGA``), and their direct sum.  ``poset`` holds the
    spherical subsets of the type.  A ``growth_radius`` attaches to each
    term its thin descent-class series.

    The tensor is rank multiplication plus torsion replication, valid
    because every hat(A)^T is free.
    """
    matrix = poset.matrix
    series = [None] * len(locals_)
    if growth_radius is not None:
        series = thin_multiplicity_series(poset, [T for T, _ in locals_], growth_radius)
    terms = []
    total = GradedGroup({})
    for (T, local), growth in zip(locals_, series):
        term = HcContribution(tuple(sorted(T, key=matrix.index)), local, multiplicity(T), growth)
        terms.append(term)
        total = total.direct_sum(term.graded())
    return terms, total


def type_mismatch(system_matrix, matrix):
    """The error text for a chamber system whose type is not the matrix's.
    It names both generator lists: a product building renames a repeated
    factor's generators (``plane(3)xplane(3)`` has ``s t s1 t1``)."""
    return (
        "chamber system type does not match the matrix: chamber system generators "
        f"{' '.join(system_matrix.labels)}, matrix generators {' '.join(matrix.labels)}"
    )


def hc_standard_realization(matrix, thickness="thin", growth_radius=None):
    """Per-degree report for the compactly supported cohomology of the
    standard realization.

    ``thickness`` is ``"thin"``, a concrete ChamberSystem of matching
    type, or ``("regular", {s: q_s})`` for a symbolic thick building
    (infinite type only; multiplicities are then not quantified).
    A ``growth_radius`` attaches to each type of a thin report, finite or
    not, its descent-class series up to that length; any other thickness
    refuses it.
    """
    if growth_radius is not None and thickness != "thin":
        raise ValueError(
            "growth_radius counts descent classes of the thin type; "
            "it does not apply to a concrete or regular thickness"
        )
    w_finite = is_spherical(matrix, matrix.labels)
    poset = spherical_poset(matrix)
    locals_ = local_groups(nerve(poset), poset)

    if thickness == "thin":
        label = "thin"
        if w_finite:
            # Solomon: #{w : In(w) = T} is the sum over U >= T of
            # (-1)^|U-T| |W|/|W_U|, with |W_U| the product of its degrees
            orders = {U: prod(coxeter_degrees(matrix, U)) for U in poset}
            order = orders[frozenset(matrix.labels)]

            def multiplicity(T):
                return sum((-1) ** len(U - T) * (order // n) for U, n in orders.items() if T <= U)

        else:

            def multiplicity(T):
                # only the identity has empty descent set
                return 1 if not T else OMEGA

    elif isinstance(thickness, tuple) and thickness and thickness[0] == "regular":
        label = "regular"
        if w_finite:
            raise ValueError(
                "regular thick reports are symbolic and need an infinite type; "
                "pass a concrete chamber system instead"
            )
        sizes = thickness[1]
        for s in matrix.labels:
            if sizes.get(s, 2) < 2:
                raise ValueError("regular panel sizes must be at least 2")

        def multiplicity(T):
            return OMEGA

    else:
        label = "concrete"
        if not thickness.matrix.same_type(matrix):
            raise ValueError(type_mismatch(thickness.matrix, matrix))
        multiplicity = BuildingDecomposition(thickness).splitting_rank

    contributions, totals = formula_terms(poset, locals_, multiplicity, growth_radius)
    return HcReport(matrix.labels, label, w_finite, contributions, totals)


@dataclass
class VcdReport:
    value: int
    w_finite: bool
    witnesses: list  # types T achieving the maximum

    def to_json(self):
        return {
            "vcd": self.value,
            "w_finite": self.w_finite,
            "witness_types": [list(T) for T in self.witnesses],
        }


def vcd(matrix):
    """max over spherical T of the top degree with H(K, K^{S-T}) nonzero.

    Torsion counts as nonvanishing.  For a finite group the convention
    value 0 is reported with a flag.
    """
    w_finite = is_spherical(matrix, matrix.labels)
    if w_finite:
        return VcdReport(0, True, [])
    best = 0
    witnesses = []
    poset = spherical_poset(matrix)
    for T, local in local_groups(nerve(poset), poset):
        top = local.top_degree()
        if top is None:
            continue
        if top > best:
            best = top
            witnesses = [tuple(sorted(T, key=matrix.index))]
        elif top == best:
            witnesses.append(tuple(sorted(T, key=matrix.index)))
    return VcdReport(best, False, witnesses)


@dataclass
class DualityReport:
    is_duality: bool
    dimension: int | None
    offending: list  # [T, reason] entries
    details: list  # per T: degrees of the reduced groups of K^{S-T}

    def to_json(self):
        return {
            "is_duality": self.is_duality,
            "dimension": self.dimension,
            "offending": self.offending,
            "details": self.details,
        }


def duality_check(matrix):
    """Free-and-concentrated test for the punctured nerve cohomology.

    Passes when every reduced group of K^{S-T}, which is that of the nerve
    restricted to S-T, over spherical T is free abelian and all the
    nonzero ones sit in one common degree n-1.  ``local_groups`` of the
    nerve holds the reduced group in degree k - 1 in its degree k, so the
    groups are read off it shifted down by one.  The empty subcomplex (T
    the full set, finite types) has H^0 = Z there, its reduced group in
    degree -1.  Reports the offending types otherwise.
    """
    S = frozenset(matrix.labels)
    details = []
    offending = []
    degrees_seen = set()
    poset = spherical_poset(matrix)
    for T, local in local_groups(nerve(poset), poset):
        T_sorted = sorted(T, key=matrix.index)
        degs = [k - 1 for k in local.degrees()]
        details.append({"T": T_sorted, "degrees": degs, "empty_complex": T == S})
        if not local.is_free():
            offending.append([T_sorted, "torsion in the punctured cohomology"])
        if len(degs) > 1:
            offending.append([T_sorted, f"spread over degrees {degs}"])
        degrees_seen.update(degs)
    if len(degrees_seen) > 1:
        spread = sorted(degrees_seen)
        for entry in details:
            if entry["degrees"] and entry["degrees"] != [max(spread)]:
                offending.append(
                    [entry["T"], f"degree {entry['degrees']} below the top {max(spread)}"]
                )
    is_duality = not offending and bool(degrees_seen)
    dimension = (max(degrees_seen) + 1) if is_duality else None
    return DualityReport(is_duality, dimension, offending, details)


@dataclass
class GradedModuleReport:
    rows: list  # per p: {"p": p, "graded": GradedGroup}
    totals: GradedGroup
    matches_hc: bool

    def to_json(self):
        return {
            "rows": [{"p": p, "graded": g.to_json()} for p, g in self.rows],
            "totals": self.totals.to_json(),
            "matches_hc": self.matches_hc,
        }


def graded_module_report(system):
    """Associated-graded ranks: per p, the sum over |T| = p of
    H(K, K^{S-T}) tensored with D^T; the rows must total the realization
    cohomology of the standard realization of ``system``.

    The rank of D^T is read as rank A^T - rank A^{>T}, the length of an
    echelon basis of A^{>T}: an elimination independent of the Smith
    complement whose rank ``hc_standard_realization`` multiplies by.
    """
    # raises TorsionObstruction when some D^T has torsion
    hc = hc_standard_realization(system.matrix, system)
    locals_ = {frozenset(c.type): c.local for c in hc.contributions}
    dec = BuildingDecomposition(system)
    max_p = dec.poset.max_cardinality
    rows = []
    totals = GradedGroup({})
    for p in range(max_p + 1):
        graded = GradedGroup({})
        for T in dec.poset:
            if len(T) != p:
                continue
            rT = dec.residue_count(T)
            rank = rT - len(echelon_basis(rT, dec.above_in_coordinates(T)))
            graded = graded.direct_sum(locals_[T].tensor_free(rank))
        rows.append((p, graded))
        totals = totals.direct_sum(graded)
    return GradedModuleReport(rows, totals, totals == hc.totals)
