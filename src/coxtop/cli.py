"""Command-line interface.

Verbs map one-to-one onto the library operations; reports print as plain
text by default and as canonical JSON with ``--json`` (sorted keys, no
whitespace), so identical inputs produce byte-identical output.

Exit codes: 0 success, 1 bad input (usage errors included), 2 a
verification report failed (non-unit witness determinant, mismatched
identity, failed building axiom, a required direct summand with
torsion) - distinguishing broken invariants from broken invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import combinations

from .chambers import (
    ChamberError,
    digon_building,
    parse_chamber_system,
    product_building,
    projective_plane_building,
    thin_building,
    verify_building,
)
from .complexes import classical_chamber, local_groups, metric_flag_check, model_chamber, nerve
from .complexes import davis_chamber as davis_chamber_of
from .coxmatrix import CoxeterError, CoxeterMatrix, parse_coxeter_matrix, spherical_poset
from .decomposition import (
    BuildingDecomposition,
    filtration_ranks,
    sigma_formula_check,
)
from .hc import (
    duality_check,
    graded_module_report,
    hc_standard_realization,
    thin_multiplicity_series,
    type_mismatch,
    vcd,
)
from .intlinalg import TorsionObstruction
from .realization import realization_cochain_complex, realize


class InputError(ValueError):
    pass


class NotABuilding(Exception):
    """A chamber file that fails a building axiom (exit code 2)."""


def _read_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_coxeter_matrix(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_building_factor(token, matrix):
    token = token.strip()
    if token == "thin":
        if matrix is None:
            raise InputError("'thin' needs a Coxeter matrix file argument")
        return thin_building(matrix)
    if token == "a1":
        return thin_building(CoxeterMatrix(("u",), {}))
    if token == "fano":
        return projective_plane_building(2)
    if token.startswith("digon(") and token.endswith(")"):
        try:
            p, q = (int(x) for x in token[6:-1].split(","))
        except ValueError:
            raise InputError(f"bad digon spec {token!r}") from None
        return digon_building(p, q)
    if token.startswith("plane(") and token.endswith(")"):
        try:
            q = int(token[6:-1])
        except ValueError:
            raise InputError(f"bad plane spec {token!r}") from None
        return projective_plane_building(q)
    raise InputError(f"unknown building spec {token!r}")


def _relabel(system, suffix):
    mapping = {s: s + suffix for s in system.matrix.labels}
    mat = CoxeterMatrix(
        tuple(mapping[s] for s in system.matrix.labels),
        {
            frozenset(mapping[x] for x in pair): m
            for pair, m in system.matrix.entries.items()
        },
    )
    panels = {mapping[s]: system.panels[s] for s in system.matrix.labels}
    return type(system)(mat, panels, system.size)


def resolve_building(args, matrix):
    """A chamber system from --chamber-file, --building, or thin default."""
    if getattr(args, "chamber_file", None):
        try:
            with open(args.chamber_file, "r", encoding="utf-8") as fh:
                return parse_chamber_system(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {args.chamber_file}: {exc}") from exc
    spec = getattr(args, "building", None) or "thin"
    factors = [_parse_building_factor(tok, matrix) for tok in spec.split("x")]
    out = factors[0]
    for i, factor in enumerate(factors[1:], start=1):
        if set(out.matrix.labels) & set(factor.matrix.labels):
            factor = _relabel(factor, str(i))
        out = product_building(out, factor)
    return out


def resolve_verified_building(args, matrix):
    """``resolve_building``, with a chamber file checked against the
    building axioms and then against the type of the matrix; the built-in
    specs are buildings by construction and define their own type."""
    system = resolve_building(args, matrix)
    if args.chamber_file:
        report = verify_building(system)
        if not report.passed:
            raise NotABuilding(_failed_checks(report))
        if not system.matrix.same_type(matrix):
            raise InputError(type_mismatch(system.matrix, matrix))
    return system


def _failed_checks(report):
    lines = [
        f"{f['generator']}-panel {f['panel']} has fewer than two chambers"
        for f in report.panel_failures
    ]
    lines.extend(
        f"rank-2 residue {c['pair']} at chamber {c['residue_min_chamber']}: "
        f"girth {c['girth']}, diameter {c['diameter']}, a generalized "
        f"{c['m']}-gon has girth {c['expected_girth']}, diameter {c['expected_diameter']}"
        for c in report.residue_checks
        if not c["ok"]
    )
    if not report.distance_ok:
        lines.append(f"W-distance: {report.distance_note}")
    return "chamber file is not a building:\n  " + "\n  ".join(lines)


def _emit(args, payload, human):
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(human)
        if not human.endswith("\n"):
            sys.stdout.write("\n")


def _check_labels(args, labels):
    """Refuse --T or --U labels that name no generator, and --U without --T."""
    if getattr(args, "U", None) is not None and args.T is None:
        raise InputError("--U needs --T")
    for option in ("T", "U"):
        for s in getattr(args, option, None) or ():
            if s not in labels:
                raise InputError(
                    f"--{option}: unknown generator {s!r} (generators: {' '.join(labels)})"
                )


def _graded_lines(graded, prefix="  "):
    if not graded.groups:
        return [f"{prefix}0"]
    return [f"{prefix}H^{k} = {graded[k]}" for k in graded.degrees()]


# ------------------------------------------------------------ verb handlers


def cmd_spherical_subsets(args):
    mat = _read_matrix(args.matrix)
    poset = spherical_poset(mat)
    rows = ["{" + ",".join(sorted(T, key=mat.index)) + "}" for T in poset]
    _emit(args, poset.to_json(), "\n".join(rows))
    return 0


def cmd_nerve(args):
    mat = _read_matrix(args.matrix)
    faces = nerve(spherical_poset(mat)).to_json()
    human = "\n".join(" ".join(sorted(f, key=mat.index)) for f in faces)
    _emit(args, faces, human or "(empty nerve)")
    return 0


def cmd_davis_chamber(args):
    mat = _read_matrix(args.matrix)
    K = davis_chamber_of(mat)
    payload = {
        "faces": K.complex.to_json(),
        "mirrors": {s: K.mirror(s).to_json() for s in mat.labels},
        "f_vector": list(K.complex.f_vector()),
    }
    human = (
        f"f-vector: {K.complex.f_vector()}\n"
        + "\n".join(f"mirror {s}: f-vector {K.mirror(s).f_vector()}" for s in mat.labels)
    )
    _emit(args, payload, human)
    return 0


def cmd_cohomology(args):
    mat = _read_matrix(args.matrix)
    _check_labels(args, mat.labels)
    poset = spherical_poset(mat)
    L = nerve(poset) if args.model == "K" else classical_chamber(mat).nerve()
    if args.T is not None:
        types = [frozenset(args.T)]
        if types[0] not in poset:
            raise InputError(f"--T {args.T} is not a spherical subset")
    else:
        types = list(poset)
    payload = []
    lines = []
    for T, h in local_groups(L, types):
        name = "{" + ",".join(sorted(T, key=mat.index)) + "}"
        payload.append({"T": sorted(T, key=mat.index), "groups": h.to_json()})
        lines.append(f"H(X, X^(S-{name})):")
        lines.extend(_graded_lines(h))
    _emit(args, payload, "\n".join(lines))
    return 0


def _open_out(path):
    """``path`` opened for writing, or a null context when there is none;
    an unwritable path is bad input."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _realization_report(system, X):
    """The f-vector and cohomology of the realization of ``system`` over
    X, as JSON payload and plain text, both read off its cochain complex:
    the rank in degree k is the number of glued k-cells, as ``realize``
    checks when it glues them."""
    cc = realization_cochain_complex(system, X)
    f_vector = tuple(cc.dims.get(k, 0) for k in range(X.complex.dim + 1))
    h = cc.cohomology()
    payload = {"f_vector": list(f_vector), "cohomology": h.to_json()}
    human = f"f-vector: {f_vector}\n" + "\n".join(_graded_lines(h))
    return payload, human


def cmd_realize(args):
    mat = _read_matrix(args.matrix)
    system = resolve_verified_building(args, mat)
    X = model_chamber(system.matrix, args.model)
    # opened once the inputs are read (a chamber file may be the same
    # path) and before any work, so a refused --out leaves stdout empty
    with _open_out(args.out) as out:
        payload, human = _realization_report(system, X)
        if args.json:
            payload["faces"] = realize(system, X).to_json()
        _emit(args, payload, human)
        if out is not None:
            out.write(system.to_text())
    return 0


def cmd_coxeter_complex(args):
    mat = _read_matrix(args.matrix)
    _emit(args, *_realization_report(thin_building(mat), classical_chamber(mat)))
    return 0


def cmd_decompose(args):
    mat = _read_matrix(args.matrix)
    system = resolve_verified_building(args, mat)
    dec = BuildingDecomposition(system)
    rows = []
    lines = [f"chambers: {system.size}"]
    for T in dec.poset:
        name = "{" + ",".join(sorted(T, key=system.matrix.index)) + "}"
        d = dec.d_quotient(T)
        rows.append(
            {
                "T": sorted(T, key=system.matrix.index),
                "residues": dec.residue_count(T),
                "quotient": d.to_json(),
                "summand_rank": dec.splitting_rank(T),
            }
        )
        lines.append(
            f"type {name}: residues {dec.residue_count(T)}, quotient {d}, "
            f"summand rank {dec.splitting_rank(T)}"
        )
    _emit(args, {"chambers": system.size, "types": rows}, "\n".join(lines))
    return 0


def cmd_verify_decomposition(args):
    mat = _read_matrix(args.matrix)
    system = resolve_verified_building(args, mat)
    _check_labels(args, system.matrix.labels)
    dec = BuildingDecomposition(system)
    T = frozenset(args.T or [])
    witness = dec.witness(T)
    payload = witness.to_json(list(system.matrix.labels))
    human = (
        f"base type: {sorted(T, key=system.matrix.index)}\n"
        f"rank sum: {witness.rank_sum()} over {system.size} chambers\n"
        f"determinant: {witness.determinant}\n"
        f"ok: {witness.ok}" + (f"\nnote: {witness.note}" if witness.note else "")
    )
    _emit(args, payload, human)
    return 0 if witness.ok else 2


def cmd_sigma_check(args):
    mat = _read_matrix(args.matrix)
    system = resolve_verified_building(args, mat)
    _check_labels(args, system.matrix.labels)
    dec = BuildingDecomposition(system)
    S = set(system.matrix.labels)
    pairs = []
    if args.T is not None:
        base = frozenset(args.T)
        mirrors = [frozenset(args.U)] if args.U is not None else [
            frozenset(c)
            for r in range(len(S - base) + 1)
            for c in combinations(sorted(S - base), r)
        ]
        pairs = [(base, U) for U in mirrors]
    else:
        for T in dec.poset:
            free = sorted(S - T)
            for r in range(len(free) + 1):
                for U in combinations(free, r):
                    pairs.append((T, frozenset(U)))
    reports = [sigma_formula_check(system, T, U) for T, U in pairs]
    ok = all(r.ok for r in reports)
    payload = {"ok": ok, "checks": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        status = "ok" if r.ok else "MISMATCH"
        lines.append(f"T={list(r.base_type)} U={list(r.mirror_set)}: {status}")
    lines.append(f"all: {'ok' if ok else 'MISMATCH'}")
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 2


def cmd_hc(args):
    mat = _read_matrix(args.matrix)
    if args.chamber_file or args.building:
        if args.N is not None:
            raise InputError(
                "--N counts descent classes of the thin type; "
                "it does not apply with --building or --chamber-file"
            )
        thickness = resolve_verified_building(args, mat)
        mat = thickness.matrix  # a built-in spec's own type
    else:
        thickness = "thin"
    report = hc_standard_realization(mat, thickness, growth_radius=args.N)
    lines = [f"thickness: {report.thickness}", f"finite group: {report.w_finite}"]
    for k in report.totals.degrees():
        lines.append(f"H_c^{k} = {report.totals[k]}")
    if not report.totals.groups:
        lines.append("H_c = 0")
    _emit(args, report.to_json(), "\n".join(lines))
    return 0


def cmd_vcd(args):
    mat = _read_matrix(args.matrix)
    report = vcd(mat)
    _emit(args, report.to_json(), str(report.value))
    return 0


def cmd_duality(args):
    mat = _read_matrix(args.matrix)
    report = duality_check(mat)
    if report.is_duality:
        human = f"duality group of dimension {report.dimension}"
    else:
        human = "not a duality group\n" + "\n".join(
            f"offending T={T}: {reason}" for T, reason in report.offending
        )
    _emit(args, report.to_json(), human)
    return 0


def cmd_growth(args):
    mat = _read_matrix(args.matrix)
    if args.T is None:
        raise InputError("growth needs --T")
    if args.N is None:
        raise InputError("growth needs --N")
    _check_labels(args, mat.labels)
    [series] = thin_multiplicity_series(spherical_poset(mat), [args.T], args.N)
    _emit(args, series.to_json(), str(list(series.coefficients)))
    return 0


def cmd_filtration(args):
    mat = _read_matrix(args.matrix)
    system = resolve_verified_building(args, mat)
    report = filtration_ranks(system)
    graded = graded_module_report(system)
    payload = {
        "filtration": report.to_json(),
        "graded_modules": graded.to_json(),
    }
    lines = [f"convention: {report.convention}", f"ranks: {report.ranks}"]
    for p, g in enumerate(report.graded):
        lines.append(f"p={p}: {g}")
    lines.append(f"graded modules match totals: {graded.matches_hc}")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.matches and graded.matches_hc else 2


def cmd_verify_building(args):
    mat = _read_matrix(args.matrix) if args.matrix else None
    system = resolve_building(args, mat)
    report = verify_building(system)
    lines = [
        f"panel sizes ok: {report.panel_sizes_ok}",
        f"rank-2 residues ok: {report.residues_ok}",
        f"distance ok: {report.distance_ok} ({report.distance_note})",
        f"passed: {report.passed}",
    ]
    _emit(args, report.to_json(), "\n".join(lines))
    return 0 if report.passed else 2


def cmd_metric_flag(args):
    mat = _read_matrix(args.matrix)
    ok = metric_flag_check(mat)
    _emit(args, {"metric_flag": ok}, "true" if ok else "false")
    return 0 if ok else 2


HANDLERS = {
    "spherical-subsets": cmd_spherical_subsets,
    "nerve": cmd_nerve,
    "davis-chamber": cmd_davis_chamber,
    "cohomology": cmd_cohomology,
    "realize": cmd_realize,
    "coxeter-complex": cmd_coxeter_complex,
    "decompose": cmd_decompose,
    "verify-decomposition": cmd_verify_decomposition,
    "sigma-check": cmd_sigma_check,
    "hc": cmd_hc,
    "vcd": cmd_vcd,
    "duality": cmd_duality,
    "growth": cmd_growth,
    "filtration": cmd_filtration,
    "verify-building": cmd_verify_building,
    "metric-flag": cmd_metric_flag,
}

NEEDS_BUILDING = {
    "realize",
    "decompose",
    "verify-decomposition",
    "sigma-check",
    "hc",
    "filtration",
    "verify-building",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the bad-input code; argparse's own 2 would
    read as a failed verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="coxtop",
        description="Exact computations with Coxeter groups, buildings and "
        "the cohomology of their realizations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in HANDLERS:
        p = sub.add_parser(verb)
        if verb == "verify-building":
            p.add_argument("matrix", nargs="?", help="Coxeter matrix file (.cox)")
        else:
            p.add_argument("matrix", help="Coxeter matrix file (.cox)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if verb in ("cohomology", "verify-decomposition", "sigma-check", "growth"):
            p.add_argument("--T", nargs="*", default=None, help="generator labels")
        if verb == "sigma-check":
            p.add_argument("--U", nargs="*", default=None, help="mirror labels")
        if verb in ("hc", "growth"):
            p.add_argument("--N", type=int, default=None, help="truncation radius")
        if verb in ("cohomology", "realize"):
            p.add_argument(
                "--model", choices=("delta", "K"), default="K", help="model chamber"
            )
        if verb in NEEDS_BUILDING:
            p.add_argument("--chamber-file", default=None, help="chamber system file")
            p.add_argument(
                "--building",
                default=None,
                help="builder spec: thin | a1 | fano | digon(p,q) | plane(q), "
                "joined with 'x' for products",
            )
        if verb == "realize":
            p.add_argument("--out", default=None, help="write the chamber system here")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.verb](args)
    except (NotABuilding, TorsionObstruction) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (InputError, CoxeterError, ChamberError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
