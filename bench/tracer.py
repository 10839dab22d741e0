"""Spans and counters around coxtop's public functions, installed from outside.

``Tracer.install()`` replaces each function named in ``LAYERS`` with a
wrapper at every binding site in the ``coxtop.*`` modules (so names
imported with ``from .x import y`` are caught) and on the defining class
for methods.  It is only called in traced passes, in a fresh process.

A span is ``[name, start, end, parent, job, excluded]``: ``parent`` is the
index of the enclosing span (the job's own span at top level), ``job`` the
index of the job span, and ``excluded`` the time the tracer spent on
bookkeeping for direct children inside this span.  Self time is duration
minus the union of the direct children's intervals minus ``excluded``, so
over one job the self times of all spans plus the tracer's bookkeeping add
up to the job's wall time.

Hot leaves (``ChamberSystem.panel_of``, ``QF.__mul__``, ``four_cos_int``)
get counters instead of spans; their wrapper cost lands in the caller's
self time and shows in ``trace.overhead_ratio``.

``smith_normal_form`` serves two paths: the coboundary path (called by
``CochainComplex.cohomology``) and the lattice path (called by
``direct_complement`` and ``quotient_structure``).  Its spans and metrics
are named after the path of the calling span, so a change to one path
does not hide in the other's numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

# module -> (end-to-end metric and workload it should move,
#            [(function or Class.method, "span" | "counter", metrics)])
LAYERS = {
    "coxmatrix": ("wall_s on infinite-types", [
        ("is_spherical", "span", ("calls", "self_s")),
        ("cosine_gram_definite", "span", ("calls", "self_s")),
        ("spherical_poset", "span", ("calls", "distinct_ratio")),
    ]),
    "qfield": ("wall_s on infinite-types", [
        ("four_cos_int", "counter", ("calls", "distinct_ratio")),
        ("QF.__mul__", "counter", ("calls",)),
    ]),
    "groups": ("wall_s and peak_rss_mb on infinite-types", [
        ("enumerate_ball", "span", ("calls", "self_s", "elements", "distinct_ratio")),
        ("enumerate_group", "span", ("calls", "self_s")),
    ]),
    "chambers": ("wall_s on thick-decomposition, and setup_s", [
        ("verify_building", "span", ("self_s",)),
        ("gallery_distances", "span", ("calls", "self_s")),
        ("ChamberSystem.panel_of", "counter", ("calls",)),
        ("residue_partition_map", "span", ("calls", "self_s", "distinct_ratio")),
        ("product_building", "span", ("self_s",)),
    ]),
    "complexes": ("wall_s on davis-realization", [
        ("davis_chamber", "span", ("self_s",)),
        ("relative_cochain_complex", "span", ("calls", "self_s", "cells", "nnz")),
        ("relative_cohomology", "span", ("calls", "self_s")),
    ]),
    "intlinalg": ("wall_s and peak_rss_mb on davis-realization (coboundary path: "
                  "smith_normal_form.coboundary, CochainComplex.cohomology); "
                  "wall_s on thick-decomposition (lattice path: smith_normal_form.lattice, "
                  "direct_complement, determinant, matmul, column_hermite, "
                  "quotient_structure)", [
        ("smith_normal_form", "span",
         ("calls", "self_s", "entries", "nnz", "distinct_ratio", "max_bits")),
        ("CochainComplex.cohomology", "span", ("calls", "self_s")),
        ("direct_complement", "span", ("calls", "self_s")),
        ("determinant", "span", ("calls", "self_s", "max_dim")),
        ("matmul", "span", ("calls", "self_s", "mults")),
        ("column_hermite", "span", ("calls", "self_s")),
        ("quotient_structure", "span", ("calls", "self_s")),
    ]),
    "decomposition": ("wall_s on thick-decomposition", [
        ("BuildingDecomposition.witness", "span", ("self_s",)),
        ("BuildingDecomposition.splitting", "span", ("calls", "self_s", "hit_ratio")),
        ("BuildingDecomposition.inclusion_matrix", "span", ("calls", "self_s")),
    ]),
    "realization": ("wall_s on davis-realization", [
        ("realize", "span", ("calls", "self_s", "cells")),
        ("realization_cohomology", "span", ("self_s",)),
        ("formula_cross_check", "span", ("self_s",)),
    ]),
    "hc": ("wall_s on infinite-types", [
        ("hc_standard_realization", "span", ("self_s",)),
        ("thin_multiplicity_series", "span", ("calls", "self_s")),
    ]),
    "cli": ("wall_s on thick-decomposition", [
        ("main", "span", ("self_s",)),
    ]),
}

# Metrics of the traced run that are not per function.
EXTRA_METRICS = {
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.bookkeeping_s": ("s", "lower"),
    "trace.job_self_s": ("s", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
    "trace.largest_module_share": ("ratio", "lower"),
}

UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "hit_ratio": ("ratio", "higher"),
    "elements": ("count", "lower"),
    "cells": ("count", "lower"),
    "nnz": ("count", "lower"),
    "entries": ("count", "lower"),
    "max_bits": ("bits", "lower"),
    "max_dim": ("count", "lower"),
    "mults": ("count", "lower"),
}


# The span that calls smith_normal_form on the coboundary path; every
# other caller is on the lattice path.
SNF = "intlinalg.smith_normal_form"
SNF_COBOUNDARY_CALLER = "intlinalg.CochainComplex.cohomology"
SNF_PATHS = ("coboundary", "lattice")


def target_name(module, target):
    return f"{module}.{target.replace('__', '')}"


def metric_prefixes(module, target):
    """Names the target's metrics start with: one per path for SNF."""
    name = target_name(module, target)
    return [f"{name}.{path}" for path in SNF_PATHS] if name == SNF else [name]


# Modules with at least one span; counter-only modules have no self time.
SPAN_MODULES = tuple(
    module for module, (_, targets) in LAYERS.items() if any(k == "span" for _, k, _ in targets)
)


def per_layer_metrics():
    """[(name, unit, better)] in report order: per function, per module, extras."""
    out = []
    for module, (_, targets) in LAYERS.items():
        for target, _, metrics in targets:
            for prefix in metric_prefixes(module, target):
                out.extend((f"{prefix}.{m}",) + UNITS[m] for m in metrics)
    out.extend((f"{module}.self_s", "s", "lower") for module in SPAN_MODULES)
    out.extend((name,) + spec for name, spec in EXTRA_METRICS.items())
    return out


# ------------------------------------------------------- argument digests


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _matrix_digest(a):
    return hash(tuple(map(tuple, a)))


def _bits(*matrices):
    return max(
        (abs(x).bit_length() for m in matrices for row in m for x in row), default=0
    )


class Tracer:
    """Collects spans, call counts, distinct argument digests and sums."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.calls = defaultdict(int)
        self.digests = defaultdict(set)
        self.sums = defaultdict(int)
        self.maxima = defaultdict(int)
        self._content = {}  # id(obj) -> (obj, key); holds obj so ids stay unique

    # ------------------------------------------------------------ spans

    def _open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, 0.0])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def run_job(self, name, fn):
        """Run one job under its own top-level span."""
        index = self._open("job:" + name)
        self.spans[index][4] = index
        self.job = index
        try:
            return fn()
        finally:
            self._close(index)
            self.job = -1

    def _charge(self, seconds):
        """Book tracer time against the enclosing span, not its self time."""
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    # --------------------------------------------------------- wrappers

    def _content_key(self, obj):
        """Digest of an object's content (its text form, or its identity when
        it has none), computed once per object."""
        entry = self._content.get(id(obj))
        if entry is None:
            entry = (obj, obj.to_text() if hasattr(obj, "to_text") else id(obj))
            self._content[id(obj)] = entry
        return entry[1]

    def _before(self, name, args, kwargs):
        """Argument-side measurements; runs before the span opens."""
        if name == "coxmatrix.spherical_poset":
            self.digests[name].add(self._content_key(_arg(args, kwargs, 0, "mat")))
        elif name == "groups.enumerate_ball":
            mat = _arg(args, kwargs, 0, "mat")
            self.digests[name].add((self._content_key(mat), _arg(args, kwargs, 1, "radius")))
        elif name == "chambers.residue_partition_map":
            system = _arg(args, kwargs, 0, "system")
            T = frozenset(_arg(args, kwargs, 1, "T"))
            self.digests[name].add((self._content_key(system), T))
        elif name == "decomposition.BuildingDecomposition.splitting":
            T = frozenset(_arg(args, kwargs, 1, "T"))
            self.digests[name].add((self._content_key(args[0]), T))
        elif name.startswith(SNF):
            a = _arg(args, kwargs, 0, "a")
            self.digests[name].add(_matrix_digest(a))
            self.sums[name + ".entries"] += len(a) * (len(a[0]) if a else 0)
            self.sums[name + ".nnz"] += sum(1 for row in a for x in row if x)
        elif name == "intlinalg.determinant":
            a = _arg(args, kwargs, 0, "a")
            self.maxima[name + ".max_dim"] = max(self.maxima[name + ".max_dim"], len(a))
        elif name == "intlinalg.matmul":
            a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
            self.sums[name + ".mults"] += len(a) * len(b) * (len(b[0]) if b else 0)

    def _after(self, name, result):
        """Result-side measurements; runs after the span closes."""
        if name == "groups.enumerate_ball":
            self.sums[name + ".elements"] += len(result)
        elif name == "complexes.relative_cochain_complex":
            self.sums[name + ".cells"] += sum(result.dims.values())
            self.sums[name + ".nnz"] += sum(
                1 for m in result.maps.values() for row in m for x in row if x
            )
        elif name.startswith(SNF):
            bits = _bits(result.U, result.D, result.V)
            self.maxima[name + ".max_bits"] = max(self.maxima[name + ".max_bits"], bits)
        elif name == "realization.realize":
            self.sums[name + ".cells"] += sum(result.f_vector())

    def _snf_name(self):
        caller = self.spans[self.stack[-1]][0] if self.stack else ""
        return f"{SNF}.{'coboundary' if caller == SNF_COBOUNDARY_CALLER else 'lattice'}"

    def span_wrapper(self, fn_name, fn):
        calls = self.calls
        spans = self.spans
        by_path = fn_name == SNF

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            name = self._snf_name() if by_path else fn_name
            calls[name] += 1
            self._before(name, args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._after(name, result)
            span = spans[index]
            self._charge((span[1] - t0) + (perf_counter() - span[2]))
            return result

        return wrapper

    def counter_wrapper(self, name, fn, keep_args):
        calls = self.calls
        digests = self.digests[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keep_args:
                digests.add(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every function named in LAYERS wherever coxtop binds it."""
        import coxtop

        modules = [coxtop] + [
            importlib.import_module(f"coxtop.{info.name}")
            for info in pkgutil.iter_modules(coxtop.__path__)
        ]
        for module, (_, targets) in LAYERS.items():
            home = sys.modules[f"coxtop.{module}"]
            for target, kind, metrics in targets:
                name = target_name(module, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                else:
                    owner, attr = None, target
                    original = getattr(home, attr)
                if kind == "span":
                    wrapper = self.span_wrapper(name, original)
                else:
                    wrapper = self.counter_wrapper(name, original, "distinct_ratio" in metrics)
                if owner is not None:
                    for key, value in list(owner.__dict__.items()):
                        if value is original:  # QF.__rmul__ is QF.__mul__
                            setattr(owner, key, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # ---------------------------------------------------------- results

    def layer_metrics(self, wall_s, first_span):
        """Per-layer metrics for the traced pass whose spans start at
        index first_span; per-function metrics also cover the set-up."""
        selfs = self_times(self.spans)
        per_name = defaultdict(float)
        per_module = defaultdict(float)
        job_self = 0.0
        in_pass = {
            i for i in range(first_span, len(self.spans)) if self.spans[i][0].startswith("job:")
        }
        for span, own in zip(self.spans, selfs):
            name = span[0]
            if name.startswith("job:"):
                if span[4] in in_pass:
                    job_self += own
                continue
            per_name[name] += own
            if span[4] in in_pass:
                per_module[name.split(".")[0]] += own
        bookkeeping = sum(
            self.spans[i][5] for i in range(len(self.spans)) if self.spans[i][4] in in_pass
        )
        out = {}
        names = [
            (name, metrics)
            for module, (_, targets) in LAYERS.items()
            for target, _, metrics in targets
            for name in metric_prefixes(module, target)
        ]
        for name, metrics in names:
            calls = self.calls[name]
            for metric in metrics:
                key = f"{name}.{metric}"
                if metric == "calls":
                    value = calls
                elif metric == "self_s":
                    value = per_name[name]
                elif metric == "distinct_ratio":
                    value = len(self.digests[name]) / calls if calls else 0.0
                elif metric == "hit_ratio":
                    value = 1 - len(self.digests[name]) / calls if calls else 0.0
                elif metric.startswith("max_"):
                    value = self.maxima[key]
                else:
                    value = self.sums[key]
                out[key] = value
        for module in SPAN_MODULES:
            out[f"{module}.self_s"] = per_module[module]
        out["trace.bookkeeping_s"] = bookkeeping
        out["trace.job_self_s"] = job_self
        accounted = sum(per_module.values()) + job_self + bookkeeping
        out["trace.accounted_ratio"] = accounted / wall_s if wall_s else 0.0
        out["trace.largest_module_share"] = max(per_module.values(), default=0.0) / wall_s
        return out

    def dump_spans(self, path):
        """Write the spans as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of each span: its duration, minus the union of its direct
    children's intervals clipped to it, minus its ``excluded`` time."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _, excluded) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - excluded)
    return out


def module_shares(metrics, wall_s):
    """Share of the traced pass wall time spent in each module's own code."""
    return sorted(
        ((module, metrics[f"{module}.self_s"] / wall_s) for module in SPAN_MODULES),
        key=lambda pair: -pair[1],
    )

