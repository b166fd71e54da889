"""In-memory span recorder for the traced run, and the per-layer
metrics derived from its spans.

The recorder wraps asq's public functions from outside the package: each
wrapper replaces the function at every binding a caller looks it up by
(`asq.search.frattini` as well as `asq.groups.frattini`), and restores
the originals on `uninstall`.  Spans are (id, parent id, name, start,
end) tuples kept in a list until the round ends.

Three functions also carry probes that read asq's own search counters
(`SearchTrace`) or outcomes; the probes are installed in every round,
traced or not, because the oracle gate checks the node counts they read.
Work done inside forked `extend_arcs` workers records no spans; its node
counts come back through the probe.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

# (module, attribute, how): "span" records a span per call, "count" only
# counts calls (for functions called millions of times).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("search", "PlaneCatalogue.__init__", "span"),
    ("search", "plane_action", "span"),
    ("search", "arc_seeds", "span"),
    ("search", "extend_arcs", "span"),
    ("search", "lift_arc", "span"),
    ("search", "lemma53_counts", "span"),
    ("search", "brute_force_as_configs", "span"),
    ("permgroup", "PermGroup.order", "span"),
    ("permgroup", "PermGroup.stabilizer", "span"),
    ("permgroup", "min_image", "span"),
    ("permgroup", "is_min_image", "span"),
    ("permgroup", "compose", "count"),
    ("permgroup", "inverse", "count"),
    ("quadform", "singular_subspaces", "span"),
    ("quadform", "isometry_generators", "span"),
    ("quadform", "forms_equivalent", "span"),
    ("gf2", "rref", "count"),
    ("gf2", "span", "count"),
    ("gf2", "meet", "count"),
    ("_kernels", "pairwise_disjoint", "span"),
    ("groups", "frattini", "span"),
    ("groups", "complements", "span"),
    ("groups", "enumerate_elem_abelian_subgroups", "span"),
    ("groups", "product_set", "span"),
    ("groups", "centralizer", "span"),
    ("groups", "center", "span"),
    ("groups", "derived", "span"),
    ("asconfig", "structural_filter", "span"),
    ("asconfig", "good_subgroups", "span"),
    ("asconfig", "clique_size_qplus1", "span"),
    ("asconfig", "check_as_axioms", "span"),
    ("asconfig", "check_pds", "span"),
    ("asconfig", "check_kantor", "span"),
    ("asconfig", "lemma41_invariants", "span"),
    ("geometry", "as_quadrangle", "span"),
    ("geometry", "kantor_quadrangle", "span"),
    ("geometry", "verify_gq", "span"),
    ("geometry", "collinearity_srg", "span"),
    ("geometry", "regular_point", "span"),
)

# The per-layer metrics, in BENCHMARK.json order: (metric, unit).
# `<span>.s` is summed self time, `<span>.calls` a call count; the rest
# come from the probes.  `_kernels` is spelled `kernels` because metric
# names must start with a letter.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("search.PlaneCatalogue.s", "s"),
    ("search.plane_action.s", "s"),
    ("search.arc_seeds.s", "s"),
    ("search.arc_seeds.nodes", "count"),
    ("search.arc_seeds.solutions", "count"),
    ("search.extend_arcs.s", "s"),
    ("search.extend_arcs.nodes", "count"),
    ("search.extend_arcs.max_seed_nodes", "count"),
    ("search.lift_arc.calls", "count"),
    ("search.lift_arc.s", "s"),
    ("search.lemma53_counts.s", "s"),
    ("search.brute_force_as_configs.calls", "count"),
    ("search.brute_force_as_configs.s", "s"),
    ("permgroup.PermGroup.order.s", "s"),
    ("permgroup.PermGroup.stabilizer.calls", "count"),
    ("permgroup.PermGroup.stabilizer.s", "s"),
    ("permgroup.min_image.calls", "count"),
    ("permgroup.min_image.s", "s"),
    ("permgroup.is_min_image.accept_ratio", "ratio"),
    ("permgroup.compose.calls", "count"),
    ("permgroup.inverse.calls", "count"),
    ("quadform.singular_subspaces.s", "s"),
    ("quadform.isometry_generators.s", "s"),
    ("quadform.forms_equivalent.s", "s"),
    ("gf2.rref.calls", "count"),
    ("gf2.span.calls", "count"),
    ("gf2.meet.calls", "count"),
    ("kernels.pairwise_disjoint.s", "s"),
    ("groups.frattini.calls", "count"),
    ("groups.frattini.s", "s"),
    ("groups.complements.s", "s"),
    ("groups.enumerate_elem_abelian_subgroups.calls", "count"),
    ("groups.enumerate_elem_abelian_subgroups.s", "s"),
    ("groups.product_set.calls", "count"),
    ("groups.product_set.s", "s"),
    ("groups.centralizer.s", "s"),
    ("groups.center.s", "s"),
    ("groups.derived.s", "s"),
    ("asconfig.structural_filter.s", "s"),
    ("asconfig.good_subgroups.calls", "count"),
    ("asconfig.good_subgroups.s", "s"),
    ("asconfig.clique_size_qplus1.s", "s"),
    ("asconfig.check_as_axioms.calls", "count"),
    ("asconfig.check_as_axioms.s", "s"),
    ("asconfig.check_pds.s", "s"),
    ("asconfig.check_kantor.s", "s"),
    ("asconfig.lemma41_invariants.s", "s"),
    ("geometry.as_quadrangle.s", "s"),
    ("geometry.kantor_quadrangle.s", "s"),
    ("geometry.verify_gq.s", "s"),
    ("geometry.collinearity_srg.s", "s"),
    ("geometry.regular_point.calls", "count"),
    ("geometry.regular_point.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target: `_kernels` -> `kernels`, and a class's
    `__init__` is named after the class."""
    if attr.endswith(".__init__"):
        attr = attr[: -len(".__init__")]
    return f"{module.lstrip('_')}.{attr}"


class Recorder:
    """Wraps asq functions for one round.  With spans=False only the
    three probes are installed (the untimed oracle needs them)."""

    def __init__(self, spans: bool):
        self.with_spans = spans
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        # probe records, one entry per call:
        self.arc_seeds: List[Dict[str, int]] = []
        self.extend_arcs: List[Dict[str, int]] = []
        self.min_image_accepts = [0, 0]  # [accepted, tested]
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    # -- probes --------------------------------------------------------

    def _probe_arc_seeds(self, fn: Callable) -> Callable:
        from asq.search import SearchTrace

        def arc_seeds(cat, seed_size, trace=None):
            tr = trace if trace is not None else SearchTrace(seed=None)
            out = fn(cat, seed_size, tr)
            self.arc_seeds.append({"nodes": tr.nodes, "solutions": tr.solutions,
                                   "group_order": cat.group.order()})
            return out
        return arc_seeds

    def _probe_extend_arcs(self, fn: Callable) -> Callable:
        def extend_arcs(cat, seeds, target, threads=1, traces=None):
            trs = traces if traces is not None else []
            first = len(trs)
            out = fn(cat, seeds, target, threads=threads, traces=trs)
            per_seed = [t.nodes for t in trs[first:]]
            self.extend_arcs.append({"nodes": sum(per_seed),
                                     "max_seed_nodes": max(per_seed, default=0)})
            return out
        return extend_arcs

    def _probe_is_min_image(self, fn: Callable) -> Callable:
        def is_min_image(group, points):
            ok = fn(group, points)
            self.min_image_accepts[0] += ok
            self.min_image_accepts[1] += 1
            return ok
        return is_min_image

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        out, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                out.append((sid, parent, name, t0, t1))
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import asq.cli  # noqa: F401  (loads every asq module)

        probes = {
            ("search", "arc_seeds"): self._probe_arc_seeds,
            ("search", "extend_arcs"): self._probe_extend_arcs,
            ("permgroup", "is_min_image"): self._probe_is_min_image,
        }
        for module, attr, how in TARGETS:
            probe = probes.get((module, attr))
            if probe is None and not self.with_spans:
                continue
            owner = importlib.import_module(f"asq.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            fn = probe(original) if probe else original
            if self.with_spans:
                name = span_name(module, attr)
                fn = self._span(name, fn) if how == "span" else self._count(name, fn)
            if path:  # a method: the class is shared by every importer
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, fn)
            else:
                self._rebind(original, fn)

    def _rebind(self, original: Callable, replacement: Callable) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "asq" or modname.startswith("asq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def snapshot(self) -> Dict[str, object]:
        """Everything run.py needs to derive the per-layer metrics."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "arc_seeds": self.arc_seeds,
            "extend_arcs": self.extend_arcs,
            "min_image_accepts": self.min_image_accepts,
        }


def self_times(spans: Sequence[Sequence]) -> Tuple[Dict[str, float], Counter]:
    """Per span name: summed self time (duration minus the time its
    direct child spans cover) and the number of calls."""
    child = defaultdict(float)
    for _sid, parent, _name, t0, t1 in spans:
        child[parent] += t1 - t0
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _parent, name, t0, t1 in spans:
        own[name] += (t1 - t0) - child.get(sid, 0.0)
        calls[name] += 1
    return own, calls


def layer_metrics(snap: Dict[str, object]) -> Dict[str, float]:
    """The PER_LAYER metrics of one traced round, except
    trace.overhead_ratio, which compares two rounds."""
    own, calls = self_times(snap["spans"])
    calls.update(snap["counts"])
    seeds, ext = snap["arc_seeds"], snap["extend_arcs"]
    accepted, tested = snap["min_image_accepts"]
    derived = {
        "search.arc_seeds.nodes": sum(r["nodes"] for r in seeds),
        "search.arc_seeds.solutions": sum(r["solutions"] for r in seeds),
        "search.extend_arcs.nodes": sum(r["nodes"] for r in ext),
        "search.extend_arcs.max_seed_nodes": max((r["max_seed_nodes"] for r in ext), default=0),
        "permgroup.is_min_image.accept_ratio": accepted / tested if tested else 0.0,
    }
    out: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric == "trace.overhead_ratio":
            continue
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, stat = metric.rsplit(".", 1)
        out[metric] = own.get(name, 0.0) if stat == "s" else calls.get(name, 0)
    return out
