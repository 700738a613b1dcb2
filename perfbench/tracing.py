"""Spans and counters around calls into turankit's public functions.

The tracer replaces each traced function at every module attribute that
holds it (for example both turankit.solver.forbidden_triples and
turankit.cli.forbidden_triples), so calls between modules are seen too.
Each call records a span (name, start, end, parent, op id, busy seconds);
spans stay in memory until the run writes them out. A layer's self time is
its spans' busy time minus that of their direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import turankit
from turankit import catalog, cli, constructions, hypergraph, morphisms, solver, stability

MODULES = (turankit, hypergraph, constructions, morphisms, catalog, solver, stability, cli)

# span name -> (module holding the original, attribute)
FUNCTIONS = {
    "hypergraph.copies_of": (hypergraph, "copies_of"),
    "hypergraph.is_isomorphic": (hypergraph, "is_isomorphic"),
    "hypergraph.find_isomorphism": (hypergraph, "find_isomorphism"),
    "constructions.max_odd_bipartite": (constructions, "max_odd_bipartite"),
    "morphisms.reduce_to_core": (morphisms, "reduce_to_core"),
    "morphisms.reduce_to_max_degree3": (morphisms, "reduce_to_max_degree3"),
    "morphisms.find_homomorphism": (morphisms, "find_homomorphism"),
    "catalog.enumerate_three_edge": (catalog, "enumerate_three_edge"),
    "catalog.verify_classification": (catalog, "verify_classification"),
    "solver.forbidden_triples": (solver, "forbidden_triples"),
    "solver.solve_exact": (solver, "solve_exact"),
    "solver.audit_density_monotone": (solver, "audit_density_monotone"),
    "solver.export_cnf": (solver, "export_cnf"),
    "solver.export_ilp": (solver, "export_ilp"),
    "stability.best_partition": (stability, "best_partition"),
    "stability.link_partition_scan": (stability, "link_partition_scan"),
    "stability.deviation": (stability, "deviation"),
    "cli.main": (cli, "main"),
}
METHODS = {
    "solver.ResultCache.lookup": (solver.ResultCache, "lookup"),
    "solver.ResultCache.append": (solver.ResultCache, "append"),
}
GENERATORS = {"hypergraph.copies_of"}

# per-layer time metric -> spans whose self time it sums
SELF_TIME = {
    "solver.search_s": ("solver.solve_exact",),
    "solver.build_s": ("solver.forbidden_triples",),
    "hypergraph.copies_s": ("hypergraph.copies_of",),
    "solver.export_s": ("solver.export_cnf", "solver.export_ilp"),
    "solver.cache_lookup_s": ("solver.ResultCache.lookup",),
    "solver.cache_append_s": ("solver.ResultCache.append",),
    "solver.audit_s": ("solver.audit_density_monotone",),
    "constructions.seed_s": ("constructions.max_odd_bipartite",),
    "catalog.enumerate_s": ("catalog.enumerate_three_edge",),
    "catalog.verify_s": ("catalog.verify_classification",),
    "hypergraph.iso_s": ("hypergraph.is_isomorphic", "hypergraph.find_isomorphism"),
    "morphisms.reduce_s": ("morphisms.reduce_to_core", "morphisms.reduce_to_max_degree3"),
    "morphisms.hom_s": ("morphisms.find_homomorphism",),
    "stability.best_partition_s": ("stability.best_partition",),
    "stability.link_scan_s": ("stability.link_partition_scan",),
    "stability.deviation_s": ("stability.deviation",),
    "cli.main_s": ("cli.main",),
}
# per-layer count metric -> spans whose calls it counts
CALLS = {
    "solver.cache_lookups": ("solver.ResultCache.lookup",),
    "solver.cache_appends": ("solver.ResultCache.append",),
    "hypergraph.iso_calls": ("hypergraph.is_isomorphic", "hypergraph.find_isomorphism"),
    "morphisms.reductions": ("morphisms.reduce_to_core", "morphisms.reduce_to_max_degree3"),
    "morphisms.hom_calls": ("morphisms.find_homomorphism",),
    "cli.calls": ("cli.main",),
}
# cli.main wall time (children included) per group of subcommands
CLI_GROUPS = {
    "classify": "cli.classify_s",
    "reduce": "cli.reduce_s",
    "hom": "cli.reduce_s",
    "stability": "cli.stability_s",
    "export": "cli.export_s",
}

# (name, unit, better) of every metric a traced run reports
PER_LAYER = (
    ("solver.search_s", "s", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.nodes_per_s", "1/s", "higher"),
    ("solver.lower_bound_count", "count", "lower"),
    ("solver.build_s", "s", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("hypergraph.copies_s", "s", "lower"),
    ("hypergraph.copies_yielded", "count", "lower"),
    ("solver.export_s", "s", "lower"),
    ("solver.export_bytes", "count", "lower"),
    ("solver.cache_lookup_s", "s", "lower"),
    ("solver.cache_lookups", "count", "lower"),
    ("solver.cache_hit_ratio", "ratio", "higher"),
    ("solver.cache_lines_parsed", "count", "lower"),
    ("solver.cache_append_s", "s", "lower"),
    ("solver.cache_appends", "count", "lower"),
    ("solver.audit_s", "s", "lower"),
    ("constructions.seed_s", "s", "lower"),
    ("catalog.enumerate_s", "s", "lower"),
    ("catalog.verify_s", "s", "lower"),
    ("catalog.classes", "count", "lower"),
    ("hypergraph.iso_s", "s", "lower"),
    ("hypergraph.iso_calls", "count", "lower"),
    ("morphisms.reduce_s", "s", "lower"),
    ("morphisms.reductions", "count", "lower"),
    ("morphisms.hom_s", "s", "lower"),
    ("morphisms.hom_calls", "count", "lower"),
    ("stability.best_partition_s", "s", "lower"),
    ("stability.partitions_scanned", "count", "lower"),
    ("stability.link_scan_s", "s", "lower"),
    ("stability.deviation_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.classify_s", "s", "lower"),
    ("cli.reduce_s", "s", "lower"),
    ("cli.stability_s", "s", "lower"),
    ("cli.export_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _count(counts: Counter, name: str, result) -> None:
    if name == "solver.solve_exact":
        counts["solver.nodes"] += result.nodes
        counts["solver.lower_bound_count"] += result.status == solver.STATUS_LOWER_BOUND
    elif name == "solver.forbidden_triples":
        counts["solver.conflicts"] += len(result.conflicts)
    elif name in ("solver.export_cnf", "solver.export_ilp"):
        counts["solver.export_bytes"] += len(result.encode())
    elif name == "solver.ResultCache.lookup":
        counts["cache_hits"] += result is not None
    elif name == "catalog.enumerate_three_edge":
        counts["catalog.classes"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, busy, group]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, group=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0, group])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = span[2] - span[1]

    def run_op(self, op_id: int, label: str, fn):
        """Call fn() as one benchmark operation, the root of its spans."""
        self.op = op_id
        idx = self._open(f"op.{label}")
        try:
            return fn()
        finally:
            self._close(idx)
            self.op = None

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            group = _cli_group(args[0] if args else kwargs.get("argv")) if name == "cli.main" else None
            idx = tracer._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            _count(tracer.counts, name, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            # Busy time is the time spent inside the generator's next();
            # the consumer's work between items is not charged to it.
            parent = tracer.stack[-1] if tracer.stack else None
            start = time.perf_counter()
            span = [name, start, start, parent, tracer.op, 0.0, None]
            tracer.spans.append(span)
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    span[2] = time.perf_counter()
                    span[5] += span[2] - t0
                    return
                t1 = time.perf_counter()
                span[5] += t1 - t0
                span[2] = t1
                tracer.counts["hypergraph.copies_yielded"] += 1
                yield item

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(home, attr)
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            traced = wrap(name, original)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, traced)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        record = solver.SolveRecord
        parse = record.__dict__["from_json_dict"]
        self._undo.append((record, "from_json_dict", parse))
        record.from_json_dict = classmethod(self._counter("solver.cache_lines_parsed", parse.__func__))
        # best_partition calls this once per partition it evaluates.
        self._undo.append((stability, "_deviation_total", stability._deviation_total))
        stability._deviation_total = self._counter("stability.partitions_scanned",
                                                   stability._deviation_total)

    def _counter(self, metric: str, fn):
        """fn, counting its calls under metric without opening spans."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_busy = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_busy[span[3]] += span[5]
        out = defaultdict(float)
        for idx, span in enumerate(self.spans):
            out[span[0]] += span[5] - child_busy[idx]
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        out = {name: 0 for name, _, _ in PER_LAYER}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(selfs[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[n] for n in names)
        for span in self.spans:
            if span[6]:
                out[span[6]] += span[5]
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        if out["solver.search_s"]:
            out["solver.nodes_per_s"] = out["solver.nodes"] / out["solver.search_s"]
        if out["solver.cache_lookups"]:
            out["solver.cache_hit_ratio"] = self.counts["cache_hits"] / out["solver.cache_lookups"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, busy, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "busy": busy}) + "\n")


def _cli_group(argv) -> str | None:
    return next((CLI_GROUPS[token] for token in argv or () if token in CLI_GROUPS), None)
