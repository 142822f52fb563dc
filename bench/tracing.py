"""Per-layer spans and counters, recorded from outside the package.

For the length of a traced round every traced function is replaced by a
wrapper in each module namespace of the package that binds it, so a call made
from inside the package (``extremal`` calling ``is_pattern_free``) is recorded
as well as a call from the CLI.  Methods are wrapped on their class.  Nothing
under ``src/`` changes.

A span's self time is its duration minus the durations of the spans opened
inside it.  ``cli.main`` is the root span; its self time is the CLI's own
overhead (argument parsing, pattern loading, writing the document).
"""

from __future__ import annotations

import resource
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): functions timed as spans
SPANS = (
    ("extremal", "extremal_number", "extremal.extremal_number"),
    ("extremal", "count_free", "extremal.count_free"),
    ("extremal", "supersat_scan", "extremal.supersat_scan"),
    ("extremal", "full_scan", "extremal.full_scan"),
    ("extremal", "compile_copies", "extremal.compile_copies"),
    ("extremal", "free_classes", "extremal.free_classes"),
    ("digraphs", "canonical_form", "digraphs.canonical_form"),
    ("digraphs", "is_pattern_free", "digraphs.is_pattern_free"),
    ("digraphs", "automorphism_count", "digraphs.automorphism_count"),
    ("digraphs", "count_copies", "digraphs.count_copies"),
    ("pairhypergraph", "build_hypergraph", "pairhypergraph.build_hypergraph"),
    ("containers", "build_containers", "containers.build_containers"),
    ("containers", "verify_family", "containers.verify_family"),
    ("report", "render_document", "report.render_document"),
)
GENERATOR_SPANS = (("extremal", "iter_free_edge_masks", "extremal.iter_free_edge_masks"),)
# (module, class, method, span name)
METHOD_SPANS = (
    ("containers", "ContainerFamily", "route", "containers.route"),
    ("containers", "ContainerFamily", "export_text", "containers.export_text"),
    ("containers", "ContainerFamily", "from_export_text", "containers.from_export_text"),
)
COUNTED_METHODS = (("weights", "WeightParam", "cmp_pairs", "weights.cmp_pairs"),)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_stats(fam) -> tuple[int, int, int, int]:
    """(nodes, containers, DEAD leaves, max depth) of a built decision tree."""
    dead_code = -1
    nodes = len(fam.pivots)
    dead = (fam.root == dead_code) + fam.out_child.count(dead_code) + fam.in_child.count(dead_code)
    if nodes == 0:
        return 0, len(fam.containers), dead, 0
    # nodes are numbered in preorder, so a parent's depth is set before its children's
    depth = [0] * nodes
    for node in range(nodes):
        d = depth[node] + 1
        for child in (fam.out_child[node], fam.in_child[node]):
            if child >= 0:
                depth[child] = d
    return nodes, len(fam.containers), dead, max(depth) + 1


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._built: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self.count[name + ".calls"] += 1
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        self.time[name] += dt
        self.self_time[name] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _after(self, name: str, namespace: str, result) -> None:
        """Work counters read off a span's result."""
        c = self.count
        if name == "extremal.full_scan":
            c["extremal.full_scan.states"] += result.states
        elif name == "extremal.compile_copies":
            c["extremal.compile_copies.copies"] += len(result)
        elif name == "extremal.free_classes":
            c["extremal.free_classes.classes"] += len(result)
        elif name == "digraphs.is_pattern_free" and namespace == "digraphlab.extremal":
            c["extremal.extensions.tried"] += 1
            c["extremal.extensions.kept"] += bool(result)
        elif name == "pairhypergraph.build_hypergraph":
            c["pairhypergraph.edges"] += result.edge_count
        elif name == "containers.build_containers":
            self._built.append(result)
        elif name == "containers.verify_family":
            c["containers.verify.checked"] += result.checked
            if result.attempts is not None:
                c["containers.verify.sampled_checked"] += result.checked
                c["containers.verify.attempts"] += result.attempts
        elif name == "containers.export_text":
            c["containers.export_bytes"] += len(result)
        elif name == "report.render_document":
            c["report.doc_bytes"] += len(result)

    def _span(self, fn, name: str, namespace: str):
        rss = name in ("containers.build_containers", "containers.from_export_text")

        def traced(*args, **kwargs):
            before = _maxrss_mib() if rss else 0.0
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if rss:
                self.count[name + ".maxrss_delta_mib"] += _maxrss_mib() - before
            self._after(name, namespace, result)
            return result

        return traced

    def _generator_span(self, fn, name: str):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.count[name + ".calls"] += 1
            while True:
                self._stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._exit(name, t0)
                    return
                self._exit(name, t0)
                self.count[name + ".yielded"] += 1
                yield item

        return traced

    def _counted(self, fn, name: str):
        def counted(*args, **kwargs):
            self.count[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / remove ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "digraphlab" or name.startswith("digraphlab.")]
        for mod_name, attr, name in SPANS + GENERATOR_SPANS:
            original = getattr(sys.modules["digraphlab." + mod_name], attr)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    if (mod_name, attr, name) in GENERATOR_SPANS:
                        wrapper = self._generator_span(original, name)
                    else:
                        wrapper = self._span(original, name, mod.__name__)
                    self._patch(mod, attr, wrapper)
        for mod_name, cls_name, attr, name in METHOD_SPANS + COUNTED_METHODS:
            cls = getattr(sys.modules["digraphlab." + mod_name], cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if (mod_name, cls_name, attr, name) in COUNTED_METHODS:
                wrapper = self._counted(fn, name)
            else:
                wrapper = self._span(fn, name, mod_name)
            self._patch(cls, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the root span -------------------------------------------------------

    def run_main(self, main, argv) -> int:
        """Call the CLI as the root span; read build stats once it returned."""
        t0 = self._enter("cli.main")
        try:
            return main(argv)
        finally:
            self._exit("cli.main", t0)
            for fam in self._built:
                nodes, containers, dead, depth = tree_stats(fam)
                self.count["containers.build.nodes"] += nodes
                self.count["containers.build.containers"] += containers
                self.count["containers.build.dead_leaves"] += dead
                self.count["containers.build.max_depth"] = max(
                    self.count["containers.build.max_depth"], depth)
            self._built.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the traced round measures, by name."""
        t, c = self.time, self.count
        tried = c["extremal.extensions.tried"]
        attempts = c["containers.verify.attempts"]
        out = {
            "cli.main_s": t["cli.main"],
            "cli.overhead_s": self.self_time["cli.main"],
            "report.render_document_s": t["report.render_document"],
            "report.doc_bytes": c["report.doc_bytes"],
            "weights.cmp_pairs.calls": c["weights.cmp_pairs.calls"],
        }
        for name in ("canonical_form", "is_pattern_free", "automorphism_count", "count_copies"):
            out[f"digraphs.{name}_s"] = t[f"digraphs.{name}"]
            out[f"digraphs.{name}.calls"] = c[f"digraphs.{name}.calls"]
        out.update({
            "extremal.full_scan_s": t["extremal.full_scan"],
            "extremal.full_scan.states": c["extremal.full_scan.states"],
            "extremal.compile_copies_s": t["extremal.compile_copies"],
            "extremal.compile_copies.copies": c["extremal.compile_copies.copies"],
            "extremal.iter_free_edge_masks_s": t["extremal.iter_free_edge_masks"],
            "extremal.iter_free_edge_masks.yielded": c["extremal.iter_free_edge_masks.yielded"],
            "extremal.free_classes_s": t["extremal.free_classes"],
            "extremal.free_classes.classes": c["extremal.free_classes.classes"],
            "extremal.extensions.tried": tried,
            "extremal.extensions.kept": c["extremal.extensions.kept"],
            "extremal.extensions.keep_ratio": c["extremal.extensions.kept"] / tried if tried else 0.0,
            "extremal.extremal_number_s": self.self_time["extremal.extremal_number"],
            "pairhypergraph.build_hypergraph_s": t["pairhypergraph.build_hypergraph"],
            "pairhypergraph.edges": c["pairhypergraph.edges"],
            "containers.build_containers_s": t["containers.build_containers"],
            "containers.build.nodes": c["containers.build.nodes"],
            "containers.build.containers": c["containers.build.containers"],
            "containers.build.dead_leaves": c["containers.build.dead_leaves"],
            "containers.build.max_depth": c["containers.build.max_depth"],
            "containers.build.maxrss_delta_mib": c["containers.build_containers.maxrss_delta_mib"],
            "containers.verify_family_s": self.self_time["containers.verify_family"],
            "containers.verify.checked": c["containers.verify.checked"],
            "containers.verify.attempts": attempts,
            "containers.verify.accept_ratio":
                c["containers.verify.sampled_checked"] / attempts if attempts else 0.0,
            "containers.route_s": t["containers.route"],
            "containers.route.calls": c["containers.route.calls"],
            "containers.export_text_s": t["containers.export_text"],
            "containers.export_bytes": c["containers.export_bytes"],
            "containers.from_export_text_s": t["containers.from_export_text"],
            "containers.from_export_text.maxrss_delta_mib":
                c["containers.from_export_text.maxrss_delta_mib"],
        })
        return out
