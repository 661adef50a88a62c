"""Outside-in tracing: wrap public library functions, record spans.

Each listed function is replaced, on its module or class, by a wrapper
that records (function, start, end, parent span, query id).  Calls that
go through the module attribute are caught, so nested calls such as
is_planar -> has_minor -> Matroid.minor show up as child spans.  The
library source is not touched; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import statistics
import time

# (metric prefix, module name, class name or None, attribute)
TARGETS = [
    ("matroids.make_matroid", "matroids", None, "make_matroid"),
    ("matroids.minor", "matroids", "Matroid", "minor"),
    ("matroids.dual", "matroids", "Matroid", "dual"),
    ("matroids.is_isomorphic", "matroids", None, "is_isomorphic"),
    ("matroids.has_minor", "matroids", None, "has_minor"),
    ("matroids.transversal_presentation", "matroids", None, "transversal_presentation"),
    ("matroids.classify", "matroids", None, "classify"),
    ("matroids.check_duality_axioms", "matroids", None, "check_duality_axioms"),
    ("matroids.parse_matroid", "matroids", None, "parse_matroid"),
    ("graphs.cycle_matroid", "graphs", None, "cycle_matroid"),
    ("graphs.trace_faces", "graphs", None, "trace_faces"),
    ("graphs.dual_embedding", "graphs", None, "dual_embedding"),
    ("graphs.is_planar", "graphs", None, "is_planar"),
    ("graphs.find_planar_embedding", "graphs", None, "find_planar_embedding"),
    ("graphs.parse_embedding", "graphs", None, "parse_embedding"),
    ("complexes.make_complex", "complexes", None, "make_complex"),
    ("complexes.betti_numbers", "complexes", None, "betti_numbers"),
    ("complexes.genus_duality_check", "complexes", None, "genus_duality_check"),
    ("gf2.rank_of_rows", "gf2", None, "rank_of_rows"),
    ("algebras.multiply", "algebras", "HypercomplexAlgebra", "multiply"),
    ("algebras.det_rational", "algebras", None, "det_rational"),
    ("algebras.cross_product", "algebras", None, "cross_product"),
    ("algebras.cross_axioms_report", "algebras", None, "cross_axioms_report"),
    ("algebras.division_algebra_report", "algebras", None, "division_algebra_report"),
    ("algebras.chirotope_of_configuration", "algebras", None, "chirotope_of_configuration"),
    ("cli.main", "cli", None, "main"),
    ("cli.build_parser", "cli", None, "build_parser"),
]

QUERY = len(TARGETS)  # name index of the benchmark's own per-query span

# (ratio metric, counted span, enclosing span): counts calls of the first
# made while the second is on the stack, per call of the second.
NESTED_RATIOS = [
    ("matroids.has_minor.minors_per_call", "matroids.minor", "matroids.has_minor"),
    ("matroids.has_minor.iso_per_call", "matroids.is_isomorphic", "matroids.has_minor"),
    ("graphs.find_planar_embedding.rotations_per_call", "graphs.trace_faces", "graphs.find_planar_embedding"),
]
EXAMINED = "matroids.transversal_presentation.examined"


class Tracer:
    """Installs the wrappers and keeps the spans of the current round."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []
        self.stack: list[int] = []
        self.examined = 0
        self.qid = -1
        self.saved = []

    def install(self) -> None:
        for idx, (name, mod, cls, attr) in enumerate(TARGETS):
            owner = getattr(self.lib, mod)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = owner.__dict__[attr]
            self.saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(idx, orig, name == "matroids.transversal_presentation"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()

    def _wrap(self, idx: int, fn, count_examined: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.qid)
            if count_examined:
                self.examined += result[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_query(self, qid: int, call, args):
        """Call one query inside a root span; returns the call's result."""
        self.qid = qid
        me = len(self.spans)
        self.spans.append(None)
        self.stack.append(me)
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.stack.pop()
            self.spans[me] = (QUERY, start, time.perf_counter(), -1, qid)

    def take_round(self, scales) -> dict:
        """Aggregate the spans recorded since the last call and clear them;
        each span's time is multiplied by its query's ``scales`` entry."""
        spans = self.spans
        names = [t[0] for t in TARGETS]
        child = [0.0] * len(spans)
        for idx, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        query_s = 0.0
        for i, (idx, start, end, parent, qid) in enumerate(spans):
            if idx == QUERY:
                query_s += (end - start) * scales[qid]
            else:
                calls[idx] += 1
                self_s[idx] += (end - start - child[i]) * scales[qid]
        nested = {}
        for metric, inner, outer in NESTED_RATIOS:
            a, b = names.index(inner), names.index(outer)
            hits = 0
            for idx, _, _, parent, _ in spans:
                if idx != a:
                    continue
                while parent >= 0 and spans[parent][0] != b:
                    parent = spans[parent][3]
                hits += parent >= 0
            nested[metric] = hits / calls[b] if calls[b] else 0.0
        out = {
            "calls": dict(zip(names, calls)),
            "self_s": dict(zip(names, self_s)),
            "nested": nested,
            "examined": self.examined,
            "query_s": query_s,
            "span_count": len(spans),
        }
        self.spans.clear()
        self.examined = 0
        return out


def span_lines(spans):
    """Tab-separated span records, for the trace file."""
    names = [t[0] for t in TARGETS] + ["query"]
    for idx, start, end, parent, qid in spans:
        yield f"{names[idx]}\t{start:.9f}\t{end:.9f}\t{parent}\t{qid}\n"


def summarize(rounds: list, overhead_share: float) -> dict:
    """Per-layer metrics: call counts and ratios from the first traced round
    (they repeat exactly), self times as the median over traced rounds."""
    first = rounds[0]
    metrics = {}
    for name, *_ in TARGETS:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(r["self_s"][name] for r in rounds), "s")
    for metric, *_ in NESTED_RATIOS:
        metrics[metric] = (first["nested"][metric], "count/call")
    metrics[EXAMINED] = (first["examined"], "count")
    metrics["trace.overhead_share"] = (overhead_share, "share")
    covered = [sum(r["self_s"].values()) / r["query_s"] for r in rounds if r["query_s"]]
    metrics["trace.covered_share"] = (statistics.median(covered) if covered else 0.0, "share")
    return metrics
