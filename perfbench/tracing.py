"""Span tracing for the traced benchmark run, and the per-layer metrics.

`Tracer.install` replaces each layer's public functions by timing wrappers at
the point where callers resolve them: every module global of a `quadlie`
module bound to the function, or the class attribute for a method. Spans
(name, start, end, parent, case id and one integer value) are kept in flat
in-memory arrays and written to one file at exit; `analyse` reads that file
and derives self times, counts and ratios from the spans alone.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans inside a case add up to the case's
own span (`scans.case`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

CASE = "scans.case"


def _hit(args, out) -> int:
    return int(out is not None)


def _hr_hit(args, out) -> int:
    # the alternative result is HypothesesFail; matched by name so that the
    # analysis side of this module imports nothing from the library
    return int(type(out).__name__ == "HeisenbergReiterCertificate")


def _det_ops(args, out) -> int:
    return len(args[0]) ** 3


# (module, attribute or Class.method, span name, value recorded per call)
TARGETS = [
    ("quadlie.kernels", "det_int", "kernels.det_int", _det_ops),
    ("quadlie.kernels", "rref_int", "kernels.rref_int", None),
    ("quadlie.linalg", "rref", "linalg.rref", None),
    ("quadlie.linalg", "det", "linalg.det", None),
    ("quadlie.forms", "FormSpace.combine", "forms.combine", None),
    ("quadlie.forms", "invariant_form_space", "forms.invariant_form_space", None),
    ("quadlie.forms", "decide_nondegenerate", "forms.decide_nondegenerate", None),
    ("quadlie.forms", "_det_polynomial", "forms.det_polynomial", None),
    ("quadlie.forms", "verify_form", "forms.verify_form", None),
    ("quadlie.obstructions", "theta_search", "obstructions.theta_search", _hit),
    ("quadlie.obstructions", "theta_ideal", "obstructions.theta_ideal", None),
    ("quadlie.obstructions", "validate_decomposition", "obstructions.validate_decomposition", None),
    ("quadlie.obstructions", "dim_series_obstruction", "obstructions.dim_series", _hit),
    ("quadlie.obstructions", "heisenberg_reiter_obstruction", "obstructions.heisenberg_reiter", _hr_hit),
    ("quadlie.liealg", "relative_series", "liealg.relative_series", None),
    ("quadlie.liealg", "centralizer", "liealg.centralizer", None),
    ("quadlie.verdicts", "decide", "verdicts.decide", None),
    ("quadlie.verdicts", "reverify_report", "verdicts.reverify_report", None),
    ("quadlie.parabolic", "build_nilradical", "parabolic.build_nilradical", None),
    ("quadlie.parabolic", "verify_lcs_grading", "parabolic.verify_lcs_grading", None),
    ("quadlie.parabolic", "structured_decompositions", "parabolic.structured_decompositions", None),
    ("quadlie.parabolic", "match_free_nilpotent", "parabolic.match_free_nilpotent", None),
    ("quadlie.roots", "build", "roots.build", None),
    ("quadlie.graphs", "build_algebra", "graphs.build_algebra", None),
    ("quadlie.graphs", "classify_graph", "graphs.classify_graph", None),
    ("quadlie.hall", "free_nilpotent", "hall.free_nilpotent", None),
]

# Per-layer metric -> (end-to-end metric it should move, workload it moves it on).
MOVES = {
    "kernels.det_int.calls": ("cases_per_s", "graph-scan"),
    "kernels.det_int.s": ("cases_per_s", "graph-scan"),
    "kernels.det_int.ops": ("cases_per_s", "graph-scan"),
    "kernels.rref_int.calls": ("cases_per_s", "parabolic-scan"),
    "kernels.rref_int.s": ("cases_per_s", "parabolic-scan"),
    "linalg.rref.self_s": ("cases_per_s", "parabolic-scan"),
    "linalg.det.self_s": ("cases_per_s", "graph-scan"),
    "forms.combine.calls": ("case_ms.p50", "graph-scan"),
    "forms.combine.s": ("case_ms.p50", "graph-scan"),
    "forms.invariant_form_space.s": ("case_ms.p50", "graph-scan"),
    "forms.decide_nondegenerate.s": ("case_ms.p50", "graph-scan"),
    "forms.det_polynomial.calls": ("case_ms.p50", "graph-scan"),
    "forms.det_polynomial.s": ("case_ms.p50", "graph-scan"),
    "forms.verify_form.s": ("cases_per_s", "certify"),
    "obstructions.theta_search.calls": ("case_ms.tail", "parabolic-scan"),
    "obstructions.theta_search.hits": ("case_ms.tail", "parabolic-scan"),
    "obstructions.theta_search.s": ("case_ms.tail", "parabolic-scan"),
    "obstructions.theta_ideal.calls": ("cases_per_s", "parabolic-scan"),
    "obstructions.theta_hit_ratio": ("cases_per_s", "parabolic-scan"),
    "obstructions.validate_decomposition.calls": ("cases_per_s", "parabolic-scan"),
    "obstructions.validate_decomposition.s": ("cases_per_s", "certify"),
    "obstructions.dim_series.hits": ("cases_per_s", "graph-scan"),
    "obstructions.dim_series.s": ("cases_per_s", "graph-scan"),
    "obstructions.heisenberg_reiter.hits": ("cases_per_s", "graph-scan"),
    "obstructions.heisenberg_reiter.s": ("cases_per_s", "graph-scan"),
    "liealg.relative_series.s": ("cases_per_s", "parabolic-scan"),
    "liealg.centralizer.calls": ("cases_per_s", "parabolic-scan"),
    "liealg.centralizer.s": ("cases_per_s", "parabolic-scan"),
    "verdicts.decide.s": ("cases_per_s", "all"),
    "verdicts.reverify_report.s": ("cases_per_s", "certify"),
    "parabolic.build_nilradical.s": ("cases_per_s", "parabolic-scan"),
    "parabolic.verify_lcs_grading.s": ("cases_per_s", "parabolic-scan"),
    "parabolic.structured_decompositions.s": ("cases_per_s", "parabolic-scan"),
    "parabolic.match_free_nilpotent.s": ("cases_per_s", "parabolic-scan"),
    "roots.build.calls": ("cases_per_s", "parabolic-scan"),
    "roots.build.s": ("cases_per_s", "parabolic-scan"),
    "graphs.build_algebra.s": ("cases_per_s", "graph-scan"),
    "graphs.classify_graph.s": ("cases_per_s", "graph-scan"),
    "hall.free_nilpotent.s": ("cases_per_s", "certify"),
    "jsonio.report.s": ("cases_per_s", "certify"),
    "jsonio.report.bytes": ("cases_per_s", "certify"),
    "scans.case.self_s": ("cases_per_s", "all"),
    "trace.traced_over_untraced": ("none: tracing overhead", "all"),
}


class NullTracer:
    """Untraced runs: calls go straight through."""

    def wrap(self, name, fn, value=None):
        return fn

    def case(self, case_id, fn, *args):
        return fn(*args)


class Tracer:
    """Records spans in flat arrays; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case_id = array("i")
        self.value = array("q")
        self._stack: list[int] = []
        self._case = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, value=None):
        nid = self._name_id(name)
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, cases, values = self.parent, self.case_id, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cases.append(self._case)
            ends.append(0.0)
            values.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if value is not None:
                values[idx] = value(args, out)
            return out

        return traced

    def case(self, case_id, fn, *args):
        self._case = case_id
        try:
            return self.wrap(CASE, fn)(*args)
        finally:
            self._case = -1

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "quadlie" or name.startswith("quadlie.")
        ]
        for module_name, attr, span, value in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), value))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span, original, value)
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, key, wrapped)

    def dump(self, path) -> None:
        header = {"names": self.names, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.case_id, self.value):
                arr.tofile(fh)


def load(path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for key, code in (
            ("name", "i"), ("start", "d"), ("end", "d"),
            ("parent", "i"), ("case", "i"), ("value", "q"),
        ):
            arr = array(code)
            arr.fromfile(fh, n)
            cols[key] = arr
    return header["names"], cols


def analyse(path) -> dict:
    """Per-layer totals from a span file.

    Returns per span name: calls, inclusive seconds (outermost spans of that
    name only), self seconds, the summed value, and for theta_ideal the calls
    made inside theta_search. Also the case count and the self-time balance.
    """
    names, cols = load(path)
    name, start, end, parent = cols["name"], cols["start"], cols["end"], cols["parent"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]

    stats = {s: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0} for s in names}
    open_count = [0] * len(names)
    chain: list[int] = []
    index = {s: i for i, s in enumerate(names)}
    theta_search = index.get("obstructions.theta_search", -1)
    theta_ideal = index.get("obstructions.theta_ideal", -1)
    case_id = index[CASE]
    tried = 0
    case_total = self_total = 0.0
    cases = 0
    stray = 0
    for i in range(n):
        # spans are stored in start order, so the open chain is the ancestor path
        while chain and chain[-1] != parent[i]:
            open_count[name[chain.pop()]] -= 1
        nid = name[i]
        st = stats[names[nid]]
        st["calls"] += 1
        st["self_s"] += dur[i] - child[i]
        st["value"] += cols["value"][i]
        if open_count[nid] == 0:
            st["s"] += dur[i]
        if nid == theta_ideal and theta_search >= 0 and open_count[theta_search]:
            tried += 1
        self_total += dur[i] - child[i]
        if parent[i] < 0:
            if nid == case_id:
                cases += 1
                case_total += dur[i]
            else:
                stray += 1
        chain.append(i)
        open_count[nid] += 1
    return {
        "stats": stats,
        "theta_tried": tried,
        "cases": cases,
        "case_s": case_total,
        "self_sum_s": self_total,
        "stray_spans": stray,
    }


def layer_metrics(summary: dict, ratio: float) -> dict[str, float]:
    """The per-layer metrics, each averaged over the traced cases."""
    stats = summary["stats"]
    per_case = 1.0 / max(summary["cases"], 1)

    def get(span, field):
        return stats.get(span, {}).get(field, 0) * per_case

    out = {}
    for metric in MOVES:
        if metric == "trace.traced_over_untraced":
            out[metric] = ratio
        elif metric == "obstructions.theta_ideal.calls":
            out[metric] = summary["theta_tried"] * per_case
        elif metric == "obstructions.theta_hit_ratio":
            hits = stats.get("obstructions.theta_search", {}).get("value", 0)
            out[metric] = hits / summary["theta_tried"] if summary["theta_tried"] else 0.0
        else:
            span, field = metric.rsplit(".", 1)
            if field in ("hits", "ops", "bytes"):
                field = "value"
            out[metric] = get(span, field)
    return out


def unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field in ("s", "self_s"):
        return "s/case"
    if field == "bytes":
        return "bytes/case"
    if metric.endswith("ratio") or metric == "trace.traced_over_untraced":
        return "ratio"
    return "count/case"
