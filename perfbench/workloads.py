"""The benchmark's workloads: how each builds its case list and decides one case.

A workload is a fixed corpus of cases, decided one after another in a closed
loop (the next case starts when the previous one returns). The workload seed
drives the disjoint-union sample of the graph corpus and `RunConfig.seed`,
which seeds the witness and Monte Carlo trials; nothing else is random.

Every case returns an `Outcome`: the case name, `verdict.kind`, the
certificate kind, whether the verdict agrees with the construction's
classifier (None where no classifier exists) and, for `certify`, whether
`reverify_report` accepted the JSON round-tripped report.

The library is driven only through its public modules: `quadlie.scans`,
`quadlie.verdicts` and the construction modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from quadlie import graphs, hall, liealg, parabolic, scans, verdicts
from quadlie.config import RunConfig

DATA = Path(__file__).resolve().parent / "data"

GRAPH_MAX_VERTICES = 6
UNION_VERTICES = 8
UNION_SAMPLES = 500
PARABOLIC_TYPES = ["A", "B", "C", "D", "G2", "F4", "E6"]
PARABOLIC_MAX_RANK = 5
PARABOLIC_PAIR_RANK = 4


class Outcome(NamedTuple):
    case: str
    kind: str
    certificate: str
    agree: bool | None
    verified: bool | None = None


@dataclass(frozen=True)
class Workload:
    """A corpus plus the function that decides one of its cases.

    `block` is how many cases the loop decides before it may stop: 1 when
    case costs are uniform, the whole corpus when they are heavy-tailed or
    cheap enough that a partial pass would change the measured mix.
    """

    cases: list
    run_case: Callable
    block: int


# ------------------------------------------------------------ graph-scan


def graph_corpus(seed: int, tiny: bool = False) -> list[graphs.Graph]:
    """The `quadlie scan-graphs` default corpus, in scan order."""
    connected = scans.connected_graphs_upto(4 if tiny else GRAPH_MAX_VERTICES)
    unions = scans.sample_disjoint_unions(
        connected, UNION_VERTICES, 5 if tiny else UNION_SAMPLES, seed
    )
    return connected + unions


def graph_case(graph: graphs.Graph, config: RunConfig, tracer) -> Outcome:
    record = scans.scan_graph_case(graph, config)
    return Outcome(record.name, record.verdict, record.certificate_kind, record.agree)


# -------------------------------------------------------- parabolic-scan


def parabolic_corpus(tiny: bool = False) -> list[tuple[str, tuple[int, ...]]]:
    """The `quadlie scan-parabolics` default cases, in scan order."""
    if tiny:
        return scans.parabolic_cases(["A", "B", "G2"], 3, 3)
    return scans.parabolic_cases(PARABOLIC_TYPES, PARABOLIC_MAX_RANK, PARABOLIC_PAIR_RANK)


def parabolic_case(spec, config: RunConfig, tracer) -> Outcome:
    type_string, pi0 = spec
    record = scans.scan_parabolic_case(type_string, pi0, config)
    return Outcome(record.name, record.verdict, record.certificate_kind, record.agree)


# --------------------------------------------------------------- certify


class CertifyCase(NamedTuple):
    name: str
    kind: str  # analyze | free | parabolic | graph | graph-mc
    arg: object


def _c4_algebra() -> liealg.LieAlgebra:
    """The 4-cycle graph algebra as a bare structure-constant input.

    `quadlie graph` registers its bipartition and refutes it with an
    isotropic split; without that split, theta search refutes it.
    """
    return graphs.build_algebra(graphs.cycle(4)).algebra


def certify_corpus(tiny: bool = False) -> list[CertifyCase]:
    """Fixed CLI-style cases, one per certificate kind, plus Monte Carlo refutations.

    The Monte Carlo cases are the connected 6-vertex graph algebras that no
    obstruction refutes once theta search is off (`theta_budget=0`) and no
    splits are registered; `expected.py` lists them in data/certify_graphs.json.
    """
    two_triangles = graphs.disjoint_union([graphs.triangle(), graphs.triangle()])
    cases = [
        CertifyCase("h3", "analyze", liealg.heisenberg),
        CertifyCase("n(3,2)", "free", (3, 2)),
        CertifyCase("n(2,3)", "free", (2, 3)),
        CertifyCase("n(3,3)", "free", (3, 3)),
        CertifyCase("B3:g3", "parabolic", "B3:g3"),
        CertifyCase("E6:g3", "parabolic", "E6:g3"),
        CertifyCase("C4", "analyze", _c4_algebra),
        CertifyCase("C6", "graph", graphs.cycle(6)),
        CertifyCase("2K3", "graph", two_triangles),
    ]
    if tiny:
        cases = [c for c in cases if c.name in ("h3", "n(3,2)", "C4", "2K3")]
    mc_graphs = json.loads((DATA / "certify_graphs.json").read_text())
    for edges in mc_graphs[:1] if tiny else mc_graphs:
        graph = graphs.Graph.build(
            [f"v{i + 1}" for i in range(6)], [(f"v{i + 1}", f"v{j + 1}") for i, j in edges]
        )
        cases.append(CertifyCase("mc:" + scans.graph_case_name(graph), "graph-mc", graph))
    return cases


def _decide_certify_case(case: CertifyCase, config: RunConfig):
    """Decide one case the way its `quadlie` subcommand does (solver auto)."""
    if case.kind == "analyze":
        descriptor = {"kind": "structure-constants", "case": case.name}
        return verdicts.decide(case.arg(), config), config, descriptor, {}, None
    if case.kind == "free":
        p, k = case.arg
        g = hall.free_nilpotent(p, k)
        descriptor = {"kind": "free-nilpotent", "generators": p, "steps": k}
        return verdicts.decide(g, config), config, descriptor, {}, None
    if case.kind == "parabolic":
        type_string, pi0 = parabolic.parse_parabolic_spec(case.arg)
        pn = parabolic.build_nilradical(type_string, pi0)
        grading = parabolic.verify_lcs_grading(pn)
        prediction = parabolic.classify_nilradical(type_string, pi0)
        theta_decs, hr_pairs = parabolic.structured_decompositions(pn)
        result = verdicts.decide(
            pn.algebra, config, theta_decompositions=theta_decs, hr_pairs=hr_pairs
        )
        agree = result.decided and grading.ok and prediction.admits == result.admits
        extra = {
            "grading_dims": list(pn.grading_dims),
            "grading_consistent": grading.ok,
            "prediction": prediction.prediction,
            "reason": prediction.reason,
            "agree": agree,
        }
        return result, config, {"kind": "parabolic", "case": pn.case_name()}, extra, agree
    graph = case.arg
    ga = graphs.build_algebra(graph)
    prediction = graphs.classify_graph(graph)
    if case.kind == "graph-mc":
        config = replace(config, theta_budget=0)
        hr_pairs = []
    else:
        hr_pairs = scans._graph_registered_splits(ga)
    result = verdicts.decide(ga.algebra, config, hr_pairs=hr_pairs)
    agree = result.decided and prediction.admits == result.admits
    extra = {
        "graph": {
            "vertices": list(graph.vertices),
            "edges": [[graph.vertices[i], graph.vertices[j]] for i, j in graph.edges],
        },
        "prediction": prediction.prediction,
        "reason": prediction.reason,
        "agree": agree,
    }
    return result, config, {"kind": "graph", "case": case.name}, extra, agree


def _report_text(result, config, descriptor, extra) -> str:
    report = verdicts.build_report(result, config, descriptor, extra=extra)
    return json.dumps(report, indent=2, sort_keys=True)


def _text_bytes(args, text: str) -> int:
    return len(text.encode())


def certify_case(case: CertifyCase, config: RunConfig, tracer) -> Outcome:
    """Decide, serialize as `--output json` does, parse back, re-verify."""
    result, config, descriptor, extra, agree = _decide_certify_case(case, config)
    text = tracer.wrap("jsonio.report", _report_text, value=_text_bytes)(
        result, config, descriptor, extra
    )
    report = json.loads(text)
    ok, _ = verdicts.reverify_report(report)
    return Outcome(
        case.name, result.kind, report["verdict"]["certificate"]["kind"], agree, ok
    )


# ------------------------------------------------------------- registry

NAMES = ("graph-scan", "parabolic-scan", "certify")


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "graph-scan":
        return Workload(graph_corpus(seed, tiny), graph_case, 1)
    if name == "parabolic-scan":
        cases = parabolic_corpus(tiny)
        return Workload(cases, parabolic_case, len(cases))
    if name == "certify":
        cases = certify_corpus(tiny)
        return Workload(cases, certify_case, len(cases))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
