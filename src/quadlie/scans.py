"""Corpus scans: construction-side predictions against the decision ladder.

The graph scan covers every connected simple graph up to a vertex bound (via
the networkx atlas) plus sampled disjoint unions; the parabolic scan covers
single marked roots over the requested families plus two-mark samples. Each
record carries both the prediction and the computed verdict; any disagreement
falsifies the corresponding classification claim and is surfaced as a hard
failure by the CLI (exit code 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .config import RunConfig
from .graphs import Graph, GraphAlgebra, build_algebra, classify_graph, disjoint_union
from .parabolic import (
    ParabolicNilradical,
    build_nilradical,
    classify_nilradical,
    match_free_nilpotent,
    structured_decompositions,
    verify_lcs_grading,
)
from .roots import RANK_BOUNDS, CartanType
from .verdicts import AnalysisResult, decide


def connected_graphs_upto(max_vertices: int) -> list[Graph]:
    """All connected simple graphs on 1..max_vertices vertices (atlas-backed)."""
    if max_vertices > 7:
        raise ValueError("the graph atlas covers at most 7 vertices")
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for atlas_graph in graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n < 1 or n > max_vertices:
            continue
        if not nx.is_connected(atlas_graph):
            continue
        nodes = sorted(atlas_graph.nodes())
        names = {node: f"v{i + 1}" for i, node in enumerate(nodes)}
        out.append(
            Graph.build(
                [names[v] for v in nodes],
                [(names[u], names[w]) for u, w in sorted(atlas_graph.edges())],
            )
        )
    return out


def sample_disjoint_unions(
    components: list[Graph], max_vertices: int, count: int, seed: int
) -> list[Graph]:
    """Deterministic sample of multi-component unions within the vertex budget."""
    rng = random.Random(f"{seed}:unions")
    singles = [g for g in components if len(g.vertices) <= max_vertices - 1]
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        budget = max_vertices
        blocks = []
        while True:
            usable = [g for g in singles if len(g.vertices) <= budget]
            if not usable or (len(blocks) >= 2 and rng.random() < 0.4):
                break
            pick = usable[rng.randrange(len(usable))]
            blocks.append(pick)
            budget -= len(pick.vertices)
        if len(blocks) < 2:
            continue
        key = tuple(sorted((len(b.vertices), b.edges) for b in blocks))
        if key in seen:
            continue
        seen.add(key)
        out.append(disjoint_union(blocks))
    return out


def _graph_registered_splits(ga: GraphAlgebra):
    """Bipartition classes give a two-isotropic-parts candidate when bipartite."""
    ok, a, b = ga.graph.is_bipartite()
    if not ok or not ga.graph.edges:
        return []
    # an edge has an endpoint in each class, so neither class is empty
    return [(ga.vertex_space(a), ga.vertex_space(b))]


CONTRADICTION = "computed verdict contradicts the classification"
UNDECIDED = "the ladder left the case undecided"


@dataclass(frozen=True)
class GraphScanRecord:
    name: str
    vertices: int
    edges: int
    prediction: str
    reason: str
    verdict: str
    certificate_kind: str
    agree: bool
    result: AnalysisResult
    graph: Graph

    def row(self) -> dict:
        return {
            "case": self.name,
            "vertices": self.vertices,
            "edges": self.edges,
            "prediction": self.prediction,
            "verdict": self.verdict,
            "certificate": self.certificate_kind,
            "agree": self.agree,
        }

    @property
    def disagreement(self) -> str | None:
        """Why `agree` is False; None when it is True."""
        return None if self.agree else CONTRADICTION if self.result.decided else UNDECIDED


def graph_case_name(graph: Graph) -> str:
    comps = graph.connected_components()
    return f"V{len(graph.vertices)}E{len(graph.edges)}#" + "-".join(
        f"{len(c)}.{sum(1 for e in graph.edges if e[0] in c)}" for c in comps
    ) + "#" + ",".join(f"{i}:{j}" for i, j in graph.edges)


def scan_graph_case(graph: Graph, config: RunConfig, solver: str = "always") -> GraphScanRecord:
    """Decide one graph algebra against its prediction; `quadlie graph` and
    `scan-graphs` both run this."""
    ga = build_algebra(graph)
    prediction = classify_graph(graph)
    result = decide(
        ga.algebra,
        config,
        hr_pairs=_graph_registered_splits(ga),
        solver=solver,
    )
    agree = result.decided and (prediction.admits == result.admits)
    return GraphScanRecord(
        graph_case_name(graph),
        len(graph.vertices),
        len(graph.edges),
        prediction.prediction,
        prediction.reason,
        result.kind,
        result.certificate_kind,
        agree,
        result,
        graph,
    )


def scan_graphs(
    max_vertices: int = 6,
    union_vertices: int = 8,
    union_samples: int = 500,
    config: RunConfig | None = None,
) -> list[GraphScanRecord]:
    config = config or RunConfig()
    corpus = connected_graphs_upto(max_vertices)
    if union_samples:
        corpus = corpus + sample_disjoint_unions(
            corpus, union_vertices, union_samples, config.seed
        )
    records = [scan_graph_case(g, config) for g in corpus]
    records.sort(key=lambda r: (r.vertices, r.edges, r.name))
    return records


# ----------------------------------------------------------------- parabolic


@dataclass(frozen=True)
class ParabolicScanRecord:
    name: str
    dim: int
    nilpotency_class: int
    grading_dims: tuple[int, ...]
    grading_ok: bool
    prediction: str
    reason: str
    verdict: str
    certificate_kind: str
    agree: bool
    free_match: str
    result: AnalysisResult
    nilradical: ParabolicNilradical

    def row(self) -> dict:
        return {
            "case": self.name,
            "dim": self.dim,
            "class": self.nilpotency_class,
            "grading": list(self.grading_dims),
            "prediction": self.prediction,
            "verdict": self.verdict,
            "certificate": self.certificate_kind,
            "free_match": self.free_match,
            "agree": self.agree,
        }

    @property
    def disagreement(self) -> str | None:
        """Why `agree` is False; None when it is True. A failed construction
        check (the grading, the free-algebra match) comes first."""
        if self.agree:
            return None
        if not self.grading_ok:
            return "grading does not match the central series"
        if self.free_match == "missing":
            return "free-algebra match missing"
        return CONTRADICTION if self.result.decided else UNDECIDED


def scan_parabolic_case(
    type_string: str, pi0, config: RunConfig, solver: str = "always"
) -> ParabolicScanRecord:
    """Decide one parabolic nilradical against its prediction; `quadlie
    parabolic` and `scan-parabolics` both run this. A grading that does not
    match the central series makes the record disagree."""
    pn = build_nilradical(type_string, pi0)
    grading = verify_lcs_grading(pn)
    prediction = classify_nilradical(type_string, pi0)
    theta_decs, hr_pairs = structured_decompositions(pn)
    result = decide(
        pn.algebra, config, theta_decompositions=theta_decs, hr_pairs=hr_pairs, solver=solver
    )
    agree = grading.ok and result.decided and (prediction.admits == result.admits)
    free_match = "-"
    shape = {"n32": (3, 2), "n23": (2, 3)}.get(prediction.prediction)
    if shape:
        found = match_free_nilpotent(pn, *shape) is not None
        free_match = prediction.prediction if found else "missing"
        agree = agree and found
    return ParabolicScanRecord(
        pn.case_name(),
        pn.algebra.dim,
        pn.k,
        pn.grading_dims,
        grading.ok,
        prediction.prediction,
        prediction.reason,
        result.kind,
        result.certificate_kind,
        agree,
        free_match,
        result,
        pn,
    )


def parabolic_cases(types: list[str], max_rank: int, pair_rank: int = 4):
    """(type_string, pi0) cases: all single marks, plus all pairs up to pair_rank
    for the classical families and a fixed pair sample for exceptional types."""
    cases = []
    for entry in types:
        entry = entry.strip().upper()
        if entry in ("A", "B", "C", "D"):
            lo = RANK_BOUNDS[entry][0]
            for rank in range(lo, max_rank + 1):
                type_string = f"{entry}{rank}"
                for l in range(1, rank + 1):
                    cases.append((type_string, (l,)))
                if rank <= pair_rank:
                    for i in range(1, rank + 1):
                        for j in range(i + 1, rank + 1):
                            cases.append((type_string, (i, j)))
        else:
            ct = CartanType.parse(entry)
            type_string = str(ct)
            for l in range(1, ct.rank + 1):
                cases.append((type_string, (l,)))
            if ct.rank >= 2:
                cases.append((type_string, (1, 2)))
    return cases


def scan_parabolics(
    types: list[str],
    max_rank: int = 5,
    pair_rank: int = 4,
    config: RunConfig | None = None,
) -> list[ParabolicScanRecord]:
    config = config or RunConfig()
    cases = parabolic_cases(types, max_rank, pair_rank)
    records = [scan_parabolic_case(type_string, pi0, config) for type_string, pi0 in cases]
    records.sort(key=lambda r: r.name)
    return records
