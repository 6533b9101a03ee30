"""Regenerate the benchmark's fixed data from the library as it stands.

    PYTHONPATH=src python3 perfbench/expected.py

Writes two files under perfbench/data:

- certify_graphs.json: the edge lists of the connected 6-vertex graphs whose
  algebras `decide` refutes by Monte Carlo when theta search is off
  (`theta_budget=0`) and no splits are registered. They are the Monte Carlo
  cases of the `certify` workload.
- expected.json: for each workload, case -> [verdict.kind, certificate kind,
  agree]. The graph-scan rows cover every connected graph on at most 6
  vertices and every ordered sequence of two or more of them with at most 8
  vertices in all, which is every disjoint union `sample_disjoint_unions`
  can return for any seed.

The benchmark checks every run against expected.json. Regenerate it only for
a change that alters verdicts on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from quadlie import graphs, scans, verdicts  # noqa: E402
from quadlie.config import RunConfig  # noqa: E402
from tracing import NullTracer  # noqa: E402


def all_unions(components: list[graphs.Graph], max_vertices: int):
    """Every block sequence the union sampler can draw, as union graphs."""
    singles = [g for g in components if len(g.vertices) <= max_vertices - 1]

    def extend(prefix, budget):
        for g in singles:
            if len(g.vertices) <= budget:
                blocks = prefix + [g]
                if len(blocks) >= 2:
                    yield graphs.disjoint_union(blocks)
                yield from extend(blocks, budget - len(g.vertices))

    return extend([], max_vertices)


def monte_carlo_graphs(config: RunConfig) -> list[list[list[int]]]:
    out = []
    no_theta = replace(config, theta_budget=0)
    for graph in scans.connected_graphs_upto(6):
        if len(graph.vertices) != 6:
            continue
        result = verdicts.decide(graphs.build_algebra(graph).algebra, no_theta)
        if result.kind == "refuted_monte_carlo":
            out.append([list(e) for e in graph.edges])
    return out


def rows(cases, run_case, config, label) -> dict[str, list]:
    out = {}
    start = time.perf_counter()
    for i, case in enumerate(cases):
        o = run_case(case, config, NullTracer())
        if o.verified is False:
            raise RuntimeError(f"{o.case}: report failed re-verification")
        out[o.case] = [o.kind, o.certificate, o.agree]
        if i % 200 == 199:
            print(f"{label}: {i + 1} cases, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return out


def main() -> int:
    config = RunConfig()
    data = workloads.DATA
    data.mkdir(exist_ok=True)
    mc = monte_carlo_graphs(config)
    (data / "certify_graphs.json").write_text(json.dumps(mc) + "\n")
    print(f"certify: {len(mc)} Monte Carlo graphs", file=sys.stderr)

    connected = scans.connected_graphs_upto(workloads.GRAPH_MAX_VERTICES)
    graph_cases = connected + list(all_unions(connected, workloads.UNION_VERTICES))
    expected = {
        "certify": rows(workloads.certify_corpus(), workloads.certify_case, config, "certify"),
        "parabolic-scan": rows(
            workloads.parabolic_corpus(), workloads.parabolic_case, config, "parabolic-scan"
        ),
        "graph-scan": rows(graph_cases, workloads.graph_case, config, "graph-scan"),
    }
    (data / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    for name, table in expected.items():
        kinds: dict[str, int] = {}
        for kind, cert, agree in table.values():
            kinds[cert] = kinds.get(cert, 0) + 1
        print(f"{name}: {len(table)} rows, certificates {kinds}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
