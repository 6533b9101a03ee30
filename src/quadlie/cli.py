"""Command-line interface: analyze, graph, free, parabolic, series, scans, verify.

Exit codes: 0 success (verdict as predicted where a prediction exists),
1 disagreement with a classification claim or failed certificate verification,
2 malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .config import INT_FIELDS, RunConfig, flag_name
from .graphs import GraphError, build_algebra, classify_graph, parse_graph
from .hall import free_nilpotent
from .jsonio import InputError, load_algebra, subspace_from_json, subspace_to_json
from .liealg import JacobiError, relative_series
from .parabolic import (
    build_nilradical,
    classify_nilradical,
    parse_parabolic_spec,
    structured_decompositions,
    verify_lcs_grading,
)
from .scans import (
    _graph_registered_splits,
    scan_graphs,
    scan_parabolics,
)
from .verdicts import build_report, decide, reverify_report


def _add_common(parser: argparse.ArgumentParser) -> None:
    for f in INT_FIELDS:
        parser.add_argument(flag_name(f), type=int, dest=f.name, help=f.metadata.get("help"))
    parser.add_argument("--output", choices=("text", "json"))
    parser.add_argument("--timings", action="store_true", default=None)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig.from_environment()
    updates = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            updates[f.name] = value
    return replace(cfg, **updates) if updates else cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlie",
        description="Decide, with certificates, whether nilpotent Lie algebras admit ad-invariant metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide a structure-constant JSON file")
    p.add_argument("path")
    p.add_argument("--obstructions-only", action="store_true")
    _add_common(p)

    p = sub.add_parser("graph", help="classify a graph file and cross-check the solver")
    p.add_argument("path")
    p.add_argument("--obstructions-only", action="store_true")
    _add_common(p)

    p = sub.add_parser("free", help="analyze the free nilpotent algebra on p generators, k steps")
    p.add_argument("p", type=int)
    p.add_argument("k", type=int)
    _add_common(p)

    p = sub.add_parser("parabolic", help="analyze a parabolic nilradical like B3:g3")
    p.add_argument("spec")
    p.add_argument("--obstructions-only", action="store_true")
    _add_common(p)

    p = sub.add_parser("series", help="print the relative series of an algebra")
    p.add_argument("path")
    p.add_argument("--subspace", help="JSON file with ambient_dim and vectors")
    _add_common(p)

    p = sub.add_parser("scan-graphs", help="scan all small graphs against the classification")
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--union-vertices", type=int, default=8)
    p.add_argument("--union-samples", type=int, default=500)
    _add_common(p)

    p = sub.add_parser("scan-parabolics", help="scan parabolic nilradicals against the classification")
    p.add_argument("--types", default="A,B,C,D,G2,F4,E6")
    p.add_argument("--max-rank", type=int, default=5)
    p.add_argument("--pair-rank", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("verify", help="re-verify the certificate stored in a report")
    p.add_argument("report")
    _add_common(p)

    return parser


def _emit(report: dict, config: RunConfig) -> None:
    if config.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    algebra = report.get("algebra", {})
    print(f"input: {report['input']}")
    if algebra:
        print(
            f"algebra: dim {algebra['dim']}, class {algebra.get('nilpotency_class')}, "
            f"lower central dims {algebra.get('lower_central_dims')}, "
            f"upper central dims {algebra.get('upper_central_dims')}"
        )
    for key in ("grading_dims", "prediction", "reason", "free_match", "agree"):
        if key in report:
            print(f"{key}: {report[key]}")
    verdict = report["verdict"]
    print(f"verdict: {verdict['kind']}")
    cert = verdict["certificate"]
    print(f"certificate: {json.dumps(cert, sort_keys=True)}")
    if "timings" in report:
        print(f"timings: {report['timings']}")


def _finish(report, config, agree: bool | None) -> int:
    _emit(report, config)
    if agree is False:
        print("DISAGREEMENT: computed verdict contradicts the classification", file=sys.stderr)
        return 1
    return 0


def _timed(config: RunConfig, fn):
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    timings = {"total_seconds": round(elapsed, 3)} if config.timings else None
    return out, timings


def _cmd_analyze(args) -> int:
    config = _config_from_args(args)
    g = load_algebra(Path(args.path).read_text())
    solver = "never" if args.obstructions_only else "auto"
    result, timings = _timed(config, lambda: decide(g, config, solver=solver))
    report = build_report(
        result,
        config,
        {"kind": "structure-constants", "path": str(args.path)},
        timings=timings,
    )
    return _finish(report, config, None)


def _cmd_graph(args) -> int:
    config = _config_from_args(args)
    graph = parse_graph(Path(args.path).read_text())
    ga = build_algebra(graph)
    prediction = classify_graph(graph)
    solver = "never" if args.obstructions_only else "auto"

    def run():
        return decide(
            ga.algebra, config, hr_pairs=_graph_registered_splits(ga), solver=solver
        )

    result, timings = _timed(config, run)
    agree = (prediction.admits == result.admits) if result.decided else None
    report = build_report(
        result,
        config,
        {"kind": "graph", "path": str(args.path)},
        extra={
            "graph": {
                "vertices": list(graph.vertices),
                "edges": [[graph.vertices[i], graph.vertices[j]] for i, j in graph.edges],
            },
            "prediction": prediction.prediction,
            "reason": prediction.reason,
            "agree": agree,
        },
        timings=timings,
    )
    return _finish(report, config, agree)


def _cmd_free(args) -> int:
    config = _config_from_args(args)
    if args.p < 1 or args.k < 1:
        raise InputError("free nilpotent algebras need p >= 1 and k >= 1")
    g = free_nilpotent(args.p, args.k)
    result, timings = _timed(config, lambda: decide(g, config))
    report = build_report(
        result,
        config,
        {"kind": "free-nilpotent", "generators": args.p, "steps": args.k},
        timings=timings,
    )
    return _finish(report, config, None)


def _cmd_parabolic(args) -> int:
    config = _config_from_args(args)
    type_string, pi0 = parse_parabolic_spec(args.spec)
    pn = build_nilradical(type_string, pi0)
    grading = verify_lcs_grading(pn)
    prediction = classify_nilradical(type_string, pi0)
    theta_decs, hr_pairs = structured_decompositions(pn)
    solver = "never" if args.obstructions_only else "auto"

    def run():
        return decide(
            pn.algebra,
            config,
            theta_decompositions=theta_decs,
            hr_pairs=hr_pairs,
            solver=solver,
        )

    result, timings = _timed(config, run)
    agree = (prediction.admits == result.admits) if result.decided else None
    report = build_report(
        result,
        config,
        {"kind": "parabolic", "case": pn.case_name()},
        extra={
            "grading_dims": list(pn.grading_dims),
            "grading_consistent": grading.ok,
            "prediction": prediction.prediction,
            "reason": prediction.reason,
            "agree": agree,
        },
        timings=timings,
    )
    if not grading.ok:
        print("DISAGREEMENT: grading does not match the central series", file=sys.stderr)
        return 1
    return _finish(report, config, agree)


def _cmd_series(args) -> int:
    config = _config_from_args(args)
    g = load_algebra(Path(args.path).read_text())
    if args.subspace:
        v = subspace_from_json(json.loads(Path(args.subspace).read_text()))
        if v.ambient != g.dim:
            raise InputError(
                f"subspace ambient dimension {v.ambient} does not match algebra dim {g.dim}"
            )
    else:
        v = g.full_space()
    rep = relative_series(g, v)
    report = {
        "input": {"kind": "series", "path": str(args.path), "subspace": args.subspace},
        "config": config.echo(),
        "subspace_dim": v.dim,
        "descending_dims": list(rep.descending_dims),
        "ascending_dims": list(rep.ascending_dims),
        "descending": [subspace_to_json(s) for s in rep.descending],
        "ascending": [subspace_to_json(s) for s in rep.ascending],
        "stabilized": rep.descending_stable and rep.ascending_stable,
    }
    if config.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"input: {report['input']}")
        print(f"descending dims: {report['descending_dims']}")
        print(f"ascending dims: {report['ascending_dims']}")
        print(f"stabilized: {report['stabilized']}")
    return 0


def _render_scan(rows: list[dict], config: RunConfig, agree: bool, kind: str) -> None:
    if config.output == "json":
        print(
            json.dumps(
                {"kind": kind, "config": config.echo(), "all_agree": agree, "cases": rows},
                indent=2,
                sort_keys=True,
            )
        )
        return
    if rows:
        headers = list(rows[0].keys())
        widths = {
            h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers
        }
        print("  ".join(h.ljust(widths[h]) for h in headers))
        for r in rows:
            print("  ".join(str(r[h]).ljust(widths[h]) for h in headers))
    print(f"cases: {len(rows)}; all agree: {agree}")


def _cmd_scan_graphs(args) -> int:
    config = _config_from_args(args)
    records = scan_graphs(
        args.max_vertices, args.union_vertices, args.union_samples, config
    )
    agree = all(r.agree for r in records)
    _render_scan([r.row() for r in records], config, agree, "scan-graphs")
    return 0 if agree else 1


def _cmd_scan_parabolics(args) -> int:
    config = _config_from_args(args)
    types = [t for t in args.types.split(",") if t.strip()]
    records = scan_parabolics(types, args.max_rank, args.pair_rank, config)
    agree = all(r.agree for r in records)
    _render_scan([r.row() for r in records], config, agree, "scan-parabolics")
    return 0 if agree else 1


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    try:
        report = json.loads(Path(args.report).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid report JSON: {exc}") from exc
    ok, details = reverify_report(report)
    print(("OK: " if ok else "FAIL: ") + details)
    return 0 if ok else 1


HANDLERS = {
    "analyze": _cmd_analyze,
    "graph": _cmd_graph,
    "free": _cmd_free,
    "parabolic": _cmd_parabolic,
    "series": _cmd_series,
    "scan-graphs": _cmd_scan_graphs,
    "scan-parabolics": _cmd_scan_parabolics,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (InputError, GraphError, JacobiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
