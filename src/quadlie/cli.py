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
from .graphs import parse_graph
from .hall import free_nilpotent
from .jsonio import InputError, load_algebra, subspace_from_json, subspace_to_json
from .liealg import relative_series
from .parabolic import parse_parabolic_spec
from .scans import UNDECIDED, scan_graph_case, scan_graphs, scan_parabolic_case, scan_parabolics
from .verdicts import build_report, decide, reverify_report


def _add_common(parser: argparse.ArgumentParser) -> None:
    for f in INT_FIELDS:
        parser.add_argument(flag_name(f), type=int, dest=f.name, help=f.metadata.get("help"))
    parser.add_argument("--output", choices=("text", "json"))
    parser.add_argument("--timings", action="store_true", default=None)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig.from_environment()
    values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    updates = {name: v for name, v in values.items() if v is not None}
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
    for key in ("grading_dims", "prediction", "reason", "agree"):
        if key in report:
            print(f"{key}: {report[key]}")
    print(f"verdict: {report['verdict']['kind']}")
    print(f"certificate: {json.dumps(report['verdict']['certificate'], sort_keys=True)}")
    if "timings" in report:
        print(f"timings: {report['timings']}")


def _timed(config: RunConfig, fn):
    start = time.perf_counter()
    out = fn()
    seconds = round(time.perf_counter() - start, 3)
    return out, ({"total_seconds": seconds} if config.timings else None)


def _finish(config, result, descriptor, timings, extra=None, why=None) -> int:
    """Emit the verdict report; exit 1 with one DISAGREEMENT line when `why`
    is given."""
    report = build_report(result, config, descriptor, extra=extra, timings=timings)
    _emit(report, config)
    if why:
        print(f"DISAGREEMENT: {why}", file=sys.stderr)
        return 1
    return 0


def _finish_case(config, record, descriptor, timings, extra) -> int:
    """Report a graph or parabolic scan record. `agree` is None when the case
    is undecided, but a failed construction check disagrees whatever the
    verdict."""
    why = None if record.disagreement == UNDECIDED else record.disagreement
    agree = None if record.disagreement == UNDECIDED else why is None
    extra |= {"prediction": record.prediction, "reason": record.reason, "agree": agree}
    return _finish(config, record.result, descriptor, timings, extra, why)


def _solver(args) -> str:
    return "never" if args.obstructions_only else "auto"


def _cmd_analyze(args) -> int:
    config = _config_from_args(args)
    g = load_algebra(Path(args.path).read_text())
    result, timings = _timed(config, lambda: decide(g, config, solver=_solver(args)))
    descriptor = {"kind": "structure-constants", "path": str(args.path)}
    return _finish(config, result, descriptor, timings)


def _cmd_graph(args) -> int:
    config = _config_from_args(args)
    graph = parse_graph(Path(args.path).read_text())
    record, timings = _timed(config, lambda: scan_graph_case(graph, config, _solver(args)))
    vertices = list(graph.vertices)
    edges = [[graph.vertices[i], graph.vertices[j]] for i, j in graph.edges]
    extra = {"graph": {"vertices": vertices, "edges": edges}}
    return _finish_case(config, record, {"kind": "graph", "path": str(args.path)}, timings, extra)


def _cmd_free(args) -> int:
    config = _config_from_args(args)
    if args.p < 1 or args.k < 1:
        raise InputError("free nilpotent algebras need p >= 1 and k >= 1")
    g = free_nilpotent(args.p, args.k)
    result, timings = _timed(config, lambda: decide(g, config))
    descriptor = {"kind": "free-nilpotent", "generators": args.p, "steps": args.k}
    return _finish(config, result, descriptor, timings)


def _cmd_parabolic(args) -> int:
    config = _config_from_args(args)
    type_string, pi0 = parse_parabolic_spec(args.spec)
    record, timings = _timed(
        config, lambda: scan_parabolic_case(type_string, pi0, config, _solver(args))
    )
    extra = {"grading_dims": list(record.grading_dims), "grading_consistent": record.grading_ok}
    return _finish_case(config, record, {"kind": "parabolic", "case": record.name}, timings, extra)


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


def _finish_scan(records, config: RunConfig, kind: str) -> int:
    """Emit the scan table; exit 1 with one DISAGREEMENT line per
    disagreeing case."""
    rows = [r.row() for r in records]
    agree = all(r.agree for r in records)
    if config.output == "json":
        payload = {"kind": kind, "config": config.echo(), "all_agree": agree, "cases": rows}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if rows:
            headers = list(rows[0].keys())
            widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers}
            print("  ".join(h.ljust(widths[h]) for h in headers))
            for r in rows:
                print("  ".join(str(r[h]).ljust(widths[h]) for h in headers))
        print(f"cases: {len(rows)}; all agree: {agree}")
    for r in records:
        if not r.agree:
            print(f"DISAGREEMENT: {r.name}: {r.disagreement}", file=sys.stderr)
    return 0 if agree else 1


def _cmd_scan_graphs(args) -> int:
    config = _config_from_args(args)
    records = scan_graphs(
        args.max_vertices, args.union_vertices, args.union_samples, config
    )
    return _finish_scan(records, config, "scan-graphs")


def _cmd_scan_parabolics(args) -> int:
    config = _config_from_args(args)
    types = [t for t in args.types.split(",") if t.strip()]
    records = scan_parabolics(types, args.max_rank, args.pair_rank, config)
    return _finish_scan(records, config, "scan-parabolics")


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
    # InputError, GraphError and JacobiError are ValueErrors
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
