"""Golden reports: the exact `--output json` bytes of fixed CLI runs.

Each case runs `quadlie.cli.main` in process, from the repository root, so
the input paths recorded in the reports are the fixed relative paths below.
The outputs must match `tests/golden/<name>.json` byte for byte, and every
verdict report must pass `quadlie verify`.

After a deliberate change to the report bytes, regenerate every file with

    PYTHONPATH=src python tests/test_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from quadlie.cli import main
from quadlie.config import RunConfig
from quadlie.graphs import parse_graph
from quadlie.parabolic import parse_parabolic_spec
from quadlie.scans import scan_graph_case, scan_parabolic_case
from quadlie.verdicts import reverify_report

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests/golden")
INPUTS = GOLDEN / "inputs"

CASES = {
    # admits
    "free_3_2": ["free", "3", "2"],
    "free_3_2_flags": [
        "free", "3", "2", "--seed", "7", "--mc-trials", "5", "--mc-range", "1000",
        "--solver-dim-cap", "20",
    ],
    "free_2_3": ["free", "2", "3"],
    "parabolic_B3_g3": ["parabolic", "B3:g3"],
    "parabolic_G2_g1": ["parabolic", "G2:g1"],
    "parabolic_A3_g2": ["parabolic", "A3:g2"],
    "graph_K3": ["graph", INPUTS / "K3.txt"],
    "graph_2K3": ["graph", INPUTS / "2K3.txt"],
    "analyze_abelian3": ["analyze", INPUTS / "abelian3.json"],
    # dim_series
    "free_2_2": ["free", "2", "2"],
    "free_3_3": ["free", "3", "3"],
    "analyze_h3": ["analyze", INPUTS / "h3.json"],
    "parabolic_E6_g3": ["parabolic", "E6:g3"],
    "parabolic_E6_g3_obstructions_only": ["parabolic", "E6:g3", "--obstructions-only"],
    "parabolic_G2_g2": ["parabolic", "G2:g2"],
    # heisenberg_reiter
    "graph_C4": ["graph", INPUTS / "C4.txt"],
    "graph_C6": ["graph", INPUTS / "C6.txt"],
    # theta
    "analyze_C4": ["analyze", INPUTS / "c4_algebra.json"],
    "graph_paw": ["graph", INPUTS / "paw.txt"],
    # every budget >= 1 tries the same coordinate lines, so 1 and 2 agree
    "analyze_C4_theta_budget_1": [
        "analyze", INPUTS / "c4_algebra.json", "--theta-budget", "1",
    ],
    "analyze_C4_theta_budget_2": [
        "analyze", INPUTS / "c4_algebra.json", "--theta-budget", "2",
    ],
    # refuted_monte_carlo
    "analyze_C4_theta_budget_0": [
        "analyze", INPUTS / "c4_algebra.json", "--theta-budget", "0",
    ],
    # refuted_symbolic
    "analyze_C4_symbolic": [
        "analyze", INPUTS / "c4_algebra.json", "--theta-budget", "0",
        "--symbolic-max-dim", "8", "--symbolic-max-formspace", "30",
    ],
    # undecided
    "analyze_abelian3_obstructions_only": [
        "analyze", INPUTS / "abelian3.json", "--obstructions-only",
    ],
    "graph_K3_obstructions_only": ["graph", INPUTS / "K3.txt", "--obstructions-only"],
    # series and scans
    "series_h3": ["series", INPUTS / "h3.json"],
    "series_h3_subspace": ["series", INPUTS / "h3.json", "--subspace", INPUTS / "h3_e1.json"],
    "scan_graphs": ["scan-graphs", "--max-vertices", "4", "--union-samples", "5"],
    "scan_parabolics": [
        "scan-parabolics", "--types", "A,B", "--max-rank", "3", "--pair-rank", "3",
    ],
}


def run_case(name: str) -> tuple[int, str]:
    argv = [str(a) for a in CASES[name]] + ["--output", "json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    for env in [k for k in os.environ if k.startswith("QUADLIE_")]:
        monkeypatch.delenv(env)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_bytes(name):
    code, out = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


VERDICT_CASES = sorted(
    n for n, argv in CASES.items() if argv[0] in ("analyze", "graph", "free", "parabolic")
)


@pytest.mark.parametrize("name", VERDICT_CASES)
def test_golden_verdict_reports_verify(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    ok, details = reverify_report(report)
    assert ok, details


CASE_INPUTS = sorted(
    {(argv[0], str(argv[1])) for argv in CASES.values() if argv[0] in ("graph", "parabolic")}
)
# the golden report of each (command, input, solver) run that has one
GOLDEN_CASE = {
    (argv[0], str(argv[1]), "never" if "--obstructions-only" in argv else "auto"): name
    for name, argv in CASES.items()
    if argv[0] in ("graph", "parabolic")
}


@pytest.mark.parametrize("solver", ["auto", "never"])
@pytest.mark.parametrize("command,arg", CASE_INPUTS)
def test_cli_case_report_matches_the_scan_record(command, arg, solver):
    """Wiring check: `quadlie graph` and `quadlie parabolic` report what the
    scan's case function records. Both sides run the same function, so the
    decision itself is pinned by the golden report where the run has one.
    On an undecided case the record's certificate kind is "none", the
    report's "undecided", and the report's `agree` is None."""
    argv = [command, arg, "--output", "json"]
    if solver == "never":
        argv.append("--obstructions-only")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    report = json.loads(buf.getvalue())
    if command == "graph":
        record = scan_graph_case(parse_graph(Path(arg).read_text()), RunConfig(), solver)
    else:
        record = scan_parabolic_case(*parse_parabolic_spec(arg), RunConfig(), solver)
    assert report["verdict"]["kind"] == record.verdict
    assert report["prediction"] == record.prediction
    assert report["reason"] == record.reason
    if record.result.decided:
        assert report["verdict"]["certificate"]["kind"] == record.certificate_kind
        assert report["agree"] == record.agree
    else:
        kinds = (report["verdict"]["certificate"]["kind"], record.certificate_kind)
        assert kinds == ("undecided", "none")
        assert report["agree"] is None
    name = GOLDEN_CASE.get((command, arg, solver))
    if name:
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        assert (record.verdict, record.prediction, record.reason) == (
            golden["verdict"]["kind"], golden["prediction"], golden["reason"]
        )
        assert (record.agree if record.result.decided else None) == golden["agree"]


if __name__ == "__main__":
    os.chdir(ROOT)
    for env in [k for k in os.environ if k.startswith("QUADLIE_")]:
        del os.environ[env]
    for name in sorted(CASES):
        code, out = run_case(name)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.json").write_text(out)
        print(f"wrote {GOLDEN / name}.json")
