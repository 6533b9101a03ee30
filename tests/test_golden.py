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
