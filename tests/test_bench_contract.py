"""What the benchmark harness in `perfbench/` needs from the library.

The harness wraps library functions by module and name, records
`kernels.BACKEND`, builds `RunConfig`s, and checks every outcome against
`perfbench/data/expected.json`. A rename or a changed outcome that breaks it
fails here instead of in the benchmark run. The harness modules are loaded
by path; nothing under `perfbench/` is edited or put on `sys.path`.
"""

import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from quadlie import kernels
from quadlie.config import RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in tracing.TARGETS])
def test_every_traced_target_resolves(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_kernel_backend_is_recorded_as_a_string():
    assert isinstance(kernels.BACKEND, str)


def test_run_config_accepts_the_harness_fields():
    config = RunConfig(seed=101)
    assert config.seed == 101
    assert replace(config, theta_budget=0).theta_budget == 0


@pytest.mark.parametrize("workload", ["graph-scan", "parabolic-scan", "certify"])
def test_tiny_workloads_build(workload):
    built = workloads.build(workload, 7, tiny=True)
    assert built.cases


@pytest.mark.parametrize("workload", ["graph-scan", "parabolic-scan", "certify"])
def test_tiny_corpus_outcomes_match_the_recorded_ones(workload):
    """Every tiny-corpus case decides as the benchmark expects it to."""
    expected = json.loads((PERFBENCH / "data" / "expected.json").read_text())[workload]
    built = workloads.build(workload, 7, tiny=True)
    config = RunConfig(seed=7)
    for case in built.cases:
        out = built.run_case(case, config, tracing.NullTracer())
        assert [out.kind, out.certificate, out.agree] == expected.get(out.case), out.case
        assert out.agree is not False, out.case
        assert out.verified is not False, out.case
