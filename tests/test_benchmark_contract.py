"""The benchmark under perfbench/ still runs against the package.

perfbench's tracer wraps named functions and its workloads call the CLI and
mcharness by name, so a rename or a changed signature would break the
benchmark without breaking any other test. This resolves every traced name
and runs the cheaper workloads once, untraced.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_traced_names_resolve(perfbench):
    tracing, _ = perfbench
    missing = [span for module, attr, span in tracing.SPANS if not hasattr(module, attr)]
    assert not missing, f"traced names the package no longer has: {missing}"


@pytest.mark.parametrize("workload", ["mc-tail", "generate"])
def test_workload_checks_pass(perfbench, tmp_path, workload):
    _, workloads = perfbench
    setup, job, check = workloads.WORKLOADS[workload]
    inputs = setup(901, tmp_path)
    failed = [c for c in check(inputs, job(inputs)) if not c[1]]
    assert not failed, f"{workload} checks failed: {failed}"
