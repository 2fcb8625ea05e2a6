"""The library surface the benchmark in bench/ relies on.

bench/spans.py wraps functions by module attribute and bench/workloads.py
reads result fields and output files; a trim of the library that breaks
either would only show when the benchmark runs. One untraced and one traced
pass of each workload must pass the workload's own check.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_layer():
    # raises AttributeError for a missing LAYERS name, RuntimeError for a BY_VALUE one
    spans.Tracer()


@pytest.mark.parametrize("workload", [workloads.RateCdf, workloads.RateBound,
                                      workloads.GainSizing], ids=lambda w: w.name)
def test_workload_passes_check(workload, tmp_path):
    load = workload(7, tmp_path)
    tracer = spans.Tracer()
    for i, traced in enumerate((False, True)):
        inputs = load.prepare(i)
        if traced:
            tracer.install(i)
        try:
            output = load.run(inputs)
        finally:
            tracer.remove()
        assert load.check(load.digest(inputs, output)) == []
    calls = tracer.per_pass()["calls"]
    assert calls[0, tracer.names.index("design.design_joint")] > 0
