"""The benchmark's contract with the program.

``perfbench/`` looks program functions up by module attribute (for its
span wrappers) and calls the public API by name.  One round of every
workload, traced as a benchmark run traces it and checked against the
workload's oracles outside the trace, keeps a refactor from silently
breaking either.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_every_workload_round_runs_traced_and_checks_clean(perfbench, tmp_path):
    spans, workloads = perfbench
    tracer = spans.Tracer()
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(1, tmp_path, 1)
        with tracer.install():
            outputs = workload.run()
        checks = workloads.Checks()
        workload.check(outputs, checks)
        assert checks.attempted > 0, name
        assert checks.failures == [], name
    # every layer the benchmark times is still on a path its workloads take
    assert [layer for layer, stats in tracer.stats.items() if not stats.calls] == []
