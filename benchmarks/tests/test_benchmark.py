"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

workloads.load_program()
SEED = 3


def _iteration(workload, tmp_path):
    """Reports of one tiny iteration, each checked by the gate."""
    reports = {}
    for op in workloads.build_ops(workload, SEED, tiny=True):
        text, code, _ = workloads.run_op(op, SEED, tmp_path / "report.json")
        assert gate.report_failures(text, code) == [], op.name
        reports[op.name] = text
    return reports


def _traced(workload, tmp_path):
    t = tracer.Tracer()
    with t:
        reports = _iteration(workload, tmp_path)
    return t, reports


@pytest.fixture(scope="module", params=tuple(workloads.WORKLOADS))
def traced_pair(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, _traced(request.param, tmp), _traced(request.param, tmp)


def test_traced_calls_repeat_exactly(traced_pair):
    _, (a, _), (b, _) = traced_pair
    calls_a = {name: s[0] for name, s in a.stats.items()}
    assert calls_a == {name: s[0] for name, s in b.stats.items()}
    assert sum(calls_a.values()) > 0


def test_spans_nest_and_self_time_is_nonnegative(traced_pair):
    _, (t, _), _ = traced_pair
    assert 0 < len(t.spans) < t.max_spans
    spans = {sid: (parent, start, end) for sid, parent, _, start, end in t.spans}
    for parent, start, end in spans.values():
        assert start <= end
        if parent >= 0:
            _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end
    for name, (calls, total, self_s) in t.stats.items():
        assert -1e-12 <= self_s <= total + 1e-12, name


def test_traced_and_untraced_reports_are_byte_identical(traced_pair, tmp_path):
    workload, (_, traced), _ = traced_pair
    assert _iteration(workload, tmp_path) == traced


def test_uninstall_restores_the_program():
    from g2fueter import exterior, fueter, g2core, splitting

    originals = (exterior.wedge, g2core.standard_g2, splitting.Splitting.__init__,
                 exterior.Form.__init__)
    with tracer.Tracer():
        assert fueter.wedge is not originals[0]  # the `from .exterior import` alias
    assert (exterior.wedge, g2core.standard_g2, splitting.Splitting.__init__,
            exterior.Form.__init__) == originals
    assert fueter.wedge is exterior.wedge


def test_tracer_counts_requested_scan_samples(traced_pair):
    workload, (t, _), _ = traced_pair
    ops = workloads.build_ops(workload, SEED, tiny=True)
    requested = sum(op.samples for op in ops if op.name.startswith("scan."))
    assert t.counters["splitting.scan.samples"] == requested
    measured = dict.fromkeys(tracer.THROUGHPUTS, 0.0)
    measured.update({f"{name}.calls.in_scans": 0 for name in tracer.IN_SCANS})
    metrics = t.layer_metrics(1.0, 1.0, measured)
    assert list(metrics) == [name for name, _, _ in tracer.PER_LAYER]


# -- the gate -------------------------------------------------------------------


def _report(residual, passed=True):
    check = {"name": "c", "claim": "x", "residualOrFlag": residual, "pass": passed}
    return json.dumps({"checks": [check]})


def test_gate_counts_nan_residual_and_failing_check():
    tally = gate.Tally()
    tally.record("ok", gate.report_failures(_report(1e-15), 0))
    tally.record("nan", gate.report_failures(_report(float("nan")), 0))
    tally.record("failing", gate.report_failures(_report(0.5, passed=False), 1))
    tally.record("flag", gate.report_failures(_report(True), 0))
    assert (tally.attempted, tally.failed, tally.fail_frac) == (4, 2, 0.5)
    assert tally.reasons[0].startswith("nan:") and tally.reasons[1].startswith("failing:")


@pytest.mark.parametrize("text, code", [
    ('{"checks": [{"name": "c", "residualOrFlag": 1e400, "pass": true}]}', 0),
    ('{"checks": [{"name": "c", "residualOrFlag": Infinity, "pass": true}]}', 0),
    (_report(0.0), 1),
    ('{"checks": []}', 0),
    ("", 0),
])
def test_gate_rejects(text, code):
    assert gate.report_failures(text, code)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = stats.tail([float(i) for i in range(20)])
    assert (value, pct, beyond) == (9.0, 50.0, 10)


def test_op_median_sum_takes_each_operation_middle_sample():
    def it(a, b):
        return {"ops": [{"op": "a", "wall_s": a}, {"op": "b", "wall_s": b}]}

    # the middle samples, 2 and 20, come from different iterations
    assert stats.op_median_sum([it(1.0, 30.0), it(2.0, 10.0), it(3.0, 20.0)]) == 22.0


# -- the command -----------------------------------------------------------------


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _bench(ROOT, "--workload", "batched", "--seed", str(SEED),
                  "--seconds", "0.1", "--trace", trace, "--tiny", "--cold")
    assert proc.returncode == 0, proc.stderr
    assert "cold_wall_s" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["splitting.scan.samples"] == 3500
        # quadrature's grids build splittings; the scans alone build few forms
        for name in tracer.IN_SCANS:
            assert 0 < m[f"{name}.calls.in_scans"] < m[f"{name}.calls"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "verify-strict", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
