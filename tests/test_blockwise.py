"""The sample-block worker pool: `splitting._blockwise` and the scans on it.

Blocks of samples may run on any thread in any order, so these tests pin
what must not move: every report byte (against one whole-array block run
as a plain loop, and across CPU counts), the threads left behind, the
thread that every public function runs on, numpy's error state inside the
workers, and that commands which never start a pool never import it.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from g2fueter import splitting as sp

from test_tracer import load_tracer

ROOT = Path(__file__).resolve().parent.parent
S = sp.standard_splitting()
FUETER_T = np.zeros((3, 4))
FUETER_T[0, 0], FUETER_T[2, 2] = 1.0, -1.0


def _plain_loop(fn, jobs):
    for job in jobs:
        fn(job)


def _whole_serial(monkeypatch):
    """One block of every sample, run as a plain loop: the whole-array scan."""
    monkeypatch.setattr(sp, "_CONTRACT_BLOCK", 10 ** 9)
    monkeypatch.setattr(sp, "_blockwise", _plain_loop)


def _pooled(monkeypatch, block):
    """Blocks of `block` samples on a two-worker pool, on any host."""
    monkeypatch.setattr(sp, "_CONTRACT_BLOCK", block)
    monkeypatch.setattr(sp, "_usable_cpus", lambda: 2)


class _DegenerateRow:
    """A generator whose draws have sample `row` zeroed, counted across calls,
    so that the frame drawn there is degenerate and gets redrawn."""

    def __init__(self, rng, row):
        self.rng, self.row, self.drawn = rng, row, 0

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if self.drawn <= self.row < self.drawn + shape[0]:
            out[self.row - self.drawn] = 0.0
        self.drawn += shape[0]
        return out


def _scan_bytes(n, included, block):
    """JSON of the anisotropic scan and of the semical scan at eps 1 and
    0.01, the latter with a degenerate draw at the first row of the second
    block when there is one."""
    reports = [sp.anisotropic_scan(
        S, sp.PlaneSampler(n), n,
        include_planes=[FUETER_T, np.zeros((3, 4))] if included else ())]
    for eps in (1.0, 0.01):
        sampler = sp.PlaneSampler(n + 1)
        sampler.rng = _DegenerateRow(sampler.rng, block)
        reports.append(sp.semi_calibration_scan(
            sp.adiabatic_family(S.g2.phi, S, eps), np.diag([1.0] * 3 + [eps] * 4),
            sampler, n, include_frames=[np.eye(7)[:3]] if included else ()))
        assert sampler.rng.drawn == n + (n > block)  # one redraw when the row is drawn
    return [json.dumps(rep.as_dict(), sort_keys=True) for rep in reports]


@pytest.mark.parametrize("block", [1000, 7777])
def test_block_edges_change_no_byte(block, monkeypatch):
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        for included in (False, True):
            with monkeypatch.context() as m:
                _whole_serial(m)
                want = _scan_bytes(n, included, block)
            with monkeypatch.context() as m:
                _pooled(m, block)
                assert _scan_bytes(n, included, block) == want, (n, included)


def test_many_workers_and_fast_switching_change_no_byte(monkeypatch):
    # more workers than cores, switching threads every microsecond: a lost
    # or misplaced row write would change a report
    with monkeypatch.context() as m:
        _whole_serial(m)
        want = _scan_bytes(4321, True, 100)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        _pooled(monkeypatch, 100)
        monkeypatch.setattr(sp, "_usable_cpus", lambda: 8)
        assert _scan_bytes(4321, True, 100) == want
    finally:
        sys.setswitchinterval(interval)


_CPU_SCRIPT = """
import os, sys
from g2fueter import cli, splitting
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
splitting._CONTRACT_BLOCK = 1000
print(splitting._usable_cpus())
for kind, samples in (("anisotropic", "4321"), ("semical", "2345")):
    out = os.path.join(sys.argv[2], sys.argv[1] + "-" + kind + ".json")
    assert cli.run(["scan", kind, "--samples", samples, "--seed", "3", "--out", out]) == 0
"""


def _run_python(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_one_cpu_gives_the_bytes_of_all_cpus(tmp_path):
    assert _run_python(_CPU_SCRIPT, "one", tmp_path).strip() == "1"
    _run_python(_CPU_SCRIPT, "all", tmp_path)
    for kind in ("anisotropic", "semical"):
        assert (tmp_path / f"one-{kind}.json").read_bytes() == \
            (tmp_path / f"all-{kind}.json").read_bytes(), kind


def test_scans_leave_no_thread_and_trace_on_the_main_thread(monkeypatch):
    _pooled(monkeypatch, 1000)
    seen = []  # (on the main thread, live threads) at each traced call

    def noting(wrapper):
        @functools.wraps(wrapper)
        def noted(*args, **kwargs):
            seen.append((threading.current_thread() is threading.main_thread(),
                         threading.active_count()))
            return wrapper(*args, **kwargs)
        return noted

    class ThreadNotingTracer(load_tracer().Tracer):
        def _span(self, name, fn, after=None):
            return noting(super()._span(name, fn, after))

        def _leaf(self, name, fn):
            return noting(super()._leaf(name, fn))

    before = threading.active_count()
    with ThreadNotingTracer() as tracer:
        sp.anisotropic_scan(S, sp.PlaneSampler(1), 5000, include_planes=[FUETER_T])
        sp.semi_calibration_scan(S.g2.phi, np.eye(7), sp.PlaneSampler(2), 5000)
    assert threading.active_count() == before
    assert all(main for main, _ in seen)
    assert max(live for _, live in seen) > before  # drawn while the pool ran
    assert tracer.stats["splitting.PlaneSampler.graph_planes"][0] == 5
    assert tracer.counters["splitting.scan.samples"] == 10000


def test_workers_keep_the_callers_errstate(monkeypatch):
    _pooled(monkeypatch, 1000)
    out, threads = np.zeros(6), set()

    def divide(i):
        threads.add(threading.current_thread())
        out[i] = (np.ones(1) / np.zeros(1))[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="ignore"):
            sp._blockwise(divide, range(6))
        assert np.all(np.isinf(out)) and threading.main_thread() not in threads
        with pytest.raises(RuntimeWarning):  # raised in a worker, seen here
            sp._blockwise(divide, range(6))
        # omega and ve_1 overflow in the second block: only the guard speaks
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(AssertionError, match="identity violated"):
            sp.anisotropic_scan(S, sp.PlaneSampler(1), 1500,
                                include_planes=[FUETER_T] * 1200 + [1e200 * FUETER_T])


def test_lone_job_or_one_cpu_runs_inline(monkeypatch):
    threads = []
    sp._blockwise(lambda job: threads.append(threading.current_thread()), [0])
    monkeypatch.setattr(sp, "_usable_cpus", lambda: 1)
    sp._blockwise(lambda job: threads.append(threading.current_thread()), range(5))
    assert threads == [threading.main_thread()] * 6


_IMPORT_SCRIPT = """
import os, sys
from g2fueter import cli
assert "concurrent.futures" not in sys.modules, "imported by g2fueter.cli"
for suite in cli.SUITES:
    assert cli.run(["verify", suite, "--seed", "1", "--profile", "strict",
                    "--out", os.devnull]) == 0, suite
assert "concurrent.futures" not in sys.modules, "imported by verify"
"""


def test_cli_and_strict_verify_never_import_the_pool():
    _run_python(_IMPORT_SCRIPT)
