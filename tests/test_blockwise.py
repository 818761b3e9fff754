"""The sample-block worker pool: `splitting._blockwise` and the scans on it.

Blocks of samples may run on any thread in any order, so these tests pin
what must not move: every report byte (against one whole-array block run
as a plain loop, and across CPU counts), the threads left behind, the
thread that every public function runs on, numpy's error state inside the
workers, and that commands which never start a pool never import it.
"""

import copy
import functools
import itertools
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from g2fueter import exterior as ex
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
    """A generator whose draws have sample `row` zeroed, so that the frame
    drawn there is degenerate and gets redrawn.  `sizes` logs the row count
    of every draw.  A deep copy, which a sampler redraws from, continues a
    copy of the stream past the row, so it zeroes nothing, and it logs into
    the same list."""

    def __init__(self, rng, row):
        self.rng, self.row, self.drawn, self.sizes = rng, row, 0, []

    def __deepcopy__(self, memo):
        twin = copy.copy(self)
        twin.rng = copy.deepcopy(self.rng, memo)
        return twin

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if self.drawn <= self.row < self.drawn + shape[0]:
            out[self.row - self.drawn] = 0.0
        self.drawn += shape[0]
        self.sizes.append(shape[0])
        return out


class _EditedDraws:
    """A generator whose draws go through edit(block, start), which may
    change the block in place, start being the global row of its first
    sample; so a scan sees the same samples in blocks of any size."""

    def __init__(self, rng, edit):
        self.rng, self.edit, self.drawn = rng, edit, 0

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        self.edit(out, self.drawn)
        self.drawn += shape[0]
        return out


def _planting(planes):
    """An edit that puts planes[row] at each of the given global rows."""
    def edit(out, start):
        for row, plane in planes.items():
            if start <= row < start + len(out):
                out[row - start] = plane
    return edit


def _scan_bytes(n, included, block, shared=False):
    """JSON of the anisotropic scan and of the semical scan at eps 1 and
    0.01, the latter with a degenerate draw at the first row of the second
    block when there is one.  The two semical scans draw from fresh samplers
    of one seed, or with `shared` from one sampler, which draws once and
    must redraw the degenerate row for each metric as a fresh one does."""
    reports = [sp.anisotropic_scan(
        sp.PlaneSampler(n), n,
        include_planes=[FUETER_T, np.zeros((3, 4))] if included else ())]
    samplers = [sp.PlaneSampler(n + 1) for _ in range(1 if shared else 2)]
    for sampler in samplers:
        sampler.rng = _DegenerateRow(sampler.rng, block)
    for eps, sampler in zip((1.0, 0.01), samplers * 2):
        reports.append(sp.semi_calibration_scan(
            sp.adiabatic_family(S.g2.phi, eps), np.diag([1.0] * 3 + [eps] * 4),
            sampler, n, include_frames=[np.eye(7)[:3]] if included else ()))
    for sampler in samplers:  # the draw, then one redraw per metric when the row is drawn
        assert sum(sampler.rng.sizes) == n + (n > block) * (2 if shared else 1)
    return [json.dumps(rep.as_dict(), sort_keys=True) for rep in reports]


@pytest.mark.parametrize("block", [1000, 7777])
def test_block_edges_change_no_byte(block, monkeypatch):
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        for included in (False, True):
            with monkeypatch.context() as m:
                _whole_serial(m)
                want = _scan_bytes(n, included, block)
            for shared in (False, True):
                with monkeypatch.context() as m:
                    _pooled(m, block)
                    assert _scan_bytes(n, included, block, shared) == want, (n, included, shared)
            with monkeypatch.context() as m:
                _whole_serial(m)
                assert _scan_bytes(n, included, block, shared=True) == want, (n, included)


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
        assert _scan_bytes(4321, True, 100, shared=True) == want
    finally:
        sys.setswitchinterval(interval)


def _anisotropic_sampler(edit, seed=5):
    sampler = sp.PlaneSampler(seed)
    sampler.rng = _EditedDraws(sampler.rng, edit)
    return sampler


def _streamed_report(monkeypatch, n, edit):
    """The anisotropic report on the edited draw, in blocks of 7 planes and
    as one whole block, which must agree byte for byte; the report."""
    got = []
    for run in (_whole_serial, functools.partial(_pooled, block=7)):
        with monkeypatch.context() as m:
            run(m)
            rep = sp.anisotropic_scan(_anisotropic_sampler(edit), n)
        got.append(json.dumps(rep.as_dict(), sort_keys=True))
    assert got[0] == got[1]
    return rep


def test_fold_keeps_the_first_nan_and_the_first_of_equal_maxima():
    blocks = [np.array([0.5, 1.0, 1.0]), np.array([1.0, -np.inf]),
              np.array([0.0, np.nan, np.nan]), np.array([np.inf, np.nan])]
    fold = sp._RatioFold(0.0)
    assert [fold.add(b) for b in blocks] == [1, None, 1, None]
    assert np.argmax(np.concatenate(blocks)) == 6  # the row the fold kept
    assert np.isnan(fold.max_ratio) and fold.violations == 4  # NaN and inf violate
    skipped = sp._RatioFold(0.0)
    assert [skipped.add(np.full(m, -np.inf)) for m in (2, 3)] == [0, None]
    assert skipped.max_ratio == -np.inf and skipped.violations == 0


def test_equal_maxima_in_two_blocks_keep_the_first(monkeypatch):
    # T and 2T have bit-equal ratios (scaling by 2 is exact): the first wins
    planes = np.stack([FUETER_T, 2.0 * FUETER_T])
    omega = sp._omega_values(sp._omega_blocks(), planes)
    ratios = omega / (0.5 * np.einsum("nia,nia->n", planes, planes))
    assert ratios[0] == ratios[1]
    rep = _streamed_report(monkeypatch, 30, _planting({3: planes[0], 12: planes[1]}))
    assert rep.max_ratio == ratios[0] and rep.argmax_frame == FUETER_T.tolist()
    assert [case["T"] for case in rep.equality_cases] == planes.tolist()


def test_first_sixteen_near_equality_planes_across_blocks(monkeypatch):
    planes = {2 + 3 * j: 2.0 ** j * FUETER_T for j in range(20)}  # over 9 blocks
    rep = _streamed_report(monkeypatch, 70, _planting(planes))
    assert [case["T"] for case in rep.equality_cases] == \
        [plane.tolist() for plane in list(planes.values())[:16]]
    assert rep.argmax_frame == FUETER_T.tolist()


def test_all_skipped_draw_gives_row_zero(monkeypatch):
    def horizontal(out, start):  # ve_1 about 1e-12, below the exclusion
        out *= 1e-6
    rep = _streamed_report(monkeypatch, 20, horizontal)
    first = 1e-6 * np.random.default_rng(5).standard_normal((20, 3, 4))[0]
    assert rep.skipped == 20 and rep.max_ratio == -np.inf and rep.violations == 0
    assert rep.argmax_frame == first.tolist() and rep.equality_cases == []


@pytest.mark.parametrize("row", [3, 19])
def test_identity_guard_raises_after_the_whole_draw(row, monkeypatch):
    # a plane whose omega and ve_1 overflow gives a NaN identity residual,
    # in the first or the last of three blocks; the guard keeps the NaN and
    # raises only once every block is drawn, so the generator ends where a
    # whole draw leaves it
    drawn = np.random.default_rng(5)
    drawn.standard_normal((20, 3, 4))
    for run in (_whole_serial, functools.partial(_pooled, block=7)):
        sampler = _anisotropic_sampler(_planting({row: 1e200 * FUETER_T}))
        with monkeypatch.context() as m, np.errstate(over="ignore", invalid="ignore"):
            run(m)
            with pytest.raises(AssertionError, match="identity violated: residual nan"):
                sp.anisotropic_scan(sampler, 20)
        assert sampler.rng.drawn == 20
        assert sampler.rng.rng.bit_generator.state == drawn.bit_generator.state


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
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                           *map(str, args)],
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
    seen = []  # at each traced call: is it on the main thread

    def noting(wrapper):
        @functools.wraps(wrapper)
        def noted(*args, **kwargs):
            seen.append(threading.current_thread() is threading.main_thread())
            return wrapper(*args, **kwargs)
        return noted

    class ThreadNotingTracer(load_tracer().Tracer):
        def _span(self, name, fn, after=None):
            return noting(super()._span(name, fn, after))

        def _leaf(self, name, fn):
            return noting(super()._leaf(name, fn))

    before = threading.active_count()
    with ThreadNotingTracer() as tracer:
        sp.anisotropic_scan(sp.PlaneSampler(1), 5000, include_planes=[FUETER_T])
        sp.semi_calibration_scan(S.g2.phi, np.eye(7), sp.PlaneSampler(2), 5000)
    assert threading.active_count() == before
    assert all(seen)
    assert tracer.stats["splitting.PlaneSampler.graph_planes"][0] == 5
    assert tracer.counters["splitting.scan.samples"] == 10000


def test_workers_keep_the_callers_errstate(monkeypatch):
    _pooled(monkeypatch, 1000)
    out, threads = np.zeros(6), set()

    def divide(i):
        threads.add(threading.current_thread())
        out[i] = (np.ones(1) / np.zeros(1))[0]

    # every coefficient 1e308: the contraction overflows on many drawn
    # frames, and every drawn block is contracted in a worker
    big = ex.Form(7, 3, dict.fromkeys(itertools.combinations(range(1, 8), 3), 1e308))
    contracted, contract = [], sp._ordered_contract

    def noting(dense, *vecs):
        contracted.append((threading.current_thread(), len(vecs[0])))
        return contract(dense, *vecs)

    monkeypatch.setattr(sp, "_ordered_contract", noting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="ignore"):
            sp._blockwise(divide, range(6))
        assert np.all(np.isinf(out)) and threading.main_thread() not in threads
        with pytest.raises(RuntimeWarning):  # raised in a worker, seen here
            sp._blockwise(divide, range(6))
        with np.errstate(over="ignore"):
            rep = sp.semi_calibration_scan(big, np.eye(7), sp.PlaneSampler(1), 5000)
        assert rep.max_ratio == np.inf
        workers = [thread for thread, rows in contracted if rows]
        assert workers and threading.main_thread() not in workers
        sampler = sp.PlaneSampler(1)
        with pytest.raises(RuntimeWarning, match="overflow"):
            sp.semi_calibration_scan(big, np.eye(7), sampler, 5000)
        # the draw stopped with the scan: the sampler refuses to go on
        with pytest.raises(RuntimeError, match="cut this sampler's draw short"):
            sampler.frames(5000, np.eye(7))


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
