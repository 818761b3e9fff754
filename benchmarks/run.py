"""Benchmark of g2fueter: time to a verified result, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify-strict --seed 1 --seconds 45 --trace 0

--workload is verify-strict, batched, or all (the default), which runs
both in turn.  Each workload runs in its own child processes, one process
at a time:

  setup     `import g2fueter` and the first standard_splitting(), in fresh
            processes that have imported numpy, half of them before the
            loop and half after it; setup_s is their median
  loop      one child that runs a warm-up iteration at tiny sizes and
            then warm operations, in order, for --seconds (at least three
            whole iterations); wall_s is the sum over operations of each
            one's median time, wall_s.tail the highest percentile of whole
            iterations with ten beyond it (their maximum when fewer than
            eleven), and peak_rss_mb is this child's ru_maxrss
  cold      with --trace 1 or --cold: each operation once in a fresh
            process (`python -m g2fueter.cli ...` for a g2f command);
            cold_wall_s is the sum, as a user running the commands one by
            one waits for it

With --trace 1 the setup probes are skipped, the loop is followed by one
iteration traced by tracer.py, and the per-layer metrics are reported
instead.  `--workload all --cold` prints every end-to-end metric.

Every report passes the gate in gate.py, and all reports of one operation
must be byte-identical across iterations, processes and tracing.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Timings, environment and report hashes are written to
.bench_out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402
from gate import Tally, report_failures, sha256  # noqa: E402

ROOT, SRC = workloads.ROOT, workloads.SRC
OUT = ROOT / ".bench_out"
TMP = OUT / "tmp"
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170  # per workload; the whole run must end within 180 s
SETUP_PROBES = 6  # counted ones, half before the loop and half after

# BENCHMARK.json end_to_end, in order.  wall_s.tail and cold_wall_s are
# printed but not bounded.  With the few warm iterations that fit in a
# run the tail is their maximum, and cold_wall_s has one sample per
# operation.  On a shared 2-CPU Xeon virtual machine, where the same
# command's time swings by up to 2x within minutes, their spread across
# ten runs reached 26%, more than the largest bound a metric may have.
# The cold pass is left out of untraced runs by default so that their
# time goes to warm iterations.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, deadline):
    """Run one child to completion; its wall and CPU time and ru_maxrss.

    os.wait4 gives the resource usage of this child alone.
    """
    with tempfile.TemporaryFile(dir=TMP) as out, tempfile.TemporaryFile(dir=TMP) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return {
            "exit_code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace"),
        }


def _last_json(child, what):
    lines = child["stdout"].strip().splitlines()
    if child["exit_code"] != 0 or not lines:
        tail = child["stderr"].strip().splitlines()[-5:]
        raise BenchError(f"{what} exited with {child['exit_code']}: " + " | ".join(tail))
    return json.loads(lines[-1])


def _setup_samples(count, deadline):
    return [_last_json(spawn([sys.executable, str(WORKER), "setup"], deadline), "setup probe")
            for _ in range(count)]


def _cold_pass(workload, seed, tiny, deadline):
    """Each operation once in a fresh process, as a user would run it."""
    results = []
    for index, op in enumerate(workloads.build_ops(workload, seed, tiny)):
        out = TMP / f"cold-{os.getpid()}-{index}.json"
        if op.argv:
            argv = [sys.executable, "-m", "g2fueter.cli", *op.argv, "--out", str(out)]
        else:
            argv = [sys.executable, str(WORKER), "op", "--workload", workload, "--seed",
                    str(seed), "--index", str(index), "--out", str(out)] + (["--tiny"] * tiny)
        child = spawn(argv, deadline)
        text = out.read_text().rstrip("\n") if out.exists() else ""
        out.unlink(missing_ok=True)
        results.append({"op": op.name, "exit_code": child["exit_code"], "text": text,
                        "wall_s": child["wall_s"], "cpu_s": child["cpu_s"],
                        "program_wall_s": workloads.parse_wall(child["stderr"])})
    return results


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(before, after, worker_env):
    return {
        "python": platform.python_version(),
        **worker_env,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_1m_before": before,
        "loadavg_1m_after": after,
    }


def run_workload(workload, seed, seconds, trace, tiny, cold):
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()[0]
    details = {"workload": workload, "why": workloads.WORKLOADS[workload], "seed": seed,
               "seconds": seconds, "trace": trace, "tiny": tiny}
    cold = _cold_pass(workload, seed, tiny, deadline) if cold or trace else []
    if not trace:
        # the first probe may compile bytecode, so it is not counted
        setup = _setup_samples(1 + SETUP_PROBES // 2, deadline)[1:]
    argv = [sys.executable, str(WORKER), "loop", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] * tiny)
    child = spawn(argv, deadline)
    loop = _last_json(child, "benchmark loop")
    if not trace:
        setup += _setup_samples(SETUP_PROBES - SETUP_PROBES // 2, deadline)
    tally = Tally(**loop["tally"])
    warm = [it for it in loop["iterations"] if it["kind"] == "warm"]
    details.update({
        "environment": _environment(load_before, os.getloadavg()[0], loop["environment"]),
        "iterations": loop["iterations"],
        "report_sha256": loop["reports"],
        "throughputs": loop["throughputs"],
        "loop_process": {k: child[k] for k in ("wall_s", "cpu_s", "maxrss_kb")},
    })

    for c in cold:
        reasons = report_failures(c["text"], c["exit_code"])
        if sha256(c["text"]) != loop["reports"].get(c["op"]):
            reasons.append("cold-process report differs from the in-process one")
        tally.record(c["op"], reasons)
        c["sha256"] = sha256(c.pop("text"))
    if cold:
        details.update({"cold": cold, "cold_wall_s": {
            "value": sum(c["wall_s"] for c in cold), "unit": "s"}})
    if trace:
        metrics = {name: tuple(v) for name, v in loop["per_layer"].items()}
        details["spans_by_name"] = loop["spans_by_name"]
    else:
        walls = [it["wall_s"] for it in warm]
        tail, pct, beyond = stats.tail(walls)
        metrics = {
            "wall_s": (stats.op_median_sum(
                [it for it in loop["iterations"] if it["kind"] in ("warm", "partial")]), "s"),
            "setup_s": (stats.median([s["setup_s"] for s in setup]), "s"),
            "peak_rss_mb": (child["maxrss_kb"] / 1024.0, "MB"),
        }
        details.update({"setup": setup,
                        "wall_s.tail": {"value": tail, "unit": "s", "percentile": pct,
                                        "samples": len(walls), "beyond": beyond}})
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    details.update({"attempted": tally.attempted, "failed": tally.failed,
                    "fail_frac": tally.fail_frac, "failures": tally.reasons})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    _print_summary(details, path)
    return tally, metrics


def _print_summary(d, path):
    env = d["environment"]
    print(f"== {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  trace {d['trace']}")
    print(f"   why: {d['why']}")
    for name, m in d["metrics"].items():
        if d["trace"] and not m["value"]:
            continue
        print(f"   {name:42s} {m['value']:>16.6g} {m['unit']}")
    if not d["trace"]:
        warm = [it for it in d["iterations"] if it["kind"] == "warm"]
        tail = d["wall_s.tail"]
        print(f"   {'wall_s.tail':42s} {tail['value']:>16.6g} s  (p{tail['percentile']:.0f} of "
              f"{tail['samples']} warm iterations, {tail['beyond']} beyond)")
        print(f"   {'cpu_s per warm iteration':42s} "
              + ", ".join(f"{it['cpu_s']:.3f}" for it in warm) + " s")
        for name, value in d["throughputs"].items():
            if value:
                print(f"   {name:42s} {value:>16.6g} 1/s")
    if d.get("cold"):
        print(f"   {'cold_wall_s':42s} {d['cold_wall_s']['value']:>16.6g} s  (cpu "
              f"{sum(c['cpu_s'] for c in d['cold']):.4g} s)")
    print(f"   {'fail_frac':42s} {d['fail_frac']:>16.6g} ratio "
          f"({d['failed']} of {d['attempted']} operations failed)")
    for reason in d["failures"]:
        print(f"   FAILED {reason}")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']} ({env['cpus_usable']} usable), {env['cpu_model']}, "
          f"load {env['loadavg_1m_before']:.2f} -> {env['loadavg_1m_after']:.2f}, "
          f"threads {env['thread_env']}")
    print(f"   details: {path.relative_to(ROOT)}")


def _result_line(tally, metrics):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })


def main(argv=None):
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=tuple(workloads.WORKLOADS) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cold", action="store_true",
                   help="also run each operation once in a fresh process when --trace 0")
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's self-test")
    args = p.parse_args(argv)

    # on SIGTERM, unwind so that spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "g2fueter" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {SRC / 'g2fueter'} is missing",
              file=sys.stderr)
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    total, combined = Tally(), {}
    try:
        for name in names:
            tally, metrics = run_workload(name, args.seed, args.seconds, args.trace, args.tiny,
                                           args.cold)
            total.merge(tally)
            if len(names) > 1:
                print(_result_line(tally, metrics))
            combined.update({(f"{name}.{k}" if len(names) > 1 else k): v
                             for k, v in metrics.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(_result_line(total, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
