"""Child-process side of the benchmark; run.py starts one process per task.

  worker.py setup
      time `import g2fueter` plus the first standard_splitting(), with
      numpy already imported
  worker.py op --workload W --seed N --index I --out FILE [--tiny]
      run one library experiment cold, writing its report to FILE
  worker.py loop --workload W --seed N --seconds T --trace 0|1 [--tiny]
      warm-up iteration at tiny sizes, then warm operations for T seconds
      (at least three whole iterations), then with --trace 1 one traced
      iteration; prints one JSON object

Only the standard library is imported before the timed import of the
program.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports no numpy and no g2fueter)
from gate import Tally, report_failures, sha256  # noqa: E402
from stats import median  # noqa: E402
from tracer import IN_SCANS, Tracer  # noqa: E402

TMP = workloads.ROOT / ".bench_out" / "tmp"


def cmd_setup(_args):
    # numpy is imported first and not counted: OpenBLAS starts its thread
    # pool during that import, and whether the start overlaps the import
    # depends on the other CPU being free, which made the time bimodal
    import numpy  # noqa: F401

    t0, c0 = time.perf_counter(), time.process_time()
    workloads.load_program()
    from g2fueter import splitting

    splitting.standard_splitting()
    return {"setup_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}


def cmd_op(args):
    workloads.load_program()
    op = workloads.build_ops(args.workload, args.seed, args.tiny)[args.index]
    text, code = workloads.run_experiment(op, args.seed)
    Path(args.out).write_text(text + "\n")
    sys.exit(code)


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def cmd_loop(args):
    workloads.load_program()
    ops = workloads.build_ops(args.workload, args.seed, args.tiny)
    TMP.mkdir(parents=True, exist_ok=True)
    out_path = TMP / f"report-{os.getpid()}.json"
    tally, reports, last_wall = Tally(), {}, {}
    calls = None  # while tracing, the tracer's call counts after each operation

    def iteration(kind, ops=ops, until=None):
        """Run ops in order; with until, stop before an operation that,
        taking as long as its last run, would end after that time."""
        records = []
        for op in ops:
            if until is not None and time.perf_counter() + last_wall[op.name] > until:
                kind = "partial"
                break
            o0, oc = time.perf_counter(), time.process_time()
            try:
                text, code, program_wall = workloads.run_op(op, args.seed, out_path)
                reasons = report_failures(text, code)
            except Exception as exc:  # a crashed operation is a failed one
                text, program_wall = "", None
                reasons = [f"raised {type(exc).__name__}: {exc}"]
            wall, cpu = time.perf_counter() - o0, time.process_time() - oc
            digest = sha256(text)
            if kind != "warm-up" and reports.setdefault(op.name, digest) != digest:
                reasons.append(f"report bytes differ from the first iteration ({kind})")
            tally.record(op.name, reasons)
            last_wall[op.name] = wall
            records.append({"op": op.name, "wall_s": wall, "cpu_s": cpu,
                            "program_wall_s": program_wall,
                            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            if calls:
                records[-1]["calls"] = calls()
        return {"kind": kind, "wall_s": sum(r["wall_s"] for r in records),
                "cpu_s": sum(r["cpu_s"] for r in records), "ops": records}

    # the same code paths at tiny sizes: imports, lazy set-up and caches
    # are warm, at a fraction of an iteration's cost
    iterations = [iteration("warm-up", workloads.build_ops(args.workload, args.seed, True))]
    # three whole warm iterations, so that each operation has a median,
    # then operations in the same order while each still ends within
    # --seconds, so that the whole run is measured, not only the whole
    # iterations that fit in it
    until = time.perf_counter() + args.seconds
    warm = [iteration("warm") for _ in range(3)]
    while warm[-1]["kind"] == "warm":
        warm.append(iteration("warm", until=until))
    if not warm[-1]["ops"]:
        warm.pop()
    iterations += warm

    throughputs = _throughputs(ops, warm)
    result = {"iterations": iterations, "reports": reports, "throughputs": throughputs,
              "environment": _environment()}
    if args.trace:
        tracer = Tracer()
        calls = tracer.calls
        with tracer:
            traced = iteration("traced")
        iterations.append(traced)
        untraced = median([it["wall_s"] for it in warm if it["kind"] == "warm"])
        result["per_layer"] = tracer.layer_metrics(
            traced["wall_s"], untraced, {**throughputs, **_calls_in_scans(traced["ops"])})
        result["spans_by_name"] = {name: dict(zip(("calls", "total_s", "self_s"), st))
                                   for name, st in sorted(tracer.stats.items())}
    result["tally"] = dataclasses.asdict(tally)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _calls_in_scans(records):
    """IN_SCANS call counts made during the scan operations of one iteration."""
    out = {f"{name}.calls.in_scans": 0 for name in IN_SCANS}
    before = dict.fromkeys(IN_SCANS, 0)
    for r in records:
        if r["op"].startswith("scan."):
            for name in IN_SCANS:
                out[f"{name}.calls.in_scans"] += r["calls"][name] - before[name]
        before = r["calls"]
    return out


def _throughputs(ops, warm):
    """Samples or grid points per second, over the untraced warm iterations."""
    def op_wall(name):
        return median([r["wall_s"] for it in warm for r in it["ops"] if r["op"] == name])

    by_name = {op.name: op for op in ops}
    out = {"scan.anisotropic.planes_per_s": 0.0, "scan.semical.frames_per_s": 0.0,
           "quad.points_per_s": 0.0}
    if "scan.anisotropic" in by_name:
        out["scan.anisotropic.planes_per_s"] = (by_name["scan.anisotropic"].samples
                                                / op_wall("scan.anisotropic"))
        out["scan.semical.frames_per_s"] = by_name["scan.semical"].samples / op_wall("scan.semical")
    quadrature = [op for op in ops if op.points]
    if quadrature:
        out["quad.points_per_s"] = (sum(op.points for op in quadrature)
                                    / sum(op_wall(op.name) for op in quadrature))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("setup").set_defaults(fn=cmd_setup)
    for name, fn in (("op", cmd_op), ("loop", cmd_loop)):
        sp = sub.add_parser(name)
        sp.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--tiny", action="store_true")
        sp.set_defaults(fn=fn)
    sub.choices["op"].add_argument("--index", type=int, required=True)
    sub.choices["op"].add_argument("--out", required=True)
    loop = sub.choices["loop"]
    loop.add_argument("--seconds", type=float, required=True)
    loop.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(json.dumps(args.fn(args)))


if __name__ == "__main__":
    main()
