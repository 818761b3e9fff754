"""The benchmark's workloads: which g2f operations run, built from a seed.

An operation is either a `g2f` command, run in-process through
`g2fueter.cli.run(argv)` or in a fresh process as `python -m
g2fueter.cli`, or one of two library experiments (acceptance criteria 8 and
10) that have no command and are run by `run_experiment` below.  Both kinds
produce a report in the CLI's format, so one gate checks them all.

Importing this module does not import g2fueter; the program is loaded
from the checkout's `src/` by `load_program`.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SUITES = ("algebra", "splitting", "fueter", "models", "pde", "fm")
AMPLITUDES = (0.01, 0.1, 0.5)
GRID_N = 8  # criterion 8 and 10 quadrature grids

# why each workload was chosen.  `batched` holds the torus-grid quadrature
# and the batched scans: both are array work that builds few Forms (about
# 6% of verify-strict's count), and two workloads rather than three let
# each run measure for 45 s within the benchmark's time limit, which a host
# whose speed drifts by 20% from minute to minute needs.
WORKLOADS = {
    "verify-strict": "per-plane pointwise work: the sparse Form layer, G2 constants "
                     "rebuilt per call, per-plane splitting and fueter routines",
    "batched": "batched array work with little Form use: torus-grid quadrature "
               "(jets, 4-tensor einsums, one splitting per grid), then sampler QR scans",
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload."""

    name: str
    argv: tuple = ()       # g2f arguments; empty for a library experiment
    size: int = 0          # experiment size: perturbations or variations
    samples: int = 0       # scan samples requested (frames for semical)
    points: int = 0        # quadrature grid points, n^3 per grid


def build_ops(workload: str, seed: int, tiny: bool = False) -> list:
    """The operations of one iteration; the same seed gives the same list."""
    s = str(seed)
    if workload == "verify-strict":
        size = ("--profile", "fast", "--samples", "8") if tiny else ("--profile", "strict")
        return [Op(f"verify.{x}", ("verify", x, "--seed", s) + size) for x in SUITES]
    if workload == "batched":
        # quadrature first, so that the high-water mark of memory after its
        # operations in the first iteration is its own
        return _quadrature_ops(s, tiny) + _scan_ops(s, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _quadrature_ops(s, tiny):
    grid, perturbations, variations = (8, 4, 2) if tiny else (64, 200, 20)
    cell = GRID_N ** 3
    return [
        Op("energy", ("energy", "--grid", str(grid), "--seed", s), points=grid ** 3),
        # one base grid plus one grid per perturbation, per amplitude
        Op("minimization", size=perturbations,
           points=len(AMPLITUDES) * (perturbations + 1) * cell),
        # two action evaluations and one boundary grid per variation,
        # plus the adversarial field's grid
        Op("first-variation", size=variations, points=(variations + 1) * 3 * cell + cell),
    ]


def _scan_ops(s, tiny):
    n_aniso, n_semi = (2000, 500) if tiny else (1_000_000, 300_000)
    eps = (1.0, 0.1, 0.01)  # the command's default
    return [
        Op("scan.anisotropic", ("scan", "anisotropic", "--samples", str(n_aniso),
                                "--seed", s), samples=n_aniso),
        Op("scan.semical", ("scan", "semical", "--samples", str(n_semi), "--seed", s),
           samples=n_semi * len(eps)),
    ]


def load_program():
    """Import g2fueter from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import g2fueter

    found = Path(g2fueter.__file__).resolve().parent
    if found != (SRC / "g2fueter").resolve():
        raise SystemExit(f"g2fueter was imported from {found}, not from {SRC}")
    return g2fueter


# -- library experiments ---------------------------------------------------------


def _record(name, claim, value, passed):
    return {"name": name, "claim": claim, "residualOrFlag": value, "pass": bool(passed)}


def _minimization(seed, perturbations):
    """Criterion 8: no sampled competitor lowers VE or VE + VolH."""
    from g2fueter import pde

    base = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    checks, results = [], {}
    for amp in AMPLITUDES:
        rep = pde.minimization_experiment(base, perturbations, amp, seed=seed, grid_n=GRID_N)
        results[str(amp)] = rep
        violations = rep["veViolations"] + rep["totalViolations"]
        checks.append(_record(f"minimization-{amp}",
                              "no sampled competitor lowers VE or VE + VolH",
                              violations, violations == 0))
    return checks, {"experiments": results}


def _first_variation(seed, variations):
    """Criterion 10: the action's first variation vanishes at a Fueter
    endpoint and not along the adversarial field at a non-Fueter one."""
    import numpy as np
    from g2fueter import pde

    sec = pde.affine_fueter_section([1, 0, 2, -1], [0, 1, 1, 3])
    u0 = sec + pde.random_fourier_field(np.random.default_rng([seed, 0]), kmax=1)
    numeric = []
    for k in range(variations):
        Z = pde.random_fourier_field(np.random.default_rng([seed, 1, k]), kmax=1)
        numeric.append(pde.cs_first_variation(u0, sec, Z, n=GRID_N)[0])
    worst = float(np.max(np.abs(numeric)))  # NaN propagates, unlike max()

    bad = pde.affine_map(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    u0b = bad + pde.random_fourier_field(np.random.default_rng([seed, 2]), kmax=1)
    num_bad = float(pde.cs_first_variation(u0b, bad, pde.adversarial_variation(bad),
                                           n=GRID_N)[0])
    checks = [
        _record("first-variation-critical", "the first variation vanishes at a solution",
                worst, worst < 1e-6),
        _record("first-variation-adversarial",
                "the adversarial variation is nonzero at a non-solution",
                abs(num_bad), abs(num_bad) >= 1e-3),
    ]
    return checks, {"numeric": [float(v) for v in numeric], "adversarial": num_bad}


EXPERIMENTS = {"minimization": _minimization, "first-variation": _first_variation}


def run_experiment(op: Op, seed: int) -> tuple:
    """(report text, exit code) of a library experiment, in g2f's format."""
    checks, payload = EXPERIMENTS[op.name](seed, op.size)
    report = {"command": f"{op.name} --seed {seed} --size {op.size}", "seed": seed,
              "checks": checks, **payload}
    # the program's own serialization: NaN is written, and the gate rejects it
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return text, 0 if all(c["pass"] for c in checks) else 1


_WALL_LINE = re.compile(r"wall time: ([0-9.]+)s")


def run_op(op: Op, seed: int, out_path: Path) -> tuple:
    """Run one operation in this process.

    Returns (report text, exit code, the command's own stderr wall time or
    None).  A g2f command writes its report to out_path, exactly as `g2f
    ... --out FILE` does.
    """
    if not op.argv:
        text, code = run_experiment(op, seed)
        return text, code, None
    from g2fueter import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(op.argv) + ["--out", str(out_path)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    text = out_path.read_text().rstrip("\n") if out_path.exists() else ""
    out_path.unlink(missing_ok=True)
    return text, code, parse_wall(err.getvalue())


def parse_wall(stderr_text: str):
    m = _WALL_LINE.search(stderr_text)
    return float(m.group(1)) if m else None
