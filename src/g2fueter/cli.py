"""Command-line driver `g2f`; USAGE is its help text.

The checks of `g2f verify` are the table in `g2fueter.checks`; this module
parses the command line, runs a command, writes its report and sets the
exit code.  Each command imports the layers it runs when it runs, so
`import g2fueter.cli` loads none of them and `g2f scan semical` loads only
`exterior`, `g2core` and `splitting` (`scan anisotropic` adds `fueter`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

USAGE = """Command-line driver: verification suites, scans, models, solutions,
energies and Fourier-Mukai sweeps, emitting deterministic JSON reports.

Reports are byte-identical for identical (command, seed) inputs: the
payload is serialized with sorted keys and fixed separators, and wall
time goes to stderr, never into the payload.

Each command takes only the options it reads, and each option states its
domain (every command also takes --out FILE):

  verify SUITE       --seed N>=0 [--samples N>=5] [--tol X] [--profile P]
  scan semical       --seed N>=0 [--samples N>=1] [--tol X] [--profile P]
                     [--eps E [E ...]]  (each E > 0)
  scan anisotropic   --seed N>=0 [--samples N>=1] [--tol X] [--profile P]
  model NAME         [--B "r1;r2;r3"] [--homology]
  solve KIND         --seed N>=0
  energy             --seed N>=0 [--grid N>=1]
  fm sweep           --seed N>=0 [--rmin R] [--rmax R>rmin] [--points N>=2]
                     [--format json|csv]

X and E are finite numbers, and each radius R lies in [1e-30, 1e30].
`model heisenberg` requires --B (a 3x3 matrix, rows separated by ';',
entries by ','; each entry 0 or of magnitude in [1e-100, 1e100]), the
other models reject it, and --homology needs an even-integer B.

Exit codes: 0 every check passes; 1 a check failed (a non-finite residual
always fails); 2 the input is outside the command's domain, with one
`error:` line on stderr and no report.
"""

SCHEMA_VERSION = 1

PROFILES = {
    "strict": {"identity": 1e-10, "construction": 1e-12, "slack": 1e-10, "samples": 1000},
    "fast": {"identity": 1e-8, "construction": 1e-8, "slack": 1e-8, "samples": 200},
}


def _record(name, claim, value, passed):
    if isinstance(value, (bool, np.bool_)):
        value = bool(value)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
    else:
        value = float(value)
        if not math.isfinite(value):
            # JSON has no NaN or infinity; a non-finite residual never passes
            value, passed = str(value), False
    return {"name": name, "claim": claim, "residualOrFlag": value, "pass": bool(passed)}


# the suites of `g2f verify`, in the order of `checks.TABLE`
SUITES = ("algebra", "splitting", "fueter", "models", "pde", "fm")


# -- commands --------------------------------------------------------------------


def _cmd_verify(args):
    from . import checks

    tol = dict(PROFILES[args.profile])
    if args.samples:
        tol["samples"] = args.samples
    if args.tol is not None:
        tol["identity"] = args.tol
    return checks.run(args.suite, np.random.default_rng(args.seed), tol), {}


def _cmd_scan(args):
    from . import g2core, splitting

    tol = dict(PROFILES[args.profile])
    slack = tol["slack"] if args.tol is None else args.tol
    if args.kind == "semical":
        checks, payloads = [], []
        eye3 = np.eye(7)[:3]
        sampler = splitting.PlaneSampler(args.seed)  # one draw for every metric
        for eps in args.eps:
            phi_eps = splitting.adiabatic_family(g2core.standard_g2().phi, eps)
            g_eps = np.diag([1.0] * 3 + [eps] * 4)
            rep = splitting.semi_calibration_scan(
                phi_eps, g_eps, sampler, args.samples, tol=slack,
                include_frames=[eye3] if eps == 1.0 else (),
                label=f"phi_eps, eps={eps}",
            )
            payloads.append(rep.as_dict())
            checks.append(_record(
                f"semical-eps-{eps}",
                "the 3-form never exceeds the volume of its metric",
                rep.max_ratio, rep.passed,
            ))
        return checks, {"scans": payloads}
    sampler = splitting.PlaneSampler(args.seed)
    fueter_plane = np.zeros((3, 4))
    fueter_plane[0, 0] = 1.0
    fueter_plane[2, 2] = -1.0
    rep = splitting.anisotropic_scan(
        sampler, args.samples, tol=slack, include_planes=[fueter_plane]
    )
    checks = [_record(
        "anisotropic", "omega(v) <= ve_1 with the pointwise equality verified",
        rep.max_ratio, rep.passed,
    )]
    return checks, {"scan": rep.as_dict()}


def _cmd_model(args):
    from . import exterior as ex
    from . import models

    m = models.model_by_name(args.name, args.B)
    flags = models.closedness_flags(m)
    payload = {
        "model": m.name,
        "flags": flags.closed(),
        "residuals": flags.as_dict(),
    }
    lam, omega, theta, mu = m.forms()
    payload["forms"] = {
        "lambda": ex.render(lam, "e"),
        "omega": ex.render(omega, "e"),
        "Theta": ex.render(theta, "e"),
        "mu": ex.render(mu, "e"),
    }
    jacobi = models.jacobi_check(m.c)
    checks = [_record("jacobi", "the structure constants close a Lie algebra",
                      jacobi, jacobi == 0.0)]
    if args.homology:
        h = models.h1_nilmanifold(m.B)
        payload["homology"] = {
            "freeRank": h.free_rank,
            "torsion": list(h.torsion_factors),
            "torsionOrder": h.torsion_order,
            "group": str(h),
        }
        checks.append(_record("homology", "first homology via exact integer reduction",
                              h.torsion_order, True))
    return checks, payload


def _cmd_solve(args):
    from . import pde

    rng = np.random.default_rng(args.seed)
    if args.kind == "flat-harmonic":
        from .checks import _harmonic_solution  # the sampler of `verify pde`

        _, resid = _harmonic_solution(rng)
        payload = {"kind": args.kind, "residualSup": resid}
        checks = [_record("solution", "constructed section solves the vertical equation",
                          resid, resid < 1e-10)]
    elif args.kind == "affine":
        a2 = rng.integers(-3, 4, size=4)
        a3 = rng.integers(-3, 4, size=4)
        u = pde.affine_fueter_section(a2, a3)
        resid = float(np.abs(pde.fueter_operator_flat(u, rng.standard_normal((100, 3)))).max())
        payload = {
            "kind": args.kind,
            "a2": a2.tolist(),
            "a3": a3.tolist(),
            "holonomy": np.asarray(u.periodicity).tolist(),
            "residualSup": resid,
        }
        checks = [_record("solution", "integer affine section is exactly a solution",
                          resid, resid == 0.0)]
    else:  # su2
        comp = [{tuple(rng.integers(0, 2, size=4)): float(rng.standard_normal())}
                for _ in range(4)]
        F = pde.AmbientPolynomialMap(comp)
        hs = pde.random_su2_points(rng, 200)
        resid = float(np.abs(pde.su2_identity_residual(F, hs)).max())
        payload = {"kind": args.kind, "identityResidualSup": resid}
        checks = [_record("identity", "the shifted-square identity holds on the samples",
                          resid, resid < 1e-8)]
    return checks, payload


def _cmd_energy(args):
    from . import pde

    rng = np.random.default_rng(args.seed)
    a2 = rng.integers(-2, 3, size=4)
    a3 = rng.integers(-2, 3, size=4)
    sec = pde.affine_fueter_section(a2, a3)
    E = pde.immersion_energies(pde.ImmersionGrid(sec, args.grid))
    checks = [_record("energy-identity",
                      "total energy = 3/2 VolH + VE pointwise",
                      E["pointwiseIdentityResidual"],
                      E["pointwiseIdentityResidual"] < 1e-12)]
    return checks, {"energies": E, "a2": a2.tolist(), "a3": a3.tolist()}


def _cmd_fm_sweep(args):
    from . import exterior as ex
    from . import fm_gauge, g2core, pde

    rng = np.random.default_rng(args.seed)
    x = [0.0, 0.0, 0.0]
    while True:
        # need a full-rank slope whose instanton and cubic 6-forms are not
        # orthogonal, else the gap decays at eighth order instead of fourth
        A = rng.integers(-2, 3, size=(4, 3)).astype(float)
        if np.linalg.matrix_rank(A) < 3:
            continue
        u = pde.affine_map(A)
        c = fm_gauge.fm_transform(u)
        K = fm_gauge.curvature(c, x)
        v = ex.wedge(K, g2core.star_phi0())
        w = ex.wedge(ex.wedge(K, K), K)
        if v.norm() > 1e-9 and w.norm() > 1e-9 and abs(ex.inner(v, w)) > 1e-6:
            break
    radii = np.logspace(np.log10(args.rmin), np.log10(args.rmax), args.points)
    rows = fm_gauge.radius_sweep(c, x, radii)
    try:
        slope = fm_gauge.sweep_slope(c, x, radii)
    except ValueError:
        # the gap rounded to zero at all but one radius: the decay is below
        # double precision there, so there is no slope and the check fails
        slope = math.nan
    checks = [_record("sweep-slope", "the normalized gap decays at fourth order",
                      slope, abs(slope + 4.0) < 0.1)]
    payload = {
        "rows": [{"r": r, "rawResidual": raw, "normalizedResidual": nrm}
                 for r, raw, nrm in rows],
        "slope": checks[0]["residualOrFlag"],
        "instantonResidual": fm_gauge.instanton_residual(c, x),
    }
    if args.format == "csv":
        lines = ["r,rawResidual,normalizedResidual"]
        lines += [f"{r!r},{raw!r},{nrm!r}" for r, raw, nrm in rows]
        payload["csv"] = "\n".join(lines)
    return checks, payload


# -- driver ------------------------------------------------------------------------


# Each option's type= states its domain; argparse turns a value outside it
# into a usage error (exit 2).


def _domain(convert, accept, expected):
    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _int_at_least(lo):
    return _domain(int, lambda v: v >= lo, f"an integer >= {lo}")


_finite = _domain(float, math.isfinite, "a finite number")
_positive = _domain(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
# r^4 and the squared residual coefficients of the sweep stay finite
_radius = _domain(float, lambda r: 1e-30 <= r <= 1e30, "a radius in [1e-30, 1e30]")


def _parse_matrix(text):
    return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])


def _is_b_matrix(B):
    # the squared closedness residuals, linear in B, neither overflow nor underflow
    mag = np.abs(B)
    return B.shape == (3, 3) and bool(np.all((B == 0) | ((mag >= 1e-100) & (mag <= 1e100))))


_matrix3 = _domain(
    _parse_matrix, _is_b_matrix,
    "a 3x3 matrix with entries 0 or of magnitude in [1e-100, 1e100], rows separated by"
    " ';', entries by ','",
)

SEED = ("--seed", {"type": _int_at_least(0), "required": True})
TOL = ("--tol", {"type": _finite, "default": None})
PROFILE = ("--profile", {"choices": tuple(PROFILES), "default": "strict"})
OUT = ("--out", {"default": None, "help": "write the report to this file"})


def _add(sp, *options):
    for flag, kwargs in options:
        sp.add_argument(flag, **kwargs)


def build_parser():
    p = argparse.ArgumentParser(prog="g2f", description=USAGE,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run a module verification suite")
    sp.add_argument("suite", choices=SUITES)
    _add(sp, SEED, ("--samples", {"type": _int_at_least(5), "default": None}),
         TOL, PROFILE, OUT)
    sp.set_defaults(fn=_cmd_verify)

    scan = sub.add_parser("scan", help="Monte-Carlo comparison scans")
    scan_sub = scan.add_subparsers(dest="kind", required=True)
    scan_options = (SEED, ("--samples", {"type": _int_at_least(1), "default": 100000}),
                    TOL, PROFILE, OUT)
    sp = scan_sub.add_parser("semical", help="phi_eps against the volume of its metric")
    _add(sp, *scan_options,
         ("--eps", {"type": _positive, "nargs": "+", "default": [1.0, 0.1, 0.01]}))
    sp.set_defaults(fn=_cmd_scan)
    sp = scan_sub.add_parser("anisotropic", help="omega against the vertical energy ve_1")
    _add(sp, *scan_options)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("model", help="inspect a catalog model")
    sp.add_argument("name", choices=("product-flat", "su2-semidirect", "heisenberg"))
    _add(sp, ("--B", {"type": _matrix3, "default": None,
                      "help": "heisenberg only: rows separated by ';', entries by ','"}),
         ("--homology", {"action": "store_true"}), OUT)
    sp.set_defaults(fn=_cmd_model, seed=0, profile="strict")

    sp = sub.add_parser("solve", help="construct explicit solutions")
    sp.add_argument("kind", choices=("flat-harmonic", "affine", "su2"))
    _add(sp, SEED, OUT)
    sp.set_defaults(fn=_cmd_solve, profile="strict")

    sp = sub.add_parser("energy", help="energies of a seeded affine section")
    _add(sp, SEED, ("--grid", {"type": _int_at_least(1), "default": 8}), OUT)
    sp.set_defaults(fn=_cmd_energy, profile="strict")

    fm_parser = sub.add_parser("fm", help="Fourier-Mukai tools")
    fm_sub = fm_parser.add_subparsers(dest="fm_command", required=True)
    sp = fm_sub.add_parser("sweep", help="radius sweep of the deformation residual")
    _add(sp, SEED,
         ("--rmin", {"type": _radius, "default": 1.0}),
         ("--rmax", {"type": _radius, "default": 1000.0}),
         ("--points", {"type": _int_at_least(2), "default": 16}),
         ("--format", {"choices": ("json", "csv"), "default": "json"}), OUT)
    sp.set_defaults(fn=_cmd_fm_sweep, profile="strict")
    return p


def _check_combinations(parser, args):
    """The rules that involve two options; a broken one is a usage error."""
    if args.command == "model":
        if args.name == "heisenberg" and args.B is None:
            parser.error("model heisenberg requires --B")
        if args.name != "heisenberg" and args.B is not None:
            parser.error(f"--B applies only to model heisenberg, not {args.name}")
        if args.homology and (args.B is None or (args.B % 2 != 0).any()):
            parser.error("--homology needs model heisenberg with an even-integer --B")
    elif args.command == "fm" and not args.rmin < args.rmax:
        parser.error(f"--rmin ({args.rmin}) must be below --rmax ({args.rmax})")


def _echo(argv):
    """The command line as echoed in the report.  The output path is not part
    of the computation, so both `--out FILE` and `--out=FILE` are dropped."""
    kept, skip = [], False
    for tok in argv:
        if skip or tok.startswith("--out="):
            skip = False
        elif tok == "--out":
            skip = True
        else:
            kept.append(tok)
    return " ".join(kept)


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_combinations(parser, args)
    start = time.monotonic()
    checks, payload = args.fn(args)
    wall = time.monotonic() - start
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": _echo(argv if argv is not None else sys.argv[1:]),
        "seed": args.seed,
        "toleranceProfile": args.profile,
        "checks": checks,
    }
    report.update(payload)
    if "csv" in payload:
        text = payload["csv"]
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"wall time: {wall:.3f}s", file=sys.stderr)
    return 0 if all(c["pass"] for c in checks) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
