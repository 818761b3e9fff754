import hashlib
import json
import shlex
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2fueter import checks, cli

from pinned_reports import KERNEL_BOUND, PORTABLE, blas_core

PINS = {**PORTABLE, **KERNEL_BOUND}


def strict_json(raw):
    """Parse a report, rejecting the NaN and Infinity tokens JSON does not have."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(raw, parse_constant=reject)


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = cli.run(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestDeterminism:
    # repeatability holds with no pin, so it holds on every OpenBLAS kernel,
    # kernel-bound commands included
    @pytest.mark.parametrize("args", [
        ["verify", "algebra", "--seed", "7", "--profile", "fast"],
        ["verify", "fueter", "--seed", "9", "--profile", "fast"],
        ["scan", "anisotropic", "--samples", "2000", "--seed", "11"],
        ["scan", "semical", "--samples", "1000", "--seed", "3"],
        ["fm", "sweep", "--seed", "5", "--points", "8"],
    ])
    def test_repeated_runs_byte_identical(self, args, tmp_path):
        code1, b1 = run_cli(args, tmp_path, "a.json")
        code2, b2 = run_cli(args, tmp_path, "b.json")
        assert code1 == code2 == 0
        assert b1 == b2

    def test_different_seeds_differ(self, tmp_path):
        _, b1 = run_cli(["scan", "anisotropic", "--samples", "500", "--seed", "1"], tmp_path, "a.json")
        _, b2 = run_cli(["scan", "anisotropic", "--samples", "500", "--seed", "2"], tmp_path, "b.json")
        assert b1 != b2


class TestReports:
    def test_schema_and_claims(self, tmp_path):
        _, raw = run_cli(["verify", "models", "--seed", "1", "--profile", "fast"], tmp_path, "r.json")
        report = json.loads(raw)
        assert report["schemaVersion"] == 1
        assert report["seed"] == 1
        assert report["toleranceProfile"] == "fast"
        for check in report["checks"]:
            assert set(check) == {"name", "claim", "residualOrFlag", "pass"}
            assert check["claim"]

    @pytest.mark.parametrize("command", sorted(PINS))
    def test_command_report_is_pinned(self, command, tmp_path):
        pin = PINS[command]
        for run in ("a", "b"):  # caches the first run fills must not move the second
            code, raw = run_cli(command.split(" "), tmp_path, run)
            assert code == 0, command
            if "--format csv" not in command:
                assert all(c["pass"] for c in json.loads(raw)["checks"]), command
            digest = hashlib.sha256(raw).hexdigest()
            assert digest == pin, (
                f"{command} (run {run}): SHA-256 {digest}, pinned {pin}; "
                f"{'kernel-bound' if command in KERNEL_BOUND else 'portable'}, "
                f"OpenBLAS core {blas_core()}")

    def test_out_path_is_not_echoed(self, tmp_path):
        args = ["verify", "models", "--seed", "1", "--profile", "fast"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.run(args + [f"--out={a}"]) == 0
        assert cli.run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_bytes())["command"] == " ".join(args)

    def test_model_command(self, tmp_path):
        code, raw = run_cli(
            ["model", "heisenberg", "--B", "2,0,0;0,2,0;0,0,-4", "--homology"],
            tmp_path, "m.json",
        )
        assert code == 0
        report = json.loads(raw)
        assert report["flags"]["dOmega"] and report["flags"]["dTheta"]
        assert report["homology"]["group"] == "Z^4 + Z/2 + Z/2 + Z/4"
        assert report["homology"]["freeRank"] == 4

    def test_solve_and_energy(self, tmp_path):
        code, raw = run_cli(["solve", "affine", "--seed", "4"], tmp_path, "s.json")
        assert code == 0 and json.loads(raw)["residualSup"] == 0.0
        code, raw = run_cli(["energy", "--seed", "5", "--grid", "6"], tmp_path, "e.json")
        assert code == 0
        E = json.loads(raw)["energies"]
        assert E["VolH"] == 1.0 and E["totalEnergy"] == 1.5 * E["VolH"] + E["VE"]

    def test_fm_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.run(["fm", "sweep", "--seed", "9", "--points", "6",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,rawResidual,normalizedResidual"
        assert len(lines) == 7


class TestExitCodes:
    def test_check_failure_gives_exit_one(self, tmp_path):
        # a negative slack makes every sampled ratio a "violation"
        out = tmp_path / "fail.json"
        code = cli.run(["scan", "anisotropic", "--samples", "200", "--seed", "3",
                        "--tol", "-2", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_bytes())
        assert not report["checks"][0]["pass"]

    def test_zero_tol_is_a_tolerance(self, tmp_path):
        # --tol 0 is a zero tolerance, not "use the profile's"
        code, _ = run_cli(["verify", "fueter", "--seed", "1", "--samples", "5",
                           "--profile", "fast", "--tol", "0"], tmp_path, "v.json")
        assert code == 1
        _, raw = run_cli(["scan", "anisotropic", "--samples", "100", "--seed", "1",
                          "--tol", "0"], tmp_path, "s.json")
        assert json.loads(raw)["scan"]["tol"] == 0.0

    def test_unknown_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "g2fueter.cli", "frobnicate"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_seed_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "g2fueter.cli", "verify", "algebra"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "g2fueter.cli", "verify", "models",
             "--seed", "3", "--profile", "fast"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"wall time" in proc.stderr
        json.loads(proc.stdout)

    # per suite: a library function whose result a residual fold reads, and
    # the check that folds it; the probe replaces it at the use site, the
    # module as `g2fueter.checks` names it, so the library's own calls are
    # untouched.  The first three are batched kernels, one call for all
    # samples; the others are called once per sample (d_squared_residual
    # returns one row per point)
    @pytest.mark.parametrize("suite, module, name, check", [
        pytest.param("algebra", "g2core", "chi", "associator-equality", id="algebra"),
        pytest.param("splitting", "splitting", "ve_recursive", "ve-two-routes",
                     id="splitting"),
        pytest.param("fueter", "fueter", "fueter_via_J", "route-equivalence", id="fueter"),
        pytest.param("models", "models", "jacobi_check", "d-squared", id="models"),
        pytest.param("pde", "pde", "d_squared_residual", "flat-dirac-squared", id="pde"),
        pytest.param("fm", "fm_gauge", "beta_relation_residual", "curvature-beta", id="fm"),
    ])
    def test_nan_residual_fails(self, suite, module, name, check, tmp_path, monkeypatch):
        # counting the rows of every call's result in order (a scalar is one
        # row), exactly the second row becomes NaN: a non-first sample
        real_module = getattr(checks, module)
        real, rows, nans = getattr(real_module, name), [], []

        def probe(*args):
            out = np.array(real(*args), dtype=float)
            first = sum(rows)
            rows.append(len(out) if out.ndim else 1)
            if first <= 1 < sum(rows):
                if out.ndim:
                    out[1 - first] = np.nan
                else:
                    out = np.array(np.nan)
                nans.append(None)
            return out

        monkeypatch.setattr(checks, module, SimpleNamespace(**{**vars(real_module), name: probe}))
        out = tmp_path / "nan.json"
        code = cli.run(["verify", suite, "--seed", "7", "--profile", "fast", "--out", str(out)])
        assert code == 1 and len(nans) == 1 and sum(rows) >= 2
        report = strict_json(out.read_bytes())
        got = next(c for c in report["checks"] if c["name"] == check)
        assert got["pass"] is False and got["residualOrFlag"] == "nan"

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_worst_keeps_nan(self, at):
        draws = [np.nan if k == at else float(k) for k in range(5)]
        # a list or an array, where np.nanmax or Python's max would drop it
        assert np.isnan(checks._fold(np.array(draws)))
        assert np.isnan(checks._fold(draws))

    def test_fold_of_no_residuals_is_zero(self):
        assert checks._fold(np.empty(0)) == 0.0 and checks._fold([-1.0]) == 0.0


def expect_usage_error(argv, capsys, tmp_path):
    """cli.run must stop in the parser: exit 2, an error line, no report."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()
    return captured.err


class TestDomains:
    @pytest.mark.parametrize("command", [
        "scan anisotropic --samples 100 --seed 1 --tol nan",
        "scan semical --samples 100 --seed 1 --eps",
        "scan semical --samples 100 --seed 1 --eps nan",
        "scan semical --samples 100 --seed 1 --eps -1",
        "scan anisotropic --samples 100 --seed 1 --eps 7",
        "scan anisotropic --samples 0 --seed 1",
        "verify algebra --seed 1 --samples 0",
        "verify fueter --seed 1 --samples 3",
        "verify fueter --seed -1",
        "energy --seed 1 --grid 0",
        "energy --seed 1 --grid 4 --format csv",
        "fm sweep --seed 1 --points 1",
        "fm sweep --seed 1 --rmin 0",
        "fm sweep --seed 1 --rmin 5 --rmax 2",
        "model heisenberg",
        "model nosuch",
        "model su2-semidirect --homology",
        'model su2-semidirect --B "2,0,0;0,2,0;0,0,2"',
        'model heisenberg --B "1,0,0;0,1,0;0,0,1" --homology',
        "model heisenberg --B x",
        'model heisenberg --B "1,2;3,4"',
        "model product-flat --seed 5",
        'model heisenberg --B "1e200,0,0;0,2,0;0,0,2"',
        'model heisenberg --B "1e-200,0,0;0,2,0;0,0,2"',
        "fm sweep --seed 1 --rmax 1e80 --points 4",
        "fm sweep --seed 1 --rmin 1e-300 --rmax 1 --points 4",
        "fm sweep --seed 1 --rmax 1e300 --points 4",
    ])
    def test_out_of_domain_exits_two(self, command, capsys, tmp_path):
        expect_usage_error(shlex.split(command), capsys, tmp_path)

    # values at the edges of a domain give a report in strict JSON, exit 0 or 1
    @pytest.mark.parametrize("command, code", [
        ('model heisenberg --B "1e100,-1e100,1e-100;0,2,0;0,0,-1e-100"', 0),
        ('model heisenberg --B "1e20,0,0;0,2,0;0,0,2" --homology', 0),
        ("fm sweep --seed 1 --rmin 1e-30 --rmax 1e30 --points 5", 0),
        # every gap rounds to zero at these radii, so no slope can be fit
        ("fm sweep --seed 1 --rmin 1e29 --rmax 1e30 --points 2", 1),
    ])
    def test_domain_edges_give_strict_reports(self, command, code, tmp_path):
        got, raw = run_cli(shlex.split(command), tmp_path, "edge.json")
        assert got == code
        report = strict_json(raw)
        if "--homology" in command:
            assert report["homology"]["torsion"] == [2, 2, 10 ** 20]

    # each command rejects the options it does not read
    @pytest.mark.parametrize("command, flag", [
        ("verify algebra --seed 1", "--format csv"),
        ("scan semical --seed 1", "--format csv"),
        ("scan anisotropic --seed 1", "--format csv"),
        ("scan anisotropic --seed 1", "--eps 0.5"),
        ("model product-flat", "--seed 1"),
        ("model product-flat", "--samples 10"),
        ("model product-flat", "--tol 1e-9"),
        ("model product-flat", "--format csv"),
        ("model product-flat", "--profile fast"),
        ("solve affine --seed 1", "--samples 10"),
        ("solve affine --seed 1", "--tol 1e-9"),
        ("solve affine --seed 1", "--format csv"),
        ("solve affine --seed 1", "--profile fast"),
        ("energy --seed 1", "--samples 10"),
        ("energy --seed 1", "--tol 1e-9"),
        ("energy --seed 1", "--format csv"),
        ("energy --seed 1", "--profile fast"),
        ("fm sweep --seed 1", "--samples 10"),
        ("fm sweep --seed 1", "--tol 1e-9"),
        ("fm sweep --seed 1", "--profile fast"),
    ])
    def test_unread_option_exits_two(self, command, flag, capsys, tmp_path):
        err = expect_usage_error(shlex.split(f"{command} {flag}"), capsys, tmp_path)
        assert "unrecognized arguments" in err

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_out_of_domain_values_stop_before_work(self, data):
        base, flag, values = data.draw(st.sampled_from(OUT_OF_DOMAIN))
        # --flag=value, so that a negative value is not read as an option
        expect_exit_two_before_work(shlex.split(base) + [f"{flag}={data.draw(values)}"])

    @given(rmin=st.floats(min_value=1e-3, max_value=1e6), shrink=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_empty_radius_range_stops_before_work(self, rmin, shrink):
        rmax = rmin * shrink if rmin * shrink > 0.0 else rmin
        expect_exit_two_before_work(
            ["fm", "sweep", "--seed", "1", f"--rmin={rmin!r}", f"--rmax={rmax!r}"])


NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0).map(repr), NON_FINITE)
NOT_A_RADIUS = st.one_of(
    NOT_POSITIVE,
    st.floats(min_value=0.0, max_value=1e-30, exclude_min=True, exclude_max=True).map(repr),
    st.floats(min_value=1e30, exclude_min=True, allow_infinity=False).map(repr),
)
# a 3x3 matrix whose first entry is neither 0 nor of magnitude in [1e-100, 1e100]
NOT_A_B_MATRIX = st.one_of(
    st.floats(min_value=1e100, exclude_min=True),
    st.floats(max_value=-1e100, exclude_max=True),
    st.floats(min_value=-1e-100, max_value=1e-100, exclude_min=True, exclude_max=True).filter(bool),
    NON_FINITE,
).map(lambda v: f"{v},0,0;0,2,0;0,0,2")


def ints_below(lo):
    return st.one_of(st.integers(max_value=lo - 1).map(str),
                     st.sampled_from(["1.5", "1e3", "x", ""]))


# (valid command, numeric option, values outside that option's domain)
OUT_OF_DOMAIN = [
    ("verify algebra", "--seed", ints_below(0)),
    ("verify algebra --seed 1", "--samples", ints_below(5)),
    ("verify algebra --seed 1", "--tol", NON_FINITE),
    ("scan anisotropic", "--seed", ints_below(0)),
    ("scan anisotropic --seed 1", "--samples", ints_below(1)),
    ("scan semical --seed 1", "--tol", NON_FINITE),
    ("scan semical --seed 1", "--eps", NOT_POSITIVE),
    ("solve affine", "--seed", ints_below(0)),
    ("energy --seed 1", "--grid", ints_below(1)),
    ("fm sweep --seed 1", "--points", ints_below(2)),
    ("fm sweep --seed 1", "--rmin", NOT_A_RADIUS),
    ("fm sweep --seed 1", "--rmax", NOT_A_RADIUS),
    ("model heisenberg", "--B", NOT_A_B_MATRIX),
]


def forbid_work(args):
    raise AssertionError(f"work ran for out-of-domain input: {args}")


def expect_exit_two_before_work(argv):
    commands = ("_cmd_verify", "_cmd_scan", "_cmd_model", "_cmd_solve", "_cmd_energy",
                "_cmd_fm_sweep")
    with mock.patch.multiple(cli, **{name: forbid_work for name in commands}), \
            mock.patch("sys.stderr"):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
    assert exc.value.code == 2, argv
