import hashlib
import json
import subprocess
import sys

import pytest

from g2fueter import cli


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = cli.run(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestDeterminism:
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

    # report SHA-256s at seed 7, fast profile; a declared schema or
    # RNG-stream change updates them
    PINNED_SHA256 = {
        "algebra": "96a610fd0186c2d6e8f613e5ab7d382f5d240c64589829f38816106439d22175",
        "splitting": "75de7edabd1666300d80b4063a6453b7a7f2be5753f1b293c17b0e7893fa177c",
        "fueter": "967caafd22a6ffb95dd3f16da1d71514596402c0a7ec09b460480b49cb792794",
        "models": "27f99075142aa159452049dcb22b3f7d536545633d0d8f6f172ea61164a18c8a",
        "pde": "e5bc829f00106f32f277c61841c8fe94ef1c83ccc4de3f6090332bff051c8d1d",
        "fm": "02d35592f97174f1feef170c53b1a2cfd91750452806ba2845ac0722d655bf08",
    }

    def test_all_suites_pass(self, tmp_path):
        for suite, digest in self.PINNED_SHA256.items():
            code, raw = run_cli(["verify", suite, "--seed", "7", "--profile", "fast"],
                                tmp_path, f"{suite}.json")
            assert code == 0, suite
            assert all(c["pass"] for c in json.loads(raw)["checks"])
            assert hashlib.sha256(raw).hexdigest() == digest, suite

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
