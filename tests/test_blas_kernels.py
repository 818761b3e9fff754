"""Reports whose bytes must not depend on the BLAS kernel.

OpenBLAS picks its kernels by CPU when it loads, and `OPENBLAS_CORETYPE`
forces another one.  Each portable command of the manifest
(`pinned_reports.PORTABLE`) runs in a child process under the native
kernel and under forced older ones that the CPU can execute, and must give
its pinned SHA-256 under every kernel, with every check passing.  The
verify suites' stacked kernels meet their per-sample references bit for
bit under each kernel too (`sample_axis_oracles.check` on fixed draws and
`check_samplers` at a fixed seed).  The
kernel a child really ran is read from the loaded library
(`pinned_reports.blas_core`), so where OpenBLAS ignores the variable, or
its core name cannot be read, there is nothing to compare and the test
skips with that reason.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pinned_reports import PORTABLE

ROOT = Path(__file__).resolve().parent.parent

# forced kernels and the CPU features (numpy's names) each one executes
KERNELS = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}

_SCRIPT = """
import os, sys
from g2fueter import cli
from pinned_reports import blas_core
codes = [cli.run(command.split(" ") + ["--out", os.path.join(sys.argv[1], str(i))])
         for i, command in enumerate(sys.argv[2:])]
print(blas_core(), *codes)
"""

_ORACLE_SCRIPT = """
import sample_axis_oracles
from pinned_reports import blas_core
sample_axis_oracles.check(*sample_axis_oracles.fixed_draws())
sample_axis_oracles.check_samplers()
print(blas_core())
"""


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


def _kernels():
    """The native kernel (None) and the forced ones this CPU executes."""
    features = _cpu_features()
    return [None] + [k for k, needs in KERNELS.items() if all(features.get(f) for f in needs)]


def _child(kernel, script, *args):
    """The stdout words of script run in a child under the kernel."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _skip_unless_compared(cores):
    if len(cores) < 2 or "unknown" in cores:
        pytest.skip(f"only the kernels {sorted(cores)} could be compared: the loaded "
                    "BLAS ignores OPENBLAS_CORETYPE or does not name its core")


def _run(kernel, out):
    out.mkdir()
    core, *codes = _child(kernel, _SCRIPT, str(out), *PORTABLE)
    assert codes == ["0"] * len(PORTABLE), (kernel, codes)  # every check passes
    return core, [hashlib.sha256((out / str(i)).read_bytes()).hexdigest()
                  for i in range(len(PORTABLE))]


def test_report_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    cores = set()  # the cores really loaded
    for kernel in _kernels():
        core, digests = _run(kernel, tmp_path / (kernel or "native"))
        cores.add(core)
        moved = [command for command, digest in zip(PORTABLE, digests)
                 if digest != PORTABLE[command]]
        assert not moved, (core, moved)
    _skip_unless_compared(cores)


def test_stacked_kernels_match_the_per_plane_references_under_every_kernel():
    # a child fails unless every row is bit-equal to its reference
    _skip_unless_compared({_child(kernel, _ORACLE_SCRIPT)[0] for kernel in _kernels()})
