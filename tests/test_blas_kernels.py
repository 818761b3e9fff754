"""Reports whose bytes must not depend on the BLAS kernel.

OpenBLAS picks its kernels by CPU when it loads, and `OPENBLAS_CORETYPE`
forces another one.  Each command below runs in a child process under the
native kernel and under forced older ones that the CPU can execute, and
must give one SHA-256 with every check passing.  The kernel a child really
ran is read from the loaded library (`scipy_openblas_get_corename64_`),
so where OpenBLAS ignores the variable, or its core name cannot be read,
there is nothing to compare and the test skips with that reason.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# forced kernels and the CPU features (numpy's names) each one executes
KERNELS = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}

PORTABLE = (
    "scan semical --samples 1000 --seed 3",
    "scan anisotropic --samples 2000 --seed 11",
)

_SCRIPT = """
import ctypes, glob, os, sys
import numpy
from g2fueter import cli
core = "unknown"
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*")):
    name = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        core = name().decode()
codes = [cli.run(command.split(" ") + ["--out", os.path.join(sys.argv[1], str(i))])
         for i, command in enumerate(sys.argv[2:])]
print(core, *codes)
"""


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


def _run(kernel, out):
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out), *PORTABLE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    core, *codes = proc.stdout.split()
    assert codes == ["0"] * len(PORTABLE), (kernel, codes)  # every check passes
    return core, [hashlib.sha256((out / str(i)).read_bytes()).hexdigest()
                  for i in range(len(PORTABLE))]


def test_scan_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    features = _cpu_features()
    kernels = [None] + [k for k, needs in KERNELS.items()
                        if all(features.get(f) for f in needs)]
    digests = {}  # core really loaded -> report SHA-256s
    for kernel in kernels:
        core, sha = _run(kernel, tmp_path / (kernel or "native"))
        digests.setdefault(core, sha)
        assert sha == next(iter(digests.values())), (core, PORTABLE)
    if len(digests) < 2 or "unknown" in digests:
        pytest.skip(f"only the kernels {sorted(digests)} could be compared: the loaded "
                    "BLAS ignores OPENBLAS_CORETYPE or does not name its core")
