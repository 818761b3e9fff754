"""The benchmark's per-layer tracer must still install on the package.

It wraps functions and methods by name, so renaming or removing one of
them breaks the traced benchmark; this catches that in the test suite.
"""

import importlib.util
from pathlib import Path

from g2fueter import g2core, splitting

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("g2fueter_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    before = (dict(vars(g2core)), dict(vars(splitting.Splitting)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert g2core.cross is not before[0]["cross"]
        # standard_splitting() may return the process's cached splitting
        splitting.Splitting()
        assert tracer.stats["splitting.Splitting.new"][0] == 1
    finally:
        tracer.uninstall()
    assert (dict(vars(g2core)), dict(vars(splitting.Splitting))) == before
