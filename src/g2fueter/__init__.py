"""Calibrated geometry on G2-manifolds with an associative distribution.

Submodules (each loads on first use: `import g2fueter` imports none of
them, and naming one, as `g2fueter.pde`, `from g2fueter import pde` or
`import g2fueter.pde`, imports it and what it imports):
  exterior   sparse exterior algebra over R^n (n <= 8), Hodge star, pullback
  g2core     the model G2 form, metric recovery, cross product, chi/tau,
             lambda^k isometries and 2-form projections
  splitting  graph planes over TM = H + V, vertical-energy hierarchy,
             form decomposition, adiabatic families, calibration scans
  fueter     the Fueter operator, six equivalent characterizations,
             completions, k-vanishing, polar spaces
  models     Lie-algebra catalog, invariant differentials, closedness
             flags, nilmanifold homology
  pde        analytic Fueter solutions (flat, SU(2), Heisenberg), energy
             functionals, minimization experiments, the action functional
  fm_gauge   real Fourier-Mukai transform, curvature, instanton and
             deformation residuals, large-radius sweeps
  checks     the checks of `g2f verify`: one table of (suite, name, claim,
             bound, fn) and the driver that runs and records them
  cli        the `g2f` command-line driver; each command imports the
             layers it runs
"""

import importlib

__all__ = ["exterior", "g2core", "splitting", "fueter", "models", "pde", "fm_gauge"]
__version__ = "0.1.0"


def __getattr__(name):
    # the import binds the submodule on the package, so this runs once per name
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
