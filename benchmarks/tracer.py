"""Per-layer call tracing of g2fueter from outside the program.

`Tracer.install()` wraps the public functions of each g2fueter module, a
few named methods and constructors, and `cli.run`, then rebinds every alias
of a wrapped function in the package: `from .x import f` names in other
modules and dataclass default factories.  `uninstall()` restores them all.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly contains, so numpy work and unwrapped
helpers count toward the calling layer.  `Form` and `GraphPlane`
construction are leaves: counted and timed, but not spans, so the hot
constructor pays no span bookkeeping.  Spans are kept in memory, the first
`max_spans` of them with start, end and parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("exterior", "g2core", "splitting", "fueter", "models", "pde", "fm_gauge", "cli")
SUITES = ("algebra", "splitting", "fueter", "models", "pde", "fm")

# (layer, class, method, kind); kind "leaf" is counted and timed but not a span
METHODS = (
    ("exterior", "Form", "__init__", "leaf"),
    ("exterior", "Form", "apply", "span"),
    ("exterior", "Form", "to_dense", "span"),
    ("splitting", "Splitting", "__init__", "span"),
    ("splitting", "Splitting", "form_parts", "span"),
    ("splitting", "Splitting", "chi_form_f", "span"),
    ("splitting", "GraphPlane", "__init__", "leaf"),
    ("splitting", "PlaneSampler", "frames", "span"),
    ("splitting", "PlaneSampler", "graph_planes", "span"),
    ("pde", "ImmersionGrid", "__init__", "span"),
)

# -- the per-layer metrics this tracer reports (BENCHMARK.json per_layer) -------

_CALLS_AND_SELF = {
    "exterior": ("Form.new", "Form.apply", "Form.to_dense", "wedge", "hodge", "interior",
                 "pullback"),
    "g2core": ("standard_g2", "cross", "chi", "tau", "chi_form"),
    "splitting": ("Splitting.new", "Splitting.chi_form_f", "ve_series", "ve_recursive",
                  "equality_ladder"),
    "fueter": ("condition_residuals", "chi_component_values", "chi_via_beta",
               "chi1_via_projection", "fueter_complete"),
    "models": ("ce_differential", "smith_normal_form"),
    "pde": ("ImmersionGrid.new", "immersion_energies", "cs_functional"),
    "fm_gauge": ("ddt_residual",),
}
_CALLS_ONLY = {
    "g2core": ("lambda_k", "project_k7", "lambda_k_inverse"),
    "splitting": ("Splitting.form_parts", "GraphPlane.new"),
    "fueter": ("fueter_vector", "fueter_via_J", "jtriple_from_splitting"),
    "models": ("closedness_flags",),
    "pde": ("fueter_operator_flat",),
    "fm_gauge": ("curvature", "instanton_residual"),
}
_SELF_ONLY = {
    "splitting": ("PlaneSampler.frames", "anisotropic_scan", "semi_calibration_scan"),
    "fueter": ("polar_dim_constancy",),
    "pde": ("minimization_experiment",),
    "fm_gauge": ("radius_sweep",),
}
CLI_COMMANDS = tuple(f"verify.{s}" for s in SUITES) + ("scan.anisotropic", "scan.semical",
                                                        "energy")
# computed by the benchmark from the untraced iterations of a traced run
THROUGHPUTS = ("scan.anisotropic.planes_per_s", "scan.semical.frames_per_s",
               "quad.points_per_s")
# also counted over the scan operations alone, which share a workload with
# quadrature, whose grids each build a standard splitting
IN_SCANS = ("exterior.Form.new", "g2core.standard_g2")


def _per_layer_spec():
    spec = []
    for layer in LAYERS[:-1]:
        for fn in _CALLS_AND_SELF.get(layer, ()):
            spec += [(f"{layer}.{fn}.calls", "count", "lower"),
                     (f"{layer}.{fn}.self_s", "s", "lower")]
        spec += [(f"{layer}.{fn}.calls", "count", "lower") for fn in _CALLS_ONLY.get(layer, ())]
        spec += [(f"{layer}.{fn}.self_s", "s", "lower") for fn in _SELF_ONLY.get(layer, ())]
        spec.append((f"{layer}.self_s", "s", "lower"))
    spec += [
        ("splitting.constants_per_plane", "ratio", "lower"),
        ("splitting.scan.samples", "count", "higher"),
        ("splitting.scan.bytes_computed", "B", "lower"),
        ("pde.grid_points", "count", "higher"),
    ]
    spec += [(f"{name}.calls.in_scans", "count", "lower") for name in IN_SCANS]
    spec += [(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS]
    spec += [
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    spec += [(name, "1/s", "higher") for name in THROUGHPUTS]
    return spec


PER_LAYER = _per_layer_spec()


def _cli_span_name(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if argv[:1] in (["verify"], ["scan"], ["fm"]) and len(argv) > 1:
        return f"cli.{argv[0]}.{argv[1]}"
    return f"cli.{argv[0]}" if argv else "cli.run"


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Wraps g2fueter's layers while installed; aggregates spans by name."""

    def __init__(self, max_spans=50000):
        self.max_spans = max_spans
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.counters = {"splitting.scan.samples": 0, "splitting.scan.bytes_computed": 0,
                         "pde.grid_points": 0}
        self.spans = []  # (id, parent id or -1, name, start, end)
        self._stack = []  # open spans: [id, time covered by child spans]
        self._next_id = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _stats(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _span(self, name, fn, after=None):
        stack, spans = self._stack, self.spans
        fixed = None if callable(name) else self._stats(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if fixed is None else name
            stats = fixed or self._stats(span_name)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if len(spans) < self.max_spans:
                    spans.append((sid, parent, span_name, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        # must not call any wrapped function, or its time would count twice
        stats, stack = self._stats(name), self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _hooks(self, name, fn):
        c = self.counters

        def scan_samples(args, kwargs, result):
            c["splitting.scan.samples"] += int(_bound(fn, args, kwargs, "n"))

        def array_bytes(args, kwargs, result):
            c["splitting.scan.bytes_computed"] += int(result.nbytes)

        def grid_points(args, kwargs, result):
            c["pde.grid_points"] += int(args[0].points.shape[0])

        def cs_points(args, kwargs, result):
            c["pde.grid_points"] += int(_bound(fn, args, kwargs, "n")) ** 3

        return {
            "splitting.anisotropic_scan": scan_samples,
            "splitting.semi_calibration_scan": scan_samples,
            "splitting.PlaneSampler.frames": array_bytes,
            "splitting.PlaneSampler.graph_planes": array_bytes,
            "pde.ImmersionGrid.new": grid_points,
            "pde.cs_functional": cs_points,
        }.get(name)

    # -- install / uninstall --------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"g2fueter.{layer}") for layer in LAYERS}
        package = [importlib.import_module("g2fueter")] + list(mods.values())

        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            if layer == "cli":
                wrapped[id(mod.run)] = (mod.run, self._span(_cli_span_name, mod.run))
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span(name, obj, self._hooks(name, obj)))

        # dataclass default factories live in the closure of the generated
        # __init__; rebind them before any __init__ is itself wrapped
        for mod in package:
            for cls in vars(mod).values():
                init = inspect.isclass(cls) and cls.__module__ == mod.__name__ \
                    and cls.__dict__.get("__init__")
                for cell in getattr(init, "__closure__", None) or ():
                    try:
                        hit = wrapped.get(id(cell.cell_contents))
                    except ValueError:  # empty cell
                        continue
                    if hit is not None:
                        self._undo.append((cell, "cell_contents", hit[0], True))
                        cell.cell_contents = hit[1]

        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj, False))
                    setattr(mod, attr, hit[1])

        for layer, cls_name, meth, kind in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{'new' if meth == '__init__' else meth}"
            wrapper = (self._leaf(name, orig) if kind == "leaf"
                       else self._span(name, orig, self._hooks(name, orig)))
            self._undo.append((cls, meth, orig, False))
            setattr(cls, meth, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            target, attr, orig, is_cell = self._undo.pop()
            if is_cell:
                target.cell_contents = orig
            else:
                setattr(target, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------

    def calls(self, names=IN_SCANS):
        return {name: self.stats.get(name, [0])[0] for name in names}

    def layer_metrics(self, traced_wall, untraced_wall, measured):
        """Every PER_LAYER metric; a function never called reads 0.  measured
        holds the THROUGHPUTS and the IN_SCANS counts, which the caller
        computes."""
        st = self.stats
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s[2] for n, s in st.items()
                                         if n.startswith(layer + "."))
        for name, unit, _ in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = st.get(base, [0])[0]
            elif kind == "self_s" and name not in out:
                out[name] = st.get(base, [0, 0.0, 0.0])[2]
        for c in CLI_COMMANDS:
            out[f"cli.{c}_s"] = st.get(f"cli.{c}", [0, 0.0])[1]
        out.update(self.counters)
        planes = out["splitting.GraphPlane.new.calls"]
        constants = (out["splitting.Splitting.new.calls"]
                     + out["splitting.Splitting.form_parts.calls"]
                     + out["splitting.Splitting.chi_form_f.calls"]
                     + out["g2core.standard_g2.calls"])
        out["splitting.constants_per_plane"] = constants / planes if planes else 0.0
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        out["trace.coverage"] = sum(s[2] for s in st.values()) / traced_wall
        out.update(measured)
        return {name: (out[name], unit) for name, unit, _ in PER_LAYER}
