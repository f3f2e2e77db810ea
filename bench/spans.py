"""Outside-in tracing of mfsb: spans and probes installed from the benchmark.

The package is never edited.  Its modules import each other's functions by
name (``from .solver import solve_mfsb``), so a wrapper must replace the
attribute the *caller* looks up: ``mfsb.cli.solve_mfsb``, not only
``mfsb.solver.solve_mfsb``.  Only names without a leading underscore are
wrapped, so refactors of private helpers cannot break the benchmark; a site
whose attribute no longer exists is skipped.

Two kinds of wrapper:

* a **span** records its name, its parent span, start and end.  Spans tile
  the traced time: a span's self time is its duration minus the part of it
  that its child spans cover.
* a **probe** counts the calls of a hot leaf kernel and sums their time.
  Probe time stays inside the self time of the enclosing span; probes give
  a breakdown of that span, not a further tile.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from unittest import mock

ROOT_SPAN = "cli.run"

# (module whose attribute the caller looks up, attribute, span name)
SPAN_SITES = (
    ("mfsb.cli", "solve_mfsb", "solver.solve_mfsb"),
    ("mfsb.cli", "optimality_residual", "solver.optimality_residual"),
    ("mfsb.cli", "mkv_flow", "dynamics.mkv_flow"),
    ("mfsb.cli", "simulate_particles", "dynamics.simulate_particles"),
    ("mfsb.cli", "load_scenario", "scenario.load_scenario"),
    ("mfsb.scenario", "equilibrium", "functionals.equilibrium"),
    ("mfsb.scenario", "mkv_flow", "dynamics.mkv_flow"),
    ("mfsb.solver", "heat_interpolation_flow", "solver.heat_interpolation_flow"),
    # mkv_flow is not spanned at mfsb.solver: the mkv init mode pays for it,
    # and solver.init_s keeps it
    ("mfsb.solver", "mkv_pullback_flow", "solver.mkv_pullback_flow"),
    ("mfsb.solver", "corrector", "functionals.corrector"),
    ("mfsb.solver", "velocity_from_flow", "functionals.velocity_from_flow"),
    ("mfsb.solver", "entropic_cost", "functionals.entropic_cost"),
    ("mfsb.functionals", "equilibrium", "functionals.equilibrium"),
    ("mfsb.verify", "backward_corrector", "functionals.backward_corrector"),
    ("mfsb.verify", "equilibrium", "functionals.equilibrium"),
    ("mfsb.verify", "tanaka_theta", "dynamics.tanaka_theta"),
    ("mfsb.flowio", "write_json", "flowio.write_json"),
    ("mfsb.flowio", "write_manifest", "flowio.write_manifest"),
    ("mfsb.flowio", "save_flow", "flowio.save_flow"),
    ("mfsb.flowio", "save_matrix", "flowio.save_matrix"),
)

PROBE_SITES = (
    ("mfsb.dynamics", "interaction_drift", "dynamics.interaction_drift"),
    ("mfsb.dynamics", "conv_force", "potentials.conv_force"),
    ("mfsb.solver", "conv_force", "potentials.conv_force"),
    ("mfsb.functionals", "conv_force", "potentials.conv_force"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and probe store for one traced region."""

    def __init__(self):
        self.spans: list[Span] = []
        self.probes: dict[str, list] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add_probe(self, name: str, seconds: float):
        entry = self.probes.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - _covered(clipped))
    return out


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


def _probe_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_probe(name, time.perf_counter() - t0)
    return probed


def _whole_module_sites(module_name: str):
    """Every public function defined in a module, as a span named
    "<layer>.<function>" at its own attribute: that is where the CLI looks
    checks up (``V.check_talagrand``), so new checks are traced without edits.
    """
    module = importlib.import_module(module_name)
    layer = module_name.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module_name):
            yield module_name, attr, f"{layer}.{attr}"


class Patches(contextlib.ExitStack):
    """Replaces module attributes; leaving the context restores them."""

    def wrap(self, module_name: str, attr: str, make_wrapper) -> bool:
        module = importlib.import_module(module_name)
        if attr.startswith("_") or not hasattr(module, attr):
            return False
        self.enter_context(mock.patch.object(module, attr,
                                             make_wrapper(getattr(module, attr))))
        return True


# Per-layer time metrics: the summed self time of these spans.  A name that
# ends in "." stands for every span of that layer.
SELF_TIME_METRICS = {
    "solver.descent_s": ("solver.solve_mfsb",),
    "solver.init_s": ("solver.heat_interpolation_flow", "solver.mkv_pullback_flow"),
    "solver.optimality_residual_s": ("solver.optimality_residual",),
    "functionals.corrector_s": ("functionals.corrector", "functionals.velocity_from_flow",
                                "functionals.entropic_cost", "functionals.backward_corrector"),
    "functionals.equilibrium_s": ("functionals.equilibrium",),
    "dynamics.mkv_flow_s": ("dynamics.mkv_flow",),
    "dynamics.theta_s": ("dynamics.tanaka_theta",),
    "dynamics.simulate_s": ("dynamics.simulate_particles",),
    "verify.checks_s": ("verify.",),
    "flowio.write_s": ("flowio.",),
}
CALL_COUNT_METRICS = {
    "solver.solves": "solver.solve_mfsb",
    "functionals.equilibrium_calls": "functionals.equilibrium",
    "dynamics.mkv_flow_calls": "dynamics.mkv_flow",
}


def _matches(span_name: str, patterns) -> bool:
    return any(span_name.startswith(p) if p.endswith(".") else span_name == p
               for p in patterns)


def layer_metrics(tracer: Tracer) -> dict:
    """Span- and probe-derived metrics of one traced region.

    ``below_root_s`` is the part of the root spans that their children cover.
    """
    own = self_times(tracer.spans)
    out = {name: sum((t for span, t in zip(tracer.spans, own)
                      if _matches(span.name, patterns)), 0.0)
           for name, patterns in SELF_TIME_METRICS.items()}
    for metric, span_name in CALL_COUNT_METRICS.items():
        out[metric] = sum(span.name == span_name for span in tracer.spans)
    drift_calls, drift_s = tracer.probes.get("dynamics.interaction_drift", (0, 0.0))
    out["dynamics.drift_calls"] = drift_calls
    out["dynamics.drift_ms_per_call"] = 1e3 * drift_s / drift_calls if drift_calls else 0.0
    out["potentials.conv_force_calls"], out["potentials.conv_force_s"] = \
        tracer.probes.get("potentials.conv_force", (0, 0.0))
    # loading is timed whole: validation resolves endpoints through
    # equilibrium and mkv_flow, and set-up pays for all of it
    out["scenario.load_s"] = sum((span.duration for span in tracer.spans
                                  if span.name == "scenario.load_scenario"), 0.0)
    out["below_root_s"] = sum((span.duration - t for span, t in zip(tracer.spans, own)
                               if span.name == ROOT_SPAN), 0.0)
    return out


def install(patches: Patches, tracer: Tracer) -> list[str]:
    """Wrap every span and probe site; returns the sites that no longer exist."""
    sites = [(site, _span_wrapper) for site in SPAN_SITES]
    sites.extend((site, _span_wrapper) for site in _whole_module_sites("mfsb.verify"))
    sites.extend((site, _probe_wrapper) for site in PROBE_SITES)
    missing = []
    for (module_name, attr, name), wrapper in sites:
        if not patches.wrap(module_name, attr, functools.partial(wrapper, tracer, name)):
            missing.append(f"{module_name}.{attr}")
    return missing
