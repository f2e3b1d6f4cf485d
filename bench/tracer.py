"""Spans around calls into rpdcsim's public functions, from outside the package.

Modules import each other's functions by name (`from .device import
port_transfer_matrices`), so a function is wrapped under every name that
binds it in any rpdcsim module: `rpdcsim.tomography.port_transfer_matrices`
as well as `rpdcsim.device.port_transfer_matrices`. Spans stay in memory.
A span's self time is its duration minus the durations of the traced
spans nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

# module -> public functions traced; names as in the per-layer metrics
TRACED = {
    "polarization": ("fidelity", "stokes_to_density", "density_to_stokes",
                     "rotation_deg"),
    "birefringence": ("find_axis", "crossed_polarizer_transmission",
                      "retarder_jones", "axis_from_offset"),
    "coupling": ("coupler_transfer_matrix",),
    "device": ("port_transfer_matrices", "axis_port_powers",
               "sweep_coupling_length", "extinction_ratios",
               "simulate_axis_check"),
    "tomography": ("measure_records", "project_probabilities",
                   "mle_reconstruct"),
    "cli": ("main",),
}
# functions whose calls are kept one by one, with their first argument and
# result, for medians and classification at the end of the run
KEEP_CALLS = {"tomography.measure_records", "tomography.mle_reconstruct",
              "device.sweep_coupling_length", "device.extinction_ratios",
              "device.simulate_axis_check", "birefringence.find_axis",
              "birefringence.axis_from_offset"}


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    kept: list = field(default_factory=list)  # (seconds, first arg, result)


class Tracer:
    """Wraps the TRACED functions of an imported rpdcsim while active."""

    def __init__(self):
        self.stats = {f"{m}.{f}": SpanStats()
                      for m, names in TRACED.items() for f in names}
        self._open = []        # traced time nested in each open span
        self._patched = []     # (module, attribute, original)

    def _wrap(self, name, fn):
        stats, open_spans = self.stats[name], self._open
        keep = name in KEEP_CALLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                nested = open_spans.pop()
                stats.calls += 1
                stats.busy_s += dt
                stats.self_s += dt - nested
                if open_spans:
                    open_spans[-1] += dt
            if keep:
                stats.kept.append((dt, args[0] if args else None, result))
            return result

        return traced

    def __enter__(self):
        homes = {m: importlib.import_module(f"rpdcsim.{m}") for m in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rpdcsim"
                                         or n.startswith("rpdcsim."))]
        for mod_name, names in TRACED.items():
            home = homes[mod_name]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False
