"""In-memory span recorder that wraps the public functions of each layer.

Every wrapped call records one span: name, start and end (perf_counter
nanoseconds) and the index of the enclosing span.  A few functions also
record counts taken from their result (gains drawn, trials estimated,
whether a closed form fell back to quadrature).  Spans stay in memory and
are written as JSON lines once the traced run is over.

A function is patched in the module that defines it and in every other
``cogrelay`` module that bound it by name (``from .analytic import ...``),
otherwise calls made through the second binding would go unrecorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer module, public function) pairs wrapped in a traced run: the
# public functions of each layer at the time the benchmark was written.
# A name that a later version no longer defines is reported as missing.
TARGETS = {
    "config": ("parse_config", "load_config", "serialize_config"),
    "cli": ("run_sweep", "write_csv", "run_selfcheck", "main"),
    "analytic": ("primary_outage", "relay_phase_outage",
                 "solve_secondary_source_power", "solve_relay_power",
                 "cdf_scenario_a", "cdf_scenario_a_e2e", "cdf_scenario_b",
                 "outage_capacity", "asep_scenario_a"),
    "specfun": ("log_gamma", "upper_incomplete_gamma_int",
                "log_upper_incomplete_gamma_int", "tricomi_u",
                "partial_fractions", "erfc_scaled_q"),
    "montecarlo": ("link_table", "draw_gains", "exact_sinr_s1", "exact_sinr_s2",
                   "bounded_sinr_s1", "bounded_sinr_s2", "e2e_sinr",
                   "estimate_outage", "estimate_asep", "estimate_primary_outage"),
}


def _gains_drawn(result) -> dict:
    arrays = getattr(result, "gains", result)
    return {"gains": int(sum(a.size for a in arrays.values()))}


def _trials(result) -> dict:
    return {"trials": int(result.trials)}


def _fallback(result) -> dict:
    return {"fallback": bool(result.used_fallback)}


# Counts recorded from a function's result, keyed by span name.
NOTES = {
    "montecarlo.draw_gains": _gains_drawn,
    "montecarlo.estimate_outage": _trials,
    "montecarlo.estimate_asep": _trials,
    "analytic.asep_scenario_a": _fallback,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        clock = time.perf_counter_ns
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(result)
            return result

        return traced

    def install(self, package: str = "cogrelay") -> list[str]:
        """Patch every target in place; return the targets that no longer
        exist."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        missing = []
        for layer, fnames in TARGETS.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in fnames:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        return missing

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                span = {"id": i, "name": name, "start_ns": self.starts[i],
                        "end_ns": self.ends[i], "parent": self.parents[i]}
                span.update(self.notes.get(i, {}))
                fh.write(json.dumps(span) + "\n")
