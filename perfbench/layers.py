"""Per-layer metrics computed from the spans of one traced sweep.

A span's self time is its duration minus the part of it that its child
spans cover.  The program is single-threaded, so the children of one
span never overlap and their coverage is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict

LAYERS = ("config", "cli", "analytic", "specfun", "montecarlo")

ESTIMATORS = ("montecarlo.estimate_outage", "montecarlo.estimate_asep")
ASEP = "analytic.asep_scenario_a"
DRAW = "montecarlo.draw_gains"


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class Profile:
    """Per-function totals of one traced run."""

    def __init__(self, spans: list[dict]):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        child_ns = [0] * len(spans)
        for span in spans:
            if span["parent"] >= 0:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        self.draw_under_estimators_s = 0.0
        for span, covered in zip(spans, child_ns):
            name, dur = span["name"], span["end_ns"] - span["start_ns"]
            self.calls[name] += 1
            self.total_s[name] += dur / 1e9
            self.self_s[name] += (dur - covered) / 1e9
            for key in ("gains", "trials", "fallback"):
                if key in span:
                    self.counts[f"{name}.{key}"] += span[key]
            if (name == DRAW and span["parent"] >= 0
                    and spans[span["parent"]]["name"].startswith("montecarlo.estimate_")):
                self.draw_under_estimators_s += dur / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))


class Sample:
    """What the metrics of one traced child are computed from."""

    def __init__(self, profile: Profile, rows: int, violations: int,
                 traced_sweep_s: float, untraced_sweep_s: float):
        self.p = profile
        self.rows = rows
        self.violations = violations
        self.traced_sweep_s = traced_sweep_s
        self.untraced_sweep_s = untraced_sweep_s

    def gains(self) -> float:
        return self.p.counts[f"{DRAW}.gains"]

    def estimated_trials(self) -> float:
        return sum(self.p.counts[f"{e}.trials"] for e in ESTIMATORS)


def _per(num: float, den: float, scale: float = 1.0) -> float:
    """num / den, or 0 when nothing was counted (the function never ran)."""
    return scale * num / den if den else 0.0


def _calls(fn):
    return "count", (fn,), lambda s: s.p.calls[fn]


def _seconds(fn):
    return "s", (fn,), lambda s: s.p.total_s[fn]


def _per_call(fn, unit, scale):
    return unit, (fn,), lambda s: _per(s.p.total_s[fn], s.p.calls[fn], scale)


# metric -> (unit, functions it is built from, its value for one Sample).
# A metric whose function is missing from the traced program is reported
# as missing, not as zero.  BENCHMARK.json's per_layer lists these names.
METRICS = {
    "config.load_config.s": _seconds("config.load_config"),
    "cli.rows": ("count", (), lambda s: s.rows),
    "cli.self_s": ("s", ("cli.run_sweep",), lambda s: s.p.self_s["cli.run_sweep"]),
    "cli.write_csv.s": _seconds("cli.write_csv"),
    "analytic.solve_secondary_source_power.calls":
        _calls("analytic.solve_secondary_source_power"),
    "analytic.solve_secondary_source_power.s":
        _seconds("analytic.solve_secondary_source_power"),
    "analytic.solve_relay_power.calls": _calls("analytic.solve_relay_power"),
    "analytic.solve_relay_power.s": _seconds("analytic.solve_relay_power"),
    "analytic.solver_evals_per_point": (
        "count", ("analytic.primary_outage", "analytic.relay_phase_outage",
                  "analytic.solve_secondary_source_power"),
        lambda s: _per(s.p.calls["analytic.primary_outage"]
                       + s.p.calls["analytic.relay_phase_outage"],
                       s.p.calls["analytic.solve_secondary_source_power"])),
    "analytic.cdf_scenario_a_e2e.us_per_call":
        _per_call("analytic.cdf_scenario_a_e2e", "us", 1e6),
    "analytic.cdf_scenario_b.us_per_call": _per_call("analytic.cdf_scenario_b", "us", 1e6),
    "analytic.asep_scenario_a.calls": _calls(ASEP),
    "analytic.asep_scenario_a.ms_per_call": _per_call(ASEP, "ms", 1e3),
    "analytic.asep_fallback_share": (
        "ratio", (ASEP,), lambda s: _per(s.p.counts[f"{ASEP}.fallback"], s.p.calls[ASEP])),
    "analytic.bound_violations": ("count", (), lambda s: s.violations),
    "specfun.tricomi_u.calls": _calls("specfun.tricomi_u"),
    "specfun.tricomi_u.us_per_call": _per_call("specfun.tricomi_u", "us", 1e6),
    "specfun.tricomi_u.s": _seconds("specfun.tricomi_u"),
    "specfun.partial_fractions.calls": _calls("specfun.partial_fractions"),
    "specfun.partial_fractions.s": _seconds("specfun.partial_fractions"),
    "montecarlo.draw_gains.calls": _calls(DRAW),
    "montecarlo.draw_gains.s": _seconds(DRAW),
    "montecarlo.gains_drawn": ("count", (DRAW,), lambda s: s.gains()),
    "montecarlo.gains_per_estimated_trial": (
        "count", (DRAW, *ESTIMATORS), lambda s: _per(s.gains(), s.estimated_trials())),
    "montecarlo.draw_ns_per_gain": (
        "ns", (DRAW,), lambda s: _per(s.p.total_s[DRAW], s.gains(), 1e9)),
    "montecarlo.estimate_outage.calls": _calls("montecarlo.estimate_outage"),
    "montecarlo.estimate_outage.s": _seconds("montecarlo.estimate_outage"),
    "montecarlo.estimate_asep.calls": _calls("montecarlo.estimate_asep"),
    "montecarlo.estimate_asep.s": _seconds("montecarlo.estimate_asep"),
    "montecarlo.assembly_s": (
        "s", (DRAW, *ESTIMATORS),
        lambda s: sum(s.p.total_s[e] for e in ESTIMATORS) - s.p.draw_under_estimators_s),
    **{f"{layer}.self_s": ("s", (), lambda s, layer=layer: s.p.layer_self_s(layer))
       for layer in LAYERS},
    "trace.sweep_s": ("s", (), lambda s: s.traced_sweep_s),
    "trace.overhead_ratio": ("ratio", (), lambda s: s.traced_sweep_s / s.untraced_sweep_s),
}


def unit_of(metric: str) -> str:
    return METRICS[metric][0]


def layer_metrics(sample: Sample, missing: list[str]) -> tuple[dict[str, float], list[str]]:
    """Return (metric -> value, metrics that cannot be computed because a
    function they need no longer exists)."""
    gone = set(missing)
    lost = [m for m, (_, needs, _) in METRICS.items() if gone.intersection(needs)]
    values = {m: compute(sample) for m, (_, needs, compute) in METRICS.items()
              if m not in lost}
    return values, lost


def profile_table(p: Profile, sweep_s: float, top: int = 12) -> list[str]:
    """Functions ordered by inclusive time, with their share of the traced
    sweep; the human-readable view of the per-module profile."""
    lines = [f"{'function':<44} {'calls':>8} {'total_s':>9} {'self_s':>9} {'share':>6}"]
    for name in sorted(p.total_s, key=p.total_s.get, reverse=True)[:top]:
        lines.append(f"{name:<44} {p.calls[name]:>8} {p.total_s[name]:>9.4f} "
                     f"{p.self_s[name]:>9.4f} {p.total_s[name] / sweep_s:>6.1%}")
    return lines
