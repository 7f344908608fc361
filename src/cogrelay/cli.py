"""Experiment runner: solve regulated powers over an SNR grid, evaluate
the closed forms next to their Monte Carlo estimates, and emit CSV.

The CSV contract (UTF-8, LF, header always present)::

    x_db,threshold,K,gamma_bar_p,gamma_bar_s,gamma_bar_r,analytic_oc,
    mc_oc,mc_oc_ci,analytic_asep,mc_asep,mc_asep_ci,error

Floats carry 17 significant digits so identical (config, seed) runs are
byte-identical.  ``analytic_asep`` (Scenario (a)) is the kernel average of
the direction cdf by the fixed DE rule of ``asep_kernel_scenario_a``.  One
rule (``_filled_cells``) sets the cells every row fills: ``analytic_*``
unless ``--mc-only``, ``mc_*`` unless ``--analytic-only``, ``*_asep`` only
in Scenario (a).  A silent row, with no secondary power (a zero primary
outage threshold, or ``infeasible``), supplies outage 1, SEP a/2 and CI 0
to those cells.  A row whose closed form raised leaves them blank and
says why in ``error``; the run continues.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .errors import CogrelayError, ConfigError, Infeasible
from .model import (FadingLink, ModulationSpec, NetworkScenario, PowerProfile,
                    Scenario, db_to_linear, mpsk_constants, primary_threshold)
from .analytic import (PrimaryOutageInputs, SecondaryCdfInputs, asep_kernel_scenario_a,
                       asep_scenario_a, cdf_scenario_a, cdf_scenario_a_e2e,
                       cdf_scenario_b, primary_outage, relay_phase_outage,
                       solve_relay_power, solve_secondary_source_power)
from .config import RunConfig, SweepPlan, load_config
from . import montecarlo, specfun

__all__ = ["SweepPlan", "run_sweep", "write_csv", "run_selfcheck", "main"]

CSV_HEADER = ("x_db,threshold,K,gamma_bar_p,gamma_bar_s,gamma_bar_r,"
              "analytic_oc,mc_oc,mc_oc_ci,analytic_asep,mc_asep,mc_asep_ci,error")

_DUMMY = FadingLink(1, 1.0)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


@dataclass(frozen=True)
class SweepRow:
    x_db: float
    threshold: float
    K: int
    gamma_bar_p: float
    gamma_bar_s: float | None
    gamma_bar_r: float | None
    analytic_oc: float | None = None
    mc_oc: float | None = None
    mc_oc_ci: float | None = None
    analytic_asep: float | None = None
    mc_asep: float | None = None
    mc_asep_ci: float | None = None
    error: str = ""

    def as_csv(self) -> str:
        cells = [self.x_db, self.threshold, self.K, self.gamma_bar_p,
                 self.gamma_bar_s, self.gamma_bar_r, self.analytic_oc,
                 self.mc_oc, self.mc_oc_ci, self.analytic_asep,
                 self.mc_asep, self.mc_asep_ci]
        return ",".join(_fmt(c) for c in cells) + "," + self.error


def _secondary_inputs(scenario: NetworkScenario, gp: float, gs: float,
                      gr: float) -> list[SecondaryCdfInputs]:
    """One cdf parameter set per relay; the direct interference links are
    placeholders when the scenario omits them (they are never read)."""
    return [
        SecondaryCdfInputs(
            x=scenario.s2_relay[k], w=scenario.s1_relay[k],
            y=scenario.pt_relay[k],
            z=scenario.pt_s1 or _DUMMY, v=scenario.pt_s2 or _DUMMY,
            gamma_bar_p=gp, gamma_bar_s=gs, gamma_bar_r=gr,
        )
        for k in range(scenario.K)
    ]


def _solve_powers(scenario: NetworkScenario, gp: float, cap_s: float,
                  cap_r: float, threshold: float) -> tuple[float, list[float]]:
    """Largest source SNR meeting the primary outage constraint in the MA
    phase (0 if it admits no transmission) and, in relay order up to the
    first that admits none, each relay's largest SNR meeting it in the BC phase."""
    gth = primary_threshold(scenario)
    base = PrimaryOutageInputs(
        e=scenario.pt_px, f=scenario.s1_px, g=scenario.s2_px,
        l=scenario.relay_px[0], gamma_bar_p=gp,
        gamma_bar_s1=1.0, gamma_bar_s2=1.0, gamma_bar_r=1.0, threshold=gth)
    gs, relay_powers = 0.0, []
    if threshold > 0.0:   # a zero threshold forbids transmission outright
        with contextlib.suppress(Infeasible):   # the powers solved before it stand
            gs = solve_secondary_source_power(base, threshold, cap_s)
            for link in scenario.relay_px:
                probe = replace(base, l=link, gamma_bar_s1=gs, gamma_bar_s2=gs)
                relay_powers.append(solve_relay_power(probe, threshold, cap_r))
    return gs, relay_powers


def _filled_cells(scenario: Scenario, analytic_only: bool, mc_only: bool) -> set[str]:
    """The CSV columns every row of a sweep fills: ``analytic_*`` unless
    Monte Carlo only, ``mc_*`` unless analytic only, ``*_asep`` only in
    Scenario (a), and every other column always."""
    return {name for name in CSV_HEADER.split(",")
            if not (mc_only and name.startswith("analytic_"))
            and not (analytic_only and name.startswith("mc_"))
            and not (scenario is Scenario.B and "_asep" in name)}


def _sweep_point(cfg: RunConfig, plan: SweepPlan, x_db: float, threshold: float,
                 mod: ModulationSpec,
                 filled: set[str]) -> Iterator[tuple[dict, PowerProfile | None]]:
    """The cells of one (grid point, threshold), one dict per relay count,
    with their closed-form values and their powers if Monte Carlo is due.
    Each power is solved once: relay k's is the same for every K >= k."""
    gp = db_to_linear(x_db if plan.x_axis == "primary_snr_db"
                      else cfg.primary_snr_db)
    if plan.x_axis == "secondary_snr_db":
        cap_s = cap_r = db_to_linear(x_db)
    else:
        cap_s = db_to_linear(cfg.max_source_snr_db)
        cap_r = db_to_linear(cfg.max_relay_snr_db)

    top = cfg.network_scenario(max(plan.relay_counts))
    gs, relay_powers = _solve_powers(top, gp, cap_s, cap_r, threshold)
    for K in plan.relay_counts:
        gr = min(cap_r, *relay_powers[:K]) if len(relay_powers) >= K else 0.0
        cells = dict(x_db=x_db, threshold=threshold, K=K, gamma_bar_p=gp,
                     gamma_bar_s=gs, gamma_bar_r=gr)
        if gs <= 0.0 or gr <= 0.0:
            # no admissible secondary power (``infeasible`` unless the threshold
            # is zero): outage is exactly one, the SEP its zero-SINR value
            sep = mod.a / 2.0
            cells.update(gamma_bar_s=0.0, gamma_bar_r=0.0, analytic_oc=1.0, mc_oc=1.0,
                         mc_oc_ci=0.0, analytic_asep=sep, mc_asep=sep, mc_asep_ci=0.0,
                         error="infeasible" if threshold > 0.0 else "")
            yield cells, None
            continue
        scenario = cfg.network_scenario(K)
        theta = scenario.secondary_threshold
        inputs = _secondary_inputs(scenario, gp, gs, gr)
        powers = None
        try:
            if "analytic_oc" in filled:
                cells["analytic_oc"] = (cdf_scenario_a_e2e(inputs[0], theta)
                                        if scenario.scenario is Scenario.A
                                        else cdf_scenario_b(inputs, K, theta))
            if "analytic_asep" in filled:
                cells["analytic_asep"] = asep_kernel_scenario_a(inputs[0], mod)
            if "mc_oc" in filled:
                powers = PowerProfile(gamma_bar_p=gp, gamma_bar_s=gs, gamma_bar_r=gr,
                                      max_gamma_bar_s=cap_s, max_gamma_bar_r=cap_r)
        except CogrelayError as exc:
            error = f"{type(exc).__name__}: {exc}"
            cells["error"] = error.replace(",", ";").replace("\n", " ")
        yield cells, powers


def run_sweep(plan: SweepPlan, cfg: RunConfig, *, analytic_only: bool = False,
              mc_only: bool = False,
              mod: ModulationSpec | None = None) -> list[SweepRow]:
    """Evaluate the full (grid point x threshold x relay count) lattice in
    deterministic order.  The closed forms are evaluated point by point;
    the Monte Carlo cells of all rows are then estimated together, on one
    gain draw per trial slice for the largest relay count among them.
    Each row keeps only the cells ``_filled_cells`` names."""
    mod = mod or mpsk_constants(4)
    filled = _filled_cells(cfg.scenario_kind, analytic_only, mc_only)
    points = [point for x_db in plan.grid_db() for threshold in plan.outage_thresholds
              for point in _sweep_point(cfg, plan, x_db, threshold, mod, filled)]
    pending = [(cells, powers) for cells, powers in points if powers is not None]
    scenario = cfg.network_scenario(max(plan.relay_counts))
    ests = montecarlo.estimate_rows(
        scenario, [(cells["K"], powers) for cells, powers in pending],
        theta=scenario.secondary_threshold,
        mod=mod if "mc_asep" in filled else None,
        trials=plan.trials, seed=plan.seed, sinr_kind="exact")
    for (cells, _), (oc, sep) in zip(pending, ests):
        cells.update(mc_oc=oc.value, mc_oc_ci=oc.ci_half_width)
        if sep is not None:
            cells.update(mc_asep=sep.value, mc_asep_ci=sep.ci_half_width)
    return [SweepRow(**{name: value for name, value in cells.items() if name in filled})
            for cells, _ in points]


def write_csv(rows: list[SweepRow], stream) -> None:
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        stream.write(row.as_csv() + "\n")


# ---------------------------------------------------------------------------
# Self-check: closed forms against their quadrature oracles
# ---------------------------------------------------------------------------

def _check(name: str, value: float, reference: float, tol: float,
           out) -> bool:
    scale = max(abs(reference), 1e-300)
    rel = abs(value - reference) / scale
    ok = rel <= tol
    out.write(f"{'PASS' if ok else 'FAIL'} {name}: value={value:.12g} "
              f"reference={reference:.12g} rel_err={rel:.3g} tol={tol:g}\n")
    return ok


def run_selfcheck(out=None) -> int:
    """Compare every closed form against its independent quadrature
    reference at a fixed config; return the number of failures."""
    from . import oracle

    out = out if out is not None else sys.stdout
    L = FadingLink
    prim = PrimaryOutageInputs(
        e=L(2, 1.0), f=L(1, 0.8), g=L(2, 1.2), l=L(1, 0.9),
        gamma_bar_p=10.0, gamma_bar_s1=4.0, gamma_bar_s2=6.0,
        gamma_bar_r=5.0, threshold=1.0)
    sec = SecondaryCdfInputs(
        x=L(2, 1.1), w=L(1, 0.9), y=L(2, 0.8), z=L(1, 0.05), v=L(2, 0.04),
        gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
    ok = True

    ok &= _check("source-phase primary outage vs quadrature",
                 primary_outage(prim), oracle.primary_outage_oracle(prim), 1e-6, out)
    ok &= _check("relay-phase primary outage vs quadrature",
                 relay_phase_outage(prim), oracle.relay_phase_outage_oracle(prim),
                 1e-6, out)
    for theta in (0.5, 2.0):
        ok &= _check(f"direction cdf vs quadrature (theta={theta})",
                     cdf_scenario_a(sec, theta),
                     oracle.cdf_oracle_scenario_a(sec, theta), 1e-6, out)
    pair = [sec, SecondaryCdfInputs(
        x=L(1, 0.7), w=L(2, 1.3), y=L(1, 1.0), z=L(1, 1.0), v=L(1, 1.0),
        gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)]
    ok &= _check("best-relay selection cdf vs quadrature (K=2)",
                 cdf_scenario_b(pair, 2, 1.5),
                 oracle.selection_oracle(pair, 2, 1.5), 1e-5, out)
    mod = mpsk_constants(4)
    asep_ref = oracle.asep_oracle(sec, mod)
    for how, value in (("closed form", asep_scenario_a(sec, mod).value),
                       ("DE kernel rule", asep_kernel_scenario_a(sec, mod))):
        ok &= _check(f"symbol error probability ({how}) vs kernel quadrature",
                     value, asep_ref, 1e-5, out)

    gs = solve_secondary_source_power(prim, 0.2, cap=100.0)
    fixed = primary_outage(replace(prim, gamma_bar_s1=gs, gamma_bar_s2=gs))
    ok &= _check("power solver fixed point", fixed, 0.2, 1e-9, out)

    poles = specfun.PoleSet(((0.5, 2), (1.7, 1), (3.2, 3)))
    coeffs = specfun.partial_fractions(poles)
    t = 0.37
    direct = 1.0
    for loc, mult in poles.poles:
        direct *= (t + loc) ** -mult
    recon = sum(c / (t + poles.poles[pi][0]) ** j for pi, j, c in coeffs)
    ok &= _check("partial-fraction reconstruction", recon, direct, 1e-9, out)

    from scipy.integrate import quad as _quad
    import math as _math
    series = specfun.upper_incomplete_gamma_int(3, 2.5)
    ref = _quad(lambda t: t ** 2 * _math.exp(-t), 2.5, _math.inf, epsrel=1e-13)[0]
    ok &= _check("integer-order incomplete gamma", series, ref, 1e-12, out)

    out.write("self-check: " + ("all checks passed\n" if ok else "FAILURES\n"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cogrelay",
        description="Outage and symbol-error sweeps for the underlay "
                    "cognitive two-way relay network.")
    p.add_argument("--config", help="path to the run configuration file")
    p.add_argument("--sweep", default="sweep",
                   help="name of the sweep section to run (default: [sweep])")
    p.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
    p.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    p.add_argument("--output", help="CSV output path (default: stdout)")
    p.add_argument("--analytic-only", action="store_true",
                   help="skip Monte Carlo columns")
    p.add_argument("--mc-only", action="store_true",
                   help="skip closed-form columns")
    p.add_argument("--selfcheck", action="store_true",
                   help="run the closed-form vs quadrature suite and exit")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.selfcheck:
        return run_selfcheck()
    if not args.config:
        parser.error("--config is required unless --selfcheck is given")
    if args.analytic_only and args.mc_only:
        parser.error("--analytic-only and --mc-only are mutually exclusive")
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    except ConfigError as exc:
        parser.error(f"bad config: {exc}")
    if args.sweep not in cfg.sweeps:
        parser.error(f"config defines no sweep named {args.sweep!r} "
                     f"(available: {', '.join(sorted(cfg.sweeps)) or 'none'})")
    overrides = {key: value for key, value in
                 (("trials", args.trials), ("seed", args.seed)) if value is not None}
    try:
        plan = replace(cfg.sweeps[args.sweep], **overrides)
    except ValueError as exc:
        parser.error(f"bad override: {exc}")

    rows = run_sweep(plan, cfg, analytic_only=args.analytic_only,
                     mc_only=args.mc_only)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
