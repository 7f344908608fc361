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
to those cells.  The powers of the whole lattice are solved first, then
each closed-form column in one call per relay count over the SNR arrays
of the rows that transmit; a row's value equals its call alone bit for
bit.  A row whose power solve or closed form raised leaves those cells
(and a failed power) blank and says why in ``error``; the run continues.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import CogrelayError, ConfigError, Infeasible
from .model import (FadingLink, ModulationSpec, NetworkScenario, PowerProfile,
                    Scenario, db_to_linear, mpsk_constants, primary_threshold)
from .analytic import (PrimaryOutageInputs, SecondaryCdfInputs, asep_kernel_scenario_a,
                       _expected_survival, asep_scenario_a, cdf_scenario_a,
                       cdf_scenario_a_e2e, cdf_scenario_b, primary_outage,
                       relay_phase_outage, solve_power_lattice, solve_secondary_source_power)
from .config import RunConfig, SweepPlan, load_config
from . import montecarlo, specfun

__all__ = ["SweepPlan", "run_sweep", "write_csv", "run_selfcheck", "main"]

CSV_HEADER = ("x_db,threshold,K,gamma_bar_p,gamma_bar_s,gamma_bar_r,"
              "analytic_oc,mc_oc,mc_oc_ci,analytic_asep,mc_asep,mc_asep_ci,error")


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
    None when the scenario omits them (Scenario (b))."""
    return [
        SecondaryCdfInputs(
            x=scenario.s2_relay[k], w=scenario.s1_relay[k],
            y=scenario.pt_relay[k],
            z=scenario.pt_s1, v=scenario.pt_s2,
            gamma_bar_p=gp, gamma_bar_s=gs, gamma_bar_r=gr,
        )
        for k in range(scenario.K)
    ]


def _error_cell(exc: CogrelayError) -> str:
    return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _solve_powers(scenario: NetworkScenario, gp, threshold, cap_s,
                  cap_r) -> tuple[list[list[float]], list[str]]:
    """Per point of the lattice (arrays over it): the largest source SNR
    meeting the primary outage constraint in the MA phase, then each
    relay's in the BC phase, up to the first power that admits no
    transmission (none at a zero threshold) or fails, and that failure's
    error cell.  One solve per phase, over the points still transmitting."""
    gth = primary_threshold(scenario)
    solved, errors = [[] for _ in gp], [""] * len(gp)
    at = np.flatnonzero(threshold > 0.0)
    phases = [((scenario.s1_px, scenario.s2_px), cap_s, "secondary source power")]
    phases += [((link,), cap_r, "relay power") for link in scenario.relay_px]
    for interferers, cap, what in phases:
        powers, failures = solve_power_lattice(scenario.pt_px, interferers, gp[at], gth,
                                               threshold[at], cap[at], what)
        for i, power, exc in zip(at.tolist(), powers.tolist(), failures):
            if exc is None:
                solved[i].append(power)
            elif not isinstance(exc, Infeasible):
                errors[i] = _error_cell(exc)
        at = at[[exc is None for exc in failures]]
    return solved, errors


def _filled_cells(scenario: Scenario, analytic_only: bool, mc_only: bool) -> set[str]:
    """The CSV columns every row of a sweep fills: ``analytic_*`` unless
    Monte Carlo only, ``mc_*`` unless analytic only, ``*_asep`` only in
    Scenario (a), and every other column always."""
    return {name for name in CSV_HEADER.split(",")
            if not (mc_only and name.startswith("analytic_"))
            and not (analytic_only and name.startswith("mc_"))
            and not (scenario is Scenario.B and "_asep" in name)}


def _sweep_point(plan: SweepPlan, x_db: float, threshold: float, gp: float, cap_s: float,
                 cap_r: float, solved: list[float], error: str,
                 mod: ModulationSpec) -> Iterator[tuple[dict, PowerProfile | None]]:
    """The cells of one (grid point, threshold), one dict per relay count,
    and the powers of a row that transmits (None for the others).
    ``solved`` and ``error`` are the point's entry of ``_solve_powers``:
    relay k's power is the same for every K >= k.  Silent rows and rows
    whose power failed to solve get all their cells here."""
    gs, *relay_powers = solved or [0.0]
    for K in plan.relay_counts:
        gr = min(cap_r, *relay_powers[:K]) if len(relay_powers) >= K else 0.0
        cells = dict(x_db=x_db, threshold=threshold, K=K, gamma_bar_p=gp,
                     gamma_bar_s=gs, gamma_bar_r=gr)
        powers = None
        if error and len(relay_powers) < K:
            # a power this row needs failed to solve: it has no result cells
            cells.update(gamma_bar_s=gs or None, gamma_bar_r=None, error=error)
        elif gs <= 0.0 or gr <= 0.0:
            # no admissible secondary power (``infeasible`` unless the threshold
            # is zero): outage is exactly one, the SEP its zero-SINR value
            sep = mod.a / 2.0
            cells.update(gamma_bar_s=0.0, gamma_bar_r=0.0, analytic_oc=1.0, mc_oc=1.0,
                         mc_oc_ci=0.0, analytic_asep=sep, mc_asep=sep, mc_asep_ci=0.0,
                         error="infeasible" if threshold > 0.0 else "")
        else:
            powers = PowerProfile(gamma_bar_p=gp, gamma_bar_s=gs, gamma_bar_r=gr,
                                  max_gamma_bar_s=cap_s, max_gamma_bar_r=cap_r)
        yield cells, powers


def _closed_forms(cfg: RunConfig, K: int, rows: list[dict], mod: ModulationSpec,
                  filled: set[str]) -> None:
    """Fill the ``analytic_*`` cells of the transmitting ``rows`` of relay
    count ``K``, one column at a time.  A row whose outage raised gets that
    error and no ASEP; a row whose ASEP raised keeps its outage and gets
    that error."""
    scenario = cfg.network_scenario(K)
    theta = scenario.secondary_threshold

    def outage(*powers):
        inputs = _secondary_inputs(scenario, *powers)
        return (cdf_scenario_a_e2e(inputs[0], theta) if scenario.scenario is Scenario.A
                else cdf_scenario_b(inputs, theta))

    if "analytic_oc" in filled:
        _fill(rows, "analytic_oc", outage)
    ok = [cells for cells in rows if "error" not in cells]
    if "analytic_asep" in filled and ok:
        _fill(ok, "analytic_asep",
              lambda *powers: asep_kernel_scenario_a(_secondary_inputs(scenario, *powers)[0], mod))


def _fill(rows: list[dict], name: str, form) -> None:
    """Set the ``name`` cell of ``rows`` to ``form`` of their SNR arrays
    (gamma_bar_p, gamma_bar_s, gamma_bar_r) in one call.  Should that call
    raise, a lone row gets the error cell and more rows are filled one by
    one, so only a row that fails alone gets an error cell; a row's value
    does not depend on the batch, so it is the same either way."""
    try:
        values = form(*(np.array([cells[power] for cells in rows])
                        for power in ("gamma_bar_p", "gamma_bar_s", "gamma_bar_r")))
    except CogrelayError as exc:
        if len(rows) == 1:
            rows[0]["error"] = _error_cell(exc)
        else:
            for cells in rows:
                _fill([cells], name, form)
        return
    for cells, value in zip(rows, values.tolist()):
        cells[name] = value


def run_sweep(plan: SweepPlan, cfg: RunConfig, *, analytic_only: bool = False,
              mc_only: bool = False) -> list[SweepRow]:
    """Evaluate the full (grid point x threshold x relay count) lattice in
    deterministic order.  The powers of the whole lattice are solved first
    (``_solve_powers``), then each closed-form column is evaluated over the
    transmitting rows of each relay count in one call (``_fill``), and the
    Monte Carlo cells of the rows without an error are estimated together,
    on one gain draw per trial slice for the largest relay count among
    them.  Each row keeps only the cells ``_filled_cells`` names; a sweep
    that is both analytic only and Monte Carlo only raises ValueError."""
    if analytic_only and mc_only:
        raise ValueError("analytic_only and mc_only are mutually exclusive")
    mod = mpsk_constants(4)
    filled = _filled_cells(cfg.scenario_kind, analytic_only, mc_only)
    scenario = cfg.network_scenario(max(plan.relay_counts))
    on_s = plan.x_axis == "secondary_snr_db"
    lattice = [(x_db, threshold, db_to_linear(cfg.primary_snr_db if on_s else x_db),
                *(db_to_linear(x_db if on_s else cap)
                  for cap in (cfg.max_source_snr_db, cfg.max_relay_snr_db)))
               for x_db in plan.grid_db() for threshold in plan.outage_thresholds]
    _, threshold, gp, cap_s, cap_r = np.array(lattice, dtype=float).reshape(-1, 5).T
    solved, errors = _solve_powers(scenario, gp, threshold, cap_s, cap_r)
    points = [point for key, powers, error in zip(lattice, solved, errors)
              for point in _sweep_point(plan, *key, powers, error, mod)]
    for K in plan.relay_counts:
        rows = [cells for cells, powers in points if powers is not None and cells["K"] == K]
        if rows:
            _closed_forms(cfg, K, rows, mod, filled)
    pending = [(cells, powers) for cells, powers in points
               if powers is not None and "error" not in cells and "mc_oc" in filled]
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
                 cdf_scenario_b(pair, 1.5), oracle.selection_oracle(pair, 1.5), 1e-5, out)
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

    from scipy.special import gammaincc
    # Gamma(3, 2.5) = Gamma(3) Q(3, 2.5) = 2! Q(3, 2.5), the engine's factor at L = 1
    series = 2.0 * _expected_survival([(3, 2.5)], 1.0, [])
    ref = 2.0 * float(gammaincc(3, 2.5))
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
    modes = p.add_mutually_exclusive_group()
    modes.add_argument("--analytic-only", action="store_true",
                       help="skip Monte Carlo columns")
    modes.add_argument("--mc-only", action="store_true",
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

    try:
        out = (open(args.output, "w", encoding="utf-8", newline="\n") if args.output
               else nullcontext(sys.stdout))
    except OSError as exc:
        parser.error(f"cannot write output: {exc}")
    with out as stream:
        write_csv(run_sweep(plan, cfg, analytic_only=args.analytic_only,
                            mc_only=args.mc_only), stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
