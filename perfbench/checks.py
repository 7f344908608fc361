"""Output checks made before any number is reported.  None of this is
timed.  Each check returns a list of failure messages; an empty list
means the sweep's CSV is what the program promises."""

from __future__ import annotations

from cogrelay import cli
from cogrelay.analytic import PrimaryOutageInputs, primary_outage, relay_phase_outage
from cogrelay.model import mpsk_constants, primary_threshold

# Relative slack on the primary outage constraint at the solved powers.
PROTECTION_SLACK = 1e-9

PROBABILITY_COLUMNS = ("analytic_oc", "mc_oc", "analytic_asep", "mc_asep")
CI_COLUMNS = ("mc_oc_ci", "mc_asep_ci")


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(",", len(header) - 1))) for line in lines[1:-1]]
    return header, rows


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def is_failed(row: dict[str, str]) -> bool:
    """A row the program could not compute: its error is neither empty
    nor ``infeasible``."""
    return row["error"] not in ("", "infeasible")


def check_lattice(header, rows, plan) -> list[str]:
    errors = []
    if ",".join(header) != cli.CSV_HEADER:
        errors.append(f"header {','.join(header)!r} != {cli.CSV_HEADER!r}")
    lattice = [(x, t, k) for x in plan.grid_db() for t in plan.outage_thresholds
               for k in plan.relay_counts]
    if len(rows) != len(lattice):
        errors.append(f"{len(rows)} rows, expected {len(lattice)} "
                      f"(grid x thresholds x relay counts)")
        return errors
    for i, (row, (x, t, k)) in enumerate(zip(rows, lattice)):
        if (float(row["x_db"]), float(row["threshold"]), int(row["K"])) != (x, t, k):
            errors.append(f"row {i}: key ({row['x_db']}, {row['threshold']}, "
                          f"{row['K']}) != lattice ({x}, {t}, {k})")
    return errors


def check_ranges(rows) -> list[str]:
    """Probabilities in [0, 1], SEP in [0, a/2] and CI half-widths >= 0 on
    every row that is not a failure."""
    half_a = mpsk_constants(4).a / 2.0
    errors = []
    for i, row in enumerate(rows):
        if is_failed(row):
            continue
        for col in PROBABILITY_COLUMNS:
            v = _num(row[col])
            if v is not None and not 0.0 <= v <= 1.0:
                errors.append(f"row {i}: {col}={v} outside [0, 1]")
        for col in ("analytic_asep", "mc_asep"):
            v = _num(row[col])
            if v is not None and not 0.0 <= v <= half_a:
                errors.append(f"row {i}: {col}={v} outside [0, a/2={half_a}]")
        for col in CI_COLUMNS:
            v = _num(row[col])
            if v is not None and not v >= 0.0:
                errors.append(f"row {i}: {col}={v} is negative")
    return errors


def check_protection(rows, cfg) -> tuple[list[str], float]:
    """Recompute the primary outage in both phases at every row's solved
    powers; each must stay within its outage threshold.  Also returns the
    largest outage / threshold ratio seen."""
    errors = []
    worst = 0.0
    for i, row in enumerate(rows):
        gs, gr = float(row["gamma_bar_s"]), float(row["gamma_bar_r"])
        if gs <= 0.0 or gr <= 0.0:
            continue
        threshold = float(row["threshold"])
        scenario = cfg.network_scenario(int(row["K"]))
        common = dict(e=scenario.pt_px, f=scenario.s1_px, g=scenario.s2_px,
                      gamma_bar_p=float(row["gamma_bar_p"]), gamma_bar_s1=gs,
                      gamma_bar_s2=gs, gamma_bar_r=gr,
                      threshold=primary_threshold(scenario))
        outages = [("MA phase", primary_outage(
            PrimaryOutageInputs(l=scenario.relay_px[0], **common)))]
        outages += [(f"BC phase, relay {k + 1}", relay_phase_outage(
            PrimaryOutageInputs(l=link, **common)))
            for k, link in enumerate(scenario.relay_px)]
        for what, p in outages:
            worst = max(worst, p / threshold)
            if p > threshold * (1.0 + PROTECTION_SLACK):
                errors.append(f"row {i}: primary outage {p!r} in the {what} "
                              f"exceeds the threshold {threshold!r}")
    return errors, worst


def bound_violations(rows) -> int:
    """Rows whose closed-form lower bound lies above the exact-SINR Monte
    Carlo estimate plus its CI half-width."""
    n = 0
    for row in rows:
        a, mc, ci = _num(row["analytic_oc"]), _num(row["mc_oc"]), _num(row["mc_oc_ci"])
        if a is not None and mc is not None and a > mc + ci:
            n += 1
    return n
