"""Benchmark of the power-regulated SNR sweep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each sample is a fresh interpreter (``child.py``) that imports
the package, loads the workload's config (its ``seed`` set to ``--seed``)
and runs ``cli.run_sweep`` plus ``cli.write_csv`` into memory, one child
at a time, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` reports the end-to-end metrics of untraced children: the
median sweep and the median set-up, each sample first scaled to a fixed
host speed by a fixed kernel that the child times while it runs (the
speed of a shared host swings by up to about 2x, for seconds and for
minutes at a time, which no statistic within one run removes).
``--trace 1`` alternates untraced children with traced ones, whose
spans give the per-layer metrics and the tracing overhead.
Before any number is reported, the CSVs are checked (``checks.py``) and
``cli.run_selfcheck`` must pass.  A failed check or a failed child gives
``"correct": false`` and exit status 1.
The last line of standard output is the JSON result; details, the spans
of the last traced child and the environment go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> (config template, --analytic-only)
WORKLOADS = {
    "example_full": (ROOT / "example.cfg", False),
    "analytic_highm": (HERE / "workloads" / "analytic_highm.cfg", True),
    "relay_selection": (HERE / "workloads" / "relay_selection.cfg", False),
}

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SWEEPS = 2          # CSV bytes are compared across at least two repetitions
MIN_SETUP_ONLY = 3      # set-up-only children before the sweeps
MAX_FAILED = 3          # failed children after which a run stops trying
GRACE_S = 90.0          # no child may run longer than this past the time budget
REF_S = 0.004           # probe time of the host speed that timings are given at


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy number."""


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(mode: str, cfg_path: Path, analytic_only: bool, csv_path: Path,
              spans_path: Path, timeout_s: float) -> dict:
    """Start one child, wait for it and return its JSON report plus its
    set-up time (process start to config loaded)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(cfg_path),
           "1" if analytic_only else "0", str(csv_path), str(spans_path)]
    env = {**os.environ, **CHILD_ENV}
    start_ns = _clock_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child exceeded {timeout_s:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{err.strip()}")
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} child printed no report") from None
    report["setup_s"] = (report["loaded_ns"] - start_ns) / 1e9
    return report


def write_config(name: str, seed: int) -> Path:
    template = WORKLOADS[name][0].read_text(encoding="utf-8")
    text, n = re.subn(r"(?m)^seed = \d+$", f"seed = {seed}", template)
    if n != 1:
        raise BenchError(f"{name}: template must hold exactly one seed line")
    path = OUT / f"{name}.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "child_env": CHILD_ENV}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def collect(name: str, cfg_path: Path, seconds: float, traced: bool) -> dict:
    """Run children until the time budget is spent; return their reports.
    A few set-up-only children come first.  Then come as many sweep
    children (alternating with traced ones when tracing) as fit in the
    budget, and set-up-only children fill what is left of it.
    Every child gives one set-up sample.  A child that crashes, exits
    non-zero or runs out of time is counted in ``failed``; after
    MAX_FAILED of them the run stops."""
    from layers import Profile, load_spans

    analytic_only = WORKLOADS[name][1]
    csv_path = OUT / f"{name}.csv"
    spans_path = OUT / f"{name}.spans.jsonl"
    deadline = time.monotonic() + seconds
    runs = {"sweep": [], "traced": [], "setups": [], "setup_refs": [], "failed": []}

    def child(mode: str) -> None:
        try:
            report = run_child(mode, cfg_path, analytic_only, csv_path, spans_path,
                               deadline + GRACE_S - time.monotonic())
        except BenchError as exc:
            runs["failed"].append(str(exc))
            return
        runs["setups"].append(report["setup_s"])
        runs["setup_refs"].append(report["ref_s"])
        if mode == "traced":
            report["profile"] = Profile(load_spans(str(spans_path)))
        if mode != "setup":
            runs[mode].append(report)

    sweep_modes = ("sweep", "traced") if traced else ("sweep",)
    # (children of one round, rounds at least, then fill the budget?)
    for modes, at_least, fill in ((("setup",), MIN_SETUP_ONLY, False),
                                  (sweep_modes, MIN_SWEEPS, True),
                                  (("setup",), 0, True)):
        done, longest = 0, 0.0
        while len(runs["failed"]) < MAX_FAILED and (
                done < at_least or fill and time.monotonic() + longest < deadline):
            t0 = time.monotonic()
            for mode in modes:
                child(mode)
            done += 1
            longest = max(longest, time.monotonic() - t0)
    return runs


def check_outputs(name: str, cfg_path: Path, runs: dict) -> tuple[list[str], dict]:
    """Every output check, untimed; returns (failures, facts about the CSV).
    The CSV file holds the last child's output; every child's digest must
    match it."""
    import checks
    from cogrelay import cli, config

    cfg = config.load_config(str(cfg_path))
    data = (OUT / f"{name}.csv").read_bytes()
    digests = {r["sha256"] for r in runs["sweep"] + runs["traced"]}
    errors = []
    if digests != {hashlib.sha256(data).hexdigest()}:
        errors.append(f"CSV bytes differ across the repetitions of one seed "
                      f"(traced and untraced): {sorted(digests)}")
    header, rows = checks.parse_csv(data.decode("utf-8"))
    errors += checks.check_lattice(header, rows, cfg.sweeps["sweep"])
    errors += checks.check_ranges(rows)
    protection_errors, worst = checks.check_protection(rows, cfg)
    errors += protection_errors
    log = io.StringIO()
    status = cli.run_selfcheck(out=log)
    if status != 0:
        errors.append(f"cli.run_selfcheck returned {status}:\n{log.getvalue()}")
    facts = {"rows": len(rows),
             "failed_rows": sum(checks.is_failed(r) for r in rows),
             "bound_violations": checks.bound_violations(rows),
             "worst_primary_outage_over_threshold": worst}
    return errors, facts


def at_ref_speed(seconds: float, probe_s: float) -> float:
    """A time measured while the speed probe took ``probe_s``, scaled to
    the host speed at which it takes REF_S."""
    return seconds * REF_S / probe_s


def sweeps_at_ref_speed(runs: dict) -> list[float]:
    """Each untraced sweep, scaled by the mean of the probes timed during it."""
    return [at_ref_speed(r["sweep_s"], statistics.fmean(r["probe_s"])) for r in runs["sweep"]]


def setups_at_ref_speed(runs: dict) -> list[float]:
    return [at_ref_speed(s, ref) for s, ref in zip(runs["setups"], runs["setup_refs"])]


def end_to_end(runs: dict, facts: dict) -> dict[str, tuple[float, str]]:
    """Medians of the run's samples, each at the reference host speed."""
    sweep_s = statistics.median(sweeps_at_ref_speed(runs))
    return {
        "setup_s": (statistics.median(setups_at_ref_speed(runs)), "s"),
        "sweep_s": (sweep_s, "s"),
        "rows_per_s": (facts["rows"] / sweep_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in runs["sweep"]) / 1024,
                        "MB"),
        "ok_row_share": (1.0 - facts["failed_rows"] / facts["rows"], "ratio"),
    }


def per_layer(runs: dict, facts: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Median of each per-layer metric over the traced children, and the
    metrics lost to functions that no longer exist."""
    from layers import Sample, layer_metrics, unit_of

    untraced = statistics.median(r["sweep_s"] for r in runs["sweep"])
    samples: dict[str, list[float]] = {}
    lost: list[str] = []
    for r in runs["traced"]:
        values, lost = layer_metrics(
            Sample(r["profile"], facts["rows"], facts["bound_violations"],
                   r["sweep_s"], untraced), r["missing"])
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
    return {k: (statistics.median(v), unit_of(k)) for k, v in samples.items()}, lost


def report_lines(name: str, seed: int, runs: dict, facts: dict, env: dict) -> list[str]:
    sweeps = [r["sweep_s"] for r in runs["sweep"]]
    scaled = sweeps_at_ref_speed(runs)
    tail = tail_percentile(scaled)
    probes = [p for r in runs["sweep"] for p in r["probe_s"]]
    return [
        f"workload {name}, seed {seed}: {facts['rows']} rows; "
        f"{len(sweeps)} untraced sweep(s), {len(runs['traced'])} traced, "
        f"{len(runs['setups'])} set-up sample(s)",
        "env: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "child_env"),
        "sweep_s samples (wall): " + ", ".join(f"{v:.4f}" for v in sweeps),
        "sweep_s samples (at reference speed): "
        + ", ".join(f"{v:.4f}" for v in scaled),
        f"speed probe: median {1e3 * statistics.median(probes):.3f} ms over {len(probes)} "
        f"probes during the sweeps (the reference speed is {1e3 * REF_S:g} ms)",
        f"setup_s samples: n={len(runs['setups'])}, "
        f"median {statistics.median(runs['setups']):.4f} s wall, "
        f"{statistics.median(setups_at_ref_speed(runs)):.4f} s at reference speed",
        ("sweep_s tail (at reference speed): p{:.0f} = {:.4f} s (n={})".format(
            *tail, len(sweeps)) if tail else
         f"sweep_s tail: none (n={len(sweeps)}; needs 11 samples for one with 10 above it)"),
        f"failed_row_share: {facts['failed_rows'] / facts['rows']:.6g} ratio "
        f"({facts['failed_rows']}/{facts['rows']} rows with an error other than infeasible)",
        f"primary protection: worst outage/threshold {facts['worst_primary_outage_over_threshold']:.12g}",
        f"analytic.bound_violations: {facts['bound_violations']} count",
    ]


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload, print its report and JSON result; return the
    exit status."""
    try:
        cfg_path = write_config(name, seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runs = collect(name, cfg_path, seconds, trace)
    errors = [f"child failed: {msg}" for msg in runs["failed"]]
    metrics: dict[str, tuple[float, str]] = {}
    facts: dict = {}
    if runs["sweep"] and (runs["traced"] or not trace):
        check_errors, facts = check_outputs(name, cfg_path, runs)
        errors += check_errors
        env = environment()
        for line in report_lines(name, seed, runs, facts, env):
            print(line)
        if trace:
            from layers import profile_table
            metrics, lost = per_layer(runs, facts)
            last = runs["traced"][-1]
            print(f"traced profile (last traced child, spans in {OUT.name}/{name}.spans.jsonl):")
            for line in profile_table(last["profile"], last["sweep_s"]):
                print("  " + line)
            if last["missing"] or lost:
                print(f"missing: functions {last['missing']}; metrics {lost}")
        else:
            metrics = end_to_end(runs, facts)
        for k, (v, unit) in metrics.items():
            print(f"{k}: {v:.6g} {unit}")
    else:
        env = {}
        errors.append("no sweep finished, so nothing could be checked or measured")

    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    # every child that finished gave one set-up sample
    attempted = len(runs["setups"]) + len(runs["failed"])
    result = {"correct": not errors, "attempted": attempted, "failed": len(runs["failed"]),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details = {"workload": name, "seed": seed, "trace": int(trace), "env": env,
               "facts": facts, "errors": errors,
               "sweep_s": [r["sweep_s"] for r in runs["sweep"]],
               "traced_sweep_s": [r["sweep_s"] for r in runs["traced"]],
               "sweep_probe_s": [r["probe_s"] for r in runs["sweep"]],
               "setup_s": runs["setups"], "setup_ref_s": runs["setup_refs"],
               "result": result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of each workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cogrelay" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cogrelay'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(bench(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
