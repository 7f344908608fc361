"""Command-line runner: sweeps, CSV contract, self-check, exit codes."""

import collections
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cogrelay import analytic, cli, montecarlo
from cogrelay.config import load_config, parse_config
from cogrelay.model import (PowerProfile, Scenario, db_to_linear, mpsk_constants,
                            primary_threshold)
from tests.test_config import BASE

ROOT = Path(__file__).parents[1]

SMALL = BASE.replace("stop_db = 20.0", "stop_db = 10.0") \
            .replace("trials = 20000", "trials = 2000")
SMALL_B = SMALL.replace("scenario = a", "scenario = b") \
               .replace("relays = 1", "relays = 3") \
               .replace("[links.pt_s1]\nm = 1\nmean_gain = 0.05\n\n", "") \
               .replace("[links.pt_s2]\nm = 2\nmean_gain = 0.04\n\n", "") \
               .replace("outage_thresholds = 0.0, 0.1",
                        "outage_thresholds = 0.3\nrelay_counts = 1, 2, 3")


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunSweep:
    def test_row_lattice_order(self):
        cfg = parse_config(SMALL)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        assert [(r.x_db, r.threshold) for r in rows] == \
            [(0.0, 0.0), (0.0, 0.1), (10.0, 0.0), (10.0, 0.1)]

    def test_zero_threshold_row_is_exact_one(self):
        cfg = parse_config(SMALL)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        silent = [r for r in rows if r.threshold == 0.0]
        assert silent and all(r.analytic_oc == 1.0 for r in silent)
        assert all(r.gamma_bar_s == 0.0 and r.gamma_bar_r == 0.0 for r in silent)

    def test_csv_determinism(self):
        cfg = parse_config(SMALL)
        bufs = []
        for _ in range(2):
            rows = cli.run_sweep(cfg.sweeps["sweep"], cfg)
            buf = io.StringIO()
            cli.write_csv(rows, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_header_only_without_rows(self):
        buf = io.StringIO()
        cli.write_csv([], buf)
        assert buf.getvalue() == cli.CSV_HEADER + "\n"

    def test_analytic_only_leaves_mc_blank(self):
        cfg = parse_config(SMALL)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        row = [r for r in rows if r.threshold > 0.0][-1]
        assert row.analytic_oc is not None and row.mc_oc is None
        cells = row.as_csv().split(",")
        assert cells[7] == ""  # mc_oc column

    def test_both_modes_are_rejected_before_the_solve(self, monkeypatch):
        # a sweep with neither result column is an error, as in estimate_rows
        # given neither metric, not rows of powers with no result cells
        def solve(*args, **kwargs):
            raise AssertionError("the powers were solved")

        monkeypatch.setattr(cli, "_solve_powers", solve)
        cfg = parse_config(SMALL)
        with pytest.raises(ValueError, match="analytic_only and mc_only are mutually exclusive"):
            cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True, mc_only=True)

    @pytest.mark.parametrize("text", [
        SMALL, SMALL_B.replace("outage_thresholds = 0.3", "outage_thresholds = 0.0, 0.3")],
        ids=["a", "b"])
    @pytest.mark.parametrize("mode", [{}, {"analytic_only": True}, {"mc_only": True}],
                             ids=["full", "analytic_only", "mc_only"])
    def test_silent_rows_fill_the_cells_of_transmitting_rows(self, text, mode):
        # a zero-threshold or infeasible row writes exactly the cells that a
        # transmitting row of the same scenario and mode writes
        cfg = parse_config(text)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, **mode)

        def filled(row):
            return [cell != "" for cell in row.as_csv().split(",")[:-1]]

        silent = [filled(r) for r in rows if r.gamma_bar_s == 0.0]
        sending = [filled(r) for r in rows if r.gamma_bar_s > 0.0 and not r.error]
        assert silent and sending
        assert all(cells == sending[0] for cells in silent + sending)

    def test_threshold_ordering(self):
        text = SMALL.replace("outage_thresholds = 0.0, 0.1",
                             "outage_thresholds = 0.05, 0.3")
        cfg = parse_config(text)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        by_x = {}
        for r in rows:
            by_x.setdefault(r.x_db, {})[r.threshold] = r.analytic_oc
        for vals in by_x.values():
            assert vals[0.05] >= vals[0.3] - 1e-12

    def test_error_floor_when_caps_bind(self):
        # strong primary SNR sweep with tiny caps: powers saturate and the
        # outage stops moving.  The primary transmitter sits far from the
        # whole secondary network, otherwise its interference keeps a weak
        # primary-SNR dependence alive after the caps bind.
        text = SMALL.replace("max_source_snr_db = 15.0", "max_source_snr_db = 3.0") \
                    .replace("max_relay_snr_db = 15.0", "max_relay_snr_db = 3.0") \
                    .replace("start_db = 0.0", "start_db = 15.0") \
                    .replace("stop_db = 10.0", "stop_db = 25.0") \
                    .replace("step_db = 10.0", "step_db = 5.0") \
                    .replace("outage_thresholds = 0.0, 0.1",
                             "outage_thresholds = 0.2") \
                    .replace("[links.pt_relay]\nm = 2\nmean_gain = 0.9",
                             "[links.pt_relay]\nm = 2\nmean_gain = 1e-15") \
                    .replace("[links.pt_s1]\nm = 1\nmean_gain = 0.05",
                             "[links.pt_s1]\nm = 1\nmean_gain = 1e-15") \
                    .replace("[links.pt_s2]\nm = 2\nmean_gain = 0.04",
                             "[links.pt_s2]\nm = 2\nmean_gain = 1e-15") \
                    .replace("threshold_db = 3.0", "threshold_db = 0.0")
        cfg = parse_config(text)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        cap = 10.0 ** 0.3
        capped = [r for r in rows
                  if r.gamma_bar_s == cap and r.gamma_bar_r == cap]
        assert len(capped) >= 2
        base = capped[0].analytic_oc
        assert all(abs(r.analytic_oc - base) <= 1e-12 for r in capped)

    def test_relay_ordering_scenario_b(self):
        cfg = parse_config(SMALL_B)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        by_x = {}
        for r in rows:
            by_x.setdefault(r.x_db, {})[r.K] = r.analytic_oc
        for vals in by_x.values():
            assert vals[1] >= vals[2] >= vals[3]

    def test_powers_solved_once_per_point(self, monkeypatch):
        # the source power does not depend on K and relay k's power is the
        # same for every K >= k: one lattice solve of the source powers with
        # one entry per (grid point, threshold > 0), then one per relay with
        # one entry per transmitting point
        text = SMALL_B.replace("relays = 3", "relays = 4") \
                      .replace("start_db = 0.0", "start_db = 10.0") \
                      .replace("stop_db = 10.0", "stop_db = 20.0") \
                      .replace("outage_thresholds = 0.3\nrelay_counts = 1, 2, 3",
                               "outage_thresholds = 0.0, 0.3\nrelay_counts = 1, 2, 4") \
                      .replace("[sweep]", "[links.relay_px.2]\nm = 1\nmean_gain = 1.6\n\n"
                                          "[links.relay_px.4]\nm = 2\nmean_gain = 3.0\n\n"
                                          "[sweep]")
        calls, entries = collections.Counter(), collections.Counter()
        solve = cli.solve_power_lattice

        def counted(e, interferers, gp, threshold, outage, cap, what):
            calls[what] += 1
            entries[what] += len(outage)
            return solve(e, interferers, gp, threshold, outage, cap, what)

        monkeypatch.setattr(cli, "solve_power_lattice", counted)
        cfg = parse_config(text)
        rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        assert calls == {"secondary source power": 1, "relay power": 4}
        assert entries == {"secondary source power": 2, "relay power": 8}
        assert len(rows) == 2 * 2 * 3 and all(r.error == "" for r in rows)

        # row K's relay power is the smallest standalone solve of relays 1..K
        sc = cfg.network_scenario(4)
        cap_r = db_to_linear(cfg.max_relay_snr_db)
        for r in rows:
            if r.threshold == 0.0:
                assert r.gamma_bar_s == r.gamma_bar_r == 0.0
                continue
            solves = [analytic.solve_relay_power(analytic.PrimaryOutageInputs(
                e=sc.pt_px, f=sc.s1_px, g=sc.s2_px, l=link, gamma_bar_p=r.gamma_bar_p,
                gamma_bar_s1=r.gamma_bar_s, gamma_bar_s2=r.gamma_bar_s, gamma_bar_r=1.0,
                threshold=primary_threshold(sc)), r.threshold, cap_r)
                for link in sc.relay_px]
            assert r.gamma_bar_r == min(cap_r, *solves[:r.K])
            assert len(set(solves)) > 1

    def test_failed_power_solve_leaves_only_its_rows_blank(self, monkeypatch):
        # a constraint that is NaN at every positive power of the 12 dB
        # points stops their source solves; those rows say why and have no
        # result cells, and every other row is the row of a clean run
        cfg = load_config(str(ROOT / "example.cfg"))
        plan = replace(cfg.sweeps["sweep"], trials=4000)
        clean = cli.run_sweep(plan, cfg)
        sc = cfg.network_scenario(1)
        broken = sc.pt_px.m * primary_threshold(sc) / (sc.pt_px.mean_gain * db_to_linear(12.0))
        survival = analytic._expected_survival

        def nan_at_12_db(factors, kappa, gains):
            value = survival(factors, kappa, gains)
            if isinstance(gains[0][1], np.ndarray):
                value[(factors[0][1] == broken) & (gains[0][1] > 0.0)] = np.nan
            return value

        monkeypatch.setattr(analytic, "_expected_survival", nan_at_12_db)
        rows = cli.run_sweep(plan, cfg)
        assert len(rows) == len(clean)
        failed = [i for i, r in enumerate(rows) if r.x_db == 12.0]
        assert len(failed) == len(plan.outage_thresholds)
        for i, (r, c) in enumerate(zip(rows, clean)):
            if i not in failed:
                assert r.as_csv() == c.as_csv()
                continue
            assert r.error.startswith("NumericalInstability: secondary source power: "
                                      "constraint values ")
            assert r.error.endswith("bracket no root") and "," not in r.error
            assert (r.x_db, r.threshold, r.K, r.gamma_bar_p) == \
                (c.x_db, c.threshold, c.K, c.gamma_bar_p)
            assert r.as_csv().startswith(",".join(c.as_csv().split(",")[:4]) + "," * 9)

    @pytest.mark.parametrize("column, error", [
        ("analytic_oc", "NumericalInstability: cdf_scenario_a_e2e: probability nan outside "
                        "[0;1] beyond tolerance"),
        ("analytic_asep", "NumericalInstability: asep_kernel_scenario_a: value nan outside "
                          "[0; a/2]")])
    def test_failed_closed_form_leaves_only_its_row_blank(self, column, error, monkeypatch):
        # the engine returns NaN for one row of one column's lattice call:
        # that row's closed form raises, its error cell says so, an outage
        # failure also blanks the ASEP, either failure skips Monte Carlo,
        # and every other CSV line is the line of a clean run
        cfg = load_config(str(ROOT / "example.cfg"))
        plan = replace(cfg.sweeps["sweep"], trials=4000)
        clean = cli.run_sweep(plan, cfg)
        target = [i for i, r in enumerate(clean) if r.gamma_bar_s > 0.0][5]
        r = clean[target]
        by = analytic._Rates(cli._secondary_inputs(cfg.network_scenario(r.K), r.gamma_bar_p,
                                                   r.gamma_bar_s, r.gamma_bar_r)[0]).by
        # the ASEP kernel rule's calls have their own engine entry
        entry = "_node_survival" if column == "analytic_asep" else "_expected_survival"
        survival = getattr(analytic, entry)

        def nan_at_target(factors, kappa, gains):
            value = survival(factors, kappa, gains)
            # the outage's calls are over rows, the ASEP kernel rule's over
            # rows x nodes; the power solve's gain rates are scalars
            on_nodes = np.ndim(value) == 2
            if on_nodes == (column == "analytic_asep") and np.ndim(gains[0][2]) > 0:
                value = np.where(np.broadcast_to(gains[0][2] == by, value.shape), np.nan, value)
            return value

        monkeypatch.setattr(analytic, entry, nan_at_target)
        rows = cli.run_sweep(plan, cfg)
        assert len(rows) == len(clean)
        for i, (row, c) in enumerate(zip(rows, clean)):
            if i != target:
                assert row.as_csv() == c.as_csv()
        row, c = rows[target], clean[target]
        assert row.error == error
        assert row.analytic_oc == (c.analytic_oc if column == "analytic_asep" else None)
        assert (row.analytic_asep, row.mc_oc, row.mc_oc_ci, row.mc_asep, row.mc_asep_ci) == \
            (None,) * 5
        assert (row.x_db, row.threshold, row.K, row.gamma_bar_p, row.gamma_bar_s,
                row.gamma_bar_r) == (c.x_db, c.threshold, c.K, c.gamma_bar_p, c.gamma_bar_s,
                                     c.gamma_bar_r)

    @pytest.mark.parametrize("column", ["analytic_oc", "analytic_asep"])
    def test_failed_batch_call_is_retried_once_per_row(self, column, monkeypatch):
        # with the engine NaN for one row, the column's call over all the
        # transmitting rows raises; the column then calls once per row, so
        # only that row gets the error, and the others their batch values
        cfg = load_config(str(ROOT / "example.cfg"))
        plan = replace(cfg.sweeps["sweep"], trials=4000)
        clean = cli.run_sweep(plan, cfg, analytic_only=True)
        target = [i for i, r in enumerate(clean) if r.gamma_bar_s > 0.0][5]
        r = clean[target]
        by = analytic._Rates(cli._secondary_inputs(cfg.network_scenario(r.K), r.gamma_bar_p,
                                                   r.gamma_bar_s, r.gamma_bar_r)[0]).by
        # the ASEP kernel rule's calls have their own engine entry
        entry = "_node_survival" if column == "analytic_asep" else "_expected_survival"
        survival = getattr(analytic, entry)

        def nan_at_target(factors, kappa, gains):
            value = survival(factors, kappa, gains)
            if (np.ndim(value) == 2) == (column == "analytic_asep") and np.ndim(gains[0][2]):
                value = np.where(np.broadcast_to(gains[0][2] == by, value.shape), np.nan, value)
            return value

        name = "cdf_scenario_a_e2e" if column == "analytic_oc" else "asep_kernel_scenario_a"
        sizes, form = [], getattr(cli, name)

        def counted(inputs, *args):
            sizes.append(inputs.gamma_bar_p.shape)
            return form(inputs, *args)

        monkeypatch.setattr(analytic, entry, nan_at_target)
        monkeypatch.setattr(cli, name, counted)
        rows = cli.run_sweep(plan, cfg, analytic_only=True)
        sending = sum(row.gamma_bar_s > 0.0 for row in clean)
        assert sizes == [(sending,)] + [(1,)] * sending
        assert [i for i, (row, c) in enumerate(zip(rows, clean))
                if row.as_csv() != c.as_csv()] == [target]
        assert rows[target].error.startswith("NumericalInstability: ")

    @pytest.mark.parametrize("text, counts", [
        ((ROOT / "example.cfg").read_text(), {"cdf_scenario_a_e2e": 1,
                                              "asep_kernel_scenario_a": 1}),
        (SMALL_B.replace("relay_counts = 1, 2, 3", "relay_counts = 1, 2")
                .replace("start_db = 0.0", "start_db = 10.0")
                .replace("stop_db = 10.0", "stop_db = 20.0"),
         {"cdf_scenario_b": 2})], ids=["example", "scenario_b"])
    def test_closed_forms_called_once_per_relay_count(self, text, counts, monkeypatch):
        # each column is one call per relay count over the SNR arrays of
        # that count's transmitting rows, never a call per row
        calls, entries = collections.Counter(), collections.Counter()
        for name in ("cdf_scenario_a_e2e", "cdf_scenario_b", "asep_kernel_scenario_a"):
            def counted(inputs, *args, name=name, fn=getattr(cli, name)):
                calls[name] += 1
                entries[name] += len((inputs if isinstance(inputs, list) else [inputs])[0]
                                     .gamma_bar_p)
                return fn(inputs, *args)
            monkeypatch.setattr(cli, name, counted)
        cfg = parse_config(text)
        rows = cli.run_sweep(replace(cfg.sweeps["sweep"], trials=2000), cfg)
        assert calls == counts
        sending = collections.Counter(r.K for r in rows if r.gamma_bar_s > 0.0)
        assert min(sending[K] for K in cfg.sweeps["sweep"].relay_counts) >= 2
        assert entries == {name: sending.total() for name in counts}

    @pytest.mark.parametrize("text", [
        SMALL.replace("outage_thresholds = 0.0, 0.1", "outage_thresholds = 0.1, 0.3"),
        SMALL_B.replace("relay_counts = 1, 2, 3", "relay_counts = 1, 2")],
        ids=["scenario_a", "scenario_b"])
    def test_rows_share_one_draw_per_slice(self, text, monkeypatch):
        # 2000 trials in slices of 600 (four per row): every row, whatever its
        # relay count, is scored on the same draw of each slice, and its cells
        # equal its own standalone estimates exactly
        text = text.replace("start_db = 0.0", "start_db = 10.0") \
                   .replace("stop_db = 10.0", "stop_db = 20.0") \
                   .replace("threshold_db = 3.0", "threshold_db = -6.0")
        monkeypatch.setattr(montecarlo, "_SLICE", 600)
        draw_gains, calls = montecarlo.draw_gains, []
        monkeypatch.setattr(montecarlo, "draw_gains",
                            lambda *a, **k: calls.append(a) or draw_gains(*a, **k))
        cfg = parse_config(text)
        plan = cfg.sweeps["sweep"]
        rows = cli.run_sweep(plan, cfg)
        assert len(calls) == 4
        live = [r for r in rows if r.gamma_bar_s > 0.0]
        assert len(live) == len(rows) >= 2 * len(plan.relay_counts)
        for r in live:
            sc = cfg.network_scenario(r.K)
            powers = PowerProfile(r.gamma_bar_p, r.gamma_bar_s, r.gamma_bar_r,
                                  r.gamma_bar_s, r.gamma_bar_r)
            oc = montecarlo.estimate_outage(
                sc, powers, sc.secondary_threshold, trials=plan.trials,
                seed=plan.seed, sinr_kind="exact")
            assert (r.mc_oc, r.mc_oc_ci) == (oc.value, oc.ci_half_width)
            if sc.scenario is Scenario.A:
                sep = montecarlo.estimate_asep(
                    sc, powers, mpsk_constants(4), trials=plan.trials,
                    seed=plan.seed, sinr_kind="exact")
                assert (r.mc_asep, r.mc_asep_ci) == (sep.value, sep.ci_half_width)
            else:
                assert r.mc_asep is None and r.mc_asep_ci is None


class TestSelfCheck:
    def test_passes(self):
        buf = io.StringIO()
        assert cli.run_selfcheck(buf) == 0
        assert "FAIL" not in buf.getvalue()

    def test_corrupted_constant_fails(self, monkeypatch):
        monkeypatch.setattr(cli, "primary_outage", lambda inp: 0.123)
        buf = io.StringIO()
        assert cli.run_selfcheck(buf) == 1
        assert "FAIL" in buf.getvalue()


def test_import_leaves_oracles_unloaded():
    # the quadrature oracles are only for the self-check, and scipy (which
    # serves them, the self-check and the paper's closed-form ASEP) would
    # cost a sweep most of its start-up time: neither the import nor full
    # sweeps of both scenarios, Monte Carlo SEP included, may load it
    modules = ["cogrelay.oracle", "scipy"]
    code = f"""
import sys
from dataclasses import replace
import cogrelay.cli as cli
from cogrelay.config import load_config, parse_config
print([m in sys.modules for m in {modules}])
for cfg in (load_config({str(ROOT / "example.cfg")!r}), parse_config({SMALL_B!r})):
    rows = cli.run_sweep(replace(cfg.sweeps["sweep"], trials=2000), cfg)
    print(cfg.scenario_kind.name, sum(r.mc_oc is not None for r in rows),
          sum(r.mc_asep is not None for r in rows))
print([m in sys.modules for m in {modules}])
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    unloaded = str([False] * len(modules))
    # 22 example rows with Monte Carlo SEP, 6 Scenario (b) rows without
    assert out.stdout.split("\n") == [unloaded, "A 22 22", "B 6 0", unloaded, ""]


class TestMain:
    def test_selfcheck_flag(self, capsys):
        assert cli.main(["--selfcheck"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", str(tmp_path / "missing.cfg")])
        assert err.value.code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_config_reports_line(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL.replace("rate = 1.0", "rate = fast"))
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path])
        assert err.value.code == 2
        assert "line" in capsys.readouterr().err

    def test_model_error_in_config_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL.replace("rate = 1.0", "rate = 0.0"))
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path])
        assert err.value.code == 2
        assert "primary_rate must be positive" in capsys.readouterr().err

    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL.replace("max_source_snr_db = 15.0",
                                              "max_source_snr_db = nan"))
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path])
        assert err.value.code == 2
        assert "invalid value 'nan' for key 'max_source_snr_db'" in capsys.readouterr().err

    def test_unknown_sweep_name(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL)
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path, "--sweep", "nope"])
        assert err.value.code == 2

    def test_invalid_trials_override_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, SMALL)
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path, "--trials", "500"])
        assert err.value.code == 2
        assert "trials must be at least 1000" in capsys.readouterr().err

    def test_end_to_end_run(self, tmp_path):
        path = _write(tmp_path, SMALL)
        out = tmp_path / "out.csv"
        assert cli.main(["--config", path, "--output", str(out),
                         "--trials", "2000", "--seed", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 5  # 2 grid points x 2 thresholds
        # byte-identical on repeat
        out2 = tmp_path / "out2.csv"
        cli.main(["--config", path, "--output", str(out2),
                  "--trials", "2000", "--seed", "1"])
        assert out.read_bytes() == out2.read_bytes()

    def test_unwritable_output_is_usage_error_before_the_sweep(self, tmp_path, capsys,
                                                               monkeypatch):
        def run_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output was opened")

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        path = _write(tmp_path, SMALL)
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path, "--output", str(tmp_path / "missing" / "x.csv")])
        assert err.value.code == 2
        assert "cannot write output: " in capsys.readouterr().err

    def test_mutually_exclusive_modes(self, tmp_path):
        path = _write(tmp_path, SMALL)
        with pytest.raises(SystemExit) as err:
            cli.main(["--config", path, "--analytic-only", "--mc-only"])
        assert err.value.code == 2
