"""Config grammar: parsing, validation with line numbers, round-trip."""

import re
from pathlib import Path

import pytest

from cogrelay.errors import ConfigError
from cogrelay.config import (RunConfig, SweepPlan, parse_config,
                             serialize_config)
from cogrelay.model import Scenario

BASE = """\
[primary]
rate = 1.0
snr_db = 10.0

[secondary]
scenario = a
relays = 1
threshold_db = 3.0
max_source_snr_db = 15.0
max_relay_snr_db = 15.0

[links.pt_px]
m = 2
mean_gain = 1.0

[links.s1_px]
m = 1
mean_gain = 0.8

[links.s2_px]
m = 1
mean_gain = 1.2

[links.relay_px]
m = 2
mean_gain = 1.0

[links.pt_relay]
m = 2
mean_gain = 0.9

[links.s1_relay]
m = 2
mean_gain = 1.1

[links.s2_relay]
m = 3
mean_gain = 0.7

[links.pt_s1]
m = 1
mean_gain = 0.05

[links.pt_s2]
m = 2
mean_gain = 0.04

[sweep]
axis = primary_snr_db
start_db = 0.0
stop_db = 20.0
step_db = 10.0
outage_thresholds = 0.0, 0.1
trials = 20000
seed = 7
"""

# Scenario (b) with a per-relay link override and a named sweep, so that
# every section kind of the grammar appears in one text.
TEXT_B = BASE.replace("scenario = a", "scenario = b") \
             .replace("relays = 1", "relays = 2") \
             .replace("[links.pt_s1]\nm = 1\nmean_gain = 0.05\n\n", "") \
             .replace("[links.pt_s2]\nm = 2\nmean_gain = 0.04\n\n", "") \
    + "\n[links.pt_relay.2]\nm = 1\nmean_gain = 2.5\n" \
    + "\n[sweep.fine]\naxis = secondary_snr_db\nstart_db = 0.0\nstop_db = 5.0\n" \
      "step_db = 1.0\noutage_thresholds = 0.05, 0.2\nrelay_counts = 1, 2\n"

# One section of each kind: (text, header, one of its required key lines,
# that line with a value of the wrong type).
SECTIONS = {
    "primary": (BASE, "[primary]", "snr_db = 10.0", "snr_db = loud"),
    "secondary": (BASE, "[secondary]", "threshold_db = 3.0", "threshold_db = 3.0.1"),
    "links": (BASE, "[links.s2_relay]", "m = 3", "m = 2.5"),
    "links_relay": (TEXT_B, "[links.pt_relay.2]", "mean_gain = 2.5", "mean_gain = big"),
    "sweep": (BASE, "[sweep]", "outage_thresholds = 0.0, 0.1",
              "outage_thresholds = 0.0, high"),
    "sweep_named": (TEXT_B, "[sweep.fine]", "step_db = 1.0", "step_db = 1 dB"),
}


def _in_section(text, header, old, new):
    """``text`` with the first ``old`` after ``header`` replaced by ``new``."""
    head, sep, tail = text.partition(header + "\n")
    assert sep and old in tail
    return head + sep + tail.replace(old, new, 1)


class TestParsing:
    def test_parses_base(self):
        cfg = parse_config(BASE)
        assert cfg.scenario_kind is Scenario.A
        assert cfg.link_defaults["pt_s1"].mean_gain == 0.05
        assert cfg.sweeps["sweep"].outage_thresholds == (0.0, 0.1)

    def test_network_scenario(self):
        sc = parse_config(BASE).network_scenario()
        assert sc.K == 1
        assert sc.secondary_threshold == pytest.approx(10.0 ** 0.3)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(BASE.replace("rate = 1.0", "rate = 1.0  # bits/s/Hz"))
        assert cfg.primary_rate == 1.0

    def test_named_sweep(self):
        text = BASE + "\n[sweep.fine]\naxis = secondary_snr_db\n" \
                      "start_db = 0.0\nstop_db = 5.0\nstep_db = 1.0\n" \
                      "outage_thresholds = 0.05\n"
        cfg = parse_config(text)
        assert set(cfg.sweeps) == {"sweep", "fine"}
        assert cfg.sweeps["fine"].trials == 100_000  # default budget

    def test_per_relay_override(self):
        text = BASE.replace("scenario = a", "scenario = b") \
                   .replace("relays = 1", "relays = 2") \
                   .replace("[links.pt_s1]\nm = 1\nmean_gain = 0.05\n\n", "") \
                   .replace("[links.pt_s2]\nm = 2\nmean_gain = 0.04\n\n", "")
        text += "\n[links.pt_relay.2]\nm = 1\nmean_gain = 2.5\n"
        cfg = parse_config(text)
        sc = cfg.network_scenario(2)
        assert sc.pt_relay[0].mean_gain == 0.9
        assert sc.pt_relay[1].mean_gain == 2.5


class TestErrors:
    def _line_of(self, text, needle):
        for i, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                return i
        raise AssertionError(needle)

    def test_unknown_key_has_line_number(self):
        text = BASE.replace("rate = 1.0", "rate = 1.0\nbogus = 3")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, "bogus")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE + "\n[plotting]\ncolor = red\n")

    @pytest.mark.parametrize("header", ["[sweep.]", "[sweep. x ]", "[sweep.a b]"])
    def test_malformed_sweep_name_reports_its_header(self, header):
        # a named sweep needs a name, and one without whitespace
        text = BASE + f"\n{header}\naxis = secondary_snr_db\nstart_db = 0.0\n" \
                      "stop_db = 5.0\nstep_db = 1.0\noutage_thresholds = 0.05\n"
        with pytest.raises(ConfigError, match="malformed sweep section") as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, header)

    def test_unknown_link(self):
        with pytest.raises(ConfigError, match="unknown link"):
            parse_config(BASE + "\n[links.nonesuch]\nm = 1\nmean_gain = 1.0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(BASE.replace("rate = 1.0", "rate = 1.0\nrate = 2.0"))

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config(BASE.replace("m = 2", "m = two", 1))

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="missing required section"):
            parse_config("[primary]\nrate = 1.0\nsnr_db = 10.0\n")

    def test_missing_link(self):
        text = BASE.replace("[links.pt_px]\nm = 2\nmean_gain = 1.0\n\n", "")
        with pytest.raises(ConfigError, match="pt_px"):
            parse_config(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("rate = 1.0\n")

    def test_file_level_errors_name_no_line(self):
        for text in ("", BASE.replace("[links.pt_px]\nm = 2\nmean_gain = 1.0\n\n", "")):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.line is None
            assert "line" not in str(err.value)
        assert str(err.value) == "missing link sections: pt_px"

    def test_line_error_names_its_line(self):
        text = BASE.replace("rate = 1.0", "rate = 1.0\nbogus = 3")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(f"line {self._line_of(text, 'bogus')}: ")

    def test_model_validation_error_is_config_error(self):
        # the primary rate passes the grammar but not the network model
        with pytest.raises(ConfigError, match="primary_rate must be positive"):
            parse_config(BASE.replace("rate = 1.0", "rate = 0.0"))

    @pytest.mark.parametrize("kind", SECTIONS)
    def test_unknown_key_reports_its_line(self, kind):
        text, header, _, _ = SECTIONS[kind]
        text = text.replace(header + "\n", header + "\nbogus = 3\n", 1)
        message = f"unknown key 'bogus' in section {re.escape(header)}"
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, "bogus")

    @pytest.mark.parametrize("kind", SECTIONS)
    def test_missing_key_reports_the_header_line(self, kind):
        text, header, line, _ = SECTIONS[kind]
        text = _in_section(text, header, line + "\n", "")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"is missing key '{key}'") as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, header)

    @pytest.mark.parametrize("kind", SECTIONS)
    def test_bad_value_reports_its_line(self, kind):
        text, header, line, bad = SECTIONS[kind]
        text = _in_section(text, header, line, bad)
        with pytest.raises(ConfigError, match="invalid value") as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line", ["max_source_snr_db = 15.0", "mean_gain = 0.8",
                                      "outage_thresholds = 0.0, 0.1"])
    def test_non_finite_float_reports_its_line(self, line, value):
        # a NaN or infinite power, gain or threshold would reach the model
        # and fail there untyped, or pass its range checks
        bad = f"{line.rsplit(' ', 1)[0]} {value}"
        text = BASE.replace(line, bad, 1)
        with pytest.raises(ConfigError, match=f"invalid value .*{value}") as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, bad)

    @pytest.mark.parametrize("value", ["4000", "-4000"])
    @pytest.mark.parametrize("key", ["snr_db", "threshold_db", "max_source_snr_db",
                                     "max_relay_snr_db", "start_db", "stop_db"])
    def test_db_beyond_float_range_reports_its_line(self, key, value):
        # 10^(x/10) overflows above about 3082.5 dB, which raised a bare
        # OverflowError, and underflows to a zero power far below 0 dB
        (line,) = [ln for ln in BASE.splitlines() if ln.startswith(f"{key} = ")]
        bad = f"{key} = {value}"
        text = BASE.replace(line, bad, 1)
        with pytest.raises(ConfigError, match=f"invalid value '{value}' for key '{key}'") as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, bad)

    @pytest.mark.parametrize("relays", [0, -2])
    def test_relays_out_of_range_reports_the_secondary_header(self, relays):
        # checked before the link and sweep sections read the relay count
        text = TEXT_B.replace("relays = 2", f"relays = {relays}")
        with pytest.raises(ConfigError, match=f"relays {relays} out of range") as err:
            parse_config(text)
        assert err.value.line == self._line_of(text, "[secondary]")

    @pytest.mark.parametrize("text, message, line", [
        (BASE.replace("[primary]", "[primary", 1), "unterminated section header", 1),
        (BASE.replace("rate = 1.0", "rate 1.0", 1), "expected 'key = value', got 'rate 1.0'", 2),
        (BASE + "\n[primary]\nrate = 1.0\nsnr_db = 10.0\n", "duplicate section [primary]", 57),
        (BASE.replace("scenario = a", "scenario = c"), "scenario must be 'a' or 'b', got 'c'", 5),
        (BASE.replace("relays = 1", "relays = 2"), "scenario a supports a single relay", 5),
        (TEXT_B + "\n[links]\nm = 1\nmean_gain = 1.0\n", "malformed link section [links]", 61),
        (TEXT_B + "\n[links.pt_relay.x]\nm = 1\nmean_gain = 1.0\n",
         "malformed link section [links.pt_relay.x]", 61),
        (TEXT_B + "\n[links.pt_px.2]\nm = 1\nmean_gain = 1.0\n",
         "link 'pt_px' has no per-relay variants", 61),
        (TEXT_B + "\n[links.pt_relay.3]\nm = 1\nmean_gain = 1.0\n",
         "relay index 3 outside 1..2", 61),
        (TEXT_B.replace("relay_counts = 1, 2", "relay_counts = 3"),
         "sweep relay count 3 exceeds configured relays 2", None),
        (TEXT_B.replace("relay_counts = 1, 2", "relay_counts = 0"),
         "relay count 0 must be >= 1", 53),
    ], ids=["unterminated_header", "no_equals", "duplicate_section", "scenario_c",
            "scenario_a_two_relays", "bare_links", "links_bad_index", "pt_px_per_relay",
            "relay_index_beyond_relays", "sweep_count_beyond_relays", "sweep_count_zero"])
    def test_structural_errors_report_message_and_line(self, text, message, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("outage_thresholds = 0.0, 0.1",
                                      "outage_thresholds = 1.5"))


class TestSweepPlan:
    def test_grid(self):
        plan = SweepPlan("primary_snr_db", 0.0, 20.0, 10.0, (0.1,))
        assert plan.grid_db() == [0.0, 10.0, 20.0]

    def test_grid_inexact_step(self):
        plan = SweepPlan("primary_snr_db", 0.0, 1.0, 0.1, (0.1,))
        assert len(plan.grid_db()) == 11

    def test_invariants(self):
        with pytest.raises(ValueError):
            SweepPlan("primary_snr_db", 5.0, 1.0, 1.0, (0.1,))
        with pytest.raises(ValueError):
            SweepPlan("primary_snr_db", 0.0, 5.0, 0.0, (0.1,))
        with pytest.raises(ValueError):
            SweepPlan("sideways", 0.0, 5.0, 1.0, (0.1,))
        with pytest.raises(ValueError, match="relay count"):
            SweepPlan("primary_snr_db", 0.0, 5.0, 1.0, (0.1,), relay_counts=())


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config(BASE)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert again.network_scenario() == cfg.network_scenario()

    @pytest.mark.parametrize("text", [
        (Path(__file__).parents[1] / "example.cfg").read_text(), TEXT_B],
        ids=["example", "scenario_b"])
    def test_round_trip(self, text):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
