"""Data model validation and dB plumbing."""

import math

import pytest

from cogrelay.model import (FadingLink, ModulationSpec, NetworkScenario,
                            PowerProfile, Scenario, db_to_linear,
                            linear_to_db, mpsk_constants, primary_threshold)


def _scenario_a(**overrides):
    base = dict(
        scenario=Scenario.A, K=1,
        pt_px=FadingLink(2, 1.0), s1_px=FadingLink(1, 0.8),
        s2_px=FadingLink(1, 1.2),
        relay_px=(FadingLink(2, 1.0),), pt_relay=(FadingLink(2, 0.9),),
        s1_relay=(FadingLink(2, 1.1),), s2_relay=(FadingLink(3, 0.7),),
        pt_s1=FadingLink(1, 0.05), pt_s2=FadingLink(2, 0.04),
        primary_rate=1.0, secondary_threshold=2.0,
    )
    base.update(overrides)
    return NetworkScenario(**base)


class TestFadingLink:
    def test_rate(self):
        assert FadingLink(3, 1.5).rate == pytest.approx(2.0)

    @pytest.mark.parametrize("m,gain", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -0.5)])
    def test_rejects_bad_values(self, m, gain):
        with pytest.raises(ValueError):
            FadingLink(m, gain)

    def test_rejects_float_shape(self):
        with pytest.raises(ValueError):
            FadingLink(1.5, 1.0)


class TestPowerProfile:
    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            PowerProfile(1.0, 5.0, 1.0, 4.0, 10.0)
        with pytest.raises(ValueError):
            PowerProfile(1.0, 1.0, 11.0, 10.0, 10.0)

    def test_valid(self):
        p = PowerProfile(1.0, 2.0, 3.0, 10.0, 10.0)
        assert p.gamma_bar_r == 3.0


class TestNetworkScenario:
    def test_scenario_a_needs_direct_links(self):
        with pytest.raises(ValueError):
            _scenario_a(pt_s1=None)

    def test_scenario_a_single_relay(self):
        with pytest.raises(ValueError):
            _scenario_a(K=2)

    def test_link_list_lengths(self):
        with pytest.raises(ValueError):
            _scenario_a(relay_px=(FadingLink(1, 1.0), FadingLink(1, 1.0)))

    def test_scenario_b_omits_direct_links(self):
        sc = _scenario_a()
        b = NetworkScenario(
            scenario=Scenario.B, K=1, pt_px=sc.pt_px, s1_px=sc.s1_px,
            s2_px=sc.s2_px, relay_px=sc.relay_px, pt_relay=sc.pt_relay,
            s1_relay=sc.s1_relay, s2_relay=sc.s2_relay, pt_s1=None, pt_s2=None,
            primary_rate=1.0, secondary_threshold=2.0)
        assert b.pt_s1 is None


class TestThresholds:
    def test_primary_threshold(self):
        assert primary_threshold(_scenario_a(primary_rate=1.0)) == pytest.approx(1.0)
        assert primary_threshold(_scenario_a(primary_rate=2.0)) == pytest.approx(3.0)
        assert primary_threshold(_scenario_a(primary_rate=0.5)) == pytest.approx(
            math.sqrt(2.0) - 1.0)


class TestModulation:
    def test_bpsk(self):
        mod = mpsk_constants(2)
        assert (mod.a, mod.b) == (1.0, 1.0)

    def test_qpsk(self):
        mod = mpsk_constants(4)
        assert mod.a == 2.0
        assert mod.b == pytest.approx(0.5)

    def test_8psk(self):
        mod = mpsk_constants(8)
        assert mod.b == pytest.approx(math.sin(math.pi / 8) ** 2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            mpsk_constants(3)
        with pytest.raises(ValueError):
            ModulationSpec(6, 2.0, 0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: PowerProfile(1.0, 0.0, 3.0, 10.0, 10.0), "gamma_bar_s must be positive"),
    (lambda: PowerProfile(-1.0, 2.0, 3.0, 10.0, 10.0), "gamma_bar_p must be positive"),
    (lambda: _scenario_a(K=0), "relay count K must be >= 1, got 0"),
    (lambda: _scenario_a(secondary_threshold=0.0), "secondary_threshold must be positive"),
    (lambda: ModulationSpec(4, 0.0, 0.5), "SEP constants a, b must be positive"),
], ids=["power_zero_snr", "power_negative_snr", "scenario_no_relay",
        "scenario_zero_threshold", "modulation_zero_a"])
def test_invalid_values_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestDb:
    def test_round_trip(self):
        for x in (0.1, 1.0, 31.6227766):
            assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)

    def test_three_db(self):
        assert db_to_linear(3.0) == pytest.approx(10.0 ** 0.3)
