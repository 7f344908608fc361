"""Quadrature validators: boundary behavior, self-consistency, and
agreement with Monte Carlo."""

import math

import numpy as np
import pytest

import cogrelay.montecarlo as mc
from cogrelay.model import FadingLink as L, PowerProfile, mpsk_constants
from cogrelay.analytic import PrimaryOutageInputs, SecondaryCdfInputs
from cogrelay import oracle
from tests.test_montecarlo import scenario_a

PRIM = PrimaryOutageInputs(
    e=L(2, 1.0), f=L(1, 0.8), g=L(2, 1.2), l=L(1, 0.9),
    gamma_bar_p=10.0, gamma_bar_s1=4.0, gamma_bar_s2=6.0,
    gamma_bar_r=5.0, threshold=1.0)

SEC = SecondaryCdfInputs(
    x=L(2, 1.1), w=L(1, 0.9), y=L(2, 0.8), z=L(1, 0.3), v=L(2, 0.25),
    gamma_bar_p=8.0, gamma_bar_s=6.0, gamma_bar_r=9.0)


class TestQuadratureSpec:
    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            oracle.QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            oracle.QuadratureSpec(relative_tolerance=0.1)


class TestBoundaries:
    def test_cdf_limits(self):
        assert oracle.cdf_oracle_scenario_a(SEC, 0.0) == 0.0
        assert oracle.cdf_oracle_scenario_a(SEC, 1e5) == pytest.approx(1.0, abs=1e-8)

    def test_primary_zero_threshold(self):
        inp = PrimaryOutageInputs(
            e=PRIM.e, f=PRIM.f, g=PRIM.g, l=PRIM.l,
            gamma_bar_p=PRIM.gamma_bar_p, gamma_bar_s1=PRIM.gamma_bar_s1,
            gamma_bar_s2=PRIM.gamma_bar_s2, gamma_bar_r=PRIM.gamma_bar_r,
            threshold=0.0)
        assert oracle.primary_outage_oracle(inp) == pytest.approx(0.0, abs=1e-12)


class TestSelfConsistency:
    def test_halving_tolerance_is_stable(self):
        loose = oracle.cdf_oracle_scenario_a(SEC, 1.3, oracle.QuadratureSpec(1e-8))
        tight = oracle.cdf_oracle_scenario_a(SEC, 1.3, oracle.QuadratureSpec(5e-9))
        assert abs(loose - tight) < 1e-8

    def test_primary_self_consistency(self):
        loose = oracle.primary_outage_oracle(PRIM, oracle.QuadratureSpec(1e-8))
        tight = oracle.primary_outage_oracle(PRIM, oracle.QuadratureSpec(5e-9))
        assert abs(loose - tight) < 1e-8


class TestSelection:
    def test_identical_relays_power_law(self):
        inp = SecondaryCdfInputs(
            x=L(2, 0.9), w=L(2, 1.1), y=L(1, 1.0), z=None, v=None,
            gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
        one = oracle.selection_oracle([inp], 1, 1.5)
        three = oracle.selection_oracle([inp] * 3, 3, 1.5)
        assert three == pytest.approx(one ** 3, rel=1e-8)

    def test_relay_count_cap(self):
        inp = SecondaryCdfInputs(
            x=L(1, 1.0), w=L(1, 1.0), y=L(1, 1.0), z=L(1, 1.0), v=L(1, 1.0),
            gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
        with pytest.raises(ValueError):
            oracle.selection_oracle([inp] * 5, 5, 1.5)
        with pytest.raises(ValueError):
            oracle.selection_oracle([inp], 2, 1.5)


class TestAsepOracle:
    def test_kernel_limits(self):
        mod = mpsk_constants(4)
        # relay power so small the cdf is ~1 everywhere: the kernel
        # integral evaluates to a/2
        dead = SecondaryCdfInputs(
            x=SEC.x, w=SEC.w, y=SEC.y, z=SEC.z, v=SEC.v,
            gamma_bar_p=8.0, gamma_bar_s=6.0, gamma_bar_r=1e-9)
        assert oracle.asep_oracle(dead, mod) == pytest.approx(mod.a / 2.0,
                                                              abs=1e-4)

    def test_inner_cdf_choice_agrees(self):
        mod = mpsk_constants(4)
        closed = oracle.asep_oracle(SEC, mod)
        via_oracle_cdf = oracle.asep_oracle(SEC, mod, use_oracle_cdf=True)
        assert closed == pytest.approx(via_oracle_cdf, rel=1e-6)


class TestAgainstMonteCarlo:
    def test_primary_oracle_vs_mc(self):
        est = mc.estimate_primary_outage(PRIM, trials=400_000, seed=31)
        ref = oracle.primary_outage_oracle(PRIM)
        assert abs(est.value - ref) <= 4.0 * est.ci_half_width

    def test_direction_cdf_oracle_vs_mc(self):
        sc = scenario_a()
        powers = PowerProfile(10.0, 8.0, 12.0, 50.0, 50.0)
        inp = SecondaryCdfInputs(
            x=sc.s2_relay[0], w=sc.s1_relay[0], y=sc.pt_relay[0],
            z=sc.pt_s1, v=sc.pt_s2, gamma_bar_p=10.0, gamma_bar_s=8.0,
            gamma_bar_r=12.0)
        n = 400_000
        p = np.count_nonzero(mc.bounded_sinr_s1(mc.draw_gains(sc, 32, n), powers) < 2.0) / n
        ref = oracle.cdf_oracle_scenario_a(inp, 2.0)
        assert abs(p - ref) <= 4.0 * 1.96 * math.sqrt(p * (1.0 - p) / n)
