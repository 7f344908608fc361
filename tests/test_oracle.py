"""Quadrature validators: boundary behavior, agreement with adaptive
quadrature of their definitions, and agreement with Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc, gammaincc

import cogrelay.montecarlo as mc
from cogrelay.model import FadingLink as L, PowerProfile, mpsk_constants
from cogrelay.analytic import (PrimaryOutageInputs, SecondaryCdfInputs, cdf_scenario_a,
                               cdf_scenario_b)
from cogrelay import oracle
from tests.test_montecarlo import scenario_a

PRIM = PrimaryOutageInputs(
    e=L(2, 1.0), f=L(1, 0.8), g=L(2, 1.2), l=L(1, 0.9),
    gamma_bar_p=10.0, gamma_bar_s1=4.0, gamma_bar_s2=6.0,
    gamma_bar_r=5.0, threshold=1.0)

SEC = SecondaryCdfInputs(
    x=L(2, 1.1), w=L(1, 0.9), y=L(2, 0.8), z=L(1, 0.3), v=L(2, 0.25),
    gamma_bar_p=8.0, gamma_bar_s=6.0, gamma_bar_r=9.0)


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

    def test_negative_theta_is_rejected(self):
        # as in the closed forms: a negative theta would tilt the rules by a
        # negative rate and a NaN or infinite one would return nan or 0.0,
        # each a wrong number without an error
        for call in (lambda t: oracle.cdf_oracle_scenario_a(SEC, t),
                     lambda t: oracle.cdf_oracle_scenario_a(SEC, np.array([1.0, t])),
                     lambda t: oracle.survival_side_oracle(SEC, t),
                     lambda t: oracle.cdf_oracle_scenario_a_e2e(SEC, t),
                     lambda t: oracle.selection_oracle([SEC], t)):
            for theta in (-0.5, math.nan, math.inf):
                with pytest.raises(ValueError, match="theta must be nonnegative"):
                    call(theta)

    def test_theta_arrays_are_elementwise(self):
        # every secondary oracle takes theta as the closed forms do: an
        # array of any shape gives the float calls' values bit for bit,
        # 0 at theta = 0 for the cdfs, and a float theta gives a float
        relays = [SEC, SecondaryCdfInputs(
            x=L(3, 0.7), w=L(2, 1.2), y=L(1, 1.5), z=None, v=None,
            gamma_bar_p=10.0, gamma_bar_s=5.0, gamma_bar_r=7.0)]
        calls = {"cdf": lambda t: oracle.cdf_oracle_scenario_a(SEC, t),
                 "side": lambda t: oracle.survival_side_oracle(SEC, t),
                 "e2e": lambda t: oracle.cdf_oracle_scenario_a_e2e(SEC, t),
                 "selection": lambda t: oracle.selection_oracle(relays * 2, t)}
        theta = np.array([[0.0, 1e-3, 1.3], [2.0, 0.0, 9.0]])
        for name, call in calls.items():
            values = call(theta)
            assert values.shape == theta.shape, name
            for idx in np.ndindex(theta.shape):
                value = call(float(theta[idx]))
                assert type(value) is float and values[idx] == value, (name, idx)
            assert call(0.0) == (1.0 if name == "side" else 0.0), name

    def test_theta_arrays_take_the_memory_of_one_theta(self):
        # the side survival holds a 48^3 tail tensor per theta; taken all at
        # once, eight theta values peaked at 35.8 MB traced against 4.5 MB
        # for one, so the elements of a theta array go through one at a time
        theta = np.linspace(0.5, 4.0, 8)
        oracle.cdf_oracle_scenario_a_e2e(SEC, 1.3)
        peaks = []
        for arg in (1.3, theta):
            tracemalloc.start()
            try:
                values = oracle.cdf_oracle_scenario_a_e2e(SEC, arg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks
        assert values.tolist() == [oracle.cdf_oracle_scenario_a_e2e(SEC, t) for t in theta.tolist()]


# Adaptive references: the oracles' definitions by scipy's quad, nested
# over the gains, kept here so that the fixed rules answer to them.

def _quad(f, lo=0.0, hi=math.inf):
    return integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=200)[0]


def _pdf(link, t, scale=1.0):
    """Density at t of scale * |h|^2 for a link's Gamma gain |h|^2."""
    rate = link.rate / scale
    return math.exp(link.m * math.log(rate) + (link.m - 1) * math.log(t) - rate * t
                    - math.lgamma(link.m))


def _sf(link, t):
    return gammaincc(link.m, link.rate * t)


def _primary_ref(p):
    k = p.threshold / p.gamma_bar_p
    return _quad(lambda f: _pdf(p.f, f) * _quad(
        lambda g: _pdf(p.g, g) * (1.0 - _sf(p.e, k * (p.gamma_bar_s1 * f + p.gamma_bar_s2 * g + 1.0)))))


def _relay_ref(p):
    k = p.threshold / p.gamma_bar_p
    return _quad(lambda l: _pdf(p.l, l) * (1.0 - _sf(p.e, k * (p.gamma_bar_r * l + 1.0))))


def _scales(s):
    """beta and the scales of the normalized interference Y, Z and V."""
    gp, gs, gr = s.gamma_bar_p, s.gamma_bar_s, s.gamma_bar_r
    return gr / gs, gr * gp / gs, gp, gp


def _cdf_ref(s, theta):
    beta, sy, sz, _ = _scales(s)
    k = theta / s.gamma_bar_r
    chi1 = _quad(lambda z: _pdf(s.z, z, sz) * _quad(
        lambda y: _pdf(s.y, y, sy) * _sf(s.x, k * (z + y + beta + 1.0))))
    chi2 = _quad(lambda z: _pdf(s.z, z, sz) * _sf(s.w, k * (z + 1.0)))
    return 1.0 - chi1 * chi2


def _side_ref(s, theta):
    # Pr{X > (M + 1) theta/gr} with M = max(L, V), L = Y + Z + beta, as the
    # integral of the X density at (t + 1) theta/gr against Pr{L <= t} Pr{V <= t}
    beta, sy, sz, sv = _scales(s)
    k = theta / s.gamma_bar_r

    def l_cdf(t):
        return _quad(lambda y: _pdf(s.y, y, sy) * gammainc(s.z.m, s.z.rate / sz * (t - beta - y)),
                     0.0, t - beta)

    return _quad(lambda t: k * _pdf(s.x, k * (t + 1.0)) * gammainc(s.v.m, s.v.rate / sv * t)
                 * l_cdf(t), beta)


def _selection_ref(inputs, theta):
    prod = 1.0
    for s in inputs:
        beta, sy, _, _ = _scales(s)
        k = theta / s.gamma_bar_r
        prod *= 1.0 - _quad(lambda y: _pdf(s.y, y, sy) * _sf(s.x, k * (y + beta + 1.0))
                            * _sf(s.w, k * (y + beta + 1.0)))
    return prod


def _asep_ref(s, mod):
    return mod.a * math.sqrt(mod.b / math.pi) * _quad(
        lambda u: math.exp(-mod.b * u * u) * cdf_scenario_a(s, u * u))


def test_fixed_rules_match_adaptive_quadrature():
    # each oracle against its definition by nested adaptive quadrature, at
    # shapes up to m = 6 and on the shared test inputs
    prim = PrimaryOutageInputs(
        e=L(4, 1.0), f=L(5, 0.8), g=L(4, 1.2), l=L(6, 0.9),
        gamma_bar_p=10.0, gamma_bar_s1=4.0, gamma_bar_s2=6.0,
        gamma_bar_r=5.0, threshold=1.0)
    high = SecondaryCdfInputs(
        x=L(6, 0.7), w=L(5, 1.1), y=L(4, 0.9), z=L(3, 0.05), v=L(4, 0.04),
        gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
    mod = mpsk_constants(4)
    pairs = {}
    for name, p in (("PRIM", PRIM), ("high", prim)):
        pairs[f"primary {name}"] = oracle.primary_outage_oracle(p), _primary_ref(p)
        pairs[f"relay {name}"] = oracle.relay_phase_outage_oracle(p), _relay_ref(p)
    for name, s in (("SEC", SEC), ("high", high)):
        pairs[f"cdf {name}"] = oracle.cdf_oracle_scenario_a(s, 1.3), _cdf_ref(s, 1.3)
        sides = [_side_ref(s, 1.3), _side_ref(s.swapped(), 1.3)]
        pairs[f"side {name}"] = oracle.survival_side_oracle(s, 1.3), sides[0]
        pairs[f"e2e {name}"] = (oracle.cdf_oracle_scenario_a_e2e(s, 1.3),
                                1.0 - sides[0] * sides[1])
        pairs[f"selection {name}"] = (oracle.selection_oracle([s, SEC], 1.3),
                                      _selection_ref([s, SEC], 1.3))
        pairs[f"asep {name}"] = oracle.asep_oracle(s, mod), _asep_ref(s, mod)
    worst = {name: abs(value - ref) / ref for name, (value, ref) in pairs.items()}
    assert max(worst.values()) <= 1e-12, worst


class TestSelfConsistency:
    # a rule of half the nodes must already give the default rule's value

    def test_halving_tolerance_is_stable(self, monkeypatch):
        tight = oracle.cdf_oracle_scenario_a(SEC, 1.3)
        monkeypatch.setattr(oracle, "_NODES", oracle._NODES // 2)
        loose = oracle.cdf_oracle_scenario_a(SEC, 1.3)
        assert abs(loose - tight) < 1e-8

    def test_primary_self_consistency(self, monkeypatch):
        tight = oracle.primary_outage_oracle(PRIM)
        monkeypatch.setattr(oracle, "_NODES", oracle._NODES // 2)
        loose = oracle.primary_outage_oracle(PRIM)
        assert abs(loose - tight) < 1e-8


class TestSelection:
    def test_identical_relays_power_law(self):
        inp = SecondaryCdfInputs(
            x=L(2, 0.9), w=L(2, 1.1), y=L(1, 1.0), z=None, v=None,
            gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
        one = oracle.selection_oracle([inp], 1.5)
        three = oracle.selection_oracle([inp] * 3, 1.5)
        assert three == pytest.approx(one ** 3, rel=1e-8)

    def test_relay_count_cap(self):
        inp = SecondaryCdfInputs(
            x=L(1, 1.0), w=L(1, 1.0), y=L(1, 1.0), z=L(1, 1.0), v=L(1, 1.0),
            gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
        # any relay count from 1 up: six relays meet the closed form
        assert oracle.selection_oracle([inp] * 6, 1.5) == \
            pytest.approx(cdf_scenario_b([inp] * 6, 1.5), rel=1e-12, abs=0.0)
        with pytest.raises(ValueError):
            oracle.selection_oracle([], 1.5)


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
