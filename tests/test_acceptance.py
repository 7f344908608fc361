"""Acceptance gate: every release-blocking property in one place.

Each test prints a single PASS/FAIL line for its criterion before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` doubles as
the acceptance report.  Monte Carlo comparisons use fixed seeds; the
statistical tolerances (3 or 4 sigma) refer to the binomial or sample
standard error of the estimate under comparison.
"""

import io
import math
import time

import numpy as np
import pytest

import cogrelay.montecarlo as mc
from cogrelay import analytic, cli, oracle, specfun
from cogrelay.config import parse_config
from cogrelay.model import (FadingLink as L, NetworkScenario, PowerProfile,
                            Scenario, db_to_linear, mpsk_constants)
from cogrelay.analytic import (PrimaryOutageInputs, SecondaryCdfInputs,
                               asep_scenario_a, cdf_scenario_a,
                               cdf_scenario_b, primary_outage,
                               relay_phase_outage, solve_relay_power,
                               solve_secondary_source_power)
from tests.test_config import BASE


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc} ({detail})"
    print(line)
    assert ok, line


def _random_link(rng, lo=0.5, hi=2.0) -> L:
    return L(int(rng.integers(1, 4)), float(rng.uniform(lo, hi)))


def _weak_interference_inputs(rng) -> SecondaryCdfInputs:
    """Config family with the primary transmitter far from the secondary
    sources (mean interference-to-noise at the sources <= 0.1), where the
    factored cdf coincides with the bounded-SINR law to well below Monte
    Carlo resolution."""
    gp = float(rng.uniform(2.0, 20.0))
    zg = 0.05 / gp
    return SecondaryCdfInputs(
        x=_random_link(rng), w=_random_link(rng), y=_random_link(rng),
        z=L(int(rng.integers(1, 4)), zg), v=L(int(rng.integers(1, 4)), zg),
        gamma_bar_p=gp,
        gamma_bar_s=float(rng.uniform(5.0, 30.0)),
        gamma_bar_r=float(rng.uniform(5.0, 30.0)))


def _scenario_for(inp: SecondaryCdfInputs) -> NetworkScenario:
    return NetworkScenario(
        scenario=Scenario.A, K=1,
        pt_px=L(1, 1.0), s1_px=L(1, 1.0), s2_px=L(1, 1.0),
        relay_px=(L(1, 1.0),), pt_relay=(inp.y,),
        s1_relay=(inp.w,), s2_relay=(inp.x,), pt_s1=inp.z, pt_s2=inp.v,
        primary_rate=1.0, secondary_threshold=1.0)


def _powers_for(inp: SecondaryCdfInputs) -> PowerProfile:
    return PowerProfile(inp.gamma_bar_p, inp.gamma_bar_s, inp.gamma_bar_r,
                        1e9, 1e9)


def test_criterion_1_source_phase_outage():
    """Source-phase primary outage: quadrature equivalence and 1e7-trial
    Monte Carlo agreement on randomized configurations."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_rel, worst_dev = 0.0, 0.0
    for i in range(20):
        inp = PrimaryOutageInputs(
            e=_random_link(rng), f=_random_link(rng), g=_random_link(rng),
            l=_random_link(rng),
            gamma_bar_p=float(rng.uniform(3.0, 20.0)),
            gamma_bar_s1=float(rng.uniform(0.5, 5.0)),
            gamma_bar_s2=float(rng.uniform(0.5, 5.0)),
            gamma_bar_r=float(rng.uniform(0.5, 5.0)),
            threshold=float(rng.uniform(0.3, 2.0)))
        closed = primary_outage(inp)
        ref = oracle.primary_outage_oracle(inp)
        worst_rel = max(worst_rel, abs(closed - ref) / ref)
        est = mc.estimate_primary_outage(inp, trials=10_000_000, seed=1000 + i)
        sigma = est.ci_half_width / 1.96
        worst_dev = max(worst_dev, abs(est.value - closed) / sigma)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-6 and worst_dev <= 4.0 and elapsed < 300.0
    _report(1, "source-phase primary outage vs quadrature and Monte Carlo", ok,
            f"max rel err {worst_rel:.2e}, max deviation {worst_dev:.2f} sigma, "
            f"{elapsed:.0f}s")


def test_criterion_2_direction_cdf():
    """Single-direction SINR cdf: quadrature equivalence on a 10x10 grid
    and bounded-SINR Monte Carlo agreement at every point."""
    rng = np.random.default_rng(202)
    thetas = np.geomspace(0.05, 8.0, 10)
    trials = 1_000_000
    chunk = 1 << 19
    worst_rel, worst_dev = 0.0, 0.0
    for i in range(10):
        inp = _weak_interference_inputs(rng)
        closed = np.array([cdf_scenario_a(inp, float(t)) for t in thetas])
        for cf, t in zip(closed, thetas):
            ref = oracle.cdf_oracle_scenario_a(inp, float(t))
            worst_rel = max(worst_rel, abs(cf - ref) / max(ref, 1e-12))
        sc, powers = _scenario_for(inp), _powers_for(inp)
        hits = np.zeros(len(thetas), dtype=np.int64)
        for start in range(0, trials, chunk):
            n = min(chunk, trials - start)
            draw = mc.draw_gains(sc, seed=2000 + i, trials=n, start=start)
            sinr = mc.bounded_sinr_s1(draw, powers)
            hits += (sinr[None, :] < thetas[:, None]).sum(axis=1)
        p = hits / trials
        sigma = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / trials)
        worst_dev = max(worst_dev, float(np.max(np.abs(p - closed) / sigma)))
    ok = worst_rel <= 1e-6 and worst_dev <= 3.0
    _report(2, "direction cdf vs quadrature (1e-6) and bounded-SINR Monte Carlo",
            ok, f"max rel err {worst_rel:.2e}, max deviation {worst_dev:.2f} sigma")


def test_criterion_3_lower_bound_tightness():
    """Exact-SINR outage sits above the closed-form lower bound on a
    0-30 dB sweep and the gap closes monotonically over the top half."""
    K = 2
    sc = NetworkScenario(
        scenario=Scenario.B, K=K,
        pt_px=L(2, 1.0), s1_px=L(1, 0.8), s2_px=L(1, 1.2),
        relay_px=(L(2, 1.0), L(1, 0.9)), pt_relay=(L(2, 0.9), L(1, 1.1)),
        s1_relay=(L(2, 1.1), L(2, 0.8)), s2_relay=(L(2, 0.9), L(3, 1.0)),
        pt_s1=None, pt_s2=None, primary_rate=1.0,
        secondary_threshold=db_to_linear(3.0))
    theta, gp = sc.secondary_threshold, 10.0
    gaps, bound_ok = [], True
    for x_db in range(0, 33, 3):
        g = db_to_linear(x_db)
        powers = PowerProfile(gp, g, g, 1e9, 1e9)
        inputs = [SecondaryCdfInputs(
            x=sc.s2_relay[k], w=sc.s1_relay[k], y=sc.pt_relay[k],
            z=L(1, 1.0), v=L(1, 1.0), gamma_bar_p=gp, gamma_bar_s=g,
            gamma_bar_r=g) for k in range(K)]
        closed = cdf_scenario_b(inputs, K, theta)
        est = mc.estimate_outage(sc, powers, theta, trials=1_000_000, seed=303,
                                 sinr_kind="exact")
        sigma = est.ci_half_width / 1.96
        bound_ok &= est.value >= closed - 3.0 * sigma
        gaps.append(est.value - closed)
    top = gaps[len(gaps) // 2:]
    trend_ok = all(a >= b for a, b in zip(top, top[1:])) and len(top) >= 5
    ok = bound_ok and trend_ok
    _report(3, "exact-SINR outage dominates the closed form; gap shrinks with SNR",
            ok, f"lower bound held: {bound_ok}, top-half gaps {top[0]:.1e}"
                f"->{top[-1]:.1e} nonincreasing: {trend_ok}")


def test_criterion_4_best_relay_selection():
    """Best-relay outage: quadrature equivalence for K in 1..3, Monte
    Carlo agreement, single-relay collapse, and monotonicity in K."""
    rng = np.random.default_rng(404)
    worst_rel, worst_dev = 0.0, 0.0
    gp, gs, gr = 10.0, 8.0, 12.0
    theta = db_to_linear(3.0)
    all_inputs = [SecondaryCdfInputs(
        x=_random_link(rng), w=_random_link(rng), y=_random_link(rng),
        z=L(1, 1.0), v=L(1, 1.0), gamma_bar_p=gp, gamma_bar_s=gs,
        gamma_bar_r=gr) for _ in range(3)]
    for K in (1, 2, 3):
        inputs = all_inputs[:K]
        closed = cdf_scenario_b(inputs, K, theta)
        ref = oracle.selection_oracle(inputs, K, theta)
        worst_rel = max(worst_rel, abs(closed - ref) / ref)
        sc = NetworkScenario(
            scenario=Scenario.B, K=K,
            pt_px=L(1, 1.0), s1_px=L(1, 1.0), s2_px=L(1, 1.0),
            relay_px=tuple(L(1, 1.0) for _ in range(K)),
            pt_relay=tuple(i.y for i in inputs),
            s1_relay=tuple(i.w for i in inputs),
            s2_relay=tuple(i.x for i in inputs),
            pt_s1=None, pt_s2=None, primary_rate=1.0,
            secondary_threshold=theta)
        powers = PowerProfile(gp, gs, gr, 1e9, 1e9)
        est = mc.estimate_outage(sc, powers, theta, trials=1_000_000,
                                 seed=4000 + K, sinr_kind="bounded")
        sigma = max(est.ci_half_width / 1.96, 1e-12)
        worst_dev = max(worst_dev, abs(est.value - closed) / sigma)
    collapse = abs(
        cdf_scenario_b(all_inputs[:1], 1, theta)
        - oracle.selection_oracle(all_inputs[:1], 1, theta,
                                  oracle.QuadratureSpec(1e-12)))
    mono_ok = all(
        cdf_scenario_b(all_inputs[:1], 1, t)
        >= cdf_scenario_b(all_inputs[:2], 2, t)
        >= cdf_scenario_b(all_inputs[:3], 3, t)
        for t in np.linspace(0.1, 6.0, 25))
    ok = (worst_rel <= 1e-5 and worst_dev <= 3.0 and collapse <= 1e-10
          and mono_ok)
    _report(4, "best-relay outage vs quadrature, Monte Carlo, K=1 collapse, "
               "monotone in K", ok,
            f"max rel err {worst_rel:.2e}, max deviation {worst_dev:.2f} sigma, "
            f"collapse diff {collapse:.1e}, monotone {mono_ok}")


def test_criterion_5_symbol_error_probability():
    """Closed-form 4PSK symbol error probability: kernel-quadrature
    equivalence, conditional-SEP Monte Carlo agreement, and the
    clustered-pole fallback path."""
    rng = np.random.default_rng(505)
    mod = mpsk_constants(4)
    worst_rel, worst_dev = 0.0, 0.0
    done = 0
    while done < 10:
        inp = _weak_interference_inputs(rng)
        res = asep_scenario_a(inp, mod)
        if res.used_fallback:
            continue
        done += 1
        ref = oracle.asep_oracle(inp, mod)
        worst_rel = max(worst_rel, abs(res.value - ref) / ref)
        est = mc.estimate_asep(_scenario_for(inp), _powers_for(inp), mod,
                               trials=1_000_000, seed=5000 + done,
                               sinr_kind="bounded")
        sigma = est.ci_half_width / 1.96
        worst_dev = max(worst_dev, abs(est.value - res.value) / sigma)
    degen = SecondaryCdfInputs(
        x=L(2, 1.0), w=L(2, 1.0), y=L(2, 0.8), z=L(1, 0.05), v=L(1, 0.05),
        gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
    res = asep_scenario_a(degen, mod)
    degen_rel = abs(res.value - oracle.asep_oracle(degen, mod)) / res.value
    fallback_ok = res.used_fallback and degen_rel <= 1e-5
    ok = worst_rel <= 1e-5 and worst_dev <= 3.0 and fallback_ok
    _report(5, "symbol error probability vs quadrature, Monte Carlo and "
               "fallback path", ok,
            f"max rel err {worst_rel:.2e}, max deviation {worst_dev:.2f} sigma, "
            f"fallback flagged with rel err {degen_rel:.2e}")


def test_criterion_6_power_solver_fixed_point():
    """Inverted power constraints reproduce their outage targets, or
    return the cap with nonnegative slack."""
    rng = np.random.default_rng(606)
    worst = 0.0
    caps_hit = 0
    for i in range(20):
        inp = PrimaryOutageInputs(
            e=_random_link(rng), f=_random_link(rng), g=_random_link(rng),
            l=_random_link(rng),
            gamma_bar_p=float(rng.uniform(3.0, 20.0)),
            gamma_bar_s1=1.0, gamma_bar_s2=1.0,
            gamma_bar_r=float(rng.uniform(0.5, 5.0)),
            threshold=float(rng.uniform(0.3, 2.0)))
        floor_ma = primary_outage(PrimaryOutageInputs(
            e=inp.e, f=inp.f, g=inp.g, l=inp.l, gamma_bar_p=inp.gamma_bar_p,
            gamma_bar_s1=0.0, gamma_bar_s2=0.0, gamma_bar_r=inp.gamma_bar_r,
            threshold=inp.threshold))
        target = floor_ma + float(rng.uniform(0.05, 0.9)) * (1.0 - floor_ma)
        cap = float(rng.uniform(1.0, 50.0))
        gs = solve_secondary_source_power(inp, target, cap)
        achieved = primary_outage(PrimaryOutageInputs(
            e=inp.e, f=inp.f, g=inp.g, l=inp.l, gamma_bar_p=inp.gamma_bar_p,
            gamma_bar_s1=gs, gamma_bar_s2=gs, gamma_bar_r=inp.gamma_bar_r,
            threshold=inp.threshold))
        if gs == cap:
            caps_hit += 1
            assert achieved <= target
        else:
            worst = max(worst, abs(achieved - target))
        gr = solve_relay_power(inp, target, cap)
        achieved_bc = relay_phase_outage(PrimaryOutageInputs(
            e=inp.e, f=inp.f, g=inp.g, l=inp.l, gamma_bar_p=inp.gamma_bar_p,
            gamma_bar_s1=inp.gamma_bar_s1, gamma_bar_s2=inp.gamma_bar_s2,
            gamma_bar_r=gr, threshold=inp.threshold))
        if gr == cap:
            assert achieved_bc <= target
        else:
            worst = max(worst, abs(achieved_bc - target))
    ok = worst <= 1e-9
    _report(6, "power constraint inversion fixed point", ok,
            f"max |achieved - target| {worst:.2e}, cap bound {caps_hit}/20 times")


def test_criterion_7_special_function_floor():
    """Accuracy floors of the special functions: partial fractions, the
    engine's integer-shape incomplete gamma and the confluent function."""
    rng = np.random.default_rng(707)
    worst_pf = 0.0
    done = 0
    while done < 10:
        n = rng.integers(1, 4)
        locs = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n))
        mults = rng.integers(1, 4, n)
        poles = specfun.PoleSet(tuple(zip(locs, mults)))
        if poles.min_relative_separation() <= 0.3:
            continue
        done += 1
        coeffs = specfun.partial_fractions(poles)
        for t in rng.uniform(0.0, 1.0, 50):
            direct = 1.0
            for loc, m in poles.poles:
                direct *= (t + loc) ** -m
            recon = sum(c / (t + poles.poles[i][0]) ** j for i, j, c in coeffs)
            worst_pf = max(worst_pf, abs(recon - direct) / direct)

    from scipy.integrate import quad
    worst_gamma = 0.0
    for n in range(1, 7):
        for x in (0.01, 0.5, 2.0, 8.0, 25.0):
            ref = quad(lambda t: t ** (n - 1) * math.exp(-t), x, math.inf,
                       epsabs=1e-300, epsrel=1e-13)[0]
            # Gamma(n, x) = (n-1)! Q(n, x), the engine's factor at L = 1
            series = math.gamma(n) * analytic._expected_survival([(n, x)], 1.0, [])
            worst_gamma = max(worst_gamma, abs(series - ref) / ref)

    mp = pytest.importorskip("mpmath")
    worst_psi = 0.0
    for a, b, z in [(0.5, 0.5, 0.4), (1.5, 1.0, 2.0), (2.5, 0.5, 0.1),
                    (3.5, 2.0, 5.0), (5.5, -1.0, 1.3), (0.5, 3.0, 8.0)]:
        ref = float(mp.hyperu(a, b, z))
        worst_psi = max(worst_psi, abs(specfun.tricomi_u(a, b, z) - ref) / ref)

    ok = worst_pf <= 1e-9 and worst_gamma <= 1e-12 and worst_psi <= 1e-8
    _report(7, "partial fractions 1e-9, incomplete gamma 1e-12, "
               "confluent function 1e-8", ok,
            f"pf {worst_pf:.1e}, gamma {worst_gamma:.1e}, psi {worst_psi:.1e}")


def test_criterion_8_protocol_defaults():
    """Default protocol: 1e5 trials, 3 dB secondary threshold, and an
    outage of exactly one when no secondary transmission is allowed."""
    cfg = parse_config(BASE)
    plan_defaults_ok = (mc.DEFAULT_TRIALS == 100_000
                        and parse_config(BASE.replace("trials = 20000\nseed = 7\n", ""))
                        .sweeps["sweep"].trials == 100_000)
    theta_ok = (cfg.threshold_db == 3.0
                and cfg.network_scenario().secondary_threshold
                == pytest.approx(10.0 ** 0.3, rel=1e-15))
    rows = cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
    zero_rows = [r for r in rows if r.threshold == 0.0]
    zero_ok = bool(zero_rows) and all(r.analytic_oc == 1.0 for r in zero_rows)
    csv_ok = all(r.as_csv().split(",")[6] == "1" for r in zero_rows)
    ok = plan_defaults_ok and theta_ok and zero_ok and csv_ok
    _report(8, "default 1e5 trials, 3 dB threshold, zero-threshold outage of 1",
            ok, f"defaults {plan_defaults_ok}, threshold {theta_ok}, "
                f"zero rows exact {zero_ok and csv_ok}")


def test_criterion_9_deterministic_csv():
    """Identical seed and config produce byte-identical sweep output."""
    cfg = parse_config(BASE.replace("trials = 20000", "trials = 5000"))
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        cli.write_csv(cli.run_sweep(cfg.sweeps["sweep"], cfg), buf)
        outputs.append(buf.getvalue().encode())
    ok = outputs[0] == outputs[1]
    _report(9, "byte-identical CSV for identical seed", ok,
            f"{len(outputs[0])} bytes compared")
