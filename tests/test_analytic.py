"""Closed forms against quadrature references, power solver behavior,
and the symbol-error path."""

import collections
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import gamma

from cogrelay.config import load_config, parse_config
from cogrelay.errors import Infeasible, NumericalInstability
from cogrelay.model import FadingLink as L, ModulationSpec, mpsk_constants
from cogrelay.analytic import (PrimaryOutageInputs, SecondaryCdfInputs,
                               asep_kernel_scenario_a, asep_scenario_a,
                               cdf_scenario_a, cdf_scenario_a_e2e, cdf_scenario_b,
                               primary_outage,
                               relay_phase_outage, solve_relay_power,
                               solve_secondary_source_power)
from cogrelay import analytic, cli, oracle
from cogrelay.specfun import PoleSet, de_rule, partial_fractions, tricomi_u

PRIM = PrimaryOutageInputs(
    e=L(2, 1.0), f=L(1, 0.8), g=L(2, 1.2), l=L(1, 0.9),
    gamma_bar_p=10.0, gamma_bar_s1=4.0, gamma_bar_s2=6.0,
    gamma_bar_r=5.0, threshold=1.0)

SEC = SecondaryCdfInputs(
    x=L(2, 1.1), w=L(1, 0.9), y=L(2, 0.8), z=L(1, 0.3), v=L(2, 0.25),
    gamma_bar_p=8.0, gamma_bar_s=6.0, gamma_bar_r=9.0)


def _prim(**overrides) -> PrimaryOutageInputs:
    fields = dict(e=PRIM.e, f=PRIM.f, g=PRIM.g, l=PRIM.l,
                  gamma_bar_p=PRIM.gamma_bar_p, gamma_bar_s1=PRIM.gamma_bar_s1,
                  gamma_bar_s2=PRIM.gamma_bar_s2, gamma_bar_r=PRIM.gamma_bar_r,
                  threshold=PRIM.threshold)
    fields.update(overrides)
    return PrimaryOutageInputs(**fields)


def _sec(**overrides) -> SecondaryCdfInputs:
    fields = dict(x=SEC.x, w=SEC.w, y=SEC.y, z=SEC.z, v=SEC.v,
                  gamma_bar_p=SEC.gamma_bar_p, gamma_bar_s=SEC.gamma_bar_s,
                  gamma_bar_r=SEC.gamma_bar_r)
    fields.update(overrides)
    return SecondaryCdfInputs(**fields)


@pytest.mark.parametrize("build, message", [
    (lambda: _prim(gamma_bar_p=0.0), "gamma_bar_p must be positive"),
    (lambda: _prim(gamma_bar_s2=-1.0), "gamma_bar_s2 must be nonnegative"),
    (lambda: _prim(threshold=-0.5), "threshold must be nonnegative"),
    (lambda: _sec(gamma_bar_s=0.0), "gamma_bar_s must be positive"),
    (lambda: _sec(gamma_bar_r=np.array([1.0, 0.0])), "gamma_bar_r must be positive"),
    (lambda: analytic.solve_power_lattice(PRIM.e, (PRIM.f, PRIM.g), [10.0], 1.0, [1.5],
                                          [100.0], "source power"),
     r"thresholds must be probabilities, got \[1.5\]"),
], ids=["primary_zero_gp", "primary_negative_snr", "primary_negative_threshold",
        "secondary_zero_snr", "secondary_zero_row", "solve_threshold_above_one"])
def test_invalid_inputs_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestPrimaryOutage:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inp = _prim(
                e=L(int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0))),
                f=L(int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0))),
                g=L(int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0))),
                gamma_bar_p=float(rng.uniform(2.0, 20.0)),
                threshold=float(rng.uniform(0.3, 3.0)))
            assert primary_outage(inp) == pytest.approx(
                oracle.primary_outage_oracle(inp), rel=1e-6)

    def test_zero_threshold(self):
        assert primary_outage(_prim(threshold=0.0)) == 0.0

    def test_monotone_in_interference(self):
        vals = [primary_outage(_prim(gamma_bar_s1=s)) for s in (0.0, 1.0, 4.0, 10.0)]
        assert vals == sorted(vals)

    def test_relay_phase_matches_quadrature(self):
        assert relay_phase_outage(PRIM) == pytest.approx(
            oracle.relay_phase_outage_oracle(PRIM), rel=1e-6)

    def test_relay_phase_below_source_phase_at_equal_power(self):
        # one interferer instead of two with comparable links
        inp = _prim(gamma_bar_s1=5.0, gamma_bar_s2=5.0, gamma_bar_r=5.0)
        assert relay_phase_outage(inp) <= primary_outage(inp)


class TestPowerSolver:
    def test_fixed_point(self):
        for thr in (0.2, 0.4, 0.6):
            gs = solve_secondary_source_power(PRIM, thr, cap=500.0)
            out = primary_outage(_prim(gamma_bar_s1=gs, gamma_bar_s2=gs))
            assert out == pytest.approx(thr, abs=1e-9)

    def test_relay_fixed_point(self):
        gr = solve_relay_power(PRIM, 0.3, cap=500.0)
        assert relay_phase_outage(_prim(gamma_bar_r=gr)) == pytest.approx(
            0.3, abs=1e-9)

    def test_cap_binds_with_slack(self):
        cap = 0.5
        gs = solve_secondary_source_power(PRIM, 0.9, cap=cap)
        assert gs == cap
        out = primary_outage(_prim(gamma_bar_s1=cap, gamma_bar_s2=cap))
        assert out <= 0.9

    def test_infeasible(self):
        baseline = primary_outage(_prim(gamma_bar_s1=0.0, gamma_bar_s2=0.0))
        with pytest.raises(Infeasible):
            solve_secondary_source_power(PRIM, baseline / 2.0, cap=10.0)

    def test_discontinuous_constraint_raises(self):
        # a step across the threshold brackets a sign change, but no power
        # reproduces the threshold
        def step(p, at):
            return np.where(p < 3.0, 0.1, 0.9)
        (power,), (error,) = analytic._solve(step, [0.5], [10.0], "probe power")
        assert np.isnan(power)
        with pytest.raises(NumericalInstability, match="continuously"):
            raise error

    @pytest.mark.parametrize("solve, thr", [
        ("solve_secondary_source_power", 0.2),
        ("solve_secondary_source_power", 0.4),
        ("solve_secondary_source_power", 0.6),
        ("solve_relay_power", 0.3),
    ])
    def test_evaluations_per_solve(self, solve, thr, monkeypatch):
        # constraint evaluations in which the point is active, the two at 0
        # and at the cap included: 14-16 here (Brent's method took 11-16,
        # the hand-rolled probe and bisection 52-54)
        evaluations = _count_evaluations(monkeypatch)
        getattr(analytic, solve)(PRIM, thr, cap=500.0)
        assert max(evaluations.values()) <= 21


def _count_evaluations(monkeypatch) -> collections.Counter:
    """Count, per (solve, point), the constraint evaluations of every
    ``analytic._solve`` in which the point is active."""
    evaluations, solves = collections.Counter(), itertools.count()
    solve = analytic._solve

    def counted(constraint, threshold, cap, what):
        n = next(solves)

        def traced(p, at):
            evaluations.update((n, i) for i in at.tolist())
            return constraint(p, at)
        return solve(traced, threshold, cap, what)

    monkeypatch.setattr(analytic, "_solve", counted)
    return evaluations


WORKLOADS = pytest.mark.parametrize("path", [
    "example.cfg", "perfbench/workloads/analytic_highm.cfg",
    "perfbench/workloads/relay_selection.cfg"])


def _lattice_solves(path, monkeypatch):
    """Every ``solve_power_lattice`` call of the analytic-only sweep of the
    config at ``path``: (arguments, (powers, errors))."""
    calls, solve = [], analytic.solve_power_lattice

    def recorded(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "solve_power_lattice", recorded)
    cfg = load_config(str(Path(__file__).parents[1] / path))
    cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
    assert calls
    return calls


def _engine_outage(e, interferers, gp, threshold, power):
    """The primary outage that ``solve_power_lattice`` solves, per point."""
    return analytic._outage(e, np.asarray(gp, dtype=float), threshold,
                            [(link, np.asarray(power, dtype=float)) for link in interferers])


def _within_brentq_tolerance(ours, ref):
    return abs(ours - ref) <= 1e-12 + 1e-15 * abs(ref)


class TestBrent:
    """The roots of ``analytic._solve`` against scipy's brentq."""

    @WORKLOADS
    def test_matches_brentq_on_every_sweep_solve(self, path, monkeypatch):
        # each power solved by the lattice is within brentq's tolerance of
        # the root brentq finds on the same one-point constraint
        bisected = 0
        for (e, interferers, gp, threshold, outage, cap, what), (powers, errors) in \
                _lattice_solves(path, monkeypatch):
            for g, thr, c, ours, error in zip(gp.tolist(), outage.tolist(), cap.tolist(),
                                              powers.tolist(), errors):
                if isinstance(error, Infeasible):
                    continue
                assert error is None

                def f(p):
                    return float(_engine_outage(e, interferers, [g], threshold, [p])[0]) - thr
                if f(c) <= 0.0:
                    assert ours == c
                    continue
                bisected += 1
                ref = brentq(f, 0.0, c, xtol=1e-12, rtol=1e-15)
                assert _within_brentq_tolerance(ours, ref), (ours, ref)
        assert bisected

    def test_matches_brentq_on_random_monotone_functions(self):
        # scaled, shifted Weibull cdfs solved as one batch against threshold
        # 0: shapes from flat to steep, roots anywhere in brackets from 0.1
        # to 1e3 wide, values from 1e-3 to 1e3
        rng = np.random.default_rng(14)
        k, p, log_cap, frac, log_scale = rng.uniform(
            [0.1, 0.3, -1.0, 0.01, -3.0], [5.0, 3.0, 3.0, 0.99, 3.0], (200, 5)).T
        cap, scale = 10.0 ** log_cap, 10.0 ** log_scale
        root = frac * cap

        def f(x, at):
            return scale[at] * (np.exp(-k[at] * (root[at] / cap[at]) ** p[at])
                                - np.exp(-k[at] * (x / cap[at]) ** p[at]))
        powers, errors = analytic._solve(f, np.zeros(200), cap, "probe")
        assert errors == [None] * 200
        for i, ours in enumerate(powers.tolist()):
            ref = brentq(lambda x: f(np.array([x]), np.array([i]))[0], 0.0, cap[i],
                         xtol=1e-12, rtol=1e-15)
            assert _within_brentq_tolerance(ours, ref), (i, ours, ref)


class TestLatticeSolver:
    """``analytic._solve``, Chandrupatla's method over a batch of points."""

    @WORKLOADS
    def test_constraint_holds_at_every_solved_power(self, path, monkeypatch):
        # the returned bracket end is on the feasible side: no slack at all,
        # where the output checks of the benchmark allow 1e-9
        for (e, interferers, gp, threshold, outage, cap, what), (powers, errors) in \
                _lattice_solves(path, monkeypatch):
            solved = [error is None for error in errors]
            assert all(error is None or isinstance(error, Infeasible) for error in errors)
            assert np.all(_engine_outage(e, interferers, gp[solved], threshold,
                                         powers[solved]) <= outage[solved])

    @WORKLOADS
    def test_evaluations_per_point_on_every_sweep(self, path, monkeypatch):
        evaluations = _count_evaluations(monkeypatch)
        cfg = load_config(str(Path(__file__).parents[1] / path))
        cli.run_sweep(cfg.sweeps["sweep"], cfg, analytic_only=True)
        assert evaluations and max(evaluations.values()) <= 21

    @pytest.mark.parametrize("f, match", [
        (lambda x: np.where(x == 1.0, np.nan, x - 0.5), "bracket no root"),
        (lambda x: np.where((0.4 < x) & (x < 0.6), np.nan, x - 0.5), "NaN at power"),
        # a jump bisects from 1e300 down to 1e-12: about 1000 halvings
        (lambda x: np.where(x < 1.0, -1.0, 1.0), "did not converge"),
    ], ids=["nan_at_bracket", "nan_inside", "iteration_cap"])
    def test_failures_are_per_point(self, f, match):
        # a point that fails gets a NaN power and its error; the other
        # point of the batch, a plain x - 0.25, is solved as if alone
        def constraint(x, at):
            return np.where(at == 0, f(x) + 0.5, x - 0.25 + 0.5)
        cap = [1.0 if match != "did not converge" else 1e300, 1.0]
        powers, errors = analytic._solve(constraint, [0.5, 0.5], cap, "probe")
        alone = analytic._solve(lambda x, at: x - 0.25 + 0.5, [0.5], [1.0], "probe")
        assert np.isnan(powers[0]) and powers[1] == alone[0][0]
        assert isinstance(errors[0], NumericalInstability) and errors[1] is None
        assert re.search(match, str(errors[0]))

    def test_infeasible_and_capped_points_in_one_batch(self):
        powers, errors = analytic._solve(lambda x, at: 0.2 + 0.01 * x + 0.0 * at,
                                         [0.1, 0.9, 0.3], [5.0, 5.0, 50.0], "probe")
        assert isinstance(errors[0], Infeasible) and errors[1:] == [None, None]
        assert powers[1] == 5.0
        assert abs(powers[2] - 10.0) <= 1e-12 + 1e-15 * 10.0


_LINK = st.builds(L, st.integers(1, 6), st.floats(0.05, 3.0))
_POINT = st.tuples(st.floats(0.0, 40.0), st.floats(0.001, 0.6), st.floats(-10.0, 30.0))


@settings(max_examples=40, deadline=None)
@given(e=_LINK, interferers=st.lists(_LINK, min_size=1, max_size=2).map(tuple),
       points=st.lists(_POINT, min_size=1, max_size=12), data=st.data())
def test_lattice_powers_are_batch_invariant(e, interferers, points, data):
    # a point solved in a shuffled subset of the batch, or on its own,
    # gets the same power (bit for bit) and the same error
    gp_db, outage, cap_db = (np.array(c) for c in zip(*points))
    gp, cap = 10.0 ** (gp_db / 10.0), 10.0 ** (cap_db / 10.0)

    def solve(idx):
        idx = np.asarray(idx, dtype=int)
        return analytic.solve_power_lattice(e, interferers, gp[idx], 1.0, outage[idx], cap[idx],
                                            "probe")

    powers, errors = solve(range(len(points)))
    subset = data.draw(st.lists(st.sampled_from(range(len(points))), min_size=1, unique=True))
    p, err = solve(subset)
    assert np.array_equal(p, powers[subset], equal_nan=True)
    assert [repr(x) for x in err] == [repr(errors[i]) for i in subset]
    for i in range(len(points)):
        (p,), (err,) = solve([i])
        assert np.array_equal(p, powers[i], equal_nan=True) and repr(err) == repr(errors[i])


_POWERS_DB = st.tuples(st.floats(0.0, 40.0), st.floats(-10.0, 30.0), st.floats(-10.0, 30.0))
_THETA = st.floats(0.05, 20.0)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _outcome(call):
    """``call()``'s values as float hexes, or the repr of the
    NumericalInstability it raised."""
    try:
        return _hex(np.atleast_1d(call()))
    except NumericalInstability as exc:
        return repr(exc)


@settings(max_examples=30, deadline=None)
@given(links=st.tuples(*[_LINK] * 5), relays=st.lists(st.tuples(*[_LINK] * 3), min_size=1,
                                                      max_size=3),
       rows=st.lists(_POWERS_DB, min_size=1, max_size=10), data=st.data())
def test_closed_forms_are_batch_invariant(links, relays, rows, data):
    # the three closed forms the sweep reports give each row of an array
    # call, of a shuffled subset and of its one-row call the value of its
    # float-SNR call, bit for bit; a call raises exactly when one of its
    # rows fails alone, and then the error of such a row.  Theta is a
    # float or one value per row, taken by the rows like their SNRs
    powers = [10.0 ** (np.array(c) / 10.0) for c in zip(*rows)]
    theta = data.draw(st.one_of(_THETA, st.lists(_THETA, min_size=len(rows),
                                                 max_size=len(rows)).map(np.array)))
    theta_at = (lambda idx: theta[idx]) if np.ndim(theta) else (lambda idx: theta)
    x, w, y, z, v = links
    mod = mpsk_constants(4)

    def scenario_a(gp, gs, gr):
        return SecondaryCdfInputs(x=x, w=w, y=y, z=z, v=v, gamma_bar_p=gp, gamma_bar_s=gs,
                                  gamma_bar_r=gr)

    def scenario_b(gp, gs, gr):
        return [SecondaryCdfInputs(x=rx, w=rw, y=ry, z=None, v=None, gamma_bar_p=gp,
                                   gamma_bar_s=gs, gamma_bar_r=gr)
                for rx, rw, ry in relays]

    forms = [lambda t, *p: cdf_scenario_a_e2e(scenario_a(*p), t),
             lambda t, *p: cdf_scenario_b(scenario_b(*p), t),
             lambda t, *p: asep_kernel_scenario_a(scenario_a(*p), mod)]
    order = data.draw(st.permutations(range(len(rows))))
    subset = np.array(order[:data.draw(st.integers(1, len(rows)))])
    for form in forms:
        alone = [_outcome(lambda: form(float(theta_at(i)), *(float(c[i]) for c in powers)))
                 for i in range(len(rows))]
        for idx in [np.array([i]) for i in range(len(rows))] + [np.arange(len(rows)), subset]:
            outcome = _outcome(lambda: form(theta_at(idx), *(c[idx] for c in powers)))
            failed = [alone[i] for i in idx if isinstance(alone[i], str)]
            if failed:
                assert outcome in failed
            else:
                assert outcome == [h for i in idx for h in alone[i]]


@settings(max_examples=60, deadline=None)
@given(orders=st.lists(st.integers(1, 6), min_size=1, max_size=2),
       shapes=st.lists(st.integers(1, 6), min_size=1, max_size=2),
       kappa=st.floats(0.5, 3.0), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       weighted=st.lists(st.booleans(), min_size=2, max_size=2))
def test_expected_survival_over_arrays_equals_per_element_calls(orders, shapes, kappa, n, seed,
                                                                 weighted):
    # one element of an array call has the value of a one-element call:
    # each element is contracted by its own vector-matrix product; zero
    # scales and zero weights (the log floor) included.  All-ones weights
    # are the plain factor Q(m, .), bit for bit, and the factors commute
    # up to the order of summation
    rng = np.random.default_rng(seed)
    cs = [10.0 ** rng.uniform(-3.0, 1.5, n) for _ in orders]
    a = [np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-2.0, 3.0, n)) for _ in shapes]
    b = rng.uniform(0.2, 5.0, len(shapes)).tolist()
    factors = [tuple(np.where(rng.random(m) < 0.2, 0.0, 10.0 ** rng.uniform(-3.0, 3.0, m)))
               if w else m for m, w in zip(orders, weighted)]

    def call(idx, factors=factors, order=slice(None)):
        return analytic._expected_survival(
            list(zip(factors, [c[idx] for c in cs]))[order], kappa,
            [(m, ai[idx], bi) for m, ai, bi in zip(shapes, a, b)])

    whole = call(slice(None))
    assert whole.shape == (n,)
    assert np.array_equal(whole, np.concatenate([call(slice(i, i + 1)) for i in range(n)]))
    ones = [(1.0,) * m for m in orders]
    assert np.array_equal(call(slice(None), ones), call(slice(None), orders))
    assert call(0, ones) == call(0, orders)
    assert np.allclose(call(slice(None), order=slice(None, None, -1)), whole, rtol=1e-12, atol=0.0)


class TestDirectionCdf:
    def test_matches_quadrature(self):
        for theta in (0.2, 1.0, 4.0):
            assert cdf_scenario_a(SEC, theta) == pytest.approx(
                oracle.cdf_oracle_scenario_a(SEC, theta), rel=1e-6)

    def test_zero_threshold(self):
        assert cdf_scenario_a(SEC, 0.0) == 0.0

    def test_saturates(self):
        assert cdf_scenario_a(SEC, 1e4) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["cdf_scenario_a", "cdf_scenario_a_e2e", "cdf_scenario_b"])
    def test_theta_array_equals_scalar_calls(self, name):
        # every secondary cdf takes a theta array elementwise, as its
        # scalar calls bit for bit, and rejects a negative, NaN or infinite
        # theta alike
        inputs = [SEC, SEC.swapped()] if name == "cdf_scenario_b" else SEC
        cdf = getattr(analytic, name)
        thetas = np.array([[0.0, 0.2, 1.0], [4.0, 0.0, 1e4]])
        grid = cdf(inputs, thetas)
        assert grid.shape == thetas.shape
        scalars = [cdf(inputs, t) for t in thetas.ravel().tolist()]
        assert {type(v) for v in scalars} == {float}
        assert _hex(grid.ravel()) == _hex(scalars)
        assert grid[0, 0] == grid[1, 1] == 0.0
        for theta in (-0.1, np.array([1.0, -0.1]), math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="theta must be nonnegative"):
                cdf(inputs, theta)

    def test_monotone_in_theta(self):
        grid = np.linspace(0.0, 8.0, 50)
        vals = [cdf_scenario_a(SEC, float(t)) for t in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_outage_drops_with_relay_power(self):
        lo = cdf_scenario_a(_sec(gamma_bar_r=5.0), 1.0)
        hi = cdf_scenario_a(_sec(gamma_bar_r=20.0), 1.0)
        assert hi < lo

    def test_outage_grows_with_interference(self):
        weak = cdf_scenario_a(_sec(z=L(1, 0.05)), 1.0)
        strong = cdf_scenario_a(_sec(z=L(1, 2.0)), 1.0)
        assert strong > weak


class TestEndToEndCdf:
    def test_matches_quadrature(self):
        ref = oracle.cdf_oracle_scenario_a_e2e(SEC, 1.3)
        assert cdf_scenario_a_e2e(SEC, 1.3) == pytest.approx(ref, rel=1e-6)

    def test_dominates_single_direction(self):
        # the two-direction outage can only exceed either direction alone
        for theta in (0.5, 1.5, 3.0):
            assert cdf_scenario_a_e2e(SEC, theta) >= cdf_scenario_a(SEC, theta) - 1e-12

    def test_monotone_in_theta(self):
        grid = np.linspace(0.0, 6.0, 50)
        vals = [cdf_scenario_a_e2e(SEC, float(t)) for t in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_survival_side_matches_quadrature_at_high_m(self, theta):
        # the links of the high-severity workload (x=6, w=5, y=4, z=3,
        # v=2) at powers where the survival is 0.52 (theta 0.5) and 0.008
        inp = SecondaryCdfInputs(
            x=L(6, 0.7), w=L(5, 1.1), y=L(4, 0.9), z=L(3, 0.05), v=L(2, 0.04),
            gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
        ref = oracle.survival_side_oracle(inp, theta)
        assert analytic._survival_side(inp, theta) == pytest.approx(ref, rel=1e-8)


def _relay_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        SecondaryCdfInputs(
            x=L(int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0))),
            w=L(int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0))),
            y=L(int(rng.integers(1, 4)), float(rng.uniform(0.5, 2.0))),
            z=L(1, 1.0), v=L(1, 1.0),
            gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0)
        for _ in range(n)
    ]


class TestSelectionCdf:
    def test_matches_quadrature(self):
        for K in (1, 2, 3):
            inputs = _relay_inputs(K, seed=K)
            assert cdf_scenario_b(inputs, 1.5) == pytest.approx(
                oracle.selection_oracle(inputs, 1.5), rel=1e-5)

    def test_k1_collapse(self):
        inputs = _relay_inputs(1, seed=9)
        ref = oracle.selection_oracle(inputs, 1.5)
        assert cdf_scenario_b(inputs, 1.5) == pytest.approx(ref, rel=1e-10)

    def test_more_relays_never_hurt(self):
        inputs = _relay_inputs(3, seed=4)
        for theta in (0.3, 1.0, 3.0):
            vals = [cdf_scenario_b(inputs[:k], theta) for k in (1, 2, 3)]
            assert vals[0] >= vals[1] >= vals[2]

    def test_monotone_in_theta(self):
        inputs = _relay_inputs(2, seed=5)
        grid = np.linspace(0.0, 6.0, 50)
        vals = [cdf_scenario_b(inputs, float(t)) for t in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_threshold(self):
        assert cdf_scenario_b(_relay_inputs(2), 0.0) == 0.0

    def test_needs_a_relay(self):
        with pytest.raises(ValueError, match="one input set per relay"):
            cdf_scenario_b([], 1.5)


class TestAsep:
    MOD = mpsk_constants(4)

    def test_matches_kernel_quadrature(self):
        res = asep_scenario_a(SEC, self.MOD)
        assert not res.used_fallback
        assert res.value == pytest.approx(oracle.asep_oracle(SEC, self.MOD),
                                          rel=1e-5)

    def test_vanishing_relay_power_saturates(self):
        res = asep_scenario_a(_sec(gamma_bar_r=1e-9), self.MOD)
        assert res.value == pytest.approx(self.MOD.a / 2.0, abs=1e-4)

    def test_sharp_kernel_vanishes(self):
        sharp = ModulationSpec(4, 2.0, 1e6)
        assert asep_scenario_a(SEC, sharp).value < 1e-2

    def test_degenerate_poles_fall_back(self):
        # equal shape/gain ratio on both hops collapses two pole locations
        inp = _sec(x=L(2, 1.0), w=L(2, 1.0))
        res = asep_scenario_a(inp, self.MOD)
        assert res.used_fallback
        assert res.value == pytest.approx(oracle.asep_oracle(inp, self.MOD),
                                          rel=1e-5)

    def test_bpsk_below_qpsk(self):
        assert asep_scenario_a(SEC, mpsk_constants(2)).value < \
            asep_scenario_a(SEC, self.MOD).value


# High-severity single relay (x=6, w=5, y=4, z=3) under strong primary
# interference: above ~24 dB primary SNR the ASEP expansion's terms cancel.
HIGH_M = """\
[primary]
rate = 1.0
snr_db = 10.0

[secondary]
scenario = a
relays = 1
threshold_db = 3.0
max_source_snr_db = 20.0
max_relay_snr_db = 20.0

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
m = 4
mean_gain = 0.9

[links.s1_relay]
m = 5
mean_gain = 1.1

[links.s2_relay]
m = 6
mean_gain = 0.7

[links.pt_s1]
m = 3
mean_gain = 0.05

[links.pt_s2]
m = 2
mean_gain = 0.04

[sweep]
axis = primary_snr_db
start_db = 0.0
stop_db = 40.0
step_db = 2.0
outage_thresholds = 0.01, 0.05, 0.1
trials = 100000
seed = 42

[sweep.top]
axis = primary_snr_db
start_db = 36.0
stop_db = 40.0
step_db = 1.0
outage_thresholds = 0.01, 0.05, 0.1
trials = 100000
seed = 42
"""


def _high_m_rows(sweep: str):
    """(row, secondary inputs) of every transmitting row of a HIGH_M sweep."""
    cfg = parse_config(HIGH_M)
    scenario = cfg.network_scenario(1)
    rows = cli.run_sweep(cfg.sweeps[sweep], cfg, analytic_only=True)
    assert all(r.error in ("", "infeasible") for r in rows)
    return [(r, cli._secondary_inputs(scenario, r.gamma_bar_p, r.gamma_bar_s,
                                      r.gamma_bar_r)[0])
            for r in rows if r.gamma_bar_s > 0.0]


class TestAsepCancellation:
    MOD = mpsk_constants(4)

    def test_high_m_lattice_matches_kernel_quadrature(self):
        rows = _high_m_rows("sweep")
        assert len(rows) >= 40
        fallbacks = 0
        for row, inp in rows:
            assert row.analytic_asep == asep_kernel_scenario_a(inp, self.MOD)
            res = asep_scenario_a(inp, self.MOD)
            assert res.used_fallback == (res.cancellation_ratio > analytic.CANCELLATION_LIMIT)
            if not res.used_fallback:
                # the paper's closed form agrees with the value the sweep reports
                assert res.value == pytest.approx(row.analytic_asep, rel=1e-10, abs=0.0)
            fallbacks += res.used_fallback
            assert abs(res.value - oracle.asep_oracle(inp, self.MOD)) <= 1e-8
        assert 0 < fallbacks < len(rows)

    def test_cancelling_rows_fall_back(self):
        rows = _high_m_rows("top")
        assert len(rows) == 15
        for row, inp in rows:
            assert row.error == ""
            assert asep_scenario_a(inp, self.MOD).used_fallback

    def test_kernel_quadrature_matches_tight_oracle(self):
        high = next(inp for r, inp in _high_m_rows("top")
                    if r.x_db == 40.0 and r.threshold == 0.01)
        for inp in (SEC, _sec(x=L(2, 1.0), w=L(2, 1.0)), high):
            ref = oracle.asep_oracle(inp, self.MOD)
            assert asep_kernel_scenario_a(inp, self.MOD) == pytest.approx(ref, rel=1e-12)


def test_kernel_rule_drops_only_a_negligible_left_tail():
    # the kernel rule is de_rule(1/16, 100) without its nodes u < -4.5; in
    # x = ln g the integrand e^{-b g} g^{1/2} chi1 chi2 is at most g^{1/2} =
    # sqrt(g0) e^{offset/2}, so the dropped nodes add at most this bound
    # times sqrt(g0), whatever the survivals
    offsets, weights = de_rule(1.0 / 16.0, 100)
    kept = offsets >= analytic._KERNEL_OFFSETS[0]
    assert kept.sum() == analytic._KERNEL_OFFSETS.size == 173
    assert np.array_equal(offsets[kept], analytic._KERNEL_OFFSETS)
    assert np.array_equal(weights[kept], analytic._KERNEL_WEIGHTS)
    assert np.sum(weights[~kept] * np.exp(offsets[~kept] / 2.0)) <= 1e-20


def _shaped(mx, mw, my, mz, mv=2):
    return SecondaryCdfInputs(
        x=L(mx, 0.7), w=L(mw, 1.1), y=L(my, 0.9), z=L(mz, 0.05), v=L(mv, 0.04),
        gamma_bar_p=100.0, gamma_bar_s=8.0, gamma_bar_r=12.0)


# link shapes (x, w, y, z) of the analytic_highm workload, of example.cfg,
# a high-severity set with m = 8, Rayleigh fading on every link, and a set
# with mw > mx (a swapped axis of a per-shape grid shows there)
SHAPE_CASES = {"analytic_highm": (6, 5, 4, 3), "example": (3, 2, 2, 1), "m8": (8, 4, 3, 2),
               "rayleigh": (1, 1, 1, 1), "mw_above_mx": (2, 3, 1, 4)}
SHAPES = pytest.mark.parametrize("shapes", list(SHAPE_CASES.values()), ids=list(SHAPE_CASES))


KERNEL_CASES = pytest.mark.parametrize(
    "inp", [*(_shaped(*shapes) for shapes in SHAPE_CASES.values()),
            replace(_shaped(6, 5, 4, 3), z=L(3, 0.5), gamma_bar_p=1000.0)],
    ids=[*SHAPE_CASES, "interference_heavy"])


@KERNEL_CASES
def test_trimmed_kernel_rule_matches_the_full_rule(inp, monkeypatch):
    # the kernel integral itself (not the ASEP a/2 - c kernel, which would
    # hide its last bits) on seven rows around each input, in blocks
    inp = replace(inp, **{name: getattr(inp, name) * np.geomspace(0.1, 10.0, 7)
                          for name in analytic._POWERS})
    monkeypatch.setattr(analytic, "_asep_value", lambda kernel, mod, where: kernel)
    trimmed = asep_kernel_scenario_a(inp, mpsk_constants(4))
    offsets, weights = de_rule(1.0 / 16.0, 100)
    monkeypatch.setattr(analytic, "_KERNEL_OFFSETS", offsets)
    monkeypatch.setattr(analytic, "_KERNEL_WEIGHTS", weights)
    full = asep_kernel_scenario_a(inp, mpsk_constants(4))
    assert (np.abs(trimmed - full) <= 4.0 * np.spacing(full)).all(), (trimmed, full)


def _spread(inp, rows):
    """``inp`` with 1-D SNR arrays of ``rows`` rows around its SNRs."""
    return replace(inp, **{name: getattr(inp, name) * np.geomspace(0.1, 10.0, rows)
                           for name in analytic._POWERS})


@KERNEL_CASES
def test_kernel_integrates_the_direction_cdf(inp):
    # the kernel is the DE sum of e^{-b g} sqrt(g) (1 - cdf_scenario_a) on
    # its nodes, row by row: whatever replaces the direction law must keep
    # the value the sweep reports the kernel average of the public cdf
    inp, mod = _spread(inp, 7), mpsk_constants(4)
    kernel = asep_kernel_scenario_a(inp, mod)
    for i in range(7):
        row = replace(inp, **{name: float(getattr(inp, name)[i]) for name in analytic._POWERS})
        g = np.exp(np.log(0.5 / analytic._Rates(row).kernel_rate(mod.b)) + analytic._KERNEL_OFFSETS)
        f = np.exp(-mod.b * g) * np.sqrt(g) * (1.0 - cdf_scenario_a(row, g))
        want = analytic._asep_value((analytic._KERNEL_WEIGHTS * f).sum(), mod, "reference")
        assert abs(kernel[i] - want) <= 1e-14, (i, kernel[i], want)


def test_kernel_rows_do_not_depend_on_their_blocks(monkeypatch):
    # 31 rows at the analytic_highm shapes, so that chi1 (56 terms, blocks
    # of 3 rows) and chi2 (15 terms, blocks of 12) both span several blocks
    # and end on a partial one: the kernel integral of each row equals its
    # one-row call and its float-SNR call bit for bit
    inp = _spread(_shaped(*SHAPE_CASES["analytic_highm"]), 31)
    terms = [len(analytic._term_table(*table)[1]) for table in [((6,), (4, 3)), ((5,), (3,))]]
    assert [analytic._KERNEL_FLOATS // (analytic._KERNEL_OFFSETS.size * t) for t in terms] == \
        [3, 12]
    monkeypatch.setattr(analytic, "_asep_value", lambda kernel, mod, where: kernel)
    mod = mpsk_constants(4)
    whole = asep_kernel_scenario_a(inp, mod)
    for i in range(31):
        row = {name: getattr(inp, name)[i:i + 1] for name in analytic._POWERS}
        assert _hex(asep_kernel_scenario_a(replace(inp, **row), mod)) == _hex(whole[i:i + 1])
        point = replace(inp, **{name: float(p[0]) for name, p in row.items()})
        assert _hex([asep_kernel_scenario_a(point, mod)]) == _hex(whole[i:i + 1])


@SHAPES
def test_node_contraction_matches_the_per_element_engine(shapes):
    # the kernel's chi1 and chi2 on its (row, node) lattice: one matrix
    # product per row rounds differently from a vector-matrix product per
    # element, within 4 ulp of the log domain the engine works in.  A
    # term's exponent rounds on the scale of its absolute sum (a log-0
    # floor aside, whose terms are 0 either way), so far in the right tail
    # the values differ by more ulp (238 at chi1 = 6.0e-61, analytic_highm)
    inp = _spread(_shaped(*shapes), 31)
    r = analytic._Rates(replace(inp, **{name: getattr(inp, name)[:, None]
                                        for name in analytic._POWERS}))
    g = np.exp(np.log(0.5 / r.kernel_rate(mpsk_constants(4).b)) + analytic._KERNEL_OFFSETS)
    for i, call in enumerate(analytic._direction_args(inp, g, r)):
        nodes, each = analytic._node_survival(*call), analytic._expected_survival(*call)
        assert nodes.shape == each.shape == g.shape and (each > 0.0).all()
        logs, expo, const = analytic._survival_logs(*call)
        scale = np.matmul(np.abs(logs), expo.T) + np.abs(const)
        scale = np.where(scale < 1e299, scale, 0.0).max(axis=-1)
        assert (np.abs(np.log(nodes / each)) <= 4.0 * np.spacing(1.0 + scale)).all(), \
            f"chi{i + 1}"


def test_kernel_memory_is_block_sized():
    # 400 analytic_highm rows: the temporaries are those of one factor
    # block, whatever the row count, so the traced peak stays near one
    # block's (433 KB before each row had its own matrix product).  Each
    # temporary stays below the speed probe's 320 KB arrays in perfbench:
    # larger ones change the heap state that the probe reads
    inp = _spread(_shaped(*SHAPE_CASES["analytic_highm"]), 400)
    asep_kernel_scenario_a(inp, mpsk_constants(4))
    tracemalloc.start()
    try:
        asep_kernel_scenario_a(inp, mpsk_constants(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def _asep_terms_reference(inp, r, alphas, mu):
    """The terms of ``analytic._asep_terms`` assembled group by group,
    without the cached layout: each multiplicity triple is expanded on its
    own by ``partial_fractions`` and each Psi is a scalar ``tricomi_u``."""
    mx, mw, my, mz = inp.x.m, inp.w.m, inp.y.m, inp.z.m
    expo, c1 = analytic._term_table((mx,), (my, mz))
    n, i1, i2 = expo.T[:3]
    expo, c2 = analytic._term_table((mw,), (mz,))
    k, k1 = expo.T[:2]
    ln_n = (c1 + (n - i1 - i2) * math.log(r.beta + 1.0)
            + (n - my - i1 - mz - i2) * math.log(r.qx) + my * math.log(r.by)
            + mz * math.log(r.bz))
    ln_k = c2 + (k - mz - k1) * math.log(r.qw) + mz * math.log(r.bz)
    pair_w = np.exp(ln_n[:, None] + ln_k)
    weights = {}
    for a in range(len(n)):
        for b in range(len(k)):
            key = (int(k1[b]), int(i2[a]), int(i1[a]), int(n[a] + k[b]))
            weights[key] = weights.get(key, 0.0) + pair_w[a, b]
    expansions, cols = {}, []
    for (kk1, ii2, ii1, nk), w in sorted(weights.items()):
        mults = (mz + kk1, mz + ii2, my + ii1)
        if mults not in expansions:
            expansions[mults] = partial_fractions(PoleSet(zip(alphas, mults)))
        s = nk + 0.5
        cols += [(w, s, coef, pole, j, tricomi_u(s, s + 1.0 - j, mu * alphas[pole]))
                 for pole, j, coef in expansions[mults]]
    w, s, coef, pole, j, psi = (np.array(c) for c in zip(*cols))
    return w * gamma(s) * coef * alphas[pole] ** (s - j) * psi


@SHAPES
def test_asep_terms_bit_identical_to_per_triple_assembly(shapes):
    inp = _shaped(*shapes)
    r = analytic._Rates(inp)
    alphas = np.array([r.bz / r.qw, r.bz / r.qx, r.by / r.qx])
    mu = r.kernel_rate(mpsk_constants(4).b)
    got = analytic._asep_terms(inp, r, alphas, mu)
    assert np.array_equal(got, _asep_terms_reference(inp, r, alphas, mu))


def _term_table_reference(orders, shapes):
    """``analytic._term_table`` as a loop over the orders and the gain
    powers, each constant summed in the table's order."""
    rows, const = [], []
    for ns in itertools.product(*map(range, orders)):
        total = sum(ns)
        for js in itertools.product(range(total + 1), repeat=len(shapes)):
            if sum(js) > total:
                continue
            rest, c = total, 0.0
            for j in js:
                c += math.log(math.comb(rest, j))
                rest -= j
            for n in ns:
                c -= math.lgamma(n + 1)
            for m, j in zip(shapes, js):
                c += math.lgamma(m + j)
                c -= math.lgamma(m)
            rows.append((*ns, *js, *shapes, 1))
            const.append(c)
    return np.array(rows, dtype=float), np.array(const)


@pytest.mark.parametrize("orders", [(8,), (6, 3), (4, 5)])
@pytest.mark.parametrize("shapes", [(), (1,), (6,), (3, 2), (1, 4, 2), (6, 6)])
def test_term_table_equals_the_loop(orders, shapes):
    got, want = analytic._term_table(orders, shapes), _term_table_reference(orders, shapes)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# The six finite-sum closed forms are calls of one term engine.  Each is
# checked against its original term formula summed in 50-digit mpmath on
# the same float inputs: a triple sum for the multiple-access phase, a
# double sum for the broadcast phase and chi2, a triple sum for chi1, a
# quadruple sum (trinomial in Y, beta and 1) for the relay pair, and two
# sextuple sums for the end-to-end side survival.  The binomials are exact
# integers (``math.comb``; ``mp.binomial`` costs ~40 us a call).

def _mp_gamma_moment(mp, m, j, b, x):
    """E[G^j e^{-x G}] = b^m Gamma(m+j) / (Gamma(m) (b + x)^{m+j}) for
    G ~ Gamma(m, rate b)."""
    return mp.mpf(b) ** m * mp.gamma(m + j) / (mp.gamma(m) * (mp.mpf(b) + x) ** (m + j))


def _mp_primary_survival(mp, inp):
    c = mp.mpf(inp.e.m * inp.threshold / (inp.e.mean_gain * inp.gamma_bar_p))
    s1, s2 = mp.mpf(inp.gamma_bar_s1), mp.mpf(inp.gamma_bar_s2)
    return mp.fsum(
        mp.exp(-c) * c ** ell / mp.factorial(ell)
        * math.comb(ell, t1) * math.comb(ell - t1, t2) * s1 ** t1 * s2 ** t2
        * _mp_gamma_moment(mp, inp.f.m, t1, inp.f.rate, c * s1)
        * _mp_gamma_moment(mp, inp.g.m, t2, inp.g.rate, c * s2)
        for ell in range(inp.e.m) for t1 in range(ell + 1) for t2 in range(ell - t1 + 1))


def _mp_relay_phase_survival(mp, inp):
    c = mp.mpf(inp.e.m * inp.threshold / (inp.e.mean_gain * inp.gamma_bar_p))
    gr = mp.mpf(inp.gamma_bar_r)
    return mp.fsum(
        mp.exp(-c) * c ** ell / mp.factorial(ell) * math.comb(ell, i) * gr ** (ell - i)
        * _mp_gamma_moment(mp, inp.l.m, ell - i, inp.l.rate, c * gr)
        for ell in range(inp.e.m) for i in range(ell + 1))


def _chi(i):
    """chi1 (i = 0) or chi2 (i = 1) of the direction law, as (inputs, theta)."""
    return lambda inp, theta: analytic._expected_survival(
        *analytic._direction_args(inp, theta, analytic._Rates(inp))[i])


def _mp_chi1(mp, inp, theta):
    r = analytic._Rates(inp)
    cx, beta1 = mp.mpf(r.qx * theta), mp.mpf(r.beta + 1.0)
    return mp.fsum(
        mp.exp(-cx * beta1) * cx ** n / mp.factorial(n)
        * math.comb(n, i1) * math.comb(n - i1, i2) * beta1 ** (n - i1 - i2)
        * _mp_gamma_moment(mp, inp.y.m, i1, r.by, cx)
        * _mp_gamma_moment(mp, inp.z.m, i2, r.bz, cx)
        for n in range(inp.x.m) for i1 in range(n + 1) for i2 in range(n - i1 + 1))


def _mp_chi2(mp, inp, theta):
    r = analytic._Rates(inp)
    cw = mp.mpf(r.qw * theta)
    return mp.fsum(
        mp.exp(-cw) * cw ** k / mp.factorial(k) * math.comb(k, k1)
        * _mp_gamma_moment(mp, inp.z.m, k1, r.bz, cw)
        for k in range(inp.w.m) for k1 in range(k + 1))


def _mp_relay_pair_survival(mp, inp, theta):
    r = analytic._Rates(inp)
    cx, cw, beta = mp.mpf(r.qx * theta), mp.mpf(r.qw * theta), mp.mpf(r.beta)
    return mp.fsum(
        mp.exp(-(cx + cw) * (beta + 1)) * cx ** n / mp.factorial(n) * cw ** n1 / mp.factorial(n1)
        * math.comb(n + n1, i1) * math.comb(n + n1 - i1, i2) * beta ** i2
        * _mp_gamma_moment(mp, inp.y.m, i1, r.by, cx + cw)
        for n in range(inp.x.m) for n1 in range(inp.w.m)
        for i1 in range(n + n1 + 1) for i2 in range(n + n1 - i1 + 1))


def _mp_survival_side(mp, inp, theta):
    """chi1 - E[Pr{X > (L+1) theta/gr}; V > L] + E[Pr{X > (V+1) theta/gr}; V > L]
    for L = Z + Y + beta, term by term: the first expectation with X's
    survival expanded in (L + 1)^rho and V's in L^varpi, the second with
    X's expanded in (V + 1)^i and V's tail beyond L in L^k.  Both take the
    Gamma moments of Y and Z at s = cx + bv; they and the powers are tabled
    once per call, and so is the trinomial sum E[L^k e^{-s (Z+Y)}] of the
    second."""
    r = analytic._Rates(inp)
    cx, bv, beta = mp.mpf(r.qx * theta), mp.mpf(r.bv), mp.mpf(r.beta)
    mx, my, mz, mv = inp.x.m, inp.y.m, inp.z.m, inp.v.m
    s = cx + bv
    top = mx + mv
    ym = [_mp_gamma_moment(mp, my, j, r.by, s) for j in range(top)]
    zm = [_mp_gamma_moment(mp, mz, j, r.bz, s) for j in range(top)]
    cx_n, bv_n = ([x ** n / mp.factorial(n) for n in range(top)] for x in (cx, bv))
    beta_n, beta1_n, s_n = ([x ** n for n in range(top)] for x in (beta, beta + 1, 1 / s))
    both = mp.exp(-cx * (beta + 1) - bv * beta) * mp.fsum(
        cx_n[rho] * bv_n[varpi]
        * math.comb(rho, e1) * math.comb(rho - e1, e2) * beta1_n[rho - e1 - e2]
        * math.comb(varpi, t1) * math.comb(varpi - t1, t2) * beta_n[varpi - t1 - t2]
        * ym[e1 + t1] * zm[e2 + t2]
        for varpi in range(mv) for rho in range(mx)
        for e1 in range(rho + 1) for e2 in range(rho - e1 + 1)
        for t1 in range(varpi + 1) for t2 in range(varpi - t1 + 1))
    lk = [mp.fsum(math.comb(k, k1) * math.comb(k1, k2) * beta_n[k - k1] * zm[k2] * ym[k1 - k2]
                  for k1 in range(k + 1) for k2 in range(k1 + 1)) for k in range(top - 1)]
    # V's tail beyond L: bv^mv Gamma(mv+j) / Gamma(mv) sum_{k<mv+j}
    # e^{-s L} L^k / (k! s^(mv+j-k))
    beyond = mp.exp(-cx - beta * s) * bv ** mv / mp.factorial(mv - 1) * mp.fsum(
        cx_n[i] * math.comb(i, j) * math.factorial(mv + j - 1) * s_n[mv + j - k]
        * lk[k] / math.factorial(k)
        for i in range(mx) for j in range(i + 1) for k in range(mv + j))
    return _mp_chi1(mp, inp, theta) - both + beyond


def _random_engine_inputs(rng):
    """(primary inputs, secondary inputs) with every severity in 1..8."""
    def link():
        return L(int(rng.integers(1, 9)), float(rng.uniform(0.05, 2.0)))

    def db(lo, hi):
        return float(10.0 ** rng.uniform(lo / 10.0, hi / 10.0))

    prim = PrimaryOutageInputs(
        e=link(), f=link(), g=link(), l=link(), gamma_bar_p=db(0, 40),
        gamma_bar_s1=db(-10, 30), gamma_bar_s2=db(-10, 30), gamma_bar_r=db(-10, 30),
        threshold=float(rng.uniform(0.05, 3.0)))
    sec = SecondaryCdfInputs(
        x=link(), w=link(), y=link(), z=link(), v=link(), gamma_bar_p=db(0, 40),
        gamma_bar_s=db(0, 40), gamma_bar_r=db(0, 40))
    return prim, sec


def _engine_cases():
    """(primary, secondary) inputs: the SHAPES severities on the (e, f, g,
    l) and (x, w, y, z) links, then random ones."""
    for name, shapes in SHAPE_CASES.items():
        e, f, g, l = (L(m, gain) for m, gain in zip(shapes, (1.0, 0.8, 1.2, 0.9)))
        yield pytest.param(_prim(e=e, f=f, g=g, l=l), _shaped(*shapes), id=name)
    rng = np.random.default_rng(16)
    for i in range(8):
        yield pytest.param(*_random_engine_inputs(rng), id=f"random{i}")


@pytest.mark.parametrize("prim, sec", list(_engine_cases()))
def test_closed_forms_match_50_digit_term_sums(prim, sec):
    mp = pytest.importorskip("mpmath")
    thetas = np.geomspace(0.05, 20.0, 5)
    with mp.workdps(50):
        # the outages subtract the survival from 1, so they carry its
        # absolute error
        assert primary_outage(prim) == pytest.approx(
            float(1 - _mp_primary_survival(mp, prim)), rel=1e-12, abs=1e-15)
        assert relay_phase_outage(prim) == pytest.approx(
            float(1 - _mp_relay_phase_survival(mp, prim)), rel=1e-12, abs=1e-15)
        for got, ref in [(_chi(0), _mp_chi1), (_chi(1), _mp_chi2),
                         (analytic._relay_pair_survival, _mp_relay_pair_survival)]:
            want = np.array([float(ref(mp, sec, theta)) for theta in thetas.tolist()])
            # the calls at each theta and the one call over all of them
            assert [got(sec, theta) for theta in thetas.tolist()] == pytest.approx(
                want, rel=1e-12, abs=0.0)
            assert got(sec, thetas) == pytest.approx(want, rel=1e-12, abs=0.0)
        # the side survival is chi1 minus a sum plus a sum, so it loses
        # digits in proportion to chi1 / side (3.6e-8 at a ratio of 8.5e6).
        # The rule rel <= 1e-12 + 2e-14 chi1 / side also holds for the
        # sextuple term table that this form replaced (at most 0.65 of it)
        for side in (sec, sec.swapped()):
            for theta in thetas.tolist():
                want = _mp_survival_side(mp, side, theta)
                ratio = _chi(0)(side, theta) / float(want)
                assert analytic._survival_side(side, theta) == pytest.approx(
                    float(want), rel=1e-12 + 2e-14 * ratio, abs=0.0)


@SHAPES
def test_survival_side_matches_50_digit_term_sums(shapes):
    mp = pytest.importorskip("mpmath")
    inp = _shaped(*shapes)
    with mp.workdps(50):
        for side in (inp, inp.swapped()):
            for theta in np.geomspace(0.05, 20.0, 40).tolist():
                assert analytic._survival_side(side, theta) == pytest.approx(
                    float(_mp_survival_side(mp, side, theta)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("prim, sec", list(_engine_cases()))
def test_relay_pair_survival_over_an_array_equals_scalar_calls(prim, sec):
    thetas = np.geomspace(0.01, 50.0, 40)
    grid = analytic._relay_pair_survival(sec, thetas)
    assert grid.shape == thetas.shape
    assert grid == pytest.approx([analytic._relay_pair_survival(sec, t) for t in thetas.tolist()],
                                 rel=1e-14, abs=0.0)


@pytest.mark.parametrize("reference", ["fsum", "pairwise"])
@pytest.mark.parametrize("prim, sec", list(_engine_cases()))
def test_expected_survival_broadcasts_kappa_rates_and_weights(prim, sec, reference):
    # the side survival's weighted call with every input an array over
    # lattice rows (kappa, rates, scales and weights).  Against "pairwise",
    # each element equals the call on that row's floats, bit for bit, as
    # each element has its own pairwise sum; against "fsum", each element
    # is within the recursive-summation bound (n - 1) eps of the correctly
    # rounded sum of its n terms, which are all positive
    rng = np.random.default_rng(21)
    powers = [getattr(sec, name) * 10.0 ** rng.uniform(-1.0, 1.0, 7) for name in analytic._POWERS]
    weights = np.where(rng.random((7, sec.x.m)) < 0.2, 0.0,
                       10.0 ** rng.uniform(-3.0, 0.0, (7, sec.x.m)))

    def args(inp, w):
        r = analytic._Rates(inp)
        return ([(w, r.qx * 1.3), (sec.v.m, r.bv)], r.beta,
                [(sec.y.m, 1.0, r.by), (sec.z.m, 1.0, r.bz)])

    lattice = args(_sec(**dict(zip(analytic._POWERS, powers)), x=sec.x, w=sec.w, y=sec.y,
                        z=sec.z, v=sec.v), weights)
    whole = analytic._expected_survival(*lattice)
    assert whole.shape == (7,)
    if reference == "fsum":
        terms = analytic._survival_terms(*lattice)
        assert terms.shape[0] == 7 and (terms >= 0.0).all()
        for i in range(7):
            exact = math.fsum(terms[i].tolist())
            assert abs(whole[i] - exact) <= (terms.shape[1] - 1) * 2.0 ** -53 * exact
        return
    for i in range(7):
        row = _sec(**{name: float(p[i]) for name, p in zip(analytic._POWERS, powers)},
                   x=sec.x, w=sec.w, y=sec.y, z=sec.z, v=sec.v)
        assert _hex([analytic._expected_survival(*args(row, tuple(weights[i])))]) == \
            _hex([whole[i]])


def test_scalar_closed_forms_return_floats(monkeypatch):
    # a scalar closed form returns a Python float, never a numpy scalar, so
    # its value and the probability its error text quotes read the same
    # under every numpy version
    sec_b = _sec(z=None, v=None)
    values = [primary_outage(PRIM), relay_phase_outage(PRIM), cdf_scenario_a(SEC, 1.5),
              cdf_scenario_a_e2e(SEC, 1.5), cdf_scenario_b([sec_b, sec_b], 1.5),
              asep_kernel_scenario_a(SEC, mpsk_constants(4)),
              solve_secondary_source_power(PRIM, 0.3, 1e3), solve_relay_power(PRIM, 0.3, 1e3)]
    assert [type(v) for v in values] == [float] * len(values)
    # 1-D SNR arrays give an array of one value per row
    powers = dict(gamma_bar_p=np.array([8.0, 80.0, 800.0]), gamma_bar_s=np.array([6.0, 3.0, 1.0]),
                  gamma_bar_r=np.array([9.0, 9.0, 2.0]))
    rows, rows_b = _sec(**powers), _sec(z=None, v=None, **powers)
    arrays = [cdf_scenario_a_e2e(rows, 1.5), cdf_scenario_a_e2e(rows, 0.0),
              cdf_scenario_b([rows_b, rows_b], 1.5), cdf_scenario_b([rows_b, rows_b], 0.0),
              asep_kernel_scenario_a(rows, mpsk_constants(4))]
    assert [(type(a), a.shape) for a in arrays] == [(np.ndarray, (3,))] * len(arrays)
    assert [type(v) for v in (cdf_scenario_a_e2e(SEC, 0.0), cdf_scenario_b([sec_b], 0.0))] \
        == [float, float]
    # a NaN kappa makes every term, and so the engine's 0-d sum, NaN
    survival = analytic._expected_survival
    monkeypatch.setattr(analytic, "_expected_survival",
                        lambda factors, kappa, gains: survival(factors, math.nan, gains))
    with pytest.raises(NumericalInstability) as info:
        cdf_scenario_a(SEC, 1.5)
    assert str(info.value) == "cdf_scenario_a: probability nan outside [0,1] beyond tolerance"
