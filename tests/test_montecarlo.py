"""Seeded Monte Carlo engine: reproducibility, sampler quality, SINR
assembly, and cross-validation against the closed forms."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats
from scipy.special import erfc

import cogrelay.montecarlo as mc
from cogrelay.model import (FadingLink as L, NetworkScenario, PowerProfile,
                            Scenario, mpsk_constants)
from cogrelay.analytic import (PrimaryOutageInputs, SecondaryCdfInputs,
                               cdf_scenario_a, cdf_scenario_b,
                               primary_outage, relay_phase_outage)


def scenario_a(z_gain=0.01, v_gain=0.01):
    return NetworkScenario(
        scenario=Scenario.A, K=1,
        pt_px=L(2, 1.0), s1_px=L(1, 0.8), s2_px=L(1, 1.2),
        relay_px=(L(2, 1.0),), pt_relay=(L(2, 0.9),),
        s1_relay=(L(2, 1.1),), s2_relay=(L(3, 0.7),),
        pt_s1=L(1, z_gain), pt_s2=L(2, v_gain),
        primary_rate=1.0, secondary_threshold=2.0)


def scenario_b(K=3):
    per = lambda m, g: tuple(L(m, g + 0.1 * k) for k in range(K))
    return NetworkScenario(
        scenario=Scenario.B, K=K,
        pt_px=L(2, 1.0), s1_px=L(1, 0.8), s2_px=L(1, 1.2),
        relay_px=per(2, 1.0), pt_relay=per(2, 0.9),
        s1_relay=per(2, 1.1), s2_relay=per(1, 0.7),
        pt_s1=None, pt_s2=None,
        primary_rate=1.0, secondary_threshold=2.0)


POWERS = PowerProfile(gamma_bar_p=10.0, gamma_bar_s=8.0, gamma_bar_r=12.0,
                      max_gamma_bar_s=50.0, max_gamma_bar_r=50.0)


def _inputs(sc: NetworkScenario, k: int = 0) -> SecondaryCdfInputs:
    return SecondaryCdfInputs(
        x=sc.s2_relay[k], w=sc.s1_relay[k], y=sc.pt_relay[k],
        z=sc.pt_s1, v=sc.pt_s2,
        gamma_bar_p=POWERS.gamma_bar_p, gamma_bar_s=POWERS.gamma_bar_s,
        gamma_bar_r=POWERS.gamma_bar_r)


class TestSampler:
    def test_moments(self):
        sc = scenario_a()
        draw = mc.draw_gains(sc, seed=1, trials=1_000_000)
        for name, link in mc.link_table(sc):
            g = draw[name]
            assert g.mean() == pytest.approx(link.mean_gain, rel=0.01)
            assert g.var() == pytest.approx(link.mean_gain ** 2 / link.m, rel=0.02)
            assert np.all(g > 0.0)

    def test_exponential_special_case(self):
        g = mc._gamma_stream(seed=2, link_id=0, m=1, mean=1.3, start=0,
                             count=200_000)
        _, p = stats.kstest(g, "expon", args=(0.0, 1.3))
        assert p > 0.01

    def test_determinism(self):
        sc = scenario_a()
        a = mc.draw_gains(sc, seed=42, trials=5_000)
        b = mc.draw_gains(sc, seed=42, trials=5_000)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_subset_draw_matches_full_draw(self):
        for sc, names in ((scenario_a(), ["x", "z", "v"]),
                          (scenario_b(K=2), ["w0", "x1", "y1"])):
            full = mc.draw_gains(sc, seed=8, trials=3_000, start=500)
            part = mc.draw_gains(sc, seed=8, trials=3_000, start=500, names=names)
            assert sorted(part) == sorted(names)
            for name in names:
                assert np.array_equal(part[name], full[name])

    @pytest.mark.parametrize("m", range(1, 8))
    def test_gamma_matches_row_sum_of_logs(self, m):
        # column-by-column accumulation reproduces the row sum of the logs
        # bit for bit for m <= 7
        for start in (0, 17, 1 << 20):
            bg = Philox(key=np.array([5, 3], dtype=np.uint64))
            if start:
                bg.advance(start * ((m + 3) // 4))
            u = Generator(bg).random((4_000, 4 * ((m + 3) // 4)))[:, :m]
            ref = (1.3 / m) * (-np.log1p(-u)).sum(axis=1)
            assert np.array_equal(mc._gamma_stream(5, 3, m, 1.3, start, 4_000), ref)

    def test_relays_shared_across_relay_counts(self):
        big = mc.draw_gains(scenario_b(K=4), seed=9, trials=2_000, start=300)
        for K in (1, 2):
            small = mc.draw_gains(scenario_b(K=K), seed=9, trials=2_000, start=300)
            assert set(small) == {n for n in big if n in "efg" or int(n[1:]) < K}
            for name in small:
                assert np.array_equal(small[name], big[name])

    def test_seeds_differ(self):
        a = mc._gamma_stream(1, 0, 2, 1.0, 0, 1_000)
        b = mc._gamma_stream(2, 0, 2, 1.0, 0, 1_000)
        assert not np.array_equal(a, b)

    def test_streams_independent_per_link(self):
        a = mc._gamma_stream(1, 0, 2, 1.0, 0, 1_000)
        b = mc._gamma_stream(1, 1, 2, 1.0, 0, 1_000)
        assert not np.array_equal(a, b)

    def test_partition_invariance(self):
        full = mc._gamma_stream(7, 3, 3, 1.7, 0, 10_000)
        parts = np.concatenate([
            mc._gamma_stream(7, 3, 3, 1.7, 0, 1_234),
            mc._gamma_stream(7, 3, 3, 1.7, 1_234, 8_766)])
        assert np.array_equal(full, parts)


class TestSlices:
    """The trial range is drawn and scored in slices; the outage estimates
    do not depend on the slice size, and the SEP sums are the slice totals
    added in slice order."""

    P2 = PowerProfile(gamma_bar_p=30.0, gamma_bar_s=3.0, gamma_bar_r=20.0,
                      max_gamma_bar_s=50.0, max_gamma_bar_r=50.0)

    @pytest.mark.parametrize("slice_", [1024, 4096])
    def test_estimates_do_not_depend_on_slice(self, slice_, monkeypatch):
        # 100,003 trials leave a ragged last slice at every slice size
        cases = [
            (scenario_a(z_gain=0.3, v_gain=0.2), [(1, POWERS), (1, self.P2)]),
            (scenario_b(K=2), [(1, POWERS), (2, POWERS), (2, self.P2)]),
        ]
        for sc, rows in cases:
            ref = mc.estimate_rows(sc, rows, theta=2.0, trials=100_003, seed=21)
            with monkeypatch.context() as m:
                m.setattr(mc, "_SLICE", slice_)
                sliced = mc.estimate_rows(sc, rows, theta=2.0, trials=100_003, seed=21)
            assert sliced == ref

    def test_primary_outage_does_not_depend_on_slice(self, monkeypatch):
        inputs = TestPrimaryEstimator.INPUTS
        ref = [mc.estimate_primary_outage(inputs, trials=30_001, seed=22, phase=ph)
               for ph in ("ma", "bc")]
        monkeypatch.setattr(mc, "_SLICE", 1024)
        assert [mc.estimate_primary_outage(inputs, trials=30_001, seed=22, phase=ph)
                for ph in ("ma", "bc")] == ref

    def test_scoring_memory_is_slice_sized(self):
        # K = 4 over 1,050,000 trials: scoring 2^20 trials at once peaked at 143 MB
        # traced; slices of 2^14 trials peak near 2.4 MB per worker (4.5 MB
        # with 2 workers, 8.2 MB with _MAX_WORKERS = 4)
        rows = [(1, POWERS), (2, POWERS), (4, POWERS)]
        tracemalloc.start()
        try:
            mc.estimate_rows(scenario_b(K=4), rows, theta=2.0, trials=1_050_000,
                             seed=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class SliceError(Exception):
    pass


class TestPool:
    """The slices run on a thread pool; the estimates do not depend on its
    worker count, and a slice's error reaches the caller."""

    @staticmethod
    def _estimates():
        # a ragged last slice, several slices at the default size
        inputs, kw = TestPrimaryEstimator.INPUTS, dict(theta=2.0, trials=100_003, seed=28)
        return [
            mc.estimate_rows(scenario_a(z_gain=0.3, v_gain=0.2),
                             [(1, POWERS), (1, TestSlices.P2)], mod=mpsk_constants(4), **kw),
            mc.estimate_rows(scenario_b(K=2), [(1, POWERS), (2, POWERS), (2, TestSlices.P2)],
                             mod=mpsk_constants(2), **kw),
            [mc.estimate_primary_outage(inputs, trials=100_003, seed=29, phase=ph)
             for ph in ("ma", "bc")],
        ]

    def test_estimates_do_not_depend_on_worker_count(self, monkeypatch):
        # the SEP sums depend on the slice size, so each size has its own
        # reference
        for slice_ in (mc._SLICE, 1024):
            monkeypatch.setattr(mc, "_SLICE", slice_)
            ref = self._estimates()
            for workers in (1, 2, 8):   # 8: more workers than the host has cores
                with ThreadPoolExecutor(workers) as pool, monkeypatch.context() as m:
                    m.setattr(mc, "_pool", lambda: pool)
                    assert self._estimates() == ref, (workers, slice_)

    @pytest.mark.parametrize("primary", [False, True], ids=["rows", "primary"])
    def test_slice_error_reaches_caller(self, primary, monkeypatch):
        def run():
            if primary:
                return mc.estimate_primary_outage(TestPrimaryEstimator.INPUTS,
                                                  trials=100_000, seed=30)
            return mc.estimate_rows(scenario_b(K=2), [(2, POWERS)], theta=2.0,
                                    trials=100_000, seed=30)

        ref, stream, pool = run(), mc._gamma_stream, mc._pool()
        monkeypatch.setattr(mc, "_SLICE", 1024)
        bad = 3 * 1024   # the fourth of 98 slices

        def failing(seed, link_id, m, mean, start, count):
            if start == bad:
                raise SliceError(start)
            return stream(seed, link_id, m, mean, start, count)

        with monkeypatch.context() as m:
            m.setattr(mc, "_gamma_stream", failing)
            with pytest.raises(SliceError):
                run()
        assert run() == ref
        assert mc._pool() is pool


class TestOnePass:
    """Every SINR a row reads comes from one evaluation per row and slice,
    and bad arguments are rejected before any draw."""

    @staticmethod
    def _count(monkeypatch, name):
        calls, fn = [], getattr(mc, name)
        monkeypatch.setattr(mc, name, lambda *args: calls.append(args) or fn(*args))
        return calls

    def test_one_amplifier_gain_per_row_and_slice(self, monkeypatch):
        calls = self._count(monkeypatch, "_amp_gain_sq")
        monkeypatch.setattr(mc, "_SLICE", 1024)   # 4096 trials in 4 slices
        mc.estimate_rows(scenario_a(z_gain=0.3, v_gain=0.2),
                         [(1, POWERS), (1, TestSlices.P2)], theta=2.0,
                         mod=mpsk_constants(4), trials=4096, seed=25)
        assert len(calls) == 2 * 4

    def test_repeated_rows_are_scored_once(self, monkeypatch):
        # a row that repeats an earlier (K, powers) pair is not scored again
        # and gets exactly the estimates of that row scored on its own
        sc = scenario_a(z_gain=0.3, v_gain=0.2)
        kw = dict(theta=2.0, mod=mpsk_constants(4), trials=4096, seed=28)
        first, second = (1, POWERS), (1, TestSlices.P2)
        alone = [mc.estimate_rows(sc, [row], **kw)[0] for row in (first, second)]
        calls = self._count(monkeypatch, "_amp_gain_sq")
        monkeypatch.setattr(mc, "_SLICE", 1024)   # 4096 trials in 4 slices
        got = mc.estimate_rows(sc, [first, second, first], **kw)
        assert len(calls) == 2 * 4
        assert got == [alone[0], alone[1], alone[0]]

    def test_one_pair_min_per_relay_row_and_slice(self, monkeypatch):
        calls = self._count(monkeypatch, "_exact_pair_min_b")
        monkeypatch.setattr(mc, "_SLICE", 1024)
        mc.estimate_rows(scenario_b(K=2), [(1, POWERS), (2, POWERS)], theta=2.0,
                         mod=mpsk_constants(2), trials=4096, seed=26)
        assert sorted(args[2] for args in calls) == [0] * 8 + [1] * 4

    def test_scenario_b_sep_is_over_the_end_to_end_sinr(self, monkeypatch):
        # 5,000 trials in slices of 1024, the last one ragged: the SEP sum is
        # the in-order sum of the per-slice sums.  At this seed numpy's
        # pairwise sum over all 5,000 trials gives a different mean.
        sc, mod, n = scenario_b(K=2), mpsk_constants(2), 5_000
        monkeypatch.setattr(mc, "_SLICE", 1024)
        [(oc, sep)] = mc.estimate_rows(sc, [(2, POWERS)], theta=2.0, mod=mod,
                                       trials=n, seed=39)
        sinr = mc.e2e_sinr(mc.draw_gains(sc, seed=39, trials=n), POWERS, sc, "exact")
        kernel = 0.5 * mod.a * erfc(np.sqrt(mod.b * sinr))
        total = sum(kernel[start:start + 1024].sum() for start in range(0, n, 1024))
        assert total / n != kernel.sum() / n
        assert sep.value == total / n
        assert oc.value == np.count_nonzero(sinr < 2.0) / n

    @pytest.mark.parametrize("kw", [
        dict(sinr_kind="approximate"),
        dict(theta=None, mod=None),
        dict(trials=999),
        dict(rows=[(1, POWERS), (0, POWERS)]),
    ], ids=["sinr_kind", "neither_theta_nor_mod", "trials", "zero_relays"])
    def test_bad_arguments_raise_before_any_draw(self, kw, monkeypatch):
        def draw_gains(*args, **kwargs):
            raise AssertionError("gains were drawn")

        monkeypatch.setattr(mc, "draw_gains", draw_gains)
        args = dict(rows=[(1, POWERS)], theta=2.0, mod=mpsk_constants(2),
                    trials=5_000) | kw
        with pytest.raises(ValueError):
            mc.estimate_rows(scenario_a(), **args)


class TestSinr:
    def test_per_draw_bound_scenario_a(self):
        sc = scenario_a(z_gain=0.5, v_gain=0.5)
        draw = mc.draw_gains(sc, seed=3, trials=1_000_000)
        exact = np.minimum(mc.exact_sinr_s1(draw, POWERS),
                           mc.exact_sinr_s2(draw, POWERS))
        bounded = mc.e2e_sinr(draw, POWERS, sc, "bounded")
        assert np.all(bounded >= exact)

    def test_per_draw_bound_scenario_b(self):
        sc = scenario_b()
        draw = mc.draw_gains(sc, seed=4, trials=1_000_000)
        exact = mc.e2e_sinr(draw, POWERS, sc, "exact")
        bounded = mc.e2e_sinr(draw, POWERS, sc, "bounded")
        assert np.all(bounded >= exact)

    def test_no_desired_signal(self):
        sc = scenario_a()
        draw = mc.draw_gains(sc, seed=5, trials=100)
        tiny = PowerProfile(10.0, 1e-12, 12.0, 50.0, 50.0)
        assert mc.exact_sinr_s1(draw, tiny).max() < 1e-9

    def test_exact_sinr_hand_value(self):
        # every gain forced to 1: plug the draw into the formula by hand
        sc = scenario_a()
        draw = {name: np.ones(1) for name, _ in mc.link_table(sc)}
        p = s = r = 10.0
        powers = PowerProfile(p, s, r, 50.0, 50.0)
        g2 = 1.0 / (p + s + s + 1.0)
        expected = (g2 * r * s) / (p + g2 * r * p + g2 * r + 1.0)
        assert mc.exact_sinr_s1(draw, powers)[0] == pytest.approx(expected, rel=1e-12)

    def test_exact_pair_min_matches_term_by_term(self):
        sc = scenario_b(K=2)
        draw = mc.draw_gains(sc, seed=10, trials=5_000)
        p, s, r = POWERS.gamma_bar_p, POWERS.gamma_bar_s, POWERS.gamma_bar_r
        for k in range(2):
            x, w, y = draw[f"x{k}"], draw[f"w{k}"], draw[f"y{k}"]
            g2 = 1.0 / (p * y + s * w + s * x + 1.0)
            num = g2 * r * s * x * w
            s1 = num / (g2 * r * p * y * w + g2 * r * w + 1.0)
            s2 = num / (g2 * r * p * y * x + g2 * r * x + 1.0)
            np.testing.assert_allclose(mc._exact_pair_min_b(draw, POWERS, k),
                                       np.minimum(s1, s2), rtol=1e-12, atol=0.0)

    def test_s2_formulas_match_term_by_term(self):
        # source 2 hears the relay over x, its partner over w and the
        # primary transmitter over v
        sc = scenario_a(z_gain=0.5, v_gain=0.5)
        draw = mc.draw_gains(sc, seed=17, trials=5_000)
        p, s, r = POWERS.gamma_bar_p, POWERS.gamma_bar_s, POWERS.gamma_bar_r
        x, w, y, v = draw["x"], draw["w"], draw["y"], draw["v"]
        g2 = 1.0 / (p * y + s * w + s * x + 1.0)
        exact = g2 * r * s * w * x / (p * v + g2 * r * p * y * x + g2 * r * x + 1.0)
        yn, beta = (r * p / s) * y, r / s
        bounded = r * np.minimum(w / (p * v + yn + beta + 1.0), x / (p * v + 1.0))
        assert np.array_equal(mc.exact_sinr_s2(draw, POWERS), exact)
        assert np.array_equal(mc.bounded_sinr_s2(draw, POWERS), bounded)

    def test_e2e_is_min_of_directions(self):
        sc = scenario_a()
        draw = mc.draw_gains(sc, seed=6, trials=1_000)
        e2e = mc.e2e_sinr(draw, POWERS, sc, "exact")
        direct = np.minimum(mc.exact_sinr_s1(draw, POWERS),
                            mc.exact_sinr_s2(draw, POWERS))
        assert np.array_equal(e2e, direct)

    def test_best_relay_is_max_of_pair_minima(self):
        sc = scenario_b(K=3)
        draw = mc.draw_gains(sc, seed=7, trials=2_000)
        e2e = mc.e2e_sinr(draw, POWERS, sc, "bounded")
        per = np.stack([mc._bounded_pair_min_b(draw, POWERS, k)
                        for k in range(3)])
        assert np.array_equal(e2e, per.max(axis=0))


class TestEstimators:
    def test_outage_boundaries(self):
        sc = scenario_a()
        assert mc.estimate_outage(sc, POWERS, 0.0, trials=2_000, seed=1).value == 0.0
        assert mc.estimate_outage(sc, POWERS, 1e9, trials=2_000, seed=1).value == 1.0

    def test_outage_deterministic(self):
        sc = scenario_a()
        a = mc.estimate_outage(sc, POWERS, 2.0, trials=50_000, seed=5)
        b = mc.estimate_outage(sc, POWERS, 2.0, trials=50_000, seed=5)
        assert (a.value, a.ci_half_width) == (b.value, b.ci_half_width)

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            mc.estimate_outage(scenario_a(), POWERS, 2.0, trials=10)

    def test_bounded_outage_matches_direction_cdf(self):
        # weak direct interference, where the factored cdf is numerically
        # indistinguishable from the bounded-SINR law
        sc, n = scenario_a(), 400_000
        p = np.count_nonzero(mc.bounded_sinr_s1(mc.draw_gains(sc, 11, n), POWERS) < 2.0) / n
        assert abs(p - cdf_scenario_a(_inputs(sc), 2.0)) <= \
            3.0 * 1.96 * math.sqrt(p * (1.0 - p) / n)

    def test_bounded_outage_matches_selection_cdf(self):
        sc = scenario_b(K=2)
        est = mc.estimate_outage(sc, POWERS, 2.0, trials=400_000, seed=12,
                                 sinr_kind="bounded")
        inputs = [_inputs(sc, k) for k in range(2)]
        assert abs(est.value - cdf_scenario_b(inputs, 2, 2.0)) <= \
            3.0 * est.ci_half_width

    def test_exact_outage_dominates_bounded(self):
        sc = scenario_a(z_gain=0.5, v_gain=0.5)
        exact = mc.estimate_outage(sc, POWERS, 2.0, trials=200_000, seed=13,
                                   sinr_kind="exact")
        bounded = mc.estimate_outage(sc, POWERS, 2.0, trials=200_000, seed=13,
                                     sinr_kind="bounded")
        assert exact.value >= bounded.value - 3.0 * exact.ci_half_width

    def test_extra_relay_helps(self):
        two = mc.estimate_outage(scenario_b(K=2), POWERS, 2.0,
                                 trials=200_000, seed=14)
        three = mc.estimate_outage(scenario_b(K=3), POWERS, 2.0,
                                   trials=200_000, seed=14)
        assert three.value <= two.value + 3.0 * two.ci_half_width

    def test_asep_estimator_range_and_determinism(self):
        sc = scenario_a()
        mod = mpsk_constants(4)
        a = mc.estimate_asep(sc, POWERS, mod, trials=50_000, seed=15)
        b = mc.estimate_asep(sc, POWERS, mod, trials=50_000, seed=15)
        assert a.value == b.value
        assert 0.0 < a.value < mod.a / 2.0

    def test_asep_zero_relay_power(self):
        sc = scenario_a()
        mod = mpsk_constants(4)
        dead = PowerProfile(10.0, 8.0, 1e-12, 50.0, 50.0)
        est = mc.estimate_asep(sc, dead, mod, trials=2_000, seed=16)
        assert est.value == pytest.approx(mod.a / 2.0, abs=1e-4)


class TestPrimaryEstimator:
    INPUTS = PrimaryOutageInputs(
        e=L(2, 1.0), f=L(1, 0.8), g=L(2, 1.2), l=L(1, 0.9),
        gamma_bar_p=10.0, gamma_bar_s1=4.0, gamma_bar_s2=6.0,
        gamma_bar_r=5.0, threshold=1.0)

    @pytest.mark.parametrize("scenario", [scenario_a(), scenario_b(K=1)], ids=["a", "b"])
    def test_streams_are_the_link_table_streams(self, scenario):
        # each primary link reads the stream that link_table gives it in a
        # one-relay network (relay 0's for l), so both estimators share draws
        suffix = "" if scenario.scenario is Scenario.A else "0"
        ids = {name: i for i, (name, _) in enumerate(mc.link_table(scenario))}
        for name, stream in mc._PRIMARY_LINK_IDS.items():
            table_name = name + suffix if name == "l" else name
            assert stream == ids[table_name], name

    def test_source_phase_matches_closed_form(self):
        est = mc.estimate_primary_outage(self.INPUTS, trials=400_000, seed=17,
                                         phase="ma")
        assert abs(est.value - primary_outage(self.INPUTS)) <= \
            3.0 * est.ci_half_width

    def test_relay_phase_matches_closed_form(self):
        est = mc.estimate_primary_outage(self.INPUTS, trials=400_000, seed=18,
                                         phase="bc")
        assert abs(est.value - relay_phase_outage(self.INPUTS)) <= \
            3.0 * est.ci_half_width
