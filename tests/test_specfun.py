"""Special-function layer: Tricomi U, partial fractions, the erfc of the
Monte Carlo SEP, and the integer-shape incomplete gamma of the term
engine."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from cogrelay.analytic import _expected_survival
from cogrelay.errors import NearDegeneratePoles
from cogrelay.specfun import (POLE_SEPARATION_FLOOR, PoleSet, erfc_sqrt,
                              partial_fraction_series, partial_fractions, tricomi_u)


def _direct_product(poles: PoleSet, t: float) -> float:
    out = 1.0
    for loc, mult in poles.poles:
        out *= (t + loc) ** -mult
    return out


def _reconstruct(poles: PoleSet, coeffs, t: float) -> float:
    return sum(c / (t + poles.poles[i][0]) ** j for i, j, c in coeffs)


def _partial_fractions_loop(poles: PoleSet) -> list[tuple[int, int, float]]:
    """The expansion one pole set at a time in Python floats: the Taylor
    series of each deflated product as truncated products of lists."""
    out = []
    for i, (alpha_i, n_i) in enumerate(poles.poles):
        series = [1.0] + [0.0] * (n_i - 1)
        for j, (alpha_j, n_j) in enumerate(poles.poles):
            if j == i:
                continue
            d = alpha_j - alpha_i
            fac = [math.comb(n_j + k - 1, k) * (-1.0 / d) ** k * d ** (-n_j)
                   for k in range(n_i)]
            prod = [0.0] * n_i
            for a, pa in enumerate(series):
                if pa == 0.0:
                    continue
                for b, fb in enumerate(fac[:n_i - a]):
                    prod[a + b] += pa * fb
            series = prod
        out += [(i, j, series[n_i - j]) for j in range(1, n_i + 1)]
    return out


class TestIncompleteGamma:
    # the package's integer-shape incomplete gamma is the term engine's
    # factor Q(n, x) = Gamma(n, x) / (n-1)!, here with L = 1
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.5, 10.0, 40.0])
    def test_series_matches_quadrature(self, n, x):
        ref, _ = quad(lambda t: t ** (n - 1) * math.exp(-t), x, math.inf,
                      epsabs=1e-300, epsrel=1e-13)
        assert math.gamma(n) * _expected_survival([(n, x)], 1.0, []) == pytest.approx(
            ref, rel=1e-12)


class TestTricomiU:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        cases = [(0.5, 0.5, 0.3), (1.5, 0.5, 2.0), (2.5, 1.5, 0.7),
                 (3.5, -1.5, 1.2), (0.5, 3.5, 5.0), (10.5, 2.5, 0.05),
                 (4.5, 4.0, 12.0)]
        for a, b, z in cases:
            ref = float(mp.hyperu(a, b, z))
            assert tricomi_u(a, b, z) == pytest.approx(ref, rel=1e-8)

    def test_large_argument_decay(self):
        # U(a, b, z) ~ z^-a for large z
        assert tricomi_u(1.5, 0.5, 1e4) == pytest.approx(1e4 ** -1.5, rel=1e-2)

    def test_positive(self):
        assert tricomi_u(2.5, -0.5, 0.1) > 0.0

    def test_asep_grid_against_mpmath(self):
        # every Psi(s, s+1-j, z) shape the ASEP closed form needs for links
        # of severity x=6, w=5, y=4, z=3, over the range of z that a 0-40 dB
        # primary-SNR sweep of such a network reaches
        mp = pytest.importorskip("mpmath")
        s = np.arange(0.5, 10.0)[:, None, None]
        j = np.arange(1, 10)[None, :, None]
        z = np.geomspace(0.0037, 100.0, 25)
        got = tricomi_u(s, s + 1.0 - j, z)
        assert got.shape == (10, 9, 25)
        with mp.workdps(30):
            ref = np.array([float(mp.hyperu(a, b, zz)) for a, b, zz in zip(
                *(v.ravel() for v in np.broadcast_arrays(s, s + 1.0 - j, z)))])
        assert np.max(np.abs(got.ravel() - ref) / ref) <= 1e-12

    def test_broadcast_shapes(self):
        assert isinstance(tricomi_u(1.5, 0.5, 2.0), float)
        col = tricomi_u(np.array([[0.5], [2.5]]), 1.0, np.array([0.1, 1.0, 10.0]))
        assert col.shape == (2, 3)
        assert col[1, 2] == pytest.approx(tricomi_u(2.5, 1.0, 10.0), rel=1e-15)

    def test_shared_grid_is_bit_identical_to_scalar_calls(self):
        # a and z of shape (G, 1), b of shape (G, J): the (a, z) node work
        # is shared along each row, and every value equals the scalar call
        s = np.array([[0.5], [2.5], [4.5], [9.5]])
        z = np.array([[0.004], [0.3], [7.0], [90.0]])
        b = s + 1.0 - np.arange(1, 10)
        grid = tricomi_u(s, b, z)
        assert grid.shape == (4, 9)
        ref = np.array([[tricomi_u(float(s[g, 0]), float(b[g, i]), float(z[g, 0]))
                         for i in range(9)] for g in range(4)])
        assert np.array_equal(grid, ref)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tricomi_u(np.array([1.5, 0.0]), 0.5, 1.0)
        with pytest.raises(ValueError):
            tricomi_u(1.5, 0.5, -1.0)


class TestErfcSqrt:
    """``erfc_sqrt`` is a port of the Cephes erfc that scipy evaluates, so
    scipy is the reference value by value, and mpmath the exact one."""

    @staticmethod
    def _tail_x():
        # x = sqrt(z) >= 1 across both rational branches, the branch points
        # and the underflow at x^2 = MAXLOG = 709.78 (x = 26.642)
        rng = np.random.default_rng(5)
        return np.concatenate([rng.uniform(1.0, 8.0, 20_000), rng.uniform(8.0, 30.0, 20_000),
                               np.linspace(0.999, 1.001, 401), np.linspace(7.999, 8.001, 401),
                               np.linspace(26.63, 26.66, 401), [1.0, 8.0, 1e3, np.inf]])

    def test_bit_identical_to_scipy_below_one(self):
        rng = np.random.default_rng(4)
        z = np.concatenate([rng.random(100_000), rng.random(1000) * 1e-12,
                            [0.0, 5e-324, np.nextafter(1.0, 0.0)]])
        assert np.array_equal(erfc_sqrt(z), erfc(np.sqrt(z)))

    def test_matches_scipy_at_and_beyond_one(self):
        z = self._tail_x() ** 2
        got, ref = erfc_sqrt(z), erfc(np.sqrt(z))
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() > 30_000
        assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= 1e-15
        # Cephes returns 0 once x^2 exceeds MAXLOG, not a subnormal
        assert (ref == 0.0).sum() > 1000
        assert np.all(got[ref == 0.0] == 0.0)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([np.linspace(0.0, 0.99, 34), np.linspace(0.98, 1.02, 41),
                            np.linspace(1.0, 8.0, 57), np.linspace(7.98, 8.02, 41),
                            np.linspace(8.0, 26.0, 37)])
        z = x * x
        with mp.workdps(50):
            ref = np.array([float(mp.erfc(mp.sqrt(mp.mpf(v)))) for v in z])
        # measured 8.3e-16
        assert np.max(np.abs(erfc_sqrt(z) - ref) / ref) <= 2e-15

    def test_nan_and_shape(self):
        z = np.array([[0.25, np.nan], [4.0, 0.0]])
        got = erfc_sqrt(z)
        assert got.shape == z.shape
        assert np.isnan(got[0, 1]) and got[1, 1] == 1.0
        assert got[0, 0] == erfc(0.5) and got[1, 0] == pytest.approx(erfc(2.0), rel=1e-15)
        assert erfc_sqrt(0.25).shape == ()


class TestPartialFractions:
    def test_reconstruction_random_points(self):
        # Well-separated poles evaluated on the pole scale; clustered sets
        # are rejected by the expansion itself (see the degenerate test).
        rng = np.random.default_rng(0)
        done = 0
        while done < 20:
            n = rng.integers(1, 4)
            locs = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n))
            mults = rng.integers(1, 4, n)
            poles = PoleSet(tuple(zip(locs, mults)))
            if poles.min_relative_separation() <= 0.3:
                continue
            done += 1
            coeffs = partial_fractions(poles)
            for t in rng.uniform(0.0, 1.0, 50):
                direct = _direct_product(poles, t)
                assert _reconstruct(poles, coeffs, t) == pytest.approx(
                    direct, rel=1e-9)

    def test_single_pole_identity(self):
        coeffs = partial_fractions(PoleSet(((2.0, 3),)))
        assert [c for c in coeffs if c[2] != 0.0] == [(0, 3, 1.0)]

    def test_near_degenerate_raises(self):
        with pytest.raises(NearDegeneratePoles):
            partial_fractions(PoleSet(((1.0, 1), (1.0 + 1e-12, 2))))

    def test_bit_identical_to_loop_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            locs = np.exp(rng.uniform(math.log(0.01), math.log(100.0), n))
            poles = PoleSet(zip(locs, rng.integers(1, 10, n)))
            assert partial_fractions(poles) == _partial_fractions_loop(poles)

    def test_batch_rows_match_loop_expansion(self):
        # one batch of 40 multiplicity triples on shared locations
        rng = np.random.default_rng(4)
        locs = (0.2, 1.7, 6.5)
        mults = rng.integers(1, 9, (40, 3))
        series = partial_fraction_series(locs, mults)
        for row, ms in zip(series, mults.tolist()):
            got = [(i, j, row[i, n - j]) for i, n in enumerate(ms)
                   for j in range(1, n + 1)]
            assert got == _partial_fractions_loop(PoleSet(zip(locs, ms)))

    def test_poleset_validation(self):
        with pytest.raises(ValueError):
            PoleSet(((0.0, 1),))
        with pytest.raises(ValueError):
            PoleSet(((1.0, 0),))

    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.integers(1, 3)),
                    min_size=1, max_size=3))
    # separation 0.111: reassembling the fractions at t = 7.3 cancels by
    # 2.6e10, so a float reconstruction is 5.6e-7 off although every
    # coefficient is right to 1e-15
    @example([(1.0, 1), (0.5, 2), (0.5625, 3)])
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, raw):
        mp = pytest.importorskip("mpmath")
        poles = PoleSet(tuple(raw))
        if poles.min_relative_separation() <= 0.1:
            return  # well-separated cases only; the floor path is tested above
        coeffs = partial_fractions(poles)
        with mp.workdps(50):
            locs = [mp.mpf(loc) for loc, _ in poles.poles]
            ref = []
            for i, j, _ in coeffs:
                # A_{i,j} = D^{n_i-j}[prod_{k != i} (t + alpha_k)^{-n_k}] / (n_i-j)!
                # at t = -alpha_i
                n_i = poles.poles[i][1]
                rest = lambda t: mp.fprod((t + locs[k]) ** -n for k, (_, n)
                                          in enumerate(poles.poles) if k != i)
                ref.append(float(mp.diff(rest, -locs[i], n_i - j) / mp.factorial(n_i - j)))
        scale = max(map(abs, ref))
        for (_, _, got), want in zip(coeffs, ref):
            # a coefficient that is exactly zero is judged on the scale of the set
            assert abs(got - want) <= 1e-12 * (abs(want) if got else scale)
