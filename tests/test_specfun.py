"""Special-function layer: incomplete gamma, Tricomi U, partial fractions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from cogrelay.errors import NearDegeneratePoles
from cogrelay.specfun import (POLE_SEPARATION_FLOOR, PoleSet, gamma_survival,
                              partial_fractions, tricomi_u,
                              upper_incomplete_gamma_int)


def _direct_product(poles: PoleSet, t: float) -> float:
    out = 1.0
    for loc, mult in poles.poles:
        out *= (t + loc) ** -mult
    return out


def _reconstruct(poles: PoleSet, coeffs, t: float) -> float:
    return sum(c / (t + poles.poles[i][0]) ** j for i, j, c in coeffs)


class TestIncompleteGamma:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.5, 10.0, 40.0])
    def test_series_matches_quadrature(self, n, x):
        ref, _ = quad(lambda t: t ** (n - 1) * math.exp(-t), x, math.inf,
                      epsabs=1e-300, epsrel=1e-13)
        assert upper_incomplete_gamma_int(n, x) == pytest.approx(ref, rel=1e-12)

    def test_survival_matches_scipy(self):
        for m in (1, 2, 3, 4):
            for x in np.linspace(0.01, 12.0, 25):
                assert gamma_survival(m, x) == pytest.approx(
                    gammaincc(m, x), rel=1e-12)

    def test_survival_at_zero_is_one(self):
        assert gamma_survival(3, 0.0) == 1.0

    @given(st.integers(1, 6), st.floats(0.01, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_survival_decreasing_in_threshold(self, m, x):
        assert gamma_survival(m, x) <= gamma_survival(m, x * 0.99) + 1e-15


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

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tricomi_u(np.array([1.5, 0.0]), 0.5, 1.0)
        with pytest.raises(ValueError):
            tricomi_u(1.5, 0.5, -1.0)


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

    def test_poleset_validation(self):
        with pytest.raises(ValueError):
            PoleSet(((0.0, 1),))
        with pytest.raises(ValueError):
            PoleSet(((1.0, 0),))

    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.integers(1, 3)),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, raw):
        poles = PoleSet(tuple(raw))
        if poles.min_relative_separation() <= 0.1:
            return  # well-separated cases only; the floor path is tested above
        coeffs = partial_fractions(poles)
        for t in (0.0, 1.0, 7.3):
            assert _reconstruct(poles, coeffs, t) == pytest.approx(
                _direct_product(poles, t), rel=1e-8)

