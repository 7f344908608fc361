"""Independent brute-force validators for the closed forms.

Everything here evaluates the underlying expectation integrals directly
with adaptive quadrature over the Gamma densities (scipy's regularized
incomplete gamma for the cdf and survival).  The outage oracles share no
code with the closed forms.  ``asep_oracle`` is the exception: by default
its inner cdf is the closed-form ``cdf_scenario_a``, so it checks the
kernel integration only; ``use_oracle_cdf=True`` swaps in the quadrature
cdf.  These routines exist for tests and acceptance runs; speed is not a
goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from .errors import NonConvergence
from .model import ModulationSpec
from .analytic import PrimaryOutageInputs, SecondaryCdfInputs, cdf_scenario_a

__all__ = [
    "QuadratureSpec",
    "primary_outage_oracle",
    "relay_phase_outage_oracle",
    "cdf_oracle_scenario_a",
    "cdf_oracle_scenario_a_e2e",
    "asep_oracle",
    "selection_oracle",
]


@dataclass(frozen=True)
class QuadratureSpec:
    relative_tolerance: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (0.0 < self.relative_tolerance <= 1e-3):
            raise ValueError("relative_tolerance must lie in (0, 1e-3]")


def _quad(f, lo, hi, spec: QuadratureSpec) -> float:
    val, err, info, *rest = quad(
        f, lo, hi,
        epsabs=spec.relative_tolerance * 1e-3,
        epsrel=spec.relative_tolerance,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    if rest:  # quad appends a message (and possibly more) on failure
        raise NonConvergence(f"quadrature did not converge: {rest[0]}")
    return val


def _gamma_pdf(t, m, mean):
    rate = m / mean
    return math.exp(m * math.log(rate) + (m - 1) * math.log(t) - rate * t
                    - math.lgamma(m))


def _gamma_sf(m, mean, t):
    """Pr{G > t} for G ~ Gamma(shape m, mean ``mean``)."""
    return gammaincc(m, m * t / mean)


def _gamma_cdf(m, mean, t):
    return gammainc(m, m * t / mean)


def primary_outage_oracle(inputs: PrimaryOutageInputs,
                          spec: QuadratureSpec = QuadratureSpec()) -> float:
    """2-D quadrature of E_{F,G}[F_E(theta/gp * (gs1 F + gs2 G + 1))]."""
    th, gp = inputs.threshold, inputs.gamma_bar_p
    s1, s2 = inputs.gamma_bar_s1, inputs.gamma_bar_s2
    e, f, g = inputs.e, inputs.f, inputs.g

    def inner(fv):
        def h(gv):
            t = th / gp * (s1 * fv + s2 * gv + 1.0)
            return (1.0 - _gamma_sf(e.m, e.mean_gain, t)) * _gamma_pdf(gv, g.m, g.mean_gain)
        return _quad(h, 0.0, math.inf, spec) * _gamma_pdf(fv, f.m, f.mean_gain)

    return _quad(inner, 0.0, math.inf, spec)


def relay_phase_outage_oracle(inputs: PrimaryOutageInputs,
                              spec: QuadratureSpec = QuadratureSpec()) -> float:
    """1-D quadrature of E_L[F_E(theta/gp * (gr L + 1))]."""
    th, gp, gr = inputs.threshold, inputs.gamma_bar_p, inputs.gamma_bar_r
    e, l = inputs.e, inputs.l

    def h(lv):
        t = th / gp * (gr * lv + 1.0)
        return (1.0 - _gamma_sf(e.m, e.mean_gain, t)) * _gamma_pdf(lv, l.m, l.mean_gain)

    return _quad(h, 0.0, math.inf, spec)


def _scaled_means(inp: SecondaryCdfInputs):
    """Means of the normalized interference variables Y, Z, V."""
    gp, gs, gr = inp.gamma_bar_p, inp.gamma_bar_s, inp.gamma_bar_r
    mean_y = gr * gp / gs * inp.y.mean_gain
    mean_z = gp * inp.z.mean_gain
    mean_v = gp * inp.v.mean_gain
    return mean_y, mean_z, mean_v


def cdf_oracle_scenario_a(inputs: SecondaryCdfInputs, theta: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Quadrature of 1 - chi1 * chi2 from the defining expectations."""
    if theta == 0.0:
        return 0.0
    gr, gs = inputs.gamma_bar_r, inputs.gamma_bar_s
    beta = gr / gs
    mean_y, mean_z, _ = _scaled_means(inputs)
    x, w, y, z = inputs.x, inputs.w, inputs.y, inputs.z

    def chi1_inner(zv):
        def h(yv):
            t = (zv + yv + beta + 1.0) * theta / gr
            return _gamma_sf(x.m, x.mean_gain, t) * _gamma_pdf(yv, y.m, mean_y)
        return _quad(h, 0.0, math.inf, spec) * _gamma_pdf(zv, z.m, mean_z)

    chi1 = _quad(chi1_inner, 0.0, math.inf, spec)

    def chi2_int(zv):
        t = (zv + 1.0) * theta / gr
        return _gamma_sf(w.m, w.mean_gain, t) * _gamma_pdf(zv, z.m, mean_z)

    chi2 = _quad(chi2_int, 0.0, math.inf, spec)
    return 1.0 - chi1 * chi2


def survival_side_oracle(inputs: SecondaryCdfInputs, theta: float,
                         spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Quadrature of E[Pr{X > max(Z + Y + beta + 1, V + 1) theta / gr}],
    one directional factor of the end-to-end survival product."""
    gr, gs = inputs.gamma_bar_r, inputs.gamma_bar_s
    beta = gr / gs
    mean_y, mean_z, mean_v = _scaled_means(inputs)
    x, y, z, v = inputs.x, inputs.y, inputs.z, inputs.v
    inner_spec = QuadratureSpec(max(spec.relative_tolerance, 1e-10),
                                spec.max_subdivisions)

    def tail(u):
        # int_u^inf Pr{X > (vv+1) theta/gr} f_V(vv) dvv
        def h(vv):
            t = (vv + 1.0) * theta / gr
            return _gamma_sf(x.m, x.mean_gain, t) * _gamma_pdf(vv, v.m, mean_v)
        return _quad(h, u, math.inf, inner_spec)

    def outer(zv):
        def h(yv):
            u = zv + yv + beta
            t = (u + 1.0) * theta / gr
            part = (_gamma_sf(x.m, x.mean_gain, t) * _gamma_cdf(v.m, mean_v, u)
                    + tail(u))
            return part * _gamma_pdf(yv, y.m, mean_y)
        return _quad(h, 0.0, math.inf, inner_spec) * _gamma_pdf(zv, z.m, mean_z)

    return _quad(outer, 0.0, math.inf, inner_spec)


def cdf_oracle_scenario_a_e2e(inputs: SecondaryCdfInputs, theta: float,
                              spec: QuadratureSpec = QuadratureSpec()) -> float:
    """1 - product of the two directional survival factors (same
    independence approximation as the closed form, evaluated by
    quadrature)."""
    if theta == 0.0:
        return 0.0
    return 1.0 - (survival_side_oracle(inputs, theta, spec)
                  * survival_side_oracle(inputs.swapped(), theta, spec))


def asep_oracle(inputs: SecondaryCdfInputs, mod: ModulationSpec,
                spec: QuadratureSpec = QuadratureSpec(),
                use_oracle_cdf: bool = False) -> float:
    """Quadrature of the kernel average
    a*sqrt(b)/(2 sqrt(pi)) int_0^inf e^{-b g} g^{-1/2} F(g) dg with the
    substitution g = u^2.  ``use_oracle_cdf`` selects the quadrature cdf
    instead of the closed form for the inner F."""
    a, b = mod.a, mod.b
    if use_oracle_cdf:
        inner_spec = QuadratureSpec(1e-8, spec.max_subdivisions)

        def F(g):
            return cdf_oracle_scenario_a(inputs, g, inner_spec)
    else:
        def F(g):
            return cdf_scenario_a(inputs, g)

    def h(u):
        return math.exp(-b * u * u) * F(u * u)

    val = _quad(h, 0.0, math.inf, spec)
    return a * math.sqrt(b) / math.sqrt(math.pi) * val


def selection_oracle(per_relay_inputs: list[SecondaryCdfInputs], K: int,
                     theta: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Best-relay outage by quadrature: per-relay pair cdf over the Y
    density, multiplied across independent relays."""
    if K > 4:
        raise ValueError("oracle is limited to K <= 4")
    if len(per_relay_inputs) != K:
        raise ValueError("need one input set per relay")
    if theta == 0.0:
        return 0.0
    prod = 1.0
    for inp in per_relay_inputs:
        gr, gs = inp.gamma_bar_r, inp.gamma_bar_s
        beta = gr / gs
        mean_y = gr * inp.gamma_bar_p / gs * inp.y.mean_gain
        x, w, y = inp.x, inp.w, inp.y

        def h(yv):
            t = (yv + beta + 1.0) * theta / gr
            return (_gamma_sf(x.m, x.mean_gain, t)
                    * _gamma_sf(w.m, w.mean_gain, t)
                    * _gamma_pdf(yv, y.m, mean_y))

        prod *= 1.0 - _quad(h, 0.0, math.inf, spec)
    return prod
