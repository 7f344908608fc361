"""Independent validators for the closed forms, on fixed Gauss rules.

Each oracle evaluates its defining expectation over the Gamma-distributed
gains directly, as a tensor contraction over one fixed rule per gain, with
the signal gains X and W kept as scipy's regularized incomplete gamma
survivals.  The rule for E[h(G)], G ~ Gamma(m, rate b), is generalized
Gauss-Laguerre (Golub & Welsch, Math. Comp. 23, 1969) at rate b + c,
where c is the exponential rate of the survival factor that h carries:
it is exact when h(t) e^{ct} is a polynomial of degree below twice the
node count, which every integer-order survival Q(m, c(t + k)) is.

The secondary oracles take theta as the closed forms do, through one rule
(``_secondary``, ``_at``): a float, or an array whose axes lead the rules'
node axes, with the value elementwise (0 where theta = 0 for the cdfs; a
float for a float), and a negative, NaN or infinite theta raises ValueError.

Every oracle is its definition, ``asep_oracle`` included (its inner cdf is
``cdf_oracle_scenario_a``), and takes nothing from :mod:`cogrelay.analytic`
but the two input records.  These routines exist for tests and the
self-check.  For Scenario (a) they evaluate the closed forms' products of
expectations, not the joint bounded-SINR laws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc, roots_genlaguerre, roots_legendre

from .model import ModulationSpec
from .analytic import PrimaryOutageInputs, SecondaryCdfInputs

__all__ = [
    "primary_outage_oracle",
    "relay_phase_outage_oracle",
    "cdf_oracle_scenario_a",
    "survival_side_oracle",
    "cdf_oracle_scenario_a_e2e",
    "asep_oracle",
    "selection_oracle",
]

_NODES = 48  # Gauss-Laguerre nodes per gain

# The kernel average's rule in u = sqrt(g): Gauss-Legendre on the panels
# [u_top 4^-k-1, u_top 4^-k], k < _PANELS - 1, and [0, u_top 4^(1-_PANELS)],
# where b u_top^2 = _KERNEL_TOP puts e^{-b u^2} far below double precision.
_PANELS, _PANEL_NODES, _PANEL_RATIO, _KERNEL_TOP = 20, 20, 4.0, 100.0


def _gamma_rule(m: int, rate: float, tilt):
    """Nodes t and weights w with sum(w h(t)) = E[h(G)], G ~ Gamma(m, rate),
    exact when h(t) e^{tilt t} is a polynomial of degree < 2 _NODES.  The
    nodes lie along a last axis after the axes of an array ``tilt``."""
    x, wt = roots_genlaguerre(_NODES, m - 1)
    s = rate + np.asarray(tilt, dtype=float)[..., None]
    t = x / s
    return t, wt * np.exp(m * np.log(rate / s) + (s - rate) * t - math.lgamma(m))


def _secondary(inp: SecondaryCdfInputs, theta):
    """The oracles' theta rule: theta as an array (a negative, NaN or
    infinite entry raises), beta, the Gamma rates (by, bz, bv) of the
    normalized interference Y, Z and V (None for a link Scenario (b)
    lacks), and the survival rates cx, cw of X and W."""
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta < math.inf)):
        raise ValueError("theta must be nonnegative and finite")
    gp, gs, gr = inp.gamma_bar_p, inp.gamma_bar_s, inp.gamma_bar_r
    rates = (inp.y.rate * gs / (gr * gp),
             *(None if link is None else link.rate / gp for link in (inp.z, inp.v)))
    return theta, gr / gs, rates, inp.x.rate * theta / gr, inp.w.rate * theta / gr


def _at(theta, value, at_zero: float = 0.0):
    """``value``, and ``at_zero`` where theta = 0; a float for a float theta."""
    value = np.where(theta > 0.0, value, at_zero)
    return float(value) if value.ndim == 0 else value


def primary_outage_oracle(inputs: PrimaryOutageInputs) -> float:
    """E_{F,G}[F_E(theta/gp * (gs1 F + gs2 G + 1))], a 2-D rule over (F, G)."""
    e, s1, s2 = inputs.e, inputs.gamma_bar_s1, inputs.gamma_bar_s2
    c = e.rate * inputs.threshold / inputs.gamma_bar_p
    f, wf = _gamma_rule(inputs.f.m, inputs.f.rate, c * s1)
    g, wg = _gamma_rule(inputs.g.m, inputs.g.rate, c * s2)
    return float(1.0 - wf @ gammaincc(e.m, c * (s1 * f[:, None] + s2 * g + 1.0)) @ wg)


def relay_phase_outage_oracle(inputs: PrimaryOutageInputs) -> float:
    """E_L[F_E(theta/gp * (gr L + 1))], a 1-D rule over L."""
    e, gr = inputs.e, inputs.gamma_bar_r
    c = e.rate * inputs.threshold / inputs.gamma_bar_p
    l, wl = _gamma_rule(inputs.l.m, inputs.l.rate, c * gr)
    return float(1.0 - wl @ gammaincc(e.m, c * (gr * l + 1.0)))


def cdf_oracle_scenario_a(inputs: SecondaryCdfInputs, theta):
    """1 - chi1 * chi2 from the defining expectations: chi1 = E_{Y,Z}[Q_X((Z
    + Y + beta + 1) theta/gr)] is a 2-D rule over (Y, Z), chi2 = E_Z[Q_W((Z
    + 1) theta/gr)] a 1-D rule over Z."""
    theta, beta, (by, bz, _), cx, cw = _secondary(inputs, theta)
    y, wy = _gamma_rule(inputs.y.m, by, cx)
    z, wz = _gamma_rule(inputs.z.m, bz, cx)
    qx = gammaincc(inputs.x.m, cx[..., None, None] * (y[..., :, None] + z[..., None, :] + beta + 1.0))
    chi1 = np.einsum("...i,...ij,...j->...", wy, qx, wz)
    z, wz = _gamma_rule(inputs.z.m, bz, cw)
    chi2 = np.sum(wz * gammaincc(inputs.w.m, cw[..., None] * (z + 1.0)), axis=-1)
    return _at(theta, 1.0 - chi1 * chi2)


def survival_side_oracle(inputs: SecondaryCdfInputs, theta):
    """E[Pr{X > max(Z + Y + beta + 1, V + 1) theta / gr}], one directional
    factor of the end-to-end survival product (exactly 1 at theta = 0),
    split at V = L with L = Z + Y + beta: the head Q_X(L + 1) Pr{V <= L}
    plus the tail E[Q_X(V + 1); V > L], a rule in u = V - L at rate
    bv + cx, both under a 2-D rule over (Y, Z).  The tail holds a 48^3
    tensor per theta, so the elements of a theta array go through one at a time."""
    if np.ndim(theta):
        theta = np.asarray(theta, dtype=float)
        return np.reshape([survival_side_oracle(inputs, t) for t in theta.ravel().tolist()],
                          theta.shape)
    theta, beta, (by, bz, bv), cx, _ = _secondary(inputs, theta)
    mx, mv = inputs.x.m, inputs.v.m
    y, wy = _gamma_rule(inputs.y.m, by, cx)
    z, wz = _gamma_rule(inputs.z.m, bz, cx)
    lv = y[:, None] + z + beta
    head = gammaincc(mx, cx * (lv + 1.0)) * gammainc(mv, bv * lv)
    # f_V(L + u) = e^{-bv u} bv (bv (L + u))^{mv-1} e^{-bv L} / (mv-1)!, an
    # exponential density in u times the factor the rule's h carries
    u, wu = _gamma_rule(1, bv, cx)
    v = lv[..., None] + u
    density = np.exp((mv - 1) * np.log(bv * v) - bv * lv[..., None] - math.lgamma(mv))
    tail = np.sum(density * gammaincc(mx, cx * (v + 1.0)) * wu, axis=-1)
    return _at(theta, np.einsum("i,ij,j->", wy, head + tail, wz), 1.0)


def cdf_oracle_scenario_a_e2e(inputs: SecondaryCdfInputs, theta):
    """1 - product of the two directional survival factors (the same
    independence approximation as the closed form)."""
    return 1.0 - (survival_side_oracle(inputs, theta)
                  * survival_side_oracle(inputs.swapped(), theta))


def asep_oracle(inputs: SecondaryCdfInputs, mod: ModulationSpec) -> float:
    """The kernel average a*sqrt(b)/(2 sqrt(pi)) int_0^inf e^{-b g} g^{-1/2}
    F(g) dg = a sqrt(b/pi) int_0^inf e^{-b u^2} F(u^2) du of the direction
    cdf F = ``cdf_oracle_scenario_a``, by composite Gauss-Legendre on
    geometric panels in u."""
    a, b = mod.a, mod.b
    x, w = roots_legendre(_PANEL_NODES)
    edges = math.sqrt(_KERNEL_TOP / b) * _PANEL_RATIO ** np.arange(-_PANELS, 1.0)
    edges[0] = 0.0
    half = np.diff(edges)[:, None] / 2.0
    u = half * x + (edges[:-1, None] + half)
    F = cdf_oracle_scenario_a(inputs, u * u)
    return a * math.sqrt(b / math.pi) * float(np.sum(half * w * np.exp(-b * u * u) * F))


def selection_oracle(per_relay_inputs: list[SecondaryCdfInputs], theta):
    """Best-relay outage over one or more relays: per relay, the pair
    survival E_Y[Q_X Q_W] with both survivals at (Y + beta + 1) theta / gr
    is a 1-D rule over Y at rate by + cx + cw; the relays are independent,
    so their cdfs multiply."""
    if not per_relay_inputs:
        raise ValueError("selection_oracle takes at least one relay")
    prod = 1.0
    for inp in per_relay_inputs:
        theta, beta, (by, _, _), cx, cw = _secondary(inp, theta)
        y, wy = _gamma_rule(inp.y.m, by, cx + cw)
        s = y + beta + 1.0
        pair = gammaincc(inp.x.m, cx[..., None] * s) * gammaincc(inp.w.m, cw[..., None] * s)
        prod = prod * (1.0 - np.sum(wy * pair, axis=-1))
    return _at(theta, prod)
