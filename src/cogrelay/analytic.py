"""Closed-form outage and symbol-error expressions.

Every finite-sum closed form here is built from one expectation,
E[prod_f Q_f(c_f L)], where Q_f is the integer-shape Gamma survival (or a
positively weighted truncated exponential series) and
L = kappa + sum_i a_i G_i is a sum of independent Gamma gains: the two
primary outages, chi1 and chi2 of Scenario (a), the end-to-end side
survival of Scenario (a) (split on V) and the relay-pair survival of
Scenario (b) are calls of one term engine, ``_expected_survival``, whose
terms come from the multinomial theorem and the Gamma Laplace transform.
Every input of the engine broadcasts (the scales, kappa, the gain rates
and the series weights) and each element is contracted on its own, so a
whole sweep is one engine call; only the ASEP kernel rule contracts each
row's nodes at once (``_node_survival``).  One lattice solver, ``_solve``,
finds every regulated power of a sweep at once, and each closed form the
sweep reports takes one link set with float SNRs or 1-D arrays of them
(one row each) and returns a float or an array.  The three secondary cdfs take
``(inputs, theta)`` and share one theta rule, ``_cdf``: theta is a float
or an array broadcast against the rows as numpy broadcasts, the value is
elementwise (0 where theta = 0; a float for a float and float SNRs), and
a negative, NaN or infinite theta raises ValueError.  The printed forms
in the source material contain transcription slips, so every function is
assembled directly from the underlying expectation integrals; the quadrature
oracles in :mod:`cogrelay.oracle` and the Monte Carlo engine arbitrate.

Terms are put together in the log domain, so integer severities up to ~8
and SNRs up to ~40 dB stay well inside double range.  The engine's terms
are all positive and each element's are added by numpy's pairwise sum,
whatever the shape of the call: a point, the rows of a sweep, the nodes
of the kernel rule or the powers of the solve.  Its error, O(log n)
roundings, is below that of the terms' own exp and log; only the ASEP
closed form, whose terms cancel, keeps a compensated sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, fsum, lgamma, log

import numpy as np

from .errors import Infeasible, NearDegeneratePoles, NumericalInstability
from .model import FadingLink, ModulationSpec
from .specfun import de_rule, partial_fraction_series, tricomi_u

__all__ = [
    "PrimaryOutageInputs",
    "SecondaryCdfInputs",
    "AsepResult",
    "primary_outage",
    "relay_phase_outage",
    "solve_secondary_source_power",
    "solve_relay_power",
    "solve_power_lattice",
    "cdf_scenario_a",
    "cdf_scenario_a_e2e",
    "cdf_scenario_b",
    "asep_scenario_a",
    "asep_kernel_scenario_a",
]

# Probabilities may overshoot [0, 1] by at most this much before we call
# the evaluation unstable.
CLAMP_TOL = 1e-12

# Largest cancellation ratio sum|term| / |sum term| of the ASEP closed
# form that is trusted.  Its roundoff error is about ratio x 1e-16, so
# this limit keeps ~1e-11 accuracy; above it asep_scenario_a returns
# asep_kernel_scenario_a instead.
CANCELLATION_LIMIT = 1e5

# Double-exponential rule of asep_kernel_scenario_a: the 173 nodes u >= -4.5
# (k >= -72) of de_rule(1/16, 100); at h = 1/8 the kernel is off by 3e-10.
# In x = ln g the integrand e^{-b g} g^{1/2} chi1 chi2 is at most g^{1/2}, so
# the 28 nodes u < -4.5 add at most 1.0e-21 sqrt(g0) (g0 the centre) to a
# kernel of at least 2 e^{-1/2} sqrt(g0) chi1 chi2(g0), at every m and SNR,
# and they push the engine's exp below -745, off numpy's vector path.  The
# right tail, (mu g)^{mx+mw} e^{-mu g}, needs u up to ~5.3 at m = 8.
_KERNEL_OFFSETS, _KERNEL_WEIGHTS = (a[100 - 72:] for a in de_rule(1.0 / 16.0, 100))

# Largest temporary of asep_kernel_scenario_a, in floats: the terms of
# chi1 or chi2 over a block of rows x 173 nodes, each row's from one matrix
# product.  2**15 (256 KB) sets each factor's block: on analytic_highm 3
# rows for chi1 (56 terms) and 12 for chi2 (15), on example.cfg 18 and 63.
_KERNEL_FLOATS = 2 ** 15

# Stands in for log 0 in the term engine: times an exponent 0 it adds 0
# (0**0 = 1), times a positive one, or as the log of a zero weight, it
# makes the term's exp exactly 0.
_LOG_ZERO = -1e300


@dataclass(frozen=True)
class PrimaryOutageInputs:
    """Symbols of the primary outage constraint: the four links into the
    primary receiver, the transmit SNRs, and the SINR threshold."""

    e: FadingLink          # PT -> PX
    f: FadingLink          # S1 -> PX
    g: FadingLink          # S2 -> PX
    l: FadingLink          # R  -> PX
    gamma_bar_p: float
    gamma_bar_s1: float
    gamma_bar_s2: float
    gamma_bar_r: float
    threshold: float       # gamma_th = 2^R_P - 1, linear

    def __post_init__(self):
        if not (self.gamma_bar_p > 0.0):
            raise ValueError("gamma_bar_p must be positive")
        for name in ("gamma_bar_s1", "gamma_bar_s2", "gamma_bar_r", "threshold"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class SecondaryCdfInputs:
    """Symbols of the secondary SINR cdf: secondary links, interference
    links and transmit SNRs.  The SNRs are floats, or arrays of one shape
    whose elements are the rows of a lattice (1-D for the closed forms,
    which then return one value per row)."""

    x: FadingLink          # R  <-> S2
    w: FadingLink          # R  <-> S1
    y: FadingLink          # PT -> R
    z: FadingLink | None   # PT -> S1 (None in Scenario (b))
    v: FadingLink | None   # PT -> S2 (None in Scenario (b))
    gamma_bar_p: float | np.ndarray
    gamma_bar_s: float | np.ndarray
    gamma_bar_r: float | np.ndarray

    def __post_init__(self):
        for name in _POWERS:
            if not np.all(np.greater(getattr(self, name), 0.0)):
                raise ValueError(f"{name} must be positive")

    def swapped(self) -> "SecondaryCdfInputs":
        """Parameter binding for the opposite direction (S2 receiving):
        x <-> w and z <-> v."""
        return replace(self, x=self.w, w=self.x, z=self.v, v=self.z)


_POWERS = ("gamma_bar_p", "gamma_bar_s", "gamma_bar_r")


def _raised(lattice_result) -> float:
    """The value of a one-row lattice result, or raise its error."""
    (value,), (error,) = lattice_result
    if error is not None:
        raise error
    return float(value)


def _frozen(*columns) -> tuple[np.ndarray, ...]:
    """Read-only C-ordered float arrays of ``columns``, safe to share from a
    cache (on an F-ordered term table the engine's matmul sums differently)."""
    out = tuple(np.asarray(c, dtype=float, order="C") for c in columns)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _term_table(orders: tuple[int, ...], shapes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Terms of ``_expected_survival`` for factor orders m_f and gain shapes
    m_i: per term the exponents (n_f..., j_i..., m_i..., 1) of the logs
    that a call forms, and the theta-free log constant
    ln[C(N; j_0, j...) Gamma(m_i+j_i)... / (n_f!... Gamma(m_i)...)] with
    N = sum n_f and j_0 = N - sum j_i.  Rows run over n (first factor
    slowest), then over the j_i lexicographically; each constant is summed
    left to right as written, the multinomial as nested binomials, from
    tables of ln C(n, j) and ln k! gathered column by column."""
    top = sum(orders) - len(orders)
    ns, js = (np.indices(d).reshape(len(d), math.prod(d))
              for d in (orders, (top + 1,) * len(shapes)))
    at, pick = np.nonzero(js.sum(axis=0) <= ns.sum(axis=0)[:, None])
    ns, js, rest = ns[:, at], js[:, pick], ns.sum(axis=0)[at]
    # ln C(n, j), 0 where j > n (never gathered)
    log_comb = np.array([[log(max(comb(n, j), 1)) for j in range(top + 1)] for n in range(top + 1)])
    log_fact = np.array([lgamma(k + 1) for k in range(max(shapes, default=0) + top + 1)])
    const = np.zeros(at.size)
    for j in js:
        const += log_comb[rest, j]
        rest -= j
    for n in ns:
        const -= log_fact[n]
    for m, j in zip(shapes, js):
        const += log_fact[m + j - 1]
        const -= log_fact[m - 1]
    rows = np.column_stack([ns.T, js.T, np.broadcast_to((*shapes, 1), (at.size, len(shapes) + 1))])
    return _frozen(rows, const)


def _expected_survival(factors, kappa, gains):
    """E[prod_f Q_f(c_f L)] for L = kappa + sum_i a_i G_i, where each Q_f is
    the integer-shape Gamma survival Q(m, x) = e^{-x} sum_{n<m} x^n/n! or a
    weighted series e^{-x} sum_{n<N} w_n x^n/n! (w_n >= 0), and the
    G_i ~ Gamma(m_i, rate b_i) are independent.  ``factors`` holds the
    pairs (m_f, c_f), or (w_f, c_f) with w_f the N weights along a last
    axis (Q(m, x) is the case w = (1,)*m), and ``gains`` the triples (m_i,
    a_i, b_i).
    kappa > 0, the c_f, a_i and b_i and the leading axes of the w_f are
    scalars or arrays broadcast to one shape, over which the result is
    elementwise.

    With s = sum c_f, (c_f L)^{n_f} = (c_f kappa)^{n_f} (1 + sum_i a_i G_i /
    kappa)^{n_f}, the multinomial theorem and E[G^j e^{-s a G}] =
    b^m Gamma(m+j) / (Gamma(m) (b + s a)^{m+j}) make every term
    e^{-s kappa} times powers of c_f kappa, a_i / (kappa (b_i + s a_i)) and
    b_i / (b_i + s a_i) times a constant, to which the weights add
    sum_f ln w_f[n_f]: in the log domain a product with the tabled
    exponents, where log 0 is floored so that 0**0 = 1 (a_i = 0 keeps its
    j_i = 0 terms) and a zero weight drops its terms; each element has its
    own vector-matrix product and its own pairwise sum of terms, so its
    value does not depend on the others.  A 0-d result is a float.  Only
    ``asep_kernel_scenario_a`` contracts a whole node axis at once, through
    ``_node_survival``; every other caller takes this per-element product.
    """
    total = _survival_terms(factors, kappa, gains).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _survival_terms(factors, kappa, gains):
    """The positive terms that ``_expected_survival`` adds, along a last
    axis after the broadcast shape of its inputs."""
    logs, expo, const = _survival_logs(factors, kappa, gains)
    terms = np.matmul(logs[..., None, :], expo.T)[..., 0, :]
    terms += const
    np.exp(terms, out=terms)
    return terms


def _node_survival(factors, kappa, gains):
    """``_expected_survival`` for inputs that broadcast to (rows, nodes),
    with each row's terms over all its nodes from one (nodes x k)(k x
    terms) matrix product: a row's value depends on the node count, never
    on the row count (one product over rows x nodes would round by it)."""
    logs, expo, const = _survival_logs(factors, kappa, gains)
    terms = np.matmul(logs, expo.T)
    terms += const
    np.exp(terms, out=terms)
    return terms.sum(axis=-1)


def _table(factors, gains) -> tuple[np.ndarray, ...]:
    """The ``_term_table`` of one engine call's ``factors`` and ``gains``."""
    return _term_table(tuple(m if isinstance(m, int) else np.shape(m)[-1] for m, _ in factors),
                       tuple(m for m, _, _ in gains))


def _survival_logs(factors, kappa, gains):
    """Per element of the engine's broadcast shape, the logs to contract
    with the exponent table, along a last axis; with the table and the
    log constants (weights added) of its terms."""
    cs = [c for _, c in factors]
    s = sum(cs)
    expo, const = _table(factors, gains)
    for f, (w, _) in enumerate(factors):
        if not isinstance(w, int):
            w = np.asarray(w, dtype=float)
            log_w = np.log(w, out=np.full(w.shape, _LOG_ZERO), where=w > 0.0)
            const = const + log_w[..., expo[:, f].astype(np.intp)]
    cols = [*(c * kappa for c in cs), *(a / (kappa * (b + s * a)) for _, a, b in gains),
            *(b / (b + s * a) for _, a, b in gains)]
    x = np.empty((*np.broadcast_shapes(*map(np.shape, cols), const.shape[:-1]), len(cols)))
    for i, col in enumerate(cols):
        x[..., i] = col
    logs = np.full((*x.shape[:-1], x.shape[-1] + 1), _LOG_ZERO)
    np.log(x, out=logs[..., :-1], where=x > 0.0)
    logs[..., -1] = -s * kappa
    return logs, expo, const


def _clamped(value, high: float, slack: float, error: str):
    """``value`` clipped to [0, high] elementwise, a float for a float; if
    an element is off [-CLAMP_TOL, high + slack] (NaN included), raise
    NumericalInstability(``error`` % the first such element)."""
    value = np.asarray(value)
    if off := value[~((-CLAMP_TOL <= value) & (value <= high + slack))].tolist():
        raise NumericalInstability(error % (off[0],))
    out = np.clip(value, 0.0, high)
    return float(out) if out.ndim == 0 else out


def _clamp_probability(p, where: str):
    return _clamped(p, 1.0, CLAMP_TOL, where + ": probability %r outside [0,1] beyond tolerance")


def _asep_value(kernel, mod: ModulationSpec, where: str):
    """a/2 - a sqrt(b) / (2 sqrt(pi)) * kernel, clamped to [0, a/2] elementwise."""
    value = mod.a / 2.0 - mod.a * math.sqrt(mod.b) / (2.0 * math.sqrt(math.pi)) * kernel
    return _clamped(value, mod.a / 2.0, 1e-9, where + ": value %r outside [0, a/2]")


# ---------------------------------------------------------------------------
# Primary network
# ---------------------------------------------------------------------------

def _outage(e: FadingLink, gamma_bar_p, threshold: float, interferers):
    """1 - E[Q(m_e, c (1 + sum_i snr_i G_i))], c = m_e threshold /
    (Omega_e gamma_bar_p): the outage of primary link ``e`` at SINR
    ``threshold`` against the ``interferers``, pairs (link, SNR); the SNRs
    and gamma_bar_p are scalars or arrays, as in ``_expected_survival``."""
    c = e.m * threshold / (e.mean_gain * gamma_bar_p)
    return 1.0 - _expected_survival([(e.m, c)], 1.0,
                                    [(link.m, snr, link.rate) for link, snr in interferers])


def primary_outage(inputs: PrimaryOutageInputs) -> float:
    """Outage probability of the primary receiver in the multiple-access
    phase, where both secondary sources interfere:
    E_{F,G}[F_E(theta/gp * (gs1 F + gs2 G + 1))]."""
    return _clamp_probability(_outage(inputs.e, inputs.gamma_bar_p, inputs.threshold,
                                      [(inputs.f, inputs.gamma_bar_s1),
                                       (inputs.g, inputs.gamma_bar_s2)]), "primary_outage")


def relay_phase_outage(inputs: PrimaryOutageInputs) -> float:
    """Outage probability of the primary receiver in the broadcast phase,
    where only the relay interferes: E_L[F_E(theta/gp * (gr L + 1))]."""
    return _clamp_probability(_outage(inputs.e, inputs.gamma_bar_p, inputs.threshold,
                                      [(inputs.l, inputs.gamma_bar_r)]), "relay_phase_outage")


def _solve(constraint, threshold, cap, what: str) -> tuple[np.ndarray, list]:
    """Largest power in [0, cap] whose ``constraint(p, at)`` (the points
    ``at`` at powers p) meets ``threshold``, for all points of the arrays
    ``threshold`` and ``cap`` at once: the cap if the constraint holds
    there, else the end whose constraint is <= threshold of a bracket
    narrowed below 1e-12 + 1e-15 |p| by Chandrupatla's method (Adv. Eng.
    Software 28(3), 1997: inverse quadratic interpolation where safe, else
    bisection).  A point's steps read only its own values, so its power
    does not depend on the batch.  Returns the powers and per point None or
    the error that left its power NaN: Infeasible if the constraint fails
    at power 0, NumericalInstability if it is NaN, takes 100 steps, or ends
    more than 1e-9 from the threshold (it jumps across it)."""
    threshold, cap = np.asarray(threshold, dtype=float), np.asarray(cap, dtype=float)
    if not np.all((0.0 <= threshold) & (threshold <= 1.0)):
        raise ValueError(f"thresholds must be probabilities, got {threshold}")
    f0, fcap = (constraint(p, np.arange(threshold.size)) - threshold
                for p in (np.zeros(threshold.shape), cap))
    power = np.where((f0 <= 0.0) & (fcap <= 0.0), cap, np.nan)
    errors = [Infeasible(f"{what}: outage without interference ({a + thr:.6g}) already "
                         f"exceeds the threshold {thr:.6g}") if a > 0.0
              else NumericalInstability(f"{what}: constraint values {a:.6g}, {b:.6g} at 0, "
                                        f"{c:.6g} bracket no root") if math.isnan(a + b)
              else None
              for a, b, c, thr in zip(f0.tolist(), fcap.tolist(), cap.tolist(), threshold.tolist())]
    at = np.flatnonzero((f0 <= 0.0) & (fcap > 0.0))
    # x1 is the newest point, [x1, x2] the bracket and x3 the end it dropped
    x1, f1, x2, f2, t = cap[at], fcap[at], np.zeros(at.size), f0[at], np.full(at.size, 0.5)
    for _ in range(100):
        if not at.size:
            break
        x = x1 + t * (x2 - x1)
        f = constraint(x, at) - threshold[at]
        same = (f > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        tol = 1e-12 + 1e-15 * np.abs(np.where(np.abs(f1) < np.abs(f2), x1, x2))
        dx = np.abs(x2 - x1)
        stop = np.isnan(f1) | (dx < tol) | (f1 == 0.0) | (f2 == 0.0)
        for i, p, fp in zip(at[stop], np.where(f1 > 0.0, x2, x1)[stop],
                            np.where(f1 > 0.0, f2, f1)[stop]):
            if abs(fp) <= 1e-9:
                power[i] = p
            else:
                errors[i] = NumericalInstability(
                    f"{what}: constraint is NaN at power {p:.6g}" if np.isnan(fp) else
                    f"{what}: constraint does not reach the threshold {threshold[i]:.6g} "
                    f"continuously near power {p:.6g}")
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi, alpha = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2), (x3 - x1) / (x2 - x1)
            iqi = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            t = np.clip(np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)), iqi, 0.5),
                        0.5 * tol / dx, 1.0 - 0.5 * tol / dx)
        x1, f1, x2, f2, t, at = (v[~stop] for v in (x1, f1, x2, f2, t, at))
    for i in at:
        errors[i] = NumericalInstability(f"{what}: root finder did not converge in 100 steps")
    return power, errors


def solve_power_lattice(e: FadingLink, interferers: tuple[FadingLink, ...], gamma_bar_p,
                        threshold: float, outage_threshold, cap, what: str) -> tuple:
    """``_solve`` over arrays ``gamma_bar_p``, ``outage_threshold`` and ``cap``:
    the largest SNR of the ``interferers`` (both sources in the MA phase, one
    relay in the BC phase) keeping the outage of primary link ``e`` at SINR
    ``threshold`` within the outage threshold (NaN if off [0, 1] by CLAMP_TOL)."""
    gamma_bar_p = np.asarray(gamma_bar_p, dtype=float)

    def outage(p, at):
        out = _outage(e, gamma_bar_p[at], threshold, [(link, p) for link in interferers])
        return np.where(abs(out - 0.5) > 0.5 + CLAMP_TOL, np.nan, np.clip(out, 0.0, 1.0))
    return _solve(outage, outage_threshold, cap, what)


def solve_secondary_source_power(inputs: PrimaryOutageInputs, threshold: float,
                                 cap: float) -> float:
    """Shared source SNR (gamma_bar_S1 = gamma_bar_S2) whose MA-phase primary
    outage meets ``threshold``: the largest such power to 1e-12 relative
    (absolute below 1), or ``cap`` when the constraint holds there.  One
    point of ``solve_power_lattice``, whose error it raises."""
    return _raised(solve_power_lattice(inputs.e, (inputs.f, inputs.g), [inputs.gamma_bar_p],
                                       inputs.threshold, [threshold], [cap],
                                       "secondary source power"))


def solve_relay_power(inputs: PrimaryOutageInputs, threshold: float, cap: float) -> float:
    """Relay SNR whose BC-phase primary outage meets ``threshold``: the
    largest such power to 1e-12 relative (absolute below 1), or ``cap``
    when the constraint holds there.  One point of ``solve_power_lattice``,
    whose error it raises."""
    return _raised(solve_power_lattice(inputs.e, (inputs.l,), [inputs.gamma_bar_p],
                                       inputs.threshold, [threshold], [cap], "relay power"))


# ---------------------------------------------------------------------------
# Secondary network, Scenario (a)
# ---------------------------------------------------------------------------

class _Rates:
    """Derived rate constants of the normalized interference variables:
    floats, or arrays over the rows of array SNRs."""

    def __init__(self, inp: SecondaryCdfInputs):
        gp, gs, gr = inp.gamma_bar_p, inp.gamma_bar_s, inp.gamma_bar_r
        self.beta = gr / gs
        self.qx = inp.x.m / (inp.x.mean_gain * gr)
        self.qw = inp.w.m / (inp.w.mean_gain * gr)
        self.by = inp.y.m * gs / (gr * gp * inp.y.mean_gain)
        self.bz = None if inp.z is None else inp.z.m / (gp * inp.z.mean_gain)
        self.bv = None if inp.v is None else inp.v.m / (gp * inp.v.mean_gain)

    def __getitem__(self, rows):
        """The rates of ``rows`` of array SNRs."""
        part = object.__new__(_Rates)
        part.__dict__ = {k: v if v is None else v[rows] for k, v in vars(self).items()}
        return part

    def kernel_rate(self, b: float):
        """Exponential decay rate of e^{-b g} chi1(g) chi2(g) in g."""
        return b + self.qx * (self.beta + 1.0) + self.qw


def _direction_args(inp: SecondaryCdfInputs, theta, r: _Rates):
    """The direction law: the engine arguments (factors, kappa, gains) of
    chi1 = E_{Z,Y}[Pr{X > (Z + Y + beta + 1) theta / gr}] and of chi2 =
    E_Z[Pr{W > (Z + 1) theta / gr}], in that order, at rates ``r``.
    ``cdf_scenario_a``, ``_survival_side`` and the ASEP kernel all read it;
    ``_asep_terms`` keeps the paper's chi1 chi2 tables on purpose, as the
    paper's expression rather than the law."""
    return [([(inp.x.m, r.qx * theta)], r.beta + 1.0, [(inp.y.m, 1.0, r.by), (inp.z.m, 1.0, r.bz)]),
            ([(inp.w.m, r.qw * theta)], 1.0, [(inp.z.m, 1.0, r.bz)])]


def _cdf(theta, cdf, where: str):
    """The theta rule of every secondary cdf: ``cdf(theta)`` clamped to [0, 1],
    0 where theta = 0 (``cdf`` sees 1 there, so no zero scale reaches a
    log), a float for a float and float SNRs; a negative, NaN or infinite theta raises."""
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta < math.inf)):
        raise ValueError("theta must be nonnegative and finite")
    zero = theta == 0.0
    return _clamp_probability(np.where(zero, 0.0, cdf(np.where(zero, 1.0, theta))), where)


def cdf_scenario_a(inputs: SecondaryCdfInputs, theta):
    """cdf at ``theta`` of the upper-bounded SINR at source 1 in
    Scenario (a): 1 - chi1 * chi2 (``_direction_args``)."""
    r = _Rates(inputs)
    return _cdf(theta, lambda t: 1.0 - math.prod(
        _expected_survival(*args) for args in _direction_args(inputs, t, r)), "cdf_scenario_a")


def _side_weights(cx, bv, s, mx: int, mv: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights q_n and W_n of ``_survival_side`` along a last axis, for
    scalars or arrays ``cx``, ``bv`` and ``s``: q_n are the reversed
    running sums of the Poisson(cx) terms, W_n the tail sums of the A_j."""
    cx, bv, s = (np.asarray(v, dtype=float)[..., None] for v in (cx, bv, s))
    i = np.arange(mx)
    q = np.cumsum(np.exp(i * np.log(cx) - cx - [lgamma(n + 1) for n in range(mx)]),
                  axis=-1)[..., ::-1]
    a = np.array([comb(mv + j - 1, j) for j in range(mx)]) * (bv / s) ** mv * (cx / s) ** i * q
    tails = np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
    return q, tails[..., np.maximum(0, np.arange(mv + mx - 1) - mv + 1)]


def _survival_side(inp: SecondaryCdfInputs, theta):
    """E[Q(mx, cx (max(L, V) + 1))] = Pr{X > max(Z + Y + beta + 1, V + 1)
    theta / gr} with L = beta + Z + Y and cx = qx theta, split on V <= L:
    chi1 - E[Q(mx, cx (L+1)) Q(mv, bv L)] + E[Q(mx, cx (V+1)); V > L], as
    Pr{V > L | L} = Q(mv, bv L); elementwise, as ``_expected_survival``.

    Both expectations are engine calls over L.  With q_n = Q(mx-n, cx),
    Q(mx, cx (L+1)) = e^{-cx L} sum_{n<mx} q_n (cx L)^n / n!, a factor at
    scale cx with weights q_n.  Integrating the binomial expansion of
    Q(mx, cx (v+1)) against the density of V over v > L gives
    sum_{j<mx} A_j Q(mv+j, s L) with s = cx + bv and A_j = C(mv+j-1, j)
    (bv/s)^mv (cx/s)^j q_j, one factor at scale s with weights
    W_n = sum_{j >= max(0, n-mv+1)} A_j, n < mv+mx-1.
    """
    r = _Rates(inp)
    cx, mx, mv = r.qx * theta, inp.x.m, inp.v.m
    s = cx + r.bv
    q, upper = _side_weights(cx, r.bv, s, mx, mv)
    gains = [(inp.y.m, 1.0, r.by), (inp.z.m, 1.0, r.bz)]
    return (_expected_survival(*_direction_args(inp, theta, r)[0])
            - _expected_survival([(q, cx), (mv, r.bv)], r.beta, gains)
            + _expected_survival([(upper, s)], r.beta, gains))


def cdf_scenario_a_e2e(inputs: SecondaryCdfInputs, theta):
    """cdf at ``theta`` of the end-to-end upper-bounded SINR
    min(gamma_S1, gamma_S2) in Scenario (a).

    The two directional survival factors share the interference variables
    Y, Z and V, yet their product is taken as if they were independent, so
    the result is neither exact nor a bound on the end-to-end cdf (on
    example.cfg the success probability it implies is 60-3,000x below
    bounded-SINR Monte Carlo).  The S2-side factor is the S1-side
    evaluator under the x <-> w, z <-> v swap.
    """
    swapped = inputs.swapped()
    return _cdf(theta, lambda t: 1.0 - _survival_side(inputs, t) * _survival_side(swapped, t),
                "cdf_scenario_a_e2e")


# ---------------------------------------------------------------------------
# Secondary network, Scenario (b)
# ---------------------------------------------------------------------------

def _relay_pair_survival(inp: SecondaryCdfInputs, theta):
    """Survival at ``theta`` of the per-relay pair SINR
    gr * min(X, W) / (Y + beta + 1) (source nodes noise-limited);
    elementwise, as ``_expected_survival``."""
    r = _Rates(inp)
    return _expected_survival([(inp.x.m, r.qx * theta), (inp.w.m, r.qw * theta)],
                              r.beta + 1.0, [(inp.y.m, 1.0, r.by)])


def cdf_scenario_b(inputs: list[SecondaryCdfInputs], theta):
    """cdf at ``theta`` of the best-relay end-to-end SINR in Scenario (b),
    one input set per relay: the relays are independent, so the max-order
    statistic is the product of the per-relay pair cdfs (only the x, w, y
    links of each input are used; source nodes carry no direct primary
    interference)."""
    if not inputs:
        raise ValueError("need one input set per relay, got none")

    def product(t):
        prod = 1.0
        for inp in inputs:
            prod = prod * _clamp_probability(1.0 - _relay_pair_survival(inp, t),
                                             "cdf_scenario_b per-relay term")
        return prod
    return _cdf(theta, product, "cdf_scenario_b")


# ---------------------------------------------------------------------------
# ASEP, Scenario (a)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsepResult:
    """``value`` is the ASEP and ``used_fallback`` says it came from
    ``asep_kernel_scenario_a``.  ``cancellation_ratio`` is the closed form's
    sum|term| / |sum term| over its terms (sum term compensated,
    sum|term| pairwise), or inf when the pole locations were too close to expand."""

    value: float
    used_fallback: bool
    cancellation_ratio: float


def asep_kernel_scenario_a(inputs: SecondaryCdfInputs, mod: ModulationSpec):
    """ASEP of source 1 in Scenario (a) per row of ``inputs``, the value
    the sweep reports: the kernel average
    a/2 - a*sqrt(b)/(2 sqrt(pi)) int_0^inf e^{-b g} g^{-1/2} chi1 chi2 dg
    of the direction cdf 1 - chi1 chi2, by a fixed 173-node double-exponential
    rule in x = ln g centred on the peak g0 = 1/(2 mu) of g^{1/2} e^{-mu g},
    where mu is the integrand's decay rate; the dropped left tail is worth
    at most 1.0e-21 sqrt(g0) (see ``_KERNEL_OFFSETS``).  Each row's terms
    of each factor of ``_direction_args`` over its 173 nodes come from one
    matrix product (``_node_survival``), so a row's value does not depend on
    the others.  The terms of a factor over a block of rows fill at most
    ``_KERNEL_FLOATS``, so each factor has its own block (on analytic_highm
    3 rows for chi1 and 12 for chi2), and the rows go through in super-blocks
    of the larger one on slices of the rates."""
    rates = _Rates(replace(inputs, **{name: np.reshape(getattr(inputs, name), (-1, 1))
                                      for name in _POWERS}))
    blocks = [max(1, _KERNEL_FLOATS // (_KERNEL_OFFSETS.size * len(_table(factors, gains)[1])))
              for factors, _, gains in _direction_args(inputs, 1.0, rates)]
    step = max(blocks)
    log_peak = np.log(0.5 / rates.kernel_rate(mod.b))
    kernel = np.empty(len(log_peak))
    for start in range(0, len(kernel), step):
        r, g = rates[start:start + step], np.exp(log_peak[start:start + step] + _KERNEL_OFFSETS)
        f = np.exp(-mod.b * g) * np.sqrt(g)
        for i, rows in enumerate(blocks):
            for at in range(0, len(g), rows):
                f[at:at + rows] *= _node_survival(
                    *_direction_args(inputs, g[at:at + rows], r[at:at + rows])[i])
        kernel[start:start + step] = (_KERNEL_WEIGHTS * f).sum(axis=-1)
    return _asep_value(kernel.reshape(np.shape(inputs.gamma_bar_p)), mod,
                       "asep_kernel_scenario_a")


def _asep_terms(inputs: SecondaryCdfInputs, r: _Rates, alphas: np.ndarray,
                mu: float) -> np.ndarray:
    """Products W Gamma(s) A alpha^{s-j} Psi(s, s+1-j, mu alpha) whose sum
    is int_0^inf e^{-b g} g^{-1/2} chi1(g) chi2(g) dg.

    Each chi1 x chi2 term pair (n, i1, i2) x (k, k1) is g^{n+k} e^{-mu g}
    over three pole powers (g + alpha)^{-mult} with multiplicities
    (mz+k1, mz+i2, my+i1).  The pairs are summed into group weights
    W[k1, i2, i1, n+k] (s = n+k+1/2), every multiplicity triple is
    expanded by partial fractions (coefficients A of the powers j) in one
    batched call, and Psi is one ``tricomi_u`` call on the (s, pole, j)
    grid.  The products are formed on the dense (k1, i2, i1, s, pole, j)
    grid; the terms that exist (the group has pairs and j is at most the
    pole's multiplicity) are returned in that C order.  Only this closed
    form needs ``scipy.special`` (here and in ``tricomi_u``), so it is
    imported here and a sweep does not load it.
    """
    from scipy.special import gamma

    mx, mw, my, mz = inputs.x.m, inputs.w.m, inputs.y.m, inputs.z.m
    # the chi1 terms (n, i1, i2) and chi2 terms (k, k1) of the engine
    expo, c1 = _term_table((mx,), (my, mz))
    n, i1, i2 = expo.T[:3]
    expo, c2 = _term_table((mw,), (mz,))
    k, k1 = expo.T[:2]
    ln_n = (c1 + (n - i1 - i2) * log(r.beta + 1.0)
            + (n - my - i1 - mz - i2) * log(r.qx) + my * log(r.by) + mz * log(r.bz))
    ln_k = c2 + (k - mz - k1) * log(r.qw) + mz * log(r.bz)
    group = (k1.astype(int), i2.astype(int)[:, None], i1.astype(int)[:, None],
             (n[:, None] + k).astype(int))
    # np.add.at adds a group's pairs in (chi1 term, chi2 term) order, so
    # every weight is the same float sum as a pair-by-pair loop
    weight = np.zeros((mw, mx, mx, mx + mw - 1))
    np.add.at(weight, group, np.exp(ln_n[:, None] + ln_k))
    has_pairs = np.zeros(weight.shape, dtype=bool)
    has_pairs[group] = True
    mults = np.moveaxis(np.indices((mw, mx, mx)), 0, -1) + (mz, mz, my)
    series = partial_fraction_series(alphas, mults.reshape(-1, 3))
    j = np.arange(1, series.shape[-1] + 1)
    # A[..., pole, j] = series[..., pole, mult - j]; orders j above a pole's
    # multiplicity read a placeholder and are masked out below
    coef = np.take_along_axis(series.reshape(*mults.shape, -1),
                              np.maximum(mults[..., None] - j, 0), axis=-1)
    s = (np.arange(mx + mw - 1) + 0.5)[:, None, None]
    psi = tricomi_u(s, s + 1.0 - j, mu * alphas[:, None])
    terms = (weight[..., None, None] * gamma(s) * coef[:, :, :, None]
             * alphas[:, None] ** (s - j) * psi)
    return terms[has_pairs[..., None, None] & (j <= mults[:, :, :, None, :, None])]


def asep_scenario_a(inputs: SecondaryCdfInputs, mod: ModulationSpec) -> AsepResult:
    """Average symbol error probability of source 1 in Scenario (a) by the
    paper's closed form (the sweep reports ``asep_kernel_scenario_a``).

    The cdf kernel integral is expanded term by term; each term is a
    product of three pole powers in gamma, expanded by partial fractions
    and integrated against gamma^{n+k-1/2} e^{-mu gamma} via the Tricomi
    function (see ``_asep_terms``).

    The result falls back to ``asep_kernel_scenario_a``, and is flagged
    ``used_fallback``, in two cases: the three pole locations are too
    close for a stable expansion (NearDegeneratePoles), or the expansion's
    terms cancel, i.e. its cancellation ratio sum|term| / |sum term|
    exceeds CANCELLATION_LIMIT = 1e5.
    """
    r = _Rates(inputs)
    alphas = np.array([r.bz / r.qw, r.bz / r.qx, r.by / r.qx])
    try:
        terms = _asep_terms(inputs, r, alphas, r.kernel_rate(mod.b))
    except NearDegeneratePoles:
        kernel, ratio = math.nan, math.inf
    else:
        kernel = fsum(terms.tolist())
        ratio = float(np.abs(terms).sum()) / abs(kernel) if kernel else math.inf
    used_fallback = not ratio <= CANCELLATION_LIMIT
    value = (asep_kernel_scenario_a(inputs, mod) if used_fallback
             else _asep_value(kernel, mod, "asep_scenario_a"))
    return AsepResult(value=value, used_fallback=used_fallback, cancellation_ratio=ratio)
