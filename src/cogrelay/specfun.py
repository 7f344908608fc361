"""Special functions and algebraic kernels underlying the closed forms.

Everything here is elementary but numerically delicate: integer-shape
incomplete gamma via its finite series, the Tricomi confluent
hypergeometric function via a fixed-node double-exponential quadrature
of its integral representation, and partial-fraction expansion of
products of simple-pole powers with arbitrary multiplicities.  All
gamma/factorial products are assembled in the log domain.

The double-exponential (DE) rule is that of Takahasi & Mori ("Double
exponential formulas for numerical integration", Publ. RIMS 9, 1974) in
the form x = ln t = c + u - e^{-u} on a uniform u grid: an integrand
that decays like a power of t at 0 and exponentially at infinity decays
double-exponentially in u at both ends, so the trapezoidal sum over a
fixed, finite grid converges geometrically in 1/h.  ``de_rule`` builds
the grid; ``tricomi_u`` uses 261 nodes at h = 1/8 (maximum relative
error 8.4e-15 against mpmath, see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NearDegeneratePoles

__all__ = [
    "PoleSet",
    "de_rule",
    "upper_incomplete_gamma_int",
    "log_upper_incomplete_gamma_int",
    "tricomi_u",
    "partial_fractions",
]

# Relative pole separation below which a partial-fraction expansion is
# numerically meaningless.
POLE_SEPARATION_FLOOR = 1e-8


@dataclass(frozen=True)
class PoleSet:
    """Poles of a rational function prod_i (x + alpha_i)^{-n_i}.

    ``poles`` is a sequence of (location, multiplicity) pairs with
    strictly positive locations and multiplicities >= 1.
    """

    poles: tuple[tuple[float, int], ...]

    def __init__(self, poles):
        object.__setattr__(self, "poles", tuple((float(a), int(n)) for a, n in poles))
        for alpha, n in self.poles:
            if alpha <= 0.0:
                raise ValueError(f"pole location must be positive, got {alpha}")
            if n < 1:
                raise ValueError(f"pole multiplicity must be >= 1, got {n}")

    def min_relative_separation(self) -> float:
        locs = [a for a, _ in self.poles]
        if len(locs) < 2:
            return math.inf
        sep = math.inf
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                sep = min(sep, abs(locs[i] - locs[j]) / max(locs[i], locs[j]))
        return sep


def log_upper_incomplete_gamma_int(n: int, x: float) -> float:
    """ln Gamma(n, x) for integer shape n >= 1, x >= 0.

    Uses the finite series Gamma(n, x) = (n-1)! e^{-x} sum_{m<n} x^m/m!,
    evaluated as a log-sum-exp so large x cannot underflow intermediate
    terms.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"shape must be a positive integer, got {n}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    n = int(n)
    if x == 0.0:
        return math.lgamma(n)
    logx = math.log(x)
    terms = [m * logx - math.lgamma(m + 1) for m in range(n)]
    peak = max(terms)
    acc = math.fsum(math.exp(t - peak) for t in terms)
    return math.lgamma(n) - x + peak + math.log(acc)


def upper_incomplete_gamma_int(n: int, x: float) -> float:
    """Gamma(n, x) for integer shape n >= 1, x >= 0."""
    return math.exp(log_upper_incomplete_gamma_int(n, x))


def gamma_survival(n: int, x: float) -> float:
    """Regularized upper gamma Gamma(n, x)/Gamma(n) for integer n >= 1.

    This is the survival function of a unit-scale Gamma(n) variate and
    the workhorse of every outage expression.
    """
    return math.exp(log_upper_incomplete_gamma_int(n, x) - math.lgamma(n))


def de_rule(h: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the double-exponential rule in x = ln t.

    Returns the offsets x - c = u - e^{-u} at u = k h, k = -kmax..kmax,
    and the weights h (1 + e^{-u}), so that for a centre c

        int_{-inf}^{inf} f(x) dx ~ sum_k w_k f(c + offsets_k).
    """
    u = h * np.arange(-kmax, kmax + 1)
    return u - np.exp(-u), h * (1.0 + np.exp(-u))


_PSI_OFFSETS, _PSI_WEIGHTS = de_rule(1.0 / 8.0, 130)
_PSI_LOG_WEIGHTS = np.log(_PSI_WEIGHTS)


def tricomi_u(a, b, z):
    """Tricomi confluent hypergeometric function Psi(a, b, z), elementwise
    over the broadcast of ``a``, ``b`` and ``z``.

    Evaluates the defining integral

        Psi(a,b,z) = 1/Gamma(a) int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt

    in x = ln t with the fixed 261-node double-exponential rule
    (h = 1/8, |k| <= 130) centred at c = ln max(a, 1/2) - ln max(z, 1).
    Every node is a positive term, so there is no cancellation.  Maximum
    relative error against mpmath at 30 digits: 8.4e-15 over the 17,035
    distinct Psi(s, s+1-j, z) that the ASEP closed form evaluates on a
    high-severity sweep (s in [0.5, 9.5], j in 1..9, z in [0.0037, 100]),
    and below 1e-15 on the general (a, b) cases of the tests
    (a <= 10.5, z <= 1e4).  Scalar arguments give a ``float``, arrays an
    array of the broadcast shape.
    """
    a, b, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, z)))
    if not (np.all(a > 0.0) and np.all(z > 0.0)):
        raise ValueError(f"tricomi_u requires a > 0 and z > 0, got a={a}, z={z}")
    # the log-integrand at every node is built in place, so at most three
    # arrays of (broadcast shape) x (nodes) are alive at once
    x = (np.log(np.maximum(a, 0.5)) - np.log(np.maximum(z, 1.0)))[..., None] + _PSI_OFFSETS
    log_f = a[..., None] * x
    log_f += _PSI_LOG_WEIGHTS
    log_f -= gammaln(a)[..., None]
    t = np.exp(x, out=x)
    log_1pt = np.log1p(t)
    log_1pt *= (b - a - 1.0)[..., None]
    log_f += log_1pt
    t *= z[..., None]
    log_f -= t
    val = np.exp(log_f, out=log_f).sum(axis=-1)
    return float(val) if val.ndim == 0 else val


def partial_fractions(pole_set: PoleSet) -> list[tuple[int, int, float]]:
    """Expand prod_i (x + alpha_i)^{-n_i} into simple-pole powers.

    Returns a list of (pole index, order j, coefficient A) with

        prod_i (x + alpha_i)^{-n_i} = sum_i sum_{j=1}^{n_i} A_{i,j} (x + alpha_i)^{-j}.

    Coefficients are Taylor coefficients of the deflated product around
    each pole, computed by exact truncated-series arithmetic (no
    numerical differentiation).

    Raises NearDegeneratePoles when any pair of pole locations is closer
    than POLE_SEPARATION_FLOOR in relative terms.
    """
    if pole_set.min_relative_separation() <= POLE_SEPARATION_FLOOR:
        raise NearDegeneratePoles(
            f"pole separation {pole_set.min_relative_separation():.3e} below "
            f"{POLE_SEPARATION_FLOOR:.0e}"
        )
    poles = pole_set.poles
    out: list[tuple[int, int, float]] = []
    for i, (alpha_i, n_i) in enumerate(poles):
        # Taylor series of psi_i(x) = prod_{j != i} (x + alpha_j)^{-n_j}
        # in h = x + alpha_i, truncated at order n_i - 1.
        series = [0.0] * n_i
        series[0] = 1.0
        for j, (alpha_j, n_j) in enumerate(poles):
            if j == i:
                continue
            d = alpha_j - alpha_i
            # (d + h)^{-n_j} = d^{-n_j} sum_k binom(n_j+k-1, k) (-h/d)^k
            fac = [
                math.comb(n_j + k - 1, k) * (-1.0 / d) ** k * d ** (-n_j)
                for k in range(n_i)
            ]
            series = _poly_mul_trunc(series, fac, n_i)
        # coefficient of h^{n_i - j} is A_{i,j}
        for j in range(1, n_i + 1):
            out.append((i, j, series[n_i - j]))
    return out


def _poly_mul_trunc(p: list[float], q: list[float], order: int) -> list[float]:
    out = [0.0] * order
    for i, pi in enumerate(p):
        if pi == 0.0:
            continue
        for j, qj in enumerate(q):
            if i + j >= order:
                break
            out[i + j] += pi * qj
    return out

