"""Special functions and algebraic kernels underlying the closed forms
and the Monte Carlo symbol error.

Everything here is elementary but numerically delicate: the Tricomi
confluent hypergeometric function via a fixed-node double-exponential
quadrature of its integral representation, partial-fraction expansion
of products of simple-pole powers with arbitrary multiplicities, and
the complementary error function erfc(sqrt(z)) of the Monte Carlo SEP
kernel, a numpy port of Cephes.  The integer-shape incomplete gamma is
the factor Q(m, x) of the term engine, ``analytic._expected_survival``.
All gamma/factorial products are assembled in the log domain.  A sweep
needs numpy only: ``tricomi_u`` serves the paper's closed-form ASEP
alone and imports ``scipy.special`` when it is first called.

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
from itertools import combinations

import numpy as np

from .errors import NearDegeneratePoles

__all__ = [
    "PoleSet",
    "de_rule",
    "erfc_sqrt",
    "tricomi_u",
    "partial_fraction_series",
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
        return min((abs(a - b) / max(a, b) for (a, _), (b, _) in combinations(self.poles, 2)),
                   default=math.inf)


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

    Everything but the (1+t)^{b-a-1} factor (the nodes, t, ln(1+t),
    a x + ln w - ln Gamma(a) and z t) depends on (a, z) only, so it is
    built on the broadcast grid of ``a`` and ``z`` and ``b`` is broadcast
    over it last: a call with ``a`` and ``z`` of shape (G, 1) and ``b`` of
    shape (G, J) does the node work G times, not G J times.  Each value is
    ((a x + ln w) - ln Gamma(a)) + ln(1+t) (b-a-1) - z t at every node, so
    it is bit-identical to the scalar call at the same (a, b, z).
    """
    from scipy.special import gammaln

    a, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(z, dtype=float))
    b = np.asarray(b, dtype=float)
    if not (np.all(a > 0.0) and np.all(z > 0.0)):
        raise ValueError(f"tricomi_u requires a > 0 and z > 0, got a={a}, z={z}")
    x = (np.log(np.maximum(a, 0.5)) - np.log(np.maximum(z, 1.0)))[..., None] + _PSI_OFFSETS
    base = a[..., None] * x
    base += _PSI_LOG_WEIGHTS
    base -= gammaln(a)[..., None]
    t = np.exp(x, out=x)
    log_1pt = np.log1p(t)
    t *= z[..., None]
    # (1+t)^{b-a-1} first, so the one array of the full shape is built in
    # place (x + y == y + x, so the sum is unchanged)
    log_f = log_1pt * (b - a - 1.0)[..., None]
    log_f += base
    log_f -= t
    val = np.exp(log_f, out=log_f).sum(axis=-1)
    return float(val) if val.ndim == 0 else val


def _ratio_table(num, den) -> np.ndarray:
    """Horner steps of Cephes' ``polevl(x, num)`` and ``p1evl(x, den)`` side
    by side: shape (steps, 2, 1), the numerator padded with leading zeros
    to the denominator's degree (0 x + c = c, so the steps stay exact)."""
    num = (0.0,) * (len(den) + 1 - len(num)) + tuple(num)
    return np.array([num, (1.0, *den)]).T[:, :, None].copy()


# Cephes ndtr.c (Moshier, "Methods and Programs for Mathematical
# Functions", 1989): erf(x) = x T(x^2)/U(x^2) for |x| <= 1, and
# erfc(x) = e^{-x^2} P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) from 8 on, where
# U, Q and S have a leading 1.  erfc underflows beyond x^2 = MAXLOG =
# ln(DBL_MAX).
_ERF_TU = _ratio_table(
    (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4),
    (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4))
_ERFC_PQ = _ratio_table(
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2))
_ERFC_RS = _ratio_table(
    (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
     6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0),
    (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
     1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0))
_MAXLOG = 7.09782712893383996843E2


def _ratio(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Numerator and denominator of ``table`` at every element of the 1-D
    ``x``, as the two rows of one new array, each in Cephes' order of
    operations.  The rows share each ufunc call, so erf takes 10 calls in
    place of 17 and the tail, a few elements whose cost is the calls, 18
    in place of 31."""
    y = x * table[0]
    y += table[1]
    for c in table[2:]:
        y *= x
        y += c
    return y


def erfc_sqrt(z) -> np.ndarray:
    """erfc(sqrt(z)) elementwise for z >= 0 (NaN gives NaN), as an array.

    A port of Cephes ``erfc`` at x = sqrt(z) that equals
    ``scipy.special.erfc(np.sqrt(z))`` bit for bit for x < 1 and within
    1e-15 relative wherever that is a normal float, and is 0 beyond
    x^2 = MAXLOG as Cephes is.  The x < 1 branch 1 - x T(x^2)/U(x^2) is
    evaluated in place over the whole array; the x >= 1 branch only on
    the elements it selects (a few per slice in the Monte Carlo SEP, whose
    SINRs put b gamma mostly below 1).
    """
    z = np.asarray(z, dtype=float)
    x = np.sqrt(z.reshape(-1))
    # the head's values at x >= 1 (inf/inf at x = inf) are replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        y, u = _ratio(x * x, _ERF_TU)
        y *= x
        y /= u
    np.subtract(1.0, y, out=y)
    tail = np.flatnonzero(x >= 1.0)
    # most slices have no tail, and a branch with no elements would cost
    # its dozen small ufunc calls for nothing
    if tail.size:
        t = x[tail]
        y[tail] = 0.0  # Cephes returns 0 once x^2 exceeds MAXLOG
        for sel, table in ((tail[t < 8.0], _ERFC_PQ),
                           (tail[(t >= 8.0) & (t * t <= _MAXLOG)], _ERFC_RS)):
            if sel.size:
                t = x[sel]
                p, q = _ratio(t, table)
                y[sel] = np.exp(-(t * t)) * p / q
    return y.reshape(z.shape)


def partial_fraction_series(locations, multiplicities) -> np.ndarray:
    """Partial-fraction expansions of a batch of pole products that share
    their pole locations and differ in multiplicities.

    ``locations`` holds the P locations alpha_i and ``multiplicities`` is
    an (R, P) integer array, one pole product prod_i (x + alpha_i)^{-n_i}
    per row.  Returns S of shape (R, P, K), K the largest multiplicity,
    where S[r, i, q] (q below the largest n_i of the batch, zero above) is
    the coefficient of h^q (h = x + alpha_i) in the
    Taylor series of the deflated product prod_{l != i} (x + alpha_l)^{-n_l}
    of row r.  The coefficient of (x + alpha_i)^{-j} is then
    A_{i,j} = S[r, i, n_i - j] for j = 1..n_i.

    The series of (d + h)^{-n} = d^{-n} sum_k C(n+k-1, k) (-h/d)^k, with
    d = alpha_l - alpha_i, are tabled once per (i, l, n) in Python floats,
    and the products are truncated convolutions over all rows at once,
    each coefficient summed in ascending order of the first factor.

    Raises NearDegeneratePoles when any pair of pole locations is closer
    than POLE_SEPARATION_FLOOR in relative terms.
    """
    locs = [float(loc) for loc in locations]
    mults = np.asarray(multiplicities, dtype=np.int64).reshape(-1, len(locs))
    sep = PoleSet((loc, 1) for loc in locs).min_relative_separation()
    if sep <= POLE_SEPARATION_FLOOR:
        raise NearDegeneratePoles(f"pole separation {sep:.3e} below {POLE_SEPARATION_FLOOR:.0e}")
    out = np.zeros((len(mults), len(locs), int(mults.max(initial=1))))
    for i, alpha_i in enumerate(locs):
        order = int(mults[:, i].max(initial=1))
        facs = []
        for j, alpha_j in enumerate(locs):
            if j == i:
                continue
            d = alpha_j - alpha_i
            lo, hi = int(mults[:, j].min()), int(mults[:, j].max())
            table = np.array([[math.comb(n + k - 1, k) * (-1.0 / d) ** k * d ** (-n)
                               for k in range(order)] for n in range(lo, hi + 1)])
            facs.append(table[mults[:, j] - lo])
        if not facs:
            out[:, i, 0] = 1.0
            continue
        series = facs[0]
        for fac in facs[1:]:
            prod = np.zeros_like(series)
            for k in range(order):
                prod[:, k:] += series[:, k, None] * fac[:, :order - k]
            series = prod
        out[:, i, :order] = series
    return out


def partial_fractions(pole_set: PoleSet) -> list[tuple[int, int, float]]:
    """Expand prod_i (x + alpha_i)^{-n_i} into simple-pole powers.

    Returns a list of (pole index, order j, coefficient A) with

        prod_i (x + alpha_i)^{-n_i} = sum_i sum_{j=1}^{n_i} A_{i,j} (x + alpha_i)^{-j}.

    Coefficients are Taylor coefficients of the deflated product around
    each pole, computed by exact truncated-series arithmetic (no
    numerical differentiation): this is a one-row call of
    ``partial_fraction_series``.

    Raises NearDegeneratePoles when any pair of pole locations is closer
    than POLE_SEPARATION_FLOOR in relative terms.
    """
    if not pole_set.poles:
        return []
    locs, mults = zip(*pole_set.poles)
    series = partial_fraction_series(locs, [mults])[0]
    return [(i, j, float(series[i, n - j]))
            for i, n in enumerate(mults) for j in range(1, n + 1)]
