"""Seeded Monte Carlo engine for the exact and upper-bounded SINRs.

Channel gains are Gamma(shape m, scale mean/m) and are generated as the
sum of m inverse-cdf exponential draws.  Uniforms come from one
counter-based Philox-4x64 stream per (seed, link) pair.  A trial takes
whole 4-word Philox blocks, 4 * ceil(m / 4) words of which the first m
are used, so trial i starts at block i * ceil(m / 4) and any partition
of the trial range produces the same union of draws: the gains and the
outage counts are bit-identical regardless of chunking or parallel split.

The trial range is cut into chunks of _CHUNK = 2^20 trials, and each
chunk into slices of at most _SLICE = 2^15 trials, which are drawn and
scored while they fit in cache.  The SEP sums are float sums: per chunk
they equal numpy's pairwise ``sum`` over the whole chunk bit for bit,
because the slices are cut along numpy's own pairwise split and their
sums are added back up that tree (``_pairwise``); the chunk totals are
added in order.  They therefore depend on _CHUNK but not on _SLICE.

Links are named as in ``link_table``: ``x, w, y, l, z, v`` in Scenario
(a), and ``x0, w0, y0, l0, x1, ...`` (relay k carries index k at every
relay count) in Scenario (b).  The stream id of relay k's links does not
depend on the relay count either, so the first K relays of a draw for K'
> K relays are exactly the draw for K relays.

The estimators draw each trial slice once, for the largest relay count
among their rows, and score every row on it; a Scenario (b) row of
relay count K selects the best of relays 0..K-1.  Only the links the
secondary SINRs read are drawn (x, w, y per relay, plus z, v in Scenario
(a)), at their ``link_table`` stream ids, so each gain equals that of a
full draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import erfc

from .model import ModulationSpec, NetworkScenario, PowerProfile, Scenario
from .analytic import PrimaryOutageInputs

__all__ = [
    "Estimate",
    "link_table",
    "draw_gains",
    "exact_sinr_s1",
    "exact_sinr_s2",
    "bounded_sinr_s1",
    "bounded_sinr_s2",
    "e2e_sinr",
    "estimate_rows",
    "estimate_outage",
    "estimate_asep",
    "estimate_primary_outage",
]

DEFAULT_TRIALS = 100_000
# A chunk fixes only the order of the float sums (numpy's pairwise
# order over each chunk); every chunk is drawn and scored in slices of at
# most _SLICE trials, which must stay >= 128 (see ``_pairwise``).
_CHUNK = 1 << 20
_SLICE = 1 << 15
_U64 = 1 << 64


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with a 95% normal-approximation
    confidence half-width."""

    value: float
    trials: int
    ci_half_width: float
    seed: int


def link_table(scenario: NetworkScenario) -> list[tuple[str, "object"]]:
    """Canonical (name, link) ordering; the position is the stream id."""
    rows = [
        ("e", scenario.pt_px),
        ("f", scenario.s1_px),
        ("g", scenario.s2_px),
    ]
    for k in range(scenario.K):
        suffix = "" if scenario.scenario is Scenario.A else str(k)
        rows += [
            (f"x{suffix}", scenario.s2_relay[k]),
            (f"w{suffix}", scenario.s1_relay[k]),
            (f"y{suffix}", scenario.pt_relay[k]),
            (f"l{suffix}", scenario.relay_px[k]),
        ]
    if scenario.scenario is Scenario.A:
        rows += [("z", scenario.pt_s1), ("v", scenario.pt_s2)]
    return rows


def _gamma_stream(seed: int, link_id: int, m: int, mean: float,
                  start: int, count: int) -> np.ndarray:
    # Each trial consumes a whole number of Philox 4-word blocks so that
    # advancing by blocks lands exactly on a trial boundary; the padding
    # words are generated and discarded.  The log terms are summed column
    # by column in place (in the order of a row sum for m <= 7).
    words = 4 * ((m + 3) // 4)
    bg = Philox(key=np.array([seed % _U64, link_id], dtype=np.uint64))
    if start:
        bg.advance(start * (words // 4))
    u = Generator(bg).random((count, words))
    acc = np.negative(u[:, 0])
    np.log1p(acc, out=acc)
    if m > 1:
        term = np.empty(count)
        for j in range(1, m):
            np.negative(u[:, j], out=term)
            np.log1p(term, out=term)
            acc += term
    acc *= -mean / m
    return acc


def draw_gains(scenario: NetworkScenario, seed: int, trials: int,
               start: int = 0,
               names: list[str] | None = None) -> dict[str, np.ndarray]:
    """Draw ``trials`` independent gains for every link, or for the links
    in ``names`` only, starting at trial index ``start`` of the
    deterministic per-link streams."""
    return {
        name: _gamma_stream(seed, link_id, link.m, link.mean_gain, start, trials)
        for link_id, (name, link) in enumerate(link_table(scenario))
        if names is None or name in names
    }


# ---------------------------------------------------------------------------
# SINRs, Scenario (a)  (N0 = 1 throughout)
# ---------------------------------------------------------------------------

def _amp_gain_sq(draw, powers: PowerProfile):
    p, s = powers.gamma_bar_p, powers.gamma_bar_s
    return 1.0 / (p * draw["y"] + s * draw["w"] + s * draw["x"] + 1.0)


def exact_sinr_s1(draw, powers: PowerProfile):
    """Exact SINR at source 1, assembled term by term from the received
    signal: desired two-hop component over primary direct interference,
    amplified primary interference, amplified relay noise and local
    noise."""
    p, s, rl = powers.gamma_bar_p, powers.gamma_bar_s, powers.gamma_bar_r
    g2 = _amp_gain_sq(draw, powers)
    num = g2 * rl * s * draw["x"] * draw["w"]
    den = p * draw["z"] + g2 * rl * p * draw["y"] * draw["w"] + g2 * rl * draw["w"] + 1.0
    return num / den


def exact_sinr_s2(draw, powers: PowerProfile):
    p, s, rl = powers.gamma_bar_p, powers.gamma_bar_s, powers.gamma_bar_r
    g2 = _amp_gain_sq(draw, powers)
    num = g2 * rl * s * draw["w"] * draw["x"]
    den = p * draw["v"] + g2 * rl * p * draw["y"] * draw["x"] + g2 * rl * draw["x"] + 1.0
    return num / den


def _normalized(draw, powers: PowerProfile, suffix: str = ""):
    p, s, rl = powers.gamma_bar_p, powers.gamma_bar_s, powers.gamma_bar_r
    y = (rl * p / s) * draw[f"y{suffix}"]
    return y, rl / s


def bounded_sinr_s1(draw, powers: PowerProfile):
    """Tractable upper bound gr * min(X/(Z+Y+beta+1), W/(Z+1)); dominates
    the exact SINR on every draw."""
    rl = powers.gamma_bar_r
    y, beta = _normalized(draw, powers)
    z = powers.gamma_bar_p * draw["z"]
    return rl * np.minimum(draw["x"] / (z + y + beta + 1.0),
                           draw["w"] / (z + 1.0))


def bounded_sinr_s2(draw, powers: PowerProfile):
    rl = powers.gamma_bar_r
    y, beta = _normalized(draw, powers)
    v = powers.gamma_bar_p * draw["v"]
    return rl * np.minimum(draw["w"] / (v + y + beta + 1.0),
                           draw["x"] / (v + 1.0))


# ---------------------------------------------------------------------------
# SINRs, Scenario (b): sources are noise-limited, relays see everything
# ---------------------------------------------------------------------------

def _exact_pair_min_b(draw, powers: PowerProfile, k: int):
    """min(s1, s2) of relay k.  With 1/g2 = p*y + s*(x+w) + 1 both exact
    SINRs share the numerator rl*s*x*w and the smaller one has the larger
    denominator rl*(p*y+1)*max(x, w) + 1/g2."""
    p, s, rl = powers.gamma_bar_p, powers.gamma_bar_s, powers.gamma_bar_r
    x, w, y = draw[f"x{k}"], draw[f"w{k}"], draw[f"y{k}"]
    py1 = p * y
    py1 += 1.0
    den = x + w
    den *= s
    den += py1
    out = np.maximum(x, w)
    out *= py1
    out *= rl
    den += out
    np.multiply(x, w, out=out)
    out *= rl * s
    out /= den
    return out


def _bounded_pair_min_b(draw, powers: PowerProfile, k: int):
    rl = powers.gamma_bar_r
    y, beta = _normalized(draw, powers, str(k))
    return rl * np.minimum(draw[f"x{k}"], draw[f"w{k}"]) / (y + beta + 1.0)


def e2e_sinr(draw, powers: PowerProfile, scenario: NetworkScenario,
             sinr_kind: str = "bounded"):
    """End-to-end SINR per trial: Scenario (a) is the min over the two
    directions, Scenario (b) the best-relay max over per-relay minima.
    Public API for scoring a draw outside the estimators; the package
    itself does not call it."""
    return _sinr(draw, powers, scenario, scenario.K, sinr_kind, "e2e")


def _sinr(draw, powers, scenario, K, sinr_kind, metric, s1=None):
    # metric 'e2e' or 's1' (source 1 direction, Scenario (a) only); ``s1``
    # is the source-1 SINR of this draw when the caller already has it.
    # Scenario (b) selects the best of relays 0..K-1.
    if sinr_kind not in ("exact", "bounded"):
        raise ValueError(f"sinr_kind must be 'exact' or 'bounded', got {sinr_kind!r}")
    if metric not in ("e2e", "s1"):
        raise ValueError(f"metric must be 'e2e' or 's1', got {metric!r}")
    exact = sinr_kind == "exact"
    if scenario.scenario is Scenario.A:
        if s1 is None:
            s1 = (exact_sinr_s1 if exact else bounded_sinr_s1)(draw, powers)
        s2 = exact_sinr_s2 if exact else bounded_sinr_s2
        return s1 if metric == "s1" else np.minimum(s1, s2(draw, powers))
    if metric == "s1":
        raise ValueError("the single-direction metric applies to Scenario (a) only")
    per_relay = _exact_pair_min_b if exact else _bounded_pair_min_b
    out = per_relay(draw, powers, 0)
    for k in range(1, K):
        np.maximum(out, per_relay(draw, powers, k), out=out)
    return out


def _chunks(trials: int):
    if trials < 1_000:
        raise ValueError("at least 1000 trials are required")
    start = 0
    while start < trials:
        n = min(_CHUNK, trials - start)
        yield start, n
        start += n


def _pairwise(start: int, n: int, leaf):
    """``leaf(start, n)`` summed over trials start..start+n-1 along numpy's
    pairwise split of a length-n array: a span longer than _SLICE is cut
    at h = n//2 - (n//2) % 8 and its two halves' results are added with
    ``+``.  Numpy does not split below 128 elements, so as long as
    _SLICE >= 128 a float sum over a span, added up this way, equals
    ``np.sum`` over the whole span bit for bit."""
    if n <= _SLICE:
        return leaf(start, n)
    h = n // 2
    h -= h % 8
    return _pairwise(start, h, leaf) + _pairwise(start + h, n - h, leaf)


def _tally(trials: int, leaf):
    """``leaf`` summed over every slice of every chunk of the trial range."""
    total = 0
    for start, n in _chunks(trials):
        total = total + _pairwise(start, n, leaf)
    return total


def _proportion(hits: int, trials: int, seed: int) -> Estimate:
    p = hits / trials
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return Estimate(value=p, trials=trials, ci_half_width=ci, seed=seed)


def _score(draw, powers, K, scenario, theta, mod, sinr_kind, metric, sep_metric):
    # One row's outage hits, SEP sum and SEP sum of squares on this slice.
    hits = total = total_sq = 0.0
    s1 = None
    if mod is not None:
        sinr = _sinr(draw, powers, scenario, K, sinr_kind, sep_metric)
        s1 = sinr if sep_metric == "s1" else None
        sep = 0.5 * mod.a * erfc(np.sqrt(mod.b * sinr))
        total = sep.sum()
        total_sq = (sep * sep).sum()
    if theta is not None:
        sinr = _sinr(draw, powers, scenario, K, sinr_kind, metric, s1)
        hits = np.count_nonzero(sinr < theta)
    return hits, total, total_sq


def estimate_rows(scenario: NetworkScenario, rows: list[tuple[int, PowerProfile]],
                  theta: float | None = None, mod: ModulationSpec | None = None,
                  trials: int = DEFAULT_TRIALS, seed: int = 0,
                  sinr_kind: str = "exact", metric: str = "e2e",
                  sep_metric: str = "s1") -> list[tuple[Estimate | None, Estimate | None]]:
    """Outage and ASEP estimates of every row, all scored on one draw of
    each trial slice.

    A row is a pair (K, powers): its relay count, at most ``scenario.K``,
    and its power profile; it reads the first K relays of ``scenario``.
    Per row: the outage is the fraction of trials whose ``metric`` SINR
    falls below ``theta``, the ASEP the average of the conditional SEP
    kernel a/2 * erfc(sqrt(b*gamma)) of ``mod`` over the ``sep_metric``
    SINR; either is None when its ``theta`` or ``mod`` is not given."""
    if not rows:
        return []
    if not all(1 <= K <= scenario.K for K, _ in rows):
        raise ValueError(f"row relay counts must lie in 1..{scenario.K}")
    kmax = max(K for K, _ in rows)
    # The secondary SINRs read no link of the primary receiver (e, f, g, l)
    # and no relay beyond the rows' largest relay count.
    names = [name for name, _ in link_table(scenario)
             if name[0] not in "efgl" and int(name[1:] or 0) < kmax]

    def leaf(start, n):
        # one (hits, SEP sum, SEP sum of squares) row per row; the hit
        # counts stay exact in float64
        draw = draw_gains(scenario, seed, n, start, names)
        return np.array([_score(draw, powers, K, scenario, theta, mod, sinr_kind,
                                metric, sep_metric) for K, powers in rows])

    out = []
    for hits, total, total_sq in _tally(trials, leaf).tolist():
        mean = total / trials
        ci = 1.96 * math.sqrt(max(total_sq / trials - mean * mean, 0.0) / trials)
        out.append((None if theta is None else _proportion(int(hits), trials, seed),
                    None if mod is None else Estimate(mean, trials, ci, seed)))
    return out


def estimate_outage(scenario: NetworkScenario, powers: PowerProfile,
                    theta: float, trials: int = DEFAULT_TRIALS,
                    seed: int = 0, sinr_kind: str = "bounded",
                    metric: str = "e2e") -> Estimate:
    """Fraction of trials whose SINR falls below ``theta``.  Defaults to the
    upper-bounded SINR (``sinr_kind="bounded"``), whereas ``estimate_rows``
    and ``estimate_asep`` default to the exact one."""
    return estimate_rows(scenario, [(scenario.K, powers)], theta=theta,
                         trials=trials, seed=seed, sinr_kind=sinr_kind,
                         metric=metric)[0][0]


def estimate_asep(scenario: NetworkScenario, powers: PowerProfile,
                  mod: ModulationSpec, trials: int = DEFAULT_TRIALS,
                  seed: int = 0, sinr_kind: str = "exact",
                  metric: str = "s1") -> Estimate:
    """Average of the conditional SEP kernel a/2 * erfc(sqrt(b*gamma))
    over the per-trial SINR."""
    return estimate_rows(scenario, [(scenario.K, powers)], mod=mod, trials=trials,
                         seed=seed, sinr_kind=sinr_kind, sep_metric=metric)[0][1]


# ``link_table``'s stream ids for these links (``l`` is relay 0's), so a
# primary-outage estimate draws the same gains as a sweep at the same seed.
_PRIMARY_LINK_IDS = {"e": 0, "f": 1, "g": 2, "l": 6}


def estimate_primary_outage(inputs: PrimaryOutageInputs, trials: int = DEFAULT_TRIALS,
                            seed: int = 0, phase: str = "ma") -> Estimate:
    """Monte Carlo of the primary receiver outage event, either in the
    multiple-access phase (both sources interfere) or the broadcast phase
    (only the relay interferes)."""
    if phase not in ("ma", "bc"):
        raise ValueError(f"phase must be 'ma' or 'bc', got {phase!r}")

    def stream(name, link, start, n):
        return _gamma_stream(seed, _PRIMARY_LINK_IDS[name], link.m, link.mean_gain,
                             start, n)

    def leaf(start, n):
        e = stream("e", inputs.e, start, n)
        if phase == "ma":
            interference = (inputs.gamma_bar_s1 * stream("f", inputs.f, start, n)
                            + inputs.gamma_bar_s2 * stream("g", inputs.g, start, n))
        else:
            interference = inputs.gamma_bar_r * stream("l", inputs.l, start, n)
        sinr = inputs.gamma_bar_p * e / (interference + 1.0)
        return int(np.count_nonzero(sinr < inputs.threshold))

    return _proportion(_tally(trials, leaf), trials, seed)
