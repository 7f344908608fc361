"""Seeded Monte Carlo engine for the exact and upper-bounded SINRs.

Channel gains are Gamma(shape m, scale mean/m) and are generated as the
sum of m inverse-cdf exponential draws.  Uniforms come from one
counter-based Philox-4x64 stream per (seed, link) pair.  A trial takes
whole 4-word Philox blocks, 4 * ceil(m / 4) words of which the first m
are used, so trial i starts at block i * ceil(m / 4) and any partition
of the trial range produces the same union of draws: the gains and the
outage counts are bit-identical however the trial range is cut into
slices or split across threads.

The trial range is cut into slices of at most _SLICE = 2^14 trials, which
are drawn and scored while they fit in cache.  The slices run
concurrently on one process-wide thread pool (numpy releases the GIL in
Philox generation and in the ufunc loops), and their results are added
up in slice order.  The SEP sums are float sums, numpy's pairwise sum
within each slice and the slice totals added in order, so they depend on
_SLICE but not on the number of worker threads or on the order in which
the slices finish.

Links are named as in ``link_table``: ``x, w, y, l, z, v`` in Scenario
(a), and ``x0, w0, y0, l0, x1, ...`` (relay k carries index k at every
relay count) in Scenario (b).  The stream id of relay k's links does not
depend on the relay count either, so the first K relays of a draw for K'
> K relays are exactly the draw for K relays.

The estimators draw each trial slice once, for the largest relay count
among their rows, and score each distinct row on it once: a row that
repeats a (K, powers) pair, such as both thresholds of a grid point
whose powers are capped, gets that pair's estimates.  A Scenario (b) row
of relay count K selects the best of relays 0..K-1.  Only the links the
secondary SINRs read are drawn (x, w, y per relay, plus z, v in Scenario
(a)), at their ``link_table`` stream ids, so each gain equals that of a
full draw.  The SEP kernel's erfc is ``specfun.erfc_sqrt``, a numpy port
of Cephes, so the engine needs numpy only.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .model import ModulationSpec, NetworkScenario, PowerProfile, Scenario
from .analytic import PrimaryOutageInputs
from .specfun import erfc_sqrt

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
# Every slice of at most _SLICE trials is drawn and scored in one piece,
# and the slice totals are added in slice order, so the float SEP sums
# depend on _SLICE.  Up to _MAX_WORKERS slices are in flight at once, so
# live memory is about that many slices' worth.
_SLICE = 1 << 14
_MAX_WORKERS = 4
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


def _amp_terms(draw, powers: PowerProfile):
    """The factors g2 rl, g2 rl s and g2 rl p y of both exact directions,
    each computed once per draw from one amplifier gain g2; each is the
    leading product of the exact SINR's terms, so the SINRs are the same
    floats as with the factors written out."""
    g = _amp_gain_sq(draw, powers) * powers.gamma_bar_r
    return g, g * powers.gamma_bar_s, g * powers.gamma_bar_p * draw["y"]


def _direction(draw, powers: PowerProfile, amp, x: str, w: str, z: str):
    """SINR at the source that hears the relay over link ``w``, its partner
    over ``x`` and the primary transmitter over ``z``: exact for the
    amplifier factors ``amp`` of ``_amp_terms``, the upper bound when
    ``amp`` is None.  Source 1 reads (x, w, z) and source 2 (w, x, v), the
    swap of ``SecondaryCdfInputs.swapped``."""
    p, s, rl = powers.gamma_bar_p, powers.gamma_bar_s, powers.gamma_bar_r
    x, w, z = draw[x], draw[w], draw[z]
    if amp is not None:
        # g2 rl s x w / (p z + g2 rl p y w + g2 rl w + 1)
        g, gs, gpy = amp
        return gs * x * w / (p * z + gpy * w + g * w + 1.0)
    y, z = (rl * p / s) * draw["y"], p * z
    return rl * np.minimum(x / (z + y + rl / s + 1.0), w / (z + 1.0))


def exact_sinr_s1(draw, powers: PowerProfile):
    """Exact SINR at source 1, assembled term by term from the received
    signal: desired two-hop component over primary direct interference,
    amplified primary interference, amplified relay noise and local
    noise."""
    return _direction(draw, powers, _amp_terms(draw, powers), "x", "w", "z")


def exact_sinr_s2(draw, powers: PowerProfile):
    return _direction(draw, powers, _amp_terms(draw, powers), "w", "x", "v")


def bounded_sinr_s1(draw, powers: PowerProfile):
    """Tractable upper bound gr * min(X/(Z+Y+beta+1), W/(Z+1)); dominates
    the exact SINR on every draw."""
    return _direction(draw, powers, None, "x", "w", "z")


def bounded_sinr_s2(draw, powers: PowerProfile):
    return _direction(draw, powers, None, "w", "x", "v")


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
    p, s, rl = powers.gamma_bar_p, powers.gamma_bar_s, powers.gamma_bar_r
    y = (rl * p / s) * draw[f"y{k}"]
    return rl * np.minimum(draw[f"x{k}"], draw[f"w{k}"]) / (y + rl / s + 1.0)


def e2e_sinr(draw, powers: PowerProfile, scenario: NetworkScenario,
             sinr_kind: str = "bounded"):
    """End-to-end SINR per trial: Scenario (a) is the min over the two
    directions, Scenario (b) the best-relay max over per-relay minima.
    Public API for scoring a draw outside the estimators; the package
    itself does not call it."""
    return _sinrs(draw, powers, scenario, scenario.K, _is_exact(sinr_kind), True)[1]


def _is_exact(sinr_kind: str) -> bool:
    if sinr_kind not in ("exact", "bounded"):
        raise ValueError(f"sinr_kind must be 'exact' or 'bounded', got {sinr_kind!r}")
    return sinr_kind == "exact"


def _sinrs(draw, powers, scenario, K, exact, e2e):
    """The SEP's and the outage's SINR of one row, each computed once.
    Scenario (a): source 1's SINR, and for the outage its min with source
    2's if ``e2e``, both from one amplifier gain.  Scenario (b): the best
    of relays 0..K-1 for both."""
    if scenario.scenario is Scenario.A:
        amp = _amp_terms(draw, powers) if exact else None
        s1 = _direction(draw, powers, amp, "x", "w", "z")
        if not e2e:
            return s1, s1
        return s1, np.minimum(s1, _direction(draw, powers, amp, "w", "x", "v"))
    per_relay = _exact_pair_min_b if exact else _bounded_pair_min_b
    out = per_relay(draw, powers, 0)
    for k in range(1, K):
        np.maximum(out, per_relay(draw, powers, k), out=out)
    return out, out


@functools.cache
def _pool() -> ThreadPoolExecutor:
    # created on the first Monte Carlo call and kept for the process
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return ThreadPoolExecutor(min(_MAX_WORKERS, cpus), thread_name_prefix="montecarlo")


def _tally(trials: int, leaf):
    """``leaf(start, n)`` over the slices of the trial range, run on the
    pool and added up in slice order."""
    if trials < 1_000:
        raise ValueError("at least 1000 trials are required")
    starts = range(0, trials, _SLICE)
    return sum(_pool().map(lambda start: leaf(start, min(_SLICE, trials - start)), starts))


def _proportion(hits: int, trials: int, seed: int) -> Estimate:
    p = hits / trials
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return Estimate(value=p, trials=trials, ci_half_width=ci, seed=seed)


def _score(draw, powers, K, scenario, theta, mod, exact):
    # One row's outage hits, SEP sum and SEP sum of squares on this slice;
    # the SEP is a/2 * erfc(sqrt(b * SINR)) by ``specfun.erfc_sqrt``.
    sep_sinr, sinr = _sinrs(draw, powers, scenario, K, exact, theta is not None)
    hits = total = total_sq = 0.0
    if mod is not None:
        sep = 0.5 * mod.a * erfc_sqrt(mod.b * sep_sinr)
        total = sep.sum()
        total_sq = (sep * sep).sum()
    if theta is not None:
        hits = np.count_nonzero(sinr < theta)
    return hits, total, total_sq


def estimate_rows(scenario: NetworkScenario, rows: list[tuple[int, PowerProfile]],
                  theta: float | None = None, mod: ModulationSpec | None = None,
                  trials: int = DEFAULT_TRIALS, seed: int = 0,
                  sinr_kind: str = "exact") -> list[tuple[Estimate | None, Estimate | None]]:
    """Outage and ASEP estimates of every row, all scored on one draw of
    each trial slice; a row that repeats an earlier one is not scored
    again but gets its estimates.

    A row is a pair (K, powers): its relay count, at most ``scenario.K``,
    and its power profile; it reads the first K relays of ``scenario``.
    Per row: the outage is the fraction of trials whose end-to-end SINR
    falls below ``theta``, the ASEP the average of the conditional SEP kernel
    a/2 * erfc(sqrt(b*gamma)) of ``mod`` (``specfun.erfc_sqrt``) over source
    1's SINR in Scenario (a) and the selected relay's end-to-end SINR in
    Scenario (b); either is None when its ``theta`` or ``mod`` is not
    given, and at least one of them must be."""
    exact = _is_exact(sinr_kind)
    if theta is None and mod is None:
        raise ValueError("at least one of theta and mod is required")
    if not rows:
        return []
    if not all(1 <= K <= scenario.K for K, _ in rows):
        raise ValueError(f"row relay counts must lie in 1..{scenario.K}")
    kmax = max(K for K, _ in rows)
    # The secondary SINRs read no link of the primary receiver (e, f, g, l)
    # and no relay beyond the rows' largest relay count.
    names = [name for name, _ in link_table(scenario)
             if name[0] not in "efgl" and int(name[1:] or 0) < kmax]
    # PowerProfile is frozen, so a row is hashable: position of each row's
    # first occurrence among the distinct rows
    distinct = {row: i for i, row in enumerate(dict.fromkeys(rows))}

    def leaf(start, n):
        # one (hits, SEP sum, SEP sum of squares) row per distinct row; the
        # hit counts stay exact in float64
        draw = draw_gains(scenario, seed, n, start, names)
        return np.array([_score(draw, powers, K, scenario, theta, mod, exact)
                         for K, powers in distinct])

    out = []
    sums = _tally(trials, leaf)[[distinct[row] for row in rows]]
    for hits, total, total_sq in sums.tolist():
        mean = total / trials
        ci = 1.96 * math.sqrt(max(total_sq / trials - mean * mean, 0.0) / trials)
        out.append((None if theta is None else _proportion(int(hits), trials, seed),
                    None if mod is None else Estimate(mean, trials, ci, seed)))
    return out


def estimate_outage(scenario: NetworkScenario, powers: PowerProfile,
                    theta: float, trials: int = DEFAULT_TRIALS,
                    seed: int = 0, sinr_kind: str = "bounded") -> Estimate:
    """Fraction of trials whose SINR falls below ``theta``.  Defaults to the
    upper-bounded SINR (``sinr_kind="bounded"``), whereas ``estimate_rows``
    and ``estimate_asep`` default to the exact one."""
    return estimate_rows(scenario, [(scenario.K, powers)], theta=theta,
                         trials=trials, seed=seed, sinr_kind=sinr_kind)[0][0]


def estimate_asep(scenario: NetworkScenario, powers: PowerProfile,
                  mod: ModulationSpec, trials: int = DEFAULT_TRIALS,
                  seed: int = 0, sinr_kind: str = "exact") -> Estimate:
    """Average of the conditional SEP kernel a/2 * erfc(sqrt(b*gamma))
    over the per-trial SINR of source 1 in Scenario (a) and of the
    selected relay, end to end, in Scenario (b)."""
    return estimate_rows(scenario, [(scenario.K, powers)], mod=mod, trials=trials,
                         seed=seed, sinr_kind=sinr_kind)[0][1]


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
