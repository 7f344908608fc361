"""Plain-text run configuration: grammar, parser and serializer.

The format is a sectioned key = value file::

    [primary]
    rate = 1.0
    snr_db = 10.0

    [secondary]
    scenario = a
    relays = 1
    threshold_db = 3.0
    max_source_snr_db = 20.0
    max_relay_snr_db = 20.0

    [links.pt_px]
    m = 2
    mean_gain = 1.0

    [sweep]
    axis = primary_snr_db
    start_db = 0.0
    stop_db = 30.0
    step_db = 5.0
    outage_thresholds = 0.1, 0.05
    relay_counts = 1
    trials = 100000
    seed = 42

``#`` starts a comment.  Unknown sections or keys are rejected with the
offending line number.  The keys of each section kind, their types and
which of them are required are stated once, in ``_GRAMMAR``: the parser
reads every section by it and ``serialize_config`` writes every section
from it.  Per-relay link overrides use a 1-based index suffix, e.g.
``[links.pt_relay.2]``; the unsuffixed section is the shared default.
Additional named sweeps live in ``[sweep.<name>]`` sections, the name
non-empty and without whitespace.  All dB values are converted to linear
exactly once, when the parsed config is turned into model objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import FadingLink, NetworkScenario, Scenario, db_to_linear

__all__ = ["SweepPlan", "RunConfig", "parse_config", "load_config", "serialize_config"]

LINK_NAMES = ("pt_px", "s1_px", "s2_px", "relay_px", "pt_relay",
              "s1_relay", "s2_relay", "pt_s1", "pt_s2")
_PER_RELAY = ("relay_px", "pt_relay", "s1_relay", "s2_relay")
_AXES = ("primary_snr_db", "secondary_snr_db")


def _finite(raw: str) -> float:
    """A float that is neither NaN nor infinite."""
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _db(raw: str) -> float:
    """A finite dB value whose linear power 10^(x/10) is a positive finite float."""
    try:
        if db_to_linear(value := _finite(raw)) > 0.0:
            return value
    except OverflowError:
        pass
    raise ValueError(f"{raw!r} dB is no positive finite power")


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values."""
    return lambda raw: tuple(kind(item) for item in raw.split(","))


# The grammar: section kind -> key -> (parser of the raw value, required).
# ``serialize_config`` writes every key in this order.  An optional key
# left out takes its default from ``parse_config`` (``relays`` is 1, a
# sweep's ``relay_counts`` is ``(relays,)``) or from ``SweepPlan``.
_GRAMMAR = {
    "primary": {"rate": (_finite, True), "snr_db": (_db, True)},
    "secondary": {"scenario": (str, True), "relays": (int, False),
                  "threshold_db": (_db, True), "max_source_snr_db": (_db, True),
                  "max_relay_snr_db": (_db, True)},
    "links": {"m": (int, True), "mean_gain": (_finite, True)},
    "sweep": {"axis": (str, True), "start_db": (_db, True), "stop_db": (_db, True),
              "step_db": (_finite, True), "outage_thresholds": (_list_of(_finite), True),
              "relay_counts": (_list_of(int), False), "trials": (int, False),
              "seed": (int, False)},
}


@dataclass(frozen=True)
class SweepPlan:
    """One experiment grid: the x-axis in dB, the primary outage-constraint
    levels, the relay counts to compare, and the Monte Carlo budget."""

    x_axis: str
    start_db: float
    stop_db: float
    step_db: float
    outage_thresholds: tuple[float, ...]
    relay_counts: tuple[int, ...] = (1,)
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.x_axis not in _AXES:
            raise ValueError(f"x_axis must be one of {_AXES}, got {self.x_axis!r}")
        if not (self.step_db > 0.0):
            raise ValueError("step_db must be positive")
        if not (self.start_db < self.stop_db):
            raise ValueError("start_db must be below stop_db")
        for t in self.outage_thresholds:
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"outage threshold {t} outside [0, 1]")
        if not self.outage_thresholds:
            raise ValueError("at least one outage threshold is required")
        if not self.relay_counts:
            raise ValueError("at least one relay count is required")
        for k in self.relay_counts:
            if k < 1:
                raise ValueError(f"relay count {k} must be >= 1")
        if self.trials < 1_000:
            raise ValueError("trials must be at least 1000")

    def grid_db(self) -> list[float]:
        out = []
        x = self.start_db
        n = 0
        while x <= self.stop_db + 1e-9:
            out.append(round(x, 12))
            n += 1
            x = self.start_db + n * self.step_db
        return out


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: topology, power knobs and sweep plans."""

    scenario_kind: Scenario
    relays: int
    primary_rate: float
    primary_snr_db: float
    threshold_db: float
    max_source_snr_db: float
    max_relay_snr_db: float
    link_defaults: dict[str, FadingLink]
    link_overrides: dict[tuple[str, int], FadingLink] = field(default_factory=dict)
    sweeps: dict[str, SweepPlan] = field(default_factory=dict)

    def link(self, name: str, k: int = 0) -> FadingLink:
        """Resolve a link spec, honoring a per-relay override (0-based k)."""
        return self.link_overrides.get((name, k + 1), self.link_defaults[name])

    def network_scenario(self, K: int | None = None) -> NetworkScenario:
        K = self.relays if K is None else K
        per = {name: tuple(self.link(name, k) for k in range(K))
               for name in _PER_RELAY}
        return NetworkScenario(
            scenario=self.scenario_kind,
            K=K,
            pt_px=self.link_defaults["pt_px"],
            s1_px=self.link_defaults["s1_px"],
            s2_px=self.link_defaults["s2_px"],
            relay_px=per["relay_px"],
            pt_relay=per["pt_relay"],
            s1_relay=per["s1_relay"],
            s2_relay=per["s2_relay"],
            pt_s1=self.link_defaults.get("pt_s1"),
            pt_s2=self.link_defaults.get("pt_s2"),
            primary_rate=self.primary_rate,
            secondary_threshold=db_to_linear(self.threshold_db),
        )


def _scan(text: str):
    """Yield (line_number, section_or_none, key_or_none, raw_value)."""
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            section = stripped[1:-1].strip()
            yield lineno, section, None, None
        elif "=" in stripped:
            if section is None:
                raise ConfigError("key outside any section", lineno)
            key, _, raw = stripped.partition("=")
            yield lineno, section, key.strip(), raw.strip()
        else:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)


def _collect(text: str) -> dict[str, tuple[int, dict[str, tuple[int, str]]]]:
    sections: dict[str, tuple[int, dict]] = {}
    for lineno, section, key, raw in _scan(text):
        if key is None:
            if section in sections:
                raise ConfigError(f"duplicate section [{section}]", lineno)
            sections[section] = (lineno, {})
        else:
            _, keys = sections[section]
            if key in keys:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            keys[key] = (lineno, raw)
    return sections


def _read(section: str, kind: str, header_line: int, keys: dict) -> dict:
    """Type the keys of one section of ``kind`` by the grammar and check
    that its required keys are present."""
    grammar = _GRAMMAR[kind]
    values = {}
    for key, (lineno, raw) in keys.items():
        if key not in grammar:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        try:
            values[key] = grammar[key][0](raw)
        except ValueError:
            raise ConfigError(f"invalid value {raw!r} for key {key!r}", lineno) from None
    for key, (_, required) in grammar.items():
        if required and key not in values:
            raise ConfigError(f"section [{section}] is missing key {key!r}", header_line)
    return values


def _build(make, line: int | None, **values):
    """``make(**values)``, raising a model ``ValueError`` as a ConfigError."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from None


def parse_config(text: str) -> RunConfig:
    """Parse config text; raise ConfigError on any unknown section,
    unknown key, duplicate, or missing required entry, with the line
    number when the error belongs to one line rather than the whole file."""
    sections = _collect(text)

    for required in ("primary", "secondary"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    primary = _read("primary", "primary", *sections["primary"])
    hline, keys = sections["secondary"]
    secondary = _read("secondary", "secondary", hline, keys)
    kind_raw = secondary["scenario"].lower()
    if kind_raw not in ("a", "b"):
        raise ConfigError(f"scenario must be 'a' or 'b', got {kind_raw!r}", hline)
    kind = Scenario(kind_raw)
    relays = secondary.get("relays", 1)
    if kind is Scenario.A and relays != 1:
        raise ConfigError("scenario a supports a single relay", hline)
    if relays < 1:
        raise ConfigError(f"relays {relays} out of range, must be >= 1", hline)

    link_defaults: dict[str, FadingLink] = {}
    link_overrides: dict[tuple[str, int], FadingLink] = {}
    sweeps: dict[str, SweepPlan] = {}
    for section, (hline, keys) in sections.items():
        if section in ("primary", "secondary"):
            continue
        parts = section.split(".")
        if parts[0] == "links":
            if len(parts) == 2:
                name, idx = parts[1], None
            elif len(parts) == 3 and parts[2].isdigit():
                name, idx = parts[1], int(parts[2])
            else:
                raise ConfigError(f"malformed link section [{section}]", hline)
            if name not in LINK_NAMES:
                raise ConfigError(f"unknown link {name!r}", hline)
            if idx is not None and name not in _PER_RELAY:
                raise ConfigError(f"link {name!r} has no per-relay variants", hline)
            if idx is not None and not (1 <= idx <= relays):
                raise ConfigError(f"relay index {idx} outside 1..{relays}", hline)
            link = _build(FadingLink, hline, **_read(section, "links", hline, keys))
            if idx is None:
                link_defaults[name] = link
            else:
                link_overrides[(name, idx)] = link
        elif parts[0] == "sweep" and len(parts) <= 2:
            name = parts[1] if len(parts) == 2 else "sweep"
            if not name or any(c.isspace() for c in name):
                raise ConfigError(f"malformed sweep section [{section}]", hline)
            values = _read(section, "sweep", hline, keys)
            values["x_axis"] = values.pop("axis")
            values.setdefault("relay_counts", (relays,))
            sweeps[name] = _build(SweepPlan, hline, **values)
        else:
            raise ConfigError(f"unknown section [{section}]", hline)

    required_links = set(LINK_NAMES) - {"pt_s1", "pt_s2"}
    if kind is Scenario.A:
        required_links |= {"pt_s1", "pt_s2"}
    missing = sorted(required_links - set(link_defaults))
    if missing:
        raise ConfigError(f"missing link sections: {', '.join(missing)}")

    for plan in sweeps.values():
        for k in plan.relay_counts:
            if k > relays:
                raise ConfigError(
                    f"sweep relay count {k} exceeds configured relays {relays}")

    cfg = RunConfig(
        scenario_kind=kind,
        relays=relays,
        primary_rate=primary["rate"],
        primary_snr_db=primary["snr_db"],
        threshold_db=secondary["threshold_db"],
        max_source_snr_db=secondary["max_source_snr_db"],
        max_relay_snr_db=secondary["max_relay_snr_db"],
        link_defaults=link_defaults,
        link_overrides=link_overrides,
        sweeps=sweeps,
    )
    _build(cfg.network_scenario, None)  # surface model-level validation errors now
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _section(header: str, kind: str, values: dict) -> str:
    """One section's text: its header, then every key of ``kind`` in
    grammar order, lists comma-separated and floats as their repr."""
    lines = [f"[{header}]"]
    for key in _GRAMMAR[kind]:
        value = values[key]
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text; parse_config round-trips it.
    Public API for writing configs from code; the CLI does not call it."""
    sections = [
        _section("primary", "primary",
                 {"rate": cfg.primary_rate, "snr_db": cfg.primary_snr_db}),
        _section("secondary", "secondary",
                 {**vars(cfg), "scenario": cfg.scenario_kind.value}),
    ]
    sections += [_section(f"links.{name}", "links", vars(cfg.link_defaults[name]))
                 for name in LINK_NAMES if name in cfg.link_defaults]
    sections += [_section(f"links.{name}.{idx}", "links", vars(link))
                 for (name, idx), link in sorted(cfg.link_overrides.items())]
    sections += [_section("sweep" if name == "sweep" else f"sweep.{name}", "sweep",
                          {**vars(plan), "axis": plan.x_axis})
                 for name, plan in cfg.sweeps.items()]
    return "\n".join(sections)
