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
offending line number.  Per-relay link overrides use a 1-based index
suffix, e.g. ``[links.pt_relay.2]``; the unsuffixed section is the shared
default.  Additional named sweeps live in ``[sweep.<name>]`` sections.
All dB values are converted to linear exactly once, when the parsed
config is turned into model objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .model import FadingLink, NetworkScenario, Scenario, db_to_linear

__all__ = ["SweepPlan", "RunConfig", "parse_config", "load_config", "serialize_config"]

LINK_NAMES = ("pt_px", "s1_px", "s2_px", "relay_px", "pt_relay",
              "s1_relay", "s2_relay", "pt_s1", "pt_s2")
_PER_RELAY = ("relay_px", "pt_relay", "s1_relay", "s2_relay")
_AXES = ("primary_snr_db", "secondary_snr_db")

_PRIMARY_KEYS = {"rate": float, "snr_db": float}
_SECONDARY_KEYS = {"scenario": str, "relays": int, "threshold_db": float,
                   "max_source_snr_db": float, "max_relay_snr_db": float}
_LINK_KEYS = {"m": int, "mean_gain": float}
_SWEEP_KEYS = {"axis": str, "start_db": float, "stop_db": float, "step_db": float,
               "outage_thresholds": "float_list", "relay_counts": "int_list",
               "trials": int, "seed": int}


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


def _convert(raw: str, kind, key: str, line: int):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "float_list":
            return tuple(float(t) for t in raw.split(","))
        if kind == "int_list":
            return tuple(int(t) for t in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(f"invalid value {raw!r} for key {key!r}", line) from None


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


def _typed(section: str, keys: dict, schema: dict) -> dict:
    out = {}
    for key, (lineno, raw) in keys.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        out[key] = _convert(raw, schema[key], key, lineno)
    return out


def _require(section: str, values: dict, names, header_line: int):
    for name in names:
        if name not in values:
            raise ConfigError(f"section [{section}] is missing key {name!r}",
                              header_line)


def parse_config(text: str) -> RunConfig:
    """Parse config text; raise ConfigError on any unknown section,
    unknown key, duplicate, or missing required entry, with the line
    number when the error belongs to one line rather than the whole file."""
    sections = _collect(text)

    for required in ("primary", "secondary"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    hline, keys = sections["primary"]
    primary = _typed("primary", keys, _PRIMARY_KEYS)
    _require("primary", primary, ("rate", "snr_db"), hline)

    hline, keys = sections["secondary"]
    secondary = _typed("secondary", keys, _SECONDARY_KEYS)
    _require("secondary", secondary,
             ("scenario", "threshold_db", "max_source_snr_db", "max_relay_snr_db"),
             hline)
    kind_raw = secondary["scenario"].lower()
    if kind_raw not in ("a", "b"):
        raise ConfigError(f"scenario must be 'a' or 'b', got {kind_raw!r}", hline)
    kind = Scenario(kind_raw)
    relays = secondary.get("relays", 1)
    if kind is Scenario.A and relays != 1:
        raise ConfigError("scenario a supports a single relay", hline)

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
            values = _typed(section, keys, _LINK_KEYS)
            _require(section, values, ("m", "mean_gain"), hline)
            try:
                link = FadingLink(values["m"], values["mean_gain"])
            except ValueError as exc:
                raise ConfigError(str(exc), hline) from None
            if idx is None:
                link_defaults[name] = link
            else:
                link_overrides[(name, idx)] = link
        elif parts[0] == "sweep" and len(parts) <= 2:
            name = parts[1] if len(parts) == 2 else "sweep"
            values = _typed(section, keys, _SWEEP_KEYS)
            _require(section, values,
                     ("axis", "start_db", "stop_db", "step_db", "outage_thresholds"),
                     hline)
            try:
                sweeps[name] = SweepPlan(
                    x_axis=values["axis"],
                    start_db=values["start_db"],
                    stop_db=values["stop_db"],
                    step_db=values["step_db"],
                    outage_thresholds=values["outage_thresholds"],
                    relay_counts=values.get("relay_counts", (relays,)),
                    trials=values.get("trials", 100_000),
                    seed=values.get("seed", 0),
                )
            except ValueError as exc:
                raise ConfigError(str(exc), hline) from None
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
    try:
        cfg.network_scenario()  # surface model-level validation errors now
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text; parse_config round-trips it.
    Public API for writing configs from code; the CLI does not call it."""
    out = []
    out.append("[primary]")
    out.append(f"rate = {cfg.primary_rate!r}")
    out.append(f"snr_db = {cfg.primary_snr_db!r}")
    out.append("")
    out.append("[secondary]")
    out.append(f"scenario = {cfg.scenario_kind.value}")
    out.append(f"relays = {cfg.relays}")
    out.append(f"threshold_db = {cfg.threshold_db!r}")
    out.append(f"max_source_snr_db = {cfg.max_source_snr_db!r}")
    out.append(f"max_relay_snr_db = {cfg.max_relay_snr_db!r}")
    for name in LINK_NAMES:
        if name in cfg.link_defaults:
            link = cfg.link_defaults[name]
            out += ["", f"[links.{name}]", f"m = {link.m}",
                    f"mean_gain = {link.mean_gain!r}"]
    for (name, idx), link in sorted(cfg.link_overrides.items()):
        out += ["", f"[links.{name}.{idx}]", f"m = {link.m}",
                f"mean_gain = {link.mean_gain!r}"]
    for name, plan in cfg.sweeps.items():
        header = "[sweep]" if name == "sweep" else f"[sweep.{name}]"
        out += ["", header,
                f"axis = {plan.x_axis}",
                f"start_db = {plan.start_db!r}",
                f"stop_db = {plan.stop_db!r}",
                f"step_db = {plan.step_db!r}",
                "outage_thresholds = " + ", ".join(repr(t) for t in plan.outage_thresholds),
                "relay_counts = " + ", ".join(str(k) for k in plan.relay_counts),
                f"trials = {plan.trials}",
                f"seed = {plan.seed}"]
    return "\n".join(out) + "\n"
