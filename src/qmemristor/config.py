"""Run configuration: one flat record covering every knob of a simulation.

Configs serialize to a plain ``key = value`` text format with ``#`` comments,
chosen so runs can be reproduced from a file that any tool can parse. String
values are written as Python literals, so any name survives the round trip.
All fields are validated by constructing the owning module types before a run
starts, so a bad config fails before any work happens.
"""

from __future__ import annotations

import ast
import math
import numbers
import re
from dataclasses import dataclass, fields, replace

from .dynamics import DecayProfile, InitialState, TimeGrid
from .errors import ConfigError
from .measurement import ShotConfig
from .ops import InteractionSpec

MODES = ("single", "coupled")
NORMALIZATIONS = ("max", "initial")


@dataclass(frozen=True)
class RunConfig:
    name: str = "custom"
    mode: str = "single"
    a1: float = 0.0
    b1: float = 0.0
    gamma0_1: float = 0.1
    a2: float | None = None
    b2: float | None = None
    gamma0_2: float | None = None
    omega: float = 1.0
    periods: int = 4
    steps_per_period: int = 30
    interaction: str = "none"
    axis: str = "y"
    delta: float = 0.1
    shots_mode: str = "exact"
    shots: int = 5000
    seed: int = 0
    plot_normalization: str = "max"

    def validate(self) -> "RunComponents":
        """Build and return all owning-module objects, or raise ConfigError."""
        _check_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.plot_normalization not in NORMALIZATIONS:
            raise ConfigError(f"plot_normalization must be one of {NORMALIZATIONS}")
        if self.mode == "single" and self.a1 == 0.0:
            # pure |e>: no transverse Bloch component, so V = I = 0 throughout
            raise ConfigError(f"invalid configuration {self.name!r}: a single run "
                              "needs a1 > 0 (a1 = 0 has zero voltage and current)")
        try:
            init1 = InitialState(self.a1, self.b1)
            prof1 = DecayProfile(self.gamma0_1, self.omega)
            grid = TimeGrid(self.periods, self.steps_per_period)
            span = grid.n_steps * grid.dt(self.omega)
            if not 0.0 < span < math.inf:
                raise ValueError(f"omega = {self.omega!r} gives the time span {span!r}; "
                                 "it must be positive and finite")
            shots = ShotConfig(self.shots_mode, self.shots, self.seed)
            if self.mode == "coupled":
                if self.a2 is None or self.gamma0_2 is None:
                    raise ValueError("coupled mode needs a2 and gamma0_2")
                init2 = InitialState(self.a2, self.b2 if self.b2 is not None else 0.0)
                prof2 = DecayProfile(self.gamma0_2, self.omega)
                spec = InteractionSpec(self.interaction, self.axis, self.delta)
            else:
                init2 = prof2 = None
                spec = InteractionSpec("none")
        except ValueError as exc:
            raise ConfigError(f"invalid configuration {self.name!r}: {exc}") from exc
        return RunComponents(init1, init2, prof1, prof2, grid, spec, shots)

    def to_text(self) -> str:
        lines = ["# qmemristor run configuration"]
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            lines.append(f"{f.name} = {value!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunComponents:
    init1: InitialState
    init2: InitialState | None
    profile1: DecayProfile
    profile2: DecayProfile | None
    grid: TimeGrid
    interaction: InteractionSpec
    shots: ShotConfig

    @property
    def profiles(self) -> list[DecayProfile]:
        return [p for p in (self.profile1, self.profile2) if p is not None]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_FIELDS = {"periods", "steps_per_period", "shots", "seed"}
_STR_FIELDS = {"name", "mode", "interaction", "axis", "shots_mode", "plot_normalization"}
_REAL_TYPES = (float, int, numbers.Real)


def _field_kind(name: str) -> tuple[str, tuple[type, ...]]:
    """What a field takes, and the types that pass. The builtin types come
    first: isinstance tries them in order, and the numbers ABCs are slow."""
    if name in _STR_FIELDS:
        return "a string", (str,)
    if name in _INT_FIELDS:
        return "an integer", (int, numbers.Integral)
    return "a real number", _REAL_TYPES


# (field, what it takes, types that pass, None allowed)
_FIELD_KINDS = tuple((name, *_field_kind(name), "None" in annotation)
                     for name, annotation in _FIELD_TYPES.items())


def _check_types(config: RunConfig) -> None:
    """String fields take strings, int fields integers and float fields real
    numbers (an int passes); neither numeric kind takes a bool, and only the
    optional fields (typed ``float | None``) take None."""
    for name, want, types, optional in _FIELD_KINDS:
        value = getattr(config, name)
        if value is None and optional:
            continue
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"invalid configuration {config.name!r}: "
                              f"{name} must be {want}, got {value!r}")


def check_real(what: str, value) -> None:
    """Apply a float field's type rule to a value that is not a config field:
    a real number (an int passes) and not a bool, else ConfigError."""
    if not isinstance(value, _REAL_TYPES) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a real number, got {value!r}")


# one Python string literal (what to_text writes), then an optional comment
_QUOTED = re.compile(r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")\s*(?:#.*)?""")


def config_from_text(text: str) -> RunConfig:
    """Parse the key-value config format (inverse of RunConfig.to_text);
    each key may appear once."""
    values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        quoted = _QUOTED.fullmatch(value)
        if not quoted and value.startswith(("'", '"')):
            raise ConfigError(f"line {lineno}: malformed string for {key}: {value!r}")
        value = quoted[1] if quoted else value.split("#", 1)[0].strip()
        try:
            if key in _STR_FIELDS:
                values[key] = ast.literal_eval(value) if quoted else value
            elif key in _INT_FIELDS:
                values[key] = int(value)
            else:
                values[key] = float(value)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    if "mode" not in values:
        raise ConfigError("config is missing the 'mode' key")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Replace selected fields, dropping overrides whose value is None."""
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    bad = set(cleaned) - set(_FIELD_TYPES)
    if bad:
        raise ConfigError(f"unknown config field(s): {sorted(bad)}")
    return replace(config, **cleaned)
