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
import os
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dynamics import DecayProfile, InitialState, TimeGrid
from .errors import ConfigError
from .measurement import ShotConfig
from .ops import InteractionSpec

MODES = ("single", "coupled")
# characters a run name may not hold: every path separator of the platform
# (a backslash is an ordinary character on POSIX) and NUL
_NAME_BANNED = tuple({"/", os.sep, os.altsep, "\0"} - {None})
# most bytes a run name may hold: a file name holds 255 bytes (NAME_MAX
# of ext4, APFS and NTFS), less the longest suffix the CLI appends to a name,
# export-qasm's "_x.qasm"; `runner.delta_scan` holds its directory names to it
NAME_MAX_BYTES = 255 - len("_x.qasm")
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
        if self.name in ("", ".", "..") or any(c in self.name for c in _NAME_BANNED):
            # the name is one path part under the output root: a separator,
            # '.' or '..' would lead elsewhere, and no path holds a NUL
            raise ConfigError(f"invalid configuration {self.name!r}: name must be one "
                              "path component: not empty, '.' or '..', with no '/' or NUL")
        try:
            size = len(os.fsencode(self.name))  # the bytes the file system sees
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise ConfigError(f"invalid configuration {self.name!r}: the name cannot "
                              f"be encoded as a file name: {exc}") from exc
        if size > NAME_MAX_BYTES:
            raise ConfigError(f"invalid configuration: the name is {size} bytes, more than "
                              f"the {NAME_MAX_BYTES} a run name may hold")
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


# what each annotation takes, and the types that pass; the builtin types come
# first: isinstance tries them in order, and the numbers ABCs are slow
_KINDS = {"str": ("a string", (str,)),
          "int": ("an integer", (int, numbers.Integral)),
          "float": ("a real number", (float, int, numbers.Real))}
# field -> (what it takes, types that pass, None allowed), read from the
# annotations, where a trailing "| None" marks an optional field
_FIELD_KINDS = {f.name: (*_KINDS[f.type.removesuffix(" | None")], f.type.endswith(" | None"))
                for f in fields(RunConfig)}


def _check_types(config: RunConfig) -> None:
    """String fields take strings, int fields integers and float fields real
    numbers (an int passes); neither numeric kind takes a bool, and only the
    optional fields (typed ``float | None``) take None."""
    for name, (want, types, optional) in _FIELD_KINDS.items():
        value = getattr(config, name)
        if value is None and optional:
            continue
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"invalid configuration {config.name!r}: "
                              f"{name} must be {want}, got {value!r}")


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
        if key not in _FIELD_KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        quoted = _QUOTED.fullmatch(value)
        if not quoted and value.startswith(("'", '"')):
            raise ConfigError(f"line {lineno}: malformed string for {key}: {value!r}")
        value = quoted[1] if quoted else value.split("#", 1)[0].strip()
        parse = _FIELD_KINDS[key][1][0]  # str, int or float
        try:
            values[key] = ast.literal_eval(value) if quoted and parse is str else parse(value)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    if "mode" not in values:
        raise ConfigError("config is missing the 'mode' key")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text, at byte offset {exc.start}") from exc
    return config_from_text(text)


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Replace selected fields, dropping overrides whose value is None."""
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    bad = cleaned.keys() - _FIELD_KINDS.keys()
    if bad:
        raise ConfigError(f"unknown config field(s): {sorted(bad)}")
    return replace(config, **cleaned)
