"""Preset catalog mirroring the studied figure configurations.

Coupled presets run at 60 steps per period: the finite-difference current at
30 steps carries enough discretization error to mask the pinch analysis of
the weakly damped (gamma0 = 0.02) coupled runs. The single-memristor fig4
preset keeps the canonical 30 steps per period. The coupling strength of
every coupled preset defaults to delta = 0.1, which is a free parameter of
this simulator (no reference value exists); use the delta scan to explore it.
"""

from __future__ import annotations

import math

from .config import RunConfig
from .errors import ConfigError

_PI = math.pi

_SINGLE_COMMON = dict(mode="single", omega=1.0, shots=5000)
_COUPLED_COMMON = dict(
    mode="coupled",
    a1=_PI / 4, b1=0.0, gamma0_1=0.02,
    a2=_PI / 4, b2=0.0, gamma0_2=0.02,
    omega=1.0, periods=20, steps_per_period=60,
    delta=0.1, shots=5000,
)

_CATALOG: dict[str, RunConfig] = {
    "fig1a": RunConfig(name="fig1a", a1=_PI / 8, b1=_PI / 5, gamma0_1=0.2,
                       periods=5, steps_per_period=60,
                       plot_normalization="initial", **_SINGLE_COMMON),
    "fig1b": RunConfig(name="fig1b", a1=_PI / 8, b1=_PI / 5, gamma0_1=0.02,
                       periods=5, steps_per_period=60,
                       plot_normalization="initial", **_SINGLE_COMMON),
    "fig4": RunConfig(name="fig4", a1=_PI / 4, b1=_PI / 5, gamma0_1=0.4,
                      periods=4, steps_per_period=30, shots_mode="sampled",
                      **_SINGLE_COMMON),
    "fig7": RunConfig(name="fig7", interaction="native", axis="y", **_COUPLED_COMMON),
    "fig8": RunConfig(name="fig8", interaction="native", axis="y", **_COUPLED_COMMON),
    "fig9": RunConfig(name="fig9", interaction="controlled_rotation", axis="y",
                      **_COUPLED_COMMON),
    "fig10": RunConfig(name="fig10", interaction="controlled_rotation", axis="y",
                       **_COUPLED_COMMON),
    "appx_xx": RunConfig(name="appx_xx", interaction="native", axis="x", **_COUPLED_COMMON),
    "appx_zz": RunConfig(name="appx_zz", interaction="native", axis="z", **_COUPLED_COMMON),
    "appx_crx": RunConfig(name="appx_crx", interaction="controlled_rotation",
                          axis="x", **_COUPLED_COMMON),
    "appx_crz": RunConfig(name="appx_crz", interaction="controlled_rotation",
                          axis="z", **_COUPLED_COMMON),
    "appx_pswap": RunConfig(name="appx_pswap", interaction="partial_swap",
                            **_COUPLED_COMMON),
}

PRESET_NOTES: dict[str, str] = {
    "fig1a": "single memristor, a=pi/8, b=pi/5, gamma0=0.2; I-V loop shrinks fast",
    "fig1b": "single memristor, a=pi/8, b=pi/5, gamma0=0.02; slowly shrinking loop",
    "fig4": "single memristor, a=pi/4, b=pi/5, gamma0=0.4, 30 steps/period, 5000 shots",
    "fig7": "coupled pair, sigma_y(x)sigma_y coupling, gamma0=0.02 (delta unspecified upstream, default 0.1)",
    "fig8": "same run as fig7; look at the concurrence/form-factor outputs",
    "fig9": "coupled pair, controlled-Ry coupling, control=qubit 1 (delta unspecified upstream, default 0.1)",
    "fig10": "same run as fig9; look at the concurrence output",
    "appx_xx": "coupled pair, sigma_x(x)sigma_x coupling; destroys memristivity",
    "appx_zz": "coupled pair, sigma_z(x)sigma_z coupling; destroys memristivity",
    "appx_crx": "coupled pair, controlled-Rx coupling; destroys memristivity",
    "appx_crz": "coupled pair, controlled-Rz coupling; destroys memristivity",
    "appx_pswap": "coupled pair, partial-swap (exchange) coupling; destroys memristivity",
}

PRESET_NAMES = tuple(_CATALOG)


def preset(name: str) -> RunConfig:
    try:
        return _CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
