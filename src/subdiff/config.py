"""Experiment configuration with JSON round-trip and strict validation."""

from __future__ import annotations

import json
import math
from sys import float_info
from dataclasses import asdict, dataclass, field, fields

from .exact import DATA


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass
class ExperimentConfig:
    alpha: float = 0.75
    example: str = "example1"
    M: list = field(default_factory=lambda: [8])
    N: int = 1000
    gamma: float = 1.6
    T: float = 0.5
    modes: int = 60
    mu: list = field(default_factory=lambda: [0.0])
    fine_M: int = 128
    out: str = "out"
    tol: float = 1e-12

    def validate(self) -> None:
        for name in ("alpha", "gamma", "T", "tol"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("N", "modes", "fine_M"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name, ok, what in (("M", _is_int, "integers"), ("mu", _is_real, "finite numbers")):
            vals = getattr(self, name)
            if not isinstance(vals, (list, tuple)) or not all(ok(v) for v in vals):
                raise ConfigError(f"{name} must be a list of {what}, got {vals!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        for name in ("example", "out"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.example not in DATA:
            raise ConfigError(f"example must be one of {tuple(DATA)}, got {self.example!r}")
        if not self.M:
            raise ConfigError("M must list at least one mesh size")
        if len(set(self.M)) != len(self.M):
            raise ConfigError(f"M values must be distinct, got {self.M}")
        for m in self.M:
            if m < 2:
                raise ConfigError(f"M entries must be integers >= 2, got {m!r}")
        if self.N < 1:
            raise ConfigError(f"N must be an integer >= 1, got {self.N!r}")
        if self.gamma < 1.0:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
        if not (self.T > 0.0):
            raise ConfigError(f"T must be > 0, got {self.T}")
        if self.modes < 1:
            raise ConfigError(f"modes must be an integer >= 1, got {self.modes!r}")
        if not self.mu:
            raise ConfigError("mu must list at least one weight exponent")
        for mu in self.mu:
            if mu < 0.0:
                raise ConfigError(f"mu values must be >= 0, got {mu}")
            # the largest weight T**mu must be a normal finite double (as logs:
            # a float power raises OverflowError)
            if not math.log(float_info.min) < mu * math.log(self.T) < math.log(float_info.max):
                raise ConfigError(f"mu={mu} with T={self.T}: the final-time weight T**mu "
                                  f"is not a normal finite number; lower mu")
        if len(set(self.mu)) != len(self.mu):
            raise ConfigError(f"mu values must be distinct, got {self.mu}")
        if self.fine_M < 2:
            raise ConfigError(f"fine_M must be an integer >= 2, got {self.fine_M!r}")
        for m in self.M:
            if self.fine_M % m != 0:
                raise ConfigError(f"fine_M must be a multiple of every M; "
                                  f"fine_M={self.fine_M} fails for M={m}")
        if not (0.0 < self.tol <= 1e-6):
            raise ConfigError(f"tol must lie in (0, 1e-6], got {self.tol}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        """Config from a JSON object: the fields it names replace base's
        (the defaults when base is None); the others keep base's values."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("a config file must hold a JSON object")
        return (cls() if base is None else base).replace(**raw)

    def replace(self, **overrides) -> "ExperimentConfig":
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return ExperimentConfig(**{**asdict(self), **overrides})
