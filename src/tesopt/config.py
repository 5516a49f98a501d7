"""Run configuration with desk-scale defaults, read from JSON."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .optimizers import L1L2_MAX_ITER, L1L2_TOL
from .search import DESK_STEP_DB, GAMMA_THRESHOLD, METHODS, SearchError, \
    default_lattice_spec


class ConfigError(ValueError):
    pass


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _positive(value) -> bool:
    return _finite(value) and value > 0.0


def _integer_at_least(value, least: int) -> bool:
    return type(value) is int and value >= least


@dataclass
class RunConfig:
    # geometry (meters, S/m)
    radii: tuple[float, ...] = (0.09, 0.085, 0.078)
    conductivities: tuple[float, ...] = (0.33, 0.0042, 0.33)
    cell_size: float = 0.005
    # electrodes
    electrode_count: int = 32        # desk scale; full-scale cap is 128
    impedance_ohm: float = 2000.0
    # field points and target
    field_point_count: int = 1000
    seed: int = 1
    target_hint: tuple[float, float, float] = (0.0, 0.0, 1.0)
    d_target: float = 0.2            # A/m^2
    # dose limits (A)
    mu: float = 4e-3
    # search configuration
    methods: tuple[str, ...] = METHODS
    cases: tuple[str, ...] = ("A", "B")
    channels: tuple[int, ...] = (8, 20)
    gamma_threshold: float = GAMMA_THRESHOLD
    lattice_step_db: float = DESK_STEP_DB
    # solver tolerances
    l1l2_tol: float = L1L2_TOL
    l1l2_max_iter: int = L1L2_MAX_ITER
    threads: int | None = None

    @property
    def gamma(self) -> float:
        return self.mu / 2.0

    @property
    def target_compartment(self) -> int:
        return len(self.radii)

    def solver_opts(self) -> dict:
        return {
            "l1l2": {"tol": self.l1l2_tol, "max_iter": self.l1l2_max_iter},
        }

    def validate(self) -> None:
        if len(self.radii) != len(self.conductivities):
            raise ConfigError("radii and conductivities must pair up")
        for name in ("radii", "conductivities"):
            if not all(_positive(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be finite and positive")
        for name in ("cell_size", "impedance_ohm", "d_target", "mu",
                     "lattice_step_db", "l1l2_tol"):
            if not _positive(getattr(self, name)):
                raise ConfigError(f"{name} must be finite and positive")
        if not (len(self.target_hint) == 3 and all(_finite(v) for v in self.target_hint)
                and any(self.target_hint)):
            raise ConfigError("target_hint must hold 3 finite entries, not all zero")
        for name, least in (("electrode_count", 2), ("field_point_count", 1),
                            ("l1l2_max_iter", 1), ("seed", 0)):
            if not _integer_at_least(getattr(self, name), least):
                raise ConfigError(f"{name} must be an integer of at least {least}")
        if not (self.threads is None or _integer_at_least(self.threads, 1)):
            raise ConfigError("threads must be null or an integer of at least 1")
        if not _finite(self.gamma_threshold):
            raise ConfigError("gamma_threshold must be finite")
        for name in ("methods", "cases", "channels"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
            try:
                default_lattice_spec(m, step_db=self.lattice_step_db)
            except SearchError as exc:
                raise ConfigError(f"lattice_step_db {self.lattice_step_db!r} "
                                  f"does not fit the {m} lattice: {exc}") from exc
        for c in self.cases:
            if c not in ("A", "B"):
                raise ConfigError(f"unknown case {c!r}")
        for k in self.channels:
            if not _integer_at_least(k, 2):
                raise ConfigError(f"channels: channel count {k!r} must be an "
                                  "integer of at least 2")
            if k > self.electrode_count:
                raise ConfigError(f"channels: channel count {k} exceeds the "
                                  f"{self.electrode_count} electrodes")
        for name in ("methods", "cases", "channels"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} must not repeat an entry")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        gamma = data.pop("gamma", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("radii", "conductivities", "target_hint", "methods",
                    "cases", "channels"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        cfg = cls(**data)
        if gamma is not None and abs(gamma - cfg.mu / 2.0) > 1e-15 * cfg.mu:
            raise ConfigError("gamma must equal mu/2")
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path | None) -> "RunConfig":
        if path is None:
            cfg = cls()
            cfg.validate()
            return cfg
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
