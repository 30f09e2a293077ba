"""Flat key=value run configuration.

Example::

    fixture=3bus
    n_samples=100
    n_cases=2
    max_depth=4
    use_sensitivity=true
    control_params=tau_u:0.01:1.0;tau_w:0.01:1.0

``workers``, the assessment thread-pool size, can be overridden with the
STABGEN_WORKERS environment variable.  Each ``control_params`` name must be
a field of ``GforParams`` and/or ``GfolParams``.  Unknown keys, bad values
and out-of-range settings raise ConfigError at parse time.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .explorer import ExplorationConfig
from .smallsignal import GfolParams, GforParams


class ConfigError(ValueError):
    """Unparseable or inconsistent run configuration."""


DEFAULT_CONTROL_PARAMS = (("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0))
CONTROL_PARAM_NAMES = frozenset(f.name for cls in (GforParams, GfolParams)
                                for f in fields(cls))


@dataclass
class RunConfig:
    grid: str = "3bus"             # fixture name or directory of CSV tables
    out_dir: str = "out"
    control_params: tuple[tuple[str, float, float], ...] = DEFAULT_CONTROL_PARAMS
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}

_EXPLORATION_KEYS = {
    "n_samples": int, "n_cases": int, "max_depth": int,
    "min_feasible_rate": float, "entropy_decrease_threshold": float,
    "min_tolerance_frac": float, "use_sensitivity": "bool",
    "fixed_split_dims": "strlist", "split_dims_per_node": int,
    "loss_factor": float, "eps_margin": float, "seed": int, "workers": int,
    "dev_bound": float, "randomize_loads": "bool", "load_pf": float,
    "record_timing": "bool", "forest_trees": int, "forest_depth": int,
}


def _parse_control(value: str) -> tuple[tuple[str, float, float], ...]:
    out = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"control parameter {part!r} must be name:lo:hi")
        name, lo, hi = bits[0], float(bits[1]), float(bits[2])
        if name not in CONTROL_PARAM_NAMES:
            raise ConfigError(f"control parameter {name!r} is not a field of "
                              f"GforParams or GfolParams")
        if not 0 < lo < hi:  # every converter parameter must be positive
            raise ConfigError(f"control parameter {name!r} needs 0 < lo < hi")
        out.append((name, lo, hi))
    return tuple(out)


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    cfg = RunConfig()
    expl_kwargs: dict = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in ("fixture", "grid"):
                cfg.grid = value
            elif key == "out_dir":
                cfg.out_dir = value
            elif key == "control_params":
                cfg.control_params = _parse_control(value)
            elif key in _EXPLORATION_KEYS:
                kind = _EXPLORATION_KEYS[key]
                if kind == "bool":
                    expl_kwargs[key] = _BOOL[value.lower()]
                elif kind == "strlist":
                    expl_kwargs[key] = tuple(v.strip() for v in value.split(",") if v.strip())
                else:
                    expl_kwargs[key] = kind(value)
            else:
                raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        except (ValueError, KeyError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{p}:{lineno}: bad value for {key!r}: {value!r}") from exc
    cfg.exploration = ExplorationConfig(**expl_kwargs)
    env_workers = os.environ.get("STABGEN_WORKERS")
    if env_workers:
        try:
            cfg.exploration.workers = int(env_workers)
        except ValueError:
            raise ConfigError(f"STABGEN_WORKERS must be an integer, got {env_workers!r}")
    e = cfg.exploration
    for ok, rule in ((e.workers >= 1, "workers >= 1 (key or STABGEN_WORKERS)"),
                     (e.n_samples >= 1, "n_samples >= 1"),
                     (e.n_cases >= 1, "n_cases >= 1"),
                     (e.max_depth >= 0, "max_depth >= 0"),
                     (0 < e.load_pf <= 1, "0 < load_pf <= 1")):
        if not ok:
            raise ConfigError(f"{p}: out of range, need {rule}")
    return cfg


def config_as_dict(cfg: RunConfig) -> dict:
    """JSON-ready form of ``cfg``, as written to ``manifest.json``."""
    return {"grid": cfg.grid, "out_dir": cfg.out_dir,
            "control_params": [list(c) for c in cfg.control_params],
            **asdict(cfg.exploration)}
