"""Flat key=value run configuration.

Example::

    fixture=3bus
    n_samples=100
    n_cases=2
    max_depth=4
    use_sensitivity=true
    control_params=tau_u:0.01:1.0;tau_w:0.01:1.0

Every key but ``fixture``, ``out_dir`` and ``control_params`` is a field
of ``ExplorationConfig``.  ``workers``, the number of processes (the
calling one and ``workers - 1`` forked children) that sample and assess
each depth's points and fit ``generate``'s k-fold forests, can be
overridden with the STABGEN_WORKERS environment variable.  Each
``control_params`` name must be a field of ``GforParams`` and/or
``GfolParams``, given once; ``fixed_split_dims``, read in fixed mode only,
must list at least one name, each once, and each one of
``SPLIT_DIM_NAMES`` or a ``control_params`` name (whether the grid has
that dimension is checked by ``generate`` once the space is built).
Unknown keys, keys given twice (``fixture`` and ``grid`` are one key),
``fixed_split_dims`` with ``use_sensitivity=true`` (the default), bad
values (a real number that is not finite among them) and out-of-range
settings raise ConfigError at parse time.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .explorer import ExplorationConfig
from .smallsignal import GfolParams, GforParams
from .space import P_IBR, P_SG, PCT_GFM, V_ANCHOR


class ConfigError(ValueError):
    """Unparseable or inconsistent run configuration."""


DEFAULT_CONTROL_PARAMS = (("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0))
CONTROL_PARAM_NAMES = frozenset(f.name for cls in (GforParams, GfolParams)
                                for f in fields(cls))
SPLIT_DIM_NAMES = (P_SG, P_IBR, PCT_GFM, V_ANCHOR)  # plus the control_params names


@dataclass
class RunConfig:
    grid: str = "3bus"             # fixture name or directory of CSV tables
    out_dir: str = "out"
    control_params: tuple[tuple[str, float, float], ...] = DEFAULT_CONTROL_PARAMS
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}
# A key's value is read by its field's (string) annotation; a field of any
# other type fails at import.
_PARSE_BY_TYPE = {"int": int, "int | None": int, "float": _finite,
                  "bool": lambda text: _BOOL[text.lower()],
                  "tuple[str, ...]": lambda text: tuple(
                      v.strip() for v in text.split(",") if v.strip())}
_KEY_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(ExplorationConfig)}


def _parse_control(value: str) -> tuple[tuple[str, float, float], ...]:
    out = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"control parameter {part!r} must be name:lo:hi")
        name, lo, hi = bits[0], _finite(bits[1]), _finite(bits[2])
        if name not in CONTROL_PARAM_NAMES:
            raise ConfigError(f"control parameter {name!r} is not a field of "
                              f"GforParams or GfolParams")
        if not 0 < lo < hi:  # every converter parameter must be positive
            raise ConfigError(f"control parameter {name!r} needs 0 < lo < hi")
        if any(name == seen for seen, _, _ in out):
            raise ConfigError(f"control parameter {name!r} is given twice")
        out.append((name, lo, hi))
    return tuple(out)


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    cfg = RunConfig()
    expl_kwargs: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        name = "grid" if key == "fixture" else key  # two names of one key
        if name in first_line:
            raise ConfigError(f"{p}:{lineno}: {key!r} is given twice, first on line "
                              f"{first_line[name]}")
        first_line[name] = lineno
        try:
            if key in ("fixture", "grid"):
                cfg.grid = value
            elif key == "out_dir":
                cfg.out_dir = value
            elif key == "control_params":
                cfg.control_params = _parse_control(value)
            elif key in _KEY_PARSERS:
                expl_kwargs[key] = _KEY_PARSERS[key](value)
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
                     (e.seed >= 0, "seed >= 0"),
                     (0 < e.load_pf <= 1, "0 < load_pf <= 1"),
                     (0 < e.loss_factor <= 1, "0 < loss_factor <= 1"),
                     (e.eps_margin >= 0, "eps_margin >= 0"),
                     (e.dev_bound >= 0, "dev_bound >= 0"),
                     (0 <= e.min_tolerance_frac < 1, "0 <= min_tolerance_frac < 1"),
                     (0 <= e.min_feasible_rate <= 1, "0 <= min_feasible_rate <= 1"),
                     (e.forest_trees >= 1, "forest_trees >= 1"),
                     (e.forest_depth >= 1, "forest_depth >= 1"),
                     (e.dims_per_node >= 1, "split_dims_per_node >= 1")):
        if not ok:
            raise ConfigError(f"{p}: out of range, need {rule}")
    if e.use_sensitivity and "fixed_split_dims" in expl_kwargs:
        raise ConfigError(f"{p}: fixed_split_dims is read with use_sensitivity=false only")
    split_names = set(SPLIT_DIM_NAMES) | {name for name, _, _ in cfg.control_params}
    unknown = [d for d in e.fixed_split_dims if d not in split_names]
    if unknown:
        raise ConfigError(f"{p}: fixed_split_dims names no dimension: {', '.join(unknown)}")
    if not e.fixed_split_dims:
        raise ConfigError(f"{p}: fixed_split_dims lists no dimension")
    if len(set(e.fixed_split_dims)) < len(e.fixed_split_dims):
        raise ConfigError(f"{p}: fixed_split_dims names a dimension twice")
    return cfg


def config_as_dict(cfg: RunConfig) -> dict:
    """JSON-ready form of ``cfg``, as written to ``manifest.json``."""
    return {"grid": cfg.grid, "out_dir": cfg.out_dir,
            "control_params": [list(c) for c in cfg.control_params],
            **asdict(cfg.exploration)}
