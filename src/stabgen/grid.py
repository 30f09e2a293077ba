"""Static network model: buses, lines, aggregated generation groups, loads.

Ingestion is CSV-based (one file per entity type, see ``load_grid``).  All
generators at a bus are pre-aggregated into at most one synchronous-machine
(SG) group and one inverter-based (IBR) group, each described by a uniform
capability curve: active power at least 20 % of rated MVA, reactive power
bounded by the minimum power factor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

SLACK = "Slack"
PV = "PV"
PQ = "PQ"

SG = "SG"
IBR = "IBR"


class GridError(ValueError):
    """Raised for any invalid or inconsistent grid description."""


def capability_limits(p_nom: float, cos_phi: float) -> tuple[float, float, float, float, float]:
    """Capability box (s_rated, p_min, p_max, q_min, q_max) of a generation group.

    ``s_rated = p_nom / cos_phi``; active power is bounded below by 20 % of
    s_rated and above by p_nom; reactive power is symmetric,
    ``q_max = s_rated * sin(arccos(cos_phi))``.
    """
    if p_nom <= 0:
        raise GridError(f"p_nom must be positive, got {p_nom}")
    if not 0 < cos_phi <= 1:
        raise GridError(f"cos_phi must be in (0, 1], got {cos_phi}")
    s_rated = p_nom / cos_phi
    p_min = 0.2 * s_rated
    p_max = p_nom
    q_max = s_rated * math.sin(math.acos(cos_phi))
    return s_rated, p_min, p_max, -q_max, q_max


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # Slack, PV or PQ
    v_min: float
    v_max: float

    def __post_init__(self):
        if self.kind not in (SLACK, PV, PQ):
            raise GridError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not self.v_min < self.v_max:
            raise GridError(f"bus {self.id}: v_min {self.v_min} >= v_max {self.v_max}")


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float  # total shunt susceptance of the pi model
    s_max: float  # MVA

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise GridError(f"line {self.from_bus}-{self.to_bus}: self loop")
        if self.x == 0:
            raise GridError(f"line {self.from_bus}-{self.to_bus}: zero reactance")
        if self.s_max <= 0:
            raise GridError(f"line {self.from_bus}-{self.to_bus}: s_max must be positive")


@dataclass(frozen=True)
class GenGroup:
    bus: int
    tech: str  # SG or IBR
    p_nom: float  # MW
    cos_phi: float
    s_rated: float = field(init=False)
    p_min: float = field(init=False)
    p_max: float = field(init=False)
    q_min: float = field(init=False)
    q_max: float = field(init=False)

    def __post_init__(self):
        if self.tech not in (SG, IBR):
            raise GridError(f"gen at bus {self.bus}: unknown tech {self.tech!r}")
        s, pmin, pmax, qmin, qmax = capability_limits(self.p_nom, self.cos_phi)
        object.__setattr__(self, "s_rated", s)
        object.__setattr__(self, "p_min", pmin)
        object.__setattr__(self, "p_max", pmax)
        object.__setattr__(self, "q_min", qmin)
        object.__setattr__(self, "q_max", qmax)

    @property
    def name(self) -> str:
        return f"{self.tech}_{self.bus}"


@dataclass(frozen=True)
class Load:
    bus: int
    participation: float  # fraction of total system demand


@dataclass(frozen=True)
class GridModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    gen_groups: tuple[GenGroup, ...]
    loads: tuple[Load, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise GridError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind == SLACK]
        if len(slacks) != 1:
            raise GridError(f"exactly one slack bus required, found {len(slacks)}")
        known = set(ids)
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in known:
                    raise GridError(f"line references unknown bus {end}")
        seen_groups = set()
        for g in self.gen_groups:
            if g.bus not in known:
                raise GridError(f"generator references unknown bus {g.bus}")
            key = (g.bus, g.tech)
            if key in seen_groups:
                raise GridError(f"more than one {g.tech} group at bus {g.bus}")
            seen_groups.add(key)
        load_buses = set()
        for ld in self.loads:
            if ld.bus not in known:
                raise GridError(f"load references unknown bus {ld.bus}")
            if ld.bus in load_buses:
                raise GridError(f"more than one load at bus {ld.bus}")
            load_buses.add(ld.bus)
        psum = sum(ld.participation for ld in self.loads)
        if self.loads and abs(psum - 1.0) > 1e-9:
            raise GridError(f"participation sum != 1 (got {psum})")
        if not self._connected():
            raise GridError("bus/line graph is disconnected")

    def _connected(self) -> bool:
        if not self.buses:
            return False
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.buses)

    # -- lookups -----------------------------------------------------------

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.kind == SLACK)

    @property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        return next(b for b in self.buses if b.id == bus_id)

    def groups_of(self, tech: str) -> list[GenGroup]:
        return [g for g in self.gen_groups if g.tech == tech]

    @cached_property
    def network(self) -> Network:
        """This grid compiled to arrays, built on first use and then kept on
        the instance (a pickled grid carries it along)."""
        return compile_network(self)


@dataclass(frozen=True, eq=False)
class Network:
    """A grid as arrays in bus and group order, shared by every power flow
    and linearization on that grid."""

    ybus: np.ndarray           # complex bus admittance matrix, pu
    slack: int                 # slack bus index
    bus_ids: tuple[int, ...]
    gen_bus: np.ndarray        # bus index per group
    gen_p_min: np.ndarray      # MW, per group
    gen_p_max: np.ndarray
    gen_q_min: np.ndarray      # MVAr, per group
    gen_q_max: np.ndarray
    load_bus: np.ndarray       # bus index per load
    base_mva: float


def build_admittance(grid: GridModel) -> np.ndarray:
    """Complex bus-admittance matrix Y (pi model, per unit on base_mva).

    Rows/columns follow the order of ``grid.buses``; row sums equal the
    total shunt susceptance connected at each bus.
    """
    n = len(grid.buses)
    idx = grid.bus_index
    y = np.zeros((n, n), dtype=complex)
    for ln in grid.lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        y_series = 1.0 / complex(ln.r, ln.x)
        y_shunt = 0.5j * ln.b
        y[i, i] += y_series + y_shunt
        y[j, j] += y_series + y_shunt
        y[i, j] -= y_series
        y[j, i] -= y_series
    return y


def compile_network(grid: GridModel) -> Network:
    """The arrays of ``grid``; its admittance matrix comes from
    ``build_admittance``."""
    idx = grid.bus_index
    groups = grid.gen_groups

    def col(values, dtype=float):
        return np.array(list(values), dtype=dtype)

    return Network(
        ybus=build_admittance(grid),
        slack=idx[grid.slack_bus.id],
        bus_ids=tuple(b.id for b in grid.buses),
        gen_bus=col((idx[g.bus] for g in groups), int),
        gen_p_min=col(g.p_min for g in groups),
        gen_p_max=col(g.p_max for g in groups),
        gen_q_min=col(g.q_min for g in groups),
        gen_q_max=col(g.q_max for g in groups),
        load_bus=col((idx[ld.bus] for ld in grid.loads), int),
        base_mva=grid.base_mva,
    )


def power_jacobian(ybus: np.ndarray, v: np.ndarray,
                   ibus: np.ndarray | None = None) -> np.ndarray:
    """Real 2n x 2n Jacobian d[P; Q]/d[theta; |V|] of S = V conj(Y V).

    Dense MATPOWER ``dSbus_dV`` form (Zimmerman et al., IEEE Trans. Power
    Systems 26(1), 2011) at complex bus voltages ``v``; ``ibus = Y v`` when
    the caller already has it.
    """
    if ibus is None:
        ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vn = np.diag(v / np.abs(v))
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds = np.concatenate((ds_dva, ds_dvm), axis=1)
    return np.concatenate((ds.real, ds.imag))


# -- CSV ingestion ----------------------------------------------------------

_SCHEMAS = {
    "buses": ["id", "kind", "v_min", "v_max"],
    "lines": ["from", "to", "r", "x", "b", "s_max"],
    "gens": ["bus", "tech", "p_nom", "cos_phi"],
    "loads": ["bus", "participation"],
}


def _read_table(path: Path, name: str) -> list[dict]:
    if not path.exists():
        raise GridError(f"missing table file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        missing = [c for c in _SCHEMAS[name] if c not in cols]
        if missing:
            raise GridError(f"{name}.csv: missing column(s) {', '.join(missing)}")
        return list(reader)


def load_grid(directory: str | Path, base_mva: float = 100.0) -> GridModel:
    """Build a validated GridModel from buses/lines/gens/loads CSV tables."""
    d = Path(directory)
    buses = tuple(
        Bus(int(r["id"]), r["kind"].strip(), float(r["v_min"]), float(r["v_max"]))
        for r in _read_table(d / "buses.csv", "buses")
    )
    lines = tuple(
        Line(int(r["from"]), int(r["to"]), float(r["r"]), float(r["x"]),
             float(r["b"]), float(r["s_max"]))
        for r in _read_table(d / "lines.csv", "lines")
    )
    gens = tuple(
        GenGroup(int(r["bus"]), r["tech"].strip(), float(r["p_nom"]), float(r["cos_phi"]))
        for r in _read_table(d / "gens.csv", "gens")
    )
    loads = tuple(
        Load(int(r["bus"]), float(r["participation"]))
        for r in _read_table(d / "loads.csv", "loads")
    )
    return GridModel(buses, lines, gens, loads, base_mva)


def export_tables(grid: GridModel, directory: str | Path) -> None:
    """Write the grid back to the four CSV tables (inverse of load_grid)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)

    def _write(name: str, rows: list[list]) -> None:
        with open(d / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(_SCHEMAS[name])
            w.writerows(rows)

    _write("buses", [[b.id, b.kind, repr(b.v_min), repr(b.v_max)] for b in grid.buses])
    _write("lines", [[ln.from_bus, ln.to_bus, repr(ln.r), repr(ln.x), repr(ln.b),
                      repr(ln.s_max)] for ln in grid.lines])
    _write("gens", [[g.bus, g.tech, repr(g.p_nom), repr(g.cos_phi)] for g in grid.gen_groups])
    _write("loads", [[ld.bus, repr(ld.participation)] for ld in grid.loads])


# -- built-in fixtures -------------------------------------------------------

def fixture_3bus() -> GridModel:
    """Triangle grid: SG at the slack bus, IBR at bus 2, load at bus 3."""
    return GridModel(
        buses=(
            Bus(1, SLACK, 0.95, 1.05),
            Bus(2, PV, 0.95, 1.05),
            Bus(3, PQ, 0.95, 1.05),
        ),
        lines=(
            Line(1, 2, 0.01, 0.10, 0.02, 300.0),
            Line(1, 3, 0.01, 0.10, 0.02, 300.0),
            Line(2, 3, 0.01, 0.10, 0.02, 300.0),
        ),
        gen_groups=(
            GenGroup(1, SG, 300.0, 0.95),
            GenGroup(2, IBR, 200.0, 0.95),
        ),
        loads=(Load(3, 1.0),),
    )


def fixture_9bus() -> GridModel:
    """Meshed 9-bus ring with 3 SG groups, 2 IBR groups and 3 loads."""
    return GridModel(
        buses=(
            Bus(1, SLACK, 0.95, 1.05),
            Bus(2, PV, 0.95, 1.05),
            Bus(3, PV, 0.95, 1.05),
            Bus(4, PQ, 0.95, 1.05),
            Bus(5, PQ, 0.95, 1.05),
            Bus(6, PV, 0.95, 1.05),
            Bus(7, PQ, 0.95, 1.05),
            Bus(8, PV, 0.95, 1.05),
            Bus(9, PQ, 0.95, 1.05),
        ),
        lines=(
            Line(1, 4, 0.005, 0.060, 0.01, 350.0),
            Line(4, 5, 0.010, 0.085, 0.02, 250.0),
            Line(5, 6, 0.017, 0.092, 0.02, 250.0),
            Line(3, 6, 0.006, 0.058, 0.01, 300.0),
            Line(6, 7, 0.012, 0.100, 0.02, 250.0),
            Line(7, 8, 0.009, 0.072, 0.02, 250.0),
            Line(2, 8, 0.006, 0.062, 0.01, 300.0),
            Line(8, 9, 0.011, 0.101, 0.02, 250.0),
            Line(9, 4, 0.008, 0.090, 0.02, 250.0),
        ),
        gen_groups=(
            GenGroup(1, SG, 250.0, 0.95),
            GenGroup(2, SG, 200.0, 0.95),
            GenGroup(3, SG, 150.0, 0.95),
            GenGroup(6, IBR, 150.0, 0.95),
            GenGroup(8, IBR, 100.0, 0.95),
        ),
        loads=(Load(5, 0.40), Load(7, 0.35), Load(9, 0.25)),
    )


FIXTURES = {"3bus": fixture_3bus, "9bus": fixture_9bus}


def get_fixture(name: str) -> GridModel:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise GridError(f"unknown fixture {name!r} (have: {', '.join(sorted(FIXTURES))})")
