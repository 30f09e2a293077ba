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
from functools import cached_property, partial
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
    ``q_max = s_rated * sin(arccos(cos_phi))``.  At ``cos_phi <= 0.2`` the
    active range is empty, which is an error.
    """
    if p_nom <= 0:
        raise GridError(f"p_nom must be positive, got {p_nom}")
    if not 0 < cos_phi <= 1:
        raise GridError(f"cos_phi must be in (0, 1], got {cos_phi}")
    s_rated = p_nom / cos_phi
    p_min = 0.2 * s_rated
    p_max = p_nom
    if p_min >= p_max:
        raise GridError(f"cos_phi {cos_phi}: empty active range, "
                        f"p_min {p_min} >= p_max {p_max}")
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
        try:
            s, pmin, pmax, qmin, qmax = capability_limits(self.p_nom, self.cos_phi)
        except GridError as exc:
            raise GridError(f"{self.name}: {exc}") from exc
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
        # the power flow holds a non-slack bus's voltage exactly when it hosts
        # a group, so a declared kind that says otherwise would do nothing
        hosts = {g.bus for g in self.gen_groups}
        for b in self.buses:
            if b.kind != SLACK and (b.kind == PV) != (b.id in hosts):
                raise GridError(f"bus {b.id}: declared {b.kind}, but a non-slack bus "
                                "is PV exactly when it hosts a generation group")
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
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nb in self.neighbors[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.buses)

    # -- lookups -----------------------------------------------------------

    @cached_property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.kind == SLACK)

    @property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def _bus_by_id(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}

    def bus(self, bus_id: int) -> Bus:
        return self._bus_by_id[bus_id]

    @cached_property
    def neighbors(self) -> dict[int, list[int]]:
        """Each bus's neighbours in ascending id order, once per line (a
        parallel line repeats its neighbour); built once per grid."""
        adj: dict[int, list[int]] = {b.id: [] for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
        for nbs in adj.values():
            nbs.sort()
        return adj

    def groups_of(self, tech: str) -> list[GenGroup]:
        return [g for g in self.gen_groups if g.tech == tech]

    @cached_property
    def network(self) -> Network:
        """This grid compiled to arrays, built on first use and then kept on
        the instance (a pickled grid carries it along)."""
        return compile_network(self)


@dataclass(frozen=True, eq=False)
class Network:
    """A grid as read-only arrays in bus, line and group order, built once
    and shared by every power flow, constraint check and linearization on
    that grid; it holds no other state.

    Every group is dispatched: a non-slack bus that hosts a group is PV, and
    a bus's groups share its reactive injection by ``gen_q_max``, the slack
    bus's groups its active injection by ``gen_p_max``."""

    ybus: np.ndarray           # complex bus admittance matrix, pu
    slack: int                 # slack bus index
    bus_ids: tuple[int, ...]
    line_from: np.ndarray      # from-bus index per line
    line_to: np.ndarray        # to-bus index per line
    line_y_series: np.ndarray  # complex series admittance per line, pu
    line_y_shunt: np.ndarray   # complex admittance of each half shunt, pu
    gen_bus: np.ndarray        # bus index per group
    gen_p_min: np.ndarray      # MW, per group
    gen_p_max: np.ndarray
    gen_q_min: np.ndarray      # MVAr, per group
    gen_q_max: np.ndarray
    load_bus: np.ndarray       # bus index per load
    base_mva: float
    is_pv: np.ndarray          # per bus: not the slack and hosts a group
    bus_q_min: np.ndarray      # summed reactive limits of each bus's groups, pu
    bus_q_max: np.ndarray
    q_share: np.ndarray        # per group: its share of its bus's Q
    at_slack: np.ndarray       # per group: at the slack bus
    p_share: np.ndarray        # per group at_slack: its share of the slack bus's P
    # the constraint checks' limits, and their ids in check order with
    # whether the violation total scales each by the base
    bus_v_min: np.ndarray
    bus_v_max: np.ndarray
    line_s_max: np.ndarray     # MVA
    gen_cos_phi: np.ndarray
    check_ids: tuple[str, ...]
    check_scaled: np.ndarray


def _shares(weight: np.ndarray, bus: np.ndarray, n: int) -> np.ndarray:
    """Each group's share of ``weight`` among the groups at its bus; equal
    shares at a bus whose total weight is not positive."""
    total = np.bincount(bus, weight, n)[bus]
    count = np.bincount(bus, minlength=n)[bus]
    return np.divide(weight, total, out=1.0 / count, where=total > 0)


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
    n = len(grid.buses)
    base = grid.base_mva

    def col(values, dtype=float):
        return np.array(list(values), dtype=dtype)

    slack = idx[grid.slack_bus.id]
    gen_bus = col((idx[g.bus] for g in groups), int)
    gen_p_max = col(g.p_max for g in groups)
    gen_q_min = col(g.q_min for g in groups)
    gen_q_max = col(g.q_max for g in groups)
    is_pv = np.bincount(gen_bus, minlength=n) > 0
    is_pv[slack] = False
    at_slack = gen_bus == slack
    check_ids = tuple([f"v_{b.id}" for b in grid.buses]
                      + [f"line_{ln.from_bus}_{ln.to_bus}" for ln in grid.lines]
                      + [f"{kind}_{g.name}" for g in groups
                         for kind in ("pmin", "pmax", "qmin", "qmax", "pf")])
    net = Network(
        ybus=build_admittance(grid),
        slack=slack,
        bus_ids=tuple(b.id for b in grid.buses),
        line_from=col((idx[ln.from_bus] for ln in grid.lines), int),
        line_to=col((idx[ln.to_bus] for ln in grid.lines), int),
        line_y_series=col((1.0 / complex(ln.r, ln.x) for ln in grid.lines), complex),
        line_y_shunt=col((0.5j * ln.b for ln in grid.lines), complex),
        gen_bus=gen_bus,
        gen_p_min=col(g.p_min for g in groups),
        gen_p_max=gen_p_max,
        gen_q_min=gen_q_min,
        gen_q_max=gen_q_max,
        load_bus=col((idx[ld.bus] for ld in grid.loads), int),
        base_mva=base,
        is_pv=is_pv,
        bus_q_min=np.bincount(gen_bus, gen_q_min / base, n),
        bus_q_max=np.bincount(gen_bus, gen_q_max / base, n),
        q_share=_shares(gen_q_max, gen_bus, n),
        at_slack=at_slack,
        p_share=_shares(gen_p_max[at_slack], gen_bus[at_slack], n),
        bus_v_min=col(b.v_min for b in grid.buses),
        bus_v_max=col(b.v_max for b in grid.buses),
        line_s_max=col(ln.s_max for ln in grid.lines),
        gen_cos_phi=col(g.cos_phi for g in groups),
        check_ids=check_ids,
        check_scaled=col((cid.split("_")[0] in ("line", "pmin", "pmax", "qmin", "qmax")
                          for cid in check_ids), bool),
    )
    for a in vars(net).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return net


def power_jacobian(ybus: np.ndarray, v: np.ndarray,
                   ibus: np.ndarray | None = None) -> np.ndarray:
    """Real 2n x 2n Jacobian d[P; Q]/d[theta; |V|] of S = V conj(Y V).

    MATPOWER's ``dSbus_dV`` (Zimmerman et al., IEEE Trans. Power Systems
    26(1), 2011) at complex bus voltages ``v``, with its diagonal matrices
    applied as row and column scalings of Y, O(n^2); ``ibus = Y v`` when
    the caller already has it.  ``v`` of shape ``(..., n)`` gives one
    Jacobian per leading index, each bit-equal to that of its own row.
    """
    if ibus is None:
        ibus = (ybus @ v[..., None])[..., 0]
    n = v.shape[-1]
    vn = v / np.abs(v)
    by_row = v[..., :, None]  # scales row i by v[i]
    diag = (..., np.arange(n), np.arange(n))
    # dS/dtheta = 1j diag(V) conj(diag(I) - Y diag(V)) and
    # dS/d|V| = diag(V) conj(Y diag(Vn)) + conj(diag(I)) diag(Vn), Vn = V / |V|,
    # each diagonal term added in place; the order of the products sets the
    # last bits of the result
    a = ybus * v[..., None, :]
    np.negative(a, out=a)
    a[diag] += ibus
    ds_dva = (1j * by_row) * np.conj(a)
    ds_dvm = by_row * np.conj(ybus * vn[..., None, :])
    ds_dvm[diag] += np.conj(ibus) * vn
    ds = np.concatenate((ds_dva, ds_dvm), axis=-1)
    return np.concatenate((ds.real, ds.imag), axis=-2)


# -- CSV ingestion ----------------------------------------------------------

_SCHEMAS = {
    "buses": ["id", "kind", "v_min", "v_max"],
    "lines": ["from", "to", "r", "x", "b", "s_max"],
    "gens": ["bus", "tech", "p_nom", "cos_phi"],
    "loads": ["bus", "participation"],
}


def _read_table(path: Path, name: str, build) -> tuple:
    """``build`` applied to the ``_cell`` parser of each row of a table.  A
    GridError raised by a cell or by the object built from the row names
    the row's file and line."""
    if not path.exists():
        raise GridError(f"missing table file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        missing = [c for c in _SCHEMAS[name] if c not in cols]
        if missing:
            raise GridError(f"{name}.csv: missing column(s) {', '.join(missing)}")
        built = []
        for row in reader:
            try:
                built.append(build(partial(_cell, row)))
            except GridError as exc:
                raise GridError(f"{name}.csv line {reader.line_num}: {exc}") from exc
        return tuple(built)


def _cell(row: dict, col: str, number=None):
    """Column ``col`` of a table row: stripped text, or parsed by ``number``
    (``int`` or ``float``).  A missing cell, or one that is not a finite
    number, raises GridError."""
    text = row[col]
    if text is None:
        raise GridError(f"missing {col}")
    if number is None:
        return text.strip()
    try:
        value = number(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise GridError(f"{col} {text!r} is not a finite number")
    return value


def load_grid(directory: str | Path, base_mva: float = 100.0) -> GridModel:
    """Build a validated GridModel from buses/lines/gens/loads CSV tables."""
    d = Path(directory)
    buses = _read_table(d / "buses.csv", "buses", lambda c: Bus(
        c("id", int), c("kind"), c("v_min", float), c("v_max", float)))
    lines = _read_table(d / "lines.csv", "lines", lambda c: Line(
        c("from", int), c("to", int), c("r", float), c("x", float), c("b", float),
        c("s_max", float)))
    gens = _read_table(d / "gens.csv", "gens", lambda c: GenGroup(
        c("bus", int), c("tech"), c("p_nom", float), c("cos_phi", float)))
    loads = _read_table(d / "loads.csv", "loads", lambda c: Load(
        c("bus", int), c("participation", float)))
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
