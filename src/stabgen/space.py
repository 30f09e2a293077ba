"""Operating-space formalism: dimensions, variables, subregion cells.

Independent dimensions are system-level quantities sampled directly (total
SG power, total IBR power, grid-forming share, voltage anchor, control
parameters); the dependent dimension is the total demand.  Variables
disaggregate dimension totals onto individual generation groups and loads.
Subregions are axis-aligned hyperrectangles produced by midpoint bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .grid import GridModel, SG, IBR

INDEPENDENT = "Independent"
DEPENDENT = "Dependent"

P_SG = "P_SG"
P_IBR = "P_IBR"
PCT_GFM = "pct_P_GFM"
V_ANCHOR = "V_anchor"
P_D = "P_D"


class SpaceError(ValueError):
    """Invalid operating-space construction or use."""


class ToleranceFloorError(SpaceError):
    """A dimension's range has shrunk below its minimum-tolerance floor."""


@dataclass(frozen=True)
class DimensionSpec:
    name: str
    kind: str  # Independent or Dependent
    lo: float = 0.0
    hi: float = 0.0
    min_tolerance_frac: float = 0.01

    def __post_init__(self):
        if self.kind == INDEPENDENT and not self.lo < self.hi:
            raise SpaceError(f"dimension {self.name}: lo {self.lo} >= hi {self.hi}")


@dataclass(frozen=True)
class VariableSpec:
    name: str
    parent_dimension: str
    element: str  # generation-group or load identifier
    lo: float
    hi: float
    kind: str  # Independent or Dependent

    def __post_init__(self):
        if self.lo > self.hi:
            raise SpaceError(f"variable {self.name}: lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class OperatingSpaceSpec:
    dimensions: tuple[DimensionSpec, ...]
    variables: tuple[VariableSpec, ...]

    @property
    def independent(self) -> tuple[DimensionSpec, ...]:
        return tuple(d for d in self.dimensions if d.kind == INDEPENDENT)

    def dimension(self, name: str) -> DimensionSpec:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise SpaceError(f"unknown dimension {name!r}")

    def root_cell(self) -> "Subregion":
        bounds = {d.name: (d.lo, d.hi) for d in self.independent}
        return Subregion(bounds=bounds, initial=bounds, depth=0, path="R")


@dataclass(frozen=True)
class Subregion:
    """Hyperrectangle over the independent dimensions.

    ``path`` records the split history, e.g. ``R.P_SG_L.V_anchor_H``.
    Intervals are half-open [lo, hi) except at a dimension's initial upper
    edge, which stays closed so the root covers its whole range.
    """

    bounds: dict[str, tuple[float, float]]
    initial: dict[str, tuple[float, float]]
    depth: int
    path: str

    def width(self, dim: str) -> float:
        lo, hi = self.bounds[dim]
        return hi - lo

    def at_tolerance_floor(self, dim: str, min_tolerance_frac: float) -> bool:
        init_lo, init_hi = self.initial[dim]
        return self.width(dim) <= min_tolerance_frac * (init_hi - init_lo)

    def volume(self) -> float:
        v = 1.0
        for d in self.bounds:
            v *= self.width(d)
        return v


def split(cell: Subregion, dim: str, min_tolerance_frac: float) -> tuple[Subregion, Subregion]:
    """Bisect a cell at the midpoint of one independent dimension.

    Raises ToleranceFloorError if either child's range would fall below
    ``min_tolerance_frac`` of the dimension's initial range.
    """
    if dim not in cell.bounds:
        raise SpaceError(f"cannot split on {dim!r}: not a bounded dimension of the cell")
    if cell.at_tolerance_floor(dim, min_tolerance_frac):
        raise ToleranceFloorError(
            f"dimension {dim} at {cell.width(dim):.6g} is below the tolerance floor")
    lo, hi = cell.bounds[dim]
    mid = 0.5 * (lo + hi)
    lo_bounds = dict(cell.bounds)
    hi_bounds = dict(cell.bounds)
    lo_bounds[dim] = (lo, mid)
    hi_bounds[dim] = (mid, hi)
    child_l = Subregion(lo_bounds, cell.initial, cell.depth + 1, f"{cell.path}.{dim}_L")
    child_h = Subregion(hi_bounds, cell.initial, cell.depth + 1, f"{cell.path}.{dim}_H")
    return child_l, child_h


@dataclass(frozen=True)
class OperatingPoint:
    """One fully disaggregated sample of the operating space."""

    dim_values: dict[str, float]
    var_values: dict[str, float]
    voltage_profile: dict[int, float]  # bus id -> pu magnitude
    sample_index: int = 0
    case_index: int = 0


def contains(cell: Subregion, op: OperatingPoint) -> bool:
    """True iff every bounded dimension value lies inside the cell.

    Half-open convention [lo, hi); a value equal to the dimension's initial
    upper bound is contained when the cell reaches that edge.
    """
    return contains_values(cell, op.dim_values)


def contains_values(cell: Subregion, dim_values: dict[str, float]) -> bool:
    for dim, (lo, hi) in cell.bounds.items():
        v = dim_values[dim]
        if v < lo:
            return False
        if v >= hi and not (hi == cell.initial[dim][1] and v == hi):
            return False
    return True


def derive_dependent(op: OperatingPoint, loss_factor: float) -> OperatingPoint:
    """Fill in the dependent dimension and variables of an operating point.

    Total demand is the loss-factor fraction of total generation; every
    grid-following allocation is the IBR-group remainder after its sampled
    grid-forming share.  Idempotent.
    """
    dims = dict(op.dim_values)
    dims[P_D] = loss_factor * (dims.get(P_SG, 0.0) + dims.get(P_IBR, 0.0))
    varv = dict(op.var_values)
    for name, value in op.var_values.items():
        if not name.startswith("P_GFM_"):
            continue
        elem = name[len("P_GFM_"):]
        p_ibr_i = op.var_values[f"P_IBR_{elem}"]
        p_gfl_i = p_ibr_i - value
        if p_gfl_i < -1e-9:
            raise SpaceError(
                f"GFM allocation {value} exceeds IBR allocation {p_ibr_i} at {elem}")
        varv[f"P_GFL_{elem}"] = max(p_gfl_i, 0.0)
    return replace(op, dim_values=dims, var_values=varv)


def build_space(grid: GridModel,
                control_params: list[tuple[str, float, float]] = (),
                min_tolerance_frac: float = 0.01) -> OperatingSpaceSpec:
    """Derive the operating space of a grid.

    Independent dimensions: total SG power, total IBR power (when IBR
    groups exist), the grid-forming share in [0, 1], the voltage anchor at
    the slack bus, and one dimension per declared control parameter.  The
    dependent dimension is the total demand.  Variables carry the
    capability-box bounds of each group and the participation of each load.
    """
    sg = grid.groups_of(SG)
    ibr = grid.groups_of(IBR)
    dims: list[DimensionSpec] = []
    vars_: list[VariableSpec] = []

    if sg:
        dims.append(DimensionSpec(P_SG, INDEPENDENT,
                                  sum(g.p_min for g in sg), sum(g.p_max for g in sg),
                                  min_tolerance_frac))
        for g in sg:
            vars_.append(VariableSpec(f"P_SG_{g.bus}", P_SG, g.name,
                                      g.p_min, g.p_max, INDEPENDENT))
    if ibr:
        dims.append(DimensionSpec(P_IBR, INDEPENDENT,
                                  sum(g.p_min for g in ibr), sum(g.p_max for g in ibr),
                                  min_tolerance_frac))
        dims.append(DimensionSpec(PCT_GFM, INDEPENDENT, 0.0, 1.0, min_tolerance_frac))
        for g in ibr:
            vars_.append(VariableSpec(f"P_IBR_{g.bus}", P_IBR, g.name,
                                      g.p_min, g.p_max, INDEPENDENT))
            # realized bound is [0, P_IBR_i]; p_max is the static envelope
            vars_.append(VariableSpec(f"P_GFM_{g.bus}", PCT_GFM, g.name,
                                      0.0, g.p_max, INDEPENDENT))
            vars_.append(VariableSpec(f"P_GFL_{g.bus}", PCT_GFM, g.name,
                                      0.0, g.p_max, DEPENDENT))
    slack = grid.slack_bus
    dims.append(DimensionSpec(V_ANCHOR, INDEPENDENT, slack.v_min, slack.v_max,
                              min_tolerance_frac))
    for name, lo, hi in control_params:
        dims.append(DimensionSpec(name, INDEPENDENT, lo, hi, min_tolerance_frac))
    dims.append(DimensionSpec(P_D, DEPENDENT))
    for ld in grid.loads:
        total = sum(g.p_max for g in grid.gen_groups)
        vars_.append(VariableSpec(f"P_L_{ld.bus}", P_D, f"load_{ld.bus}",
                                  0.0, total, INDEPENDENT))
    return OperatingSpaceSpec(tuple(dims), tuple(vars_))
