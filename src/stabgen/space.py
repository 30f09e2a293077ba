"""Operating-space formalism: dimensions, variables, subregion cells.

Independent dimensions are system-level quantities sampled directly (total
SG power, total IBR power, grid-forming share, voltage anchor, control
parameters); the dependent dimension is the total demand.  Variables
disaggregate dimension totals onto individual generation groups and loads.
Subregions are axis-aligned hyperrectangles produced by midpoint bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .grid import GridModel

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

    def __post_init__(self):
        if self.kind == INDEPENDENT and not self.lo < self.hi:
            raise SpaceError(f"dimension {self.name}: lo {self.lo} >= hi {self.hi}")


@dataclass(frozen=True)
class OperatingSpaceSpec:
    dimensions: tuple[DimensionSpec, ...]
    variables: tuple[str, ...]  # variable names, in dataset column order

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


def split(cell: Subregion, dim: str, min_tolerance_frac: float) -> tuple[Subregion, Subregion]:
    """Bisect a cell at the midpoint of one independent dimension.

    Raises ToleranceFloorError if the cell's own range of ``dim`` is already
    at or below ``min_tolerance_frac`` of the dimension's initial range.
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


def contains_values(cell: Subregion, dim_values: dict[str, float]) -> bool:
    """True iff every bounded dimension value lies inside the cell.

    Half-open convention [lo, hi); a value equal to the dimension's initial
    upper bound is contained when the cell reaches that edge.
    """
    for dim, (lo, hi) in cell.bounds.items():
        v = dim_values[dim]
        if v < lo:
            return False
        if v >= hi and not (hi == cell.initial[dim][1] and v == hi):
            return False
    return True


def build_space(grid: GridModel,
                control_params: list[tuple[str, float, float]] = ()) -> OperatingSpaceSpec:
    """Derive the operating space of a grid.

    Independent dimensions: total SG power, total IBR power (when IBR
    groups exist), the grid-forming share in [0, 1], the voltage anchor at
    the slack bus, and one dimension per declared control parameter.  The
    dependent dimension is the total demand.  The variables are named per
    group (``P_SG_<bus>``; ``P_IBR``, ``P_GFM`` and ``P_GFL`` of each IBR
    group) and per load (``P_L_<bus>``).
    """
    from .grid import IBR, SG  # here, so that reading a dataset loads no grid
    sg = grid.groups_of(SG)
    ibr = grid.groups_of(IBR)
    dims: list[DimensionSpec] = []
    if sg:
        dims.append(DimensionSpec(P_SG, INDEPENDENT,
                                  sum(g.p_min for g in sg), sum(g.p_max for g in sg)))
    if ibr:
        dims.append(DimensionSpec(P_IBR, INDEPENDENT,
                                  sum(g.p_min for g in ibr), sum(g.p_max for g in ibr)))
        dims.append(DimensionSpec(PCT_GFM, INDEPENDENT, 0.0, 1.0))
    slack = grid.slack_bus
    dims.append(DimensionSpec(V_ANCHOR, INDEPENDENT, slack.v_min, slack.v_max))
    for name, lo, hi in control_params:
        dims.append(DimensionSpec(name, INDEPENDENT, lo, hi))
    dims.append(DimensionSpec(P_D, DEPENDENT))
    variables = ([f"P_SG_{g.bus}" for g in sg]
                 + [f"P_{kind}_{g.bus}" for g in ibr for kind in ("IBR", "GFM", "GFL")]
                 + [f"P_L_{ld.bus}" for ld in grid.loads])
    return OperatingSpaceSpec(tuple(dims), tuple(variables))
