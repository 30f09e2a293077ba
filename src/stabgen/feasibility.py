"""Feasible power flow: Newton-Raphson solve, constraint checks, redispatch.

Each sampled operating point is solved with a polar Newton-Raphson power
flow (PV buses at the sampled voltage magnitudes, PV->PQ switching at
group reactive limits).  Constraint violations are repaired by a projected
redispatch that minimizes the squared deviation from the sampled active
power set points; the outcome is classified Feasible, Infeasible or
Discarded (constraint-clean but the adjusted totals left the cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridModel, GenGroup, IBR, SG, build_admittance, power_jacobian
from .space import (OperatingPoint, Subregion, P_IBR, P_SG, contains_values)

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
DISCARDED = "Discarded"

PF_TOL = 1e-8
PF_MAX_ITER = 30
REPAIR_MAX_OUTER = 20  # redispatch iterations per point
REPAIR_REL_STOP = 1e-4  # give up below this relative violation decrease
DEFAULT_LOAD_PF = 0.98
ZERO_DISPATCH = 1e-6  # MW threshold below which a group counts as offline


@dataclass
class PowerFlowSolution:
    v: dict[int, float]        # bus id -> voltage magnitude, pu
    theta: dict[int, float]    # bus id -> voltage angle, rad
    group_p: dict[str, float]  # group name -> active injection, MW
    group_q: dict[str, float]  # group name -> reactive injection, MVAr
    converged: bool
    iterations: int
    max_mismatch: float


@dataclass
class ConstraintReport:
    violations: list[tuple[str, float]]

    @property
    def clean(self) -> bool:
        return not self.violations

    def total(self) -> float:
        return sum(m for _, m in self.violations)

    def serialize(self) -> str:
        return ";".join(f"{cid}:{mag:.6g}" for cid, mag in self.violations)


@dataclass
class FeasibilityVerdict:
    status: str  # Feasible, Infeasible or Discarded
    violations: list[tuple[str, float]]
    adjustment_distance: float  # MW^2 over non-slack groups


def _group_setpoints(grid: GridModel, op: OperatingPoint) -> dict[str, float]:
    sp = {}
    for g in grid.gen_groups:
        key = f"P_{g.tech}_{g.bus}"
        sp[g.name] = op.var_values.get(key, 0.0)
    return sp


def load_mw(grid: GridModel, op: OperatingPoint) -> dict[int, float]:
    """Active demand per load bus, MW (``GridModel`` allows one load per bus)."""
    return {ld.bus: op.var_values.get(f"P_L_{ld.bus}", 0.0) for ld in grid.loads}


def solve_pf(grid: GridModel, op: OperatingPoint,
             group_p: dict[str, float] | None = None,
             load_pf: float = DEFAULT_LOAD_PF) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow for one operating point.

    Generator buses with dispatched groups are held at the sampled voltage
    magnitude (PV); their reactive output is limited to the summed group
    capability with PV->PQ switching.  The slack bus absorbs the active
    residual.  Non-convergence is reported, not raised.
    """
    if group_p is None:
        group_p = _group_setpoints(grid, op)
    n = len(grid.buses)
    idx = grid.bus_index
    ybus = build_admittance(grid)
    base = grid.base_mva
    tan_phi = math.tan(math.acos(load_pf))

    p_gen = np.zeros(n)
    q_lim = np.zeros((n, 2))
    dispatched: dict[int, list[GenGroup]] = {}
    for g in grid.gen_groups:
        p = group_p.get(g.name, 0.0)
        if p > ZERO_DISPATCH:
            i = idx[g.bus]
            p_gen[i] += p / base
            q_lim[i, 0] += g.q_min / base
            q_lim[i, 1] += g.q_max / base
            dispatched.setdefault(g.bus, []).append(g)

    p_load = np.zeros(n)
    q_load = np.zeros(n)
    for bus_id, mw in load_mw(grid, op).items():
        i = idx[bus_id]
        p_load[i] += mw / base
        q_load[i] += mw * tan_phi / base

    slack = idx[grid.slack_bus.id]
    # PV where a dispatched generator can hold voltage; everything else PQ
    is_pv = np.array([
        (i != slack) and bool(dispatched.get(b.id)) for i, b in enumerate(grid.buses)])
    p_spec = p_gen - p_load
    q_spec = -q_load  # PQ buses without generation

    vm = np.array([op.voltage_profile.get(b.id, 1.0) for b in grid.buses])
    va = np.zeros(n)
    converged = False
    iterations = 0
    max_mismatch = math.inf

    for _round in range(5):  # PV->PQ switching rounds
        vm_work = vm.copy()
        va_work = va.copy()
        pv = np.flatnonzero(is_pv)
        pq = np.flatnonzero(~is_pv & (np.arange(n) != slack))
        pvpq = np.concatenate([pv, pq])
        rc = np.concatenate([pvpq, n + pq])  # [P; Q] rows and [theta; |V|] cols
        converged = False
        for it in range(1, PF_MAX_ITER + 1):
            v = vm_work * np.exp(1j * va_work)
            s_calc = v * np.conj(ybus @ v)
            dp = p_spec[pvpq] - s_calc.real[pvpq]
            dq = q_spec[pq] - s_calc.imag[pq]
            mism = np.concatenate([dp, dq])
            max_mismatch = float(np.max(np.abs(mism))) if mism.size else 0.0
            iterations = it
            if max_mismatch < PF_TOL:
                converged = True
                break
            jac = power_jacobian(ybus, v)[np.ix_(rc, rc)]
            try:
                dx = np.linalg.solve(jac, mism)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(dx)):
                break
            va_work[pvpq] += dx[:len(pvpq)]
            vm_work[pq] += dx[len(pvpq):]
            if np.any(vm_work <= 0.05):
                break
        if not converged:
            break
        # reactive limit check at PV buses
        v = vm_work * np.exp(1j * va_work)
        s_calc = v * np.conj(ybus @ v)
        switched = False
        for i in np.flatnonzero(is_pv):
            q_gen = s_calc.imag[i] + q_load[i]
            if q_gen > q_lim[i, 1] + 1e-9:
                q_spec[i] = q_lim[i, 1] - q_load[i]
                is_pv[i] = False
                switched = True
            elif q_gen < q_lim[i, 0] - 1e-9:
                q_spec[i] = q_lim[i, 0] - q_load[i]
                is_pv[i] = False
                switched = True
        if not switched:
            break

    v = vm_work * np.exp(1j * va_work)
    s_calc = v * np.conj(ybus @ v)
    buses = grid.buses
    sol_v = {b.id: float(np.abs(v)[i]) for i, b in enumerate(buses)}
    sol_t = {b.id: float(va_work[i]) for i, b in enumerate(buses)}

    grp_p: dict[str, float] = {}
    grp_q: dict[str, float] = {}
    for g in grid.gen_groups:
        grp_p[g.name] = group_p.get(g.name, 0.0)
        grp_q[g.name] = 0.0
    for bus_id, groups in dispatched.items():
        i = idx[bus_id]
        q_gen_mvar = (s_calc.imag[i] + q_load[i]) * base
        wsum = sum(g.q_max for g in groups)
        for g in groups:
            grp_q[g.name] = q_gen_mvar * (g.q_max / wsum if wsum > 0 else 1 / len(groups))
        if i == slack:
            p_gen_mw = (s_calc.real[i] + p_load[i]) * base
            wsum_p = sum(g.p_max for g in groups)
            for g in groups:
                grp_p[g.name] = p_gen_mw * (g.p_max / wsum_p if wsum_p > 0 else 1 / len(groups))
    return PowerFlowSolution(sol_v, sol_t, grp_p, grp_q, converged,
                             iterations, max_mismatch)


def check_constraints(solution: PowerFlowSolution, grid: GridModel) -> ConstraintReport:
    """Voltage-band, line-rating and generator-capability checks.

    Magnitudes are reported in pu (voltages), MVA (line overloads) and MW /
    MVAr / power-factor units (group checks).  Offline groups are skipped.
    """
    tol = 1e-6
    viols: list[tuple[str, float]] = []
    for b in grid.buses:
        v = solution.v[b.id]
        if v < b.v_min - tol:
            viols.append((f"v_{b.id}", b.v_min - v))
        elif v > b.v_max + tol:
            viols.append((f"v_{b.id}", v - b.v_max))
    base = grid.base_mva
    idx = grid.bus_index
    vc = {b.id: solution.v[b.id] * np.exp(1j * solution.theta[b.id]) for b in grid.buses}
    for ln in grid.lines:
        y_series = 1.0 / complex(ln.r, ln.x)
        y_shunt = 0.5j * ln.b
        vf, vt = vc[ln.from_bus], vc[ln.to_bus]
        i_f = (vf - vt) * y_series + vf * y_shunt
        i_t = (vt - vf) * y_series + vt * y_shunt
        s = max(abs(vf * np.conj(i_f)), abs(vt * np.conj(i_t))) * base
        if s > ln.s_max + tol:
            viols.append((f"line_{ln.from_bus}_{ln.to_bus}", s - ln.s_max))
    for g in grid.gen_groups:
        p = solution.group_p.get(g.name, 0.0)
        if p <= ZERO_DISPATCH:
            continue
        q = solution.group_q.get(g.name, 0.0)
        if p < g.p_min - 1e-6:
            viols.append((f"pmin_{g.name}", g.p_min - p))
        if p > g.p_max + 1e-6:
            viols.append((f"pmax_{g.name}", p - g.p_max))
        if q < g.q_min - 1e-6:
            viols.append((f"qmin_{g.name}", g.q_min - q))
        elif q > g.q_max + 1e-6:
            viols.append((f"qmax_{g.name}", q - g.q_max))
        pf = p / math.hypot(p, q)
        if pf < g.cos_phi - 1e-9:
            viols.append((f"pf_{g.name}", g.cos_phi - pf))
    return ConstraintReport(viols)


def classify(adjusted: OperatingPoint, solution: PowerFlowSolution,
             report: ConstraintReport, cell: Subregion,
             adjustment_distance: float) -> FeasibilityVerdict:
    """Infeasible if unsolved or violating; Discarded if the repaired totals
    left the cell; Feasible otherwise."""
    if not solution.converged or not report.clean:
        return FeasibilityVerdict(INFEASIBLE, report.violations, adjustment_distance)
    if not contains_values(cell, adjusted.dim_values):
        return FeasibilityVerdict(DISCARDED, [], adjustment_distance)
    return FeasibilityVerdict(FEASIBLE, [], adjustment_distance)


def _apply_dispatch(grid: GridModel, op: OperatingPoint,
                    group_p: dict[str, float]) -> OperatingPoint:
    """Rewrite an operating point's variables and totals from a dispatch."""
    varv = dict(op.var_values)
    for g in grid.gen_groups:
        key = f"P_{g.tech}_{g.bus}"
        new_p = group_p[g.name]
        if g.tech == IBR:
            old_p = op.var_values.get(key, 0.0)
            gfm = op.var_values.get(f"P_GFM_{g.bus}", 0.0)
            share = gfm / old_p if old_p > 0 else 0.0
            varv[f"P_GFM_{g.bus}"] = share * new_p
            varv[f"P_GFL_{g.bus}"] = (1.0 - share) * new_p
        varv[key] = new_p
    dims = dict(op.dim_values)
    dims[P_SG] = sum(group_p[g.name] for g in grid.groups_of(SG))
    if grid.groups_of(IBR):
        dims[P_IBR] = sum(group_p[g.name] for g in grid.groups_of(IBR))
    return replace(op, dim_values=dims, var_values=varv)


def adjust_to_feasible(grid: GridModel, op: OperatingPoint, cell: Subregion,
                       load_pf: float = DEFAULT_LOAD_PF,
                       ) -> tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]:
    """Repair an operating point toward constraint-clean feasibility.

    Iterative projected redispatch: group set points are clipped to their
    capability boxes and then moved along a finite-difference descent
    direction of the total constraint violation, the slack group absorbing
    the residual.  The first constraint-clean iterate (the closest to the
    sampled set points along the descent path) is accepted; its squared
    set-point deviation is recorded.  All failure modes classify as
    Infeasible.
    """
    setpoints = _group_setpoints(grid, op)
    slack_id = grid.slack_bus.id
    adjustable = [g for g in grid.gen_groups if g.bus != slack_id
                  and setpoints[g.name] > ZERO_DISPATCH]
    p = {name: v for name, v in setpoints.items()}
    for g in adjustable:  # project onto the capability box up front
        p[g.name] = min(max(p[g.name], g.p_min), g.p_max)

    def distance(dispatch: dict[str, float]) -> float:
        return sum((dispatch[g.name] - setpoints[g.name]) ** 2
                   for g in grid.gen_groups if g.bus != slack_id)

    def solve_and_check(dispatch: dict[str, float]) -> tuple[float, PowerFlowSolution,
                                                             ConstraintReport]:
        sol = solve_pf(grid, op, dispatch, load_pf)
        if not sol.converged:
            return math.inf, sol, ConstraintReport([("pf_diverged", 1.0)])
        rep = check_constraints(sol, grid)
        # normalize: voltages already pu, MVA/MW/MVAr scaled to base
        tot = 0.0
        for cid, mag in rep.violations:
            tot += mag / grid.base_mva if cid.split("_")[0] in (
                "line", "pmin", "pmax", "qmin", "qmax") else mag
        return tot, sol, rep

    # An accepted line-search trial is the next outer iterate: solve it once.
    solved: dict[tuple[float, ...], tuple] = {}

    def violation_total(dispatch: dict[str, float]) -> tuple[float, PowerFlowSolution,
                                                             ConstraintReport]:
        key = tuple(dispatch[g.name] for g in grid.gen_groups)
        if key not in solved:
            solved[key] = solve_and_check(dispatch)
        return solved[key]

    prev = math.inf
    for _it in range(REPAIR_MAX_OUTER):
        tot, sol, rep = violation_total(p)
        if rep.clean and sol.converged:
            adjusted = _apply_dispatch(grid, op, sol.group_p)
            verdict = classify(adjusted, sol, rep, cell, distance(p))
            return adjusted, sol, verdict
        if not sol.converged or not adjustable:
            break
        if prev - tot < REPAIR_REL_STOP * max(prev, 1.0):
            break
        prev = tot
        # finite-difference descent on adjustable group set points
        h = 1.0  # MW
        grad = {}
        for g in adjustable:
            trial = dict(p)
            trial[g.name] = min(max(p[g.name] + h, g.p_min), g.p_max)
            if trial[g.name] == p[g.name]:
                trial[g.name] = max(p[g.name] - h, g.p_min)
                if trial[g.name] == p[g.name]:
                    grad[g.name] = 0.0
                    continue
            t_tot, _, _ = violation_total(trial)
            if not math.isfinite(t_tot):
                grad[g.name] = 0.0
                continue
            grad[g.name] = (t_tot - tot) / (trial[g.name] - p[g.name])
        gmax = max((abs(v) for v in grad.values()), default=0.0)
        if gmax <= 0:
            break
        scale = 0.05 * max(g.p_max for g in adjustable) / gmax
        improved = False
        for alpha in (scale, scale / 4, scale / 16):
            trial = dict(p)
            for g in adjustable:
                trial[g.name] = min(max(p[g.name] - alpha * grad[g.name], g.p_min),
                                    g.p_max)
            t_tot, _, _ = violation_total(trial)
            if t_tot < tot:
                p = trial
                improved = True
                break
        if not improved:
            break
    adjusted = _apply_dispatch(grid, op, sol.group_p if sol.converged
                               else {g.name: p.get(g.name, 0.0) for g in grid.gen_groups})
    verdict = FeasibilityVerdict(INFEASIBLE, rep.violations, distance(p))
    return adjusted, sol, verdict
