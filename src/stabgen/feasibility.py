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

# build_admittance stays importable here for bench/tracer.py, which wraps it
# by this module's name; the compiled network (GridModel.network) calls it.
from .grid import (GridModel, IBR, SG, build_admittance,  # noqa: F401
                   power_jacobian)
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
    vm: np.ndarray      # voltage magnitude per bus, pu, in grid.buses order
    va: np.ndarray      # voltage angle per bus, rad
    gen_p: np.ndarray   # active injection per group, MW, in grid.gen_groups order
    gen_q: np.ndarray   # reactive injection per group, MVAr
    converged: bool
    iterations: int
    max_mismatch: float
    case: PfCase        # the inputs that were solved, loads included
    pv: np.ndarray | None = None  # PV mask of the Newton round that gave vm/va


@dataclass(frozen=True)
class PfCase:
    """One operating point's power-flow inputs, built once and shared by all
    of its solves; each solve brings its own dispatch (default ``gen_p``)."""

    p_load: np.ndarray  # active demand per bus, pu
    q_load: np.ndarray  # reactive demand per bus, pu
    vm: np.ndarray      # sampled voltage magnitude per bus, pu
    gen_p: np.ndarray   # sampled set point per group, MW


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


def pf_case(grid: GridModel, op: OperatingPoint,
            load_pf: float = DEFAULT_LOAD_PF) -> PfCase:
    """The power-flow inputs of an operating point, at load power factor
    ``load_pf``."""
    net = grid.network
    n = len(net.bus_ids)
    base = net.base_mva
    tan_phi = math.tan(math.acos(load_pf))
    mw = np.array([op.var_values.get(f"P_L_{ld.bus}", 0.0) for ld in grid.loads],
                  dtype=float)
    p_load = np.zeros(n)
    q_load = np.zeros(n)
    p_load[net.load_bus] = mw / base
    q_load[net.load_bus] = mw * tan_phi / base
    vm = np.array([op.voltage_profile.get(b, 1.0) for b in net.bus_ids])
    gen_p = np.array([op.var_values.get(f"P_{g.tech}_{g.bus}", 0.0)
                      for g in grid.gen_groups])
    return PfCase(p_load, q_load, vm, gen_p)


def _shares(weight: np.ndarray, bus: np.ndarray, n: int) -> np.ndarray:
    """Each group's share of ``weight`` among the groups at its bus; equal
    shares at a bus whose total weight is not positive."""
    total = np.bincount(bus, weight, n)[bus]
    count = np.bincount(bus, minlength=n)[bus]
    return np.divide(weight, total, out=1.0 / count, where=total > 0)


def _index_sets(is_pv: np.ndarray, slack: int) -> tuple[np.ndarray, ...]:
    """PV and PQ bus indices of a PV mask, and the Newton unknowns: [P; Q]
    rows and [theta; |V|] columns at ``pvpq`` and ``n + pq``."""
    n = len(is_pv)
    pv = is_pv.nonzero()[0]
    pq = (~is_pv & (np.arange(n) != slack)).nonzero()[0]
    pvpq = np.concatenate([pv, pq])
    return pv, pq, pvpq, np.concatenate([pvpq, n + pq])


def _solution(grid: GridModel, case: PfCase, gen_p: np.ndarray, vm: np.ndarray,
              va: np.ndarray, converged: bool, iterations: int,
              max_mismatch: float, pv: np.ndarray) -> PowerFlowSolution:
    """The solution at bus voltages ``vm``, ``va`` of dispatch ``gen_p``: each
    dispatched group's Q is its ``gen_q_max`` share of its bus's injection,
    and the slack bus's groups share its P by ``gen_p_max``."""
    net = grid.network
    n = len(net.bus_ids)
    base = net.base_mva
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj(net.ybus @ v)
    on = gen_p > ZERO_DISPATCH
    bus_on = net.gen_bus[on]
    gen_q = np.zeros(len(gen_p))
    gen_q[on] = ((s_calc.imag + case.q_load) * base)[bus_on] * _shares(
        net.gen_q_max[on], bus_on, n)
    gen_p_out = gen_p.copy()
    at_slack = on & (net.gen_bus == net.slack)
    if at_slack.any():
        gen_p_out[at_slack] = (s_calc.real[net.slack] + case.p_load[net.slack]) * base * _shares(
            net.gen_p_max[at_slack], net.gen_bus[at_slack], n)
    return PowerFlowSolution(np.abs(v), va, gen_p_out, gen_q, converged,
                             iterations, max_mismatch, case, pv)


def solve_pf(grid: GridModel, case: PfCase,
             gen_p: np.ndarray | None = None) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow of one dispatch (MW per group,
    default: the sampled set points).

    Generator buses with dispatched groups are held at the sampled voltage
    magnitude (PV); their reactive output is limited to the summed group
    capability with PV->PQ switching.  The slack bus absorbs the active
    residual.  Non-convergence is reported, not raised.  The solution's
    ``pv`` is the PV mask that its voltages were solved on.
    """
    net = grid.network
    if gen_p is None:
        gen_p = case.gen_p
    n = len(net.bus_ids)
    ybus = net.ybus
    base = net.base_mva
    slack = net.slack
    p_load, q_load = case.p_load, case.q_load

    on = gen_p > ZERO_DISPATCH
    bus_on = net.gen_bus[on]
    p_gen = np.bincount(bus_on, gen_p[on] / base, n)
    q_min = np.bincount(bus_on, net.gen_q_min[on] / base, n)
    q_max = np.bincount(bus_on, net.gen_q_max[on] / base, n)
    # PV where a dispatched generator can hold voltage; everything else PQ
    is_pv = np.bincount(bus_on, minlength=n) > 0
    is_pv[slack] = False
    p_spec = p_gen - p_load
    q_spec = -q_load  # PQ buses without generation

    x0 = np.concatenate([np.zeros(n), case.vm])  # flat start [theta; |V|]
    converged = False
    iterations = 0
    max_mismatch = math.inf

    for _round in range(5):  # PV->PQ switching rounds
        x = x0.copy()
        va, vm = x[:n], x[n:]
        round_pv = is_pv.copy()  # the switch below changes is_pv
        pv, pq, pvpq, rc = _index_sets(round_pv, slack)
        rows_cols = (rc[:, None], rc)
        spec = np.concatenate([p_spec[pvpq], q_spec[pq]])
        # the same rows of S viewed as interleaved (P, Q) floats
        s_rows = np.concatenate([2 * pvpq, 2 * pq + 1])
        converged = False
        for it in range(1, PF_MAX_ITER + 1):
            v = vm * np.exp(1j * va)
            ibus = ybus @ v
            s_calc = v * np.conj(ibus)
            mism = spec - s_calc.view(float)[s_rows]
            max_mismatch = float(np.abs(mism).max()) if mism.size else 0.0
            iterations = it
            if max_mismatch < PF_TOL:
                converged = True
                break
            try:
                dx = np.linalg.solve(power_jacobian(ybus, v, ibus)[rows_cols], mism)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(dx).all():
                break
            x[rc] += dx
            if (vm <= 0.05).any():
                break
        if not converged:
            break
        # reactive limit check at PV buses (v and s_calc are the converged ones)
        q_gen = s_calc.imag[pv] + q_load[pv]
        high = q_gen > q_max[pv] + 1e-9
        low = ~high & (q_gen < q_min[pv] - 1e-9)
        if not (high.any() or low.any()):
            break
        q_spec[pv[high]] = q_max[pv[high]] - q_load[pv[high]]
        q_spec[pv[low]] = q_min[pv[low]] - q_load[pv[low]]
        is_pv[pv[high | low]] = False

    return _solution(grid, case, gen_p, vm, va, converged, iterations,
                     max_mismatch, round_pv)


def _newton_step_trials(grid: GridModel, sol: PowerFlowSolution,
                       gen_p: np.ndarray, groups: list[int],
                       steps: list[float]) -> list[PowerFlowSolution]:
    """Predicted solutions of dispatch ``gen_p`` with ``gen_p[groups[c]]``
    moved to ``steps[c]``, one per trial ``c``.

    Each is one Newton step from ``sol``, the converged solution of
    ``gen_p``, on its PV/PQ split: the Jacobian at its voltages is factored
    once, with one right-hand side per trial that holds the step in the P
    row of the group's bus.  Their ``max_mismatch`` is not evaluated (nan).
    Raises ``np.linalg.LinAlgError`` if that Jacobian is singular.
    """
    net = grid.network
    n = len(net.bus_ids)
    _pv, _pq, pvpq, rc = _index_sets(sol.pv, net.slack)
    x = np.concatenate([sol.va, sol.vm])
    jac = power_jacobian(net.ybus, sol.vm * np.exp(1j * sol.va))[rc[:, None], rc]
    row = np.empty(n, dtype=int)
    row[pvpq] = np.arange(len(pvpq))
    rhs = np.zeros((len(rc), len(groups)))
    rhs[row[net.gen_bus[groups]], np.arange(len(groups))] = (
        (np.asarray(steps) - gen_p[groups]) / net.base_mva)
    dx = np.linalg.solve(jac, rhs)
    if not np.isfinite(dx).all():
        raise np.linalg.LinAlgError("non-finite Newton step")
    trials = []
    for c, (i, step) in enumerate(zip(groups, steps)):
        x_c = x.copy()
        x_c[rc] += dx[:, c]
        trial = gen_p.copy()
        trial[i] = step
        trials.append(_solution(grid, sol.case, trial, x_c[n:], x_c[:n], True, 1,
                                math.nan, sol.pv))
    return trials


def check_constraints(solution: PowerFlowSolution, grid: GridModel) -> ConstraintReport:
    """Voltage-band, line-rating and generator-capability checks.

    Magnitudes are reported in pu (voltages), MVA (line overloads) and MW /
    MVAr / power-factor units (group checks).  Offline groups are skipped.
    """
    tol = 1e-6
    viols: list[tuple[str, float]] = []
    vm, va = solution.vm.tolist(), solution.va.tolist()
    for b, v in zip(grid.buses, vm):
        if v < b.v_min - tol:
            viols.append((f"v_{b.id}", b.v_min - v))
        elif v > b.v_max + tol:
            viols.append((f"v_{b.id}", v - b.v_max))
    base = grid.base_mva
    vc = {b.id: v * np.exp(1j * a) for b, v, a in zip(grid.buses, vm, va)}
    for ln in grid.lines:
        y_series = 1.0 / complex(ln.r, ln.x)
        y_shunt = 0.5j * ln.b
        vf, vt = vc[ln.from_bus], vc[ln.to_bus]
        i_f = (vf - vt) * y_series + vf * y_shunt
        i_t = (vt - vf) * y_series + vt * y_shunt
        s = max(abs(vf * np.conj(i_f)), abs(vt * np.conj(i_t))) * base
        if s > ln.s_max + tol:
            viols.append((f"line_{ln.from_bus}_{ln.to_bus}", s - ln.s_max))
    for g, p, q in zip(grid.gen_groups, solution.gen_p.tolist(), solution.gen_q.tolist()):
        if p <= ZERO_DISPATCH:
            continue
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
                    gen_p: np.ndarray) -> OperatingPoint:
    """Rewrite an operating point's variables and totals from a dispatch."""
    varv = dict(op.var_values)
    dispatch = gen_p.tolist()
    for g, new_p in zip(grid.gen_groups, dispatch):
        key = f"P_{g.tech}_{g.bus}"
        if g.tech == IBR:
            old_p = op.var_values.get(key, 0.0)
            gfm = op.var_values.get(f"P_GFM_{g.bus}", 0.0)
            share = gfm / old_p if old_p > 0 else 0.0
            varv[f"P_GFM_{g.bus}"] = share * new_p
            varv[f"P_GFL_{g.bus}"] = (1.0 - share) * new_p
        varv[key] = new_p
    dims = dict(op.dim_values)
    dims[P_SG] = sum(p for g, p in zip(grid.gen_groups, dispatch) if g.tech == SG)
    if grid.groups_of(IBR):
        dims[P_IBR] = sum(p for g, p in zip(grid.gen_groups, dispatch) if g.tech == IBR)
    return replace(op, dim_values=dims, var_values=varv)


def _violation_total(report: ConstraintReport, base_mva: float) -> float:
    """The repair's objective: violation magnitudes summed, with voltages
    already in pu and MVA/MW/MVAr scaled to pu by ``base_mva``."""
    tot = 0.0
    for cid, mag in report.violations:
        tot += mag / base_mva if cid.split("_")[0] in (
            "line", "pmin", "pmax", "qmin", "qmax") else mag
    return tot


def adjust_to_feasible(grid: GridModel, op: OperatingPoint, cell: Subregion,
                       load_pf: float = DEFAULT_LOAD_PF,
                       ) -> tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]:
    """Repair an operating point toward constraint-clean feasibility.

    Iterative projected redispatch: group set points are clipped to their
    capability boxes and then moved along a descent direction of the total
    constraint violation, the slack group absorbing the residual.  The
    direction is a 1 MW finite difference per adjustable group, taken on
    the linearized power flow: each group's trial is one Newton step from
    the iterate's converged solution, and all of them share one factored
    Jacobian, so an iteration costs one power flow at the iterate plus up
    to three line-search power flows.  The first constraint-clean iterate
    (the closest to the sampled set points along the descent path) is
    accepted; its squared set-point deviation is recorded.  All failure
    modes, a singular Jacobian at the iterate included, classify as
    Infeasible.
    """
    net = grid.network
    base = grid.base_mva
    case = pf_case(grid, op, load_pf)
    setpoints = case.gen_p
    non_slack = net.gen_bus != net.slack
    adjustable = np.flatnonzero(non_slack & (setpoints > ZERO_DISPATCH))
    p_min = net.gen_p_min[adjustable].tolist()
    p_max = net.gen_p_max[adjustable].tolist()
    # project onto the capability box up front
    p = setpoints.copy()
    p[adjustable] = np.clip(p[adjustable], p_min, p_max)

    def distance(dispatch: np.ndarray) -> float:
        return sum((a - b) ** 2 for a, b in zip(dispatch[non_slack].tolist(),
                                                 setpoints[non_slack].tolist()))

    # An accepted line-search trial is the next outer iterate: solve it once.
    solved: dict[tuple[float, ...], tuple] = {}

    def violation_total(dispatch: np.ndarray) -> tuple[float, PowerFlowSolution,
                                                       ConstraintReport]:
        key = tuple(dispatch.tolist())
        if key not in solved:
            sol = solve_pf(grid, case, dispatch)
            if sol.converged:
                rep = check_constraints(sol, grid)
                solved[key] = _violation_total(rep, base), sol, rep
            else:
                solved[key] = math.inf, sol, ConstraintReport([("pf_diverged", 1.0)])
        return solved[key]

    prev = math.inf
    for _it in range(REPAIR_MAX_OUTER):
        solved_p = p  # the dispatch of sol and rep, also when the loop runs out
        tot, sol, rep = violation_total(p)
        if rep.clean and sol.converged:
            adjusted = _apply_dispatch(grid, op, sol.gen_p)
            verdict = classify(adjusted, sol, rep, cell, distance(p))
            return adjusted, sol, verdict
        if not sol.converged or not adjustable.size:
            break
        if prev - tot < REPAIR_REL_STOP * max(prev, 1.0):
            break
        prev = tot
        # finite-difference descent on adjustable group set points, a
        # forward 1 MW step unless the capability box forces a backward one
        h = 1.0  # MW
        moved, groups, steps = [], [], []
        for k, (i, p_i) in enumerate(zip(adjustable.tolist(), p[adjustable].tolist())):
            step = min(max(p_i + h, p_min[k]), p_max[k])
            if step == p_i:
                step = max(p_i - h, p_min[k])
                if step == p_i:
                    continue
            moved.append(k)
            groups.append(i)
            steps.append(step)
        try:
            trials = _newton_step_trials(grid, sol, p, groups, steps)
        except np.linalg.LinAlgError:
            break
        grad = np.zeros(len(adjustable))
        for k, i, step, t_sol in zip(moved, groups, steps, trials):
            t_tot = _violation_total(check_constraints(t_sol, grid), base)
            grad[k] = (t_tot - tot) / (step - p[i])
        gmax = float(np.abs(grad).max())
        if gmax <= 0:
            break
        scale = 0.05 * max(p_max) / gmax
        improved = False
        for alpha in (scale, scale / 4, scale / 16):
            trial = p.copy()
            trial[adjustable] = np.clip(p[adjustable] - alpha * grad, p_min, p_max)
            t_tot, _, _ = violation_total(trial)
            if t_tot < tot:
                p = trial
                improved = True
                break
        if not improved:
            break
    adjusted = _apply_dispatch(grid, op, sol.gen_p if sol.converged else solved_p)
    verdict = FeasibilityVerdict(INFEASIBLE, rep.violations, distance(solved_p))
    return adjusted, sol, verdict
