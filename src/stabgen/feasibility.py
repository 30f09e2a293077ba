"""Feasible power flow: Newton-Raphson solve, constraint checks, redispatch.

Each sampled operating point is solved with a polar Newton-Raphson power
flow (PV buses at the sampled voltage magnitudes, PV->PQ switching at
group reactive limits).  Constraint violations are repaired by a projected
redispatch that minimizes the squared deviation from the sampled active
power set points; the outcome is classified Feasible, Infeasible or
Discarded (constraint-clean but the adjusted totals left the cell).

The repair (``_adjust``) runs many points in lock step on one state of
per-row arrays.  Each step solves every unfinished row's set points or
pending line-search trial in one ``solve_many`` call, which returns one
stacked ``PowerFlowSolution``, and answers the 1 MW trials of its descent
directions, grouped by PV mask, in one ``_trial_totals`` call; one kernel,
``_violations``, checks both.  A point's own solution and report are built
when it finishes.  Each row's numbers are those of the row computed alone,
bit for bit, whatever its stack (see ``_power``).  The same trials' bus
voltages certify hopeless rows (``_out_of_reach``): a row whose voltage
violation no dispatch in its box can reach, by a linear bound with a safety
factor of ``REPAIR_V_SAFETY``, is given up at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import DISCARDED, FEASIBLE, INFEASIBLE
# build_admittance stays importable here only for bench/tracer.py, which
# wraps it by this module's name; no engine code calls it.
from .grid import (GridModel, IBR, SG, Network, build_admittance,  # noqa: F401
                   power_jacobian)
from .space import (OperatingPoint, Subregion, P_IBR, P_SG, contains_values)

PF_TOL = 1e-8
PF_MAX_ITER = 30
REPAIR_MAX_OUTER = 20  # redispatch iterates per point, set points included
REPAIR_REL_STOP = 1e-4  # give up below this relative violation decrease
REPAIR_V_SAFETY = 2.0  # the margin of the voltage certificate (``_out_of_reach``)
DEFAULT_LOAD_PF = 0.98


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

    def __getitem__(self, k):
        """Row ``k`` of stacked solutions (``solve_many``: a leading row axis
        on every field, a list of cases) as a solution with Python scalars and
        arrays of its own; a slice or an array of rows, stacked."""
        rows = np.arange(len(self.case))[k]
        fields = {f: np.asarray(getattr(self, f))[rows] for f in _ROW_FIELDS}
        if rows.ndim:
            return PowerFlowSolution(case=[self.case[r] for r in rows.tolist()], **fields)
        return PowerFlowSolution(case=self.case[rows], **{
            f: a.copy() if a.ndim else a.item() for f, a in fields.items()})


# the fields of stacked solutions that hold one entry per row
_ROW_FIELDS = ("vm", "va", "gen_p", "gen_q", "converged", "iterations", "max_mismatch", "pv")


@dataclass(frozen=True)
class PfCase:
    """One operating point's power-flow inputs, built once and shared by all
    of its solves; each solve brings its own dispatch (default ``gen_p``).
    Every Newton round of every solve starts flat, at ``vm`` with zero
    angles."""

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


def _unknowns(net: Network, is_pv: np.ndarray) -> tuple:
    """PV and PQ bus indices of a PV mask and its Newton unknowns:
    ``(pv, pq, pvpq, rc, s_rows)``.

    The unknowns are the [P; Q] rows and [theta; |V|] columns ``rc`` at
    ``pvpq`` and ``n + pq``, and ``s_rows`` their rows of S viewed as
    interleaved (P, Q) floats."""
    n = len(is_pv)
    pv = is_pv.nonzero()[0]
    pq = (~is_pv & (np.arange(n) != net.slack)).nonzero()[0]
    pvpq = np.concatenate([pv, pq])
    return (pv, pq, pvpq, np.concatenate([pvpq, n + pq]),
            np.concatenate([2 * pvpq, 2 * pq + 1]))


def _by_mask(masks: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """``rows`` grouped by their row of boolean ``masks``, each group in the
    order of ``rows``, the groups in order of first appearance."""
    groups: dict[bytes, list[int]] = {}
    for r in rows.tolist():
        groups.setdefault(masks[r].tobytes(), []).append(r)
    return [np.array(g) for g in groups.values()]


def _power(net: Network, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``S = v conj(Y v)`` and ``Y v`` per row of bus voltages ``v``."""
    ibus = (net.ybus @ v[..., None])[..., 0]
    # Not ``v * np.conj(ibus)``: numpy computes that product in the buffer of
    # the conjugate once it reaches 256 KiB, and that in-place complex product
    # can round differently, so a row's bits would depend on its stack's size.
    return np.multiply(v, np.conj(ibus)), ibus


def _solutions(net: Network, cases: list[PfCase], gen_p: np.ndarray, vm: np.ndarray,
               va: np.ndarray, converged, iterations, max_mismatch,
               pv: np.ndarray) -> PowerFlowSolution:
    """The stacked solutions at bus voltages ``vm``, ``va`` of dispatches
    ``gen_p``, one row per case, with the group injections of
    ``_group_injections``.

    A solution's ``vm`` is ``|v|``, which can differ from ``vm`` in the last
    bit, so a solution is not a fixed point of its own recomputation.  The
    constraint checks read this ``|v|`` on purpose: the repair's totals and
    the 1 MW trials (``_trial_totals``) are defined on it."""
    v = vm * np.exp(1j * va)
    gen_p_out, gen_q = _group_injections(net, np.array([c.p_load for c in cases]),
                                         np.array([c.q_load for c in cases]),
                                         gen_p, _power(net, v)[0])
    return PowerFlowSolution(np.abs(v), va, gen_p_out, gen_q, converged, iterations,
                             max_mismatch, cases, pv)


def _group_injections(net: Network, p_load: np.ndarray, q_load: np.ndarray,
                      gen_p: np.ndarray, s_calc: np.ndarray) -> tuple:
    """Each group's P and Q, MW and MVAr, per row of dispatches ``gen_p`` at
    bus injections ``s_calc``: a group's Q is its share of its bus's
    injection, and the slack bus's groups share its P."""
    base = net.base_mva
    bus = net.gen_bus
    gen_q = (s_calc.imag[:, bus] + q_load[:, bus]) * base * net.q_share
    gen_p_out = gen_p.copy()
    slack_p = (s_calc.real[:, net.slack] + p_load[:, net.slack]) * base
    gen_p_out[:, net.at_slack] = slack_p[:, None] * net.p_share
    return gen_p_out, gen_q


def solve_pf(grid: GridModel, case: PfCase,
             gen_p: np.ndarray | None = None) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow of one dispatch (MW per group,
    default: the sampled set points): row 0 of ``solve_many`` of one row.

    Non-slack buses with generation groups are held at the sampled voltage
    magnitude (PV); their reactive output is limited to the summed group
    capability with PV->PQ switching.  The slack bus absorbs the active
    residual.  Non-convergence is reported, not raised.  The solution's
    ``pv`` is the PV mask that its voltages were solved on.
    """
    return solve_many(grid, [case], [case.gen_p if gen_p is None else gen_p])[0]


def solve_many(grid: GridModel, cases: list[PfCase],
               gen_ps: np.ndarray | list[np.ndarray]) -> PowerFlowSolution:
    """The power flows of dispatches ``gen_ps`` of ``cases``, one row each,
    in lock step, as stacked solutions: every Newton iteration of every row
    that shares a PV mask is one stacked array operation, with converged and
    broken-off rows left out.  Each row is bit-equal to that row solved
    alone.

    Up to five PV->PQ rounds: a row whose converged voltages put a PV bus
    outside its summed reactive limits holds that bus's Q at the limit and
    starts flat again in the next round, on its own PV mask.
    """
    net = grid.network
    n = len(net.bus_ids)
    rows = len(cases)
    gen_p = np.array(gen_ps)
    q_load = np.array([case.q_load for case in cases])
    vm = np.array([case.vm for case in cases])
    p_spec = np.array([np.bincount(net.gen_bus, g / net.base_mva, n) - case.p_load
                       for g, case in zip(gen_p, cases)])
    q_spec = -q_load  # PQ buses without generation
    is_pv = np.repeat(net.is_pv[None], rows, axis=0)
    # each row's last Newton round: its outcome and x = [theta; |V|]
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    max_mismatch = np.zeros(rows)
    x = np.zeros((rows, 2 * n))
    pending = np.arange(rows)
    for rnd in range(5):  # PV->PQ switching rounds
        switched = []
        for g in _by_mask(is_pv, pending):
            pv = is_pv[g[0]].nonzero()[0]
            converged[g], iterations[g], max_mismatch[g], x[g], s_calc = _newton_round(
                net, is_pv[g[0]], vm[g], p_spec[g], q_spec[g])
            # reactive limit check at PV buses, on the converged rows' S; the
            # last round switches none, so is_pv stays the mask solved on
            q_gen = s_calc.imag[:, pv] + q_load[g[:, None], pv]
            high = q_gen > net.bus_q_max[pv] + 1e-9
            low = ~high & (q_gen < net.bus_q_min[pv] - 1e-9)
            out = (high | low) & converged[g, None] & (rnd < 4)
            limit = np.where(high, net.bus_q_max[pv], net.bus_q_min[pv])
            q_spec[g[:, None], pv] = np.where(out, limit - q_load[g[:, None], pv],
                                              q_spec[g[:, None], pv])
            is_pv[g[:, None], pv] &= ~out
            switched.append(g[out.any(axis=1)])
        pending = np.concatenate(switched)
        if not pending.size:
            break
    return _solutions(net, cases, gen_p, x[:, n:], x[:, :n], converged, iterations,
                      max_mismatch, is_pv)


def _newton_round(net: Network, is_pv: np.ndarray, vm: np.ndarray,
                  p_spec: np.ndarray, q_spec: np.ndarray) -> tuple:
    """One flat-started Newton round of each row on PV mask ``is_pv``, in lock
    step, from voltage magnitudes ``vm``.  Per row: ``(converged,
    iterations, max_mismatch, x, s_calc)`` with ``x = [theta; |V|]`` of its
    last iterate; ``s_calc`` is that iterate's ``S`` where it converged.
    Every iteration builds ``v``, ``S`` and one batched Jacobian of its rows
    from ``x``."""
    n = len(is_pv)
    _pv, pq, pvpq, rc, s_rows = _unknowns(net, is_pv)
    rows = len(vm)
    spec = np.concatenate([p_spec[:, pvpq], q_spec[:, pq]], axis=1)
    x = np.concatenate([np.zeros((rows, n)), vm], axis=1)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    max_mismatch = np.full(rows, math.inf)
    s_out = np.zeros((rows, n), dtype=complex)
    active = np.arange(rows)  # rows still iterating
    for it in range(1, PF_MAX_ITER + 1):
        xa = x[active]
        v = xa[:, n:] * np.exp(1j * xa[:, :n])
        s_calc, ibus = _power(net, v)
        mism = spec[active] - s_calc.view(float)[:, s_rows]
        peak = np.abs(mism).max(axis=1, initial=0.0)
        iterations[active] = it
        max_mismatch[active] = peak
        done = peak < PF_TOL
        if done.any():
            converged[active[done]] = True
            s_out[active[done]] = s_calc[done]
            go = ~done
            active, v, ibus, mism = active[go], v[go], ibus[go], mism[go]
            if not active.size:
                break
        jac = power_jacobian(net.ybus, v, ibus)
        dx = _solve_stacked(jac[:, rc[:, None], rc], mism[..., None])[..., 0]
        ok = np.isfinite(dx).all(axis=1)
        active, dx = active[ok], dx[ok]
        x[active[:, None], rc] += dx
        active = active[~(x[active, n:] <= 0.05).any(axis=1)]
        if not active.size:
            break
    return converged, iterations, max_mismatch, x, s_out


def _solve_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of stacked systems, each bit-equal to its own
    call; a singular system's solution is NaN, and only it breaks off."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                continue
        return x


def _trial_totals(grid: GridModel, sols: PowerFlowSolution, p: np.ndarray,
                  groups: np.ndarray, steps: np.ndarray) -> tuple:
    """The 1 MW trials of stacked converged solutions ``sols`` of
    dispatches ``p``: ``(ok, totals, bands)``, where ``ok`` masks the rows
    whose Jacobian is regular and gives a finite step, and, for those rows
    only, ``totals[:, c]`` is the violation total of trial ``c`` and
    ``bands[:, c]`` the bus voltage-band magnitudes of ``_violations``.

    Trial ``c`` of a row moves ``p[groups[c]]`` to ``steps[:, c]``.  It is
    one Newton step from the row's solution on its PV/PQ split: the
    Jacobian at its voltages, with one right-hand side per trial that holds
    the step in the P row of the group's bus.  Rows that share a PV mask
    are one batched Jacobian and one stacked solve, and all trials are one
    ``_violations`` call; each row's numbers are those of answering it
    alone, bit for bit.
    """
    net = grid.network
    n = len(net.bus_ids)
    rows, k = steps.shape
    x = np.concatenate([sols.va, sols.vm], axis=1)
    trial_x = np.repeat(x[:, None], k, axis=1)
    ok = np.ones(rows, dtype=bool)
    eq = np.empty(n, dtype=int)  # each bus's P row among the unknowns
    for g in _by_mask(sols.pv, np.arange(rows)):
        _pv, _pq, pvpq, rc, _s_rows = _unknowns(net, sols.pv[g[0]])
        jac = power_jacobian(net.ybus, x[g, n:] * np.exp(1j * x[g, :n]))
        eq[pvpq] = np.arange(len(pvpq))
        rhs = np.zeros((len(g), len(rc), k))
        rhs[:, eq[net.gen_bus[groups]], np.arange(k)] = (
            (steps[g] - p[g][:, groups]) / net.base_mva)
        dx = _solve_stacked(jac[:, rc[:, None], rc], rhs)
        ok[g] = np.isfinite(dx).all(axis=(1, 2))
        trial_x[g[:, None, None], np.arange(k)[:, None], rc] += dx.transpose(0, 2, 1)
    trial_p = np.repeat(p[ok, None], k, axis=1)
    trial_p[:, np.arange(k), groups] = steps[ok]
    x = trial_x[ok].reshape(-1, 2 * n)
    v = x[:, n:] * np.exp(1j * x[:, :n])
    loads = [np.repeat(np.array([getattr(c, f) for c in sols.case])[ok], k, axis=0)
             for f in ("p_load", "q_load")]
    gen_p, gen_q = _group_injections(net, *loads, trial_p.reshape(-1, p.shape[1]),
                                     _power(net, v)[0])
    mags, totals = _violations(grid, np.abs(v), x[:, :n], gen_p, gen_q)
    return ok, totals.reshape(-1, k), mags[:, :n].reshape(-1, k, n)


def _out_of_reach(v_mag: np.ndarray, trial_v: np.ndarray, dp: np.ndarray,
                  pa: np.ndarray, p_min: np.ndarray, p_max: np.ndarray) -> np.ndarray:
    """The rows that no dispatch in their adjustable box can bring into the
    voltage band, by the repair's voltage certificate.

    Per row, ``v_mag`` holds each bus's voltage-band magnitude at the
    iterate and ``pa`` the adjustable groups' set points; ``trial_v[:, g]``
    holds the magnitudes at group ``g``'s 1 MW trial, ``dp[:, g]`` MW
    away.  A trial gives the slope ``s`` of each bus magnitude in its
    group's set point, and the bus's reach is the sum over the groups of
    ``max(-s (p_max - p), -s (p_min - p), 0)``: every group at its best box
    edge at once, in the linear model.  A row is out of reach when some
    violated bus has ``REPAIR_V_SAFETY * reach < v_mag``.
    """
    slope = (trial_v - v_mag[:, None]) / dp[..., None]
    gain = np.maximum(np.maximum(-slope * (p_max - pa)[..., None],
                                 -slope * (p_min - pa)[..., None]), 0.0)
    reach = np.zeros(v_mag.shape)
    for g in range(dp.shape[1]):  # a running sum over the groups, in order
        reach += gain[:, g]
    return (REPAIR_V_SAFETY * reach < v_mag).any(axis=1)


def _line_flow(ar, ai, br, bi, y_series: np.ndarray, y_shunt: np.ndarray) -> np.ndarray:
    """|a conj((a - b) y_series + a y_shunt)| of the complex voltages
    ``a = ar + j ai`` and ``b`` at a line's two ends, in the operation order
    of Python's complex product and ``abs``."""
    sr, si, hr, hi = y_series.real, y_series.imag, y_shunt.real, y_shunt.imag
    dr, di = ar - br, ai - bi
    ir = (dr * sr - di * si) + (ar * hr - ai * hi)
    ii = -((dr * si + di * sr) + (ar * hi + ai * hr))  # the conjugate current
    return np.hypot(ar * ir - ai * ii, ar * ii + ai * ir)


def _violations(grid: GridModel, vm: np.ndarray, va: np.ndarray,
                gen_p: np.ndarray, gen_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voltage-band, line-rating and generator-capability checks of each row
    of stacked bus voltages ``vm``, ``va`` and group injections ``gen_p``,
    ``gen_q``: per row, the magnitude of every check and the repair's
    violation total.

    Magnitudes are in pu (voltages), MVA (line overloads) and MW / MVAr /
    power-factor units (group checks), in check order: buses, lines,
    then per group ``pmin``, ``pmax``, ``qmin`` or ``qmax``, ``pf``, of every
    group.  The total adds them up in that order, with MVA/MW/MVAr scaled to
    pu by the base.  Every number is that of checking
    the row on its own in Python floats, bit for bit: line flows follow the
    operation order of Python's complex product, the power factor takes
    ``math.hypot`` (``np.hypot`` differs in the last bit), and the total is
    a running sum, not ``np.sum``'s pairwise one.
    """
    net = grid.network
    base = net.base_mva
    s_max = net.line_s_max
    tol = 1e-6
    v_min, v_max = net.bus_v_min, net.bus_v_max
    v_mag = np.where(vm < v_min - tol, v_min - vm, np.where(vm > v_max + tol, vm - v_max, 0.0))
    v = vm * np.exp(1j * va)
    fr, fi = v.real[:, net.line_from], v.imag[:, net.line_from]
    tr, ti = v.real[:, net.line_to], v.imag[:, net.line_to]
    y_series, y_shunt = net.line_y_series, net.line_y_shunt
    s_from = _line_flow(fr, fi, tr, ti, y_series, y_shunt)
    s_to = _line_flow(tr, ti, fr, fi, y_series, y_shunt)
    s = np.where(s_to > s_from, s_to, s_from) * base  # Python's max(s_from, s_to)
    line_mag = np.where(s > s_max + tol, s - s_max, 0.0)
    p_min, p_max = net.gen_p_min, net.gen_p_max
    q_min, q_max = net.gen_q_min, net.gen_q_max
    cos_phi = net.gen_cos_phi
    q_low = gen_q < q_min - 1e-6
    group_mag = np.zeros(gen_p.shape + (5,))
    group_mag[..., 0] = np.where(gen_p < p_min - 1e-6, p_min - gen_p, 0.0)
    group_mag[..., 1] = np.where(gen_p > p_max + 1e-6, gen_p - p_max, 0.0)
    group_mag[..., 2] = np.where(q_low, q_min - gen_q, 0.0)
    group_mag[..., 3] = np.where(~q_low & (gen_q > q_max + 1e-6), gen_q - q_max, 0.0)
    hypot = map(math.hypot, gen_p.ravel().tolist(), gen_q.ravel().tolist())
    pf = gen_p / np.array(list(hypot)).reshape(gen_p.shape)
    group_mag[..., 4] = np.where(pf < cos_phi - 1e-9, cos_phi - pf, 0.0)
    # one column per check id; a check that holds reads 0, a violation > 0
    group_mag = group_mag.reshape(len(vm), 5 * gen_p.shape[1])  # also of no rows
    mags = np.concatenate([v_mag, line_mag, group_mag], axis=1)
    totals = np.cumsum(np.where(net.check_scaled, mags / base, mags), axis=1)[:, -1]
    return mags, totals


def _report(ids: tuple[str, ...], mags: np.ndarray) -> ConstraintReport:
    """The report of one row of ``_violations``' magnitudes: its nonzero checks."""
    cols = mags.nonzero()[0].tolist()
    return ConstraintReport(list(zip([ids[c] for c in cols], mags[cols].tolist())))


def check_constraints_many(grid: GridModel, vm: np.ndarray, va: np.ndarray,
                           gen_p: np.ndarray, gen_q: np.ndarray,
                           ) -> tuple[list[ConstraintReport], np.ndarray]:
    """Per row, the report of ``_violations``' nonzero magnitudes, and the total."""
    mags, totals = _violations(grid, vm, va, gen_p, gen_q)
    return [_report(grid.network.check_ids, row) for row in mags], totals


def check_constraints(solution: PowerFlowSolution, grid: GridModel) -> ConstraintReport:
    """``check_constraints_many`` of one solution: its report."""
    return check_constraints_many(grid, solution.vm[None], solution.va[None],
                                  solution.gen_p[None], solution.gen_q[None])[0][0]


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


def adjust_to_feasible(grid: GridModel, op: OperatingPoint, cell: Subregion,
                       load_pf: float = DEFAULT_LOAD_PF,
                       ) -> tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]:
    """Repair an operating point toward constraint-clean feasibility (see
    ``_adjust``), each of its power flows solved alone by ``solve_pf``."""
    def solve(cases: list[PfCase], gen_ps: np.ndarray) -> PowerFlowSolution:
        one = solve_pf(grid, cases[0], gen_ps[0])  # as a stack of one row
        return PowerFlowSolution(case=cases, **{f: np.array([getattr(one, f)])
                                                for f in _ROW_FIELDS})

    return _adjust(grid, [op], [cell], load_pf, solve)[0]


def adjust_many(grid: GridModel, ops: list[OperatingPoint], cells: list[Subregion],
                load_pf: float = DEFAULT_LOAD_PF,
                ) -> list[tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]]:
    """``[adjust_to_feasible(grid, op, cell, load_pf) ...]``, bit for bit, with
    each step's power flows in one ``solve_many`` call."""
    return _adjust(grid, ops, cells, load_pf,
                   lambda cases, gen_ps: solve_many(grid, cases, gen_ps))


def _adjust(grid: GridModel, ops: list[OperatingPoint], cells: list[Subregion],
            load_pf: float, solve) -> list[tuple]:
    """Repair operating points toward constraint-clean feasibility, in lock
    step; per point, the repaired point, its solution and its verdict.

    Iterative projected redispatch: group set points are clipped to their
    capability boxes and then moved along a descent direction of the total
    constraint violation, the slack group absorbing the residual.  The
    direction is a 1 MW finite difference per adjustable group on the
    linearized power flow (``_trial_totals``); the line search tries
    ``scale``, ``scale / 4`` and ``scale / 16``.  The first constraint-clean
    iterate, the closest to the sampled set points along the descent path,
    is accepted with its squared set-point deviation.  The clipped set
    points are the first iterate and each taken trial the next; a point
    stops at its ``REPAIR_MAX_OUTER``-th iterate.  At every iterate the 1 MW
    trials also give each violated bus's linear reach over the capability
    box, and a row is given up when some violated bus's reach, times
    ``REPAIR_V_SAFETY``, falls short of its violation (``_out_of_reach``).
    Every failure, a singular Jacobian at the iterate, that cap and a
    given-up row included, is Infeasible, with the last iterate's solution,
    report, dispatch and distance.

    The state is one array row per point: the iterate ``p``, its stacked
    solution ``sol``, its check magnitudes ``mags`` (``_violations``) and
    total ``tot``, the total before ``prev``, the number ``it`` of
    iterates, the three line ``trials`` and the ``stage`` (0-2) of the one
    pending.  The first step solves the clipped set points; each later one
    solves every unfinished row's pending trial.  Each step is one
    ``solve(cases, gen_ps)`` call, which returns stacked solutions; masks
    then take or reject the trials, finish rows (building each one's own
    solution and report), and build the others' 1 MW trials for one
    ``_trial_totals`` call, whose totals and bus voltages finish the flat
    and the hopeless rows.
    """
    if not ops:
        return []
    net = grid.network
    n = len(net.bus_ids)
    cases = [pf_case(grid, op, load_pf) for op in ops]
    setpoints = np.array([case.gen_p for case in cases])
    non_slack = net.gen_bus != net.slack
    adj = np.flatnonzero(non_slack)
    p_min, p_max = net.gen_p_min[adj], net.gen_p_max[adj]
    top = 0.05 * p_max.max() if adj.size else 0.0  # the step base of ``scale``
    rows = len(ops)
    p = setpoints.copy()
    p[:, adj] = np.clip(p[:, adj], p_min, p_max)  # onto the capability box up front
    trials = np.empty((rows, 3, p.shape[1]))  # each row's line-search dispatches
    tot, prev = np.full(rows, math.inf), np.full(rows, math.inf)
    it, stage = np.zeros(rows, dtype=int), np.zeros(rows, dtype=int)
    sol = mags = None  # set by the first step, which takes every row
    # Each row's dispatches solved so far.  Totals fall strictly along the
    # iterates, and a trial is taken only below its iterate's total, so a
    # dispatch that was solved before is rejected without solving it again.
    solved = [{tuple(d)} for d in p.tolist()]
    results: list = [None] * rows

    def finish(r: int) -> None:
        one = sol[r]
        distance = sum((a - b) ** 2 for a, b in zip(p[r, non_slack].tolist(),
                                                     setpoints[r, non_slack].tolist()))
        report = (_report(net.check_ids, mags[r]) if one.converged
                  else ConstraintReport([("pf_diverged", 1.0)]))
        adjusted = _apply_dispatch(grid, ops[r], one.gen_p if one.converged else p[r])
        results[r] = adjusted, one, classify(adjusted, one, report, cells[r], distance)

    def search(r: int) -> None:
        """Pend row ``r``'s first line-search trial from ``stage[r]`` on
        that was not solved before, or finish the row if none is left."""
        for s in range(stage[r], 3):
            key = tuple(trials[r, s].tolist())
            if key not in solved[r]:
                solved[r].add(key)
                stage[r] = s
                return
        finish(r)

    def descend(rows_t: np.ndarray) -> None:
        """Pend the line searches of rows ``rows_t``, or finish a row whose
        trials fail, whose gradient is flat or whose violation is out of reach."""
        # finite-difference descent on adjustable group set points, a
        # forward 1 MW step unless the capability box forces a backward one
        pa = p[rows_t][:, adj]
        steps = np.minimum(pa + 1.0, p_max)  # the iterates are inside the box
        back = steps == pa
        steps[back] = np.maximum(pa - 1.0, p_min)[back]
        ok, trial_tot, bands = _trial_totals(grid, sol[rows_t], p[rows_t], adj, steps)
        for r in rows_t[~ok].tolist():
            finish(r)
        rows_t, pa, dp = rows_t[ok], pa[ok], steps[ok] - pa[ok]
        grad = (trial_tot - tot[rows_t, None]) / dp
        gmax = np.abs(grad).max(axis=1, initial=0.0)
        # a flat gradient, or a voltage violation out of the box's reach
        stop = (gmax <= 0) | _out_of_reach(mags[rows_t, :n], bands, dp, pa, p_min, p_max)
        for r in rows_t[stop].tolist():
            finish(r)
        rows_t, pa, grad, gmax = rows_t[~stop], pa[~stop], grad[~stop], gmax[~stop]
        alpha = (top / gmax)[:, None] / np.array([1.0, 4.0, 16.0])
        line = np.repeat(p[rows_t, None], 3, axis=1)
        line[..., adj] = np.clip(pa[:, None] - alpha[..., None] * grad[:, None], p_min, p_max)
        trials[rows_t] = line
        stage[rows_t] = 0
        for r in rows_t.tolist():
            search(r)

    live = np.arange(rows)
    while live.size:
        first = sol is None
        gen_ps = p[live] if first else trials[live, stage[live]]
        step = solve([cases[r] for r in live], gen_ps)
        conv = step.converged
        step_tot = np.full(live.size, math.inf)
        step_mags = np.zeros((live.size, len(net.check_ids)))
        step_mags[conv], step_tot[conv] = _violations(grid, step.vm[conv], step.va[conv],
                                                      step.gen_p[conv], step.gen_q[conv])
        taken = (step_tot < tot[live]) | first  # rows with a new iterate
        rejected = live[~taken]  # a rejected trial pends the row's next one
        stage[rejected] += 1
        for r in rejected.tolist():
            search(r)
        new = live[taken]
        p[new], tot[new] = gen_ps[taken], step_tot[taken]
        it[new] += 1
        if first:
            sol, mags = step, step_mags
        else:
            mags[new] = step_mags[taken]
            for f in _ROW_FIELDS:
                getattr(sol, f)[new] = getattr(step, f)[taken]
        clean = ~step_mags[taken].any(axis=1)
        go = conv[taken] & ~clean & (adj.size > 0) & (it[new] < REPAIR_MAX_OUTER)
        g = new[go]  # converged rows only: no inf - inf
        go[go] = ~(prev[g] - tot[g] < REPAIR_REL_STOP * np.maximum(prev[g], 1.0))
        for r in new[~go].tolist():
            finish(r)
        rows_t = new[go]
        prev[rows_t] = tot[rows_t]
        if rows_t.size:
            descend(rows_t)
        live = live[[results[r] is None for r in live.tolist()]]
    return results
