"""Reduced-order small-signal models and eigenvalue stability labeling.

Component models: synchronous machine = classical swing plus optional
first-order governor; grid-forming converter = power-droop synchronization
with first-order filtered P/Q measurements and a Q/V droop; grid-following
converter = second-order PLL, first-order power loop and first-order
droop filters.  The network is quasi-static: loads become constant
admittances at the equilibrium and passive buses are Kron-eliminated, so
the electrical coupling enters through the linearized power-flow Jacobian
restricted to dynamic-source buses.  Grid-forming and machine buses act as
voltage sources (angle and magnitude set by states); buses hosting only
grid-following converters act as power sources whose terminal angle and
voltage are solved algebraically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# build_admittance stays importable here for bench/tracer.py, which wraps it
# by this module's name; the compiled network (GridModel.network) calls it.
from .grid import SG as SG_TECH, build_admittance, power_jacobian  # noqa: F401

if TYPE_CHECKING:
    from .feasibility import PowerFlowSolution
    from .grid import GridModel
    from .space import OperatingPoint

OMEGA_BASE = 2 * math.pi * 50.0
EPS_MARGIN = 1e-6
UNIT_MIN_MW = 1e-6  # a group at or below this dispatch has no dynamic unit

KIND_SG = "SG"
KIND_GFOR = "GFOR"
KIND_GFOL = "GFOL"


class LinearizationError(RuntimeError):
    """Raised when no state-space model can be assembled."""


@dataclass(frozen=True)
class SgParams:
    inertia_h: float          # s, on the unit MVA base
    damping_d: float          # pu torque per pu speed
    droop_r: float | None = 0.05   # governor droop; None disables the governor
    t_g: float = 0.5          # governor time constant, s

    def __post_init__(self):
        if self.inertia_h <= 0:
            raise ValueError("inertia_h must be positive")
        if self.droop_r is not None and (self.droop_r <= 0 or self.t_g <= 0):
            raise ValueError("governor droop and time constant must be positive")


@dataclass(frozen=True)
class GfolParams:
    pll_kp: float = 50.0
    pll_ki: float = 900.0
    t_p: float = 0.05         # power-loop time constant, s
    k_f: float = 1.5          # frequency droop gain, pu
    k_v: float = 5.0          # voltage droop gain, pu
    tau_u: float = 0.1        # droop filter (frequency path), s
    tau_w: float = 0.1        # droop filter (voltage path), s

    def __post_init__(self):
        if min(self.pll_kp, self.pll_ki, self.t_p, self.k_f, self.k_v,
               self.tau_u, self.tau_w) <= 0:
            raise ValueError("all grid-following parameters must be positive")


@dataclass(frozen=True)
class GforParams:
    k_p: float = 0.02 * OMEGA_BASE  # active power droop, rad/s per pu
    k_q: float = 0.05               # reactive droop, pu voltage per pu power
    tau_u: float = 0.1              # droop filter (P path), s
    tau_w: float = 0.1              # droop filter (Q path), s

    def __post_init__(self):
        if min(self.k_p, self.k_q, self.tau_u, self.tau_w) <= 0:
            raise ValueError("all grid-forming parameters must be positive")


@dataclass(frozen=True)
class DynUnit:
    """One dynamic source: a dispatched machine or converter sub-unit."""
    kind: str                 # SG, GFOR or GFOL
    bus: int
    params: SgParams | GforParams | GfolParams
    s_rated: float            # MVA
    p_mw: float

    @property
    def uid(self) -> str:
        return f"{self.kind}_{self.bus}"


@dataclass
class StateSpaceModel:
    a_matrix: np.ndarray
    labels: list[tuple[str, str]]   # (unit id, state name)
    has_reference: bool             # a static voltage source pins the angle

    @property
    def n(self) -> int:
        return self.a_matrix.shape[0]


@dataclass
class StabilityVerdict:
    stable: bool
    max_real: float
    eigenvalues: np.ndarray
    dominant_mode: tuple[float, float]  # (frequency Hz, damping ratio)


def _reduced_jacobian(grid: GridModel, solution: PowerFlowSolution,
                      retained: list[int]) -> np.ndarray:
    """Kron-reduce the network, with each solved load as a constant
    admittance at its solved voltage, to the retained buses and return the
    power-flow Jacobian J = d[P;Q]/d[theta;V] there."""
    net = grid.network
    case = solution.case
    lb = net.load_bus
    y = net.ybus.copy()
    vm, va = solution.vm.tolist(), solution.va.tolist()
    y[lb, lb] += (case.p_load[lb] - 1j * case.q_load[lb]) / solution.vm[lb] ** 2
    keep = [net.bus_ids.index(b) for b in retained]
    elim = [i for i in range(len(net.bus_ids)) if i not in keep]
    if elim:
        ykk = y[np.ix_(keep, keep)]
        yke = y[np.ix_(keep, elim)]
        yek = y[np.ix_(elim, keep)]
        yee = y[np.ix_(elim, elim)]
        try:
            y_red = ykk - yke @ np.linalg.solve(yee, yek)
        except np.linalg.LinAlgError as exc:
            raise LinearizationError("singular Kron reduction") from exc
    else:
        y_red = y
    v = np.array([vm[i] * cmath.exp(1j * va[i]) for i in keep])
    return power_jacobian(y_red, v)


def linearize(grid: GridModel, solution: PowerFlowSolution,
              units: list[DynUnit]) -> StateSpaceModel:
    """Assemble the system A matrix around a converged power-flow solution,
    with the loads that the solution balanced.

    Buses that host a voltage-forming unit (machine or grid-forming
    converter), or generation without a dynamic model (treated as an
    infinite bus), keep their angle and magnitude as state-driven or fixed
    quantities; buses hosting only grid-following converters have terminal
    angle and voltage eliminated algebraically against the converters'
    injections.
    """
    if not units:
        raise LinearizationError("no dynamic sources")
    units = sorted(units, key=lambda u: (u.bus, u.kind))
    forming_buses = sorted({u.bus for u in units if u.kind in (KIND_SG, KIND_GFOR)})
    for b in forming_buses:
        formers = [u for u in units if u.bus == b and u.kind in (KIND_SG, KIND_GFOR)]
        if len(formers) > 1:
            raise LinearizationError(
                f"bus {b}: more than one voltage-forming unit is not supported")
    # dispatched generation without a dynamic unit pins the angle (infinite bus)
    modeled = {u.bus for u in units}
    static_buses = sorted({g.bus for g, p in zip(grid.gen_groups, solution.gen_p)
                           if p > UNIT_MIN_MW and g.bus not in modeled})
    follow_only = sorted({u.bus for u in units if u.kind == KIND_GFOL}
                         - set(forming_buses) - set(static_buses))
    a_buses = forming_buses + static_buses
    a_buses = sorted(set(a_buses))
    retained = sorted(set(a_buses) | set(follow_only))
    jac = _reduced_jacobian(grid, solution, retained)

    n_r = len(retained)
    pos = {b: i for i, b in enumerate(retained)}
    i_a = [pos[b] for b in a_buses]
    i_b = [pos[b] for b in follow_only]

    offsets: dict[str, int] = {}
    labels: list[tuple[str, str]] = []
    for u in units:
        offsets[u.uid] = len(labels)
        if u.kind == KIND_SG:
            names = ["delta", "domega"] + (["pgov"] if u.params.droop_r is not None else [])
        elif u.kind == KIND_GFOR:
            names = ["theta", "pfilt", "qfilt"]
        else:
            names = ["pll_phase", "pll_int", "pctl", "ufilt", "wfilt"]
        labels.extend((u.uid, nm) for nm in names)
    n_x = len(labels)

    # state -> retained-bus angle/magnitude maps for voltage-source buses
    t_theta = np.zeros((n_r, n_x))
    t_vmag = np.zeros((n_r, n_x))
    # state -> bus injection maps for grid-following converters (system pu)
    inj_p = np.zeros((n_r, n_x))
    inj_q = np.zeros((n_r, n_x))
    for u in units:
        o = offsets[u.uid]
        r = pos[u.bus]
        bconv = u.s_rated / grid.base_mva
        if u.kind == KIND_SG:
            t_theta[r, o] = 1.0
        elif u.kind == KIND_GFOR:
            t_theta[r, o] = 1.0
            t_vmag[r, o + 2] = -u.params.k_q
        else:
            inj_p[r, o + 2] = bconv          # power-loop state ps
            inj_q[r, o + 4] = -bconv * u.params.k_v  # voltage droop via wfilt

    cols_known = i_a + [n_r + i for i in i_a]
    cols_unknown = i_b + [n_r + i for i in i_b]
    t_known = np.vstack([t_theta[i_a, :], t_vmag[i_a, :]]) if i_a else np.zeros((0, n_x))

    # full [theta; V] over retained buses as a linear map of the states
    t_full = np.zeros((2 * n_r, n_x))
    if i_a:
        t_full[cols_known, :] = t_known
    if i_b:
        rows_b = i_b + [n_r + i for i in i_b]
        inj_b = np.vstack([inj_p[i_b, :], inj_q[i_b, :]])
        j_bu = jac[np.ix_(rows_b, cols_unknown)]
        j_bk = jac[np.ix_(rows_b, cols_known)] if i_a else np.zeros((len(rows_b), 0))
        rhs = inj_b - (j_bk @ t_known if i_a else 0.0)
        try:
            t_unknown = np.linalg.solve(j_bu, rhs)
        except np.linalg.LinAlgError as exc:
            raise LinearizationError("singular terminal solve at follower buses") from exc
        t_full[cols_unknown, :] = t_unknown

    # net bus power P,Q (system pu) as linear maps of the states
    p_bus = jac[:n_r, :] @ t_full
    q_bus = jac[n_r:, :] @ t_full

    a = np.zeros((n_x, n_x))
    for u in units:
        o = offsets[u.uid]
        r = pos[u.bus]
        bconv = u.s_rated / grid.base_mva
        if u.kind in (KIND_SG, KIND_GFOR):
            # electrical power of the forming source: bus power minus any
            # co-located follower injections, in the unit's own base
            pe_row = (p_bus[r, :] - inj_p[r, :]) / bconv
            qe_row = (q_bus[r, :] - inj_q[r, :]) / bconv
        if u.kind == KIND_SG:
            prm: SgParams = u.params
            a[o, o + 1] = OMEGA_BASE
            a[o + 1, :] -= pe_row / (2 * prm.inertia_h)
            a[o + 1, o + 1] -= prm.damping_d / (2 * prm.inertia_h)
            if prm.droop_r is not None:
                a[o + 1, o + 2] += 1.0 / (2 * prm.inertia_h)
                a[o + 2, o + 1] = -1.0 / (prm.droop_r * prm.t_g)
                a[o + 2, o + 2] = -1.0 / prm.t_g
        elif u.kind == KIND_GFOR:
            prm: GforParams = u.params
            a[o, o + 1] = -prm.k_p
            a[o + 1, :] += pe_row / prm.tau_u
            a[o + 1, o + 1] += -1.0 / prm.tau_u
            a[o + 2, :] += qe_row / prm.tau_w
            a[o + 2, o + 2] += -1.0 / prm.tau_w
        else:
            prm: GfolParams = u.params
            theta_t = t_full[r, :]
            v_t = t_full[n_r + r, :]
            err = theta_t.copy()
            err[o] -= 1.0  # PLL error = terminal angle - pll phase
            a[o, :] += prm.pll_kp * err
            a[o, o + 1] += 1.0
            a[o + 1, :] += prm.pll_ki * err
            a[o + 3, o + 1] += 1.0 / prm.tau_u
            a[o + 3, o + 3] -= 1.0 / prm.tau_u
            a[o + 2, o + 3] = -prm.k_f / prm.t_p
            a[o + 2, o + 2] = -1.0 / prm.t_p
            a[o + 4, :] += v_t / prm.tau_w
            a[o + 4, o + 4] -= 1.0 / prm.tau_w
    if not np.all(np.isfinite(a)):
        raise LinearizationError("non-finite entries in the state matrix")
    return StateSpaceModel(a, labels, has_reference=bool(static_buses))


def eig_stability(ssm: StateSpaceModel, eps_margin: float = EPS_MARGIN) -> StabilityVerdict:
    """Eigenvalue stability verdict: stable iff every mode's real part is
    below -eps_margin.

    Systems without a static angle reference carry one structural
    zero eigenvalue (uniform rotation of all source angles); that single
    mode is excluded from the verdict.
    """
    try:
        eig = np.linalg.eigvals(ssm.a_matrix)
    except np.linalg.LinAlgError as exc:
        raise LinearizationError("eigensolver failed") from exc
    if not ssm.has_reference and eig.size:
        k = int(np.argmin(np.abs(eig)))
        if abs(eig[k]) < 1e-5:
            eig = np.delete(eig, k)
    if eig.size == 0:
        return StabilityVerdict(True, -math.inf, eig, (0.0, 1.0))
    k = int(np.argmax(eig.real))
    lam = eig[k]
    max_real = float(lam.real)
    mag = abs(lam)
    damping = float(-lam.real / mag) if mag > 0 else 0.0
    freq = float(abs(lam.imag) / (2 * math.pi))
    return StabilityVerdict(max_real < -eps_margin, max_real, eig, (freq, damping))


# -- building units from an operating point ---------------------------------

GFM_MIN_MW = 1e-3


def build_units(grid: GridModel, op: OperatingPoint,
                sg_params: SgParams = SgParams(inertia_h=3.5, damping_d=2.0),
                gfor_params: GforParams = GforParams(),
                gfol_params: GfolParams = GfolParams()) -> list[DynUnit]:
    """Dynamic units for an operating point: one machine unit per dispatched
    SG group, and per IBR group a grid-forming and/or grid-following
    sub-unit sized by the point's GFM/GFL split."""
    units: list[DynUnit] = []
    for g in grid.gen_groups:
        if g.tech == SG_TECH:
            p = op.var_values.get(f"P_SG_{g.bus}", 0.0)
            if p > UNIT_MIN_MW:
                units.append(DynUnit(KIND_SG, g.bus, sg_params, g.s_rated, p))
        else:
            p_total = op.var_values.get(f"P_IBR_{g.bus}", 0.0)
            if p_total <= UNIT_MIN_MW:
                continue
            p_gfm = op.var_values.get(f"P_GFM_{g.bus}", 0.0)
            p_gfl = op.var_values.get(f"P_GFL_{g.bus}", p_total - p_gfm)
            if p_gfm > GFM_MIN_MW:
                units.append(DynUnit(KIND_GFOR, g.bus, gfor_params,
                                     g.s_rated * p_gfm / p_total, p_gfm))
            if p_gfl > GFM_MIN_MW:
                units.append(DynUnit(KIND_GFOL, g.bus, gfol_params,
                                     g.s_rated * p_gfl / p_total, p_gfl))
    return units


# -- terminal admittance models and the frequency scan -----------------------

@dataclass
class TerminalModel:
    """Small-signal terminal characterization of a single unit.

    Input: terminal voltage-magnitude perturbation (pu).  Output: complex
    injected power perturbation dP + j dQ, in system per unit.  The scan
    admittance is ``Y(jw) = c (jwI - a)^-1 b + d``.
    """
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray  # complex row
    d: complex


@dataclass(frozen=True)
class ConverterUnit:
    mode: str                 # GFOR or GFOL
    params: GforParams | GfolParams
    s_rated: float            # MVA
    p_mw: float


def aggregate_ibrs(units: list[ConverterUnit]) -> ConverterUnit:
    """Equivalent converter: summed ratings and dispatch, shared per-unit
    parameters.  Mixing control modes is an error."""
    if not units:
        raise ValueError("no units to aggregate")
    modes = {u.mode for u in units}
    if len(modes) > 1:
        raise ValueError(f"cannot aggregate mixed control modes: {sorted(modes)}")
    params = {u.params for u in units}
    if len(params) > 1:
        raise ValueError("units must share identical per-unit parameters")
    return ConverterUnit(units[0].mode, units[0].params,
                         sum(u.s_rated for u in units), sum(u.p_mw for u in units))


def terminal_model(unit: ConverterUnit, base_mva: float = 100.0,
                   x_c: float = 0.1, v_t0: float = 1.0) -> TerminalModel:
    """Terminal model of a converter behind a coupling reactance.

    The grid-forming unit is a controlled voltage source behind x_c; the
    grid-following unit injects its power-loop output directly.  Both are
    linearized at the unit's per-unit dispatch.
    """
    scale = unit.s_rated / base_mva
    if unit.mode == "GFOR":
        prm: GforParams = unit.params
        p0 = unit.p_mw / unit.s_rated  # unit pu
        theta0 = math.atan(p0 * x_c / v_t0 ** 2)
        e0 = v_t0 / math.cos(theta0)
        # terminal-side power of the branch E<theta -> V_t<0 through jx_c:
        #   P = E V sin(theta)/x_c ; Q = (E V cos(theta) - V^2)/x_c
        sin0, cos0 = math.sin(theta0), math.cos(theta0)
        dp_dth = e0 * v_t0 * cos0 / x_c
        dp_de = v_t0 * sin0 / x_c
        dp_dv = e0 * sin0 / x_c
        dq_dth = -e0 * v_t0 * sin0 / x_c
        dq_de = v_t0 * cos0 / x_c
        dq_dv = (e0 * cos0 - 2 * v_t0) / x_c
        # states: theta, pfilt, qfilt; E = e0 - k_q qfilt
        a = np.array([
            [0.0, -prm.k_p, 0.0],
            [dp_dth / prm.tau_u, -1.0 / prm.tau_u, -dp_de * prm.k_q / prm.tau_u],
            [dq_dth / prm.tau_w, 0.0, (-1.0 - dq_de * prm.k_q) / prm.tau_w],
        ])
        b = np.array([0.0, dp_dv / prm.tau_u, dq_dv / prm.tau_w])
        c = scale * np.array([dp_dth + 1j * dq_dth, 0.0,
                              -(dp_de + 1j * dq_de) * prm.k_q])
        d = scale * complex(dp_dv, dq_dv)
        return TerminalModel(a, b, c, d)
    if unit.mode == "GFOL":
        prm: GfolParams = unit.params
        # states: pll_phase, pll_int, pctl, ufilt, wfilt (terminal angle fixed)
        a = np.array([
            [-prm.pll_kp, 1.0, 0.0, 0.0, 0.0],
            [-prm.pll_ki, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0 / prm.t_p, -prm.k_f / prm.t_p, 0.0],
            [0.0, 1.0 / prm.tau_u, 0.0, -1.0 / prm.tau_u, 0.0],
            [0.0, 0.0, 0.0, 0.0, -1.0 / prm.tau_w],
        ])
        b = np.array([0.0, 0.0, 0.0, 0.0, 1.0 / prm.tau_w])
        c = scale * np.array([0.0, 0.0, 1.0, 0.0, -1j * prm.k_v])
        d = 0j
        return TerminalModel(a, b, c, d)
    raise ValueError(f"unknown converter mode {unit.mode!r}")


def admittance_scan(model: TerminalModel, freqs_hz: np.ndarray) -> np.ndarray:
    """Evaluate Y(jw) = c (jwI - a)^-1 b + d over a frequency grid.

    Frequencies coinciding with an eigenvalue of A are singular and return
    NaN (skipped by callers).
    """
    n = model.a.shape[0]
    eigs = np.linalg.eigvals(model.a) if n else np.array([])
    out = np.empty(len(freqs_hz), dtype=complex)
    eye = np.eye(n)
    for k, f in enumerate(np.asarray(freqs_hz, dtype=float)):
        s = 1j * 2 * math.pi * f
        if n and np.min(np.abs(eigs - s)) < 1e-12:
            out[k] = complex(math.nan, math.nan)
            continue
        if n:
            out[k] = model.c @ np.linalg.solve(s * eye - model.a, model.b) + model.d
        else:
            out[k] = model.d
    return out
