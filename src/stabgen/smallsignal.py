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
voltage are solved algebraically.  Each kind's control law is written once
(``_LAWS``) and closed two ways: through the Kron-reduced network by
``linearize``, on two maps from the states to the retained buses (each
bus's angle and magnitude, each follower's injection) whose follower rows
are solved in place, and at one terminal, for the admittance scan, by
``terminal_model``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

# build_admittance stays importable here only for bench/tracer.py, which
# wraps it by this module's name; no engine code calls it.
from .grid import SG as SG_TECH, build_admittance, power_jacobian  # noqa: F401

if TYPE_CHECKING:
    from .feasibility import PowerFlowSolution
    from .grid import GridModel
    from .space import OperatingPoint

OMEGA_BASE = 2 * math.pi * 50.0
EPS_MARGIN = 1e-6
UNIT_MIN_MW = 1e-6  # a group at or below this dispatch has no dynamic unit
X_C = 0.1           # coupling reactance of the grid-forming terminal model, unit pu
V_T0 = 1.0          # terminal voltage magnitude of the terminal models, pu

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


class _Law(NamedTuple):
    """One kind's control law, in the unit's own base.  ``outputs`` maps the
    states to a forming (SG, GFOR) unit's source angle and magnitude, or a
    grid-following unit's P and Q.  ``equations(a, o, in1, in2)`` adds state
    rows ``o, o+1, ...`` to ``a`` from two input rows over its columns: a
    forming unit's P and Q, or a follower's terminal angle and magnitude."""
    states: list[str]
    outputs: np.ndarray  # (2, len(states))
    equations: Callable[[np.ndarray, int, np.ndarray, np.ndarray], None]


def _sg_law(prm: SgParams) -> _Law:
    """Classical swing plus optional governor, behind a fixed magnitude."""
    states = ["delta", "domega"] + (["pgov"] if prm.droop_r is not None else [])
    outputs = np.zeros((2, len(states)))
    outputs[0, 0] = 1.0  # source angle = delta

    def equations(a, o, pe, qe):
        a[o, o + 1] = OMEGA_BASE
        a[o + 1, :] -= pe / (2 * prm.inertia_h)
        a[o + 1, o + 1] -= prm.damping_d / (2 * prm.inertia_h)
        if prm.droop_r is not None:
            a[o + 1, o + 2] += 1.0 / (2 * prm.inertia_h)
            a[o + 2, o + 1] = -1.0 / (prm.droop_r * prm.t_g)
            a[o + 2, o + 2] = -1.0 / prm.t_g
    return _Law(states, outputs, equations)


def _gfor_law(prm: GforParams) -> _Law:
    """P/f droop synchronization and Q/V droop on filtered P and Q."""
    # source angle = theta, source magnitude = e0 - k_q qfilt
    outputs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -prm.k_q]])

    def equations(a, o, pe, qe):
        a[o, o + 1] = -prm.k_p
        a[o + 1, :] += pe / prm.tau_u
        a[o + 1, o + 1] += -1.0 / prm.tau_u
        a[o + 2, :] += qe / prm.tau_w
        a[o + 2, o + 2] += -1.0 / prm.tau_w
    return _Law(["theta", "pfilt", "qfilt"], outputs, equations)


def _gfol_law(prm: GfolParams) -> _Law:
    """PLL, power loop with frequency droop, and Q/V droop."""
    # P = pctl, Q = -k_v wfilt
    outputs = np.array([[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -prm.k_v]])

    def equations(a, o, theta_t, v_t):
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
    return _Law(["pll_phase", "pll_int", "pctl", "ufilt", "wfilt"], outputs, equations)


_LAWS = {KIND_SG: _sg_law, KIND_GFOR: _gfor_law, KIND_GFOL: _gfol_law}


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
    admittance at its solved voltage, to the retained buses (in the order
    given) and return the power-flow Jacobian J = d[P;Q]/d[theta;V] there."""
    net = grid.network
    case = solution.case
    lb = net.load_bus
    y = net.ybus.copy()
    vm, va = solution.vm.tolist(), solution.va.tolist()
    y[lb, lb] += (case.p_load[lb] - 1j * case.q_load[lb]) / solution.vm[lb] ** 2
    keep = [net.bus_ids.index(b) for b in retained]
    elim = [i for i in range(len(net.bus_ids)) if i not in keep]
    k, e = np.ix_(keep, elim)  # keep as a column, elim as a row
    try:
        y_red = y[k, k.T] - y[k, e] @ np.linalg.solve(y[e.T, e], y[e.T, k.T])
    except np.linalg.LinAlgError as exc:
        raise LinearizationError("singular Kron reduction") from exc
    v = np.array([vm[i] * cmath.exp(1j * va[i]) for i in keep])
    return power_jacobian(y_red, v)


def linearize(grid: GridModel, solution: PowerFlowSolution,
              units: list[DynUnit]) -> StateSpaceModel:
    """Assemble the system A matrix around a converged power-flow solution,
    with the loads that the solution balanced.

    Two ``(2 n_r, n_x)`` maps over the ``n_r`` retained buses close the
    laws: ``t`` holds each bus's [theta; |V|] per state, and ``inj`` each
    grid-following converter's [P; Q] injection (system pu).  Buses that
    host a voltage-forming unit (machine or grid-forming converter) get its
    outputs in ``t``; generation without a dynamic model (an infinite bus)
    keeps fixed, zero rows.  The rows of buses hosting only grid-following
    converters, their terminal angle and voltage, are then eliminated
    algebraically against the injections, in place:
    ``t[free] = J[free, free]^-1 (inj[free] - J[free, known] t[known])``.
    """
    if not units:
        raise LinearizationError("no dynamic sources")
    units = sorted(units, key=lambda u: (u.bus, u.kind))
    formers = [u.bus for u in units if u.kind in (KIND_SG, KIND_GFOR)]
    for b, b_next in zip(formers, formers[1:]):  # sorted: a repeat is adjacent
        if b == b_next:
            raise LinearizationError(
                f"bus {b}: more than one voltage-forming unit is not supported")
    # dispatched generation without a dynamic unit pins the angle (infinite bus)
    modeled = {u.bus for u in units}
    static = {g.bus for g, p in zip(grid.gen_groups, solution.gen_p)
              if p > UNIT_MIN_MW and g.bus not in modeled}
    sources = set(formers) | static
    retained = sorted(modeled | static)
    jac = _reduced_jacobian(grid, solution, retained)

    n_r = len(retained)
    pos = {b: i for i, b in enumerate(retained)}
    is_source = [b in sources for b in retained] * 2  # theta rows, then |V| rows
    known = [i for i, src in enumerate(is_source) if src]
    free = [i for i, src in enumerate(is_source) if not src]

    laws = [_LAWS[u.kind](u.params) for u in units]
    labels = [(u.uid, nm) for u, law in zip(units, laws) for nm in law.states]
    offsets = list(accumulate((len(law.states) for law in laws), initial=0))
    n_x = len(labels)

    t, inj = np.zeros((2, 2 * n_r, n_x))
    for u, law, o in zip(units, laws, offsets):
        r, cols = pos[u.bus], slice(o, o + len(law.states))
        if u.kind == KIND_GFOL:
            inj[r, cols], inj[n_r + r, cols] = u.s_rated / grid.base_mva * law.outputs
        else:
            t[r, cols], t[n_r + r, cols] = law.outputs
    f, k = np.ix_(free, known)  # free as a column, known as a row
    try:
        t[free] = np.linalg.solve(jac[f, f.T], inj[free] - jac[f, k] @ t[known])
    except np.linalg.LinAlgError as exc:
        raise LinearizationError("singular terminal solve at follower buses") from exc
    p_bus = jac[:n_r] @ t
    q_bus = jac[n_r:] @ t

    a = np.zeros((n_x, n_x))
    for u, law, o in zip(units, laws, offsets):
        r = pos[u.bus]
        if u.kind == KIND_GFOL:
            law.equations(a, o, t[r], t[n_r + r])
        else:
            # electrical power of the forming source: bus power minus any
            # co-located follower injections, in the unit's own base
            bconv = u.s_rated / grid.base_mva
            law.equations(a, o, (p_bus[r] - inj[r]) / bconv,
                          (q_bus[r] - inj[n_r + r]) / bconv)
    if not np.isfinite(a).all():
        raise LinearizationError("non-finite entries in the state matrix")
    return StateSpaceModel(a, labels, has_reference=bool(static))


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
SG_PARAMS = SgParams(inertia_h=3.5, damping_d=2.0)


def build_units(grid: GridModel, op: OperatingPoint,
                gfor_params: GforParams = GforParams(),
                gfol_params: GfolParams = GfolParams()) -> list[DynUnit]:
    """Dynamic units for an operating point: one machine unit per dispatched
    SG group, and per IBR group a grid-forming and/or grid-following
    sub-unit sized by the point's GFM/GFL split.  Every machine has the
    parameters ``SG_PARAMS``, a module constant."""
    units: list[DynUnit] = []
    for g in grid.gen_groups:
        if g.tech == SG_TECH:
            p = op.var_values.get(f"P_SG_{g.bus}", 0.0)
            if p > UNIT_MIN_MW:
                units.append(DynUnit(KIND_SG, g.bus, SG_PARAMS, g.s_rated, p))
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
    """Small-signal terminal model of one unit.  Input: terminal voltage-
    magnitude perturbation (pu).  Output: injected power perturbation
    dP + j dQ (system pu).  The scan admittance is Y(jw) = c (jwI - a)^-1 b + d."""
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray  # complex row
    d: complex


def aggregate_ibrs(units: list[DynUnit]) -> DynUnit:
    """Equivalent converter: summed ratings and dispatch, shared per-unit
    parameters.  Mixing control modes is an error."""
    if not units:
        raise ValueError("no units to aggregate")
    kinds = {u.kind for u in units}
    if len(kinds) > 1:
        raise ValueError(f"cannot aggregate mixed control modes: {sorted(kinds)}")
    params = {u.params for u in units}
    if len(params) > 1:
        raise ValueError("units must share identical per-unit parameters")
    return replace(units[0], s_rated=sum(u.s_rated for u in units),
                   p_mw=sum(u.p_mw for u in units))


def terminal_model(unit: DynUnit, base_mva: float = 100.0) -> TerminalModel:
    """Terminal model of one converter: its law closed at one terminal.

    The grid-forming unit is its voltage source behind the coupling
    reactance ``X_C`` at a terminal of ``V_T0`` = 1 pu, both module
    constants; the grid-following unit closes at a fixed terminal angle.
    Both are linearized at the unit's per-unit dispatch.
    """
    if unit.kind not in (KIND_GFOR, KIND_GFOL):
        raise ValueError(f"no terminal model for unit kind {unit.kind!r}")
    law = _LAWS[unit.kind](unit.params)
    n = len(law.states)
    # rows over the columns of [a | b]: the states, then the terminal magnitude
    ab = np.zeros((n, n + 1))
    out = np.hstack([law.outputs, np.zeros((2, 1))])
    v_t = np.eye(n + 1)[n]
    if unit.kind == KIND_GFOL:
        law.equations(ab, 0, np.zeros(n + 1), v_t)
        p, q = out
    else:
        p0 = unit.p_mw / unit.s_rated  # unit pu
        theta0 = math.atan(p0 * X_C / V_T0 ** 2)
        e0 = V_T0 / math.cos(theta0)
        # terminal-side power of the branch E<theta -> V_t<0 through jX_C:
        #   P = E V sin(theta)/X_C ; Q = (E V cos(theta) - V^2)/X_C
        sin0, cos0 = math.sin(theta0), math.cos(theta0)
        dp_dth = e0 * V_T0 * cos0 / X_C
        dp_de = V_T0 * sin0 / X_C
        dp_dv = e0 * sin0 / X_C
        dq_dth = -e0 * V_T0 * sin0 / X_C
        dq_de = V_T0 * cos0 / X_C
        dq_dv = (e0 * cos0 - 2 * V_T0) / X_C
        # the law's outputs are the source's angle and magnitude
        p = dp_dth * out[0] + dp_de * out[1] + dp_dv * v_t
        q = dq_dth * out[0] + dq_de * out[1] + dq_dv * v_t
        law.equations(ab, 0, p, q)
    y = unit.s_rated / base_mva * (p + 1j * q)  # injected dP + j dQ, system pu
    return TerminalModel(ab[:, :n], ab[:, n], y[:n], complex(y[n]))


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
