"""Sampling: stratified dimension draws, voltage graph walk, disaggregation.

Every random draw is keyed on (global seed, cell path, sample index, case
index), so identical inputs reproduce identical operating points no matter
how many workers run or in which order calls happen.  Each total is
disaggregated by one variance-maximizing fill, and each operating point is
built once, with its dependent values (total demand, grid-following
remainders) already in place.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .grid import GridModel, IBR, SG
from .space import OperatingPoint, Subregion, P_D, P_IBR, P_SG, PCT_GFM, V_ANCHOR


def rng_stream(seed: int, cell_path: str, *indices: int) -> np.random.Generator:
    """Deterministic generator keyed on seed material, not call order."""
    digest = hashlib.sha256(cell_path.encode("utf-8")).digest()
    path_words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    material = [seed & 0xFFFFFFFF, *path_words, *[i & 0xFFFFFFFF for i in indices]]
    return np.random.default_rng(np.random.SeedSequence(material))


def lhs(n: int, cell: Subregion, rng: np.random.Generator) -> list[dict[str, float]]:
    """Latin hypercube draw of n dimension tuples inside a cell.

    Each dimension's interval is cut into n equal strata and receives
    exactly one sample per stratum; stratum permutations are independent
    across dimensions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    names = list(cell.bounds)
    u = rng.random((n, len(names)))
    tuples: list[dict[str, float]] = [{} for _ in range(n)]
    for k, name in enumerate(names):
        lo, hi = cell.bounds[name]
        strata = rng.permutation(n)
        values = lo + (strata + u[:, k]) * (hi - lo) / n
        for i in range(n):
            tuples[i][name] = float(values[i])
    return tuples


def sample_voltage_profile(grid: GridModel, anchor_v: float, dev_bound: float,
                           rng: np.random.Generator) -> dict[int, float]:
    """Per-bus voltage magnitudes from a random walk over the grid graph.

    Breadth-first from the slack bus; a newly reached bus takes its parent's
    voltage plus a bounded uniform deviation.  Buses reached through several
    frontier edges in the same layer take the mean of the tentative
    assignments (layer-synchronous, so traversal order is irrelevant).
    Results are clamped to each bus's voltage band.  The grid keeps its
    sorted adjacency and bus lookup, so no sample rebuilds them.
    """
    slack = grid.slack_bus
    profile: dict[int, float] = {}
    profile[slack.id] = min(max(anchor_v, slack.v_min), slack.v_max)
    frontier = [slack.id]   # ascending ids, layer by layer
    while frontier:
        tentative: dict[int, list[float]] = {}
        for parent in frontier:
            for child in grid.neighbors[parent]:
                if child in profile:
                    continue
                dev = rng.uniform(-dev_bound, dev_bound) if dev_bound > 0 else 0.0
                tentative.setdefault(child, []).append(profile[parent] + dev)
        frontier = []
        for child in sorted(tentative):
            bus = grid.bus(child)
            v = float(np.mean(tentative[child]))
            profile[child] = min(max(v, bus.v_min), bus.v_max)
            frontier.append(child)
    return profile


def disaggregate(target: float, lo: np.ndarray, hi: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Allocate a total across elements within per-element bounds [lo, hi].

    Variance-maximizing fill: start at the lower bounds, then raise elements
    toward their upper bounds in a shuffled order until the remaining deficit
    is exhausted.  A target outside the bound sums by more than rounding
    raises ValueError; one within rounding of them is clamped onto them.
    """
    lo_sum, hi_sum = float(lo.sum()), float(hi.sum())
    tol = 1e-9 * max(1.0, abs(target))
    if target < lo_sum - tol or target > hi_sum + tol:
        raise ValueError(f"target {target} outside feasible range [{lo_sum}, {hi_sum}]")
    x = lo.astype(float)
    deficit = min(max(target, lo_sum), hi_sum) - lo_sum
    for i in rng.permutation(len(x)):
        step = min(hi[i] - lo[i], deficit)
        x[i] += step
        deficit -= step
        if deficit <= 0:
            break
    return x


def hierarchical_sample(cell: Subregion, n_samples: int, n_cases: int,
                        grid: GridModel, seed: int,
                        loss_factor: float = 0.97, dev_bound: float = 0.02,
                        randomize_loads: bool = False,
                        samples: range | None = None) -> list[OperatingPoint]:
    """Draw n_samples dimension tuples and n_cases variable realizations each.

    Dimension tuples come from the Latin hypercube draw plus the voltage
    graph walk, and gain the total demand ``P_D``, the ``loss_factor``
    fraction of total generation.  Each case disaggregates the SG, IBR,
    grid-forming and demand totals onto individual elements; every
    grid-following allocation is its IBR group's remainder after the
    grid-forming share, which is bounded by that group's allocation.
    The points come sample by sample, n_cases each, for all n_samples
    samples or only those in ``samples``, a range of sample indices.  A
    point is the same either way, since the cell's whole Latin hypercube is
    drawn either way.
    """
    if n_samples < 1 or n_cases < 1:
        raise ValueError("n_samples and n_cases must be >= 1")
    sg = grid.groups_of(SG)
    ibr = grid.groups_of(IBR)
    sg_lo, sg_hi = _power_bounds(sg)
    ibr_lo, ibr_hi = _power_bounds(ibr)
    gfm_lo = np.zeros(len(ibr))
    share = np.array([ld.participation for ld in grid.loads])
    sg_keys = [f"P_SG_{g.bus}" for g in sg]
    ibr_keys, gfm_keys, gfl_keys = ([f"P_{kind}_{g.bus}" for g in ibr]
                                    for kind in ("IBR", "GFM", "GFL"))
    load_keys = [f"P_L_{ld.bus}" for ld in grid.loads]
    dim_tuples = lhs(n_samples, cell, rng_stream(seed, cell.path, 0))
    points: list[OperatingPoint] = []
    for i in range(n_samples) if samples is None else samples:
        dims = dim_tuples[i]
        p_d = loss_factor * (dims.get(P_SG, 0.0) + dims.get(P_IBR, 0.0))
        dims[P_D] = p_d
        profile = sample_voltage_profile(
            grid, dims[V_ANCHOR], dev_bound, rng_stream(seed, cell.path, i + 1, 0))
        for j in range(n_cases):
            rng = rng_stream(seed, cell.path, i + 1, j + 1)
            varv: dict[str, float] = {}
            if sg:
                p_sg = disaggregate(dims[P_SG], sg_lo, sg_hi, rng)
                varv.update(zip(sg_keys, p_sg.tolist()))
            if ibr:
                p_ibr = disaggregate(dims[P_IBR], ibr_lo, ibr_hi, rng)
                p_gfm = disaggregate(dims[PCT_GFM] * dims[P_IBR], gfm_lo, p_ibr, rng)
                varv.update(zip(ibr_keys, p_ibr.tolist()))
                varv.update(zip(gfm_keys, p_gfm.tolist()))
            if grid.loads:
                if randomize_loads:
                    loads = disaggregate(p_d, 0.8 * share * p_d,
                                         np.minimum(1.2 * share * p_d, p_d), rng)
                else:
                    loads = share * p_d
                varv.update(zip(load_keys, loads.tolist()))
            if ibr:
                varv.update(zip(gfl_keys, (p_ibr - p_gfm).tolist()))
            points.append(OperatingPoint(dim_values=dict(dims), var_values=varv,
                                         voltage_profile=profile,
                                         sample_index=i, case_index=j))
    return points


def _power_bounds(groups) -> tuple[np.ndarray, np.ndarray]:
    """The active-power bounds (p_min, p_max) of generation groups, as arrays."""
    return np.array([g.p_min for g in groups]), np.array([g.p_max for g in groups])
