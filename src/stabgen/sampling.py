"""Sampling: stratified dimension draws, voltage graph walk, disaggregation.

Every random draw is keyed on (global seed, cell path, sample index, case
index), so identical inputs reproduce identical operating points no matter
how many workers run or in which order calls happen.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .grid import GridModel, IBR, SG
from .space import (OperatingPoint, Subregion, P_D, P_IBR, P_SG, PCT_GFM,
                    V_ANCHOR, derive_dependent)


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


def disaggregate_variance_max(target: float, lo: np.ndarray, hi: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Extreme-value allocation: start at the lower bounds, then raise
    elements toward their upper bounds in a shuffled order until the
    remaining deficit is exhausted."""
    x = lo.astype(float).copy()
    deficit = target - float(lo.sum())
    for i in rng.permutation(len(x)):
        step = min(hi[i] - lo[i], deficit)
        x[i] += step
        deficit -= step
        if deficit <= 0:
            break
    return x


def disaggregate_gaussian(target: float, lo: np.ndarray, hi: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Gaussian allocation centered at the bound-scaled means.

    Means are lo + f*(hi-lo) with f the fractional position of the target
    between the bound sums; sigma spans a sixth of each range.  Values are
    clamped to the bounds and the offsets (x - lo) proportionally rescaled
    until the sum matches the target.
    """
    span = float((hi - lo).sum())
    if span <= 0:
        return lo.astype(float).copy()
    f = (target - float(lo.sum())) / span
    mean = lo + f * (hi - lo)
    sigma = (hi - lo) / 6.0
    x = np.clip(rng.normal(mean, sigma), lo, hi)
    want = target - float(lo.sum())
    for _ in range(100):
        got = float((x - lo).sum())
        if got <= 0:
            x = mean.copy()
            got = float((x - lo).sum())
        x = lo + (x - lo) * (want / got)
        over = x > hi
        if not over.any() and abs(float(x.sum()) - target) <= 1e-9 * max(1.0, abs(target)):
            break
        x = np.clip(x, lo, hi)
    return x


def disaggregate(target: float, bounds: list[tuple[float, float]],
                 rng: np.random.Generator, max_tries: int = 50) -> np.ndarray:
    """Allocate a total across elements within per-element bounds.

    The variance-maximizing strategy is tried up to ``max_tries`` shuffles;
    if it cannot match the target it falls back to the Gaussian strategy.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    tol = 1e-9 * max(1.0, abs(target))
    if target < lo.sum() - tol or target > hi.sum() + tol:
        raise ValueError(
            f"target {target} outside feasible range [{lo.sum()}, {hi.sum()}]")
    target = min(max(target, float(lo.sum())), float(hi.sum()))
    for _ in range(max_tries):
        x = disaggregate_variance_max(target, lo, hi, rng)
        if abs(float(x.sum()) - target) <= tol:
            return x
    return disaggregate_gaussian(target, lo, hi, rng)


def hierarchical_sample(cell: Subregion, n_samples: int, n_cases: int,
                        grid: GridModel, seed: int,
                        loss_factor: float = 0.97, dev_bound: float = 0.02,
                        randomize_loads: bool = False) -> list[OperatingPoint]:
    """Draw n_samples dimension tuples and n_cases variable realizations each.

    Dimension tuples come from the Latin hypercube draw plus the voltage
    graph walk; each case disaggregates the SG, IBR, grid-forming and
    demand totals onto individual elements and derives the dependent
    values.  Output length is exactly n_samples * n_cases.
    """
    if n_samples < 1 or n_cases < 1:
        raise ValueError("n_samples and n_cases must be >= 1")
    sg = grid.groups_of(SG)
    ibr = grid.groups_of(IBR)
    dim_tuples = lhs(n_samples, cell, rng_stream(seed, cell.path, 0))
    points: list[OperatingPoint] = []
    for i, dims in enumerate(dim_tuples):
        profile = sample_voltage_profile(
            grid, dims[V_ANCHOR], dev_bound, rng_stream(seed, cell.path, i + 1, 0))
        for j in range(n_cases):
            rng = rng_stream(seed, cell.path, i + 1, j + 1)
            varv: dict[str, float] = {}
            if sg:
                alloc = disaggregate(dims[P_SG], [(g.p_min, g.p_max) for g in sg], rng)
                for g, v in zip(sg, alloc):
                    varv[f"P_SG_{g.bus}"] = float(v)
            if ibr:
                alloc = disaggregate(dims[P_IBR], [(g.p_min, g.p_max) for g in ibr], rng)
                for g, v in zip(ibr, alloc):
                    varv[f"P_IBR_{g.bus}"] = float(v)
                gfm_total = dims[PCT_GFM] * dims[P_IBR]
                gfm_bounds = [(0.0, varv[f"P_IBR_{g.bus}"]) for g in ibr]
                alloc = disaggregate(gfm_total, gfm_bounds, rng)
                for g, v in zip(ibr, alloc):
                    varv[f"P_GFM_{g.bus}"] = float(v)
            p_d = loss_factor * (dims.get(P_SG, 0.0) + dims.get(P_IBR, 0.0))
            if grid.loads:
                if randomize_loads:
                    load_bounds = [(0.8 * ld.participation * p_d,
                                    min(1.2 * ld.participation * p_d, p_d))
                                   for ld in grid.loads]
                    alloc = disaggregate(p_d, load_bounds, rng)
                else:
                    alloc = [ld.participation * p_d for ld in grid.loads]
                for ld, v in zip(grid.loads, alloc):
                    varv[f"P_L_{ld.bus}"] = float(v)
            op = OperatingPoint(dim_values=dict(dims), var_values=varv,
                                voltage_profile=profile,
                                sample_index=i, case_index=j)
            points.append(derive_dependent(op, loss_factor))
    return points
