"""Randomized hierarchical grid partitions with per-metric diameter/cut bounds.

A partition is a randomly shifted grid refined by an integer factor per
level. Cell membership at any level is computable from the point, the
shift and the parameters alone, so no cell directory is ever materialized.
Level L (the top) is always the single root cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InputError,
    Metric,
    PointSet,
    Seed,
    UnsupportedMetricError,
    rng_stream,
)


def metric_profile(metric: Metric, dim: int) -> tuple[float, float]:
    """(gamma, b_cut) for the grid family under the given metric.

    gamma converts a box side into a metric diameter bound; b_cut is the
    coefficient of the per-level cut-probability bound b_cut * rho / diam_l.
    """
    if metric is Metric.L2:
        return math.sqrt(dim), float(dim)
    if metric is Metric.L1:
        return float(dim), float(dim * dim)
    if metric is Metric.LINF:
        return 1.0, float(dim)
    raise UnsupportedMetricError("grid partitions are defined for L1, L2 and LINF only")


@dataclass(frozen=True)
class PartitionParams:
    """Grid geometry: refinement factor, level count, box side and metric profile.

    alpha_grid must be integral so that cells at consecutive levels nest
    exactly; bbox_side is the enclosing box side rounded up to a power of
    alpha_grid, and 1 = alpha_grid^0 for points that are all identical,
    since any box holds them.
    """

    alpha_grid: float
    levels: int
    bbox_side: float
    gamma: float
    b_cut: float

    def __post_init__(self):
        a = self.alpha_grid
        if a < 2 or a != int(a):
            raise InputError("alpha_grid must be an integer >= 2")
        if self.levels < 1:
            raise InputError("levels must be >= 1")
        if not 0 < self.bbox_side < math.inf:
            raise InputError("bbox_side must be positive and finite")
        if self.gamma <= 0 or self.b_cut <= 0:
            raise InputError("gamma and b_cut must be positive")

    @classmethod
    def for_point_set(
        cls,
        ps: PointSet,
        alpha_grid: float = 2.0,
        levels: int | None = None,
    ) -> "PartitionParams":
        gamma, b_cut = metric_profile(ps.metric, ps.dim)
        spread = float(np.max(np.max(ps.points, axis=0) - np.min(ps.points, axis=0)))
        side = _pow_at_least(float(alpha_grid), spread) if spread > 0 else 1.0
        if levels is None:
            levels = max(1, math.ceil(math.log(max(ps.n, 2)) / math.log(alpha_grid)))
        return cls(alpha_grid=float(alpha_grid), levels=int(levels), bbox_side=side,
                   gamma=gamma, b_cut=b_cut)


def _pow_at_least(alpha: float, target: float) -> float:
    """Smallest integer power of alpha that is >= target."""
    k = math.ceil(math.log(target) / math.log(alpha) - 1e-12)
    side = alpha**k
    while side < target:
        side *= alpha
    while side / alpha >= target:
        side /= alpha
    return side


@dataclass(frozen=True)
class HierarchicalPartition:
    """A sampled grid: params plus the full per-coordinate offset vector.

    `shift` already folds in the translation of the data's min corner, so
    membership is floor((x - shift) * alpha^(L - level) / bbox_side).
    """

    params: PartitionParams
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "shift", np.asarray(self.shift, dtype=np.float64).reshape(-1)
        )


def sample_partition(ps: PointSet, params: PartitionParams, seed: Seed) -> HierarchicalPartition:
    """Draw the random shift from the seeded stream and bind it to the grid."""
    gamma, b_cut = metric_profile(ps.metric, ps.dim)
    if (params.gamma, params.b_cut) != (gamma, b_cut):
        raise InputError(
            f"params carry (gamma={params.gamma}, b={params.b_cut}) but the "
            f"{ps.metric.value} profile in dimension {ps.dim} is ({gamma}, {b_cut})"
        )
    origin = np.min(ps.points, axis=0)
    r = rng_stream(seed, "partition-shift").uniform(0.0, params.bbox_side, size=ps.dim)
    return HierarchicalPartition(params=params, shift=origin + r)


def base_cell_coords(part: HierarchicalPartition, points: np.ndarray) -> np.ndarray:
    """Integer grid coordinates of each row at level 0 (the finest grid).

    Coordinates for level l follow by integer division with alpha^l, which
    keeps nesting exact; the top level is the single root cell.
    """
    p = part.params
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    scale = p.alpha_grid**p.levels / p.bbox_side
    return np.floor((pts - part.shift) * scale).astype(np.int64)


def coords_at_level(part: HierarchicalPartition, base: np.ndarray, level: int) -> np.ndarray:
    p = part.params
    if not 0 <= level <= p.levels:
        raise InputError(f"level {level} out of range [0, {p.levels}]")
    if level == p.levels:
        return np.zeros_like(base)
    return np.floor_divide(base, int(p.alpha_grid) ** level)


def level_diameter(params: PartitionParams, level: int) -> float:
    """Diameter bound gamma * (1/alpha)^(L - level) * bbox_side for the level."""
    if not 0 <= level <= params.levels:
        raise InputError(f"level {level} out of range [0, {params.levels}]")
    scale = (1.0 / params.alpha_grid) ** (params.levels - level)
    return params.gamma * scale * params.bbox_side
