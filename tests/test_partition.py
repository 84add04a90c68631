import math

import numpy as np
import pytest

from mpslc.core import InputError, Metric, PointSet, Seed
from mpslc.partition import (
    HierarchicalPartition,
    PartitionParams,
    base_cell_coords,
    coords_at_level,
    level_diameter,
    metric_profile,
    sample_partition,
)

from conftest import FLOAT_METRICS, uniform_points


def _cell(part, x, level):
    """The grid coordinates of x's cell at the given level."""
    return tuple(coords_at_level(part, base_cell_coords(part, x), level)[0].tolist())


def test_metric_profiles():
    assert metric_profile(Metric.L2, 4) == (2.0, 4.0)
    assert metric_profile(Metric.L1, 3) == (3.0, 9.0)
    assert metric_profile(Metric.LINF, 3) == (1.0, 3.0)


def test_singleton_point_set_single_cell_everywhere():
    ps = PointSet(points=np.array([[0.4, 0.2]]), metric=Metric.L2)
    params = PartitionParams.for_point_set(ps)
    part = sample_partition(ps, params, Seed(1))
    for level in range(params.levels + 1):
        cells = {_cell(part, ps.points[0], level)}
        assert len(cells) == 1


def test_forced_zero_shift_floor_evaluation():
    params = PartitionParams(alpha_grid=2.0, levels=1, bbox_side=1.0,
                             gamma=math.sqrt(2), b_cut=2.0)
    part = HierarchicalPartition(params=params, shift=np.zeros(2))
    assert _cell(part, np.array([0.3, 0.7]), 0) == (0, 1)


def test_root_cell_is_shared():
    ps = uniform_points(64, 3, seed=2)
    params = PartitionParams.for_point_set(ps)
    part = sample_partition(ps, params, Seed(5))
    root = {_cell(part, p, params.levels) for p in ps.points}
    assert root == {(0, 0, 0)}


def test_distant_points_split():
    ps = PointSet(points=np.array([[0.0, 0.0], [9.0, 0.0]]), metric=Metric.LINF)
    params = PartitionParams.for_point_set(ps)
    part = sample_partition(ps, params, Seed(3))
    for level in range(params.levels):
        d_l = level_diameter(params, level)
        if 9.0 > d_l:
            assert _cell(part, ps.points[0], level) != _cell(part, ps.points[1], level)


def test_nesting_no_violation():
    ps = uniform_points(1000, 2, seed=7)
    params = PartitionParams.for_point_set(ps)
    part = sample_partition(ps, params, Seed(11))
    base = base_cell_coords(part, ps.points)
    coords = {l: coords_at_level(part, base, l) for l in range(params.levels + 1)}
    for low in range(params.levels + 1):
        for high in range(low, params.levels + 1):
            lo_keys = [tuple(r) for r in coords[low]]
            hi_keys = [tuple(r) for r in coords[high]]
            seen = {}
            for lk, hk in zip(lo_keys, hi_keys):
                if lk in seen:
                    assert seen[lk] == hk
                else:
                    seen[lk] = hk


def test_level_out_of_range():
    ps = uniform_points(10, 2, seed=1)
    params = PartitionParams.for_point_set(ps)
    part = sample_partition(ps, params, Seed(2))
    with pytest.raises(InputError):
        _cell(part, ps.points[0], params.levels + 1)
    with pytest.raises(InputError):
        level_diameter(params, -1)


def test_level_diameter_formula():
    params = PartitionParams(alpha_grid=2.0, levels=3, bbox_side=8.0,
                             gamma=1.0, b_cut=2.0)
    assert level_diameter(params, 3) == 8.0
    assert level_diameter(params, 1) == 2.0
    params = PartitionParams(alpha_grid=2.0, levels=3, bbox_side=5.0,
                             gamma=3.0, b_cut=2.0)
    assert level_diameter(params, 3) == 15.0
    assert level_diameter(params, 0) == 1.875


def test_alpha_grid_must_be_integral():
    with pytest.raises(InputError):
        PartitionParams(alpha_grid=2.5, levels=3, bbox_side=1.0, gamma=1.0, b_cut=2.0)
    with pytest.raises(InputError):
        PartitionParams(alpha_grid=1.0, levels=3, bbox_side=1.0, gamma=1.0, b_cut=2.0)


def _cell_diameters_ok(ps, part):
    params = part.params
    base = base_cell_coords(part, ps.points)
    for level in range(params.levels + 1):
        d_l = level_diameter(params, level)
        coords = coords_at_level(part, base, level)
        _, inv = np.unique(coords, axis=0, return_inverse=True)
        for g in range(inv.max() + 1):
            members = ps.points[inv == g]
            if len(members) < 2:
                continue
            gap = members[:, None, :] - members[None, :, :]
            if ps.metric is Metric.L1:
                diam = np.abs(gap).sum(axis=2).max()
            elif ps.metric is Metric.L2:
                diam = np.sqrt((gap * gap).sum(axis=2)).max()
            else:
                diam = np.abs(gap).max()
            if diam > d_l:
                return False
    return True


def test_bounded_diameter_brute_force():
    for metric in FLOAT_METRICS:
        ps = uniform_points(1000, 2, seed=13, metric=metric)
        params = PartitionParams.for_point_set(ps)
        part = sample_partition(ps, params, Seed(17))
        assert _cell_diameters_ok(ps, part)


def test_degree_bound():
    ps = uniform_points(800, 2, seed=23)
    params = PartitionParams.for_point_set(ps)
    part = sample_partition(ps, params, Seed(29))
    base = base_cell_coords(part, ps.points)
    cap = (params.alpha_grid + 1) ** ps.dim
    for level in range(params.levels):
        child = coords_at_level(part, base, level)
        parent = coords_at_level(part, base, level + 1)
        children_of = {}
        for c, p in zip(map(tuple, child), map(tuple, parent)):
            children_of.setdefault(p, set()).add(c)
        assert max(len(v) for v in children_of.values()) <= cap


def test_cut_probability_monte_carlo():
    # unit-square pairs at L2 distance 0.01, cut frequency over 1000 shifts
    rng = np.random.default_rng(31)
    n_pairs = 20
    a = rng.uniform(0, 0.9, (n_pairs, 2))
    ang = rng.uniform(0, 2 * math.pi, n_pairs)
    b = a + 0.01 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = np.vstack([a, b])
    ps = PointSet(points=pts, metric=Metric.L2)
    params = PartitionParams.for_point_set(ps)
    n_samples = 1000
    cuts = np.zeros((params.levels + 1, n_pairs))
    for s in range(n_samples):
        part = sample_partition(ps, params, Seed(1000 + s))
        base = base_cell_coords(part, pts)
        for level in range(params.levels + 1):
            coords = coords_at_level(part, base, level)
            cuts[level] += np.any(coords[:n_pairs] != coords[n_pairs:], axis=1)
    for level in range(params.levels + 1):
        d_l = level_diameter(params, level)
        bound = min(1.0, params.b_cut * 0.01 / d_l)
        sigma = math.sqrt(bound * (1 - bound) / n_samples)
        freq = cuts[level] / n_samples
        assert np.all(freq <= bound + 3 * sigma + 1e-12)


def test_degenerate_identical_points():
    ps = PointSet(points=np.zeros((5, 3)), metric=Metric.L2)
    params = PartitionParams.for_point_set(ps)
    # any box holds identical points: bbox_side is alpha^0, the level count the default
    assert params.levels == 3 and params.bbox_side == 1.0
    part = sample_partition(ps, params, Seed(0))
    assert _cell(part, ps.points[2], 0) == _cell(part, ps.points[4], 0)


def test_sample_partition_deterministic():
    ps = uniform_points(50, 3, seed=37)
    params = PartitionParams.for_point_set(ps)
    p1 = sample_partition(ps, params, Seed(41))
    p2 = sample_partition(ps, params, Seed(41))
    assert np.array_equal(p1.shift, p2.shift)


def test_sample_partition_rejects_wrong_profile():
    ps = uniform_points(20, 2, seed=38, metric=Metric.L1)
    l2_params = PartitionParams.for_point_set(
        uniform_points(20, 2, seed=38, metric=Metric.L2))
    with pytest.raises(InputError):
        sample_partition(ps, l2_params, Seed(1))
