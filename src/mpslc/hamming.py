"""Exact Hamming MST and clustering for small dimension.

For every subset of coordinates (a d-bit mask), sorting by the projected
coordinates links consecutive equal projections with an edge whose weight
is the number of unselected coordinates. The resulting auxiliary graph has
at most 2^d * n edges and preserves, for every threshold t, the connected
components of the Hamming-distance-<=t graph; augmenting a spanning forest
by increasing weight class therefore reproduces an exact Hamming MST.
Duplicate points link at weight zero through the all-ones mask.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import InputError, Metric, PointSet, spanning_forest
from .mpc import (
    MpcConfig,
    SpanningTree,
    WeightedEdgeList,
    connected_components,
    distributed_sort,
    merge_parallel,
)
from .slc import Clustering, k_slc_from_mst

MAX_DIM = 20


def _validated_int_points(ps: PointSet) -> np.ndarray:
    if ps.metric is not Metric.L0:
        raise InputError("Hamming operations require an L0-tagged point set")
    if ps.dim > MAX_DIM:
        raise InputError(f"dimension capped at {MAX_DIM} (2^d edge groups)")
    pts = ps.points
    if not np.all(pts == np.round(pts)):
        raise InputError("Hamming inputs must have integer coordinates")
    return pts.astype(np.int64)


def build_auxiliary_graph(ps: PointSet, cfg: MpcConfig):
    """All mask-projected sort links, one distributed sort per mask in parallel.

    Returns the links as a WeightedEdgeList (the lightest weight per pair)
    and the merged trace of the sorts.
    """
    pts = _validated_int_points(ps)
    n, d = pts.shape
    raw = []
    traces = []
    for mask in range(1 << d):
        cols = [j for j in range(d) if (mask >> j) & 1]
        weight = d - len(cols)
        items = list(zip(map(tuple, pts[:, cols].tolist()), range(n)))
        ordered, tr = distributed_sort(items, cfg)
        traces.append(tr)
        for a, b in zip(ordered, ordered[1:]):
            if a[0] == b[0]:
                raw.append((a[1], b[1], weight))
    return WeightedEdgeList.build(n, raw), merge_parallel(traces)


def hamming_mst(ps: PointSet, cfg: MpcConfig):
    """Exact Hamming MST: mask sorts, then weight classes 0..d augment the
    forest, each class contracted through a distributed connectivity pass."""
    pts = _validated_int_points(ps)
    n, d = pts.shape
    aux, trace = build_auxiliary_graph(ps, cfg)
    # build orders the edges by (u, v), and every class keeps that order
    cols = np.asarray(aux.edges, dtype=np.float64).reshape(-1, 3)
    eu, ev, ew = cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64), cols[:, 2]
    labels = np.arange(n, dtype=np.int64)
    tree = []
    for t in range(0, d + 1):
        cls = np.flatnonzero(ew == t)
        live = cls[labels[eu[cls]] != labels[ev[cls]]]
        if not len(live):
            continue
        uniq = np.unique(labels)
        cu = np.searchsorted(uniq, labels[eu[live]])
        cv = np.searchsorted(uniq, labels[ev[live]])
        taken, _labels, _phases = spanning_forest(cu, cv, len(uniq))
        tree += zip(eu[live[taken]].tolist(), ev[live[taken]].tolist(),
                    itertools.repeat(float(t)))
        contracted = WeightedEdgeList.build(
            len(uniq), zip(cu.tolist(), cv.tolist(), itertools.repeat(0.0)))
        cc_labels, tr = connected_components(contracted, cfg)
        trace.add_trace(tr)
        labels = uniq[cc_labels[np.searchsorted(uniq, labels)]]
    return SpanningTree(n_vertices=n, edges=tuple(tree)), trace


def hamming_mst_2d(ps: PointSet, cfg: MpcConfig):
    """Fast path for d = 2: the optimum weight is n + c - 2 where c counts
    components of the share-a-coordinate subgraph over distinct points.

    Returns (mst_weight, component_count); duplicates cost zero and drop out.
    """
    pts = _validated_int_points(ps)
    if pts.shape[1] != 2:
        raise InputError("the 2-d fast path requires exactly two coordinates")
    uniq = np.unique(pts, axis=0)
    n = len(uniq)
    if n == 1:
        return 0, 1
    links = []
    for axes in ((0, 1), (1, 0)):
        items = list(zip(map(tuple, uniq[:, axes].tolist()), range(n)))
        ordered, _tr = distributed_sort(items, cfg)
        for a, b in zip(ordered, ordered[1:]):
            if a[0][0] == b[0][0]:
                links.append((a[1], b[1], 0.0))
    graph = WeightedEdgeList.build(n, links)
    cc_labels, _tr = connected_components(graph, cfg)
    c = len(np.unique(cc_labels))
    return n + c - 2, c


def hamming_k_slc(ps: PointSet, k: int, cfg: MpcConfig) -> Clustering:
    """Exact k-clustering from the exact Hamming MST."""
    tree, _trace = hamming_mst(ps, cfg)
    return k_slc_from_mst(tree, k, ps)
