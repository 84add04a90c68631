"""Exact Hamming MST for small dimension; clusterings come from its tree
through `slc.k_slc_from_mst`.

For every subset of coordinates (a d-bit mask), sorting by the projected
coordinates links consecutive equal projections with an edge whose weight
is the number of unselected coordinates. The resulting auxiliary graph has
at most 2^d * n edges and preserves, for every threshold t, the connected
components of the Hamming-distance-<=t graph; augmenting a spanning forest
by increasing weight class therefore reproduces an exact Hamming MST.
Duplicate points link at weight zero through the all-ones mask.
"""

from __future__ import annotations

import numpy as np

from .core import InputError, Metric, PointSet, row_runs, spanning_forest
from .mpc import (
    EDGE,
    MpcConfig,
    SpanningTree,
    WeightedEdgeList,
    connected_components,
    distributed_sort,
    edge_array,
    merge_parallel,
)

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
    """All mask-projected sort links, one distributed sort per mask in
    parallel: consecutive positions inside a run of equal projections, in
    the runs' stable order.

    Returns the links as a WeightedEdgeList (the lightest weight per pair)
    and the merged trace of the sorts.
    """
    pts = _validated_int_points(ps)
    n, d = pts.shape
    links = []
    traces = []
    for mask in range(1 << d):
        cols = [j for j in range(d) if (mask >> j) & 1]
        traces.append(distributed_sort(n, len(cols), cfg))
        # the empty mask gives every point one and the same key
        order, starts = row_runs(pts[:, cols] if cols else np.zeros((n, 1), np.int64))
        inside = ~starts[1:]
        links.append(edge_array(order[:-1][inside], order[1:][inside], float(d - len(cols))))
    return WeightedEdgeList.build(n, np.concatenate(links)), merge_parallel(traces)


def hamming_mst(ps: PointSet, cfg: MpcConfig):
    """Exact Hamming MST: mask sorts, then weight classes 0..d augment the
    forest, each class contracted through a distributed connectivity pass."""
    aux, trace = build_auxiliary_graph(ps, cfg)
    n, d = ps.n, ps.dim
    # the edges ascend by (u, v), and every class keeps that order
    eu, ev, ew = aux.edges["u"], aux.edges["v"], aux.edges["w"]
    labels = np.arange(n, dtype=np.int64)
    tree = [np.empty(0, dtype=EDGE)]
    for t in range(0, d + 1):
        cls = np.flatnonzero(ew == t)
        live = cls[labels[eu[cls]] != labels[ev[cls]]]
        if not len(live):
            continue
        uniq, inv = np.unique(labels, return_inverse=True)
        cu, cv = inv[eu[live]], inv[ev[live]]
        taken, _labels, _phases = spanning_forest(cu, cv, len(uniq))
        tree.append(edge_array(eu[live[taken]], ev[live[taken]], float(t)))
        contracted = WeightedEdgeList.build(len(uniq), edge_array(cu, cv, 0.0))
        cc_labels, tr = connected_components(contracted, cfg)
        trace.add_trace(tr)
        labels = uniq[cc_labels[inv]]
    return SpanningTree(n_vertices=n, edges=np.concatenate(tree)), trace


def hamming_mst_2d(ps: PointSet, cfg: MpcConfig):
    """Fast path for d = 2: the optimum weight is n + c - 2 where c counts
    components of the share-a-coordinate subgraph over distinct points,
    that is of their auxiliary links of weight at most 1.

    Returns (mst_weight, component_count); duplicates cost zero and drop out.
    """
    pts = _validated_int_points(ps)
    if pts.shape[1] != 2:
        raise InputError("the 2-d fast path requires exactly two coordinates")
    uniq = np.unique(pts, axis=0)
    n = len(uniq)
    aux, _trace = build_auxiliary_graph(PointSet(points=uniq, metric=Metric.L0), cfg)
    near = WeightedEdgeList(n_vertices=n, edges=aux.edges[aux.edges["w"] <= 1])
    cc_labels, _tr = connected_components(near, cfg)
    c = len(np.unique(cc_labels))
    return n + c - 2, c
