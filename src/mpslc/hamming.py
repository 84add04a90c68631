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

from .core import InputError, Metric, PointSet, spanning_forest
from .mpc import (
    EDGE,
    MpcConfig,
    SpanningTree,
    WeightedEdgeList,
    connected_components,
    distributed_sort,
    edge_array,
)

MAX_DIM = 20
# the mask-id table is refined this many ids at a time, and the links fold
# once this many new ones have come in
BLOCK = 1 << 20


def _validated_int_points(ps: PointSet) -> tuple[np.ndarray, list]:
    """Per column, the dense rank of every point's coordinate, as an n x d
    array, and the column's number of distinct values. The ranks come from
    the float values, so integers of any size keep their order."""
    if ps.metric is not Metric.L0:
        raise InputError("Hamming operations require an L0-tagged point set")
    if ps.dim > MAX_DIM:
        raise InputError(f"dimension capped at {MAX_DIM} (2^d edge groups)")
    pts = ps.points
    if not np.all(pts == np.round(pts)):
        raise InputError("Hamming inputs must have integer coordinates")
    ranks = np.empty(pts.shape, dtype=np.int64)
    sizes = []
    for j in range(ps.dim):
        values, ranks[:, j] = np.unique(pts[:, j], return_inverse=True)
        sizes.append(len(values))
    return ranks, sizes


def _fold(held: list, n: int, d: int) -> np.ndarray:
    """The lightest of the packed links (u n + v)(d + 1) + w per pair,
    ascending."""
    keys = np.sort(np.concatenate(held))
    pair = keys // (d + 1)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    return keys[first]


def build_auxiliary_graph(ps: PointSet, cfg: MpcConfig):
    """All mask-projected sort links, one distributed sort per mask in
    parallel: consecutive positions inside a run of equal projections, in
    ascending position order.

    The masks are sorted in d array passes. Row `mask` of an int32 table
    holds the dense id of every point's projection on `mask`; mask 0 is all
    zeros, and mask 2^j + m refines mask m by column j: its ids are the
    ranks of (id on m, rank in column j), one stable sort per row, whose
    equal neighbours are that mask's links. The links fold into the
    lightest one per pair once 2^20 new ones outnumber the folded ones.
    Memory is the table's 2^d n 4 bytes and O(2^20 + pairs) for the links,
    where the raw links would take 24 bytes each.

    Returns the links as a WeightedEdgeList (the lightest weight per pair)
    and the trace of the sorts, one phase with a key of popcount(mask)
    words per mask.
    """
    ranks, sizes = _validated_int_points(ps)
    n, d = ranks.shape
    popcount = np.zeros(1 << d, dtype=np.int64)
    for j in range(d):
        popcount[1 << j:2 << j] = popcount[:1 << j] + 1
    trace = distributed_sort(n, popcount, cfg)

    ids = np.zeros((1 << d, n), dtype=np.int32)
    pos = np.arange(n - 1, dtype=np.int64)
    # mask 0 gives every point one and the same key
    held, fresh, folded = [(pos * n + pos + 1) * (d + 1) + d], n - 1, 0
    per_block = max(1, BLOCK // n)
    for j in range(d):
        for a in range(0, 1 << j, per_block):
            b = min(1 << j, a + per_block)
            keys = ids[a:b].astype(np.int64) * sizes[j] + ranks[:, j]
            # keys below 2^16 take numpy's radix sort
            keys = keys.astype(np.min_scalar_type(n * sizes[j] - 1))
            order = np.argsort(keys, axis=1, kind="stable")
            ordered = np.take_along_axis(keys, order, axis=1)
            new = ordered[:, 1:] != ordered[:, :-1]
            dense = np.zeros(keys.shape, dtype=np.int32)
            np.cumsum(new, axis=1, out=dense[:, 1:])
            np.put_along_axis(ids[(1 << j) + a:(1 << j) + b], order, dense, axis=1)
            row, at = np.nonzero(~new)
            w = d - popcount[(1 << j) + a + row]
            held.append((order[row, at] * n + order[row, at + 1]) * (d + 1) + w)
            fresh += len(row)
            if fresh > max(BLOCK, folded):
                held = [_fold(held, n, d)]
                fresh, folded = 0, len(held[0])
    keys = _fold(held, n, d)
    pair, w = np.divmod(keys, d + 1)
    u, v = np.divmod(pair, n)
    return WeightedEdgeList(n_vertices=n, edges=edge_array(u, v, w.astype(np.float64))), trace


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

