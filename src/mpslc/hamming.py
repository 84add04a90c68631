"""Exact Hamming MST for small dimension; clusterings come from its tree
through `slc.k_slc_from_mst`.

For every subset of coordinates (a d-bit mask), sorting by the projected
coordinates links consecutive equal projections with an edge whose weight
is the number of unselected coordinates. The resulting auxiliary graph has
at most 2^d * n edges and preserves, for every threshold t, the connected
components of the Hamming-distance-<=t graph; augmenting a spanning forest
by increasing weight class therefore reproduces an exact Hamming MST.
Duplicate points link at weight zero through the all-ones mask.

The graph is never built whole. The sorts leave every point's projection
id under every mask in one 2^d x n table of the narrowest unsigned type
that holds n - 1, and weight class t reads its links from the rows of
popcount d - t only when it runs; the classes past the one at which the
forest spans read nothing.
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
# the mask-id table is sorted and read this many ids at a time, and a
# class's links fold once this many new ones have come in
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


def _fold(held: list) -> np.ndarray:
    """The distinct packed links of `held`, ascending."""
    return np.unique(np.concatenate(held))


def _mask_ids(ranks: np.ndarray, sizes: list) -> np.ndarray:
    """The mask-id table: row `mask` holds the dense id of every point's
    projection on `mask`, in the narrowest unsigned type that holds n - 1.

    Mask 0 is all zeros, and mask 2^j + m refines mask m by column j: its
    ids are the ranks of (id on m, rank in column j), one stable sort per
    row, at most BLOCK // n rows at a time. The keys take the narrowest
    type that holds them, so keys below 2^16 take numpy's radix sort.
    """
    n, d = ranks.shape
    ids = np.zeros((1 << d, n), dtype=np.min_scalar_type(n - 1))
    table = ids.reshape(-1)
    per_block = max(1, BLOCK // n)
    for j in range(d):
        key_type = np.min_scalar_type(n * sizes[j] - 1)
        column = ranks[:, j].astype(key_type)
        for a in range(0, 1 << j, per_block):
            b = min(1 << j, a + per_block)
            keys = ids[a:b].astype(key_type)
            keys *= sizes[j]
            keys += column
            order = np.argsort(keys, axis=1, kind="stable")
            # positions in the flattened block, row by row
            order += np.arange(0, (b - a) * n, n)[:, None]
            ordered = keys.reshape(-1)[order]
            dense = np.zeros(keys.shape, dtype=ids.dtype)
            np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
            table[order + ((1 << j) + a) * n] = dense
    return ids


def _class_links(ids: np.ndarray, masks: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The links of the given rows of the mask-id table whose two ends
    `labels` separates, packed as u n + v, each pair once, ascending.

    A row's links are its equal neighbours in a stable sort of its ids,
    so u < v; on 8- and 16-bit ids that sort is numpy's radix sort. The
    rows are read at most BLOCK // n at a time, and the links fold into
    distinct pairs once BLOCK new ones outnumber the folded ones.
    """
    n = ids.shape[1]
    per_block = max(1, BLOCK // n)
    held, fresh, folded = [], 0, 0
    for a in range(0, len(masks), per_block):
        rows = ids[masks[a:a + per_block]]
        order = np.argsort(rows, axis=1, kind="stable")
        ordered = rows.reshape(-1)[order + np.arange(0, rows.size, n)[:, None]]
        row, at = np.nonzero(ordered[:, 1:] == ordered[:, :-1])
        u, v = order[row, at], order[row, at + 1]
        live = labels[u] != labels[v]
        held.append(u[live] * n + v[live])
        fresh += len(held[-1])
        if fresh > max(BLOCK, folded):
            held = [_fold(held)]
            fresh, folded = 0, len(held[0])
    return _fold(held)


def hamming_mst(ps: PointSet, cfg: MpcConfig):
    """Exact Hamming MST: the mask sorts, then weight classes t = 0, 1, ...
    augment the forest until it spans, each class contracted through a
    distributed connectivity pass.

    The sorts fill the mask-id table, 2^d n ids of the narrowest type that
    holds n - 1, and emit no link. Class t reads its links when it runs,
    from the masks of popcount d - t: a pair whose lightest link is
    lighter was joined by that lighter class, so the pairs the labels
    still separate are the class's edges. The classes past the spanning
    one read nothing.

    Returns the tree and the trace: one sort phase with a key of
    popcount(mask) words per mask, then each class's connectivity.
    """
    ranks, sizes = _validated_int_points(ps)
    n, d = ranks.shape
    popcount = np.zeros(1 << d, dtype=np.int64)
    for j in range(d):
        popcount[1 << j:2 << j] = popcount[:1 << j] + 1
    trace = distributed_sort(n, popcount, cfg)
    ids = _mask_ids(ranks, sizes)
    labels = np.arange(n, dtype=np.int64)
    tree = [np.empty(0, dtype=EDGE)]
    # labels are minimum member ids, so the forest spans once all are 0
    for t in range(0, d + 1):
        if not labels.any():
            break
        pairs = _class_links(ids, np.flatnonzero(popcount == d - t), labels)
        if not len(pairs):
            continue
        eu, ev = np.divmod(pairs, n)
        uniq, inv = np.unique(labels, return_inverse=True)
        cu, cv = inv[eu], inv[ev]
        taken, _labels, _phases = spanning_forest(cu, cv, len(uniq))
        tree.append(edge_array(eu[taken], ev[taken], float(t)))
        contracted = WeightedEdgeList.build(len(uniq), edge_array(cu, cv, 0.0))
        cc_labels, tr = connected_components(contracted, cfg)
        trace.add_trace(tr)
        labels = uniq[cc_labels[inv]]
    return SpanningTree(n_vertices=n, edges=np.concatenate(tree)), trace
