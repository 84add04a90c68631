"""Exact Hamming MST for small dimension; clusterings come from its tree
through `slc.k_slc_from_mst`.

For every subset of coordinates (a d-bit mask), sorting by the projected
coordinates links consecutive equal projections with an edge whose weight
is the number of unselected coordinates. The resulting auxiliary graph has
at most 2^d * n edges and preserves, for every threshold t, the connected
components of the Hamming-distance-<=t graph; augmenting a spanning forest
by increasing weight class therefore reproduces an exact Hamming MST.
Duplicate points link at weight zero through the all-ones mask.

The graph is never built whole. The trace accounts all 2^d mask sorts in
one phase, as the MPC algorithm runs them; the simulation keys and sorts
a mask from the column ranks only when its weight class runs, and the
classes past the one at which the forest spans sort nothing. Memory is
O(BLOCK + n d) beside the 2^d popcount table.
"""

from __future__ import annotations

import heapq
import math

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
# a class keys and sorts its masks this many keys at a time, and its
# links fold once this many new ones have come in
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
    """The distinct packed links of `held`, ascending, by a sort and a
    neighbour compare (numpy's plain `unique` hashes, far slower here)."""
    links = np.sort(np.concatenate(held))
    return links[np.diff(links, prepend=-1) != 0]


def _class_links(ranks: np.ndarray, sizes: list, masks: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    """The links of the given masks whose two ends `labels` separates,
    packed as u n + v, each pair once, ascending.

    The masks are keyed at most BLOCK // n at a time. A mask's key packs
    the ranks of its columns by mixed radix, one product of place values
    and ranks; shifted left by the bits of n - 1, with the position in the
    low bits, one plain sort per mask puts equal projections side by side
    in position order, so the links are the equal neighbours and u < v.
    One rule covers huge alphabets: if the block's widest key, the product
    of its popcount largest column sizes, does not fit in the bits left,
    the columns are packed in runs, each as long as n times its widest key
    stays within 2^63 and led by the dense id of the runs before it, and
    the last dense id is the key. The links fold into distinct pairs once
    BLOCK new ones outnumber the folded ones.
    """
    n, d = ranks.shape
    shift = (n - 1).bit_length()
    per_block = max(1, BLOCK // n)
    held, fresh, folded = [], 0, 0
    for a in range(0, len(masks), per_block):
        bits = masks[a:a + per_block, None] >> np.arange(d) & 1
        popcount = int(bits.sum(axis=1).max())
        wide, cuts = math.prod(heapq.nlargest(popcount, sizes)) << shift > 1 << 63, [0]
        for j in range(1, d if wide else 0):
            if n * math.prod(heapq.nlargest(popcount, sizes[cuts[-1]:j + 1])) > 1 << 63:
                cuts.append(j)
        radix = np.where(bits, sizes, 1)
        keys = 0
        for lo, hi in zip(cuts, cuts[1:] + [d]):
            place = np.cumprod(radix[:, lo:hi], axis=1)
            digits = place // radix[:, lo:hi] * bits[:, lo:hi]
            keys = keys * place[:, -1:] + digits @ ranks[:, lo:hi].T
            if wide:
                order = np.argsort(keys, axis=1)
                ordered = np.take_along_axis(keys, order, axis=1)
                dense = np.zeros_like(keys)
                np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
                np.put_along_axis(keys, order, dense, axis=1)
        keys = keys << shift | np.arange(n)
        keys.sort(axis=1)
        same = (keys[:, 1:] ^ keys[:, :-1]) < 1 << shift
        u, v = keys[:, :-1][same] & (1 << shift) - 1, keys[:, 1:][same] & (1 << shift) - 1
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

    The trace accounts every mask sort before any class runs, but class t
    keys and sorts the masks of popcount d - t only when it runs: a pair
    whose lightest link is lighter was joined by that lighter class, so
    the pairs the labels still separate are the class's edges. The
    classes past the spanning one sort nothing.

    Returns the tree and the trace: one sort phase with a key of
    popcount(mask) words per mask, then each class's connectivity.
    """
    ranks, sizes = _validated_int_points(ps)
    n, d = ranks.shape
    popcount = np.zeros(1 << d, dtype=np.int64)
    for j in range(d):
        popcount[1 << j:2 << j] = popcount[:1 << j] + 1
    trace = distributed_sort(n, popcount, cfg)
    labels = np.arange(n, dtype=np.int64)
    tree = [np.empty(0, dtype=EDGE)]
    # labels are minimum member ids, so the forest spans once all are 0
    for t in range(0, d + 1):
        if not labels.any():
            break
        pairs = _class_links(ranks, sizes, np.flatnonzero(popcount == d - t), labels)
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
