import numpy as np

from mpslc.core import InputError, Metric, PointSet, SparsePoint
from mpslc.hardness import GraphInstance, GraphKind
from mpslc.mpc import RoundStats, distributed_sort

FLOAT_METRICS = (Metric.L1, Metric.L2, Metric.LINF)


def uniform_points(n, d, seed, metric=Metric.L2, lo=0.0, hi=1.0):
    pts = np.random.default_rng(seed).uniform(lo, hi, (n, d))
    return PointSet(points=pts, metric=metric)


def integer_points(n, d, seed, alphabet=3):
    pts = np.random.default_rng(seed).integers(0, alphabet, (n, d))
    return PointSet(points=pts.astype(float), metric=Metric.L0)


def sparse_distance(u: SparsePoint, v: SparsePoint, metric: Metric) -> float:
    """Distance between sparse vectors; equals `distance` on densified inputs.

    Coordinates missing from both vectors are implicit zeros and contribute
    nothing under any of the four metrics.
    """
    if u.dim != v.dim:
        raise InputError(f"dimension mismatch: {u.dim} vs {v.dim}")
    diffs = []
    i = j = 0
    eu, ev = u.entries, v.entries
    while i < len(eu) or j < len(ev):
        if j >= len(ev) or (i < len(eu) and eu[i][0] < ev[j][0]):
            diffs.append(eu[i][1])
            i += 1
        elif i >= len(eu) or ev[j][0] < eu[i][0]:
            diffs.append(-ev[j][1])
            j += 1
        else:
            diffs.append(eu[i][1] - ev[j][1])
            i += 1
            j += 1
    if not diffs:
        return 0.0
    arr = np.abs(np.asarray(diffs, dtype=np.float64))
    if metric is Metric.L0:
        return float(np.count_nonzero(arr))
    if metric is Metric.L1:
        return float(np.sum(arr))
    if metric is Metric.L2:
        return float(np.sqrt(np.sum(arr * arr)))
    return float(np.max(arr))


def graph_from_edges(n: int, edges) -> GraphInstance:
    """A graph of kind ARBITRARY on n vertices; the edges are validated."""
    return GraphInstance(n_vertices=n, edges=tuple(edges), kind=GraphKind.ARBITRARY)


def total_weight(tree) -> float:
    """Sum of a spanning tree's edge weights, taken in its (w, u, v) order."""
    return float(sum(w for _, _, w in tree.edges))


def overlay_sorts(n_items, key_words, cfg) -> list:
    """The rounds of one scalar `distributed_sort` per key length, run
    side by side: per round, machines, messages and input words add up
    and the peak is the largest."""
    traces = [distributed_sort(n_items, k, cfg).per_round for k in key_words]
    return [RoundStats(machines_used=sum(r.machines_used for r in rows),
                       max_words_on_any_machine=max(r.max_words_on_any_machine for r in rows),
                       total_messages_words=sum(r.total_messages_words for r in rows),
                       input_words=sum(r.input_words for r in rows), kind="sort")
            for rows in zip(*traces)]
