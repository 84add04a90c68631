"""Ground-truth references used by the test suites.

Deliberately independent of the production paths: distances are
recomputed here from scratch, Prim and Kruskal are separate
implementations, and the clustering objective can be brute-forced by
enumerating every partition at tiny scale.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CapacityError, InputError, Metric, PointSet
from .mpc import SpanningTree

DENSE_CAP = 20_000
EXHAUSTIVE_N_CAP = 10
EXHAUSTIVE_K_CAP = 4


def _row_dists(pts: np.ndarray, q: np.ndarray, metric: Metric) -> np.ndarray:
    if metric is Metric.L0:
        return (pts != q).sum(axis=1).astype(np.float64)
    gap = pts - q
    if metric is Metric.L1:
        return np.abs(gap).sum(axis=1)
    if metric is Metric.L2:
        return np.sqrt((gap * gap).sum(axis=1))
    return np.abs(gap).max(axis=1)


def _dist(ps: PointSet, i: int, j: int) -> float:
    return float(_row_dists(ps.points[i: i + 1], ps.points[j], ps.metric)[0])


def exact_mst(ps: PointSet) -> SpanningTree:
    """Dense Prim over the implicit complete graph, O(n^2) time.

    Edge selection respects the total order (weight, min id, max id), so
    the result is the unique minimum spanning tree under that order.
    """
    n = ps.n
    if n > DENSE_CAP:
        raise CapacityError(f"dense Prim capped at {DENSE_CAP} points, got {n}")
    if n == 1:
        return SpanningTree(n_vertices=1, edges=())
    pts = ps.points
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_w = _row_dists(pts, pts[0], ps.metric)
    best_w[0] = np.inf
    best_anchor = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        wmin = best_w.min()
        ties = np.flatnonzero(best_w == wmin)
        pick = None
        for t in ties:
            a = int(best_anchor[t])
            key = (min(a, int(t)), max(a, int(t)))
            if pick is None or key < pick[0]:
                pick = (key, int(t))
        v = pick[1]
        a = int(best_anchor[v])
        edges.append((min(a, v), max(a, v), float(wmin)))
        in_tree[v] = True
        best_w[v] = np.inf
        wv = _row_dists(pts, pts[v], ps.metric)
        outside = ~in_tree
        closer = outside & (wv < best_w)
        best_w[closer] = wv[closer]
        best_anchor[closer] = v
        tie_rows = outside & (wv == best_w) & (best_anchor != v)
        for t in np.flatnonzero(tie_rows):
            a = int(best_anchor[t])
            old = (min(a, int(t)), max(a, int(t)))
            new = (min(v, int(t)), max(v, int(t)))
            if new < old:
                best_anchor[t] = v
    return SpanningTree(n_vertices=n, edges=tuple(edges))


class _DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_edges(n_vertices: int, edges) -> list:
    """Minimum spanning forest of an explicit edge list under (w, u, v) order."""
    ordered = sorted(
        ((float(w), min(int(u), int(v)), max(int(u), int(v))) for u, v, w in edges)
    )
    uf = _DisjointSets(n_vertices)
    out = []
    for w, u, v in ordered:
        if uf.union(u, v):
            out.append((u, v, w))
            if len(out) == n_vertices - 1:
                break
    return out


def kruskal_points_mst(ps: PointSet) -> SpanningTree:
    """Kruskal over all point pairs; the independent cross-check for Prim."""
    n = ps.n
    if n > 3000:
        raise CapacityError("all-pairs Kruskal capped at 3000 points")
    pairs = []
    for i in range(n - 1):
        w = _row_dists(ps.points[i + 1:], ps.points[i], ps.metric)
        pairs.extend((i, i + 1 + k, float(w[k])) for k in range(n - 1 - i))
    return SpanningTree(n_vertices=n, edges=tuple(kruskal_edges(n, pairs)))


def _partitions_into(items: list, k: int):
    """All set partitions of `items` into exactly k nonempty blocks."""
    if len(items) == k:
        yield [[x] for x in items]
        return
    if k == 1:
        yield [list(items)]
        return
    head, rest = items[0], items[1:]
    for part in _partitions_into(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
    for part in _partitions_into(rest, k - 1):
        yield [[head]] + part


def exhaustive_slc(ps: PointSet, k: int) -> float:
    """Maximum over all k-partitions of the minimum cross-cluster distance."""
    n = ps.n
    if n > EXHAUSTIVE_N_CAP or k > EXHAUSTIVE_K_CAP:
        raise CapacityError(
            f"exhaustive clustering capped at n <= {EXHAUSTIVE_N_CAP}, "
            f"k <= {EXHAUSTIVE_K_CAP}"
        )
    if not 1 <= k <= n:
        raise InputError(f"k must lie in [1, {n}]")
    if k == 1:
        return math.inf
    dmat = np.zeros((n, n))
    for i in range(n):
        dmat[i] = _row_dists(ps.points, ps.points[i], ps.metric)
    best = -math.inf
    for blocks in _partitions_into(list(range(n)), k):
        cut = math.inf
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                sub = dmat[np.ix_(blocks[a], blocks[b])]
                cut = min(cut, float(sub.min()))
        best = max(best, cut)
    return best


def brute_closest_cross_pair(comp_of: dict, ps: PointSet):
    """Exact closest pair of points `comp_of` ({point id: component label})
    places in different components, as (u, v, tau); None if <2 components."""
    reps = sorted(int(r) for r in comp_of)
    labels = [comp_of[r] for r in reps]
    if len(set(labels)) < 2:
        return None
    best = None
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            if labels[a] == labels[b]:
                continue
            w = _dist(ps, reps[a], reps[b])
            key = (w, reps[a], reps[b])
            if best is None or key < best:
                best = key
    return best[1], best[2], best[0]
