"""Exact references and output checks for the benchmark, in numpy alone.

Nothing here imports mpslc, so a fault in the program cannot leak into
the reference it is checked against. Every check returns a list of
problems; an empty list means the output passed.

The reference MST is dense Prim over the implicit complete graph. By the
cut property the lightest edge leaving the grown tree is in some minimum
spanning tree, so Prim's n - 1 weights are the exact sorted MST weights
whatever the tie order. It costs O(n^2 d) time and O(n d) memory.
"""

from __future__ import annotations

import numpy as np

# Float distances computed in a different order can differ in the last bits.
REL_TOL = 1e-9


def row_distances(points: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    """Distances from every row of `points` to the point `q`, or to the
    matching row of `q` when it has as many rows."""
    gap = points - q
    if metric == "l0":
        return np.count_nonzero(gap, axis=1).astype(np.float64)
    if metric == "l1":
        return np.abs(gap).sum(axis=1)
    if metric == "l2":
        return np.sqrt((gap * gap).sum(axis=1))
    if metric == "linf":
        return np.abs(gap).max(axis=1)
    raise ValueError(f"unknown metric {metric!r}")


def mst_weights(points: np.ndarray, metric: str) -> np.ndarray:
    """Sorted exact MST weights by dense Prim."""
    n = len(points)
    if n == 1:
        return np.empty(0)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = row_distances(points, points[0], metric)
    best[0] = np.inf
    weights = np.empty(n - 1)
    for k in range(n - 1):
        v = int(np.argmin(best))
        weights[k] = best[v]
        in_tree[v] = True
        best[v] = np.inf
        np.minimum(best, np.where(in_tree, np.inf, row_distances(points, points[v], metric)),
                   out=best)
    return np.sort(weights)


def _close(a: np.ndarray, b: np.ndarray, exact: bool) -> np.ndarray:
    if exact:
        return a == b
    return np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b))


def check_tree(points: np.ndarray, metric: str, edges) -> list:
    """The tree spans all n points with n - 1 edges, and every edge weight
    is the metric distance between its endpoints."""
    n = len(points)
    problems = []
    if len(edges) != n - 1:
        problems.append(f"tree has {len(edges)} edges for {n} points")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for u, v, _w in edges:
        if not (0 <= u < n and 0 <= v < n):
            problems.append(f"edge ({u},{v}) has an endpoint outside [0, {n})")
            return problems
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
            joined += 1
    if joined != n - 1:
        problems.append(f"tree leaves {n - joined} components")
    if edges:
        u = np.asarray([e[0] for e in edges], dtype=np.int64)
        v = np.asarray([e[1] for e in edges], dtype=np.int64)
        w = np.asarray([e[2] for e in edges], dtype=np.float64)
        bad = np.flatnonzero(~_close(w, row_distances(points[u], points[v], metric),
                                     exact=metric == "l0"))
        if len(bad):
            k = int(bad[0])
            problems.append(f"{len(bad)} edge weights differ from the metric distance, "
                            f"first ({u[k]},{v[k]}) weight {w[k]!r}")
    return problems


def check_weights(approx: np.ndarray, reference: np.ndarray,
                  upper: float | None, exact: bool) -> list:
    """Sorted weights against the exact tree: reference_i <= approx_i at every
    index, approx_i <= upper * reference_i where `upper` is given, and
    equality everywhere when `exact`."""
    if len(approx) != len(reference):
        return [f"{len(approx)} tree weights against {len(reference)} reference weights"]
    problems = []
    slack = 0.0 if exact else REL_TOL
    low = np.flatnonzero(approx < reference * (1 - slack))
    if len(low):
        k = int(low[0])
        problems.append(f"{len(low)} sorted weights below the exact tree, "
                        f"first index {k}: {approx[k]!r} < {reference[k]!r}")
    if upper is not None:
        high = np.flatnonzero(approx > upper * reference * (1 + slack))
        if len(high):
            k = int(high[0])
            problems.append(f"{len(high)} sorted weights above {upper} x exact, "
                            f"first index {k}: {approx[k]!r} vs {reference[k]!r}")
    if exact:
        diff = np.flatnonzero(approx != reference)
        if len(diff):
            k = int(diff[0])
            problems.append(f"{len(diff)} sorted weights differ from the exact tree, "
                            f"first index {k}: {approx[k]!r} != {reference[k]!r}")
    return problems


def max_ratio(approx: np.ndarray, reference: np.ndarray) -> float:
    """Largest approx_i / reference_i; a zero pair counts as 1."""
    ratio = np.ones(len(approx))
    pos = reference > 0
    ratio[pos] = approx[pos] / reference[pos]
    ratio[~pos & (approx > 0)] = np.inf
    return float(ratio.max(initial=1.0))


def check_clustering(labels: np.ndarray, k: int, n: int) -> list:
    """A k-clustering labels all n points with exactly k clusters."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"{k}-clustering labels {labels.shape[0] if labels.ndim else 0} of {n} points"]
    found = len(np.unique(labels))
    return [] if found == k else [f"{k}-clustering has {found} clusters"]


def check_budget(peak_words: int, space_s: int) -> list:
    return [] if peak_words <= space_s else [f"peak {peak_words} words exceeds s = {space_s}"]


def split_is_forced(points: np.ndarray, half: int, eta: float,
                    weights: np.ndarray) -> bool:
    """Whether a tree with these sorted weights must split a two-cycles
    instance (vertices 0..half-1 and half..n-1 each a cycle in id order)
    into its two cycles at k = 2.

    Every pair across the cycles is at least the smallest cross distance
    apart, and the tree has at least one such edge. So when the tree's
    second-largest weight lies below that distance, the largest edge is
    its only cross edge. A tree within (1+eta) of the exact one has that
    property whenever (1+eta) times the largest distance between cycle
    neighbours lies below it. Both are found by brute force.
    """
    ids = np.arange(len(points))
    nxt = np.where(ids % half == half - 1, ids - (half - 1), ids + 1)
    adjacent = row_distances(points[ids], points[nxt], "l2").max()
    cross = min(row_distances(points[half:], points[i], "l2").min() for i in range(half))
    return bool((1 + eta) * adjacent < cross or weights[-2] < cross)


def check_two_cycles_split(labels: np.ndarray, half: int) -> list:
    """The 2-clustering puts each cycle in its own cluster."""
    labels = np.asarray(labels)
    first, second = labels[:half], labels[half:]
    if (len(np.unique(first)) == 1 and len(np.unique(second)) == 1
            and first[0] != second[0]):
        return []
    return ["2-clustering does not separate the two cycles"]
