"""Per-cell merging of components via closest cross pairs up to a threshold.

The merge loop repeatedly takes the closest pair of points lying in two
different components, emits it as a tree edge while its distance stays
under eps * level_diam, and merges the two components. The emitted edge
sequence therefore equals Kruskal's restricted to cross-component pairs
not longer than the threshold, in nondecreasing (weight, min id, max id)
order. A cell whose merging is finished is summarized by an
eps^2 * level_diam covering of its points plus the induced component
labels on the covering.

Closest pairs are found exactly: from all pair distances, computed in
row blocks of bounded memory, up to BRUTE_CAP points or above
GRID_MAX_DIM dimensions, and by bucket-grid accelerated Boruvka phases
otherwise. Exact pairs trivially satisfy the (1+eps)-approximate
contract the caller relies on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    Metric,
    PointSet,
    UnionFind,
    UnsupportedMetricError,
    distance_matrix,
    pair_distances,
)

BRUTE_CAP = 256
GRID_MAX_DIM = 6
# float64 values in one (rows x m x d) block of the brute engine: 16 MB
_BLOCK_VALUES = 1 << 21


def _covering_step(radius: float, dim: int, metric: Metric) -> float:
    """Grid pitch whose cells have metric diameter at most `radius`."""
    if metric is Metric.L1:
        return radius / dim
    if metric is Metric.L2:
        return radius / math.sqrt(dim)
    if metric is Metric.LINF:
        return radius
    raise UnsupportedMetricError("coverings are defined for L1, L2 and LINF only")


def _covering(rep_ids: np.ndarray, radius: float, ps: PointSet) -> list:
    """Covering of ascending reps: the lowest id per key. The key is the
    floored grid coordinates at a pitch whose cells have diameter at most
    `radius`, or the exact coordinates when the radius is 0."""
    if radius > 0:
        step = _covering_step(radius, ps.dim, ps.metric)
        if math.isinf(step):
            return [int(rep_ids[0])]
        keys = np.floor(ps.points[rep_ids] / step).astype(np.int64)
    else:
        keys = ps.points[rep_ids]
    seen = {}
    for i, key in zip(rep_ids, keys):
        seen.setdefault(key.tobytes(), int(i))
    return sorted(seen.values())


def _msf_brute(pts, labels, threshold, metric):
    """Exact merge sequence from the full pair list, whose distances are
    computed in row blocks of at most _BLOCK_VALUES coordinate differences."""
    m, d = pts.shape
    pair_u, pair_v, w = [], [], []
    chunk = max(1, min(m, _BLOCK_VALUES // (m * d)))
    for row0 in range(0, m, chunk):
        row1 = min(m, row0 + chunk)
        block = distance_matrix(pts[row0:row1], pts, metric)
        bu = np.repeat(np.arange(row0, row1), m)
        bv = np.tile(np.arange(m), row1 - row0)
        bw = block.ravel()
        keep = bu < bv
        bu, bv, bw = bu[keep], bv[keep], bw[keep]
        if math.isfinite(threshold):
            ok = bw <= threshold
            bu, bv, bw = bu[ok], bv[ok], bw[ok]
        pair_u.append(bu)
        pair_v.append(bv)
        w.append(bw)
    pair_u = np.concatenate(pair_u) if pair_u else np.empty(0, dtype=np.int64)
    pair_v = np.concatenate(pair_v) if pair_v else np.empty(0, dtype=np.int64)
    w = np.concatenate(w) if w else np.empty(0)
    order = np.lexsort((pair_v, pair_u, w))
    uf = UnionFind()
    edges = []
    want = len(np.unique(labels)) - 1
    for k in order:
        if uf.union(int(labels[pair_u[k]]), int(labels[pair_v[k]])):
            edges.append((float(w[k]), int(pair_u[k]), int(pair_v[k])))
            if len(edges) == want:
                break
    return edges, uf.relabel(labels)


def _pack_keys(cells: np.ndarray, mult: int, pad: int) -> np.ndarray:
    keys = np.zeros(len(cells), dtype=np.int64)
    for j in range(cells.shape[1]):
        keys = keys * mult + (cells[:, j] + pad)
    return keys


def _shell_offsets(r: int, dim: int) -> np.ndarray:
    """Integer offsets at Chebyshev distance exactly r."""
    offs = [o for o in itertools.product(range(-r, r + 1), repeat=dim)
            if max(abs(c) for c in o) == r]
    return np.asarray(offs, dtype=np.int64)


class _GridIndex:
    """Static bucket grid over a cell's points for exact cross-pair search."""

    def __init__(self, pts: np.ndarray, metric: Metric):
        self.pts = pts
        self.metric = metric
        m, d = pts.shape
        lo = pts.min(axis=0)
        self.extent = float((pts.max(axis=0) - lo).max())
        self.pitch = self.extent / max(1.0, math.floor(m ** (1.0 / d)))
        cells = np.floor((pts - lo) / self.pitch).astype(np.int64)
        self.cells = cells
        self.maxc = int(cells.max()) + 1
        self.r_cap = self.maxc + 2
        self.pad = self.r_cap + 2
        self.mult = self.maxc + 2 * self.pad
        keys = _pack_keys(cells, self.mult, self.pad)
        self.bucket_keys, inv = np.unique(keys, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        self.members = order
        counts = np.bincount(inv, minlength=len(self.bucket_keys))
        self.starts = np.concatenate(([0], np.cumsum(counts)))
        self.counts = counts
        self._shells = {}

    def lookup(self, probe_keys: np.ndarray) -> np.ndarray:
        """Bucket ids for packed keys, -1 where the bucket is empty."""
        pos = np.searchsorted(self.bucket_keys, probe_keys)
        pos = np.clip(pos, 0, len(self.bucket_keys) - 1)
        hit = self.bucket_keys[pos] == probe_keys
        return np.where(hit, pos, -1)

    def shell(self, r: int) -> np.ndarray:
        if r not in self._shells:
            self._shells[r] = _shell_offsets(r, self.pts.shape[1])
        return self._shells[r]

    def bucket_points(self, b: int) -> np.ndarray:
        return self.members[self.starts[b]: self.starts[b + 1]]

    def neighborhood_pairs(self, threshold: float):
        """All directed point pairs within the 3^d bucket neighborhood,
        sorted by (weight, min id, max id) and trimmed to the threshold."""
        d = self.pts.shape[1]
        b_list, nb_list = [], []
        uniq_cells = self._unique_cells()
        for off in itertools.product((-1, 0, 1), repeat=d):
            shifted = _pack_keys(uniq_cells + np.asarray(off, dtype=np.int64),
                                 self.mult, self.pad)
            nb = self.lookup(shifted)
            ok = nb >= 0
            b_list.append(np.flatnonzero(ok))
            nb_list.append(nb[ok])
        b_arr = np.concatenate(b_list)
        nb_arr = np.concatenate(nb_list)
        cb = self.counts[b_arr]
        cnb = self.counts[nb_arr]
        per = cb * cnb
        total = int(per.sum())
        if total == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        g = np.repeat(np.arange(len(per)), per)
        begins = np.concatenate(([0], np.cumsum(per)))[:-1]
        within = np.arange(total) - begins[g]
        iu = within // cnb[g]
        iv = within % cnb[g]
        u = self.members[self.starts[b_arr][g] + iu]
        v = self.members[self.starts[nb_arr][g] + iv]
        keep = u != v
        u, v = u[keep], v[keep]
        w = pair_distances(self.pts, u, v, self.metric)
        if math.isfinite(threshold):
            ok = w <= threshold
            u, v, w = u[ok], v[ok], w[ok]
        order = np.lexsort((np.maximum(u, v), np.minimum(u, v), w))
        return u[order], v[order], w[order]

    def _unique_cells(self) -> np.ndarray:
        firsts = self.members[self.starts[:-1]]
        return self.cells[firsts]


def _better(key_a, key_b) -> bool:
    """Total order on candidate edges: (weight, min id, max id)."""
    return key_a is not None and (key_b is None or key_a < key_b)


_RING_CHUNK = 20_000


def _ring_pairs(grid: _GridIndex, subset: np.ndarray, r: int):
    """Directed pairs from each subset point to every point in its
    Chebyshev ring-r buckets, in (subset point, member) form."""
    shell = grid.shell(r)
    u_out, v_out = [], []
    for k0 in range(0, len(subset), _RING_CHUNK):
        part = subset[k0: k0 + _RING_CHUNK]
        probe = (grid.cells[part][:, None, :] + shell[None, :, :]).reshape(-1, shell.shape[1])
        nb = grid.lookup(_pack_keys(probe, grid.mult, grid.pad))
        ok = nb >= 0
        p_idx = np.repeat(part, len(shell))[ok]
        buckets = nb[ok]
        cnt = grid.counts[buckets]
        total = int(cnt.sum())
        if total == 0:
            continue
        g = np.repeat(np.arange(len(cnt)), cnt)
        begins = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        within = np.arange(total) - begins[g]
        v_out.append(grid.members[grid.starts[buckets][g] + within])
        u_out.append(p_idx[g])
    if not u_out:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(u_out), np.concatenate(v_out)


def _best_per_comp(labels, u, v, w, best: dict) -> None:
    """Fold cross pairs into the per-component minima under (w, lo, hi)."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((hi, lo, w))
    comp = labels[u[order]]
    uniq, first = np.unique(comp, return_index=True)
    for c, f in zip(uniq, first):
        k = order[f]
        key = (float(w[k]), int(min(u[k], v[k])), int(max(u[k], v[k])))
        if _better(key, best.get(int(c))):
            best[int(c)] = key


def _expand_pending(grid, labels_now, open_labels, best, bound):
    """Vectorized ring expansion for components whose minimum cross edge is
    not settled by the 3^d neighborhood: scan growing Chebyshev rings until
    every component's best candidate beats the next ring's distance bound."""

    def limit_of(c):
        key = best.get(int(c))
        return bound if key is None else min(bound, key[0])

    pending = [int(c) for c in open_labels if grid.pitch <= limit_of(c)]
    r = 2
    while pending and r <= grid.r_cap:
        plabels = np.asarray(sorted(pending), dtype=np.int64)
        in_pending = np.isin(labels_now, plabels)
        subset = np.flatnonzero(in_pending)
        u, v = _ring_pairs(grid, subset, r)
        if len(u):
            cross = labels_now[u] != labels_now[v]
            u, v = u[cross], v[cross]
        if len(u):
            w = pair_distances(grid.pts, u, v, grid.metric)
            ok = w <= bound
            _best_per_comp(labels_now, u[ok], v[ok], w[ok], best)
        pending = [c for c in pending if r * grid.pitch <= limit_of(c)]
        r += 1
    if any(best.get(c) is None for c in pending) and not math.isfinite(bound):
        raise RuntimeError("ring expansion exhausted the grid with pairs left")


def _msf_grid(pts, labels, threshold, metric):
    """Exact merge sequence via Boruvka phases on a bucket grid."""
    grid = _GridIndex(pts, metric)
    pair_u, pair_v, pair_w = grid.neighborhood_pairs(threshold)
    uf = UnionFind()
    labels_now = labels.copy()
    closed_pt = np.zeros(len(labels), dtype=bool)
    edges = []
    bound = threshold if math.isfinite(threshold) else np.inf
    max_phases = 2 * math.ceil(math.log2(max(2, len(labels)))) + 8
    for _ in range(max_phases):
        open_labels = np.unique(labels_now[~closed_pt])
        if len(open_labels) <= 1:
            break
        rows = (labels_now[pair_u] != labels_now[pair_v]) & ~closed_pt[pair_u]
        rows_idx = np.flatnonzero(rows)
        best: dict = {}
        comp_col = labels_now[pair_u[rows_idx]]
        uniq, first = np.unique(comp_col, return_index=True)
        for c, f in zip(uniq, first):
            k = rows_idx[f]
            best[int(c)] = (float(pair_w[k]),
                            int(min(pair_u[k], pair_v[k])),
                            int(max(pair_u[k], pair_v[k])))
        _expand_pending(grid, labels_now, open_labels, best, bound)
        candidates = []
        closing = []
        for c in open_labels:
            key = best.get(int(c))
            if key is None or key[0] > bound:
                closing.append(int(c))
            else:
                candidates.append(key)
        if closing:
            closed_pt |= np.isin(labels_now, np.asarray(closing, dtype=np.int64))
        if not candidates:
            break
        merged_any = False
        for w, lo, hi in sorted(set(candidates)):
            if uf.union(int(labels_now[lo]), int(labels_now[hi])):
                edges.append((w, lo, hi))
                merged_any = True
        if not merged_any:
            break
        labels_now = uf.relabel(labels_now)
    return edges, labels_now


def _msf_within(pts, labels, threshold, metric):
    """Dispatch to the exact merge engine suited to the cell size/shape.

    Returns (edges, merged_labels); edges use local row indices and come
    back in nondecreasing (weight, min id, max id) order.
    """
    m = len(labels)
    if m <= 1 or len(np.unique(labels)) <= 1:
        return [], labels.copy()
    if float((pts.max(axis=0) - pts.min(axis=0)).max()) == 0.0:
        if threshold < 0:
            return [], labels.copy()
        uf = UnionFind()
        edges = [(0.0, 0, v) for v in range(1, m)
                 if uf.union(int(labels[0]), int(labels[v]))]
        return edges, uf.relabel(labels)
    if m <= BRUTE_CAP or pts.shape[1] > GRID_MAX_DIM:
        edges, out = _msf_brute(pts, labels, threshold, metric)
    else:
        edges, out = _msf_grid(pts, labels, threshold, metric)
    edges.sort(key=lambda e: (e[0], e[1], e[2]))
    return edges, out


def unit_step(rep_ids: np.ndarray, labels: np.ndarray, level_diam: float,
              eps: float, ps: PointSet):
    """One cell's merge pass: emit cross edges up to eps * level_diam, then
    summarize with an eps^2 * level_diam covering and its induced labels.

    `rep_ids` are the cell's surviving points in ascending order and
    `labels` their component labels. An infinite level_diam removes the
    threshold so merging runs until a single component remains (used at
    the root cell). eps = 0 degenerates to exact closest-pair merging and
    an exact-duplicate covering.

    Returns (covering ids, covering labels, tree edges on global ids).
    """
    if len(rep_ids) == 1:
        return [int(rep_ids[0])], labels, []
    threshold = math.inf if math.isinf(level_diam) else eps * level_diam
    pts = ps.points[rep_ids]
    edges_local, merged = _msf_within(pts, labels, threshold, ps.metric)
    edges = [(int(rep_ids[lo]), int(rep_ids[hi]), w) for (w, lo, hi) in edges_local]
    radius = math.inf if math.isinf(level_diam) else eps * eps * level_diam
    cover = _covering(rep_ids, radius, ps)
    pos = {int(r): k for k, r in enumerate(rep_ids)}
    cover_labels = np.asarray([merged[pos[c]] for c in cover], dtype=np.int64)
    return cover, cover_labels, edges
