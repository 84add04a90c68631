"""One level's merge pass over all of its cells.

Within a cell, merging repeatedly takes the closest pair of points lying
in two different components, emits it as a tree edge while its distance
stays under eps * level_diam, and merges the two components. The emitted
edges therefore equal Kruskal's over the cell's cross-component pairs not
longer than the threshold, in (weight, min id, max id) order. Cells nest
and components only grow inside cells, so no component spans two cells
of a level, and one Kruskal over the pairs of every cell, on one
union-find, yields each cell's edges at once. A finished cell is
summarized by an eps^2 * level_diam covering of its points plus the
induced component labels on the covering.

Exact duplicates join the lowest position in their cell with the same
coordinates at weight 0 and take no further part. Candidate pairs of the distinct points
are built in blocks of bounded memory: every pair of a cell, or, where
the threshold is below the cell side in at most GRID_MAX_DIM dimensions,
only pairs in neighbouring buckets of pitch at least twice the threshold.
A cell with more candidate pairs per point than a BRUTE_CAP-point cell
has, in at most GRID_MAX_DIM dimensions, runs bucket-grid accelerated
Boruvka phases instead; so does the root, the unbounded cell of the last
level, above BRUTE_CAP points. Both engines are exact, which trivially
satisfies the (1+eps)-approximate contract the caller relies on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    InputError,
    Metric,
    PointSet,
    UnionFind,
    UnsupportedMetricError,
    pair_distances,
)

BRUTE_CAP = 256
GRID_MAX_DIM = 6
# float64 values in one (pairs x d) block of gathered coordinates: 8 MB;
# a block's distances hold four such arrays at once
_BLOCK_VALUES = 1 << 20


def _covering_step(radius: float, dim: int, metric: Metric) -> float:
    """Grid pitch whose cells have metric diameter at most `radius`."""
    if metric is Metric.L1:
        return radius / dim
    if metric is Metric.L2:
        return radius / math.sqrt(dim)
    if metric is Metric.LINF:
        return radius
    raise UnsupportedMetricError("coverings are defined for L1, L2 and LINF only")


def _key_runs(keys: np.ndarray):
    """Positions in stable order of their rows of `keys`, and a mask of
    the positions in that order that start a run of equal rows; by
    stability each run starts at its lowest position."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order, starts


def _covering(pts: np.ndarray, cells: np.ndarray, radius: float, metric: Metric) -> np.ndarray:
    """Positions of the covering, ascending: the lowest position per cell
    and key. The key is the floored grid coordinates at a pitch whose
    cells have diameter at most `radius`, the exact coordinates when the
    radius is 0, and nothing when it is infinite."""
    if math.isinf(radius):
        keys = cells[:, None]
    elif radius > 0:
        step = _covering_step(radius, pts.shape[1], metric)
        keys = np.column_stack((cells, np.floor(pts / step).astype(np.int64)))
    else:
        # bit patterns: equal keys are equal coordinates
        keys = np.column_stack((cells, pts.view(np.int64)))
    order, starts = _key_runs(keys)
    return np.sort(order[starts])


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0 .. c-1 for every count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _pack_keys(cells: np.ndarray, mult: int, pad: int) -> np.ndarray:
    keys = np.zeros(len(cells), dtype=np.int64)
    for j in range(cells.shape[1]):
        keys = keys * mult + (cells[:, j] + pad)
    return keys


def _half_offsets(dim: int, mult: int) -> list:
    """Packed-key offsets of a bucket itself (0) and of its neighbours in
    half of the 3^d - 1 directions, so each neighbouring pair comes up once."""
    weights = mult ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return [0] + [int(np.dot(off, weights))
                  for off in itertools.product((-1, 0, 1), repeat=dim)
                  if next((c for c in off if c), 0) > 0]


class _Buckets:
    """Positions grouped by packed integer key, keys ascending: bucket k
    holds positions members[starts[k]: starts[k] + counts[k]], ascending."""

    def __init__(self, keys: np.ndarray):
        self.keys, inv = np.unique(keys, return_inverse=True)
        self.members = np.argsort(inv, kind="stable")
        self.counts = np.bincount(inv, minlength=len(self.keys))
        self.starts = np.cumsum(self.counts) - self.counts

    def lookup(self, probe: np.ndarray) -> np.ndarray:
        """Bucket index per packed key, -1 where no bucket holds it."""
        pos = np.minimum(np.searchsorted(self.keys, probe), len(self.keys) - 1)
        return np.where(self.keys[pos] == probe, pos, -1)

    def links(self, offsets):
        """Bucket pairs (a, b) whose keys differ by one of `offsets`; the
        offset 0 links every bucket to itself."""
        a, b = [], []
        for off in offsets:
            nb = self.lookup(self.keys + off)
            hit = np.flatnonzero(nb >= 0)
            a.append(hit)
            b.append(nb[hit])
        return np.concatenate(a), np.concatenate(b)

    def link_pairs(self, a, b) -> np.ndarray:
        """Number of position pairs that each link yields."""
        ca = self.counts[a]
        return np.where(a == b, ca * (ca - 1) // 2, ca * self.counts[b])

    def pairs(self, a, b, max_pairs: int):
        """Position pairs of the links in blocks of about max_pairs: every
        point of bucket a[k] with every point of bucket b[k], or, where
        a[k] == b[k], each unordered pair inside the bucket once."""
        ca = self.counts[a]
        rows = np.repeat(self.starts[a], ca) + _ranks(ca)
        first = np.where(np.repeat(a == b, ca), rows + 1, np.repeat(self.starts[b], ca))
        width = np.repeat(self.starts[b] + self.counts[b], ca) - first
        cum = np.cumsum(width)
        lo = 0
        while lo < len(rows):
            base = int(cum[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cum, base + max_pairs, side="right")))
            w = width[lo:hi]
            g = np.repeat(np.arange(hi - lo), w)
            yield self.members[rows[lo:hi][g]], self.members[first[lo:hi][g] + _ranks(w)]
            lo = hi


def _level_buckets(pts, cells, threshold, side):
    """The level's positions in buckets, and the links (a, b) between the
    buckets whose points can pair within `threshold`.

    Unless buckets of pitch 2 * threshold (or 2^-20 of the cell side, if
    larger) are narrower than the cell side in at most GRID_MAX_DIM
    dimensions, the bucket is the cell, linked only to itself. Otherwise
    the key packs the cell with the floored offset from the cell's lowest
    point, and a bucket links to itself and to half of its 3^d
    neighbours. A pitch of twice the threshold keeps every pair within it
    in linked buckets despite rounding.
    """
    d = pts.shape[1]
    # at most 2^20 buckets across a cell keep the floored offsets in range
    pitch = max(2.0 * threshold, side / 2 ** 20)
    if d > GRID_MAX_DIM or not 0 < pitch < side:
        index = _Buckets(cells)
        own = np.arange(len(index.keys))
        return index, own, own
    n_cells = int(cells.max()) + 1
    lo = np.full((n_cells, d), np.inf)
    np.minimum.at(lo, cells, pts)
    rel = pts - lo[cells]
    while True:
        local = np.floor(rel / pitch).astype(np.int64)
        mult = int(local.max()) + 3
        if (n_cells + 1) * mult ** d < 2 ** 62:
            break
        pitch *= 2.0
    index = _Buckets(_pack_keys(np.column_stack((cells, local)), mult, 1))
    return (index, *index.links(_half_offsets(d, mult)))


def _cross_pairs(pts, labels, index, a, b, threshold, metric):
    """Blocks of position pairs lo < hi from the links (a, b), in two
    components and at most `threshold` apart, with their distances."""
    for u, v in index.pairs(a, b, max(1, _BLOCK_VALUES // pts.shape[1])):
        cross = labels[u] != labels[v]
        lo = np.minimum(u[cross], v[cross])
        hi = np.maximum(u[cross], v[cross])
        w = pair_distances(pts, lo, hi, metric)
        near = w <= threshold
        yield lo[near], hi[near], w[near]


def _kruskal(lo, hi, w, labels, want):
    """Kruskal over candidate pairs in (w, lo, hi) order on the components
    of `labels`, stopping after `want` edges.

    Candidates go in chunks of doubling length; a chunk first drops, in
    one array pass, the pairs whose components were joined before it.
    Returns the indices of the taken pairs in that order and the merged
    labels (each the lowest label of its merged set).
    """
    order = np.lexsort((hi, lo, w))
    comps, inv = np.unique(labels, return_inverse=True)
    a, b = inv[lo[order]], inv[hi[order]]
    root = np.arange(len(comps))
    uf = UnionFind()
    taken = []
    start, chunk = 0, max(64, 2 * want)
    while start < len(order) and len(taken) < want:
        ra, rb = root[a[start:start + chunk]], root[b[start:start + chunk]]
        live = np.flatnonzero(ra != rb)
        for k, x, y in zip(live.tolist(), ra[live].tolist(), rb[live].tolist()):
            if uf.union(x, y):
                taken.append(start + k)
                if len(taken) == want:
                    break
        touched = np.unique(np.concatenate((ra[live], rb[live])))
        remap = np.arange(len(comps))
        remap[touched] = [uf.find(int(t)) for t in touched]
        root = remap[root]
        start += chunk
        chunk *= 2
    return order[taken], comps[root[inv]]


# candidate pairs kept before they are cut to their spanning forest; this
# bounds a level's memory, as the engine choice bounds a cell's pair work
_MAX_KEPT = 1 << 20


def _candidates(pts, labels, index, a, b, threshold, metric, want):
    """The cross pairs of the links (a, b) within `threshold` as
    (lo, hi, w). Whenever more than _MAX_KEPT accumulate they are cut to
    their minimum spanning forest, which keeps Kruskal's result: under a
    strict order no edge off the forest of a subset is in the forest of
    the whole."""
    kept = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    size = 0
    for block in _cross_pairs(pts, labels, index, a, b, threshold, metric):
        kept.append(block)
        size += len(block[0])
        if size > _MAX_KEPT:
            lo, hi, w = (np.concatenate(x) for x in zip(*kept))
            taken, _merged = _kruskal(lo, hi, w, labels, want)
            kept, size = [(lo[taken], hi[taken], w[taken])], len(taken)
    return tuple(np.concatenate(x) for x in zip(*kept))


def _shell_offsets(r: int, dim: int) -> np.ndarray:
    """Integer offsets at Chebyshev distance exactly r."""
    offs = [o for o in itertools.product(range(-r, r + 1), repeat=dim)
            if max(abs(c) for c in o) == r]
    return np.asarray(offs, dtype=np.int64)


class _GridIndex(_Buckets):
    """Static bucket grid over a cell's points for exact cross-pair search."""

    def __init__(self, pts: np.ndarray, metric: Metric):
        self.pts = pts
        self.metric = metric
        m, d = pts.shape
        lo = pts.min(axis=0)
        self.extent = float((pts.max(axis=0) - lo).max())
        self.pitch = self.extent / max(1.0, math.floor(m ** (1.0 / d)))
        self.cells = np.floor((pts - lo) / self.pitch).astype(np.int64)
        maxc = int(self.cells.max()) + 1
        self.r_cap = maxc + 2
        self.pad = self.r_cap + 2
        self.mult = maxc + 2 * self.pad
        super().__init__(_pack_keys(self.cells, self.mult, self.pad))
        self._shells = {}

    def shell(self, r: int) -> np.ndarray:
        if r not in self._shells:
            self._shells[r] = _shell_offsets(r, self.pts.shape[1])
        return self._shells[r]

    def neighborhood_pairs(self, threshold: float):
        """Point pairs within the 3^d bucket neighbourhood and `threshold`,
        in both directions, sorted by (weight, min id, max id)."""
        a, b = self.links(_half_offsets(self.pts.shape[1], self.mult))
        blocks = self.pairs(a, b, max(1, _BLOCK_VALUES // self.pts.shape[1]))
        lo, hi = (np.concatenate(x) for x in zip(*blocks))
        w = pair_distances(self.pts, lo, hi, self.metric)
        near = w <= threshold
        lo, hi, w = lo[near], hi[near], w[near]
        u, v, w = np.concatenate((lo, hi)), np.concatenate((hi, lo)), np.tile(w, 2)
        order = np.lexsort((np.tile(hi, 2), np.tile(lo, 2), w))
        return u[order], v[order], w[order]


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
        within = _ranks(cnt)
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
    if any(best.get(c) is None for c in pending) and math.isinf(bound):
        raise RuntimeError("ring expansion exhausted the grid with pairs left")


def _msf_grid(pts, labels, threshold, metric):
    """Exact merge sequence up to `threshold` via Boruvka phases on a
    bucket grid: a component without a cross pair within the threshold
    closes. Returns the edges as (w, lo, hi) in that order and the merged
    labels."""
    grid = _GridIndex(pts, metric)
    pair_u, pair_v, pair_w = grid.neighborhood_pairs(threshold)
    uf = UnionFind()
    labels_now = labels.copy()
    closed_pt = np.zeros(len(labels), dtype=bool)
    edges = []
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
        _expand_pending(grid, labels_now, open_labels, best, threshold)
        candidates = []
        closing = []
        for c in open_labels:
            key = best.get(int(c))
            if key is None or key[0] > threshold:
                closing.append(int(c))
            else:
                candidates.append(key)
        if closing:
            closed_pt |= np.isin(labels_now, np.asarray(closing, dtype=np.int64))
        merged_any = False
        for w, lo, hi in sorted(set(candidates)):
            if uf.union(int(labels_now[lo]), int(labels_now[hi])):
                edges.append((w, lo, hi))
                merged_any = True
        if not merged_any:
            break
        labels_now = uf.relabel(labels_now)
    return sorted(edges), labels_now


def _merge_distinct(pts, labels, cells, threshold, side, metric, want):
    """Kruskal's edges of every cell of distinct points, as (w, lo, hi),
    and the merged labels. A cell whose candidate pairs would outnumber,
    per point, those of a BRUTE_CAP-point cell runs the bucket-grid
    Boruvka engine in at most GRID_MAX_DIM dimensions; the other cells
    share one Kruskal over their candidates."""
    index, a, b = _level_buckets(pts, cells, threshold, side)
    link_cell = cells[index.members[index.starts[a]]]
    n_cells = int(cells.max()) + 1
    size = np.bincount(cells, minlength=n_cells)
    pairs = np.bincount(link_cell, index.link_pairs(a, b), n_cells)
    dense = (pairs > size * ((BRUTE_CAP - 1) / 2)) & (pts.shape[1] <= GRID_MAX_DIM)
    edges = []
    merged = labels.copy()
    by_cell = np.argsort(cells, kind="stable")
    starts = np.cumsum(size) - size
    for c in np.flatnonzero(dense).tolist():
        pos = by_cell[starts[c]: starts[c] + size[c]]
        cell_edges, cell_labels = _msf_grid(pts[pos], labels[pos], threshold, metric)
        merged[pos] = cell_labels
        edges += [(w, int(pos[lo]), int(pos[hi])) for w, lo, hi in cell_edges]
        want -= len(np.unique(labels[pos])) - 1
    sparse = ~dense[link_cell]
    lo, hi, w = _candidates(pts, labels, index, a[sparse], b[sparse], threshold, metric, want)
    taken, kruskal_labels = _kruskal(lo, hi, w, labels, want)
    edges += zip(w[taken].tolist(), lo[taken].tolist(), hi[taken].tolist())
    return edges, np.where(dense[cells], merged, kruskal_labels)


def _duplicate_owner(pts, cells):
    """For every position, the lowest position in its cell with equal
    coordinates; None when no two positions can share coordinates."""
    first = np.sort(pts[:, 0])
    if not np.any(first[1:] == first[:-1]):
        return None
    # + 0.0 turns -0.0 into 0.0, so equal coordinates have equal bits
    order, starts = _key_runs(np.column_stack((cells, (pts + 0.0).view(np.int64))))
    owner = np.empty_like(order)
    owner[order] = order[starts][np.cumsum(starts) - 1]
    return owner


def _merge(pts, labels, cells, threshold, side, metric, want):
    """Kruskal within every cell over the pairs of two components at most
    `threshold` apart, in (w, lo, hi) order, stopping after `want` edges.
    Returns the edges as (w, lo, hi) in that order and the merged labels
    (each the lowest label of its merged set).

    Exact duplicates, and only they, are at distance 0 (up to l2 pairs so
    close that every squared coordinate difference underflows), so
    Kruskal first joins each to the lowest position in its cell with its
    coordinates. After that no pair of a duplicate comes before the same
    pair of that lowest position, and only distinct points go on.
    """
    owner = _duplicate_owner(pts, cells)
    dup = () if owner is None else np.flatnonzero(owner != np.arange(len(pts)))
    if not len(dup):
        edges, merged = _merge_distinct(pts, labels, cells, threshold, side, metric, want)
    else:
        taken, labels = _kruskal(owner[dup], dup, np.zeros(len(dup)), labels, want)
        keep = np.flatnonzero(owner == np.arange(len(pts)))
        edges, merged = _merge_distinct(pts[keep], labels[keep], cells[keep], threshold,
                                        side, metric, want - len(taken))
        ids = keep.tolist()
        edges = [(w, ids[lo], ids[hi]) for w, lo, hi in edges]
        edges += [(0.0, lo, hi) for lo, hi in zip(owner[dup[taken]].tolist(),
                                                  dup[taken].tolist())]
        merged = merged[np.searchsorted(keep, owner)]
    edges.sort()
    return edges, merged


def level_step(rep_ids: np.ndarray, labels: np.ndarray, cells: np.ndarray,
               level_diam: float, eps: float, ps: PointSet):
    """One level's merge pass over all of its cells: in every cell, emit
    cross edges up to eps * level_diam, then summarize the cell with an
    eps^2 * level_diam covering and its induced labels.

    `rep_ids` are the level's surviving points in ascending order,
    `labels` their component labels and `cells` the index of each one's
    cell; no component may span two cells. An infinite level_diam removes
    the threshold, so merging runs until one component remains; that is
    the root, a single cell. eps = 0 degenerates to exact closest-pair
    merging and an exact-duplicate covering.

    Returns (covering ids in ascending order, their labels, tree edges as
    (u, v, w) on global ids with u < v, in (w, u, v) order).
    """
    pts = ps.points[rep_ids]
    d = pts.shape[1]
    n_cells = len(np.unique(cells))
    if math.isinf(level_diam):
        if n_cells > 1:
            raise InputError("an unbounded level runs one cell, the root")
        threshold = side = radius = math.inf
    else:
        threshold = eps * level_diam
        # the grid side whose cells have diameter level_diam: the cell side
        side = _covering_step(level_diam, d, ps.metric)
        radius = eps * eps * level_diam
    want = len(np.unique(labels)) - n_cells
    if want == 0:
        edges, merged = [], labels
    else:
        edges, merged = _merge(pts, labels, cells, threshold, side, ps.metric, want)
    cover = _covering(pts, cells, radius, ps.metric)
    ids = rep_ids.tolist()
    return (rep_ids[cover], merged[cover],
            [(ids[lo], ids[hi], w) for w, lo, hi in edges])
