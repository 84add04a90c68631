"""One level's merge pass over all of its cells.

Within a cell, merging repeatedly takes the closest pair of points lying
in two different components, emits it as a tree edge while its distance
stays under eps * level_diam, and merges the two components. The emitted
edges therefore equal Kruskal's over the cell's cross-component pairs not
longer than the threshold, in (weight, min id, max id) order. Cells nest
and components only grow inside cells, so no component spans two cells
of a level, and one Kruskal over the pairs of every cell, on one
spanning forest, yields each cell's edges at once. A finished cell is
summarized by an eps^2 * level_diam covering of its points plus the
induced component labels on the covering.

Exact duplicates join the lowest position in their cell with the same
coordinates at weight 0 and take no further part. The distinct points
go into one bucket grid per level, visited in Chebyshev shells r = 1,
2, ...: shell 1 pairs the points of each bucket and of every two
neighbouring buckets, shell r those of every two buckets r apart. After
each shell Kruskal takes the pooled cross pairs that no later shell can
undercut, and the rest stay pooled. At a pitch of twice the threshold
one shell does; the root, which has no threshold, grows its shells until
one component is left. A cell with no more pairs than shell 1 has
probes for it takes all pairs of the cell, as one run, in shell 1, and
no later shell. A shell streams runs of the level's members in blocks,
a whole cell with itself or the two buckets of each probe hit, and the
pairs of one block are measured and pooled before the next block is
made. Above GRID_MAX_DIM dimensions the bucket is the cell, paired in
one shell. Kruskal is Filter-Kruskal: it sorts a prefix of the pooled
pairs by weight at a time and drops the heavier pairs that the prefix
joins. The engine is exact, which trivially satisfies the
(1+eps)-approximate contract the caller relies on.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import (
    InputError,
    Metric,
    PointSet,
    UnsupportedMetricError,
    pair_distances,
    row_runs,
    spanning_forest,
)
from .mpc import EDGE, edge_array

GRID_MAX_DIM = 6
# bucket probes, or candidate pairs x d, in one block; `pair_distances`
# gathers coordinates in chunks, so a block of pairs holds their indices
_BLOCK_VALUES = 1 << 20
# buckets per point at the level's point spacing
_BUCKETS_PER_POINT = 2
# pairs per live component that one Filter-Kruskal pass sorts
_FILTER_PER_COMPONENT = 4


def _covering_step(radius: float, dim: int, metric: Metric) -> float:
    """Grid pitch whose cells have metric diameter at most `radius`."""
    if metric is Metric.L1:
        return radius / dim
    if metric is Metric.L2:
        return radius / math.sqrt(dim)
    if metric is Metric.LINF:
        return radius
    raise UnsupportedMetricError("coverings are defined for L1, L2 and LINF only")


def _covering(pts: np.ndarray, cells: np.ndarray, radius: float, metric: Metric) -> np.ndarray:
    """Positions of the covering, ascending: the lowest position per cell
    and key. The key is the floored grid coordinates at a pitch whose
    cells have diameter at most `radius`, and the exact coordinates when
    the radius is 0. An infinite radius has an infinite pitch, so every
    floored coordinate is 0 and the key is the cell."""
    if radius == 0:
        return np.flatnonzero(_duplicate_owner(pts, cells) == np.arange(len(pts)))
    step = _covering_step(radius, pts.shape[1], metric)
    keys = np.column_stack((cells, np.floor(pts / step).astype(np.int64)))
    order, starts = row_runs(keys)
    return np.sort(order[starts])


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0 .. c-1 for every count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


@functools.lru_cache(maxsize=64)
def _half_shell(r: int, dim: int) -> np.ndarray:
    """Shell r: the integer offsets at Chebyshev distance r, or at most 1
    for r = 1, that are zero or whose first nonzero coordinate is
    positive, so each pair of buckets comes up in one shell and once."""
    if dim == 0:
        return np.zeros((1, 0), dtype=np.int64)
    offs = np.indices((2 * r + 1,) * dim).reshape(dim, -1).T - r
    if r > 1:
        offs = offs[np.abs(offs).max(axis=1) == r]
    first = offs[np.arange(len(offs)), np.argmax(offs != 0, axis=1)]
    offs = offs[first >= 0]
    offs.flags.writeable = False
    return offs


class _Grid:
    """A level's points in one bucket grid, keys ascending: bucket k holds
    positions members[starts[k]: starts[k] + counts[k]], ascending, and
    the buckets of cell c make up the one run of cell_size[c] members
    from cell_start[c].

    The key packs the cell with the floored offset from the cell's lowest
    point, at one pitch for the whole level: 2 * threshold where that is
    below the level's point spacing, and the spacing otherwise. At the
    spacing, the cells' bounding cubes hold _BUCKETS_PER_POINT buckets
    per point. Above GRID_MAX_DIM dimensions the bucket is the cell.
    """

    def __init__(self, pts: np.ndarray, cells: np.ndarray, threshold: float):
        dim = pts.shape[1] if pts.shape[1] <= GRID_MAX_DIM else 0
        pts = pts[:, :dim]
        n_cells = int(cells.max()) + 1
        lo = np.full((n_cells, dim), np.inf)
        hi = np.full((n_cells, dim), -np.inf)
        np.minimum.at(lo, cells, pts)
        np.maximum.at(hi, cells, pts)
        extent = (hi - lo).max(axis=1, initial=0.0)
        volume = float(np.sum(extent ** dim))
        spacing = (volume / (_BUCKETS_PER_POINT * len(pts))) ** (1 / max(dim, 1))
        # at most 2^20 buckets across a cell keep the floored offsets in range
        pitch = max(min(2.0 * threshold, spacing), float(extent.max()) / 2 ** 20)
        while True:
            local = np.floor((pts - lo[cells]) / pitch).astype(np.int64)
            span = int(local.max(initial=0))
            # the last shell: all pairs within the threshold lie in it or
            # nearer (see `bound`), and offsets up to it leave the cell
            # and the other digits of a key alone
            reach = max(1, span if threshold > (span - 0.5) * pitch
                        else math.ceil(threshold / pitch + 0.5))
            mult = span + 1 + 2 * reach
            if n_cells * mult ** dim < 2 ** 62:
                break
            pitch *= 2.0
        self.pitch, self.reach, self.dim = pitch, reach, dim
        self.weights = mult ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        self.keys, inv = np.unique(cells * mult ** dim + (local + reach) @ self.weights,
                                   return_inverse=True)
        self.members = np.argsort(inv, kind="stable")
        self.counts = np.bincount(inv, minlength=len(self.keys))
        self.starts = np.cumsum(self.counts) - self.counts
        self.bucket_cell = cells[self.members[self.starts]]
        # a cell is paired whole in shell 1 when its pairs number no more
        # than the probes of its first shell; with one shell, all cells are
        # paired by it anyway
        buckets = np.bincount(self.bucket_cell, minlength=n_cells)
        size = np.bincount(cells, minlength=n_cells)
        self.cell_start, self.cell_size = np.cumsum(size) - size, size
        self.whole = ((size * (size - 1) // 2 <= buckets * len(_half_shell(1, dim)))
                      & (reach > 1))

    def bound(self, r: int, threshold: float) -> float:
        """Distance up to which every pair within `threshold` lies in
        buckets at most r apart. Floored offsets more than r apart are
        more than r - 1 pitches apart, so this holds at (r - 1/2) pitches
        despite rounding, and at the threshold from the last shell on."""
        return threshold if r >= self.reach else min(threshold, (r - 0.5) * self.pitch)

    def links(self, r: int, labels: np.ndarray, shell: np.ndarray, whole: np.ndarray):
        """Runs of `members` to pair, in blocks (start_a, count_a, start_b,
        count_b): first every cell where `whole` holds, as one run with
        itself, then the bucket pairs of shell r in the cells where
        `shell` holds, each once, one probe block at a time. A bucket
        pair that holds one and the same component is left out."""
        start, size = self.cell_start[whole], self.cell_size[whole]
        yield start, size, start, size
        ordered = labels[self.members]
        single = np.where(np.minimum.reduceat(ordered, self.starts)
                          == np.maximum.reduceat(ordered, self.starts),
                          ordered[self.starts], -1)
        src = np.flatnonzero(shell[self.bucket_cell])
        offs = _half_shell(r, self.dim) @ self.weights
        step = max(1, _BLOCK_VALUES // len(offs))
        for k in range(0, len(src), step):
            part = src[k:k + step]
            probe = (self.keys[part][:, None] + offs).ravel()
            pos = np.minimum(np.searchsorted(self.keys, probe), len(self.keys) - 1)
            hit = np.flatnonzero(self.keys[pos] == probe)
            a, b = part[hit // len(offs)], pos[hit]
            # the probe block is freed before its pairs are made
            del probe, pos, hit
            apart = (single[a] < 0) | (single[a] != single[b])
            a, b = a[apart], b[apart]
            yield self.starts[a], self.counts[a], self.starts[b], self.counts[b]

    def pairs(self, start_a, count_a, start_b, count_b, max_pairs: int):
        """Position pairs of the runs of `members` in blocks of about
        max_pairs: every member of run a[k] with every member of run b[k],
        or, where the two runs are one, each unordered pair inside it once."""
        rows = np.repeat(start_a, count_a) + _ranks(count_a)
        first = np.where(np.repeat(start_a == start_b, count_a), rows + 1,
                         np.repeat(start_b, count_a))
        width = np.repeat(start_b + count_b, count_a) - first
        cum = np.cumsum(width)
        lo = 0
        while lo < len(rows):
            base = int(cum[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cum, base + max_pairs, side="right")))
            w = width[lo:hi]
            g = np.repeat(np.arange(hi - lo), w)
            yield self.members[rows[lo:hi][g]], self.members[first[lo:hi][g] + _ranks(w)]
            lo = hi


def _kruskal(pairs, labels):
    """Kruskal over candidate pairs, EDGE records (lo, hi, w), in (w, lo,
    hi) order on the components of `labels`. Returns the taken pairs in
    that order and the merged labels (each the lowest label of its merged
    set).

    Filter-Kruskal (Osipov, Sanders & Singler, ALENEX 2009): a pool of
    more than twice _FILTER_PER_COMPONENT pairs per live component sorts
    only the pairs up to the weight of that many per component. Under the
    strict order they are a prefix, ties included; of the heavier pairs
    only those whose ends the prefix leaves apart go on, and so on while
    any do.
    """
    comps, inv = np.unique(labels, return_inverse=True)
    u, v, w = inv[pairs["u"]], inv[pairs["v"]], pairs["w"]
    roots = np.arange(len(comps))
    taken = [np.empty(0, dtype=np.int64)]
    rest = np.arange(len(pairs))
    while len(rest):
        cut = _FILTER_PER_COMPONENT * (len(comps) - sum(map(len, taken)))
        if len(rest) > 2 * cut:
            ws = w[rest]
            light = ws <= np.partition(ws, cut)[cut]
            part, rest = rest[light], rest[~light]
        else:
            part, rest = rest, rest[:0]
        part = part[np.lexsort((pairs["v"][part], pairs["u"][part], w[part]))]
        got, joined, _phases = spanning_forest(roots[u[part]], roots[v[part]], len(comps))
        taken.append(part[got])
        roots = joined[roots]
        rest = rest[roots[u[rest]] != roots[v[rest]]]
    return pairs[np.concatenate(taken)], comps[roots[inv]]


# candidate pairs kept before they are cut to their spanning forest; this
# bounds a level's memory however many pairs its shells yield
_MAX_KEPT = 1 << 20


def _candidates(pts, labels, grid, runs, threshold, metric, pool):
    """`pool` and the cross pairs within `threshold` of the run blocks
    `runs`, taken one block at a time, as EDGE records (lo, hi, w).
    Whenever more than _MAX_KEPT accumulate they are cut to their minimum
    spanning forest, which keeps Kruskal's result: under a strict order
    no edge off the forest of a subset is in the forest of the whole."""
    kept = [pool]
    size = len(pool)
    for block in runs:
        for u, v in grid.pairs(*block, max(1, _BLOCK_VALUES // pts.shape[1])):
            cross = labels[u] != labels[v]
            lo = np.minimum(u[cross], v[cross])
            hi = np.maximum(u[cross], v[cross])
            w = pair_distances(pts, lo, hi, metric)
            near = w <= threshold
            kept.append(edge_array(lo[near], hi[near], w[near]))
            # freed before the next block of pairs or of probes is made
            del u, v, cross, lo, hi, w, near
            size += len(kept[-1])
            if size > _MAX_KEPT:
                # the blocks are freed before Kruskal runs on their concatenation
                kept = [np.concatenate(kept)]
                kept = [_kruskal(kept[0], labels)[0]]
                size = len(kept[0])
    return np.concatenate(kept)


def _live(labels, cells):
    """Mask of the cells that still hold two components."""
    _, first = np.unique(labels, return_index=True)
    return np.bincount(cells[first], minlength=int(cells.max()) + 1) > 1


def _merge_distinct(pts, labels, cells, threshold, metric):
    """Kruskal's edges of every cell of distinct points, as EDGE records
    (lo, hi, w) in (w, lo, hi) order, and the merged labels.

    Shell r of the level's grid pools the cross pairs of its bucket
    pairs. Every pair within grid.bound(r) has then been pooled, so
    Kruskal takes the pooled pairs up to that bound, continuing from the
    components the earlier shells left, and the rest wait for a later
    shell. A cell paired whole in shell 1 has all its pairs within the
    threshold pooled there, so its bound is the threshold. The shells end
    at the threshold, or once every cell left to the shells holds one
    component; a level where no cell holds two builds no grid.
    """
    live = _live(labels, cells)
    if not live.any():
        return np.empty(0, dtype=EDGE), labels
    grid = _Grid(pts, cells, threshold)
    pool = np.empty(0, dtype=EDGE)
    edges = [np.empty(0, dtype=EDGE)]
    for r in itertools.count(1):
        # from shell 2 on, `live` holds no whole cell
        runs = grid.links(r, labels, live & ~grid.whole, live & grid.whole)
        pairs = _candidates(pts, labels, grid, runs, threshold, metric, pool)
        bound = grid.bound(r, threshold)
        now = pairs["w"] <= np.where(grid.whole[cells[pairs["u"]]], threshold, bound)
        if now.any():
            taken, labels = _kruskal(pairs[now], labels)
            edges.append(taken)
        if bound >= threshold:
            break
        live = _live(labels, cells) & ~grid.whole
        if not live.any():
            break
        pool = pairs[~now & (labels[pairs["u"]] != labels[pairs["v"]])]
    return np.concatenate(edges), labels


def _duplicate_owner(pts, cells):
    """For every position, the lowest position in its cell with equal
    coordinates, or itself when no two positions can share coordinates."""
    first = np.sort(pts[:, 0])
    if not np.any(first[1:] == first[:-1]):
        return np.arange(len(pts))
    # + 0.0 turns -0.0 into 0.0, so equal coordinates have equal bits
    order, starts = row_runs(np.column_stack((cells, (pts + 0.0).view(np.int64))))
    owner = np.empty_like(order)
    owner[order] = order[starts][np.cumsum(starts) - 1]
    return owner


def _merge(pts, labels, cells, threshold, metric):
    """Kruskal within every cell over the pairs of two components at most
    `threshold` apart, in (w, lo, hi) order. Returns the edges as EDGE
    records (lo, hi, w) in that order and the merged labels (each the
    lowest label of its merged set).

    Exact duplicates, and only they, are at distance 0 (up to l2 pairs so
    close that every squared coordinate difference underflows), so
    Kruskal first joins each to the lowest position in its cell with its
    coordinates. After that no pair of a duplicate comes before the same
    pair of that lowest position, and only distinct points go on.
    """
    owner = _duplicate_owner(pts, cells)
    dup = np.flatnonzero(owner != np.arange(len(pts)))
    if not len(dup):
        edges, merged = _merge_distinct(pts, labels, cells, threshold, metric)
    else:
        taken, labels = _kruskal(edge_array(owner[dup], dup, 0.0), labels)
        keep = np.flatnonzero(owner == np.arange(len(pts)))
        edges, merged = _merge_distinct(pts[keep], labels[keep], cells[keep], threshold,
                                        metric)
        edges["u"], edges["v"] = keep[edges["u"]], keep[edges["v"]]
        edges = np.concatenate((edges, taken))
        merged = merged[np.searchsorted(keep, owner)]
    return edges[np.lexsort((edges["v"], edges["u"], edges["w"]))], merged


def level_step(rep_ids: np.ndarray, labels: np.ndarray, cells: np.ndarray,
               level_diam: float, eps: float, ps: PointSet):
    """One level's merge pass over all of its cells: in every cell, emit
    cross edges up to eps * level_diam, then summarize the cell with an
    eps^2 * level_diam covering and its induced labels.

    `rep_ids` are the level's surviving points in ascending order,
    `labels` their component labels and `cells` the index of each one's
    cell, numbered 0 ... k-1 with every number in use, as `slc` numbers
    them; no component may span two cells. An infinite level_diam removes
    the threshold, so merging runs until one component remains; that is
    the root, a single cell. eps = 0 degenerates to exact closest-pair
    merging and an exact-duplicate covering.

    Returns (covering ids in ascending order, their labels, tree edges as
    EDGE records on global ids with u < v, in (w, u, v) order).
    """
    pts = ps.points[rep_ids]
    if math.isinf(level_diam):
        if cells.max() > 0:
            raise InputError("an unbounded level runs one cell, the root")
        threshold = radius = math.inf
    else:
        threshold = eps * level_diam
        radius = eps * eps * level_diam
    edges, merged = _merge(pts, labels, cells, threshold, ps.metric)
    cover = _covering(pts, cells, radius, ps.metric)
    edges["u"], edges["v"] = rep_ids[edges["u"]], rep_ids[edges["v"]]
    return rep_ids[cover], merged[cover], edges
