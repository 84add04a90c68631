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

A point alone in its cell can neither merge nor leave the covering, so
the pass runs on the cells of two points or more and the lone points
rejoin its output. `slc` joins exact duplicates once, before the first
pass, and hands on the lowest id of each; a pass treats equal points as
any pair at distance 0. An id names the point id mod n, so one pass can
serve the cells of several repetitions of the pipeline.

An exact distance is measured only for a pair that no certified lower
bound rules out, as dual-tree Boruvka (March, Ram & Gray, KDD 2010) and
GeoFilterKruskal (Chatterjee, Connor & Kumar, SEA 2010) prune. A source
yields the distinct points' pairs in stages r = 1, 2, ..., each with a
bound that no pair of a later stage undercuts: Kruskal takes the pooled
cross pairs up to it and the rest stay pooled, until the threshold or,
at the root, until one component is left. Up to GRID_MAX_DIM dimensions
the source is one bucket grid per level, and stage r pairs the buckets
o apart with floor(gap(o) + 1/2) + 1 = r, gap(o) the metric's norm of
max(|o| - 1, 0): stage 1 pairs each bucket with itself and its
neighbours, and under linf stage r is the Chebyshev shell r. At a pitch
of twice the threshold one stage does. A cell with no more pairs than
stage 1 has probes for it is paired whole, as one run, in stage 1 only.
Above GRID_MAX_DIM dimensions the bucket is the cell: under l2 one matrix
product per block of rows bounds its pairs from below (see `_Gram`), and
under l1 and linf one stage pairs it whole. Kruskal is Filter-Kruskal.
The engine is exact, which trivially satisfies the (1+eps)-approximate
contract the caller relies on.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import (
    Metric,
    PointSet,
    edge_order,
    pair_distances,
    row_runs,
    spanning_forest,
)
from .mpc import EDGE, edge_array
from .partition import metric_profile

GRID_MAX_DIM = 6
# bucket probes, Gram entries, or candidate pairs x d, in one block;
# `pair_distances` gathers coordinates in chunks, so a block of pairs
# holds their indices
_BLOCK_VALUES = 1 << 20
# buckets per point at the level's point spacing
_BUCKETS_PER_POINT = 2
# pairs per live component that one Filter-Kruskal pass sorts
_FILTER_PER_COMPONENT = 4


def _covering(pts: np.ndarray, cells: np.ndarray, radius: float, metric: Metric) -> np.ndarray:
    """Positions of the covering, unordered: the lowest position per cell
    and key. The key is the floored grid coordinates at a pitch whose
    cells have diameter at most `radius`, and the position when the
    radius is 0, which keeps every point. An infinite radius has an
    infinite pitch, where every floored coordinate would be 0, so the
    cell alone is the key."""
    if radius == 0:
        return np.arange(len(pts))
    if math.isinf(radius):
        keys = cells[:, None]
    else:
        step = radius / metric_profile(metric, pts.shape[1])[0]
        keys = np.column_stack((cells, np.floor(pts / step).astype(np.int64)))
    order, starts = row_runs(keys)
    return order[starts]


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0 .. c-1 for every count c, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _stage_of(gaps: np.ndarray, metric: Metric) -> np.ndarray:
    """floor(gap + 1/2) + 1 for every row of gaps t = max(|o| - 1, 0); no
    gap, an integer (l1, linf) or the root of one (l2), is a half integer."""
    if metric is Metric.L1:
        return gaps.sum(axis=1) + 1
    if metric is Metric.L2:
        return np.floor(np.sqrt((gaps * gaps).sum(axis=1)) + 0.5).astype(np.int64) + 1
    return gaps.max(axis=1, initial=0) + 1


@functools.lru_cache(maxsize=64)
def _half_shell(r: int, lim: int, dim: int, metric: Metric) -> np.ndarray:
    """Stage r: its offsets with no coordinate above `lim` that are zero or
    whose first nonzero coordinate is positive, so each pair of buckets
    comes up in one stage and once, in lexicographic order, so a bucket's
    probes ascend. Each gap row t of the stage, from the cube [0, lim)^dim,
    expands to its offsets: +-(t + 1) where t > 0, and -1, 0 and 1 (0
    alone when lim is 0) where t = 0."""
    if dim == 0:
        return np.zeros((1, 0), dtype=np.int64)
    offs = np.indices((max(lim, 1),) * dim).reshape(dim, -1).T
    offs = offs[_stage_of(offs, metric) == r]
    for k in range(dim):
        ways = np.where(offs[:, k] > 0, 2, 3 if lim else 1)
        offs = np.repeat(offs, ways, axis=0)
        pick, size = _ranks(ways), offs[:, k] + 1
        offs[:, k] = np.where(size > 1, (2 * pick - 1) * size, pick - (np.repeat(ways, ways) > 1))
    first = offs[np.arange(len(offs)), np.argmax(offs != 0, axis=1)]
    offs = offs[first >= 0]
    offs = offs[np.lexsort(offs.T[::-1])]
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

    def __init__(self, pts: np.ndarray, cells: np.ndarray, threshold: float, metric: Metric):
        self.width = pts.shape[1]
        dim = self.width if self.width <= GRID_MAX_DIM else 0
        pts = pts[:, :dim]
        n_cells = int(cells.max()) + 1
        # column by column, as numpy's ufunc.at is far faster on 1-d arrays
        lo = np.full((dim, n_cells), np.inf)
        hi = np.full((dim, n_cells), -np.inf)
        for j in range(dim):
            np.minimum.at(lo[j], cells, pts[:, j])
            np.maximum.at(hi[j], cells, pts[:, j])
        lo, hi = lo.T, hi.T
        extent = (hi - lo).max(axis=1, initial=0.0)
        volume = float(np.sum(extent ** dim))
        spacing = (volume / (_BUCKETS_PER_POINT * len(pts))) ** (1 / max(dim, 1))
        # at most 2^20 buckets across a cell keep the floored offsets in range
        pitch = max(min(2.0 * threshold, spacing), float(extent.max()) / 2 ** 20)
        while True:
            local = np.floor((pts - lo[cells]) / pitch).astype(np.int64)
            span = int(local.max(initial=0))
            # the last stage, past which no pair within the threshold lies
            # (see `stage`); past the span, the stage of the farthest offset
            if threshold > (span - 0.5) * pitch:
                reach = int(_stage_of(np.full((1, dim), max(span - 1, 0)), metric)[0])
            else:
                reach = max(1, math.ceil(threshold / pitch + 0.5))
            # offsets up to the pad leave the cell and the other key digits
            # alone; a stage-r offset has no coordinate above r
            pad = min(reach, span)
            mult = span + 1 + 2 * pad
            if n_cells * mult ** dim < 2 ** 62:
                break
            pitch *= 2.0
        self.pitch, self.reach, self.span, self.dim = pitch, reach, span, dim
        self.threshold, self.metric = threshold, metric
        self.weights = mult ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        key = cells * mult ** dim + (local + pad) @ self.weights
        self.members, first = row_runs(key[:, None])
        self.starts = np.flatnonzero(first)
        self.counts = np.diff(self.starts, append=len(key))
        heads = self.members[self.starts]
        self.keys, self.bucket_cell = key[heads], cells[heads]
        # a cell is paired whole in stage 1 when its pairs number no more than
        # its stage-1 probes; with one stage, every cell is paired by it anyway
        buckets = np.bincount(self.bucket_cell, minlength=n_cells)
        size = np.bincount(cells, minlength=n_cells)
        self.cell_start, self.cell_size = np.cumsum(size) - size, size
        probes = buckets * len(_half_shell(1, 1, dim, metric))
        self.whole = (size * (size - 1) // 2 <= probes) & (reach > 1)

    def stage(self, r: int, labels: np.ndarray, live: np.ndarray):
        """Stage r's bound and its position pairs, in blocks: every pair of
        the live cells paired whole, and the bucket pairs of stage r in the
        other live cells. Every pair within the bound, (r - 1/2) pitches or
        from the last stage on the threshold, lies in stages up to r:
        points in buckets o apart are more than gap(o) pitches apart, and a
        later stage's gap exceeds r - 1/2, as no gap is a half integer,
        which leaves room for rounding."""
        runs = self.links(r, labels, live & ~self.whole, live & self.whole)
        # a block of pairs gathers about _BLOCK_VALUES coordinates
        blocks = (pair for run in runs
                  for pair in self.pairs(*run, max(1, _BLOCK_VALUES // self.width)))
        bound = self.threshold if r >= self.reach else (r - 0.5) * self.pitch
        return min(self.threshold, bound), blocks

    def links(self, r: int, labels: np.ndarray, probed: np.ndarray, whole: np.ndarray):
        """Runs of `members` to pair, in blocks (start_a, count_a, start_b,
        count_b): first every cell where `whole` holds, as one run with
        itself, then the bucket pairs of stage r in the cells where
        `probed` holds, each once, one probe block at a time. A bucket
        pair that holds one and the same component is left out."""
        start, size = self.cell_start[whole], self.cell_size[whole]
        yield start, size, start, size
        offs = _half_shell(r, min(r, self.span), self.dim, self.metric) @ self.weights
        if not len(offs):  # past the span, a stage may hold no offset
            return
        ordered = labels[self.members]
        single = np.where(np.minimum.reduceat(ordered, self.starts)
                          == np.maximum.reduceat(ordered, self.starts),
                          ordered[self.starts], -1)
        src = np.flatnonzero(probed[self.bucket_cell])
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
            # made in a call, so this frame holds no part of the block it yields
            yield self._block(rows[lo:hi], first[lo:hi], width[lo:hi])
            lo = hi

    def _block(self, rows, first, width):
        """The members at `rows` paired with the `width` members from `first` on."""
        at = np.repeat(np.arange(len(rows)), width)
        u = self.members[rows[at]]
        at = first[at]
        at += _ranks(width)
        return u, self.members[at]


class _Gram:
    """An l2 level above GRID_MAX_DIM dimensions: a lower bound lb on the
    computed weight w of every pair of a live cell, one product per block.

    Why lb <= w, in IEEE doubles with u = 2^-53 and gamma_k = k u / (1 -
    k u) <= 2 k u (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3), for points x_i, x_j of a cell with mean c:
    - y = fl(x - c), so |y| follows the cell's extent, not its place, and
      |(y_i - y_j) - (x_i - x_j)| <= 2 u (|y_i| + |y_j|); as |y_i - y_j| <=
      |y_i| + |y_j|, |x_i - x_j|^2 >= |y_i - y_j|^2 - 8 u (|y_i|^2 + |y_j|^2).
    - s_i = fl(|y_i|^2) and G = fl(<y_i, y_j>) err by at most gamma_d |y_i|^2
      and gamma_d |y_i| |y_j| in any order of summation, and |y_i|^2 +
      |y_j|^2 <= (s_i + s_j) / (1 - gamma_d); so |x_i - x_j|^2 >= (s_i + s_j)
      (1 - 4 gamma_{d+4}) - 2 G, and scale = 1 - 8 (d + 4) u also covers two
      roundings: q = fl(fl(fl(s_i + s_j) scale) - 2 G) <= (1 + u) |x_i - x_j|^2.
    - A product in the subnormal range errs by up to 2^-1075 and a sum
      there not at all: (4 d + 1) 2^-1075 in q and d 2^-1075 in w^2 at most,
      which alpha = 8 (d + 1) 2^-1022 covers, products flushed to 0 too.
    - `pair_distances` gives w >= (1 - u) sqrt((1 - gamma_{d+2}) (|x_i - x_j|^2
      - 2 d 2^-1075)), and lb = fl(fl(sqrt(max(fl(q - alpha), 0))) shrink),
      shrink = 1 - 4 (d + 3) u, absorbs that and the roundings of lb.
    - |q| <= 4 max s_i; a level where that overflows gets lb = 0.

    A bounded level's one stage pools the cross pairs with lb up to the
    threshold. At the root, stage r pools the cross pairs no earlier stage
    pooled up to its bound, the (_FILTER_PER_COMPONENT x components)-th
    smallest lb among them, or the threshold when fewer remain. A block is
    the members a .. b - 1 against a .. e - 1, e the end of the cell of
    member b - 1, with at most _BLOCK_VALUES entries unless one row has
    more.
    """

    def __init__(self, pts: np.ndarray, cells: np.ndarray, live: np.ndarray, threshold: float):
        d = pts.shape[1]
        members = np.flatnonzero(live[cells])
        self.members = members[np.argsort(cells[members], kind="stable")]
        self.cell = cells[self.members]
        _, start, size = np.unique(self.cell, return_index=True, return_counts=True)
        end = np.repeat(start + size, size)
        self.rows = pts[self.members]
        self.rows -= np.repeat(np.add.reduceat(self.rows, start) / size[:, None], size, axis=0)
        self.sq = np.einsum("ij,ij->i", self.rows, self.rows)
        if not np.isfinite(4.0 * self.sq.max()):
            self.rows[:], self.sq[:] = 0.0, 0.0
        self.scale, self.shrink = 1 - 8 * (d + 4) * 2.0 ** -53, 1 - 4 * (d + 3) * 2.0 ** -53
        self.alpha = 8 * (d + 1) * 2.0 ** -1022
        self.spans, n, a = [], len(self.members), 0
        while a < n:
            # e >= b, so no block of more than sqrt(_BLOCK_VALUES) rows fits
            rows = np.arange(1, min(n - a, math.isqrt(_BLOCK_VALUES)) + 1)
            b = a + max(1, int(np.searchsorted(rows * (end[a:a + len(rows)] - a),
                                               _BLOCK_VALUES, side="right")))
            self.spans.append((a, b, int(end[b - 1])))
            a = b
        self.threshold, self.upto = threshold, -math.inf
        self.whole = np.zeros(len(live), dtype=bool)

    def _lb(self, a: int, b: int, e: int) -> np.ndarray:
        """lb of the members a .. b - 1 against a .. e - 1."""
        lb = np.add.outer(self.sq[a:b], self.sq[a:e]) * self.scale
        lb -= 2.0 * (self.rows[a:b] @ self.rows[a:e].T)
        lb -= self.alpha
        return np.sqrt(np.maximum(lb, 0.0, out=lb), out=lb) * self.shrink

    def _cross(self, labels: np.ndarray, above: float, want: int):
        """(lb, u, v) of the cross pairs of a cell with above < lb <= upto,
        one block at a time. With `want`, a block of more such pairs first
        lowers upto to the want-th smallest lb among them."""
        at = labels[self.members]
        for a, b, e in self.spans:
            lb = self._lb(a, b, e)
            keep = (lb > above) & (lb <= self.upto) & (self.cell[a:b, None] == self.cell[a:e])
            keep &= (at[a:b, None] != at[a:e]) & ~np.tri(b - a, e - a, dtype=bool)
            if want and np.count_nonzero(keep) > want:
                self.upto = np.partition(lb[keep], want - 1)[want - 1]
                keep &= lb <= self.upto
            i, j = np.nonzero(keep)
            yield lb[i, j], self.members[a + i], self.members[a + j]

    def stage(self, r: int, labels: np.ndarray, live: np.ndarray):
        """Stage r's bound and its position pairs, in blocks."""
        above, self.upto = self.upto, self.threshold
        if not math.isinf(self.threshold):
            return self.threshold, ((u, v) for _lb, u, v in self._cross(labels, above, 0))
        want = _FILTER_PER_COMPONENT * len(np.unique(labels[self.members]))
        got = [np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)]
        for block in self._cross(labels, above, want):
            got = [np.concatenate(pair) for pair in zip(got, block)]
            if len(got[0]) >= want:
                self.upto = np.partition(got[0], want - 1)[want - 1]
                got = [part[got[0] <= self.upto] for part in got]
        return self.upto, [got[1:]]


def _kruskal(pairs, labels, among=None):
    """Kruskal over candidate pairs, the EDGE records (lo, hi, w) of
    `pairs` at the indices `among` (all of them by default), in (w, lo,
    hi) order on the components of `labels`. Returns the taken pairs in
    that order and the merged labels (each the lowest label of its merged
    set).

    Filter-Kruskal (Osipov, Sanders & Singler, ALENEX 2009): a pool of
    more than twice _FILTER_PER_COMPONENT pairs per live component sorts
    only the pairs up to the weight of that many per component. Under the
    strict order they are a prefix, ties included; of the heavier pairs
    only those whose ends the prefix leaves apart go on, and so on while
    any do. Each sort is `edge_order`'s: the packed (lo, hi) key, then a
    stable sort by w.
    """
    comps, inv = np.unique(labels, return_inverse=True)
    u, v, w = pairs["u"], pairs["v"], pairs["w"]
    roots = np.arange(len(comps))
    taken = [np.empty(0, dtype=np.int64)]
    rest = np.arange(len(pairs)) if among is None else among
    while len(rest):
        cut = _FILTER_PER_COMPONENT * (len(comps) - sum(map(len, taken)))
        if len(rest) > 2 * cut:
            ws = w[rest]
            light = ws <= np.partition(ws, cut)[cut]
            part, rest = rest[light], rest[~light]
        else:
            part, rest = rest, rest[:0]
        part = part[edge_order(u[part], v[part], w[part])]
        got, joined, _phases = spanning_forest(roots[inv[u[part]]], roots[inv[v[part]]],
                                               len(comps))
        taken.append(part[got])
        roots = joined[roots]
        rest = rest[roots[inv[u[rest]]] != roots[inv[v[rest]]]]
    return pairs[np.concatenate(taken)], comps[roots[inv]]


# candidate pairs kept before they are cut to their spanning forest; this
# bounds a level's memory however many pairs its stages yield
_MAX_KEPT = 1 << 20


def _candidates(pts, labels, blocks, threshold, metric, pool):
    """`pool` and the cross pairs within `threshold` of the position pair
    blocks `blocks`, taken one block at a time, as EDGE records (lo, hi,
    w). Whenever more than _MAX_KEPT accumulate they are cut to their
    minimum spanning forest, which keeps Kruskal's result: under a strict
    order no edge off the forest of a subset is in the forest of the
    whole."""
    kept = [pool]
    size = len(pool)
    for u, v in blocks:
        cross = labels[u] != labels[v]
        if not cross.all():
            u, v = u[cross], v[cross]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        del u, v, cross
        w = pair_distances(pts, lo, hi, metric)
        near = w <= threshold
        if not near.all():
            lo, hi, w = lo[near], hi[near], w[near]
        kept.append(edge_array(lo, hi, w))
        # freed before the next block of pairs or of probes is made
        del lo, hi, w, near
        size += len(kept[-1])
        if size > _MAX_KEPT:
            # the blocks are freed before Kruskal runs on their concatenation
            kept = [np.concatenate(kept)]
            kept = [_kruskal(kept[0], labels)[0]]
            size = len(kept[0])
    return np.concatenate(kept)


def _live(labels, cells):
    """Mask of the cells that still hold two components. No component
    spans two cells, so these are the cells whose lowest and highest
    labels differ; every cell 0 ... k-1 must hold a point."""
    lo = np.full(int(cells.max()) + 1, labels.max())
    hi = np.full(len(lo), labels.min())
    np.minimum.at(lo, cells, labels)
    np.maximum.at(hi, cells, labels)
    return lo != hi


def _merge_distinct(pts, labels, cells, threshold, metric):
    """Kruskal's edges of every cell of distinct points, as EDGE records
    (lo, hi, w), each stage's in (w, lo, hi) order, and the merged labels.

    After stage r of the level's source, its bucket grid or, for l2 above
    GRID_MAX_DIM, its Gram bounds, Kruskal takes the pooled pairs up to
    the stage's bound, and the rest wait. A cell paired whole in stage 1
    has all its pairs within the threshold pooled there, so its bound is
    the threshold. The stages end at the threshold, or once every cell
    left to them holds one component; a level where no cell holds two
    builds no source.
    """
    live = _live(labels, cells)
    if not live.any():
        return np.empty(0, dtype=EDGE), labels
    if metric is Metric.L2 and pts.shape[1] > GRID_MAX_DIM:
        source = _Gram(pts, cells, live, threshold)
    else:
        source = _Grid(pts, cells, threshold, metric)
    pool = np.empty(0, dtype=EDGE)
    edges = [np.empty(0, dtype=EDGE)]
    for r in itertools.count(1):
        # from stage 2 on, `live` holds no whole cell
        bound, blocks = source.stage(r, labels, live)
        pairs = _candidates(pts, labels, blocks, threshold, metric, pool)
        now = pairs["w"] <= np.where(source.whole[cells[pairs["u"]]], threshold, bound)
        if now.any():
            taken, labels = _kruskal(pairs, labels, np.flatnonzero(now))
            edges.append(taken)
        if bound >= threshold:
            break
        live = _live(labels, cells) & ~source.whole
        if not live.any():
            break
        pool = pairs[~now & (labels[pairs["u"]] != labels[pairs["v"]])]
    return np.concatenate(edges), labels


def level_step(rep_ids: np.ndarray, labels: np.ndarray, cells: np.ndarray,
               level_diam: float, eps: float, ps: PointSet):
    """One level's merge pass over all of its cells: in every cell, emit
    cross edges up to eps * level_diam, then summarize the cell with an
    eps^2 * level_diam covering and its induced labels.

    `rep_ids` are the level's surviving points in ascending order,
    `labels` their component labels and `cells` the index of each one's
    cell, numbered 0 ... k-1 with every number in use, as `slc` numbers
    them; no component may span two cells. An id names the point id mod
    ps.n, so one pass serves several repetitions: `slc` offsets the ids
    and labels of repetition j by j * ps.n, which keeps them ascending,
    and gives each repetition its own cells. The pass is exact and no
    component spans two repetitions, so each gets the edges, covering and
    labels, offset alike, of a pass of its own. An infinite level_diam
    removes the threshold, so merging runs until every cell is one
    component; that is the root. eps = 0 degenerates to exact
    closest-pair merging and a covering that keeps every point.

    `slc` hands the pass distinct points, as it joins exact duplicates
    before level 0; equal points would be merged like any pair at
    distance 0, and at eps = 0 both kept. The pass runs on the cells of
    two points or more, numbered densely in order with positions
    ascending, so every tie rule holds; the lone points rejoin its output,
    and a level of lone points comes back whole.

    Returns (covering ids in ascending order, their labels, tree edges as
    EDGE records on global ids with u < v, in (w, u, v) order).
    """
    if math.isinf(level_diam):
        threshold = radius = math.inf
    else:
        threshold = eps * level_diam
        radius = eps * eps * level_diam
    shared = np.bincount(cells) > 1
    keep = np.flatnonzero(shared[cells])
    if not len(keep):
        return rep_ids, labels, np.empty(0, dtype=EDGE)
    sub = (np.cumsum(shared) - 1)[cells[keep]]
    pts = ps.points[rep_ids[keep] % ps.n]
    labels = labels.copy()
    edges, labels[keep] = _merge_distinct(pts, labels[keep], sub, threshold, ps.metric)
    edges["u"], edges["v"] = rep_ids[keep[edges["u"]]], rep_ids[keep[edges["v"]]]
    out = ~shared[cells]
    out[keep[_covering(pts, sub, radius, ps.metric)]] = True
    return rep_ids[out], labels[out], edges[edge_order(edges["u"], edges["v"], edges["w"])]
