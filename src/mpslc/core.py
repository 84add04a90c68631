"""Shared domain types: metrics, point sets, sparse vectors, seeded randomness.

All geometry runs in 64-bit floats. Comparisons that drive algorithmic
branching use exact comparison on the computed values, never an epsilon.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np


class InputError(ValueError):
    """Caller-supplied data violates an operation's contract."""


class CapacityError(RuntimeError):
    """An input exceeds a configured size budget; `job`, where given, is
    the index of the refused job."""

    def __init__(self, message: str, job: int | None = None):
        super().__init__(message)
        self.job = job


class UnsupportedMetricError(InputError):
    """The requested metric is not supported by this operation."""


class Metric(Enum):
    """Distance function tag: Hamming, taxicab, Euclidean or Chebyshev."""

    L0 = "l0"
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def parse(cls, name: str) -> "Metric":
        key = name.strip().lower()
        for m in cls:
            if m.value == key:
                return m
        raise InputError(f"unknown metric {name!r}; expected one of l0, l1, l2, linf")


# float64 values in one chunk of `pair_distances`' gathered endpoints:
# 256 KB, so a chunk's two endpoint blocks stay in a core's L2 cache
_CHUNK = 1 << 15


def pair_distances(pts: np.ndarray, u: np.ndarray, v: np.ndarray, metric: Metric) -> np.ndarray:
    """Distances between rows pts[u[k]] and pts[v[k]] for every k, made
    in place chunk by chunk into the output. Below 8 columns a chunk is
    reduced column by column, from 8 on along each row: numpy sums fewer
    than 8 terms in order, so every distance is bit for bit that of one
    unchunked reduction along the rows."""
    out = np.empty(len(u))
    width = pts.shape[1]
    step = max(1, _CHUNK // width)
    fold = np.maximum if metric is Metric.LINF else np.add
    for k in range(0, len(u), step):
        d, e = pts[u[k:k + step]], pts[v[k:k + step]]
        if metric is Metric.L0:
            np.not_equal(d, e, out=d)
        elif metric is Metric.L2:
            np.square(np.subtract(d, e, out=d), out=d)
        else:
            np.abs(np.subtract(d, e, out=d), out=d)
        part = out[k:k + step]
        if width < 8:
            part[:] = d[:, 0]
            for j in range(1, width):
                fold(part, d[:, j], out=part)
        else:
            fold.reduce(d, axis=1, out=part)
    return np.sqrt(out, out=out) if metric is Metric.L2 else out


def spanning_forest(a, b, n: int):
    """Kruskal's forest of the edges (a[k], b[k]) over the ids 0 .. n-1,
    taken in index order, by Boruvka on arrays.

    Each phase every component takes its lowest-index cross edge. Of two
    components that took the same edge the smaller is the root; every
    other one hooks onto the far end of its edge, and pointer jumping
    flattens the hooks. Index order is strict, so the forest is unique
    and equals Kruskal's, and a phase at least halves the components that
    have a cross edge.

    Returns the indices of the taken edges in ascending order, every id's
    label (the minimum id of its component) and the number of edges each
    phase took.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m = len(a)
    labels = np.arange(n, dtype=np.int64)
    live = np.arange(m, dtype=np.int64)
    taken, phases = [np.empty(0, dtype=np.int64)], []
    while True:
        la, lb = labels[a[live]], labels[b[live]]
        cross = la != lb
        if not cross.all():
            live, la, lb = live[cross], la[cross], lb[cross]
        if not len(live):
            break
        best = np.full(n, m, dtype=np.int64)
        np.minimum.at(best, la, live)
        np.minimum.at(best, lb, live)
        comps = np.flatnonzero(best < m)
        pick = best[comps]
        ends = labels[a[pick]]
        far = np.where(ends == comps, labels[b[pick]], ends)
        root = (best[far] == pick) & (comps < far)
        up = np.arange(n, dtype=np.int64)
        up[comps] = np.where(root, comps, far)
        while np.any(up[up[comps]] != up[comps]):
            up[comps] = up[up[comps]]
        low = np.arange(n, dtype=np.int64)
        np.minimum.at(low, up[comps], comps)
        labels = low[up[labels]]
        # every edge taken is the pick of exactly one component that hooks
        taken.append(pick[~root])
        phases.append(len(taken[-1]))
    return np.sort(np.concatenate(taken)), labels, phases


def row_runs(keys: np.ndarray):
    """Positions in stable lexicographic order of their rows of the int64
    array `keys`, and a mask of the positions in that order that start a
    run of equal rows; by stability each run starts at its lowest position.
    Columns are packed into words by mixed radix from their minima while
    the product of their ranges stays below 2^63; the sort stops at the
    first 1, 2, 4, ... words that tell all rows apart, as the full order
    refines theirs. A first word whose range times the row count stays
    below 2^63 takes the position as its last digit, so one plain sort of
    distinct numbers gives its stable order."""
    n = len(keys)
    if n < 2:
        return np.arange(n), np.ones(n, dtype=bool)
    # numpy reduces a few long columns one by one far faster than along axis 0
    if keys.shape[1] < 16:
        lo = np.array([col.min() for col in keys.T])
        hi = np.array([col.max() for col in keys.T])
    else:
        lo, hi = keys.min(axis=0), keys.max(axis=0)
    # in uint64, as the bit patterns of floats can span more than 2^63
    span = hi.astype(np.uint64) - lo.astype(np.uint64)
    radix = [r + 1 for r in span.tolist()]
    groups, sizes = [], []
    for j, r in enumerate(radix):
        if not sizes or sizes[-1] * r >= 2**63:
            groups.append([])
            sizes.append(1)
        groups[-1].append(j)
        sizes[-1] *= r
    words, p = [], 1
    while True:
        for g, size in zip(groups[len(words):p], sizes[len(words):p]):
            if size >= 2**63:  # one column, whose offsets from its minimum overflow
                words.append(keys[:, g[0]])
                continue
            word = keys[:, g[0]] - lo[g[0]]
            for j in g[1:]:
                word *= radix[j]
                word += keys[:, j] - lo[j]
            words.append(word)
        if p == 1 and sizes[0] * n < 2**63:
            order = _stable_argsort(words[0])
        else:
            order = np.lexsort(words[::-1])
        ordered = np.stack(words)[:, order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
        if len(words) == len(groups) or starts.all():
            return order, starts
        p *= 2


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """np.argsort(key, kind="stable") of nonnegative int64 keys whose
    largest times len(key) stays below 2^63: with the position as the
    last digit, one plain sort of distinct numbers gives the order."""
    n = len(key)
    order = key * n + np.arange(n)
    order.sort()
    order %= n
    return order


def edge_order(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positions in stable (w, u, v) order, as np.lexsort((v, u, w)) gives
    them, from single-key sorts: the stable order of the packed key
    (u - min u) * (max v - min v + 1) + v - min v, or a lexsort of (u, v)
    where the key and the position would not fit 63 bits, then a stable
    sort by w."""
    n = len(u)
    if n < 2:
        return np.arange(n)
    ulo, vlo = int(u.min()), int(v.min())
    radix = int(v.max()) - vlo + 1
    if (int(u.max()) - ulo + 1) * radix * n < 2**63:
        order = _stable_argsort((u - ulo) * radix + (v - vlo))
    else:
        order = np.lexsort((v, u))
    return order[np.argsort(w[order], kind="stable")]


@dataclass(frozen=True)
class PointSet:
    """n points in R^d with a metric tag; row index doubles as the point id."""

    points: np.ndarray
    metric: Metric

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise InputError("points must be a 2-d array (n rows, d columns)")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise InputError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputError("coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SparsePoint:
    """High-dimensional vector stored as sorted (index, value) pairs."""

    entries: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((int(i), float(v)) for i, v in self.entries)
        )
        prev = -1
        for i, v in self.entries:
            if i <= prev:
                raise InputError("entry indices must be strictly increasing")
            if i >= self.dim:
                raise InputError(f"entry index {i} out of range for dim {self.dim}")
            if v == 0.0:
                raise InputError("entry values must be nonzero")
            prev = i

    def densify(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        for i, v in self.entries:
            out[i] = v
        return out


@dataclass(frozen=True)
class Seed:
    """64-bit seed; identical seeds yield bit-identical random streams."""

    value: int

    def __post_init__(self):
        if not 0 <= int(self.value) < 2**64:
            raise InputError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "value", int(self.value))


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[k : k + 8], "big") for k in (0, 8, 16, 24)]


def rng_stream(seed: Seed, stream_label: str) -> np.random.Generator:
    """Deterministic generator for (seed, label); distinct labels give
    independent-looking streams, the same pair always replays identically."""
    ss = np.random.SeedSequence([seed.value] + _label_words(stream_label))
    return np.random.default_rng(ss)


def derive_seed(seed: Seed, label: str) -> Seed:
    """Child seed for an independent subcomputation (repetitions, projections)."""
    payload = seed.value.to_bytes(8, "big") + label.encode("utf-8")
    return Seed(int.from_bytes(hashlib.sha256(payload).digest()[:8], "big"))
