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
    """An input exceeds a configured size budget."""


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


def _reduce(a, b, metric: Metric, axis: int):
    """Distances between broadcast rows of a and b along `axis`; L0 counts
    coordinates that differ under exact equality."""
    if metric is Metric.L0:
        return np.count_nonzero(a != b, axis=axis).astype(np.float64)
    d = a - b
    if metric is Metric.L1:
        return np.sum(np.abs(d), axis=axis)
    if metric is Metric.L2:
        return np.sqrt(np.sum(d * d, axis=axis))
    return np.max(np.abs(d), axis=axis)


def distance(u, v, metric: Metric) -> float:
    """Exact distance between two equal-dimension vectors under the metric.

    L0 counts differing coordinates (exact equality test), LINF is the
    maximum absolute coordinate difference.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(_reduce(a, b, metric, -1)) if a.size else 0.0


def pair_distances(pts: np.ndarray, u: np.ndarray, v: np.ndarray, metric: Metric) -> np.ndarray:
    """Distances between rows pts[u[k]] and pts[v[k]] for every k."""
    return _reduce(pts[u], pts[v], metric, 1)


class UnionFind:
    """Disjoint sets over the ids 0 .. n-1.

    Finds compress paths, and a union keeps the smaller of the two roots,
    so every root is the minimum id of its set.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo
        return True

    def roots(self) -> np.ndarray:
        """The root of every id, by pointer jumping over the parents."""
        up = np.asarray(self.parent, dtype=np.int64)
        while True:
            jumped = up[up]
            if np.array_equal(jumped, up):
                return up
            up = jumped


def row_runs(keys: np.ndarray):
    """Positions in stable lexicographic order of their rows of `keys`,
    and a mask of the positions in that order that start a run of equal
    rows; by stability each run starts at its lowest position."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order, starts


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
