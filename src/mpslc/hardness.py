"""Deterministic generators for distance-gap instances, plus a seeded
Gaussian projection.

Cycle instances place a unit on a vertex's own coordinate and xi on each
neighbor coordinate, v_i = e_i + xi * (e_{i-1} + e_{i+1}). Their pairwise
distances take three values: the near value at cycle distance 1, a middle
value at cycle distance 2 (where the shared neighbor coordinate cancels)
and the far value at every greater cycle distance and between the two
cycles of a two-cycle instance; gen_cycle_vectors gives the closed forms.
Connectivity instances place a unit on both endpoint coordinates of every
edge; the Hamming instance maps vertices to (i, i) and edges to (i, j) in
the integer plane. xi defaults to the ratio maximizers 1/sqrt(2)
(Euclidean) and 1 (taxicab).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    InputError,
    Metric,
    PointSet,
    Seed,
    SparsePoint,
    rng_stream,
    spanning_forest,
)

XI_DEFAULT = {Metric.L2: 1.0 / math.sqrt(2.0), Metric.L1: 1.0}
MIN_CYCLE_LEN = 5
# the C of the projection dimension C ln(n) / eps^2
C_JL = 8.0


class GraphKind(Enum):
    ONE_CYCLE = "one-cycle"
    TWO_CYCLES = "two-cycles"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class GraphInstance:
    """Simple undirected graph; cycle kinds are validated structurally."""

    n_vertices: int
    edges: tuple
    kind: GraphKind

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InputError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InputError("self-loops are not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges",
                           tuple((int(u), int(v)) for u, v in self.edges))
        if self.kind is GraphKind.ONE_CYCLE and sorted(self.cycle_lengths()) != [self.n_vertices]:
            raise InputError("one-cycle instance must be a single n-cycle")
        if self.kind is GraphKind.TWO_CYCLES:
            half = self.n_vertices // 2
            if self.n_vertices % 2 or sorted(self.cycle_lengths()) != [half, half]:
                raise InputError("two-cycles instance must be two n/2-cycles")

    @classmethod
    def one_cycle(cls, n: int) -> "GraphInstance":
        if n < 3:
            raise InputError("a cycle needs at least 3 vertices")
        edges = tuple((i, (i + 1) % n) for i in range(n))
        return cls(n_vertices=n, edges=edges, kind=GraphKind.ONE_CYCLE)

    @classmethod
    def two_cycles(cls, n: int) -> "GraphInstance":
        if n < 6 or n % 2:
            raise InputError("two cycles need an even n >= 6")
        half = n // 2
        edges = tuple((i, (i + 1) % half) for i in range(half))
        edges += tuple((half + i, half + (i + 1) % half) for i in range(half))
        return cls(n_vertices=n, edges=edges, kind=GraphKind.TWO_CYCLES)

    def degrees(self) -> np.ndarray:
        ends = np.asarray(self.edges, dtype=np.int64).ravel()
        return np.bincount(ends, minlength=self.n_vertices)

    def neighbors(self) -> list:
        adj = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return [sorted(a) for a in adj]

    def cycle_lengths(self) -> list:
        """Component sizes, meaningful when every degree is exactly 2."""
        if not np.all(self.degrees() == 2):
            return []
        u, v = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2).T
        _taken, labels, _phases = spanning_forest(u, v, self.n_vertices)
        sizes = np.bincount(labels)
        return sorted(sizes[sizes > 0].tolist())


def gen_cycle_vectors(g: GraphInstance, xi: float | None = None,
                      metric: Metric = Metric.L2) -> list:
    """Vertex vectors e_i + xi * sum of neighbor basis vectors; 3 nonzeros each.

    Requires a finite xi and a 2-regular graph whose cycles have length
    >= 5, so that adjacent vertices have disjoint remaining neighborhoods
    and the adjacent-pair distance takes its closed form. Pairwise
    distances take exactly three values (l2 / l1):

    - cycle distance 1: sqrt(2 (1-xi)^2 + 2 xi^2) / 2|1-xi| + 2 xi;
    - cycle distance 2: sqrt(2 + 2 xi^2) / 2 + 2 xi, since the shared
      neighbor coordinate cancels;
    - otherwise: sqrt(2 + 4 xi^2) / 2 + 4 xi, from disjoint supports.

    Between the two cycles of a two-cycle instance only the far value
    occurs. At the default xi the values are 1.0823922, sqrt(3), 2 (l2)
    and 2, 4, 6 (l1).
    """
    if metric not in (Metric.L1, Metric.L2):
        raise InputError("cycle instances are defined for L1 and L2")
    if xi is None:
        xi = XI_DEFAULT[metric]
    if not math.isfinite(xi):
        raise InputError(f"xi = {xi:g} must be finite")
    if not np.all(g.degrees() == 2):
        raise InputError("cycle vectors require a 2-regular graph")
    lengths = g.cycle_lengths()
    if min(lengths) < MIN_CYCLE_LEN:
        raise InputError(f"cycles must have length >= {MIN_CYCLE_LEN}")
    adj = g.neighbors()
    out = []
    for i in range(g.n_vertices):
        entries = sorted([(i, 1.0)] + [(j, float(xi)) for j in adj[i]])
        out.append(SparsePoint(entries=tuple(entries), dim=g.n_vertices))
    return out


def gen_edge_vectors(g: GraphInstance, metric: Metric = Metric.L2) -> list:
    """One vector per edge with unit entries on its two endpoint coordinates."""
    if metric not in (Metric.L1, Metric.L2):
        raise InputError("connectivity instances are defined for L1 and L2")
    if np.any(g.degrees() == 0):
        raise InputError("connectivity instances require no isolated vertices")
    out = []
    for u, v in g.edges:
        lo, hi = (u, v) if u < v else (v, u)
        out.append(SparsePoint(entries=((lo, 1.0), (hi, 1.0)), dim=g.n_vertices))
    return out


def gen_hamming_points(g: GraphInstance) -> PointSet:
    """Integer plane instance: (i, i) per vertex and (i, j) per edge."""
    rows = [(float(i), float(i)) for i in range(g.n_vertices)]
    rows += [(float(u), float(v)) for u, v in g.edges]
    return PointSet(points=np.asarray(rows, dtype=np.float64), metric=Metric.L0)


@dataclass(frozen=True)
class JlParams:
    """Projection shape: target dimension and seed."""

    target_dim: int
    seed: Seed

    def __post_init__(self):
        if self.target_dim < 1:
            raise InputError("target_dim must be >= 1")

    @classmethod
    def auto(cls, n_points: int, eps: float, seed: Seed) -> "JlParams":
        """Smallest dimension meeting target_dim >= ceil(C_JL * ln(n) / eps^2)."""
        if not 0 < eps < 1:
            raise InputError("eps must lie in (0, 1)")
        dim = math.ceil(C_JL * math.log(max(2, n_points)) / (eps * eps))
        return cls(target_dim=dim, seed=seed)


def jl_project(vs: list, p: JlParams) -> PointSet:
    """Seeded Gaussian projection (scaled by 1/sqrt(target_dim)) of sparse
    vectors into a dense Euclidean point set, exploiting sparsity."""
    if not vs:
        raise InputError("nothing to project")
    dim = vs[0].dim
    for v in vs:
        if v.dim != dim:
            raise InputError("all vectors must share a dimension")
    rng = rng_stream(p.seed, "jl-matrix")
    mat = rng.standard_normal((p.target_dim, dim)) / math.sqrt(p.target_dim)
    out = np.zeros((len(vs), p.target_dim), dtype=np.float64)
    counts = np.array([len(v.entries) for v in vs])
    entries = np.array([e for v in vs for e in v.entries]).reshape(-1, 2)
    rows = np.repeat(np.arange(len(vs)), counts)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    # one pass per entry slot adds each row's entries in their order, as
    # one loop over the entries would; products are made in place
    for k in range(int(counts.max())):
        at = slot == k
        term = mat.T[entries[at, 0].astype(np.int64)]
        term *= entries[at, 1][:, None]
        out[rows[at]] += term
    return PointSet(points=out, metric=Metric.L2)
