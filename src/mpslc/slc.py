"""Pipeline orchestration: repeated partitions feed level-wide merge passes,
their union of tree edges is finished by exact Boruvka, and clusterings
come from deleting the longest tree edges.

Exact duplicates share every cell at distance 0, so level 0 would join
each at weight 0 to its owner, the lowest id with its coordinates, and
keep the owners alone. That star joins the union once instead, and each
repetition accounts level 0 with every point but passes on the owners.

Every repetition samples a fresh random shift and contributes one forest.
The repetitions are independent, so consecutive ones run the levels in
lockstep, as many as fit `_PASS_VALUES` input coordinates, with ids and
labels offset by repetition * n. Level by level the surviving points are
grouped by repetition and cell, each repetition's round is accounted from
its own cell sizes (`run_level`), and one merge pass runs over the cells
of all of them (`level_step`); the root, a single cell per repetition,
runs unbounded, so each forest spans, in a pass of its own, which keeps
the largest working set one repetition's. The merge is exact and no
component spans two repetitions, so every forest, and every round, is
the one a repetition run alone gives. Edge weights are true metric
distances between endpoints, which makes the per-index comparison
against an exact tree sound.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CapacityError,
    InputError,
    PointSet,
    Seed,
    UnsupportedMetricError,
    Metric,
    derive_seed,
    row_runs,
    spanning_forest,
)
from .mpc import (
    MpcConfig,
    MpcContractError,
    MpcTrace,
    RoundStats,
    SpanningTree,
    WeightedEdgeList,
    boruvka_mst,
    edge_array,
    edge_records,
    run_level,
    spread,
)
from .partition import (
    PartitionParams,
    base_cell_coords,
    coords_at_level,
    level_diameter,
    sample_partition,
)
from .unitstep import level_step

# input coordinates, points x d, of the consecutive repetitions that
# share one bounded level pass; a repetition of more runs alone
_PASS_VALUES = 1 << 15


def derive_eps(eta: float, levels: int, b: float, c1: float, c2: float) -> float:
    """Merge-step accuracy from the target approximation factor:
    eps = min(eta / (6 c1 L b), eta / (3 c2))."""
    for name, value in (("eta", eta), ("levels", levels), ("b", b), ("c1", c1), ("c2", c2)):
        if not value > 0:
            raise InputError(f"{name} = {value:g} must be positive")
    if eta > 3:
        warnings.warn("per-edge guarantee is only stated for eta <= 3",
                      stacklevel=2)
    return min(eta / (6.0 * c1 * levels * b), eta / (3.0 * c2))


@dataclass(frozen=True)
class SlcParams:
    """Everything one pipeline run depends on, fully determined by the seed.
    The merge-step accuracy eps is derived, never passed."""

    eta: float
    repetitions: int
    c1: float
    c2: float
    partition: PartitionParams
    mpc: MpcConfig
    seed: Seed
    eps: float = field(init=False)

    def __post_init__(self):
        if self.repetitions < 1:
            raise InputError("repetitions must be >= 1")
        object.__setattr__(self, "eps", derive_eps(
            self.eta, self.partition.levels, self.partition.b_cut, self.c1, self.c2))
        if not 0.0 < self.eps < 1.0:
            raise InputError(
                f"eps = {self.eps:.6g} must lie in (0, 1): c1 = {self.c1:g} and "
                f"c2 = {self.c2:g} are too small for eta = {self.eta:g}")

    @classmethod
    def for_point_set(
        cls,
        ps: PointSet,
        eta: float,
        seed: Seed,
        repetitions: int | None = None,
        mpc: MpcConfig | None = None,
        alpha_grid: float = 2.0,
        levels: int | None = None,
        c1: float = 1.0,
        c2: float = 1.0,
    ) -> "SlcParams":
        part = PartitionParams.for_point_set(ps, alpha_grid=alpha_grid, levels=levels)
        if repetitions is None:
            repetitions = max(1, math.ceil(math.log2(max(2, ps.n))))
        if mpc is None:
            mpc = MpcConfig.auto(ps.n, ps.dim)
        return cls(eta=eta, repetitions=int(repetitions), c1=c1, c2=c2,
                   partition=part, mpc=mpc, seed=seed)


@dataclass
class Clustering:
    """k clusters as a label per point plus the split objective."""

    k: int
    labels: np.ndarray
    objective: float


def _cells(rep: np.ndarray, coords: np.ndarray):
    """Cells numbered 0 ... k-1 in (repetition, coordinates) order: the
    cell of every row, and the first row of every cell."""
    order, starts = row_runs(np.column_stack((rep, coords)))
    cells = np.empty(len(order), dtype=np.int64)
    cells[order] = np.cumsum(starts) - 1
    return cells, order[starts]


def duplicate_owners(points: np.ndarray) -> np.ndarray:
    """For every point, the lowest id with equal coordinates."""
    # + 0.0 turns -0.0 into 0.0, so equal coordinates have equal bits
    order, starts = row_runs((points + 0.0).view(np.int64))
    owner = np.empty_like(order)
    owner[order] = order[starts][np.cumsum(starts) - 1]
    return owner


def _lockstep(ps: PointSet, params: SlcParams, reps: range, distinct: np.ndarray,
              trace: MpcTrace) -> np.ndarray:
    """Run the repetitions `reps` through all levels in lockstep and append
    their rounds to `trace`, one repetition after another; returns their
    forest edges on input ids as EDGE records.

    The j-th repetition's ids and labels are offset by j * n. A bounded
    level groups the points by repetition and cell, accounts each
    repetition's round from its own cell sizes (`run_level`) and runs one
    merge pass over every cell (`level_step`); from level 0's pass on,
    only the owners, which `distinct` marks, go on. The root runs one
    pass per repetition, although `level_step` would take them all:
    sharing the roots cut the practical-constant `grid` operation (n =
    1200, 13 repetitions) from about 121 to 107 ms, but it raised the
    `grid` bench's peak RSS from 49.8-50.3 to 53.0 MB and the
    theorem-constant operation's tracemalloc peak from 4.4 to 7.6 MB, as
    the root's working set grows with the pass (5.9 MB even with probe
    blocks of 2^16). A repetition that `run_level` refuses stops there,
    and so do the later ones, while the earlier ones go on: the refusal
    raised is that of the lowest repetition refused, at its first
    refused level, as if they ran one after another.
    """
    n, d = ps.n, ps.dim
    levels = params.partition.levels
    rounds = []
    base = np.empty((len(reps) * n, d), dtype=np.int64)
    for j in range(len(reps)):
        part = sample_partition(ps, params.partition,
                                derive_seed(params.seed, f"repetition-{reps[j]}"))
        setup_words = n * (d + 2)
        rounds.append([RoundStats(*spread(setup_words, params.mpc), setup_words,
                                  setup_words, "partition")])
        base[j * n:(j + 1) * n] = base_cell_coords(part, ps.points)
    ids = np.arange(len(reps) * n, dtype=np.int64)
    labels = ids.copy()
    forest, refusal = [], None
    for level in range(levels + 1):
        rep = ids // n
        if level < levels:
            # the repetitions' grids differ in their shift alone, which
            # `base` holds; while every point survives, base is the rows
            rows = base if len(ids) == len(base) else base[ids]
            cells, heads = _cells(rep, coords_at_level(part, rows, level))
        else:
            # the root, the last level, is one cell per repetition
            del base, rows
            cells, heads = rep, np.searchsorted(ids, np.arange(rep[-1] + 1) * n)
        sizes = np.bincount(cells) * (d + 2)
        first = np.searchsorted(rep[heads], np.arange(rep[-1] + 2))
        for j in range(len(first) - 1):
            jobs = sizes[first[j]:first[j + 1]]
            try:
                rounds[j].append(run_level(jobs, params.mpc))
            except CapacityError as exc:
                where = "root" if level == levels else f"level {level}"
                head = heads[first[j] + exc.job]
                cell = ((0,) * d if level == levels
                        else tuple(coords_at_level(part, rows[head], level).tolist()))
                refusal = (f"repetition {reps[j]}, {where}, cell {cell}: {exc}", exc)
                end = np.searchsorted(ids, j * n)
                ids, labels, cells = ids[:end], labels[:end], cells[:end]
                break
        if not len(ids):
            break
        if level == 0:
            keep = distinct[ids % n]
            ids, labels, cells = ids[keep], labels[keep], cells[keep]
        if level < levels:
            steps = [level_step(ids, labels, cells, level_diameter(params.partition, level),
                                params.eps, ps)]
        else:
            bounds = np.searchsorted(ids, np.arange(ids[-1] // n + 2) * n)
            steps = [level_step(ids[a:b], labels[a:b], np.zeros(b - a, dtype=np.int64),
                                math.inf, params.eps, ps)
                     for a, b in zip(bounds[:-1], bounds[1:])]
        ids = np.concatenate([step[0] for step in steps])
        labels = np.concatenate([step[1] for step in steps])
        forest += [step[2] for step in steps]
    if refusal is not None:
        message, exc = refusal
        raise CapacityError(message) from exc
    if len(np.unique(labels)) != len(reps):
        raise MpcContractError("repetition finished with a disconnected forest")
    for stats in itertools.chain.from_iterable(rounds):
        trace.append(stats)
    edges = np.concatenate(forest)
    if np.bincount(edges["u"] // n, minlength=len(reps)).max() > n - 1:
        raise MpcContractError("a repetition emitted more than a forest")
    edges["u"] %= n
    edges["v"] %= n
    return edges


def approximate_mst(ps: PointSet, params: SlcParams):
    """Collected forests from every repetition, finished by exact Boruvka.

    Consecutive repetitions of at most `_PASS_VALUES` input coordinates in
    all run in lockstep (see `_lockstep`); a repetition of more runs alone.
    The result spans all points; its trace concatenates the per-level
    rounds of every repetition and the final Boruvka rounds.
    """
    if ps.metric is Metric.L0:
        raise UnsupportedMetricError(
            "Hamming inputs take the exact path; see the hamming module"
        )
    trace = MpcTrace()
    n = ps.n
    owner = duplicate_owners(ps.points)
    distinct = owner == np.arange(n)
    dup = np.flatnonzero(~distinct)
    forests = [edge_array(owner[dup], dup, 0.0)]
    group = max(1, _PASS_VALUES // (n * ps.dim))
    for first in range(0, params.repetitions, group):
        forests.append(_lockstep(ps, params, range(first, min(first + group, params.repetitions)),
                                 distinct, trace))
    graph = WeightedEdgeList.build(n, np.concatenate(forests))
    if len(graph.edges) > params.repetitions * (n - 1):
        raise MpcContractError("sparsifier exceeded repetitions * (n - 1) edges")
    tree, btrace = boruvka_mst(graph, params.mpc)
    trace.add_trace(btrace)
    if tree.n_components != 1:
        raise MpcContractError("edge union does not span the input")
    return tree, trace


def k_slc_from_mst(tree: SpanningTree, k: int, ps: PointSet) -> Clustering:
    """Clusters from deleting the k-1 longest tree edges (ties broken by
    (weight, u, v) descending); objective is the smallest deleted weight,
    reported as +inf for k = 1 where no split exists."""
    n = tree.n_vertices
    if ps.n != n:
        raise InputError("tree and point set disagree on n")
    if tree.n_components != 1:
        raise InputError("tree must span the point set")
    if not 1 <= k <= n:
        raise InputError(f"k must lie in [1, {n}]")
    objective = math.inf if k == 1 else float(tree.edges[n - k][2])
    keep = edge_records(tree.edges[: n - k])
    _taken, roots, _phases = spanning_forest(keep["u"], keep["v"], n)
    # roots are minimum member ids, so their ranks number the clusters in
    # order of first appearance
    _, labels = np.unique(roots, return_inverse=True)
    return Clustering(k=k, labels=labels, objective=objective)


@dataclass
class EdgeReport:
    """Per-sorted-index comparison of an approximate tree against an exact one."""

    violations: list
    max_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_per_edge_guarantee(approx: SpanningTree, exact: SpanningTree,
                              eta: float) -> EdgeReport:
    """Check exact_i <= approx_i <= (1+eta) * exact_i for every sorted index;
    eta must be non-negative and finite."""
    if not 0 <= eta < math.inf:
        raise InputError(f"eta = {eta:g} must be non-negative and finite")
    if approx.n_vertices != exact.n_vertices or len(approx.edges) != len(exact.edges):
        raise InputError("trees must span the same point set")
    wa = approx.sorted_weights()
    we = exact.sorted_weights()
    slack = 1e-12
    ok = (we <= wa * (1 + slack) + 1e-300) & (wa <= (1 + eta) * we * (1 + slack))
    # approx / exact, and where exact is 0: infinite if approx > 0, else 1
    ratio = np.divide(wa, we, out=np.where(wa > 0, math.inf, 1.0), where=we > 0)
    return EdgeReport(violations=np.flatnonzero(~ok).tolist(),
                      max_ratio=float(ratio.max(initial=1.0)))
