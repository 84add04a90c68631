"""The benchmark's workloads: seeded inputs with every parameter explicit.

An operation is one tree build with its k-clusterings on one input. Each
workload is a list of operations made from the seed alone, so the same
seed gives the same inputs, partitions and traces. Every parameter the
pipeline reads (eta, c1, c2, repetitions, levels, the grid factor and the
MPC word budget s) is passed here, so a later change of the program's
defaults does not change what a workload runs.

The two workloads (see README.md for the layer each one stresses):

- grid: every input of the grid path, in three groups. Theorem constants
  on a 3-d cloud under l1, l2 and linf, where bounded levels emit no edge
  and time goes to one closure per cell and to the root exact EMST (the
  l1 root the costliest). Small c1 = c2 and a sublinear budget on an l2
  cloud, where bounded levels merge, coverings shrink, jobs pack onto
  several machines and the root stays tiny. JL-projected cycle
  instances, where at d > GRID_MAX_DIM every cell takes the brute engine,
  whose memory grows as m^2 d, and set-up runs the hardness generators.
- hamming-exact: the exact Hamming path (2^d mask sorts and weight-class
  connectivity), which bypasses partition and unitstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpslc import hamming, hardness, slc
from mpslc.core import Metric, PointSet, Seed
from mpslc.mpc import MpcConfig
from mpslc.slc import SlcParams

ETA = 0.5
KS = (2, 10, 100)
ALPHA_GRID = 2.0


@dataclass(frozen=True)
class Operation:
    """One input and the parameters of its pipeline call.

    `params` selects the grid path; without it the input takes the exact
    Hamming path under `cfg`. `upper` is the per-sorted-edge factor the
    tree must meet against the exact tree, where the workload promises
    one. `half` marks a two-cycles instance of 2 * half vertices.
    """

    label: str
    ps: PointSet
    cfg: MpcConfig
    params: SlcParams | None = None
    upper: float | None = None
    half: int | None = None

    @property
    def exact(self) -> bool:
        return self.params is None

    def run(self):
        """The timed pipeline calls: tree and trace, then the clusterings."""
        if self.params is None:
            tree, trace = hamming.hamming_mst(self.ps, self.cfg)
        else:
            tree, trace = slc.approximate_mst(self.ps, self.params)
        clusterings = [slc.k_slc_from_mst(tree, k, self.ps) for k in KS]
        return tree, trace, clusterings


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _grid_op(label: str, ps: PointSet, seed: int, c: float, repetitions: int,
             space_s: int, upper: float | None, half: int | None = None) -> Operation:
    cfg = MpcConfig(space_s=space_s)
    params = SlcParams.for_point_set(
        ps, eta=ETA, seed=Seed(seed), repetitions=repetitions, mpc=cfg,
        alpha_grid=ALPHA_GRID, levels=math.ceil(math.log2(ps.n)), c1=c, c2=c)
    return Operation(label, ps, cfg, params=params, upper=upper, half=half)


def cloud_theorem(seed: int) -> list:
    """One uniform 3-d cloud under l1, l2 and linf; c1 = c2 = 1,
    2 repetitions and s = 4 n (d + 2)."""
    n, d = 1500, 3
    points = _rng(seed, 1).random((n, d))
    return [_grid_op(f"theorem-{m.value}", PointSet(points=points, metric=m), seed, c=1.0,
                     repetitions=2, space_s=4 * n * (d + 2), upper=1 + ETA)
            for m in (Metric.L1, Metric.L2, Metric.LINF)]


def cloud_practical(seed: int) -> list:
    """A uniform 3-d l2 cloud; c1 = c2 = 0.003, 13 repetitions and the
    sublinear budget s = floor(15 n^0.75). No per-edge bound is promised
    at these constants, so the ratio is reported, not checked."""
    n, d = 1200, 3
    ps = PointSet(points=_rng(seed, 2).random((n, d)), metric=Metric.L2)
    return [_grid_op("practical-l2", ps, seed, c=0.003, repetitions=13,
                     space_s=math.floor(15 * n ** 0.75), upper=None)]


def hamming_exact(seed: int) -> list:
    """Integer points over the alphabet {0, 1, 2}: n = 500 at d = 8 and
    n = 100 at d = 11, each with s = 4 n (d + 2)."""
    ops = []
    for stream, (n, d) in enumerate(((500, 8), (100, 11)), start=3):
        points = _rng(seed, stream).integers(0, 3, (n, d)).astype(np.float64)
        ops.append(Operation(f"n{n}-d{d}", PointSet(points=points, metric=Metric.L0),
                             MpcConfig(space_s=4 * n * (d + 2))))
    return ops


def jl_cycles(seed: int) -> list:
    """The one-cycle and two-cycles instances on n = 400 vertices, each
    projected at JL eps 0.5; theorem constants, 2 repetitions and
    s = 4 n (d + 2)."""
    n = 400
    ops = []
    for label, graph in (("one-cycle", hardness.GraphInstance.one_cycle(n)),
                         ("two-cycles", hardness.GraphInstance.two_cycles(n))):
        vectors = hardness.gen_cycle_vectors(graph, metric=Metric.L2)
        ps = hardness.jl_project(vectors, hardness.JlParams.auto(n, 0.5, Seed(seed)))
        half = n // 2 if graph.kind is hardness.GraphKind.TWO_CYCLES else None
        ops.append(_grid_op(label, ps, seed, c=1.0, repetitions=2,
                            space_s=4 * n * (ps.dim + 2), upper=1 + ETA, half=half))
    return ops


def grid(seed: int) -> list:
    """The grid-path inputs: theorem clouds, the practical cloud, JL cycles."""
    return cloud_theorem(seed) + cloud_practical(seed) + jl_cycles(seed)


WORKLOADS = {
    "grid": grid,
    "hamming-exact": hamming_exact,
}
