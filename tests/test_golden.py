"""Fixed-seed identity gate for the whole pipeline.

Each case runs one small input end to end and compares the tree's
`(u, v)` list exactly, its weights to relative 1e-12, every field of
every trace round exactly, and the k = 2 and k = 10 cluster labels
exactly against the values stored in `golden.json`. A change that is
meant to keep outputs identical must pass this unchanged.

The theorem-constant clouds keep all their points up to the root cell,
whose shells grow over the bucket grid until one component is left; in
the clustered cloud they reach from cluster to cluster; the d = 5 l1
cloud grows them over a 5-d grid. The d = 8 l2 and d = 12 linf clouds,
above `GRID_MAX_DIM`, pair all points of a cell in one pass everywhere.
The practical-constant l1, l2 and linf clouds emit edges and shrink
coverings on bounded levels, under a budget small enough that levels
pack onto several machines. The integer cloud has exact duplicates:
zero-weight edges, zero-extent cells and many tied distances on bounded
levels.

To re-record after a deliberate change of outputs:
`PYTHONPATH=src python tests/test_golden.py`.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mpslc.core import Metric, PointSet, Seed
from mpslc.hamming import hamming_mst
from mpslc.mpc import MpcConfig
from mpslc.slc import SlcParams, approximate_mst, k_slc_from_mst

GOLDEN = Path(__file__).with_name("golden.json")
KS = (2, 10)


def _cloud(n, d, metric, seed):
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, d))
    return PointSet(points=pts, metric=metric)


def _int_cloud(n, d, metric, seed):
    pts = np.random.default_rng(seed).integers(0, 6, (n, d)).astype(float)
    return PointSet(points=pts, metric=metric)


def _clustered_cloud(n, d, metric, seed, clusters=4, sd=0.01):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (clusters, d))
    pts = centers[rng.integers(0, clusters, n)] + rng.normal(0.0, sd, (n, d))
    return PointSet(points=pts, metric=metric)


def _grid_case(n, d, metric, seed, c=1.0, mpc=None, cloud=_cloud):
    ps = cloud(n, d, metric, seed)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(seed), repetitions=2,
                                     mpc=mpc, c1=c, c2=c)
    return ps, approximate_mst(ps, params)


def _hamming_case(n, d, seed):
    pts = np.random.default_rng(seed).integers(0, 3, (n, d)).astype(float)
    ps = PointSet(points=pts, metric=Metric.L0)
    return ps, hamming_mst(ps, MpcConfig.auto(n, d))


CASES = {
    "l1-theorem": lambda: _grid_case(300, 3, Metric.L1, 1),
    "l2-theorem": lambda: _grid_case(300, 3, Metric.L2, 2),
    "linf-theorem": lambda: _grid_case(300, 3, Metric.LINF, 3),
    "l2-d8-brute": lambda: _grid_case(200, 8, Metric.L2, 4),
    "l2-practical": lambda: _grid_case(300, 3, Metric.L2, 5, c=0.004,
                                       mpc=MpcConfig(space_s=2000)),
    "l1-practical": lambda: _grid_case(300, 3, Metric.L1, 7, c=0.0012,
                                       mpc=MpcConfig(space_s=2000)),
    "linf-practical": lambda: _grid_case(300, 3, Metric.LINF, 8, c=0.004,
                                         mpc=MpcConfig(space_s=2000)),
    "l1-int-duplicates": lambda: _grid_case(300, 3, Metric.L1, 9, c=0.004,
                                            cloud=_int_cloud),
    "l1-clustered-theorem": lambda: _grid_case(400, 3, Metric.L1, 10,
                                               cloud=_clustered_cloud),
    "hamming-d6": lambda: _hamming_case(200, 6, 6),
    "l1-d5-theorem": lambda: _grid_case(300, 5, Metric.L1, 11),
    "linf-d12-theorem": lambda: _grid_case(200, 12, Metric.LINF, 12),
}


def _record(name) -> dict:
    ps, (tree, trace) = CASES[name]()
    return {
        "uv": [[u, v] for u, v, _ in tree.edges],
        "weights": [w for _, _, w in tree.edges],
        "rounds": [dataclasses.asdict(r) for r in trace.per_round],
        "labels": {str(k): k_slc_from_mst(tree, k, ps).labels.tolist() for k in KS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_identity(golden, name):
    want = golden[name]
    got = _record(name)
    assert got["uv"] == want["uv"]
    np.testing.assert_allclose(got["weights"], want["weights"], rtol=1e-12, atol=0)
    assert got["rounds"] == want["rounds"]
    assert got["labels"] == want["labels"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _record(name) for name in sorted(CASES)},
                                 separators=(",", ":")) + "\n")
