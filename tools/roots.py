"""Time exact roots, each in a fresh process, and print one JSON line per
case: wall seconds of `level_step`, peak `ru_maxrss` in MB, the number of
pair distances measured and a hash of the tree.

A root is one `level_step` with an infinite threshold over all points in
one cell: the exact minimum spanning tree, the heaviest level pass of a
run at theorem constants. A case `<metric>-d<dim>` is n uniform points in
[0, 1)^dim (numpy seed 80000) under l1, l2 or linf, n = 20000 unless
`--n` is given. A case `jl-d<dim>` is the one-cycle hardness instance
projected to dim dimensions (`Seed(81)`) under l2, n = 5000 unless `--n`
is given. A case `int-d<dim>` is the distinct points among n integer
points in [0, 20)^dim (numpy seed 80000), the lowest id of each as
`slc.duplicate_owners` finds it, under `--metric` (l2 unless given),
n = 20000 unless `--n` is given: a tied root, which like every root
`slc` runs holds no exact duplicates. The default cases are d = 3, 5
and 6 under l1 and l2, and jl-d192.

    PYTHONPATH=src python tools/roots.py
    PYTHONPATH=src python tools/roots.py l2-d7 l2-d8 --n 5000 --grid-max-dim 8
    PYTHONPATH=src python tools/roots.py int-d3 --metric l1

`--grid-max-dim` sets `unitstep.GRID_MAX_DIM` in the child process only,
to time the bucket grid against the Gram bounds at one dimension. The
tree hash is the first 16 hex digits of a SHA-256 over the edge records.
This script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import subprocess
import sys
import time

CASES = [f"{metric}-d{dim}" for dim in (3, 5, 6) for metric in ("l1", "l2")] + ["jl-d192"]
CASE = re.compile(r"(l1|l2|linf|jl|int)-d([1-9][0-9]*)")


def point_set(case: str, n: int, metric: str):
    """The case's points: uniform, distinct integer, or the projected
    one-cycle instance."""
    import numpy as np

    from mpslc import hardness
    from mpslc.core import Metric, PointSet, Seed
    from mpslc.slc import duplicate_owners

    kind, dim = CASE.fullmatch(case).groups()
    if kind == "jl":
        vectors = hardness.gen_cycle_vectors(hardness.GraphInstance.one_cycle(n),
                                             metric=Metric.L2)
        return hardness.jl_project(vectors, hardness.JlParams(int(dim), Seed(81)))
    rng = np.random.default_rng(80000)
    if kind == "int":
        points = rng.integers(0, 20, (n, int(dim))).astype(float)
        return PointSet(points=points[duplicate_owners(points) == np.arange(n)],
                        metric=Metric.parse(metric))
    return PointSet(points=rng.random((n, int(dim))), metric=Metric.parse(kind))


def run_case(case: str, n: int, grid_max_dim: int | None, metric: str) -> dict:
    """One exact root in this process, timed, with its pair distances counted."""
    import numpy as np

    from mpslc import unitstep

    if grid_max_dim is not None:
        unitstep.GRID_MAX_DIM = grid_max_dim
    measured = [0]
    pair_distances = unitstep.pair_distances

    def counting(pts, u, v, metric):
        measured[0] += len(u)
        return pair_distances(pts, u, v, metric)

    unitstep.pair_distances = counting
    ps = point_set(case, n, metric)
    ids = np.arange(ps.n, dtype=np.int64)
    start = time.perf_counter()
    _cover, _labels, edges = unitstep.level_step(ids, ids, np.zeros(ps.n, dtype=np.int64),
                                                 float("inf"), 0.5, ps)
    wall = time.perf_counter() - start
    return {"case": case, "metric": ps.metric.value, "n": ps.n,
            "grid_max_dim": unitstep.GRID_MAX_DIM,
            "wall_s": round(wall, 3),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "pair_distances": measured[0],
            "tree": hashlib.sha256(edges.tobytes()).hexdigest()[:16]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cases", nargs="*", default=CASES, help="cases such as l1-d5 or jl-d192")
    p.add_argument("--n", type=int, help="points per case (default 20000, and 5000 for jl)")
    p.add_argument("--grid-max-dim", type=int)
    p.add_argument("--metric", choices=("l1", "l2", "linf"), default="l2",
                   help="metric of the int cases (default l2)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    unknown = [case for case in args.cases if not CASE.fullmatch(case)]
    if unknown:
        p.error(f"unknown cases: {', '.join(unknown)}")
    if args.n is not None and args.n < 2:
        p.error("--n must be at least 2")
    if args.child:
        print(json.dumps(run_case(args.cases[0], args.n, args.grid_max_dim, args.metric)))
        return 0
    for case in args.cases:
        n = args.n or (5000 if case.startswith("jl") else 20_000)
        cmd = [sys.executable, __file__, case, "--n", str(n), "--metric", args.metric,
               "--child"]
        if args.grid_max_dim is not None:
            cmd += ["--grid-max-dim", str(args.grid_max_dim)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
