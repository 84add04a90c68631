"""Time whole pipeline runs at scale, each in a fresh process, and print one
JSON line per case: wall seconds of `approximate_mst`, peak `ru_maxrss` in
MB, the trace's round count and a hash of the tree.

Every case is n uniform points in [0, 1)^3 under l2 (numpy seed 80000,
`Seed(81)`), n = 100000 unless `--n` is given, with eta = 0.5 and the
default word budget:

- theorem-2reps: c1 = c2 = 1 and 2 repetitions, the run of criterion 8;
- practical-1rep: c1 = c2 = 0.003 and 1 repetition;
- theorem-default: c1 = c2 = 1 and the default repetitions, ceil(log2 n),
  as `mpslc run` takes them.

A `hamming-d<dim>` case times `hamming_mst` instead, under
`MpcConfig.auto`, on n points uniform in {0, 1, 2}^dim (numpy seed 7).
Unless `--n` is given, n is 2000 up to dim 12, 200 up to dim 16 and 40
above.

    PYTHONPATH=src python tools/scale.py
    PYTHONPATH=src python tools/scale.py practical-1rep --n 1000000
    PYTHONPATH=src python tools/scale.py hamming-d12 hamming-d16 hamming-d20

The tree hash is the first 16 hex digits of a SHA-256 over the tree's
edge records. This script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

# case: (c1 = c2, repetitions or None for the default)
CASES = {
    "theorem-2reps": (1.0, 2),
    "practical-1rep": (0.003, 1),
    "theorem-default": (1.0, None),
}


def hamming_dim(case: str) -> int | None:
    """The dimension of a `hamming-d<dim>` case, None for any other name."""
    prefix, _, dim = case.partition("-d")
    return int(dim) if prefix == "hamming" and dim.isdigit() else None


def default_n(case: str) -> int:
    dim = hamming_dim(case)
    if dim is None:
        return 100_000
    return 2000 if dim <= 12 else 200 if dim <= 16 else 40


def run_case(case: str, n: int) -> dict:
    """One pipeline run in this process, timed."""
    import numpy as np

    from mpslc.core import Metric, PointSet, Seed
    from mpslc.hamming import hamming_mst
    from mpslc.mpc import MpcConfig, edge_records
    from mpslc.slc import SlcParams, approximate_mst

    dim = hamming_dim(case)
    if dim is None:
        c, repetitions = CASES[case]
        ps = PointSet(points=np.random.default_rng(80000).uniform(0.0, 1.0, (n, 3)),
                      metric=Metric.L2)
        params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(81), repetitions=repetitions,
                                         c1=c, c2=c)
        about = {"repetitions": params.repetitions, "eps": round(params.eps, 4)}
        start = time.perf_counter()
        tree, trace = approximate_mst(ps, params)
    else:
        points = np.random.default_rng(7).integers(0, 3, (n, dim)).astype(np.float64)
        ps = PointSet(points=points, metric=Metric.L0)
        about = {"dim": dim}
        start = time.perf_counter()
        tree, trace = hamming_mst(ps, MpcConfig.auto(n, dim))
    wall = time.perf_counter() - start
    return {"case": case, "n": n, **about,
            "wall_s": round(wall, 3),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "rounds": trace.rounds,
            "tree": hashlib.sha256(edge_records(tree.edges).tobytes()).hexdigest()[:16]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cases", nargs="*", default=list(CASES),
                   help=", ".join(CASES) + " or hamming-d<dim>, dim 1 to 20")
    p.add_argument("--n", type=int, help="points per case (default 100000, or per "
                   "dimension for hamming-d<dim>)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    unknown = [case for case in args.cases
               if case not in CASES and not 1 <= (hamming_dim(case) or 0) <= 20]
    if unknown:
        p.error(f"unknown cases: {', '.join(unknown)}")
    if args.n is not None and args.n < 2:
        p.error("--n must be at least 2")
    if args.child:
        print(json.dumps(run_case(args.cases[0], args.n)))
        return 0
    for case in args.cases:
        n = default_n(case) if args.n is None else args.n
        cmd = [sys.executable, __file__, case, "--n", str(n), "--child"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        print(out.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
