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
above. Its line also gives `oracle_s`, the seconds `oracle.exact_mst`
(dense Prim) takes on the same points after the timed run, or null
above the oracle's cap; the peak memory is read before it runs.

`--runs k` runs each case k times, each in a fresh process, and prints
the median wall (`wall_s`), the minimum (`wall_min_s`), likewise for
`oracle_s`, and the largest peak memory; it fails if the tree hash or
the round count differs between the runs.

    PYTHONPATH=src python tools/scale.py
    PYTHONPATH=src python tools/scale.py practical-1rep --n 1000000
    PYTHONPATH=src python tools/scale.py hamming-d12 hamming-d16 hamming-d20 --runs 5

The tree hash is the first 16 hex digits of a SHA-256 over the tree's
edge records. This script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from fresh import repeated

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

    from mpslc import oracle
    from mpslc.core import Metric, PointSet, Seed
    from mpslc.hamming import hamming_mst
    from mpslc.mpc import MpcConfig
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
    record = {"case": case, "n": n, **about,
              "wall_s": round(wall, 3),
              "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
              "rounds": trace.rounds,
              "tree": hashlib.sha256(tree.records.tobytes()).hexdigest()[:16]}
    if dim is not None:
        record["oracle_s"] = None
        if n <= oracle.DENSE_CAP:
            start = time.perf_counter()
            oracle.exact_mst(ps)
            record["oracle_s"] = round(time.perf_counter() - start, 3)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cases", nargs="*", default=list(CASES),
                   help=", ".join(CASES) + " or hamming-d<dim>, dim 1 to 20")
    p.add_argument("--n", type=int, help="points per case (default 100000, or per "
                   "dimension for hamming-d<dim>)")
    p.add_argument("--runs", type=int, default=1,
                   help="fresh processes per case (default 1)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    unknown = [case for case in args.cases
               if case not in CASES and not 1 <= (hamming_dim(case) or 0) <= 20]
    if unknown:
        p.error(f"unknown cases: {', '.join(unknown)}")
    if args.n is not None and args.n < 2:
        p.error("--n must be at least 2")
    if args.runs < 1:
        p.error("--runs must be at least 1")
    if args.child:
        print(json.dumps(run_case(args.cases[0], args.n)))
        return 0
    for case in args.cases:
        n = default_n(case) if args.n is None else args.n
        cmd = [sys.executable, __file__, case, "--n", str(n), "--child"]
        print(json.dumps(repeated(cmd, args.runs, ("tree", "rounds"))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
