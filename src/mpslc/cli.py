"""Command-line entry point: dataset io, normalization, experiment runs.

Reports are serialized with stable key order so identical configurations
produce byte-identical files apart from the timing block. Exit codes:
0 success, 1 verification failure, 2 input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import hardness, oracle
from .core import CapacityError, InputError, Metric, PointSet, Seed, derive_seed
from .hamming import hamming_mst
from .mpc import MpcConfig
from .slc import SlcParams, approximate_mst, k_slc_from_mst, verify_per_edge_guarantee


def load_csv(path: str, metric: Metric = Metric.L2) -> PointSet:
    """Comma-separated numeric rows of uniform width; row order gives ids."""
    rows = []
    width = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise InputError(
                    f"{path}:{lineno}: expected {width} fields, found {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return PointSet(points=np.asarray(rows, dtype=np.float64), metric=metric)


def _write(path: str, lines, mode: str = "w") -> None:
    """Write the text lines to path; an unwritable path is an input error."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _probe(path: str) -> None:
    """Raise `_write`'s input error now if path cannot be written. An
    existing file keeps its contents; a file the probe made is removed."""
    existed = os.path.exists(path)
    _write(path, [], "a")
    if not existed:
        os.remove(path)


def write_csv(points: np.ndarray, path: str) -> None:
    """Full-precision decimal output; reading it back is bit-exact."""
    _write(path, (",".join(repr(float(x)) for x in row) + "\n"
                  for row in np.atleast_2d(points)))


def write_sparse(vs: list, path: str) -> None:
    """One line per vector: dim;idx:val,idx:val,..."""
    _write(path, (f"{v.dim};{','.join(f'{i}:{val!r}' for i, val in v.entries)}\n"
                  for v in vs))


def normalize_zscore(ps: PointSet) -> PointSet:
    """Center every dimension and scale to unit variance; zero-variance
    dimensions are centered but left unscaled."""
    if ps.n < 2:
        raise InputError("normalization needs at least two points")
    if ps.metric is Metric.L0:
        raise InputError("z-scoring is undefined for Hamming inputs")
    mean = ps.points.mean(axis=0)
    std = ps.points.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    return PointSet(points=(ps.points - mean) / scale, metric=ps.metric)


@dataclass
class RunConfig:
    input_path: str
    metric: Metric
    eta: float
    k_list: list
    seed: Seed
    repetitions: int | None = None
    space_s: int | None = None
    normalize: bool = False
    output_path: str | None = None
    curve_path: str | None = None
    oracle: bool = False

    def echo(self) -> dict:
        return {**asdict(self), "metric": self.metric.value, "seed": self.seed.value}


@dataclass
class Report:
    config: dict
    n: int
    dim: int
    per_k: list
    edge_check: dict | None
    rounds: int
    trace_summary: dict
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def curve_rows(self) -> list:
        rows = ["k,approx_objective,oracle_objective,ratio"]
        for entry in self.per_k:
            a = entry["approx_objective"]
            o = entry["oracle_objective"]
            r = entry["ratio"]
            fmt = lambda x: "" if x is None or x == "undefined" else repr(float(x))
            rows.append(f"{entry['k']},{fmt(a)},{fmt(o)},{fmt(r)}")
        return rows


def _objective_json(value: float):
    return "undefined" if math.isinf(value) else float(value)


def _build_tree(ps: PointSet, eta: float, seed: Seed, repetitions: int | None,
                space_s: int | None):
    """The tree and trace of `ps`; eta must lie in (0, inf) on every path,
    the exact Hamming one included, and is checked before the build."""
    if not eta > 0:
        raise InputError(f"eta = {eta:g} must be positive")
    if eta == math.inf:
        raise InputError("eta = inf must be finite")
    if space_s is not None:
        mpc = MpcConfig(space_s=space_s)
    else:
        mpc = MpcConfig.auto(ps.n, ps.dim)
    if ps.metric is Metric.L0:
        return hamming_mst(ps, mpc)
    params = SlcParams.for_point_set(ps, eta=eta, seed=seed,
                                     repetitions=repetitions, mpc=mpc)
    return approximate_mst(ps, params)


def run_experiment(cfg: RunConfig) -> Report:
    """One end-to-end run: build the tree and extract every requested k.
    With `cfg.oracle`, also cross-check against the dense O(n^2) oracle,
    which refuses inputs above its cap. The output paths are probed
    before the tree is built, so an unwritable one fails at once."""
    ps = load_csv(cfg.input_path, cfg.metric)
    if cfg.normalize:
        ps = normalize_zscore(ps)
    if cfg.oracle and ps.n > oracle.DENSE_CAP:
        raise CapacityError("the oracle cross-check needs the dense oracle; input too large")
    for path in filter(None, (cfg.output_path, cfg.curve_path)):
        _probe(path)
    t0 = time.perf_counter()
    tree, trace = _build_tree(ps, cfg.eta, cfg.seed, cfg.repetitions, cfg.space_s)
    timings = {"approx_seconds": time.perf_counter() - t0}
    oracle_tree = None
    if cfg.oracle:
        t0 = time.perf_counter()
        oracle_tree = oracle.exact_mst(ps)
        timings["oracle_seconds"] = time.perf_counter() - t0
    per_k = []
    for k in sorted(set(int(k) for k in cfg.k_list)):
        clustering = k_slc_from_mst(tree, k, ps)
        row = {"k": k, "approx_objective": _objective_json(clustering.objective),
               "oracle_objective": None, "ratio": None}
        if oracle_tree is not None:
            exact = k_slc_from_mst(oracle_tree, k, ps)
            row["oracle_objective"] = _objective_json(exact.objective)
            if not math.isinf(clustering.objective) and exact.objective > 0:
                row["ratio"] = clustering.objective / exact.objective
        per_k.append(row)
    edge_check = None
    if oracle_tree is not None:
        report = verify_per_edge_guarantee(tree, oracle_tree, cfg.eta)
        edge_check = {
            "max_ratio": None if math.isinf(report.max_ratio) else report.max_ratio,
            "violations": len(report.violations),
            "within_eta": report.ok,
        }
    summary = {
        "rounds": trace.rounds,
        "max_words": trace.max_words(),
        "machines_peak": max((r.machines_used for r in trace.per_round), default=0),
        "total_messages_words": sum(r.total_messages_words for r in trace.per_round),
    }
    rep = Report(config=cfg.echo(), n=ps.n, dim=ps.dim, per_k=per_k,
                 edge_check=edge_check, rounds=trace.rounds,
                 trace_summary=summary, timings=timings)
    if cfg.output_path:
        _write(cfg.output_path, [rep.to_json()])
    if cfg.curve_path:
        _write(cfg.curve_path, [row + "\n" for row in rep.curve_rows()])
    return rep


def _parse_k_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise InputError(f"bad k list {text!r}") from exc


def _cmd_run(args) -> int:
    cfg = RunConfig(
        input_path=args.input, metric=Metric.parse(args.metric), eta=args.eta,
        k_list=_parse_k_list(args.k), seed=Seed(args.seed),
        repetitions=args.repetitions, space_s=args.space_s,
        normalize=args.normalize, output_path=args.out, curve_path=args.curve,
        oracle=args.oracle,
    )
    report = run_experiment(cfg)
    if not args.out:
        sys.stdout.write(report.to_json())
    return 0


def _cmd_verify(args) -> int:
    ps = load_csv(args.input, Metric.parse(args.metric))
    if ps.n > oracle.DENSE_CAP:
        raise CapacityError("verification needs the dense oracle; input too large")
    tree, _trace = _build_tree(ps, args.eta, Seed(args.seed), args.repetitions,
                               args.space_s)
    exact = oracle.exact_mst(ps)
    report = verify_per_edge_guarantee(tree, exact, args.eta)
    print(f"indices={len(tree.edges)} violations={len(report.violations)} "
          f"max_ratio={report.max_ratio:.6f}")
    return 0 if report.ok else 1


def _cmd_trace_dump(args) -> int:
    ps = load_csv(args.input, Metric.parse(args.metric))
    if args.out:
        _probe(args.out)
    _tree, trace = _build_tree(ps, args.eta, Seed(args.seed), args.repetitions,
                               args.space_s)
    text = trace.to_json_lines()
    if args.out:
        _write(args.out, [text])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_hardness(args) -> int:
    metric = Metric.parse(args.metric)
    n = args.n
    if args.kind == "cycle":
        graph = hardness.GraphInstance.one_cycle(n)
        vectors = hardness.gen_cycle_vectors(graph, xi=args.xi, metric=metric)
    elif args.kind == "twocycles":
        graph = hardness.GraphInstance.two_cycles(n)
        vectors = hardness.gen_cycle_vectors(graph, xi=args.xi, metric=metric)
    elif args.kind == "connectivity":
        graph = (hardness.GraphInstance.two_cycles(n) if args.disconnected
                 else hardness.GraphInstance.one_cycle(n))
        vectors = hardness.gen_edge_vectors(graph, metric=metric)
    elif args.kind == "hamming":
        graph = (hardness.GraphInstance.two_cycles(n) if args.disconnected
                 else hardness.GraphInstance.one_cycle(n))
        ps = hardness.gen_hamming_points(graph)
        write_csv(ps.points, args.out)
        return 0
    else:
        raise InputError(f"unknown kind {args.kind!r}")
    if args.jl_eps is not None:
        if metric is not Metric.L2:
            raise InputError("the projection step applies to L2 instances")
        params = hardness.JlParams.auto(len(vectors), args.jl_eps,
                                        derive_seed(Seed(args.seed), "gen"))
        ps = hardness.jl_project(vectors, params)
        write_csv(ps.points, args.out)
    else:
        write_sparse(vectors, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpslc",
                                     description="single-linkage clustering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--metric", default="l2")
        p.add_argument("--eta", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--repetitions", type=int, default=None)
        p.add_argument("--space-s", type=int, default=None, dest="space_s")

    run_p = sub.add_parser("run", help="build the tree and report objectives")
    common(run_p)
    run_p.add_argument("--k", default="2", help="comma-separated cluster counts")
    run_p.add_argument("--normalize", action="store_true")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--curve", default=None)
    run_p.add_argument("--oracle", action="store_true",
                       help="cross-check against the dense O(n^2) exact tree")
    run_p.set_defaults(fn=_cmd_run)

    ver_p = sub.add_parser("verify", help="exit 0 iff the per-edge check is clean")
    common(ver_p)
    ver_p.set_defaults(fn=_cmd_verify)

    tr_p = sub.add_parser("trace-dump", help="dump per-round trace as JSON lines")
    common(tr_p)
    tr_p.add_argument("--out", default=None)
    tr_p.set_defaults(fn=_cmd_trace_dump)

    gen_p = sub.add_parser("gen-hardness", help="emit a distance-gap instance")
    gen_p.add_argument("--kind", required=True,
                       choices=["cycle", "twocycles", "connectivity", "hamming"])
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--metric", default="l2")
    gen_p.add_argument("--xi", type=float, default=None)
    gen_p.add_argument("--jl-eps", type=float, default=None, dest="jl_eps")
    gen_p.add_argument("--disconnected", action="store_true")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(fn=_cmd_gen_hardness)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
