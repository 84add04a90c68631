#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload grid --seed 1 --seconds 55 --trace 0

Run from anywhere in a source checkout: the program is imported from the
checkout's `src/`, nothing is installed. The run times the set-up in
several fresh processes (`setup_once.py`), makes the inputs once more,
computes the exact references (untimed), then repeats rounds of the
workload's operations for `--seconds` (a round starts only if one as long
as the last still ends in time), each round running every operation once
and checking its output. Outputs repeat exactly across rounds under one
seed, and are compared so.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of traced rounds, alternated
with untraced ones to give the tracing overhead, and the spans of the
last traced round go to `bench/results/`. The line reads
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
An operation fails when it raises or its output fails a check; a failed
check also makes `correct` false. See README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 7
# One thread per numerical library: a run uses one core whatever the machine has.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "mpc_rounds": "count",
    "mpc_msg_words": "words",
    "mpc_peak_words": "words",
    "mpc_machines_peak": "count",
    "max_edge_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must lie in [0, 2^63)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import mpslc from this checkout's source tree and nowhere else."""
    package = SRC_DIR / "mpslc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program source at {package}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC_DIR))
    import mpslc

    if Path(mpslc.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported mpslc from {mpslc.__file__}, not {package}")


def _digest(tree, trace, clusterings) -> str:
    """Hash of everything an operation returns, to compare rounds exactly
    without keeping their outputs alive."""
    h = hashlib.sha256(repr(tree.edges).encode())
    h.update(repr([vars(r) for r in trace.per_round]).encode())
    for c in clusterings:
        h.update(repr((c.k, c.objective)).encode())
        h.update(c.labels.tobytes())
    return h.hexdigest()


class Runner:
    """Runs and checks the operations of one workload, round after round.

    The first output of each operation is checked in full; later rounds
    must reproduce it exactly. `outcome[i]` keeps the digest, the MPC
    costs and the edge ratio of operation i once it has passed.
    """

    def __init__(self, ops, checks):
        self.ops = ops
        self.checks = checks
        self.reference = [checks.mst_weights(op.ps.points, op.ps.metric.value) for op in ops]
        self.outcome = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _problems(self, i, tree, trace, clusterings):
        op, checks = self.ops[i], self.checks
        points, n = op.ps.points, op.ps.n
        problems = checks.check_tree(points, op.ps.metric.value, tree.edges)
        problems += checks.check_weights(tree.sorted_weights(), self.reference[i],
                                         op.upper, op.exact)
        for c in clusterings:
            problems += checks.check_clustering(c.labels, c.k, n)
        problems += checks.check_budget(trace.max_words(), op.cfg.space_s)
        if op.half is not None and checks.split_is_forced(points, op.half, op.params.eta,
                                                          tree.sorted_weights()):
            split = next(c for c in clusterings if c.k == 2)
            problems += checks.check_two_cycles_split(split.labels, op.half)
        return problems

    def _outcome(self, i, tree, trace, clusterings) -> dict:
        rounds = trace.per_round
        return {
            "digest": _digest(tree, trace, clusterings),
            "mpc_rounds": len(rounds),
            "mpc_msg_words": sum(r.total_messages_words for r in rounds),
            "mpc_peak_words": trace.max_words(),
            "mpc_machines_peak": max((r.machines_used for r in rounds), default=0),
            "max_edge_ratio": self.checks.max_ratio(tree.sorted_weights(), self.reference[i]),
            "level_rounds": sum(1 for r in rounds if r.kind == "level"),
            "boruvka_rounds": sum(1 for r in rounds if r.kind == "boruvka"),
        }

    def _run_op(self, i, span) -> float:
        op = self.ops[i]
        self.attempted += 1
        scope = span("op", label=op.label, path="exact" if op.exact else "grid") \
            if span else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                tree, trace, clusterings = op.run()
        except Exception:
            self.failed += 1
            print(f"operation {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        if self.outcome[i] is None:
            problems = self._problems(i, tree, trace, clusterings)
            if not problems:
                self.outcome[i] = self._outcome(i, tree, trace, clusterings)
        elif _digest(tree, trace, clusterings) != self.outcome[i]["digest"]:
            problems = ["output differs from the first round under the same seed"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.correct = False
            print(f"operation {op.label} failed its checks:", *problems,
                  sep="\n  ", file=sys.stderr)
        return seconds

    def run_round(self, span=None) -> float:
        """Run every operation once; returns the seconds spent in pipeline calls."""
        return sum(self._run_op(i, span) for i in range(len(self.ops)))

    def cost_metrics(self) -> dict:
        """MPC costs summed over the passed operations, peaks and the edge
        ratio the maximum."""
        done = [o for o in self.outcome if o is not None]
        out = {name: sum(o[name] for o in done) for name in ("mpc_rounds", "mpc_msg_words")}
        for name in ("mpc_peak_words", "mpc_machines_peak", "max_edge_ratio"):
            out[name] = max((o[name] for o in done), default=0)
        return out

    def trace_problems(self, tracer, values, missing) -> list:
        """The traced counts against the traces the program returned."""
        grid = [(op, o) for op, o in zip(self.ops, self.outcome)
                if o is not None and not op.exact]
        expected = {
            "mpc.level_calls": sum(o["level_rounds"] for _op, o in grid),
            "mpc.boruvka_rounds": sum(o["boruvka_rounds"] for _op, o in grid),
        }
        problems = [f"traced {name} = {values[name]}, the program's trace has {want}"
                    for name, want in expected.items()
                    if name not in missing and values[name] != want]
        if "unitstep.root_reps" not in missing:
            reps = sum(op.params.repetitions for op, _o in grid)
            calls = sum(op.params.repetitions * (op.params.partition.levels + 1)
                        for op, _o in grid)
            if tracer.root_calls() != reps or values["mpc.level_calls"] != calls:
                problems.append(f"traced {tracer.root_calls()} root calls and "
                                f"{values['mpc.level_calls']} level calls, expected "
                                f"{reps} and {calls} (levels + 1 per repetition)")
        return problems


def fresh_setup(workload: str, seed: int) -> float:
    """Seconds of one set-up in a fresh process, imports included."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_once.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _ends_before(begin: float, last: float, seconds: float) -> bool:
    """Whether another pass as long as the last one still ends within
    `seconds` of `begin`, so a run measures about `seconds` and never
    overruns it by a whole round."""
    return time.perf_counter() - begin + last <= seconds


def timed_rounds(runner, seconds) -> list:
    """Untraced rounds for `seconds`, at least one; each round's pipeline time."""
    solve = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        solve.append(runner.run_round())
        if not _ends_before(begin, time.perf_counter() - start, seconds):
            return solve


def traced_rounds(runner, tracer, seconds):
    """Untraced and traced rounds in turn for `seconds`, at least one pair.
    Returns the untraced and traced round times, the layer metrics of
    each traced round and the metrics the last one missed."""
    solve, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        solve.append(runner.run_round())
        tracer.reset()
        with tracer.installed():
            traced.append(runner.run_round(tracer.span))
        values, missing = tracer.metrics()
        layers.append(values)
        problems = runner.trace_problems(tracer, values, missing)
        if problems:
            runner.correct = False
            print("trace disagrees with the program:", *problems, sep="\n  ",
                  file=sys.stderr)
        if not _ends_before(begin, time.perf_counter() - start, seconds):
            return solve, traced, layers, missing


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]

    if args.trace:
        tracer = tracing.Tracer()
        setup_layers = []
        for _ in range(SETUP_REPEATS):
            tracer.reset()
            with tracer.installed():
                ops = make(args.seed)
            setup_layers.append(tracer.metrics()[0])
        runner = Runner(ops, checks)
        solve, traced, layers, missing = traced_rounds(runner, tracer, args.seconds)
    else:
        setup_times = [fresh_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        runner = Runner(make(args.seed), checks)
        solve = timed_rounds(runner, args.seconds)

    if args.trace:
        metrics = {}
        for name, (unit, _hooks) in tracing.PER_LAYER.items():
            source = setup_layers if name.startswith("hardness.") else layers
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (median(v[name] for v in source), unit)
        metrics["trace.solve_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(solve), "s")
        for name, reason in missing.items():
            print(f"missing per-layer metric {name} (reported as 0): {reason}", file=sys.stderr)
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": len(traced),
            "metrics": {name: value for name, (value, _unit) in metrics.items()},
            "missing": missing, "spans": tracer.span_records(),
        }, indent=1) + "\n")
    else:
        values = runner.cost_metrics()
        print(f"{len(solve)} rounds, median {statistics.median(solve):.4f} s", file=sys.stderr)
        values.update(solve_s=statistics.median(solve),
                      setup_s=statistics.median(setup_times),
                      peak_rss_mb=peak_rss_mb())
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
