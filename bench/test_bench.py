"""Self-test of the benchmark: every check rejects a corrupted output, the
reference agrees with the program's own oracle, and the tracer survives a
hook that has gone.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mpslc import hardness, oracle, slc  # noqa: E402
from mpslc.core import Metric, PointSet, Seed  # noqa: E402
from mpslc.hamming import hamming_mst  # noqa: E402
from mpslc.mpc import MpcConfig  # noqa: E402
from mpslc.partition import PartitionParams  # noqa: E402

ETA = workloads.ETA
XI = hardness.XI_DEFAULT[Metric.L2]


def _cloud(n=150, metric=Metric.L2, seed=7):
    return PointSet(points=np.random.default_rng(seed).random((n, 3)), metric=metric)


def _hamming(n=120, d=5, seed=7):
    points = np.random.default_rng(seed).integers(0, 3, (n, d)).astype(np.float64)
    return PointSet(points=points, metric=Metric.L0)


def _grid_tree(ps):
    op = workloads._grid_op("t", ps, seed=3, c=1.0, repetitions=2,
                            space_s=4 * ps.n * (ps.dim + 2), upper=1 + ETA)
    tree, _trace = slc.approximate_mst(ps, op.params)
    return tree


def _swap_heavier(points, metric, edges):
    """Replace the tree edge of largest weight by the heaviest pair that
    reconnects the two halves it leaves."""
    edges = list(edges)
    u0, v0, _ = edges.pop()
    parent = list(range(len(points)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, _w in edges:
        parent[find(u)] = find(v)
    side = np.asarray([find(i) == find(u0) for i in range(len(points))])
    a_ids, b_ids = np.flatnonzero(side), np.flatnonzero(~side)
    best = max(((checks.row_distances(points[b_ids], points[a], metric).max(), a) for a in a_ids))
    a = int(best[1])
    b = int(b_ids[np.argmax(checks.row_distances(points[b_ids], points[a], metric))])
    assert (a, b) != (u0, v0)
    return edges + [(a, b, float(best[0]))]


@pytest.mark.parametrize("metric", [Metric.L1, Metric.L2, Metric.LINF])
def test_reference_matches_oracle(metric):
    ps = _cloud(metric=metric)
    got = checks.mst_weights(ps.points, metric.value)
    want = oracle.exact_mst(ps).sorted_weights()
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_reference_matches_oracle_hamming():
    ps = _hamming()
    got = checks.mst_weights(ps.points, "l0")
    assert np.array_equal(got, oracle.exact_mst(ps).sorted_weights())


def test_program_output_passes():
    ps = _cloud()
    tree = _grid_tree(ps)
    ref = checks.mst_weights(ps.points, "l2")
    assert checks.check_tree(ps.points, "l2", tree.edges) == []
    assert checks.check_weights(tree.sorted_weights(), ref, 1 + ETA, exact=False) == []


def test_heavier_swap_rejected_by_eta_bound():
    ps = _cloud()
    tree = _grid_tree(ps)
    bad = _swap_heavier(ps.points, "l2", tree.edges)
    assert checks.check_tree(ps.points, "l2", bad) == []  # still a spanning tree
    weights = np.sort([w for _u, _v, w in bad])
    ref = checks.mst_weights(ps.points, "l2")
    assert checks.check_weights(weights, ref, 1 + ETA, exact=False)


def test_heavier_swap_rejected_by_hamming_exactness():
    ps = _hamming()
    tree, _trace = hamming_mst(ps, MpcConfig(space_s=4 * ps.n * (ps.dim + 2)))
    bad = _swap_heavier(ps.points, "l0", tree.edges)
    weights = np.sort([w for _u, _v, w in bad])
    ref = checks.mst_weights(ps.points, "l0")
    assert checks.check_weights(tree.sorted_weights(), ref, None, exact=True) == []
    assert checks.check_weights(weights, ref, None, exact=True)


def test_hamming_weight_off_by_one_rejected():
    ps = _hamming()
    tree, _trace = hamming_mst(ps, MpcConfig(space_s=4 * ps.n * (ps.dim + 2)))
    edges = list(tree.edges)
    u, v, w = edges[5]
    edges[5] = (u, v, w + 1.0)
    assert checks.check_tree(ps.points, "l0", tree.edges) == []
    assert checks.check_tree(ps.points, "l0", edges)


def test_float_weight_off_rejected():
    ps = _cloud()
    edges = list(_grid_tree(ps).edges)
    u, v, w = edges[0]
    edges[0] = (u, v, w * (1 + 1e-6))
    assert checks.check_tree(ps.points, "l2", edges)


def test_missing_edge_and_cycle_rejected():
    ps = _cloud()
    edges = list(_grid_tree(ps).edges)
    assert checks.check_tree(ps.points, "l2", edges[:-1])
    u, v, w = edges[0]
    assert checks.check_tree(ps.points, "l2", edges[:-1] + [(v, u, w)])
    assert checks.check_tree(ps.points, "l2", edges[:-1] + [(u, ps.n, w)])


def test_lighter_than_exact_rejected():
    ref = np.asarray([1.0, 2.0, 3.0])
    assert checks.check_weights(ref, ref, 1 + ETA, exact=False) == []
    assert checks.check_weights(np.asarray([1.0, 1.9, 3.0]), ref, 1 + ETA, exact=False)
    assert checks.check_weights(np.asarray([1.0, 2.0]), ref, None, exact=False)


def test_max_ratio():
    ref = np.asarray([0.0, 2.0, 4.0])
    assert checks.max_ratio(ref, ref) == 1.0
    assert checks.max_ratio(np.asarray([0.0, 2.0, 5.0]), ref) == 1.25
    assert checks.max_ratio(np.asarray([0.5, 2.0, 4.0]), ref) == np.inf


def test_clustering_count_rejected():
    ps = _cloud()
    tree = _grid_tree(ps)
    for k in workloads.KS:
        c = slc.k_slc_from_mst(tree, k, ps)
        assert checks.check_clustering(c.labels, k, ps.n) == []
        assert checks.check_clustering(c.labels, k + 1, ps.n)
        assert checks.check_clustering(c.labels[:-1], k, ps.n)


def test_budget_rejected():
    assert checks.check_budget(100, 100) == []
    assert checks.check_budget(101, 100)


def test_two_cycles_split():
    n = 40
    vectors = hardness.gen_cycle_vectors(hardness.GraphInstance.two_cycles(n),
                                         metric=Metric.L2)
    points = np.asarray([v.densify() for v in vectors])
    near, far = np.sqrt(2 * (1 - XI) ** 2 + 2 * XI ** 2), np.sqrt(2 + 4 * XI ** 2)
    tree = np.full(n - 1, near)
    assert checks.split_is_forced(points, n // 2, ETA, tree)  # (1 + eta) near < far
    tree[-2:] = far
    assert checks.split_is_forced(points, n // 2, ETA, tree)
    assert not checks.split_is_forced(points, n // 2, 1.0, tree)  # 2 near > far
    tree[-2] = 0.99 * far
    assert checks.split_is_forced(points, n // 2, 1.0, tree)
    good = np.repeat([0, 1], n // 2)
    assert checks.check_two_cycles_split(good, n // 2) == []
    mixed = good.copy()
    mixed[0] = 1
    assert checks.check_two_cycles_split(mixed, n // 2)
    assert checks.check_two_cycles_split(np.zeros(n, dtype=int), n // 2)


class _Corrupted:
    """An operation whose tree has one edge swapped for a heavier pair."""

    def __init__(self, op):
        self.op = op

    def __getattr__(self, name):
        return getattr(self.op, name)

    def run(self):
        tree, trace, clusterings = self.op.run()
        bad = _swap_heavier(self.op.ps.points, self.op.ps.metric.value, tree.edges)
        return type(tree)(n_vertices=tree.n_vertices, edges=tuple(bad)), trace, clusterings


def test_runner_counts_a_failed_check():
    ps = _cloud()
    op = workloads._grid_op("t", ps, seed=3, c=1.0, repetitions=2,
                            space_s=4 * ps.n * (ps.dim + 2), upper=1 + ETA)
    runner = run.Runner([op, _Corrupted(op)], checks)
    runner.run_round()
    assert (runner.attempted, runner.failed, runner.correct) == (2, 1, False)


class _Drifting:
    """An operation whose second output differs from its first."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.op, name)

    def run(self):
        self.calls += 1
        tree, trace, clusterings = self.op.run()
        if self.calls > 1:
            trace.per_round.append(trace.per_round[-1])
        return tree, trace, clusterings


def test_runner_counts_an_output_that_changes_between_rounds():
    ps = _cloud()
    op = workloads._grid_op("t", ps, seed=3, c=1.0, repetitions=2,
                            space_s=4 * ps.n * (ps.dim + 2), upper=1 + ETA)
    runner = run.Runner([op, _Drifting(op)], checks)
    runner.run_round()
    assert (runner.failed, runner.correct) == (0, True)
    runner.run_round()
    assert (runner.attempted, runner.failed, runner.correct) == (4, 1, False)


def test_trace_counts_match_program():
    cloud, cube = _cloud(), _hamming()
    ops = [workloads._grid_op("t", cloud, seed=3, c=1.0, repetitions=2,
                              space_s=4 * cloud.n * 5, upper=1 + ETA),
           workloads.Operation("h", cube, MpcConfig(space_s=4 * cube.n * 7))]
    runner = run.Runner(ops, checks)
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run_round(tracer.span)
    values, missing = tracer.metrics()
    assert missing == {}
    assert runner.correct and runner.trace_problems(tracer, values, missing) == []
    assert values["unitstep.root_reps"] > 0 and values["mpc.level_jobs"] > 0
    assert values["mpc.sort_calls"] == 2 ** cube.dim and values["hamming.aux_edges"] > 0
    assert slc.run_level.__module__ == "mpslc.mpc"  # the original is back
    values["mpc.level_calls"] += 1
    assert runner.trace_problems(tracer, values, missing)


def test_trace_reports_missing_hook(monkeypatch):
    monkeypatch.delattr(slc, "boruvka_mst")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    values, missing = tracer.metrics()
    assert set(missing) == {"slc.group_s", "slc.union_s", "slc.union_edges",
                            "mpc.boruvka_s", "mpc.boruvka_rounds"}
    assert values["mpc.boruvka_s"] == 0


def test_trace_reports_resigned_run_level(monkeypatch):
    """A run_level that takes no (words, callable) jobs leaves the unit-step
    metrics missing and the run going."""
    calls = []
    monkeypatch.setattr(slc, "run_level", lambda jobs, cfg: calls.append(jobs))
    tracer = tracing.Tracer()
    with tracer.installed():
        ps = _cloud()
        slc.sample_partition(ps, PartitionParams.for_point_set(ps), Seed(1))
        slc.run_level(42, None)
    values, missing = tracer.metrics()
    assert calls == [42]
    assert "unitstep.bounded_s" in missing and "mpc.level_calls" in missing
