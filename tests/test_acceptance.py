"""Acceptance suite: one test per criterion (criterion 3 split per sub-check).

Each test prints an `ACCEPTANCE <id>: PASS/FAIL` line before asserting, so
the verdicts survive in the output either way. Heavy pipeline runs are
shared through session fixtures; criterion 5 re-asserts the runtime
contracts on the traces those runs produced.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from mpslc.core import CapacityError, Metric, PointSet, Seed, derive_seed
from mpslc.hamming import hamming_mst
from mpslc.hardness import (
    GraphInstance,
    JlParams,
    gen_cycle_vectors,
    gen_edge_vectors,
    gen_hamming_points,
    jl_project,
)
from mpslc.mpc import MpcConfig, round_bound
from mpslc.oracle import DENSE_CAP, exact_mst, exhaustive_slc, kruskal_edges
from mpslc.partition import (
    PartitionParams,
    base_cell_coords,
    coords_at_level,
    level_diameter,
    sample_partition,
)
from mpslc.slc import SlcParams, approximate_mst, k_slc_from_mst

METRICS = (Metric.L1, Metric.L2, Metric.LINF)
ETAS = (0.5, 1.0)
N1 = 2000
SEEDS1 = tuple(range(10))

RATIO_CYCLE_L2 = math.sqrt(2.0 + math.sqrt(2.0))
XI_L2 = 1.0 / math.sqrt(2.0)  # cycle-instance xi under l2, the ratio maximizer
XI_L1 = 1.0  # cycle-instance xi under l1, the ratio maximizer


def _line(tag, ok, extra=""):
    suffix = f" - {extra}" if extra else ""
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{suffix}")


def _upper_violations(tree, exact, eta):
    wa = tree.sorted_weights()
    we = exact.sorted_weights()
    return int(np.sum(wa > (1 + eta) * we * (1 + 1e-12)))


def _lower_violations(tree, exact):
    wa = tree.sorted_weights()
    we = exact.sorted_weights()
    return int(np.sum(we > wa * (1 + 1e-12) + 1e-300))


@pytest.fixture(scope="session")
def clouds():
    return {s: np.random.default_rng(10_000 + s).uniform(0, 1, (N1, 3))
            for s in SEEDS1}


@pytest.fixture(scope="session")
def exact_trees(clouds):
    trees = {}
    for s, pts in clouds.items():
        for metric in METRICS:
            trees[(metric, s)] = exact_mst(PointSet(points=pts, metric=metric))
    return trees


@pytest.fixture(scope="session")
def criterion1_runs(clouds, exact_trees):
    records = []
    for metric in METRICS:
        for eta in ETAS:
            for s in SEEDS1:
                ps = PointSet(points=clouds[s], metric=metric)
                exact = exact_trees[(metric, s)]
                seed = Seed(500_000 + s)
                t0 = time.perf_counter()
                params = SlcParams.for_point_set(ps, eta=eta, seed=seed)
                tree, trace = approximate_mst(ps, params)
                elapsed = time.perf_counter() - t0
                lower = _lower_violations(tree, exact)
                retried = False
                if _upper_violations(tree, exact, eta):
                    retried = True
                    params = SlcParams.for_point_set(
                        ps, eta=eta, seed=derive_seed(seed, "retry"))
                    tree, trace = approximate_mst(ps, params)
                    lower = max(lower, _lower_violations(tree, exact))
                upper = _upper_violations(tree, exact, eta)
                records.append({
                    "metric": metric, "eta": eta, "seed": s,
                    "elapsed": elapsed, "lower": lower, "upper": upper,
                    "retried": retried, "trace": trace,
                    "space_s": params.mpc.space_s, "n": N1,
                })
    return records


def test_criterion_1_per_edge_approximation(criterion1_runs):
    worst = max(r["elapsed"] for r in criterion1_runs)
    lower_bad = sum(r["lower"] for r in criterion1_runs)
    upper_bad = sum(r["upper"] for r in criterion1_runs)
    retries = sum(r["retried"] for r in criterion1_runs)
    ok = lower_bad == 0 and upper_bad == 0 and worst < 120.0
    _line("1 (per-edge approximation)", ok,
          f"{len(criterion1_runs)} runs, retries={retries}, "
          f"worst wall-clock {worst:.1f}s")
    assert lower_bad == 0, "lower dominance must hold with zero retries"
    assert upper_bad == 0, "per-index (1+eta) bound violated after one retry"
    assert worst < 120.0


@pytest.fixture(scope="session")
def criterion2_runs():
    cfg = MpcConfig(space_s=32768)
    records = []
    idx = 0
    for d in (2, 3, 4):
        per_d = 17 if d == 2 else 17 if d == 3 else 16
        for j in range(per_d):
            rng = np.random.default_rng(77_000 + idx)
            pts = rng.integers(0, 3, (300, d)).astype(float)
            ps = PointSet(points=pts, metric=Metric.L0)
            t0 = time.perf_counter()
            tree, trace = hamming_mst(ps, cfg)
            elapsed = time.perf_counter() - t0
            ints = pts.astype(np.int64)
            pairs = [(a, b, float((ints[a] != ints[b]).sum()))
                     for a in range(300) for b in range(a + 1, 300)]
            want = sorted(w for _, _, w in kruskal_edges(300, pairs))
            got = sorted(w for _, _, w in tree.edges)
            records.append({
                "d": d, "elapsed": elapsed, "match": got == want, "trace": trace,
                "space_s": cfg.space_s, "n": 300,
            })
            idx += 1
    return records


def test_criterion_2_hamming_exactness(criterion2_runs):
    assert len(criterion2_runs) == 50
    mismatches = sum(not r["match"] for r in criterion2_runs)
    worst = max(r["elapsed"] for r in criterion2_runs)
    ok = mismatches == 0 and worst < 10.0
    _line("2 (Hamming exactness)", ok,
          f"50 instances, worst wall-clock {worst:.2f}s")
    assert mismatches == 0
    assert worst < 10.0


def _pair_distance(a, b, metric):
    gap = a - b
    if metric is Metric.L1:
        return float(np.abs(gap).sum())
    return float(np.sqrt((gap * gap).sum()))


def _distinct_values(points, metric):
    n = len(points)
    vals = set()
    for i in range(n):
        for j in range(i + 1, n):
            vals.add(round(_pair_distance(points[i], points[j], metric), 9))
    return sorted(vals)


def _dense(vectors):
    return np.stack([v.densify() for v in vectors])


def _two_slc_objective(vectors, metric):
    ps = PointSet(points=_dense(vectors), metric=metric)
    return k_slc_from_mst(exact_mst(ps), 2, ps).objective


@pytest.mark.parametrize("metric,expected", [
    (Metric.L2, (
        # cycle distance 1: four coordinates differ, by xi, 1-xi, 1-xi, xi
        math.sqrt(2.0 * (1.0 - XI_L2) ** 2 + 2.0 * XI_L2 ** 2),
        # cycle distance 2: the shared neighbor coordinate cancels
        math.sqrt(2.0 + 2.0 * XI_L2 ** 2),
        # cycle distance >= 3: disjoint supports
        math.sqrt(2.0 + 4.0 * XI_L2 ** 2),
    )),
    (Metric.L1, (
        # cycle distance 1: four coordinates differ, by xi, 1-xi, 1-xi, xi
        2.0 * abs(1.0 - XI_L1) + 2.0 * XI_L1,
        # cycle distance 2: the shared neighbor coordinate cancels
        2.0 + 2.0 * XI_L1,
        # cycle distance >= 3: disjoint supports
        2.0 + 4.0 * XI_L1,
    )),
])
def test_criterion_3_cycle_value_sets(metric, expected):
    n = 100
    near, middle, far = expected
    points = _dense(gen_cycle_vectors(GraphInstance.one_cycle(n), metric=metric))
    by_hop = {1: near, 2: middle}
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            hop = min(j - i, n - (j - i))
            got = _pair_distance(points[i], points[j], metric)
            if abs(got - by_hop.get(hop, far)) > 1e-9:
                bad.append((i, j, hop, got))
    ok = not bad and near < middle < far
    _line(f"3 ({metric.value} cycle three-value set)", ok,
          f"near={near:.9f}, middle={middle:.9f}, far={far:.9f}, "
          f"{len(bad)} pairs off their class value")
    assert ok, (
        "cycle pairs must sit at the near value at cycle distance 1, the "
        "middle value at cycle distance 2 and the far value otherwise, with "
        f"near < middle < far; first mismatches (i, j, hop, got): {bad[:5]}"
    )


@pytest.mark.parametrize("metric,expected", [
    (Metric.L2, (math.sqrt(2.0), 2.0)),
    (Metric.L1, (2.0, 4.0)),
])
def test_criterion_3_connectivity_value_sets(metric, expected):
    vs = gen_edge_vectors(GraphInstance.one_cycle(100), metric=metric)
    vals = _distinct_values(_dense(vs), metric)
    want = sorted(round(v, 9) for v in expected)
    ok = vals == want
    _line(f"3 ({metric.value} connectivity two-value set)", ok,
          f"claimed {want}, observed {vals}")
    assert ok


def test_criterion_3_hamming_objectives():
    cfg = MpcConfig(space_s=32768)
    connected = gen_hamming_points(GraphInstance.one_cycle(100))
    disconnected = gen_hamming_points(GraphInstance.two_cycles(100))
    obj_c = k_slc_from_mst(hamming_mst(connected, cfg)[0], 2, connected).objective
    obj_d = k_slc_from_mst(hamming_mst(disconnected, cfg)[0], 2, disconnected).objective
    pts = connected.points.astype(int)
    dist_vals = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist_vals.add(int((pts[i] != pts[j]).sum()))
    ok = obj_c == 1.0 and obj_d == 2.0 and dist_vals == {1, 2}
    _line("3 (Hamming objectives 1 vs 2)", ok,
          f"connected={obj_c}, disconnected={obj_d}")
    assert ok


def test_criterion_3_slc_objective_ratios():
    checks = []
    for metric, want in ((Metric.L2, RATIO_CYCLE_L2), (Metric.L1, 3.0)):
        lo = _two_slc_objective(
            gen_cycle_vectors(GraphInstance.one_cycle(100), metric=metric), metric)
        hi = _two_slc_objective(
            gen_cycle_vectors(GraphInstance.two_cycles(100), metric=metric), metric)
        checks.append((f"{metric.value} cycle", hi / lo, want))
    for metric, want in ((Metric.L2, math.sqrt(2.0)), (Metric.L1, 2.0)):
        lo = _two_slc_objective(
            gen_edge_vectors(GraphInstance.one_cycle(100), metric=metric), metric)
        hi = _two_slc_objective(
            gen_edge_vectors(GraphInstance.two_cycles(100), metric=metric), metric)
        checks.append((f"{metric.value} connectivity", hi / lo, want))
    bad = [(name, got, want) for name, got, want in checks
           if abs(got - want) > 1e-9]
    ok = not bad
    _line("3 (2-SLC disconnected/connected ratios)", ok,
          "; ".join(f"{n}={g:.7f}" for n, g, _ in checks))
    assert ok, bad


def test_criterion_4_jl_preservation():
    vs = gen_cycle_vectors(GraphInstance.one_cycle(64))
    eps = 0.2
    pre = np.zeros((64, 64))
    dense = _dense(vs)
    for i in range(64):
        for j in range(i + 1, 64):
            pre[i, j] = math.sqrt(float(((dense[i] - dense[j]) ** 2).sum()))
    attempts = 0
    ok = False
    for attempt in range(4):
        attempts += 1
        params = JlParams.auto(64, eps, Seed(41_000 + attempt))
        out = jl_project(vs, params)
        good = True
        for i in range(64):
            for j in range(i + 1, 64):
                post = math.sqrt(float(((out.points[i] - out.points[j]) ** 2).sum()))
                if not (1 - eps) * pre[i, j] <= post <= (1 + eps) * pre[i, j]:
                    good = False
        if good:
            ok = True
            break
    _line("4 (JL preservation)", ok,
          f"target_dim={JlParams.auto(64, eps, Seed(0)).target_dim}, "
          f"attempts={attempts} (<= 1 + 3 retries)")
    assert ok


def test_criterion_5_mpc_contracts(criterion1_runs, criterion2_runs):
    space_bad = rounds_bad = machines_bad = 0
    for rec in criterion1_runs + criterion2_runs:
        trace = rec["trace"]
        s = rec["space_s"]
        bound = round_bound(rec["n"])
        for r in trace.per_round:
            if r.max_words_on_any_machine > s:
                space_bad += 1
            if r.kind == "level" and r.machines_used > 3 * r.input_words / s + 1:
                machines_bad += 1
        segments = Counter((r.segment, r.kind) for r in trace.per_round)
        for (seg, kind), rounds in segments.items():
            if kind in ("boruvka", "connectivity") and rounds > bound:
                rounds_bad += 1
            if kind == "sort" and rounds > 4:
                rounds_bad += 1
    ok = space_bad == 0 and rounds_bad == 0 and machines_bad == 0
    _line("5 (MPC contracts)", ok,
          f"{len(criterion1_runs) + len(criterion2_runs)} traces checked")
    assert space_bad == 0
    assert rounds_bad == 0
    assert machines_bad == 0


def _measured_diameter(members, metric):
    gap = members[:, None, :] - members[None, :, :]
    if metric is Metric.L1:
        return float(np.abs(gap).sum(axis=2).max())
    if metric is Metric.L2:
        return float(np.sqrt((gap * gap).sum(axis=2)).max())
    return float(np.abs(gap).max())


def test_criterion_6_partition_properties():
    n_samples = 1000
    diam_bad = cut_bad = 0
    for metric in METRICS:
        rng = np.random.default_rng(60_000)
        pts = rng.uniform(0, 1, (200, 2))
        ps = PointSet(points=pts, metric=metric)
        params = PartitionParams.for_point_set(ps)
        pair_a = rng.integers(0, 200, size=50)
        pair_b = (pair_a + 1 + rng.integers(0, 199, size=50)) % 200
        gaps = pts[pair_a] - pts[pair_b]
        if metric is Metric.L1:
            rho = np.abs(gaps).sum(axis=1)
        elif metric is Metric.L2:
            rho = np.sqrt((gaps * gaps).sum(axis=1))
        else:
            rho = np.abs(gaps).max(axis=1)
        cuts = np.zeros((params.levels + 1, 50))
        for s in range(n_samples):
            part = sample_partition(ps, params, Seed(90_000 + s))
            base = base_cell_coords(part, pts)
            for level in range(params.levels + 1):
                coords = coords_at_level(part, base, level)
                cuts[level] += np.any(coords[pair_a] != coords[pair_b], axis=1)
                if level == params.levels:
                    continue
                _, inv = np.unique(coords, axis=0, return_inverse=True)
                d_l = level_diameter(params, level)
                counts = np.bincount(inv)
                for g in np.flatnonzero(counts > 1):
                    if _measured_diameter(pts[inv == g], metric) > d_l:
                        diam_bad += 1
        if _measured_diameter(pts, metric) > level_diameter(params, params.levels):
            diam_bad += 1
        for level in range(params.levels + 1):
            d_l = level_diameter(params, level)
            bound = np.minimum(1.0, params.b_cut * rho / d_l)
            sigma = np.sqrt(bound * (1 - bound) / n_samples)
            freq = cuts[level] / n_samples
            cut_bad += int(np.sum(freq > bound + 3 * sigma + 1e-12))
    ok = diam_bad == 0 and cut_bad == 0
    _line("6 (partition properties)", ok,
          f"3 metrics x {n_samples} partitions")
    assert diam_bad == 0
    assert cut_bad == 0


def test_criterion_7_slc_optimality():
    bad = 0
    rng = np.random.default_rng(70_000)
    for i in range(100):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, 4))
        pts = np.random.default_rng(71_000 + i).uniform(0, 1, (n, 2))
        ps = PointSet(points=pts, metric=Metric.L2)
        got = k_slc_from_mst(exact_mst(ps), k, ps).objective
        want = exhaustive_slc(ps, k)
        if got != want:
            bad += 1
    ok = bad == 0
    _line("7 (SLC-from-MST optimality)", ok, "100 instances, n<=9, k in {2,3}")
    assert bad == 0


def test_criterion_8_scale_runs():
    big_n = 100_000
    pts = np.random.default_rng(80_000).uniform(0, 1, (big_n, 3))
    ps = PointSet(points=pts, metric=Metric.L2)
    params = SlcParams.for_point_set(ps, eta=0.5, seed=Seed(81), repetitions=2)
    t0 = time.perf_counter()
    tree, trace = approximate_mst(ps, params)
    big_elapsed = time.perf_counter() - t0
    spanning = len(tree.edges) == big_n - 1
    within_space = trace.max_words() <= params.mpc.space_s
    oracle_excluded = big_n > DENSE_CAP
    with pytest.raises(CapacityError):
        exact_mst(ps)

    spot_n = 10_000
    spot_pts = np.random.default_rng(80_001).uniform(0, 1, (spot_n, 3))
    spot_ps = PointSet(points=spot_pts, metric=Metric.L2)
    spot_params = SlcParams.for_point_set(spot_ps, eta=0.5, seed=Seed(82))
    t0 = time.perf_counter()
    spot_tree, _ = approximate_mst(spot_ps, spot_params)
    spot_elapsed = time.perf_counter() - t0
    spot_exact = exact_mst(spot_ps)
    lower = _lower_violations(spot_tree, spot_exact)
    upper = _upper_violations(spot_tree, spot_exact, 0.5)
    if upper:
        spot_params = SlcParams.for_point_set(
            spot_ps, eta=0.5, seed=derive_seed(Seed(82), "retry"))
        spot_tree, _ = approximate_mst(spot_ps, spot_params)
        lower = max(lower, _lower_violations(spot_tree, spot_exact))
        upper = _upper_violations(spot_tree, spot_exact, 0.5)
    ok = spanning and within_space and oracle_excluded and lower == 0 and upper == 0
    _line("8 (desk-scale substitute)", ok,
          f"n=1e5 approx wall-clock {big_elapsed:.1f}s (oracle excluded by "
          f"dense cap {DENSE_CAP}); n=1e4 spot {spot_elapsed:.1f}s")
    assert spanning
    assert within_space
    assert lower == 0 and upper == 0
