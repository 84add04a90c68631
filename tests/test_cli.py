import json

import numpy as np
import pytest

from mpslc import cli, oracle
from mpslc.cli import (
    RunConfig,
    load_csv,
    main,
    normalize_zscore,
    run_experiment,
    write_csv,
    write_sparse,
)
from mpslc.core import CapacityError, InputError, Metric, PointSet, Seed, SparsePoint
from mpslc.hardness import GraphInstance, gen_cycle_vectors

from conftest import uniform_points


def load_sparse(path: str) -> list:
    """The vectors of a file that `write_sparse` wrote."""
    out = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                head, _, body = text.partition(";")
                dim = int(head)
                entries = []
                if body:
                    for item in body.split(","):
                        idx, _, val = item.partition(":")
                        entries.append((int(idx), float(val)))
                out.append(SparsePoint(entries=tuple(entries), dim=dim))
            except (ValueError, InputError) as exc:
                raise InputError(f"{path}:{lineno}: bad sparse record ({exc})") from exc
    if not out:
        raise InputError(f"{path}: no data rows")
    return out


def test_load_csv_basic(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n3,4\n")
    ps = load_csv(str(path))
    assert ps.n == 2 and ps.dim == 2
    assert ps.points[1, 1] == 4.0


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InputError):
        load_csv(str(path))


def test_load_csv_ragged_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,2,3\n")
    with pytest.raises(InputError, match=":2:"):
        load_csv(str(path))


def test_load_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\nx,2\n")
    with pytest.raises(InputError, match=":2:"):
        load_csv(str(path))


def test_csv_round_trip_bit_exact(tmp_path):
    pts = np.random.default_rng(1).normal(size=(1000, 4))
    path = tmp_path / "rt.csv"
    write_csv(pts, str(path))
    back = load_csv(str(path))
    assert np.array_equal(back.points, pts)


def test_sparse_round_trip(tmp_path):
    vs = gen_cycle_vectors(GraphInstance.one_cycle(12))
    path = tmp_path / "inst.txt"
    write_sparse(vs, str(path))
    back = load_sparse(str(path))
    assert back == vs


def test_normalize_two_values():
    ps = PointSet(points=np.array([[0.0], [2.0]]), metric=Metric.L2)
    out = normalize_zscore(ps)
    assert np.allclose(out.points.ravel(), [-1.0, 1.0])


def test_normalize_constant_dim():
    ps = PointSet(points=np.array([[5.0, 1.0], [5.0, 3.0]]), metric=Metric.L2)
    out = normalize_zscore(ps)
    assert np.allclose(out.points[:, 0], 0.0)


def test_normalize_random_moments():
    ps = uniform_points(1000, 5, seed=3)
    out = normalize_zscore(ps)
    assert np.all(np.abs(out.points.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(out.points.var(axis=0) - 1.0) <= 1e-6)


def test_normalize_needs_two_points():
    ps = PointSet(points=np.array([[1.0]]), metric=Metric.L2)
    with pytest.raises(InputError):
        normalize_zscore(ps)


def _write_points(tmp_path, n=120, d=3, seed=0):
    pts = np.random.default_rng(seed).uniform(0, 1, (n, d))
    path = tmp_path / "pts.csv"
    write_csv(pts, str(path))
    return str(path)


def test_run_experiment_ratios(tmp_path):
    path = _write_points(tmp_path, n=600, d=3)
    cfg = RunConfig(input_path=path, metric=Metric.L2, eta=0.5,
                    k_list=list(range(2, 21)), seed=Seed(4), oracle=True)
    report = run_experiment(cfg)
    assert report.edge_check["within_eta"]
    assert len(report.per_k) == 19
    for row in report.per_k:
        assert 1.0 - 1e-9 <= row["ratio"] <= 1.5 + 1e-9


def test_run_experiment_k1_undefined(tmp_path):
    path = _write_points(tmp_path, n=30)
    cfg = RunConfig(input_path=path, metric=Metric.L2, eta=0.5,
                    k_list=[1], seed=Seed(5))
    report = run_experiment(cfg)
    assert report.per_k[0]["approx_objective"] == "undefined"
    assert report.per_k[0]["ratio"] is None


def test_run_experiment_deterministic_modulo_timings(tmp_path):
    path = _write_points(tmp_path, n=80)
    cfg = RunConfig(input_path=path, metric=Metric.L1, eta=1.0,
                    k_list=[2, 3], seed=Seed(6))
    a = run_experiment(cfg).to_dict()
    b = run_experiment(cfg).to_dict()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_experiment_hamming_path(tmp_path):
    pts = np.random.default_rng(7).integers(0, 3, (60, 3)).astype(float)
    path = tmp_path / "ham.csv"
    write_csv(pts, str(path))
    cfg = RunConfig(input_path=path, metric=Metric.L0, eta=0.5,
                    k_list=[2, 4], seed=Seed(8), oracle=True)
    report = run_experiment(cfg)
    for row in report.per_k:
        assert row["approx_objective"] == row["oracle_objective"]


def test_cli_run_and_report_files(tmp_path):
    path = _write_points(tmp_path, n=60)
    out = tmp_path / "report.json"
    curve = tmp_path / "curve.csv"
    code = main(["run", "--input", path, "--metric", "l2", "--eta", "0.5",
                 "--k", "2,4", "--seed", "42", "--out", str(out),
                 "--curve", str(curve)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 42
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "k,approx_objective,oracle_objective,ratio"
    assert len(lines) == 3
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks == sorted(set(ks))


def test_cli_run_oracle_is_opt_in(tmp_path, monkeypatch):
    # without --oracle the dense oracle never runs and its columns stay
    # empty; with it they are filled
    path = _write_points(tmp_path, n=60)
    calls = []
    exact_mst = oracle.exact_mst
    monkeypatch.setattr(oracle, "exact_mst", lambda ps: calls.append(ps.n) or exact_mst(ps))
    reports = {}
    for flag in ([], ["--oracle"]):
        out = tmp_path / "report.json"
        curve = tmp_path / "curve.csv"
        assert main(["run", "--input", path, "--k", "2,4", "--out", str(out),
                     "--curve", str(curve)] + flag) == 0
        reports[bool(flag)] = (json.loads(out.read_text()),
                               curve.read_text().strip().splitlines()[1:])
    plain, plain_curve = reports[False]
    checked, checked_curve = reports[True]
    assert calls == [60]
    assert plain["config"]["oracle"] is False and checked["config"]["oracle"] is True
    assert plain["edge_check"] is None and checked["edge_check"]["within_eta"]
    assert "oracle_seconds" not in plain["timings"] and "oracle_seconds" in checked["timings"]
    assert all(row["oracle_objective"] is None and row["ratio"] is None
               for row in plain["per_k"])
    assert all(line.endswith(",,") for line in plain_curve)
    assert all(row["oracle_objective"] is not None for row in checked["per_k"])
    assert [line.split(",")[:2] for line in plain_curve] == \
        [line.split(",")[:2] for line in checked_curve]


def test_cli_run_oracle_over_cap_is_capacity_error(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "DENSE_CAP", 50)
    path = _write_points(tmp_path, n=60)
    assert main(["run", "--input", path, "--oracle"]) == 3
    assert main(["run", "--input", path]) == 0


def test_cli_verify_exit_codes(tmp_path):
    path = _write_points(tmp_path, n=60)
    assert main(["verify", "--input", path, "--metric", "l2", "--eta", "0.5",
                 "--seed", "1"]) == 0
    assert main(["verify", "--input", str(tmp_path / "nope.csv")]) == 2


def test_cli_trace_dump(tmp_path):
    path = _write_points(tmp_path, n=40)
    out = tmp_path / "trace.jsonl"
    assert main(["trace-dump", "--input", path, "--seed", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"round", "machines_used", "max_words_on_any_machine",
                          "total_messages_words", "input_words", "kind", "segment"}


def test_cli_gen_hardness_round_trip(tmp_path):
    out = tmp_path / "inst.txt"
    assert main(["gen-hardness", "--kind", "cycle", "--n", "16",
                 "--metric", "l2", "--out", str(out)]) == 0
    vs = load_sparse(str(out))
    assert len(vs) == 16

    dense = tmp_path / "dense.csv"
    assert main(["gen-hardness", "--kind", "hamming", "--n", "10",
                 "--out", str(dense)]) == 0
    ps = load_csv(str(dense), Metric.L0)
    assert ps.n == 20

    proj = tmp_path / "proj.csv"
    assert main(["gen-hardness", "--kind", "twocycles", "--n", "16",
                 "--metric", "l2", "--jl-eps", "0.3", "--out", str(proj)]) == 0
    ps2 = load_csv(str(proj))
    assert ps2.n == 16


def test_cli_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert main(["run", "--input", str(bad), "--k", "2"]) == 2


def test_cli_capacity_error_exit_code(tmp_path):
    path = _write_points(tmp_path, n=50)
    # space budget too small for the root job -> capacity error
    assert main(["run", "--input", path, "--k", "2", "--space-s", "16"]) == 3


def test_cli_gen_hardness_jl_eps_zero_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen-hardness", "--kind", "twocycles", "--n", "16",
                 "--jl-eps", "0", "--out", str(out)]) == 2
    assert "eps must lie in (0, 1)" in capsys.readouterr().err


def _write_hamming(tmp_path):
    pts = np.random.default_rng(5).integers(0, 3, (30, 3)).astype(float)
    path = tmp_path / "h.csv"
    write_csv(pts, str(path))
    return str(path)


def test_cli_hamming_small_budget_is_capacity_error(tmp_path, capsys):
    # the mask sorts' split rounds need more than s = 20 words on a machine
    path = _write_hamming(tmp_path)
    assert main(["run", "--input", path, "--metric", "l0", "--k", "2",
                 "--space-s", "20"]) == 3
    assert "budget allows 20" in capsys.readouterr().err


def test_cli_eta_nan_names_eta(tmp_path, capsys):
    assert main(["run", "--input", _write_points(tmp_path, n=40), "--eta", "nan"]) == 2
    assert capsys.readouterr().err.startswith("input error: eta = nan must be positive")


@pytest.mark.parametrize("command", ["run", "verify", "trace-dump"])
@pytest.mark.parametrize("eta,message", [
    ("-1", "eta = -1 must be positive"), ("nan", "eta = nan must be positive"),
    ("0", "eta = 0 must be positive"), ("inf", "eta = inf must be finite")])
def test_cli_refuses_eta_on_the_hamming_path(monkeypatch, tmp_path, capsys, command, eta, message):
    # the exact Hamming tree never reads eta, but eta is checked before any
    # tree is built, as on the grid path
    def build(*args):
        raise AssertionError("the tree was built before eta was checked")

    monkeypatch.setattr(cli, "hamming_mst", build)
    argv = [command, "--input", _write_hamming(tmp_path), "--metric", "l0", "--eta", eta]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


# an output path in a directory that does not exist
NO_DIR = "{tmp}/missing/out"

BAD_INPUTS = {
    "k-zero": ["run", "--k", "0"],
    "eta-nan": ["run", "--eta", "nan"],
    "repetitions-zero": ["run", "--repetitions", "0"],
    "space-s-8": ["run", "--space-s", "8"],
    "k-not-int": ["run", "--k", "2,x"],
    "metric-l7": ["run", "--metric", "l7"],
    "jl-eps-zero": ["gen", "--jl-eps", "0"],
    "jl-eps-above-one": ["gen", "--jl-eps", "1.5"],
    "jl-eps-negative": ["gen", "--jl-eps", "-0.5"],
    "xi-zero": ["gen", "--xi", "0"],
    "xi-nan": ["gen", "--xi", "nan"],
    "xi-inf": ["gen", "--xi", "inf", "--jl-eps", "0.5"],
    "hamming-n-negative": ["gen-hardness", "--kind", "hamming", "--n", "-3"],
    "l0-space-s-20": ["l0", "--metric", "l0", "--k", "2", "--space-s", "20"],
    "l0-eta-nan": ["l0", "--metric", "l0", "--k", "2", "--eta", "nan"],
    "l0-eta-negative": ["l0", "--metric", "l0", "--k", "2", "--eta", "-1"],
    "run-out-no-dir": ["run", "--out", NO_DIR],
    "run-curve-no-dir": ["run", "--curve", NO_DIR],
    "trace-dump-out-no-dir": ["trace-dump", "--out", NO_DIR],
    "gen-sparse-out-no-dir": ["gen", "--out", NO_DIR],
    "gen-csv-out-no-dir": ["gen", "--jl-eps", "0.3", "--out", NO_DIR],
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_bad_input_exits_without_traceback(tmp_path, capsys, case):
    head, *rest = BAD_INPUTS[case]
    out = ["--out", str(tmp_path / "out")]
    if head in ("run", "trace-dump"):
        argv = [head, "--input", _write_points(tmp_path, n=40)] + rest
    elif head == "l0":
        argv = ["run", "--input", _write_hamming(tmp_path)] + rest
    elif head == "gen":
        argv = ["gen-hardness", "--kind", "twocycles", "--n", "16"] + out + rest
    else:
        argv = [head] + out + rest
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) in (2, 3)
    assert capsys.readouterr().err.startswith(("input error:", "capacity error:"))


@pytest.mark.parametrize("case", ["run-out-no-dir", "run-curve-no-dir", "trace-dump-out-no-dir"])
def test_cli_unwritable_output_fails_before_the_run(monkeypatch, tmp_path, capsys, case):
    # the output paths are probed before the tree is built, so a bad one
    # is reported at once, with the message the write would give
    def build(*args):
        raise AssertionError("the tree was built before the output paths were probed")

    monkeypatch.setattr(cli, "_build_tree", build)
    head, *rest = BAD_INPUTS[case]
    argv = [head, "--input", _write_points(tmp_path, n=40)] + rest
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {tmp_path}/missing/out: ")


def test_cli_output_probe_keeps_existing_files(monkeypatch, tmp_path):
    # a run refused after the probe leaves an existing output as it was,
    # and no output that was not there before
    out, curve = tmp_path / "r.json", tmp_path / "c.csv"
    out.write_text("kept\n")

    def build(*args):
        raise CapacityError("refused")

    monkeypatch.setattr(cli, "_build_tree", build)
    argv = ["run", "--input", _write_points(tmp_path, n=40), "--out", str(out),
            "--curve", str(curve)]
    assert main(argv) == 3
    assert out.read_text() == "kept\n" and not curve.exists()
