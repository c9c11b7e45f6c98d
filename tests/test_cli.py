"""CLI contract tests: subcommands, outputs, manifests, exit codes, and the
machine-readable error envelope.

The CLI is driven in-process through main(argv) for speed; the
subprocess-level determinism contract is exercised in the acceptance suite.
"""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from dibmix import (
    BALANCE_IMBALANCED,
    BalanceSpec,
    BenchmarkPlan,
    choose_bandwidths,
    read_csv,
    standardize,
)
from dibmix.cli import _benchmark_plan, _write_json, build_parser, main


def _err(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.strip().splitlines()[-1])["error"], captured


def _write_labels(path, labels, column="truth"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([column])
        for v in labels:
            writer.writerow([v])


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture()
def mixed_csv(tmp_path):
    """Two continuous columns and two categorical ones (2 and 5 levels)."""
    rng = np.random.default_rng(5)
    n = 40
    cont = rng.standard_normal((n, 2))
    cat = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 5, n)])
    path = tmp_path / "mixed.csv"
    _write_table(path, ["x1", "x2", "c1", "c2"],
                 [[a, b, f"u{c}", f"v{d}"] for (a, b), (c, d) in zip(cont.tolist(), cat)])
    return path


@pytest.fixture()
def separated_csv(tmp_path):
    """A small, clearly separated two-cluster mixed dataset + truth file."""
    rng = np.random.default_rng(0)
    n = 40
    truth = np.repeat([0, 1], n // 2)
    x = rng.standard_normal(n) + 8.0 * truth
    cat = np.where(rng.uniform(size=n) < 0.95, truth, 1 - truth)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "c1"])
        for xi, ci in zip(x, cat):
            writer.writerow([repr(float(xi)), f"v{ci}"])
    truth_path = tmp_path / "truth.csv"
    _write_labels(truth_path, truth)
    return data, truth_path, truth


# ---------------------------------------------------------------------------
# cluster


def test_cluster_happy_path(tmp_path, separated_csv, capsys):
    data, truth_path, _ = separated_csv
    out = tmp_path / "out"
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--beta", "50", "--restarts", "3", "--seed", "1",
        "--truth", str(truth_path), "--output-dir", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    for line in ("H(T) =", "I(T;Y) =", "objective =", "effective_k =", "ari ="):
        assert line in stdout
    result = json.loads((out / "result.json").read_text())
    assert result["ari"] == 1.0
    assert result["effective_k"] == 2
    assert len(result["assignment"]) == 40
    assert result["objective"] == pytest.approx(
        result["compression"] - 50.0 * result["relevance"], abs=1e-9
    )
    assert len(result["restart_summary"]) == 3
    lines = (out / "assignment.csv").read_text().strip().splitlines()
    assert lines[0] == "assignment"
    assert len(lines) == 41
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "cluster"
    assert manifest["parameters"]["k"] == 2
    assert manifest["parameters"]["seed"] == 1
    assert "threads" not in manifest["parameters"]
    assert set(manifest["versions"]) == {"dibmix", "numpy", "scipy", "python"}


def test_cluster_k1_trivial(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "k1"
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "1", "--restarts", "1", "--output-dir", str(out),
    ])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["objective"] == pytest.approx(0.0, abs=1e-12)
    assert result["effective_k"] == 1
    assert set(result["assignment"]) == {0}
    capsys.readouterr()


def test_cluster_dump_files(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "dump"
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--restarts", "2", "--output-dir", str(out),
        "--dump-density",
    ])
    assert code == 0
    capsys.readouterr()
    density = np.loadtxt(out / "density.csv", delimiter=",")
    assert density.shape == (40, 40)
    np.testing.assert_allclose(density.sum(axis=1), 1.0, atol=1e-9)


def test_cluster_subsample_deterministic(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main([
            "cluster", "--input", str(data), "--categorical", "c1",
            "--k", "2", "--restarts", "2", "--subsample", "12",
            "--seed", "5", "--output-dir", str(out),
        ])
        assert code == 0
        outs.append(json.loads((out / "result.json").read_text()))
    capsys.readouterr()
    assert len(outs[0]["assignment"]) == 12
    assert len(outs[0]["subsample_indices"]) == 12
    assert outs[0]["subsample_indices"] == outs[1]["subsample_indices"]
    assert outs[0]["assignment"] == outs[1]["assignment"]


def test_cluster_lambda_flags(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "lam"
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--restarts", "2", "--lambda", "0.25",
        "--s", "1.5", "--output-dir", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    result = json.loads((out / "result.json").read_text())
    assert result["bandwidths"] == {"s": 1.5, "lambda": [0.25]}
    # wrong arity is a usage error
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--restarts", "2", "--lambda", "0.2,0.3",
        "--output-dir", str(tmp_path / "bad"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"


def test_cluster_lambda_offset(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "off"
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--restarts", "2", "--lambda-offset", "0.1",
        "--output-dir", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    result = json.loads((out / "result.json").read_text())
    # binary variable: (2-1)/2 - 0.1 = 0.4
    assert result["bandwidths"]["lambda"] == [pytest.approx(0.4)]


@pytest.mark.parametrize("flags, spec", [
    ([], BalanceSpec()),
    (["--s", "1.5", "--categorical-weight", "2"],
     BalanceSpec(s_value=1.5, categorical_weight=2.0)),
])
def test_cluster_bandwidths_are_choose_bandwidths(tmp_path, mixed_csv, flags, spec, capsys):
    out = tmp_path / "bw"
    code = main([
        "cluster", "--input", str(mixed_csv), "--categorical", "c1,c2",
        "--k", "2", "--restarts", "2", *flags, "--output-dir", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    bw = choose_bandwidths(standardize(read_csv(mixed_csv, categorical=["c1", "c2"])), spec)
    result = json.loads((out / "result.json").read_text())
    assert result["bandwidths"] == {"s": bw.s, "lambda": bw.lam.tolist()}


def test_lambda_offset_matches_categorical_only_fallback(tmp_path, mixed_csv, capsys):
    cat_only = tmp_path / "cat_only.csv"
    with open(mixed_csv, newline="") as fh:
        _write_table(cat_only, ["c1", "c2"], [row[2:] for row in list(csv.reader(fh))[1:]])
    lams = []
    for data, flags in ((mixed_csv, ["--lambda-offset", "0.2"]), (cat_only, [])):
        out = tmp_path / data.stem
        assert main([
            "cluster", "--input", str(data), "--categorical", "c1,c2",
            "--k", "2", "--restarts", "2", *flags, "--output-dir", str(out),
        ]) == 0
        lams.append(json.loads((out / "result.json").read_text())["bandwidths"]["lambda"])
    capsys.readouterr()
    # max(0, (l - 1)/l - 0.2) for 2 and 5 levels
    assert lams[0] == lams[1] == pytest.approx([0.3, 0.6])


def test_continuous_only_csv(tmp_path, capsys):
    data = tmp_path / "cont.csv"
    _write_table(data, ["x1", "x2"], np.random.default_rng(2).standard_normal((30, 2)).tolist())
    common = ["--input", str(data), "--k", "2", "--restarts", "2"]
    assert main(["cluster", *common, "--output-dir", str(tmp_path / "cl")]) == 0
    assert main(["sweep-beta", *common, "--betas", "1,10,100",
                 "--output-dir", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    result = json.loads((tmp_path / "cl" / "result.json").read_text())
    assert result["bandwidths"] == {
        "s": choose_bandwidths(standardize(read_csv(data))).s, "lambda": [],
    }
    assert len((tmp_path / "sw" / "curve.csv").read_text().splitlines()) == 4


# ---------------------------------------------------------------------------
# error envelope / exit codes


def test_missing_input_file(tmp_path, capsys):
    code = main([
        "cluster", "--input", str(tmp_path / "absent.csv"), "--k", "2",
        "--output-dir", str(tmp_path),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "input_not_found"
    assert err["message"]


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,c1\n1.0,a\n,b\n")  # blank continuous cell
    code = main([
        "cluster", "--input", str(bad), "--categorical", "c1", "--k", "2",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "parse_error"


def test_non_finite_cell_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,c1\n1.0,a\nnan,b\n2.0,a\n")
    code = main([
        "cluster", "--input", str(bad), "--categorical", "c1", "--k", "2",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "parse_error"
    assert "not finite: 'nan'" in err["message"]


def test_schema_error(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    code = main([
        "cluster", "--input", str(data), "--categorical", "missing", "--k", "2",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "schema_error"


def test_zero_variance_error(tmp_path, capsys):
    const = tmp_path / "const.csv"
    with open(const, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "c1"])
        for i in range(10):
            writer.writerow(["2.5", f"v{i % 2}"])
    code = main([
        "baseline", "--input", str(const), "--categorical", "c1",
        "--method", "pam", "--k", "2", "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "zero_variance"


def test_size_cap_error(tmp_path, separated_csv, capsys, monkeypatch):
    monkeypatch.setattr("dibmix.kernels.DEFAULT_MAX_N", 4)
    data, _, _ = separated_csv
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1", "--k", "2",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "size_cap"
    assert "subsample" in err["message"]


def test_size_cap_is_fixed_at_10000_rows(tmp_path, capsys):
    data = tmp_path / "big.csv"
    _write_table(data, ["x"], [[i % 97] for i in range(10_001)])
    code = main(["cluster", "--input", str(data), "--k", "2", "--s", "1",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "size_cap"
    with pytest.raises(SystemExit):  # the cap is not an option
        build_parser().parse_args(["cluster", "--input", str(data), "--k", "2",
                                   "--max-n", "20000"])


def test_invalid_argument_error(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1", "--k", "0",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"


@pytest.mark.parametrize("argv", [
    ["cluster", "--categorical-weight", "nan"],
    ["sweep-beta", "--betas", "0,5,5,100"],
])
def test_invalid_balance_weight_and_beta_grid(tmp_path, separated_csv, argv, capsys):
    data, _, _ = separated_csv
    code = main([
        *argv, "--input", str(data), "--categorical", "c1", "--k", "2",
        "--restarts", "2", "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"


@pytest.mark.parametrize("argv", [
    ["cluster", "--beta", "nan"],
    ["cluster", "--beta", "inf"],
    ["sweep-beta", "--betas", "0,nan"],
    ["sweep-beta", "--betas", "0,inf"],
])
def test_non_finite_beta_is_invalid_argument(tmp_path, separated_csv, argv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "o"
    code = main([
        *argv, "--input", str(data), "--categorical", "c1", "--k", "2",
        "--restarts", "2", "--output-dir", str(out),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert "beta" in err["message"]
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
def test_non_finite_gamma_is_invalid_argument(tmp_path, separated_csv, gamma, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "o"
    code = main([
        "baseline", "--input", str(data), "--categorical", "c1", "--method", "kproto",
        "--k", "2", "--gamma", gamma, "--output-dir", str(out),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert "gamma" in err["message"]
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("method", ["pam", "kproto"])
@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_baseline_iteration_cap_below_one_is_invalid_argument(tmp_path, separated_csv, method,
                                                             max_iter, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "o"
    code = main([
        "baseline", "--input", str(data), "--categorical", "c1", "--method", method,
        "--k", "2", "--max-iter", max_iter, "--output-dir", str(out),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert "max_iter" in err["message"]
    assert not (out / "result.json").exists()


def test_write_json_rejects_nan_and_leaves_no_file(tmp_path):
    path = tmp_path / "result.json"
    with pytest.raises(RuntimeError, match="result.json"):
        _write_json(path, {"objective": float("nan")})
    assert not path.exists()
    with pytest.raises(RuntimeError):
        _write_json(path, {"trace": [1.0, float("inf")]})
    assert not path.exists()
    _write_json(path, {"objective": 1.5})
    assert json.loads(path.read_text()) == {"objective": 1.5}


@pytest.mark.threads
def test_threads_env_fallback(tmp_path, separated_csv, capsys, monkeypatch):
    data, _, _ = separated_csv
    monkeypatch.setenv("DIBMIX_THREADS", "2")
    out = tmp_path / "env"
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--restarts", "3", "--output-dir", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    monkeypatch.setenv("DIBMIX_THREADS", "0")
    code = main([
        "cluster", "--input", str(data), "--categorical", "c1",
        "--k", "2", "--restarts", "3", "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"


_IO_KEYS = {"input", "categorical", "schema_file", "subsample", "no_standardize",
            "seed", "restarts", "max_iter", "k"}
_BANDWIDTH_KEYS = {"s", "s_multiplier", "lambda", "lambda_offset", "categorical_weight"}


@pytest.mark.parametrize("argv, keys", [
    (["cluster", "--restarts", "2", "--threads", "2", "--dump-density"],
     _IO_KEYS | _BANDWIDTH_KEYS | {"beta", "truth", "truth_column"}),
    (["sweep-beta", "--restarts", "2", "--betas", "1,50", "--threads", "2"],
     _IO_KEYS | _BANDWIDTH_KEYS | {"betas"}),
    (["baseline", "--method", "pam"], _IO_KEYS | {"method", "gamma", "truth", "truth_column"}),
])
def test_manifest_parameter_keys(tmp_path, separated_csv, argv, keys, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "o"
    code = main([*argv, "--input", str(data), "--categorical", "c1", "--k", "2",
                 "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert set(params) == keys
    if argv[0] == "sweep-beta":
        assert params["betas"] == [1.0, 50.0]
    if argv[0] == "baseline":
        assert params["restarts"] == 1  # PAM's default, resolved


# ---------------------------------------------------------------------------
# baseline


def test_baseline_kproto_and_pam(tmp_path, separated_csv, capsys):
    data, truth_path, _ = separated_csv
    for method in ("kproto", "pam"):
        out = tmp_path / method
        code = main([
            "baseline", "--input", str(data), "--categorical", "c1",
            "--method", method, "--k", "2", "--restarts", "3", "--seed", "2",
            "--truth", str(truth_path), "--output-dir", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"method = {method}" in stdout
        result = json.loads((out / "result.json").read_text())
        assert result["ari"] >= 0.8
        assert result["effective_k"] == 2
        assert len(result["assignment"]) == 40
        if method == "kproto":
            assert result["gamma"] == pytest.approx(1.0, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "baseline"
        assert manifest["parameters"]["method"] == method


@pytest.mark.threads
def test_sweep_beta_and_cluster_identical_across_threads(tmp_path, mixed_csv, capsys):
    common = ["--input", str(mixed_csv), "--categorical", "c1,c2", "--restarts", "4",
              "--seed", "3"]
    outputs = []
    for threads in ("1", "3"):
        sweep, cluster = tmp_path / f"sweep{threads}", tmp_path / f"cluster{threads}"
        assert main(["sweep-beta", *common, "--k", "3", "--betas", "0,5,50",
                     "--threads", threads, "--output-dir", str(sweep)]) == 0
        assert main(["cluster", *common, "--k", "4", "--threads", threads,
                     "--output-dir", str(cluster)]) == 0
        outputs.append([(sweep / name).read_bytes()
                        for name in ("curve.csv", "sweep.json", "manifest.json")]
                       + [(cluster / name).read_bytes()
                          for name in ("result.json", "assignment.csv", "manifest.json")])
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.threads
def test_threads_flag_only_on_subcommands_that_use_it():
    parser = build_parser()
    for argv in (["cluster", "--input", "d.csv", "--k", "2"],
                 ["benchmark"],
                 ["sweep-beta", "--input", "d.csv", "--k", "2", "--betas", "1"]):
        assert parser.parse_args(argv + ["--threads", "2"]).threads == 2
    with pytest.raises(SystemExit):
        parser.parse_args(["baseline", "--input", "d.csv", "--method", "pam", "--k", "2",
                           "--threads", "2"])


def test_truth_flags_only_on_cluster_and_baseline():
    parser = build_parser()
    for argv in (["cluster", "--input", "d.csv", "--k", "2"],
                 ["baseline", "--input", "d.csv", "--method", "pam", "--k", "2"]):
        args = parser.parse_args(argv + ["--truth", "x.csv", "--truth-column", "t"])
        assert (args.truth, args.truth_column) == ("x.csv", "t")
    with pytest.raises(SystemExit) as exc:
        main(["sweep-beta", "--input", "d.csv", "--k", "2", "--betas", "1",
              "--truth", "x.csv"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# datagen


def test_datagen_outputs_and_reproducibility(tmp_path, capsys):
    args = [
        "datagen", "--n", "60", "--p-c", "2", "--p-d", "1", "--levels", "3",
        "--overlap-cont", "0.3", "--overlap-cat", "0.6",
        "--balance", "imbalanced", "--seed", "11",
    ]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(args + ["--output-dir", str(out1)]) == 0
    assert main(args + ["--output-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
    assert (out1 / "data_truth.csv").read_bytes() == (out2 / "data_truth.csv").read_bytes()

    ds = read_csv(out1 / "data.csv", categorical=["c1"])
    assert ds.n == 60 and ds.p_cont == 2 and ds.p_cat == 1
    truth_lines = (out1 / "data_truth.csv").read_text().strip().splitlines()
    assert truth_lines[0] == "truth"
    labels = [int(v) for v in truth_lines[1:]]
    assert labels.count(0) == 15 and labels.count(1) == 45  # 3:1 imbalance

    spec = json.loads((out1 / "data_spec.json").read_text())
    assert spec["spec"]["n"] == 60
    assert spec["cluster_sizes"] == [15, 45]
    assert spec["delta"] == pytest.approx(2.0728667789875797, rel=1e-12)
    pi1 = spec["categorical_masses"][0]["pi1"]
    pi2 = spec["categorical_masses"][0]["pi2"]
    assert sum(min(a, b) for a, b in zip(pi1, pi2)) == pytest.approx(0.6, abs=1e-9)


def test_datagen_invalid_overlap(tmp_path, capsys):
    code = main([
        "datagen", "--n", "20", "--p-c", "1", "--p-d", "1",
        "--overlap-cont", "1.5", "--output-dir", str(tmp_path),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_tiny_run_and_aggregate_only(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "benchmark", "--ns", "20", "--p-cs", "1", "--p-ds", "1",
        "--levels", "2", "--overlaps-cont", "0.3", "--overlaps-cat", "0.3",
        "--balances", "equal", "--replicates", "2",
        "--methods", "kprototypes,gower_pam", "--restarts", "2",
        "--seed", "3", "--output-dir", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "results.csv (4 rows, 0 failed)" in stdout
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"kprototypes", "gower_pam"}
    assert all(r["status"] == "ok" for r in rows)
    medians = (out / "medians.csv").read_text()
    assert medians.startswith("method,median_ari,n_ok")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["replicates"] == 2
    assert "threads" not in manifest["parameters"]

    # aggregate-only reproduces the same aggregate files from the results CSV
    agg = tmp_path / "agg"
    code = main([
        "benchmark", "--aggregate-only", str(out / "results.csv"),
        "--output-dir", str(agg),
    ])
    assert code == 0
    capsys.readouterr()
    assert (agg / "medians.csv").read_text() == medians
    assert (agg / "factor_means.csv").read_text() == (out / "factor_means.csv").read_text()


@pytest.mark.parametrize("argv", [
    ["--balances", "equal,bogus"], ["--beta", "nan"], ["--methods", "dibmix,dibmix"],
    ["--balances", "imbalanced,imbalanced-3:1"], ["--ns", "20,20"],
    # a level that no cell could run, listed last, and a bad thread count fail
    # before the first cell runs
    ["--ns", "20,3"], ["--levels", "2,1"], ["--overlaps-cont", "0.3,1.5"], ["--threads", "0"],
])
def test_benchmark_rejects_bad_balance_and_beta(tmp_path, argv, capsys):
    out = tmp_path / "bench"
    code = main([
        "benchmark", "--ns", "20", "--p-cs", "1", "--p-ds", "1", "--levels", "2",
        "--overlaps-cont", "0.3", "--overlaps-cat", "0.3", "--replicates", "1",
        "--restarts", "2", *argv, "--output-dir", str(out),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert not (out / "results.csv").exists()


def test_benchmark_flags_default_to_the_plan():
    assert _benchmark_plan(build_parser().parse_args(["benchmark"])) == BenchmarkPlan()


def test_every_plan_field_but_k_has_a_benchmark_flag():
    plan = _benchmark_plan(build_parser().parse_args([
        "benchmark", "--ns", "40,50", "--p-cs", "1", "--p-ds", "3", "--levels", "5",
        "--overlaps-cont", "0.4", "--overlaps-cat", "0.5", "--balances", "imbalanced",
        "--replicates", "3", "--methods", "gower_pam", "--seed", "7", "--beta", "2.5",
        "--restarts", "4", "--max-iter", "9", "--categorical-weight", "0.5",
    ]))
    assert plan == BenchmarkPlan(
        ns=(40, 50), p_cs=(1,), p_ds=(3,), levels=(5,), overlaps_cont=(0.4,),
        overlaps_cat=(0.5,), balances=(BALANCE_IMBALANCED,), replicates=3,
        methods=("gower_pam",), seed=7, beta=2.5, restarts=4, max_iter=9,
        categorical_weight=0.5,
    )
    unset = [f.name for f in fields(BenchmarkPlan) if getattr(plan, f.name) == f.default]
    assert unset == ["k"]


def test_benchmark_long_options():
    benchmark = build_parser()._subparsers._group_actions[0].choices["benchmark"]
    options = {o for action in benchmark._actions for o in action.option_strings
               if o.startswith("--")}
    assert options == {
        "--help", "--ns", "--p-cs", "--p-ds", "--levels", "--overlaps-cont",
        "--overlaps-cat", "--balances", "--replicates", "--methods", "--beta",
        "--categorical-weight", "--aggregate-only", "--progress", "--seed", "--restarts",
        "--max-iter", "--output-dir", "--threads",
    }


# ---------------------------------------------------------------------------
# sweep-beta


def test_sweep_beta_single_beta_matches_cluster(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    sweep_out = tmp_path / "sweep"
    cluster_out = tmp_path / "cl"
    common = [
        "--input", str(data), "--categorical", "c1", "--k", "2",
        "--restarts", "3", "--seed", "7", "--s", "1.0", "--lambda", "0.3",
    ]
    assert main(["sweep-beta", *common, "--betas", "40",
                 "--output-dir", str(sweep_out)]) == 0
    assert main(["cluster", *common, "--beta", "40",
                 "--output-dir", str(cluster_out)]) == 0
    capsys.readouterr()
    sweep = json.loads((sweep_out / "sweep.json").read_text())
    result = json.loads((cluster_out / "result.json").read_text())
    assert sweep["curve"]["objective"][0] == result["objective"]
    assert sweep["curve"]["relevance"][0] == result["relevance"]
    assert sweep["suggested_beta"] is None


def test_sweep_beta_grid(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "grid"
    code = main([
        "sweep-beta", "--input", str(data), "--categorical", "c1", "--k", "2",
        "--restarts", "3", "--seed", "1", "--betas", "0,10,100",
        "--output-dir", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    lines = (out / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,compression,relevance,objective,effective_k,iterations"
    assert len(lines) == 4
    sweep = json.loads((out / "sweep.json").read_text())
    assert sweep["curve"]["relevance"][0] == pytest.approx(0.0, abs=1e-12)
    assert sweep["curve"]["effective_k"][0] == 1
    assert sweep["suggested_beta"] == 10.0


# ---------------------------------------------------------------------------
# score


def test_score_json(tmp_path, capsys):
    truth = tmp_path / "t.csv"
    pred = tmp_path / "p.csv"
    _write_labels(truth, [0, 0, 1, 1])
    _write_labels(pred, ["a", "a", "b", "b"], column="pred")
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload == {"ari": 1.0, "n": 4}

    _write_labels(pred, [0, 1, 0, 1], column="pred")
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["ari"] == -0.5


def test_score_length_mismatch(tmp_path, capsys):
    truth = tmp_path / "t.csv"
    pred = tmp_path / "p.csv"
    _write_labels(truth, [0, 0, 1])
    _write_labels(pred, [0, 1])
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
