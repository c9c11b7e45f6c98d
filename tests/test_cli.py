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
    BenchmarkPlan,
    choose_bandwidths,
    read_csv,
    standardize,
)
from dibmix.benchmark import RESULT_COLUMNS
from dibmix import cli
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
    assert not (tmp_path / "bad").exists()


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
    ([], {}),
    (["--s", "1.5", "--categorical-weight", "2"], dict(s=1.5, categorical_weight=2.0)),
])
def test_cluster_bandwidths_are_choose_bandwidths(tmp_path, mixed_csv, flags, spec, capsys):
    out = tmp_path / "bw"
    code = main([
        "cluster", "--input", str(mixed_csv), "--categorical", "c1,c2",
        "--k", "2", "--restarts", "2", *flags, "--output-dir", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    bw = choose_bandwidths(standardize(read_csv(mixed_csv, categorical=["c1", "c2"])), **spec)
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
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "input_not_found"
    assert err["message"]
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()
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
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("values", [("1e200", "2e200", "-1e200", "0", "5e199"),
                                    ("1e308", "-1e308", "0", "1")])
@pytest.mark.parametrize("command", [["cluster", "--k", "2"],
                                     ["baseline", "--method", "kproto", "--k", "2"]])
def test_column_too_large_to_standardize(tmp_path, capsys, values, command):
    """A column whose standard deviation overflows is refused, not turned
    into zeros."""
    data = tmp_path / "huge.csv"
    _write_table(data, ["x1"], [[v] for v in values])
    code = main([*command, "--input", str(data), "--restarts", "2",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_input"
    assert "x1" in err["message"]
    assert not (tmp_path / "o").exists()


def test_huge_column_without_standardizing(tmp_path, capsys):
    """Squared distances that overflow are an exact zero of the kernel, not
    a RuntimeWarning; a default gamma that overflows is refused."""
    data = tmp_path / "huge.csv"
    _write_table(data, ["x1", "c1"], zip(("1e200", "2e200", "-1e200", "0", "5e199"), "ababa"))
    out = tmp_path / "o"
    assert main(["cluster", "--input", str(data), "--categorical", "c1", "--k", "2",
                 "--no-standardize", "--restarts", "2", "--output-dir", str(out)]) == 0
    capsys.readouterr()
    result = json.loads((out / "result.json").read_text())
    assert all(np.isfinite(result[key]) for key in ("compression", "relevance", "objective"))
    code = main(["baseline", "--input", str(data), "--categorical", "c1", "--method", "kproto",
                 "--k", "2", "--no-standardize", "--output-dir", str(tmp_path / "kp")])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_input"
    assert not (tmp_path / "kp").exists()


def test_default_gamma_of_one_row_is_zero_variance(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("x1\n1.5\n")
    code = main(["baseline", "--input", str(data), "--method", "kproto", "--no-standardize",
                 "--k", "1", "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "zero_variance"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["cluster", "--restarts", "2"],
                                     ["baseline", "--method", "pam"]])
def test_truth_of_wrong_length_leaves_no_output_dir(tmp_path, separated_csv, command, capsys):
    data, _, truth = separated_csv
    short = tmp_path / "short.csv"
    _write_labels(short, truth[:-1])
    code = main([*command, "--input", str(data), "--categorical", "c1", "--k", "2",
                 "--truth", str(short), "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert "truth has 39 labels" in err["message"]
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()
    assert "subsample" in err["message"]


def test_size_cap_is_fixed_at_10000_rows(tmp_path, capsys):
    data = tmp_path / "big.csv"
    _write_table(data, ["x"], [[i % 97] for i in range(10_001)])
    code = main(["cluster", "--input", str(data), "--k", "2", "--s", "1",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "size_cap"
    assert not (tmp_path / "o").exists()
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
    assert not (tmp_path / "o").exists()


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
    assert not (tmp_path / "o").exists()


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
    assert not out.exists()


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
    assert not out.exists()


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
    assert not out.exists()


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


def _one_kind_csvs(tmp_path, mixed_csv):
    """The categorical and the continuous columns of ``mixed_csv`` as two CSVs."""
    with open(mixed_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cat_only, cont_only = tmp_path / "cat_only.csv", tmp_path / "cont_only.csv"
    _write_table(cat_only, ["c1", "c2"], [row[2:] for row in rows])
    _write_table(cont_only, ["x1", "x2"], [row[:2] for row in rows])
    return {"mixed": mixed_csv, "cat": cat_only, "cont": cont_only}


_TINY_BENCHMARK = ["benchmark", "--ns", "20", "--p-cs", "1", "--p-ds", "1", "--levels", "2",
                   "--overlaps-cont", "0.3", "--overlaps-cat", "0.3", "--replicates", "1",
                   "--restarts", "2"]


@pytest.mark.parametrize("data, argv, flag", [
    ("cat", ["cluster", "--s", "nan"], "--s"),
    ("cat", ["cluster", "--s-multiplier", "nan"], "--s-multiplier"),
    ("cont", ["cluster", "--lambda-offset", "nan"], "--lambda-offset"),
    ("mixed", ["cluster", "--categorical-weight", "inf"], "--categorical-weight"),
    ("cont", ["cluster", "--categorical-weight", "inf"], "--categorical-weight"),
    ("mixed", ["cluster", "--lambda", "0.1,inf"], "--lambda"),
    ("cat", ["sweep-beta", "--s", "nan", "--betas", "1,10"], "--s"),
    ("mixed", ["baseline", "--method", "pam", "--gamma", "inf"], "--gamma"),
    (None, [*_TINY_BENCHMARK, "--categorical-weight", "inf"], "--categorical-weight"),
    (None, [*_TINY_BENCHMARK, "--overlaps-cat", "0.3,nan"], "--overlaps-cat"),
    (None, ["datagen", "--n", "20", "--p-c", "1", "--p-d", "1", "--overlap-cont=-inf"],
     "--overlap-cont"),
])
def test_non_finite_float_flag_exits_2_before_any_output(tmp_path, mixed_csv, data, argv, flag,
                                                         capsys):
    out = tmp_path / "o"
    if data is not None:
        categorical = [] if data == "cont" else ["--categorical", "c1,c2"]
        argv = [*argv, "--input", str(_one_kind_csvs(tmp_path, mixed_csv)[data]),
                *categorical, "--k", "2", "--restarts", "2"]
    assert main([*argv, "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert err["message"].startswith(f"{flag} must be a finite number")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["cluster", "--k", "2", "--lambda", "0.1,abc"], "--lambda: 'abc' is not a number"),
    (["sweep-beta", "--k", "2", "--betas", "1,abc"], "--betas: 'abc' is not a number"),
    ([*_TINY_BENCHMARK, "--overlaps-cat", "0.3,abc"], "--overlaps-cat: 'abc' is not a number"),
    ([*_TINY_BENCHMARK, "--ns", "20,x"], "--ns: 'x' is not an integer"),
    ([*_TINY_BENCHMARK, "--balances", "equal,bogus"],
     "--balances: 'bogus' is not one of ['equal', 'imbalanced', 'imbalanced-3:1']"),
], ids=["lambda", "betas", "overlaps_cat", "ns", "balances"])
def test_list_flag_item_that_does_not_parse_exits_2_before_any_work(tmp_path, argv, message,
                                                                     capsys):
    # the --input file does not exist, so a check made after the CSV is
    # read would exit with input_not_found instead
    if argv[0] != "benchmark":
        argv = [*argv, "--input", str(tmp_path / "missing.csv")]
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err == {"code": "invalid_argument", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cluster", "--categorical", "c1", "--k", "2"],
    ["baseline", "--categorical", "c1", "--method", "pam", "--k", "2"],
    ["sweep-beta", "--categorical", "c1", "--k", "2", "--betas", "1,10"],
    ["datagen", "--n", "20", "--p-c", "1", "--p-d", "1"],
    _TINY_BENCHMARK,
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below_file"])
def test_output_dir_at_or_below_a_file_exits_2(tmp_path, separated_csv, argv, below, capsys):
    data, _, _ = separated_csv
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    if argv[0] in ("cluster", "baseline", "sweep-beta"):
        argv = [*argv, "--input", str(data)]
    assert main([*argv, "--output-dir", str(blocker.joinpath(*below))]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert "is not a directory" in err["message"]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv", [
    ["cluster", "--categorical", "c1", "--k", "2"],
    ["baseline", "--categorical", "c1", "--method", "pam", "--k", "2"],
    ["sweep-beta", "--categorical", "c1", "--k", "2", "--betas", "1,10"],
    ["datagen", "--n", "20", "--p-c", "1", "--p-d", "1"],
    _TINY_BENCHMARK,
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2_before_any_work(tmp_path, argv, capsys):
    # the --input file does not exist, so a check made after the CSV is
    # read would exit with input_not_found instead
    if argv[0] in ("cluster", "baseline", "sweep-beta"):
        argv = [*argv, "--input", str(tmp_path / "missing.csv")]
    out = tmp_path / "o"
    assert main([*argv, "--seed", "-1", "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err == {"code": "invalid_argument",
                   "message": "--seed must be nonnegative and finite, at most 1e100, got -1"}
    assert not out.exists()


def test_benchmark_plan_refuses_a_negative_seed():
    with pytest.raises(ValueError,
                       match="seed must be nonnegative and finite, at most 1e100, got -3"):
        BenchmarkPlan(seed=-3)


def test_benchmark_output_dir_is_checked_before_the_plan_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_benchmark", lambda *a, **kw: calls.append(a))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main([*_TINY_BENCHMARK, "--output-dir", str(blocker / "sub")]) == 2
    assert _err(capsys)[0]["code"] == "invalid_argument"
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["cluster", "--categorical", "c1", "--k", "2"],
    ["baseline", "--categorical", "c1", "--method", "pam", "--k", "2"],
    ["sweep-beta", "--categorical", "c1", "--k", "2", "--betas", "1,10"],
    ["datagen", "--n", "20", "--p-c", "1", "--p-d", "1"],
    _TINY_BENCHMARK,
], ids=lambda argv: argv[0])
def test_empty_output_dir_exits_2_before_any_work(tmp_path, separated_csv, argv, monkeypatch,
                                                  capsys):
    data, _, _ = separated_csv
    if argv[0] in ("cluster", "baseline", "sweep-beta"):
        argv = [*argv, "--input", str(data)]
    calls = []
    monkeypatch.setattr(cli, "run_benchmark", lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main([*argv, "--output-dir", ""]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert err["message"] == "--output-dir must not be empty"
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, flag", [
    (["baseline", "--method", "pam", "--gamma", "5"], "--gamma"),
    (["cluster", "--truth-column", "truth"], "--truth-column"),
    (["baseline", "--method", "kproto", "--truth-column", "truth"], "--truth-column"),
    (["cluster", "--s", "0.5", "--s-multiplier", "2"], "--s-multiplier"),
    (["cluster", "--lambda", "0.2", "--categorical-weight", "5"], "--categorical-weight"),
    (["cluster", "--lambda-offset", "0.1", "--categorical-weight", "5"], "--categorical-weight"),
])
def test_flag_the_fit_would_ignore_exits_2(tmp_path, separated_csv, argv, flag, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "o"
    assert main([*argv, "--input", str(data), "--categorical", "c1", "--k", "2",
                 "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert err["message"].startswith(f"{flag} with")
    assert not out.exists()


def test_aggregate_only_refuses_every_plan_flag_and_progress(tmp_path, capsys):
    assert main([*_TINY_BENCHMARK, "--output-dir", str(tmp_path / "bench")]) == 0
    results = str(tmp_path / "bench" / "results.csv")
    given = [("--progress",)]
    for f in fields(BenchmarkPlan):
        if f.name != "k":
            value = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
            given.append(("--" + f.name.replace("_", "-"), str(value)))
    out = tmp_path / "o"
    for flag in given:
        capsys.readouterr()
        assert main(["benchmark", "--aggregate-only", results, *flag,
                     "--output-dir", str(out)]) == 2, flag
        err, _ = _err(capsys)
        assert err["code"] == "invalid_argument"
        assert err["message"] == f"{flag[0]} with --aggregate-only would be ignored"
        assert not out.exists()


def test_no_standardize_with_pam_exits_2(tmp_path, separated_csv, capsys):
    data, _, _ = separated_csv
    out = tmp_path / "o"
    assert main(["baseline", "--input", str(data), "--categorical", "c1", "--method", "pam",
                 "--k", "2", "--no-standardize", "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert err["message"] == "--no-standardize with --method pam would be ignored"
    assert not out.exists()


@pytest.mark.threads
def test_aggregate_only_refuses_threads(tmp_path, capsys):
    assert main([*_TINY_BENCHMARK, "--output-dir", str(tmp_path / "bench")]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["benchmark", "--aggregate-only", str(tmp_path / "bench" / "results.csv"),
                 "--threads", "1", "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert err["message"] == "--threads with --aggregate-only would be ignored"
    assert not out.exists()


def test_aggregate_only_bad_cell_is_located_parse_error(tmp_path, capsys):
    assert main([*_TINY_BENCHMARK, "--output-dir", str(tmp_path / "bench")]) == 0
    capsys.readouterr()
    with open(tmp_path / "bench" / "results.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    bad = tmp_path / "bad.csv"
    _write_table(bad, header, [row[:header.index("runtime_s")] + ["X"]
                               + row[header.index("runtime_s") + 1:] for row in rows])
    out = tmp_path / "o"
    assert main(["benchmark", "--aggregate-only", str(bad), "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "parse_error"
    assert err["message"] == f"{bad}: line 2, column 'runtime_s': not a float: 'X'"
    assert not out.exists()


_SOUND_RESULT = {"cell": "0", "n": "20", "p_c": "1", "p_d": "1", "levels": "2",
                 "overlap_cont": "0.3", "overlap_cat": "0.3", "balance": "equal",
                 "replicate": "0", "method": "dibmix", "status": "ok", "ari": "0.5",
                 "effective_k": "2", "runtime_s": "0.010000", "error": ""}


@pytest.mark.parametrize("column, text, why", [
    ("ari", "nan", "an ok row needs an ARI in [-1, 1], got nan"),
    ("ari", "7.5", "an ok row needs an ARI in [-1, 1], got 7.5"),
    ("ari", "", "an ok row needs an ARI in [-1, 1], got None"),
    ("status", "bogus", "not 'ok' or 'error': 'bogus'"),
    ("method", "kmeans",
     "not one of ('dibmix', 'kprototypes', 'gower_pam'): 'kmeans'"),
    ("runtime_s", "inf", "not a finite time >= 0: inf"),
    ("balance", "bogus", "balance must be 'equal' or 'imbalanced-3:1'"),
    ("n", "-7", "n must be at least 4"),
    ("overlap_cat", "1.5", "overlap_cat must lie strictly between 0 and 1, got 1.5"),
    ("levels", "1", "every categorical variable needs at least 2 levels"),
    ("n", "", "a factor cell must not be empty"),
], ids=["nan_ari", "ari_above_1", "empty_ari", "bogus_status", "unknown_method", "inf_runtime",
        "bogus_balance", "negative_n", "overlap_above_1", "one_level", "empty_n"])
def test_aggregate_only_refuses_a_row_no_run_writes(tmp_path, column, text, why, capsys):
    results = tmp_path / "results.csv"
    bad = {**_SOUND_RESULT, column: text}
    _write_table(results, RESULT_COLUMNS,
                 [[row[c] for c in RESULT_COLUMNS] for row in (_SOUND_RESULT, bad)])
    out = tmp_path / "agg"
    assert main(["benchmark", "--aggregate-only", str(results), "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "parse_error"
    assert err["message"] == f"{results}: line 3, column {column!r}: {why}"
    assert not out.exists()


@pytest.mark.parametrize("data", ["cont", "mixed"])
@pytest.mark.parametrize("argv", [["cluster"], ["sweep-beta", "--betas", "0,5"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", ["--s", "--s-multiplier"])
def test_s_too_small_for_the_data_exits_2(tmp_path, mixed_csv, data, argv, flag, capsys):
    categorical = [] if data == "cont" else ["--categorical", "c1,c2"]
    out = tmp_path / "o"
    assert main([*argv, "--input", str(_one_kind_csvs(tmp_path, mixed_csv)[data]),
                 *categorical, "--k", "2", "--restarts", "2", flag, "1e-320",
                 "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_input"
    assert err["message"].startswith("continuous bandwidth s=")
    assert not out.exists()
    # a tiny s that the data can still be divided by runs
    assert main([*argv, "--input", str(_one_kind_csvs(tmp_path, mixed_csv)[data]),
                 *categorical, "--k", "2", "--restarts", "2", "--s", "1e-300",
                 "--output-dir", str(out)]) == 0


def test_unreadable_input_is_io_error(tmp_path, capsys):
    # a directory given as the input CSV: an OSError other than a missing file
    code = main(["cluster", "--input", str(tmp_path), "--k", "2",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert _err(capsys)[0]["code"] == "io_error"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["cluster"], ["sweep-beta", "--betas", "1"]],
                         ids=lambda argv: argv[0])
def test_lambda_and_lambda_offset_exclude_each_other(tmp_path, separated_csv, argv, capsys):
    data, _, _ = separated_csv
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(data), "--categorical", "c1", "--k", "2",
              "--lambda", "0.1", "--lambda-offset", "0.2", "--output-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
        "--overlap-cont", "1.5", "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("text, code", [
    (",".join(RESULT_COLUMNS) + "\n0,20\n", "parse_error"),  # a short row
    ("cell,n,method,status\n0,20,dibmix,ok\n", "schema_error"),  # missing columns
], ids=["short_row", "missing_columns"])
def test_aggregate_only_rejects_a_malformed_results_file(tmp_path, text, code, capsys):
    results = tmp_path / "results.csv"
    results.write_text(text)
    out = tmp_path / "agg"
    assert main(["benchmark", "--aggregate-only", str(results), "--output-dir", str(out)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == code
    assert not out.exists()


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
    assert not out.exists()  # the plan is checked before the output directory is made


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


@pytest.mark.parametrize("text, column", [
    ("a,b\n1,x\n2\n3,y\n", "b"),  # short row
    ("a\n1\n2,3\n", None),  # long row
], ids=["short_row", "long_row"])
def test_score_rejects_a_row_off_the_header(tmp_path, text, column, capsys):
    truth = tmp_path / "t.csv"
    truth.write_text(text)
    pred = tmp_path / "p.csv"
    _write_labels(pred, [0, 1, 0])
    argv = ["score", "--truth", str(truth), "--pred", str(pred)]
    if column:
        argv += ["--truth-column", column]
    assert main(argv) == 2
    err, _ = _err(capsys)
    assert err["code"] == "parse_error"
    assert "fields, expected" in err["message"]


def test_score_length_mismatch(tmp_path, capsys):
    truth = tmp_path / "t.csv"
    pred = tmp_path / "p.csv"
    _write_labels(truth, [0, 0, 1])
    _write_labels(pred, [0, 1])
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == 2
    err, _ = _err(capsys)
    assert err["code"] == "invalid_argument"
