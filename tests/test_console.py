"""The CLI contract as one table: each row is an argv, the exit status and
error envelope it must give, and the paths it must leave or must not leave.

``test_in_process`` runs every row through ``cli.main``.  ``test_console``
runs the same rows through the ``dibmix`` script installed beside the Python
that runs the tests, one subprocess per row, and skips where no such script
is installed (a source checkout run with ``PYTHONPATH=src``).

An argv is split on spaces.  ``{name}`` in an argv, a message or a path
stands for the fixture file ``name`` (see ``_TEXTS``, ``_RESULT_EDITS`` and
``files``), for ``{dir}``, the fixture directory, for ``{missing}``, a file
that does not exist, or for ``{out}``, a path below the test's own
``tmp_path``.  A refused row must leave no ``{out}``, and no row may
change, add or remove anything in the fixture directory.
"""

import csv
import json
import subprocess
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from dibmix import BenchmarkPlan
from dibmix.benchmark import RESULT_COLUMNS
from dibmix.cli import main

from conftest import TINY_BENCHMARK

SCRIPT = Path(sys.executable).with_name("dibmix")

TINY = " ".join(TINY_BENCHMARK)

# Fixture files by name: their text.
_TEXTS = {
    "blank_cell": "x1,c1\n1.0,a\n,b\n",
    "nan_cell": "x1,c1\n1.0,a\nnan,b\n2.0,a\n",
    "const": "x1,c1\n" + "".join(f"2.5,v{i % 2}\n" for i in range(10)),
    "huge": "x1\n1e200\n2e200\n-1e200\n0\n5e199\n",
    "huge308": "x1\n1e308\n-1e308\n0\n1\n",
    "huge_mixed": "x1,c1\n1e200,a\n2e200,b\n-1e200,a\n0,b\n5e199,a\n",
    "one_row": "x1\n1.5\n",
    "truth39": "truth\n" + "0\n" * 20 + "1\n" * 19,
    "short_truth": "id,truth\n1,0\n2\n",
    "long_row": "a\n1\n2,3\n",
    "truth3": "truth\n0\n0\n1\n",
    "pred2": "truth\n0\n1\n",
    "pred3": "truth\n0\n1\n0\n",
    "taken": "not a directory\n",
    "results_short_row": ",".join(RESULT_COLUMNS) + "\n0,20\n",
    "results_missing_columns": "cell,n,method,status\n0,20,dibmix,ok\n",
}

# Copies of the tiny benchmark's results.csv ("results") with one cell of
# its second row, line 3, replaced: name -> (column, text).
_RESULT_EDITS = {
    "bad_runtime": ("runtime_s", "X"),
    "nan_ari": ("ari", "nan"),
    "ari_above_1": ("ari", "7.5"),
    "empty_ari": ("ari", ""),
    "bogus_status": ("status", "bogus"),
    "unknown_method": ("method", "kmeans"),
    "inf_runtime": ("runtime_s", "inf"),
    "bogus_balance": ("balance", "bogus"),
    "negative_n": ("n", "-7"),
    "overlap_above_1": ("overlap_cat", "1.5"),
    "one_level": ("levels", "1"),
    "empty_n": ("n", ""),
}


@dataclass(frozen=True)
class Row:
    argv: str
    status: int
    code: str = None  # None: no error envelope, and ``message`` is matched to stderr
    message: str = ""
    how: str = "exact"  # or "prefix" or "part"
    present: tuple = ()  # non-empty files


def _refused(id, argv, code, message="", how="exact", marks=()):
    return pytest.param(Row(argv, 2, code, message, how), id=id, marks=marks)


def _ok(id, argv, *present):
    return pytest.param(Row(argv, 0, how="part", present=present), id=id)


def _plan_flag(f):
    value = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
    return f"--{f.name.replace('_', '-')} {value}"


ROWS = [
    # a run that works writes its files
    _ok("help", "--help"),
    _ok("datagen", "datagen --n 20 --p-c 1 --p-d 1 --seed 1 --output-dir {out}",
        "{out}/data.csv", "{out}/manifest.json"),
    _ok("benchmark", "benchmark --ns 20 --p-cs 1 --p-ds 1 --levels 2 --overlaps-cont 0.3 "
        "--overlaps-cat 0.3 --balances imbalanced --replicates 1 --restarts 2 --seed 1 "
        "--output-dir {out}", "{out}/results.csv", "{out}/medians.csv", "{out}/factor_means.csv"),
    _ok("aggregate_only", "benchmark --aggregate-only {results} --output-dir {out}",
        "{out}/medians.csv", "{out}/factor_means.csv"),
    *(_ok(f"tiny_s_runs_{cmd}_{data}", f"{cmd} --input {{{data}}}{cat} --k 2 --restarts 2 "
          f"--s 1e-300{betas} --output-dir {{out}}", f"{{out}}/{name}")
      for cmd, betas, name in (("cluster", "", "result.json"),
                               ("sweep-beta", " --betas 0,5", "curve.csv"))
      for data, cat in (("cont", ""), ("mixed", " --categorical c1,c2"))),

    # an input that cannot be read or used
    _refused("missing_input", "cluster --input {missing} --k 2 --output-dir {out}",
             "input_not_found", "input file not found: {missing}"),
    _refused("unreadable_input", "cluster --input {dir} --k 2 --output-dir {out}",
             "io_error", "Is a directory", "part"),
    _refused("blank_cell", "cluster --input {blank_cell} --categorical c1 --k 2 --output-dir {out}",
             "parse_error", "{blank_cell}: unparseable cells: line 3, column 'x1': missing value"),
    _refused("nan_cell", "cluster --input {nan_cell} --categorical c1 --k 2 --output-dir {out}",
             "parse_error", "not finite: 'nan'", "part"),
    _refused("short_row_input", "cluster --input {short_truth} --k 2 --output-dir {out}",
             "parse_error", "fields, expected", "part"),
    _refused("schema_error", "cluster --input {mixed} --categorical missing --k 2 "
             "--output-dir {out}", "schema_error",
             "{mixed}: categorical column(s) not in header: ['missing']"),
    _refused("zero_variance", "baseline --input {const} --categorical c1 --method pam --k 2 "
             "--output-dir {out}", "zero_variance",
             "continuous variable 'x1' has zero range"),
    *(_refused(f"too_large_to_standardize_{cmd.split()[0]}_{data}",
               f"{cmd} --input {{{data}}} --k 2 --restarts 2 --output-dir {{out}}",
               "invalid_input", "x1", "part")
      for cmd in ("cluster", "baseline --method kproto") for data in ("huge", "huge308")),
    _refused("default_gamma_overflows", "baseline --input {huge_mixed} --categorical c1 "
             "--method kproto --k 2 --no-standardize --output-dir {out}", "invalid_input",
             "continuous columns too large for the default gamma; rescale them or give gamma"),
    _refused("default_gamma_of_one_row", "baseline --input {one_row} --method kproto "
             "--no-standardize --k 1 --output-dir {out}", "zero_variance",
             "the default gamma needs at least 2 observations"),
    *(_refused(f"truth_of_wrong_length_{cmd.split()[0]}",
               f"{cmd} --input {{mixed}} --categorical c1,c2 --k 2 --truth {{truth39}} "
               "--output-dir {out}", "invalid_argument", "truth has 39 labels", "part")
      for cmd in ("cluster --restarts 2", "baseline --method pam")),
    *(_refused(f"s_too_small_{cmd}_{data}_{flag[2:]}",
               f"{cmd} --input {{{data}}}{cat} --k 2 --restarts 2 {flag} 1e-320{betas} "
               "--output-dir {out}", "invalid_input", "continuous bandwidth s=", "prefix")
      for cmd, betas in (("cluster", ""), ("sweep-beta", " --betas 0,5"))
      for data, cat in (("cont", ""), ("mixed", " --categorical c1,c2"))
      for flag in ("--s", "--s-multiplier")),
    _refused("k_above_n", "cluster --input {mixed} --categorical c1,c2 --k 41 --restarts 2 "
             "--output-dir {out}", "invalid_argument", "need 1 <= k <= n, got k=41, n=40"),
    _refused("betas_repeated", "sweep-beta --betas 0,5,5,100 --input {mixed} --categorical c1,c2 "
             "--k 2 --restarts 2 --output-dir {out}", "invalid_argument",
             "betas must be strictly increasing"),

    # a results file that no benchmark run writes
    _refused("results_short_row", "benchmark --aggregate-only {results_short_row} "
             "--output-dir {out}", "parse_error", "fields, expected", "part"),
    _refused("results_missing_columns", "benchmark --aggregate-only {results_missing_columns} "
             "--output-dir {out}", "schema_error", "{results_missing_columns}: missing column(s) ",
             "prefix"),
    _refused("results_bad_runtime", "benchmark --aggregate-only {bad_runtime} --output-dir {out}",
             "parse_error", "{bad_runtime}: line 3, column 'runtime_s': not a float: 'X'"),
    *(_refused(f"results_{name}", f"benchmark --aggregate-only {{{name}}} --output-dir {{out}}",
               "parse_error", f"{{{name}}}: line 3, column {_RESULT_EDITS[name][0]!r}: {why}")
      for name, why in (
          ("nan_ari", "an ok row needs an ARI in [-1, 1], got nan"),
          ("ari_above_1", "an ok row needs an ARI in [-1, 1], got 7.5"),
          ("empty_ari", "an ok row needs an ARI in [-1, 1], got None"),
          ("bogus_status", "not 'ok' or 'error': 'bogus'"),
          ("unknown_method", "not one of ('dibmix', 'kprototypes', 'gower_pam'): 'kmeans'"),
          ("inf_runtime", "not a finite time >= 0: inf"),
          ("bogus_balance", "balance must be 'equal' or 'imbalanced-3:1'"),
          ("negative_n", "n must be at least 4"),
          ("overlap_above_1", "overlap_cat must lie strictly between 0 and 1, got 1.5"),
          ("one_level", "every categorical variable needs at least 2 levels"),
          ("empty_n", "a factor cell must not be empty"))),

    # score
    _refused("score_short_row", "score --truth {short_truth} --truth-column truth --pred {pred3}",
             "parse_error", "fields, expected", "part"),
    _refused("score_long_row", "score --truth {long_row} --pred {pred3}",
             "parse_error", "fields, expected", "part"),
    _refused("score_length_mismatch", "score --truth {truth3} --pred {pred2}", "invalid_argument",
             "length mismatch: truth has 3 labels, prediction has 2"),

    # a flag refused before any work; where --input is missing, a check
    # made after the CSV is read would exit with input_not_found instead
    _refused("k_zero", "cluster --input {mixed} --categorical c1,c2 --k 0 --output-dir {out}",
             "invalid_argument", "--k must be >= 1, got 0"),
    *(_refused(f"{name}_before_input", f"{cmd} --input {{missing}} {flags} --output-dir {{out}}",
               "invalid_argument", message)
      for name, cmd, flags, message in (
          ("k_zero", "cluster", "--k 0", "--k must be >= 1, got 0"),
          ("k_zero_sweep", "sweep-beta", "--betas 1 --k 0", "--k must be >= 1, got 0"),
          ("restarts_zero", "cluster", "--k 2 --restarts 0", "--restarts must be >= 1, got 0"),
          ("restarts_zero_pam", "baseline", "--method pam --k 2 --restarts 0",
           "--restarts must be >= 1, got 0"),
          ("max_iter_zero", "cluster", "--k 2 --max-iter 0", "--max-iter must be >= 1, got 0"),
          ("subsample_one", "cluster", "--k 2 --subsample 1",
           "subsample size must be at least 2"))),
    *(_refused(f"max_iter_{max_iter}_{method}", f"baseline --input {{mixed}} --categorical c1,c2 "
               f"--method {method} --k 2 --max-iter {max_iter} --output-dir {{out}}",
               "invalid_argument", f"--max-iter must be >= 1, got {max_iter}")
      for method in ("pam", "kproto") for max_iter in ("0", "-3")),
    *(_refused(f"{name}_not_finite", f"{cmd} --input {{mixed}} --categorical c1,c2 --k 2 "
               f"--restarts 2 {flag} --output-dir {{out}}", "invalid_argument", "beta", "part")
      for name, cmd, flag in (("beta_nan", "cluster", "--beta nan"),
                              ("beta_inf", "cluster", "--beta inf"),
                              ("betas_nan", "sweep-beta", "--betas 0,nan"),
                              ("betas_inf", "sweep-beta", "--betas 0,inf"))),
    _refused("beta_too_large", "cluster --input {mixed} --categorical c1,c2 --k 2 --beta 1e308 "
             "--output-dir {out}", "invalid_argument",
             "--beta must be nonnegative and finite, at most 1e100, got 1e+308"),
    *(_refused(f"gamma_{gamma}", f"baseline --input {{mixed}} --categorical c1,c2 --method kproto "
               f"--k 2 --gamma {gamma} --output-dir {{out}}", "invalid_argument", "gamma", "part")
      for gamma in ("nan", "inf", "-1")),
    *(_refused(f"not_finite_{name}", f"{argv} --output-dir {{out}}", "invalid_argument",
               f"{flag} must be a finite number", "prefix")
      for name, argv, flag in (
          ("s", "cluster --s nan --input {cat} --categorical c1,c2 --k 2 --restarts 2", "--s"),
          ("s_multiplier", "cluster --s-multiplier nan --input {cat} --categorical c1,c2 --k 2 "
           "--restarts 2", "--s-multiplier"),
          ("lambda_offset", "cluster --lambda-offset nan --input {cont} --k 2 --restarts 2",
           "--lambda-offset"),
          ("categorical_weight_nan", "cluster --categorical-weight nan --input {mixed} "
           "--categorical c1,c2 --k 2 --restarts 2", "--categorical-weight"),
          ("categorical_weight", "cluster --categorical-weight inf --input {mixed} "
           "--categorical c1,c2 --k 2 --restarts 2", "--categorical-weight"),
          ("categorical_weight_cont", "cluster --categorical-weight inf --input {cont} --k 2 "
           "--restarts 2", "--categorical-weight"),
          ("lambda", "cluster --lambda 0.1,inf --input {mixed} --categorical c1,c2 --k 2 "
           "--restarts 2", "--lambda"),
          ("sweep_s", "sweep-beta --s nan --betas 1,10 --input {cat} --categorical c1,c2 --k 2 "
           "--restarts 2", "--s"),
          ("gamma_pam", "baseline --method pam --gamma inf --input {mixed} --categorical c1,c2 "
           "--k 2 --restarts 2", "--gamma"),
          ("benchmark_categorical_weight", f"{TINY} --categorical-weight inf",
           "--categorical-weight"),
          ("overlaps_cat", f"{TINY} --overlaps-cat 0.3,nan", "--overlaps-cat"),
          ("overlap_cont", "datagen --n 20 --p-c 1 --p-d 1 --overlap-cont=-inf",
           "--overlap-cont"))),
    *(_refused(f"list_item_{name}", f"{argv} --output-dir {{out}}", "invalid_argument", message)
      for name, argv, message in (
          ("lambda", "cluster --k 2 --lambda 0.1,abc --input {missing}",
           "--lambda: 'abc' is not a number"),
          ("betas", "sweep-beta --k 2 --betas 1,abc --input {missing}",
           "--betas: 'abc' is not a number"),
          ("overlaps_cat", f"{TINY} --overlaps-cat 0.3,abc",
           "--overlaps-cat: 'abc' is not a number"),
          ("ns", f"{TINY} --ns 20,x", "--ns: 'x' is not an integer"),
          ("balances", f"{TINY} --balances equal,bogus",
           "--balances: 'bogus' is not one of ['equal', 'imbalanced', 'imbalanced-3:1']"))),
    _refused("lambda_arity", "cluster --input {mixed} --categorical c1,c2 --k 2 --restarts 2 "
             "--lambda 0.1,0.2,0.3 --output-dir {out}", "invalid_argument",
             "lambda needs 1 or 2 values, got 3"),
    *(_refused(f"lambda_with_offset_{cmd}", f"{cmd} --input {{mixed}} --categorical c1,c2 --k 2 "
               "--lambda 0.1 --lambda-offset 0.2 --output-dir {out}", None,
               "not allowed with argument", "part")
      for cmd in ("cluster", "sweep-beta")),
    *(_refused(f"output_dir_{where}_{argv.split()[0]}", f"{argv} --output-dir {{taken}}{below}",
               "invalid_argument", "is not a directory", "part")
      for argv in ("cluster --input {mixed} --categorical c1,c2 --k 2",
                   "baseline --input {mixed} --categorical c1,c2 --method pam --k 2",
                   "sweep-beta --input {mixed} --categorical c1,c2 --k 2 --betas 1,10",
                   "datagen --n 20 --p-c 1 --p-d 1",
                   TINY)
      for where, below in (("file", ""), ("below_file", "/sub"))),
    *(_refused(f"negative_seed_{argv.split()[0]}", f"{argv} --seed -1 --output-dir {{out}}",
               "invalid_argument", "--seed must be nonnegative and finite, at most 1e100, got -1")
      for argv in ("cluster --categorical c1 --k 2 --input {missing}",
                   "baseline --categorical c1 --method pam --k 2 --input {missing}",
                   "sweep-beta --categorical c1 --k 2 --betas 1,10 --input {missing}",
                   "datagen --n 20 --p-c 1 --p-d 1",
                   TINY)),
    *(_refused(f"ignored_{name}", f"{argv} --input {{mixed}} --categorical c1,c2 --k 2 "
               "--output-dir {out}", "invalid_argument", f"{flag} with", "prefix")
      for name, argv, flag in (
          ("gamma_with_pam", "baseline --method pam --gamma 5", "--gamma"),
          ("truth_column_cluster", "cluster --truth-column truth", "--truth-column"),
          ("truth_column_kproto", "baseline --method kproto --truth-column truth",
           "--truth-column"),
          ("s_multiplier_with_s", "cluster --s 0.5 --s-multiplier 2", "--s-multiplier"),
          ("categorical_weight_with_lambda", "cluster --lambda 0.2 --categorical-weight 5",
           "--categorical-weight"),
          ("categorical_weight_with_offset", "cluster --lambda-offset 0.1 "
           "--categorical-weight 5", "--categorical-weight"))),
    _refused("ignored_no_standardize_with_pam", "baseline --input {mixed} --categorical c1,c2 "
             "--method pam --k 2 --no-standardize --output-dir {out}", "invalid_argument",
             "--no-standardize with --method pam would be ignored"),
    *(_refused(f"aggregate_only_{flag.split()[0][2:]}",
               f"benchmark --aggregate-only {{results}} {flag} --output-dir {{out}}",
               "invalid_argument", f"{flag.split()[0]} with --aggregate-only would be ignored")
      for flag in ("--progress", *(_plan_flag(f) for f in fields(BenchmarkPlan) if f.name != "k"))),
    _refused("aggregate_only_threads", "benchmark --aggregate-only {results} --threads 1 "
             "--output-dir {out}", "invalid_argument",
             "--threads with --aggregate-only would be ignored", marks=pytest.mark.threads),
    _refused("datagen_overlap_above_1", "datagen --n 20 --p-c 1 --p-d 1 --overlap-cont 1.5 "
             "--output-dir {out}", "invalid_argument",
             "overlap_cont must lie strictly between 0 and 1, got 1.5"),
    # a benchmark plan is checked before the output directory is made and
    # before the first cell runs
    *(_refused(f"benchmark_{name}", f"{TINY} {flags} --output-dir {{out}}",
               "invalid_argument", message)
      for name, flags, message in (
          ("bogus_balance", "--balances equal,bogus",
           "--balances: 'bogus' is not one of ['equal', 'imbalanced', 'imbalanced-3:1']"),
          ("beta_nan", "--beta nan", "--beta must be a finite number, got nan"),
          ("repeated_method", "--methods dibmix,dibmix",
           "factor levels and methods must be distinct, got ('dibmix', 'dibmix')"),
          ("repeated_balance", "--balances imbalanced,imbalanced-3:1",
           "factor levels and methods must be distinct, "
           "got ('imbalanced-3:1', 'imbalanced-3:1')"),
          ("repeated_n", "--ns 20,20", "factor levels and methods must be distinct, got (20, 20)"),
          ("n_too_small", "--ns 20,3", "n must be at least 4"),
          ("one_level", "--levels 2,1", "every categorical variable needs at least 2 levels"),
          ("overlap_above_1", "--overlaps-cont 0.3,1.5",
           "overlap_cont must lie strictly between 0 and 1, got 1.5"),
          ("threads_zero", "--threads 0", "--threads must be >= 1, got 0"))),
]


@pytest.fixture(scope="session")
def files(tmp_path_factory):
    """The fixture files by name, "dir" and "missing" among them; the tiny
    benchmark's results.csv is "results"."""
    root = tmp_path_factory.mktemp("contract")
    paths = {"dir": root, "missing": root / "missing.csv"}
    for name, text in _TEXTS.items():
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(text)
    # two continuous columns and two categorical ones (2 and 5 levels)
    rng = np.random.default_rng(5)
    cont = rng.standard_normal((40, 2)).tolist()
    cat = np.column_stack([rng.integers(0, 2, 40), rng.integers(0, 5, 40)]).tolist()
    for name, header, rows in (
            ("mixed", ["x1", "x2", "c1", "c2"],
             [[a, b, f"u{c}", f"v{d}"] for (a, b), (c, d) in zip(cont, cat)]),
            ("cat", ["c1", "c2"], [[f"u{c}", f"v{d}"] for c, d in cat]),
            ("cont", ["x1", "x2"], cont)):
        paths[name] = root / f"{name}.csv"
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    assert main([*TINY_BENCHMARK, "--output-dir", str(root / "bench")]) == 0
    paths["results"] = root / "bench" / "results.csv"
    with open(paths["results"], newline="") as fh:
        header, *rows = list(csv.reader(fh))
    for name, (column, text) in _RESULT_EDITS.items():
        edited = [list(row) for row in rows]
        edited[1][header.index(column)] = text
        paths[name] = root / f"{name}.csv"
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh).writerows([header, *edited])
    return {name: str(path) for name, path in paths.items()}


def _snapshot(root):
    return {path: path.read_bytes() if path.is_file() else None
            for path in sorted(Path(root).rglob("*"))}


def _error(stderr):
    """The error envelope on the last line of ``stderr``, or None."""
    lines = stderr.strip().splitlines()
    try:
        return json.loads(lines[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def _run_row(row, files, tmp_path, run):
    """Run ``row`` through ``run(argv) -> (status, stderr)`` and check it."""
    paths = {**files, "out": str(tmp_path / "o")}
    before = _snapshot(files["dir"])
    status, stderr = run([token.format_map(paths) for token in row.argv.split()])
    assert status == row.status, stderr
    error = _error(stderr)
    assert (error and error["code"]) == row.code, stderr
    text = stderr if error is None else error["message"]
    message = row.message.format_map(paths)
    assert {"exact": text == message, "prefix": text.startswith(message),
            "part": message in text}[row.how], (text, message)
    for path in row.present:
        assert Path(path.format_map(paths)).stat().st_size > 0, path
    if row.status:
        assert not Path(paths["out"]).exists()
    assert _snapshot(files["dir"]) == before


@pytest.mark.parametrize("row", ROWS)
def test_in_process(row, files, tmp_path, capsys):
    def run(argv):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            status = exc.code
        return status, capsys.readouterr().err

    _run_row(row, files, tmp_path, run)


@pytest.mark.skipif(not SCRIPT.is_file(), reason=f"no {SCRIPT}")
@pytest.mark.parametrize("row", ROWS)
def test_console(row, files, tmp_path):
    def run(argv):
        done = subprocess.run([str(SCRIPT), *argv], capture_output=True, text=True,
                              cwd=tmp_path, timeout=300)
        return done.returncode, done.stderr

    _run_row(row, files, tmp_path, run)
