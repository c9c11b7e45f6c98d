"""Benchmark-harness tests: grid construction, row contracts, aggregation,
and scheduling-independence."""

from dataclasses import asdict

import numpy as np
import pytest

import dibmix.benchmark as bench
from dibmix import (
    BALANCE_EQUAL,
    BALANCE_IMBALANCED,
    BenchmarkPlan,
    METHOD_NAMES,
    ResultRow,
    factor_means,
    method_medians,
    read_results_csv,
    run_benchmark,
    write_aggregates_csv,
    write_results_csv,
)
from dibmix.errors import DegenerateSmoothingError

from conftest import kprototypes_fit_oracle, pam_fit_oracle


def _tiny_plan(**kw):
    base = dict(
        ns=(24,), p_cs=(1,), p_ds=(1,), levels=(3,),
        overlaps_cont=(0.3,), overlaps_cat=(0.3,), balances=(BALANCE_EQUAL,),
        replicates=2, methods=("kprototypes", "gower_pam"),
        seed=5, restarts=2, max_iter=25,
    )
    base.update(kw)
    return BenchmarkPlan(**base)


# ---------------------------------------------------------------------------
# plan


def test_plan_default_grid_has_288_cells():
    plan = BenchmarkPlan()
    cells = plan.cells()
    assert len(cells) == 288
    assert plan.replicates == 100  # 28,800 datasets in the full design
    assert cells[0] == {
        "n": 200, "p_c": 2, "p_d": 2, "levels": 2,
        "overlap_cont": 0.3, "overlap_cat": 0.3, "balance": BALANCE_EQUAL,
    }
    assert cells[-1] == {
        "n": 1000, "p_c": 6, "p_d": 6, "levels": 6,
        "overlap_cont": 0.6, "overlap_cat": 0.6, "balance": BALANCE_IMBALANCED,
    }
    assert plan.methods == METHOD_NAMES


def test_plan_validation():
    with pytest.raises(ValueError):
        BenchmarkPlan(replicates=0)
    with pytest.raises(ValueError, match="restarts"):
        BenchmarkPlan(restarts=0)
    with pytest.raises(ValueError, match="max_iter"):
        BenchmarkPlan(max_iter=0)
    with pytest.raises(ValueError):
        BenchmarkPlan(ns=())
    with pytest.raises(ValueError):
        BenchmarkPlan(methods=("nope",))
    with pytest.raises(ValueError):
        BenchmarkPlan(methods=())
    with pytest.raises(ValueError, match="categorical weight"):
        BenchmarkPlan(categorical_weight=float("nan"))
    for beta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            BenchmarkPlan(beta=beta)
    for repeated in (dict(methods=("dibmix", "gower_pam", "dibmix")), dict(ns=(40, 40)),
                     dict(p_cs=(2, 6, 2)), dict(p_ds=(2, 2)), dict(levels=(4, 4)),
                     dict(overlaps_cont=(0.3, 0.30)), dict(overlaps_cat=(0.6, 0.6)),
                     dict(balances=("imbalanced-3:1", "equal", "imbalanced-3:1"))):
        with pytest.raises(ValueError, match="distinct"):
            BenchmarkPlan(**repeated)
    # a k or a grid level that no cell could run fails before anything runs
    for k in (0, 50):
        with pytest.raises(ValueError, match=r"1 <= k <= min\(ns\)"):
            BenchmarkPlan(ns=(40,), k=k)
    for unrunnable, message in ((dict(ns=(40, 3)), "n must be"), (dict(levels=(3, 1)), "levels"),
                                (dict(overlaps_cont=(0.3, 1.5)), "overlap_cont"),
                                (dict(p_cs=(1, -1)), "variable counts"),
                                (dict(p_cs=(0, 2), p_ds=(0, 2)), "at least one variable"),
                                (dict(balances=("equal", "bogus")), "balance")):
        with pytest.raises(ValueError, match=message):
            BenchmarkPlan(**unrunnable)


# ---------------------------------------------------------------------------
# run_benchmark


def test_row_count_and_order_one_cell():
    plan = _tiny_plan()
    rows = run_benchmark(plan)
    assert len(rows) == 1 * 2 * 2  # cells x replicates x methods
    keys = [(r.cell, r.replicate, r.method) for r in rows]
    assert keys == [
        (0, 0, "kprototypes"), (0, 0, "gower_pam"),
        (0, 1, "kprototypes"), (0, 1, "gower_pam"),
    ]
    for row in rows:
        assert row.status == "ok"
        assert -1.0 <= row.ari <= 1.0
        assert row.effective_k >= 1
        assert row.runtime_s >= 0.0
        assert row.error == ""
        assert row.n == 24 and row.levels == 3


def test_all_three_methods_run():
    plan = _tiny_plan(methods=METHOD_NAMES, replicates=1, restarts=2)
    rows = run_benchmark(plan)
    assert [r.method for r in rows] == list(METHOD_NAMES)
    assert all(r.status == "ok" for r in rows)
    assert all(r.effective_k <= plan.k for r in rows)


def test_failed_runs_become_error_rows(monkeypatch):
    real = bench._run_method

    def flaky(method, *args):
        if method == "gower_pam":
            raise DegenerateSmoothingError("synthetic failure")
        return real(method, *args)

    monkeypatch.setattr(bench, "_run_method", flaky)
    rows = run_benchmark(_tiny_plan())
    assert len(rows) == 4  # row count is preserved despite failures
    failed = [r for r in rows if r.method == "gower_pam"]
    assert all(r.status == "error" for r in failed)
    assert all(r.ari is None and r.effective_k is None for r in failed)
    assert all("DegenerateSmoothingError: synthetic failure" in r.error for r in failed)
    assert all(r.status == "ok" for r in rows if r.method == "kprototypes")


def test_value_error_becomes_error_row(monkeypatch):
    def bad_k(*args, **kwargs):
        raise ValueError("need 1 <= k <= n")

    monkeypatch.setattr(bench, "pam_fit", bad_k)
    rows = run_benchmark(_tiny_plan())
    assert [r.status for r in rows] == ["ok", "error"] * 2
    assert all(r.error == "ValueError: need 1 <= k <= n"
               for r in rows if r.method == "gower_pam")


@pytest.mark.threads
def test_programming_error_propagates(monkeypatch):
    # A TypeError is a bug in the program, not a method failing on a
    # dataset, so no error row may hide it.
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(bench, "kprototypes_fit", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_benchmark(_tiny_plan())
    with pytest.raises(TypeError, match="unsupported operand"):
        run_benchmark(_tiny_plan(), threads=2)


def test_baselines_match_per_restart_oracles(monkeypatch):
    # The whole benchmark row set, all three methods, is the same whether
    # the baselines come from the library or from the per-restart oracles.
    plan = _tiny_plan(ns=(30, 45), p_cs=(1, 2), levels=(2, 4), methods=METHOD_NAMES,
                      replicates=2, restarts=6, max_iter=100)

    def stable(rows):  # runtime_s is wall-clock and legitimately varies
        return [{k: v for k, v in asdict(r).items() if k != "runtime_s"} for r in rows]

    library = run_benchmark(plan)
    monkeypatch.setattr(bench, "pam_fit", pam_fit_oracle)
    monkeypatch.setattr(bench, "kprototypes_fit", kprototypes_fit_oracle)
    oracle = run_benchmark(plan)
    assert all(r.status == "ok" for r in library)
    assert stable(library) == stable(oracle)


@pytest.mark.threads
def test_run_benchmark_rejects_bad_threads():
    for threads in (0, -5, 2.5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_benchmark(_tiny_plan(), threads=threads)


@pytest.mark.threads
def test_benchmark_deterministic_and_thread_independent():
    plan = _tiny_plan(replicates=3)
    serial = run_benchmark(plan, threads=1)
    threaded = run_benchmark(plan, threads=4)
    again = run_benchmark(plan, threads=16)

    def stable(rows):  # runtime_s is wall-clock and legitimately varies
        return [
            {k: v for k, v in r.as_record().items() if k != "runtime_s"}
            for r in rows
        ]

    assert stable(serial) == stable(threaded) == stable(again)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_results_csv_round_trip(tmp_path):
    rows = run_benchmark(_tiny_plan())
    path = tmp_path / "results.csv"
    write_results_csv(path, rows)
    back = read_results_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert (a.cell, a.replicate, a.method, a.status) == (
            b.cell, b.replicate, b.method, b.status
        )
        assert a.ari == b.ari  # ARI is written with repr -> exact
        assert a.effective_k == b.effective_k
        assert b.runtime_s == pytest.approx(a.runtime_s, abs=1e-6)
        assert (a.n, a.p_c, a.p_d, a.levels) == (b.n, b.p_c, b.p_d, b.levels)
        assert (a.overlap_cont, a.overlap_cat, a.balance) == (
            b.overlap_cont, b.overlap_cat, b.balance
        )


def test_results_csv_round_trip_missing_values_and_quoted_error(tmp_path):
    common = dict(n=40, p_c=2, p_d=1, levels=3, overlap_cont=0.3, overlap_cat=0.6,
                  balance=BALANCE_IMBALANCED, replicate=1)
    rows = (
        ResultRow(cell=0, method="dibmix", status="ok", ari=0.8125, effective_k=2,
                  runtime_s=1.25, **common),
        ResultRow(cell=0, method="kprototypes", status="error",
                  error='ValueError: bad "x", and a comma', **common),
        ResultRow(cell=3, method="gower_pam", status="error", runtime_s=0.5,
                  error="", **common),
    )
    path = tmp_path / "results.csv"
    write_results_csv(path, rows)
    assert '"ValueError: bad ""x"", and a comma"' in path.read_text()
    assert read_results_csv(path) == rows


def test_replicate_standardized_once(monkeypatch):
    calls = []
    real = bench.standardize

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(bench, "standardize", counting)
    rows = run_benchmark(_tiny_plan(methods=METHOD_NAMES, replicates=1, restarts=2))
    assert all(r.status == "ok" for r in rows)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# aggregation


def _row(method, ari_value, status="ok", n=200, balance=BALANCE_EQUAL):
    return ResultRow(
        cell=0, n=n, p_c=2, p_d=2, levels=4, overlap_cont=0.3, overlap_cat=0.3,
        balance=balance, replicate=0, method=method, status=status,
        ari=ari_value if status == "ok" else None,
        effective_k=2 if status == "ok" else None, runtime_s=0.1,
    )


def test_method_medians_hand_case():
    rows = [
        _row("dibmix", 0.2), _row("dibmix", 1.0), _row("dibmix", 0.6),
        _row("gower_pam", 0.5), _row("gower_pam", 0.7),
        _row("dibmix", None, status="error"),
    ]
    medians = method_medians(rows)
    assert medians == {"dibmix": 0.6, "gower_pam": 0.6}


def test_factor_means_hand_case():
    rows = [
        _row("dibmix", 0.4, n=200), _row("dibmix", 0.8, n=200),
        _row("dibmix", 1.0, n=500),
        _row("gower_pam", 0.0, n=200),
    ]
    means = factor_means(rows, "n")
    assert means[(200, "dibmix")] == pytest.approx(0.6)
    assert means[(500, "dibmix")] == pytest.approx(1.0)
    assert means[(200, "gower_pam")] == 0.0
    with pytest.raises(ValueError):
        factor_means(rows, "replicate")


def test_write_aggregates_csv(tmp_path):
    rows = [
        _row("dibmix", 0.25), _row("dibmix", 0.75),
        _row("gower_pam", 1.0),
        _row("gower_pam", None, status="error"),
    ]
    medians_path = tmp_path / "medians.csv"
    means_path = tmp_path / "factor_means.csv"
    write_aggregates_csv(medians_path, means_path, rows)
    lines = medians_path.read_text().strip().splitlines()
    assert lines[0] == "method,median_ari,n_ok"
    assert lines[1] == "dibmix,0.5,2"
    assert lines[2] == "gower_pam,1.0,1"
    means_lines = means_path.read_text().strip().splitlines()
    assert means_lines[0] == "factor,level,method,mean_ari"
    assert "n,200,dibmix,0.5" in means_lines
    # one line per (factor, level, method) with any ok rows
    assert len(means_lines) == 1 + 7 * 2  # 7 factors x 2 methods, 1 level each
