"""Factorial benchmark: generate synthetic cells, run each method, score ARI.

The full default grid crosses sample size (200, 500, 1000), continuous and
categorical feature counts (2, 6), categorical levels (2, 4, 6), continuous
and categorical overlap (0.3, 0.6, varied independently) and cluster balance
(equal, 3:1) — 288 cells, 28,800 datasets at 100 replicates.  One result row
is emitted per (cell, replicate, method) whether the run succeeded or not.
"""

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import product
from statistics import mean, median

import numpy as np

from .bandwidth import BalanceSpec, choose_bandwidths
from .baselines import gower, kprototypes_fit, pam_fit
from .datagen import BALANCE_EQUAL, BALANCE_IMBALANCED, GenSpec, generate
from .dataset import standardize
from .dib import dib_fit
from .metrics import ari
from .seeding import STREAM_DATAGEN, STREAM_METHOD, derive_seed

METHOD_DIBMIX = "dibmix"
METHOD_KPROTOTYPES = "kprototypes"
METHOD_GOWER_PAM = "gower_pam"
METHOD_NAMES = (METHOD_DIBMIX, METHOD_KPROTOTYPES, METHOD_GOWER_PAM)

FACTOR_COLUMNS = ("n", "p_c", "p_d", "levels", "overlap_cont", "overlap_cat", "balance")


@dataclass(frozen=True)
class BenchmarkPlan:
    """Factor grid plus solver settings; the default grid is the full
    factorial design."""

    ns: tuple = (200, 500, 1000)
    p_cs: tuple = (2, 6)
    p_ds: tuple = (2, 6)
    levels: tuple = (2, 4, 6)
    overlaps_cont: tuple = (0.3, 0.6)
    overlaps_cat: tuple = (0.3, 0.6)
    balances: tuple = (BALANCE_EQUAL, BALANCE_IMBALANCED)
    replicates: int = 100
    methods: tuple = METHOD_NAMES
    seed: int = 0
    k: int = 2
    beta: float = 100.0
    restarts: int = 100
    max_iter: int = 100
    categorical_weight: float = 1.0

    def __post_init__(self):
        for name in ("ns", "p_cs", "p_ds", "levels", "overlaps_cont", "overlaps_cat",
                     "balances", "methods"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        grid_axes = (self.ns, self.p_cs, self.p_ds, self.levels,
                     self.overlaps_cont, self.overlaps_cat, self.balances)
        if any(len(axis) == 0 for axis in grid_axes):
            raise ValueError("benchmark grid is empty")
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown or not self.methods:
            raise ValueError(f"methods must be a non-empty subset of {METHOD_NAMES}")
        # a bad weight is a usage error, not an error row for every replicate
        BalanceSpec(categorical_weight=self.categorical_weight)

    def cells(self) -> tuple:
        """Factor combinations in canonical order; the position is the cell id."""
        return tuple(
            {"n": n, "p_c": p_c, "p_d": p_d, "levels": levels,
             "overlap_cont": oc, "overlap_cat": od, "balance": balance}
            for n, p_c, p_d, levels, oc, od, balance in product(
                self.ns, self.p_cs, self.p_ds, self.levels,
                self.overlaps_cont, self.overlaps_cat, self.balances,
            )
        )


@dataclass(frozen=True)
class ResultRow:
    cell: int
    n: int
    p_c: int
    p_d: int
    levels: int
    overlap_cont: float
    overlap_cat: float
    balance: str
    replicate: int
    method: str
    status: str
    ari: float = None
    effective_k: int = None
    runtime_s: float = None
    error: str = ""

    def as_record(self) -> dict:
        """The row as a results.csv record: empty cells for missing values,
        runtime to the microsecond."""
        record = {k: "" if v is None else v for k, v in asdict(self).items()}
        if self.runtime_s is not None:
            record["runtime_s"] = f"{self.runtime_s:.6f}"
        return record


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


class _ReplicateData:
    """One replicate's data, standardized at most once for the methods that
    use it.  A failed standardization is not cached, so each such method
    fails with the same error."""

    def __init__(self, data):
        self.data = data

    @cached_property
    def standardized(self):
        return standardize(self.data)


def _run_method(method, replicate, plan, method_seed):
    if method == METHOD_DIBMIX:
        std = replicate.standardized
        bw = choose_bandwidths(std, BalanceSpec(categorical_weight=plan.categorical_weight))
        res = dib_fit(std, plan.k, plan.beta, bw, restarts=plan.restarts,
                      max_iter=plan.max_iter, rng_seed=method_seed)
        return res.assign, res.effective_k
    if method == METHOD_KPROTOTYPES:
        labels = kprototypes_fit(replicate.standardized, plan.k, restarts=plan.restarts,
                                 max_iter=plan.max_iter, rng_seed=method_seed)
        return labels, int(np.unique(labels).size)
    if method == METHOD_GOWER_PAM:
        labels = pam_fit(gower(replicate.data), plan.k, restarts=plan.restarts,
                         max_iter=plan.max_iter, rng_seed=method_seed)
        return labels, int(np.unique(labels).size)
    raise ValueError(f"unknown method {method!r}")


def _run_replicate(plan, cell_index, factors, rep):
    data_seed = derive_seed(plan.seed, STREAM_DATAGEN, cell_index, rep)
    spec = GenSpec(
        n=factors["n"], p_c=factors["p_c"], p_d=factors["p_d"],
        levels=(factors["levels"],) * factors["p_d"],
        overlap_cont=factors["overlap_cont"], overlap_cat=factors["overlap_cat"],
        balance=factors["balance"], seed=data_seed,
    )
    labeled = generate(spec)
    replicate = _ReplicateData(labeled.data)
    rows = []
    for method in plan.methods:
        method_seed = derive_seed(
            plan.seed, STREAM_METHOD, cell_index, rep, METHOD_NAMES.index(method)
        )
        start = time.perf_counter()
        try:
            labels, effective_k = _run_method(method, replicate, plan, method_seed)
            row = ResultRow(
                cell=cell_index, replicate=rep, method=method, status="ok",
                ari=float(ari(labeled.truth, labels)), effective_k=effective_k,
                runtime_s=time.perf_counter() - start, **factors,
            )
        except Exception as exc:  # noqa: BLE001 - failed runs become rows
            row = ResultRow(
                cell=cell_index, replicate=rep, method=method, status="error",
                runtime_s=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}", **factors,
            )
        rows.append(row)
    return rows


def run_benchmark(plan: BenchmarkPlan, threads: int = 1, progress=None) -> tuple:
    """Run the plan; rows come back sorted by (cell, replicate, method order)
    so output is independent of scheduling."""
    cells = plan.cells()
    tasks = [(ci, factors, rep)
             for ci, factors in enumerate(cells)
             for rep in range(plan.replicates)]

    def run(task):
        ci, factors, rep = task
        rows = _run_replicate(plan, ci, factors, rep)
        if progress is not None:
            progress(ci, rep, len(cells), plan.replicates)
        return rows

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            nested = list(pool.map(run, tasks))
    else:
        nested = [run(t) for t in tasks]
    return tuple(row for rows in nested for row in rows)


def write_results_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())


def _parse_cell(kind, text):
    """A results.csv cell as its field's type; an empty cell is None unless
    the field is a string."""
    if kind is str:
        return text
    return None if text == "" else kind(text)


def read_results_csv(path) -> tuple:
    with open(path, newline="") as fh:
        return tuple(
            ResultRow(**{f.name: _parse_cell(f.type, rec[f.name])
                         for f in fields(ResultRow) if f.name in rec})
            for rec in csv.DictReader(fh)
        )


def method_medians(rows) -> dict:
    """Median ARI per method over successful rows (the headline comparison)."""
    by_method = {}
    for row in rows:
        if row.status == "ok":
            by_method.setdefault(row.method, []).append(row.ari)
    return {m: float(median(v)) for m, v in sorted(by_method.items())}


def factor_means(rows, factor: str) -> dict:
    """Mean ARI per (factor level, method) over successful rows — one panel
    of the per-condition comparison."""
    if factor not in FACTOR_COLUMNS:
        raise ValueError(f"unknown factor {factor!r}; choose from {FACTOR_COLUMNS}")
    table = {}
    for row in rows:
        if row.status == "ok":
            table.setdefault((getattr(row, factor), row.method), []).append(row.ari)
    return {key: float(mean(v)) for key, v in sorted(table.items())}


def write_aggregates_csv(median_path, means_path, rows) -> None:
    with open(median_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "median_ari", "n_ok"])
        ok_counts = {}
        for row in rows:
            if row.status == "ok":
                ok_counts[row.method] = ok_counts.get(row.method, 0) + 1
        for m, value in method_medians(rows).items():
            writer.writerow([m, repr(value), ok_counts[m]])
    with open(means_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["factor", "level", "method", "mean_ari"])
        for factor in FACTOR_COLUMNS:
            for (level, m), value in factor_means(rows, factor).items():
                writer.writerow([factor, level, m, repr(value)])
