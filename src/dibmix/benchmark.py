"""Factorial benchmark: generate synthetic cells, run each method, score ARI.

The full default grid crosses sample size (200, 500, 1000), continuous and
categorical feature counts (2, 6), categorical levels (2, 4, 6), continuous
and categorical overlap (0.3, 0.6, varied independently) and cluster balance
(equal, 3:1) — 288 cells, 28,800 datasets at 100 replicates.  One result row
is emitted per (cell, replicate, method) whether the run succeeded or not.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache, lru_cache, partial
from itertools import product
from statistics import mean, median

import numpy as np

from .bandwidth import choose_bandwidths
from .baselines import gower, kprototypes_fit, pam_fit
from .datagen import BALANCE_EQUAL, BALANCE_IMBALANCED, GenSpec, generate
from .dataset import _read_table, _write_table, standardize
from .dib import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, dib_fit
from .errors import DibmixError, ParseError, SchemaError
from .lockstep import check, check_count, check_range
from .metrics import ari
from .seeding import STREAM_DATAGEN, STREAM_METHOD, derive_seed

METHOD_DIBMIX = "dibmix"
METHOD_KPROTOTYPES = "kprototypes"
METHOD_GOWER_PAM = "gower_pam"
METHOD_NAMES = (METHOD_DIBMIX, METHOD_KPROTOTYPES, METHOD_GOWER_PAM)

# Each grid factor, which is a GenSpec field and a results.csv column, and
# the BenchmarkPlan field that lists its levels.
FACTOR_FIELDS = {
    "n": "ns", "p_c": "p_cs", "p_d": "p_ds", "levels": "levels",
    "overlap_cont": "overlaps_cont", "overlap_cat": "overlaps_cat", "balance": "balances",
}
FACTOR_COLUMNS = tuple(FACTOR_FIELDS)


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
    restarts: int = DEFAULT_RESTARTS
    max_iter: int = DEFAULT_MAX_ITER
    categorical_weight: float = 1.0

    def __post_init__(self):
        # Every check here is a usage error, raised before anything runs,
        # not an error row for every replicate of some cell.
        for name in (*FACTOR_FIELDS.values(), "methods"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_count("replicates", self.replicates)
        check_range("beta", self.beta)
        check_range("categorical weight", self.categorical_weight)
        grid_axes = tuple(getattr(self, name) for name in FACTOR_FIELDS.values())
        if any(len(axis) == 0 for axis in grid_axes):
            raise ValueError("benchmark grid is empty")
        check(self.k, min(self.ns), self.restarts, self.max_iter, self.seed)
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown or not self.methods:
            raise ValueError(f"methods must be a non-empty subset of {METHOD_NAMES}")
        # a repeated level would run, and weigh in the aggregates, twice
        for axis in (*grid_axes, self.methods):
            if len(set(axis)) < len(axis):
                raise ValueError(f"factor levels and methods must be distinct, got {axis}")
        for cell in self.cells():
            GenSpec(**cell)

    def cells(self) -> tuple:
        """Factor combinations in canonical order; the position is the cell id."""
        axes = (getattr(self, name) for name in FACTOR_FIELDS.values())
        return tuple(dict(zip(FACTOR_COLUMNS, combo)) for combo in product(*axes))


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


def _run_method(method, data, standardized, plan, method_seed):
    if method == METHOD_DIBMIX:
        std = standardized()
        bw = choose_bandwidths(std, categorical_weight=plan.categorical_weight)
        return dib_fit(std, plan.k, plan.beta, bw, restarts=plan.restarts,
                       max_iter=plan.max_iter, rng_seed=method_seed).assign
    if method == METHOD_KPROTOTYPES:
        return kprototypes_fit(standardized(), plan.k, restarts=plan.restarts,
                               max_iter=plan.max_iter, rng_seed=method_seed)
    if method == METHOD_GOWER_PAM:
        return pam_fit(gower(data), plan.k, restarts=plan.restarts,
                       max_iter=plan.max_iter, rng_seed=method_seed)
    raise ValueError(f"unknown method {method!r}")


def _run_replicate(plan, cell_index, factors, rep):
    data_seed = derive_seed(plan.seed, STREAM_DATAGEN, cell_index, rep)
    labeled = generate(GenSpec(**factors, seed=data_seed))
    # Standardized at most once for the methods that use it.  A failed call
    # is not cached, so each such method fails with the same error.
    standardized = cache(partial(standardize, labeled.data))
    rows = []
    for method in plan.methods:
        method_seed = derive_seed(
            plan.seed, STREAM_METHOD, cell_index, rep, METHOD_NAMES.index(method)
        )
        start = time.perf_counter()
        try:
            labels = _run_method(method, labeled.data, standardized, plan, method_seed)
            outcome = {"status": "ok", "ari": float(ari(labeled.truth, labels)),
                       "effective_k": int(np.unique(labels).size)}
        # A method that rejects its data raises a DibmixError and becomes a
        # row.  The plan checks every setting before any work, so any other
        # exception, a plain ValueError included, is a fault of the program
        # and propagates.
        except DibmixError as exc:
            outcome = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        rows.append(ResultRow(cell=cell_index, replicate=rep, method=method,
                              runtime_s=time.perf_counter() - start, **outcome, **factors))
    return rows


def run_benchmark(plan: BenchmarkPlan, threads: int = 1, progress=None) -> tuple:
    """Run the plan; rows come back sorted by (cell, replicate, method order)
    so output is independent of scheduling."""
    threads = check_count("threads", threads)
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
    _write_table(path, RESULT_COLUMNS, (row.as_record().values() for row in rows))


def _cell_error(path, line_no, column, why):
    return ParseError(f"{path}: line {line_no}, column {column!r}: {why}",
                      cells=[(line_no, column, why)])


def _parse_cell(path, line_no, field, text):
    """A results.csv cell as its field's type; an empty cell is None unless
    the field is a string, and a cell that does not parse is a ParseError."""
    if field.type is str:
        return text
    try:
        return None if text == "" else field.type(text)
    except ValueError:
        raise _cell_error(path, line_no, field.name,
                          f"not a {field.type.__name__}: {text!r}") from None


# The first cell of the default grid: a valid GenSpec into which _factor_fault
# puts a row's factors one at a time.
_DEFAULT_CELL = {column: getattr(BenchmarkPlan, plan_field)[0]
                 for column, plan_field in FACTOR_FIELDS.items()}


@lru_cache(maxsize=1024)  # a results file repeats each cell's factors many times
def _factor_fault(factors):
    """The first of the (column, value) pairs ``factors`` that is empty, or
    that GenSpec refuses once put into the default cell with the pairs before
    it, and why; None when GenSpec takes them all."""
    cell = dict(_DEFAULT_CELL)
    for column, value in factors:
        if value is None:
            return column, "a factor cell must not be empty"
        cell[column] = value
        try:
            GenSpec(**cell)
        except ValueError as exc:
            return column, str(exc)
    return None


def _row_fault(row):
    """The first column of a parsed result row that no run writes, and why;
    None for a sound row."""
    fault = _factor_fault(tuple((column, getattr(row, column)) for column in FACTOR_COLUMNS))
    if fault is not None:
        return fault
    if row.status not in ("ok", "error"):
        return "status", f"not 'ok' or 'error': {row.status!r}"
    if row.method not in METHOD_NAMES:
        return "method", f"not one of {METHOD_NAMES}: {row.method!r}"
    if row.status == "ok":
        if row.ari is None or not -1 <= row.ari <= 1:  # NaN fails too
            return "ari", f"an ok row needs an ARI in [-1, 1], got {row.ari!r}"
        if row.effective_k is None or row.effective_k < 1:
            return "effective_k", f"an ok row needs an effective_k >= 1, got {row.effective_k!r}"
    if row.runtime_s is not None and not 0 <= row.runtime_s < math.inf:
        return "runtime_s", f"not a finite time >= 0: {row.runtime_s!r}"
    return None


def read_results_csv(path) -> tuple:
    """Result rows from a results.csv table; the columns of fields without
    a default are required, and a row that no run writes (see
    ``_row_fault``) is a ParseError."""
    header, lines = _read_table(path, "results file")
    missing = [f.name for f in fields(ResultRow)
               if f.default is MISSING and f.name not in header]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {missing}")
    index = {name: j for j, name in enumerate(header)}
    columns = [(f, index[f.name]) for f in fields(ResultRow) if f.name in index]
    rows = []
    for line_no, line in lines:
        row = ResultRow(**{f.name: _parse_cell(path, line_no, f, line[j]) for f, j in columns})
        fault = _row_fault(row)
        if fault is not None:
            raise _cell_error(path, line_no, *fault)
        rows.append(row)
    return tuple(rows)


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
    ok_counts = Counter(row.method for row in rows if row.status == "ok")
    _write_table(median_path, ["method", "median_ari", "n_ok"],
                 ([m, repr(value), ok_counts[m]] for m, value in method_medians(rows).items()))
    _write_table(means_path, ["factor", "level", "method", "mean_ari"],
                 ([factor, level, m, repr(value)]
                  for factor in FACTOR_COLUMNS
                  for (level, m), value in factor_means(rows, factor).items()))
