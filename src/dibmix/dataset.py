"""Mixed-type dataset model, CSV table reading and writing, standardization.

A dataset holds n observations over continuous and unordered categorical
variables.  Categorical values are stored as integer indices into each
variable's level list; level codes themselves are strings (CSV-native).
Observation weights default to uniform 1/n and must sum to one.

Missing values are not supported: rows containing blank or unparseable
cells are rejected with row/column diagnostics.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import DibmixError, ParseError, SchemaError, ZeroVarianceError

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class VariableSchema:
    """One variable: a name, a kind, and (for categorical) its level codes."""

    name: str
    kind: str
    levels: tuple = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise SchemaError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL:
            if self.levels is None or len(self.levels) == 0:
                raise SchemaError(f"categorical variable {self.name!r} needs a level list")
            levels = tuple(self.levels)
            if len(set(levels)) != len(levels):
                raise SchemaError(f"duplicate levels for variable {self.name!r}")
            if len(levels) < 2:
                raise SchemaError(
                    f"categorical variable {self.name!r} has {len(levels)} level(s); need >= 2"
                )
            object.__setattr__(self, "levels", levels)
        elif self.levels is not None:
            raise SchemaError(f"continuous variable {self.name!r} must not carry levels")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class MixedDataset:
    """Immutable mixed-type dataset.

    ``continuous`` is (n, p_cont) finite float, ``categorical`` is (n, p_cat) int
    (level indices), ``weights`` is length n, strictly positive, summing to 1.
    Arrays are marked read-only; instances are safe to share across workers.
    """

    schema: tuple
    continuous: np.ndarray
    categorical: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        schema = tuple(self.schema)
        names = [v.name for v in schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate variable names in schema")
        cont = np.ascontiguousarray(np.atleast_2d(np.asarray(self.continuous, dtype=float)))
        cat = np.ascontiguousarray(np.atleast_2d(np.asarray(self.categorical, dtype=np.int64)))
        p_cont = sum(1 for v in schema if v.kind == CONTINUOUS)
        p_cat = len(schema) - p_cont
        if p_cont == 0:
            cont = cont.reshape(max(cat.shape[0], 0), 0)
        if p_cat == 0:
            cat = cat.reshape(max(cont.shape[0], 0), 0)
        n = cont.shape[0] if p_cont else cat.shape[0]
        if n < 1:
            raise SchemaError("dataset must contain at least one observation")
        if p_cont + p_cat < 1:
            raise SchemaError("dataset must contain at least one variable")
        if cont.shape != (n, p_cont) or cat.shape != (n, p_cat):
            raise SchemaError(
                f"data shapes {cont.shape}/{cat.shape} inconsistent with schema "
                f"({p_cont} continuous, {p_cat} categorical, n={n})"
            )
        if not np.all(np.isfinite(cont)):
            raise SchemaError("continuous values must be finite (no nan or inf)")
        for j, var in enumerate(v for v in schema if v.kind == CATEGORICAL):
            col = cat[:, j]
            if col.min(initial=0) < 0 or col.max(initial=0) >= var.n_levels:
                raise SchemaError(f"level index out of range for variable {var.name!r}")
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (n,):
            raise SchemaError(f"weights must have length {n}")
        if np.any(w <= 0):
            raise SchemaError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise SchemaError(f"weights must sum to 1 (got {w.sum()!r})")
        for arr in (cont, cat, w):
            arr.flags.writeable = False
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "continuous", cont)
        object.__setattr__(self, "categorical", cat)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def p_cont(self) -> int:
        return self.continuous.shape[1]

    @property
    def p_cat(self) -> int:
        return self.categorical.shape[1]

    @property
    def continuous_vars(self) -> tuple:
        return tuple(v for v in self.schema if v.kind == CONTINUOUS)

    @property
    def categorical_vars(self) -> tuple:
        return tuple(v for v in self.schema if v.kind == CATEGORICAL)

    @property
    def n_levels(self) -> tuple:
        """Number of levels per categorical variable, in schema order."""
        return tuple(v.n_levels for v in self.categorical_vars)

    def subsample(self, indices) -> "MixedDataset":
        """Row subset with weights renormalized to sum 1."""
        idx = np.asarray(indices, dtype=np.int64)
        w = self.weights[idx]
        return MixedDataset(
            schema=self.schema,
            continuous=self.continuous[idx],
            categorical=self.categorical[idx],
            weights=w / w.sum(),
        )


def _read_rows(path, what) -> list:
    """``(line number, cells)`` for every non-blank row of a UTF-8 CSV file,
    cells stripped; a row's line number is that of its last line, counted
    from 1.  ``what`` names the file in the error for a missing one."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, [c.strip() for c in row]) for row in reader]
    return [(line_no, row) for line_no, row in rows if any(row)]


def _read_table(path, what) -> tuple:
    """The header and the ``(line number, cells)`` data rows of a CSV table
    read by ``_read_rows``; every row has as many fields as the header."""
    rows = _read_rows(path, what)
    if not rows:
        raise SchemaError(f"{path}: file is empty")
    (_, header), *body = rows
    for line_no, row in body:
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}",
                cells=[(line_no, "", "field count")],
            )
    return header, body


def _write_table(path, header, rows) -> None:
    """Write a header and rows as a UTF-8 CSV table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, categorical=()) -> MixedDataset:
    """Load a mixed-type dataset from a UTF-8, comma-separated file.

    Parameters
    ----------
    path : str
        CSV file with a header row and "." decimal points.
    categorical : iterable of str
        Column names to treat as unordered categorical; remaining columns
        are parsed as continuous.  Categorical levels are inferred as the
        sorted distinct observed values.

    Rows with blank, non-numeric or non-finite (nan, inf) continuous cells
    are rejected; the error names every offending line and column.
    """
    header, rows = _read_table(path, "input file")
    categorical = list(categorical)
    unknown = [c for c in categorical if c not in header]
    if unknown:
        raise SchemaError(f"{path}: categorical column(s) not in header: {unknown}")
    if len(set(categorical)) != len(categorical):
        raise SchemaError(f"{path}: duplicate names in categorical designation")
    cat_set = set(categorical)
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    bad = []
    cont_cols = {}
    cat_cols = {}
    for j, name in enumerate(header):
        raw = [(line_no, row[j]) for line_no, row in rows]
        if name in cat_set:
            for line_no, cell in raw:
                if cell == "":
                    bad.append((line_no, name, "missing value"))
            cat_cols[name] = [cell for _, cell in raw]
        else:
            vals = np.empty(len(raw))
            for i, (line_no, cell) in enumerate(raw):
                try:
                    vals[i] = float(cell)
                except ValueError:
                    why = "missing value" if cell == "" else f"not a number: {cell!r}"
                    bad.append((line_no, name, why))
                    continue
                if not np.isfinite(vals[i]):
                    bad.append((line_no, name, f"not finite: {cell!r}"))
            cont_cols[name] = vals
    if bad:
        listing = "; ".join(f"line {ln}, column {col!r}: {why}" for ln, col, why in bad[:20])
        more = f" (+{len(bad) - 20} more)" if len(bad) > 20 else ""
        raise ParseError(f"{path}: unparseable cells: {listing}{more}", cells=bad)

    schema = []
    cont_data = []
    cat_data = []
    for name in header:
        if name in cat_set:
            codes = cat_cols[name]
            levels = tuple(sorted(set(codes)))
            schema.append(VariableSchema(name, CATEGORICAL, levels))
            index = {code: i for i, code in enumerate(levels)}
            cat_data.append([index[c] for c in codes])
        else:
            schema.append(VariableSchema(name, CONTINUOUS))
            cont_data.append(cont_cols[name])
    n = len(rows)
    cont = np.column_stack(cont_data) if cont_data else np.empty((n, 0))
    cat = np.column_stack(cat_data) if cat_data else np.empty((n, 0), dtype=np.int64)
    return MixedDataset(schema=tuple(schema), continuous=cont, categorical=cat)


def write_csv(ds: MixedDataset, path) -> None:
    """Write the canonical CSV form (round-trips exactly through read_csv)."""
    cont_iter = iter(range(ds.p_cont))
    cat_iter = iter(range(ds.p_cat))
    columns = []
    for var in ds.schema:
        if var.kind == CONTINUOUS:
            j = next(cont_iter)
            # repr of the Python float: shortest digits that round-trip.
            columns.append([repr(float(v)) for v in ds.continuous[:, j]])
        else:
            j = next(cat_iter)
            columns.append([str(var.levels[i]) for i in ds.categorical[:, j]])
    _write_table(path, [v.name for v in ds.schema], zip(*columns))


def standardize(ds: MixedDataset) -> MixedDataset:
    """Rescale every continuous column to sample mean 0 and variance 1.

    Uses the n-1 variance denominator; requires n >= 2 and a finite, nonzero
    mean and standard deviation in every continuous column (|x| above about
    1e154 overflows the variance).  Categorical data and weights pass
    through.  Idempotent up to roundoff.
    """
    if ds.p_cont == 0:
        return ds
    if ds.n < 2:
        raise ZeroVarianceError("standardization needs at least 2 observations")
    with np.errstate(over="ignore"):
        mean = ds.continuous.mean(axis=0)
        std = ds.continuous.std(axis=0, ddof=1)
    overflow = np.flatnonzero(~np.isfinite(mean) | ~np.isfinite(std))
    if overflow.size:
        names = [ds.continuous_vars[j].name for j in overflow]
        raise DibmixError(f"continuous column(s) too large to standardize: {names}; "
                          "rescale them or skip standardization")
    zero = np.flatnonzero(std == 0)
    if zero.size:
        names = [ds.continuous_vars[j].name for j in zero]
        raise ZeroVarianceError(f"constant continuous column(s): {names}")
    return MixedDataset(
        schema=ds.schema,
        continuous=(ds.continuous - mean) / std,
        categorical=ds.categorical,
        weights=ds.weights,
    )


def read_schema_file(path) -> list:
    """Read a ``name,kind`` per-line schema file; returns categorical names.

    Kinds must be ``continuous`` or ``categorical``; the file may cover any
    subset of columns (unlisted columns default to continuous).
    """
    names = []
    for line_no, row in _read_rows(path, "schema file"):
        if len(row) != 2:
            raise SchemaError(f"{path}: line {line_no}: expected 'name,kind'")
        name, kind = row[0], row[1].lower()
        if kind not in (CONTINUOUS, CATEGORICAL):
            raise SchemaError(f"{path}: line {line_no}: unknown kind {kind!r}")
        if kind == CATEGORICAL:
            names.append(name)
    return names


def load_labels(path, column=None) -> np.ndarray:
    """Load a label vector from a CSV with a header row.

    With ``column=None`` the file must have exactly one column; otherwise the
    named column is used.  Labels are returned as strings.
    """
    header, rows = _read_table(path, "label file")
    if column is None:
        if len(header) != 1:
            raise SchemaError(f"{path}: expected a single label column, got {header}")
        j = 0
    else:
        if column not in header:
            raise SchemaError(f"{path}: no column named {column!r}")
        j = header.index(column)
    labels = [row[j] for _, row in rows]
    if not labels:
        raise SchemaError(f"{path}: no label rows")
    return np.array(labels, dtype=object)
