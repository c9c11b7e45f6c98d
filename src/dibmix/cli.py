"""Command-line interface: reproducible clustering, baseline, generation,
benchmark, sweep, and scoring runs.

Every run writes a ``manifest.json`` capturing the resolved parameters, the
seed, and library versions — enough to reproduce the outputs bit-for-bit.
Worker counts are deliberately excluded: results are identical for any
``--threads`` value.  Errors surface as one-line JSON objects on stderr with
exit code 2 for usage/input problems and 1 for internal failures.
"""

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import asdict, fields

import numpy as np
import scipy

from . import __version__
from .bandwidth import DEFAULT_S_MULTIPLIER, choose_bandwidths
from .baselines import (
    KPROTO_DEFAULT_RESTARTS,
    PAM_DEFAULT_RESTARTS,
    default_gamma,
    gower,
    kprototypes_fit,
    pam_fit,
)
from .benchmark import (
    BenchmarkPlan,
    read_results_csv,
    run_benchmark,
    write_aggregates_csv,
    write_results_csv,
)
from .datagen import BALANCE_EQUAL, BALANCE_IMBALANCED, GenSpec, generate
from .dataset import (
    _write_table,
    load_labels,
    read_csv,
    read_schema_file,
    standardize,
    write_csv,
)
from .dib import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    CURVE_COLUMNS,
    beta_sweep,
    dib_fit,
)
from .errors import (
    DegenerateSmoothingError,
    DibmixError,
    ParseError,
    SchemaError,
    SizeCapError,
    ZeroVarianceError,
)
from .kernels import estimate_conditional
from .lockstep import check_count, check_range
from .metrics import ari
from .seeding import STREAM_SUBSAMPLE, derive_seed

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

# Flags that check_range rules; each dest is its setting's name, "_" for " ".
_RANGED = ("seed", "beta", "gamma", "s", "s_multiplier", "categorical_weight")
# Flags that take an integer >= 1 (``check_count``).  k > n waits until
# --input is read; baseline resolves an omitted --restarts (None) to its
# method's default.
_COUNTED = ("threads", "k", "restarts", "max_iter")

# Parsed flags that choose where output goes or how many workers run, not
# what the outputs hold, so they stay out of the manifest.
_NOT_IN_MANIFEST = ("subcommand", "func", "output_dir", "threads", "dump_density")

_BALANCES = {
    BALANCE_EQUAL: BALANCE_EQUAL,
    "imbalanced": BALANCE_IMBALANCED,
    BALANCE_IMBALANCED: BALANCE_IMBALANCED,
}

_ERROR_CODES = (
    (FileNotFoundError, "input_not_found"),
    (OSError, "io_error"),
    (ParseError, "parse_error"),
    (SchemaError, "schema_error"),
    (ZeroVarianceError, "zero_variance"),
    (SizeCapError, "size_cap"),
    (DegenerateSmoothingError, "degenerate_smoothing"),
    (DibmixError, "invalid_input"),
    (ValueError, "invalid_argument"),
)


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}), file=sys.stderr)


def _finite(value, flag) -> float:
    """A float flag's value, or the text of one item of a float list flag, as
    a finite float; text that is no number, NaN or an infinity is a
    ValueError that names the flag."""
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"{flag}: {value!r} is not a number") from None
    if not math.isfinite(number):
        raise ValueError(f"{flag} must be a finite number, got {value!r}")
    return number


def _integer(value, flag) -> int:
    """The text of one item of an integer list flag as an int; text that is
    no integer is a ValueError that names the flag."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{flag}: {value!r} is not an integer") from None


def _parse_list(text, flag, cast):
    """The non-empty items of a comma list flag, each as ``cast(item, flag)``."""
    return tuple(cast(tok, flag) for tok in str(text).split(",") if tok != "")


def _check_args(args) -> None:
    """Refuse, before any work, a float flag or an item of --lambda or
    --betas that is not a finite number, a setting or --betas item outside
    its range (``check_range``), a --threads, --k, --restarts or --max-iter
    below 1 (``check_count``; k > n waits for the data), a --subsample
    below 2, a flag that the run would ignore, and an --output-dir that is
    empty or cannot be made: its nearest existing ancestor, itself
    included, must be a directory."""
    given = vars(args)
    for name, value in given.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float):
            _finite(value, flag)
        if name in _RANGED and value is not None:
            check_range(name.replace("_", " "), value, flag)
        if name in _COUNTED and value is not None:
            check_count(name, value, flag)
    if given.get("lam") is not None:
        _parse_list(args.lam, "--lambda", _finite)
    if given.get("betas") is not None:
        for beta in _parse_list(args.betas, "--betas", _finite):
            check_range("beta", beta, "--betas")
    if given.get("subsample") is not None and args.subsample < 2:
        raise ValueError("subsample size must be at least 2")
    ignored = []
    if given.get("method") == "pam":
        if args.gamma is not None:
            ignored.append("--gamma with --method pam")
        if args.no_standardize:
            ignored.append("--no-standardize with --method pam")
    if given.get("s") is not None and args.s_multiplier != DEFAULT_S_MULTIPLIER:
        ignored.append("--s-multiplier with --s")
    if given.get("categorical_weight", 1.0) != 1.0:
        for name, flag in (("lam", "--lambda"), ("lambda_offset", "--lambda-offset")):
            if given.get(name) is not None:
                ignored.append(f"--categorical-weight with {flag}")
    if given.get("truth_column") is not None and given.get("truth") is None:
        ignored.append("--truth-column without --truth")
    if given.get("aggregate_only") is not None:
        ignored.extend(f"--{name.replace('_', '-')} with --aggregate-only"
                       for name in (*(f.name for f in fields(BenchmarkPlan)), "threads")
                       if name in given)
        if args.progress:
            ignored.append("--progress with --aggregate-only")
    if ignored:
        raise ValueError(f"{', '.join(ignored)} would be ignored")
    if "output_dir" in given:
        if not args.output_dir:
            raise ValueError("--output-dir must not be empty")
        probe = os.path.abspath(args.output_dir)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ValueError(f"--output-dir {args.output_dir!r}: {probe!r} is not a directory")


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload) -> None:
    """Write strict JSON.  The text is built before the file is opened, so a
    NaN or infinity in the payload, which is a program fault, leaves no file
    behind."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"{os.path.basename(path)}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _manifest_parameters(args, **resolved) -> dict:
    """Every parsed flag that can change a result, keyed by its destination
    (``lam`` as ``lambda``), with ``resolved`` values in place of their flags."""
    params = {
        "lambda" if name == "lam" else name: value
        for name, value in vars(args).items()
        if name not in _NOT_IN_MANIFEST
    }
    params.update(resolved)
    return params


def _write_manifest(outdir, command, parameters) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "versions": {
            "dibmix": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _balance(name, flag) -> str:
    try:
        return _BALANCES[name]
    except KeyError:
        raise ValueError(f"{flag}: {name!r} is not one of {sorted(_BALANCES)}") from None


def _load(args):
    """The --input CSV and, when --subsample is smaller, a seeded uniform row
    subsample of it; returns (dataset, subsample indices or None)."""
    categorical = []
    if args.schema_file:
        categorical.extend(read_schema_file(args.schema_file))
    for entry in args.categorical or ():
        categorical.extend(name.strip() for name in entry.split(",") if name.strip())
    ds = read_csv(args.input, categorical=categorical)
    if args.subsample is None or args.subsample >= ds.n:
        return ds, None
    rng = np.random.default_rng(derive_seed(args.seed, STREAM_SUBSAMPLE))
    idx = np.sort(rng.choice(ds.n, size=args.subsample, replace=False))
    return ds.subsample(idx), idx


def _truth_ari(args, labels, subsample_idx):
    truth = load_labels(args.truth, column=args.truth_column)
    if subsample_idx is not None:
        truth = truth[subsample_idx]
    if truth.shape[0] != labels.shape[0]:
        raise ValueError(
            f"truth has {truth.shape[0]} labels for {labels.shape[0]} observations"
        )
    return float(ari(truth, labels))


def _preprocess(args):
    ds, idx = _load(args)
    if not args.no_standardize:
        ds = standardize(ds)
    lam = _parse_list(args.lam, "--lambda", _finite) if args.lam is not None else None
    bw = choose_bandwidths(
        ds, args.s, lam, s_multiplier=args.s_multiplier,
        lambda_offset=args.lambda_offset, categorical_weight=args.categorical_weight,
    )
    return ds, idx, bw


def _write_result(args, command, payload, labels, subsample_idx, **resolved) -> str:
    """Write ``result.json``, with the subsample indices and the ARI against
    --truth added when they apply, ``assignment.csv`` and ``manifest.json``
    with the ``resolved`` parameters; return the output directory.  It is
    made once the --truth file has been read and checked."""
    if subsample_idx is not None:
        payload["subsample_indices"] = subsample_idx.tolist()
    if args.truth:
        payload["ari"] = _truth_ari(args, labels, subsample_idx)
    outdir = _ensure_outdir(args.output_dir)
    _write_json(os.path.join(outdir, "result.json"), payload)
    _write_table(os.path.join(outdir, "assignment.csv"), ["assignment"],
                 ([int(label)] for label in labels))
    _write_manifest(outdir, command, _manifest_parameters(args, **resolved))
    return outdir


def _print_fit(payload) -> None:
    print(f"effective_k = {payload['effective_k']}")
    if "ari" in payload:
        print(f"ari = {payload['ari']:.6f}")


def cmd_cluster(args) -> int:
    ds, idx, bw = _preprocess(args)
    result = dib_fit(ds, args.k, args.beta, bw, restarts=args.restarts,
                     max_iter=args.max_iter, rng_seed=args.seed, threads=args.threads)
    payload = result.to_dict()
    payload["k"] = args.k
    payload["bandwidths"] = {
        "s": bw.s,
        "lambda": bw.lam.tolist(),
    }
    outdir = _write_result(args, "cluster", payload, result.assign, idx)
    if args.dump_density:
        # built again: the fit keeps no density, and the build is cheap beside the writing
        np.savetxt(os.path.join(outdir, "density.csv"), estimate_conditional(ds, bw).matrix,
                   delimiter=",", fmt="%.17g")
    print(f"H(T) = {result.compression:.6f}")
    print(f"I(T;Y) = {result.relevance:.6f}")
    print(f"objective = {result.objective:.6f}")
    _print_fit(payload)
    return EXIT_OK


def cmd_baseline(args) -> int:
    ds, idx = _load(args)
    if args.method == "kproto":
        if not args.no_standardize:
            ds = standardize(ds)
        gamma = args.gamma if args.gamma is not None else default_gamma(ds)
        restarts = args.restarts if args.restarts is not None else KPROTO_DEFAULT_RESTARTS
        labels = kprototypes_fit(
            ds, args.k, gamma=gamma, restarts=restarts,
            max_iter=args.max_iter, rng_seed=args.seed,
        )
        detail = {"gamma": gamma}
    else:
        restarts = args.restarts if args.restarts is not None else PAM_DEFAULT_RESTARTS
        labels = pam_fit(
            gower(ds), args.k, restarts=restarts, max_iter=args.max_iter, rng_seed=args.seed
        )
        detail = {}
    payload = {
        "method": args.method,
        "k": args.k,
        "assignment": [int(v) for v in labels],
        "effective_k": int(np.unique(labels).size),
        "seed": args.seed,
        **detail,
    }
    _write_result(args, "baseline", payload, labels, idx, restarts=restarts)
    print(f"method = {args.method}")
    _print_fit(payload)
    return EXIT_OK


def cmd_datagen(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(GenSpec)}
    spec = GenSpec(**given | {"balance": _balance(args.balance, "--balance")})
    labeled = generate(spec)
    outdir = _ensure_outdir(args.output_dir)
    data_path = os.path.join(outdir, "data.csv")
    truth_path = os.path.join(outdir, "data_truth.csv")
    write_csv(labeled.data, data_path)
    _write_table(truth_path, ["truth"], ([int(label)] for label in labeled.truth))
    sidecar = {
        "spec": asdict(spec),
        "delta": labeled.delta,
        "categorical_masses": [
            {"pi1": pi1.tolist(), "pi2": pi2.tolist()} for pi1, pi2 in labeled.cat_masses
        ],
        "cluster_sizes": list(spec.cluster_sizes()),
    }
    _write_json(os.path.join(outdir, "data_spec.json"), sidecar)
    _write_manifest(outdir, "datagen", sidecar["spec"])
    print(f"wrote {data_path}")
    print(f"wrote {truth_path}")
    return EXIT_OK


def _benchmark_plan(args) -> BenchmarkPlan:
    """The plan from the benchmark flags that were given; an omitted flag
    keeps the plan's default.  A list flag's items are parsed like those of
    its default, and a balance may be named by its alias."""
    given = {}
    for f in fields(BenchmarkPlan):
        if hasattr(args, f.name):
            value = getattr(args, f.name)
            if isinstance(f.default, tuple):
                example = f.default[0]
                cast = (_finite if isinstance(example, float)
                        else _integer if isinstance(example, int)
                        else _balance if example in _BALANCES else lambda tok, flag: tok)
                value = _parse_list(value, "--" + f.name.replace("_", "-"), cast)
            given[f.name] = value
    return BenchmarkPlan(**given)


def cmd_benchmark(args) -> int:
    if args.aggregate_only:
        plan, rows = None, read_results_csv(args.aggregate_only)
    else:
        plan = _benchmark_plan(args)

        def progress(cell, rep, n_cells, n_reps):
            if args.progress:
                print(f"cell {cell + 1}/{n_cells} replicate {rep + 1}/{n_reps}", file=sys.stderr)

        rows = run_benchmark(plan, threads=getattr(args, "threads", 1), progress=progress)
    outdir = _ensure_outdir(args.output_dir)
    if plan is not None:
        results_path = os.path.join(outdir, "results.csv")
        write_results_csv(results_path, rows)
        _write_manifest(outdir, "benchmark", asdict(plan))
        n_failed = sum(1 for r in rows if r.status != "ok")
        print(f"wrote {results_path} ({len(rows)} rows, {n_failed} failed)")
    medians_path = os.path.join(outdir, "medians.csv")
    means_path = os.path.join(outdir, "factor_means.csv")
    write_aggregates_csv(medians_path, means_path, rows)
    print(f"wrote {medians_path}")
    print(f"wrote {means_path}")
    return EXIT_OK


def cmd_sweep_beta(args) -> int:
    ds, idx, bw = _preprocess(args)
    betas = _parse_list(args.betas, "--betas", _finite)
    sweep = beta_sweep(
        ds, args.k, bw, betas, restarts=args.restarts, max_iter=args.max_iter,
        rng_seed=args.seed, threads=args.threads,
    )
    outdir = _ensure_outdir(args.output_dir)
    curve_path = os.path.join(outdir, "curve.csv")
    curve = sweep.as_columns()
    _write_table(curve_path, CURVE_COLUMNS, zip(*curve.values()))
    payload = {
        "curve": curve,
        "suggested_beta": sweep.suggested_beta,
    }
    if idx is not None:
        payload["subsample_indices"] = idx.tolist()
    _write_json(os.path.join(outdir, "sweep.json"), payload)
    _write_manifest(outdir, "sweep-beta", _manifest_parameters(args, betas=list(betas)))
    print(f"wrote {curve_path}")
    if sweep.suggested_beta is not None:
        print(f"suggested_beta = {sweep.suggested_beta}")
    return EXIT_OK


def cmd_score(args) -> int:
    truth = load_labels(args.truth, column=args.truth_column)
    pred = load_labels(args.pred, column=args.pred_column)
    if truth.shape[0] != pred.shape[0]:
        raise ValueError(
            f"length mismatch: truth has {truth.shape[0]} labels, "
            f"prediction has {pred.shape[0]}"
        )
    value = float(ari(truth, pred))
    print(json.dumps({"ari": value, "n": int(truth.shape[0])}))
    return EXIT_OK


def _add_io_flags(parser):
    parser.add_argument("--input", required=True, help="input CSV with a header row")
    parser.add_argument("--categorical", action="append", default=None,
                        metavar="NAME[,NAME...]",
                        help="categorical column name(s); repeatable")
    parser.add_argument("--schema-file", default=None,
                        help="CSV of name,kind rows declaring column kinds")
    parser.add_argument("--subsample", type=int, default=None,
                        help="seeded uniform row subsample to this size")
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip standardizing continuous columns")


def _add_truth_flags(parser):
    parser.add_argument("--truth", default=None, help="CSV of true labels for ARI")
    parser.add_argument("--truth-column", default=None,
                        help="column name in the truth CSV")


def _add_bandwidth_flags(parser):
    parser.add_argument("--s", type=float, default=None,
                        help="continuous bandwidth (overrides the scaled default)")
    parser.add_argument("--s-multiplier", type=float, default=DEFAULT_S_MULTIPLIER,
                        help="multiplier c in s = c * n^(-1/(4+p_c))")
    lam = parser.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", default=None, metavar="VALUE[,VALUE...]",
                     help="categorical smoothing: one shared value or a comma "
                          "list, one per categorical variable")
    lam.add_argument("--lambda-offset", type=float, default=None,
                     help="set each lambda_j to (l_j-1)/l_j minus this offset")
    parser.add_argument("--categorical-weight", type=float, default=1.0,
                        help="target ratio of categorical to continuous kernel variance")


def _add_run_flags(parser, restarts_default):
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--restarts", type=int, default=restarts_default,
                        help="number of random restarts")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                        help="iteration cap per restart")
    parser.add_argument("--output-dir", default=".", help="directory for output files")


def _add_plan_flags(parser):
    """A flag for each BenchmarkPlan field but k, with no default of its own,
    so that an omitted flag keeps the plan's default."""
    for f in fields(BenchmarkPlan):
        if f.name == "k":
            continue
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, tuple):
            parser.add_argument(flag, default=argparse.SUPPRESS, metavar="LIST",
                                help=f"comma-separated (default: {','.join(map(str, f.default))})")
        else:
            parser.add_argument(flag, type=type(f.default), default=argparse.SUPPRESS,
                                help=f"default: {f.default}")


def _add_threads_flag(parser, default=1):
    parser.add_argument("--threads", type=int, default=default,
                        help="worker threads (default: 1) for the slices of each "
                             "stacked DIB pass or for benchmark replicates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dibmix",
        description="Deterministic Information Bottleneck clustering for mixed-type data",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cluster", help="fit DIB clusters to a CSV dataset")
    _add_io_flags(p)
    _add_truth_flags(p)
    _add_bandwidth_flags(p)
    _add_run_flags(p, DEFAULT_RESTARTS)
    _add_threads_flag(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--beta", type=float, default=100.0, help="relevance weight")
    p.add_argument("--dump-density", action="store_true",
                   help="also write the n x n density matrix (density.csv)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("baseline", help="run a comparison method")
    _add_io_flags(p)
    _add_truth_flags(p)
    _add_run_flags(p, None)
    p.add_argument("--method", choices=("kproto", "pam"), required=True)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--gamma", type=float, default=None,
                   help="categorical term weight for kproto (default: Huang heuristic)")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("datagen", help="generate a synthetic two-cluster dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-c", type=int, required=True, help="continuous variable count")
    p.add_argument("--p-d", type=int, required=True, help="categorical variable count")
    p.add_argument("--levels", type=int, default=4, help="levels per categorical variable")
    p.add_argument("--overlap-cont", type=float, default=0.3)
    p.add_argument("--overlap-cat", type=float, default=0.3)
    p.add_argument("--balance", choices=tuple(_BALANCES), default=BALANCE_EQUAL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("benchmark", help="run the factorial benchmark")
    _add_plan_flags(p)
    p.add_argument("--aggregate-only", default=None, metavar="RESULTS_CSV",
                   help="skip running; aggregate an existing results CSV")
    p.add_argument("--progress", action="store_true", help="report progress on stderr")
    p.add_argument("--output-dir", default=".", help="directory for output files")
    # no default of its own, so that --aggregate-only can tell it was given
    _add_threads_flag(p, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("sweep-beta", help="trace the relevance-compression curve")
    _add_io_flags(p)
    _add_bandwidth_flags(p)
    _add_run_flags(p, DEFAULT_RESTARTS)
    _add_threads_flag(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--betas", required=True,
                   help="comma-separated, strictly increasing beta grid")
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("score", help="Adjusted Rand Index between two label files")
    p.add_argument("--truth", required=True)
    p.add_argument("--truth-column", default=None)
    p.add_argument("--pred", required=True)
    p.add_argument("--pred-column", default=None)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to exit codes at the boundary
        for exc_type, code in _ERROR_CODES:
            if isinstance(exc, exc_type):
                _emit_error(code, str(exc))
                return EXIT_USAGE
        _emit_error("internal_error", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
