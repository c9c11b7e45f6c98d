"""The three workloads: inputs made from a seed, one timed pass each, and the
checks of a pass's outputs.

``cluster_cli`` and ``density_wide`` cluster one dataset whose seed is fixed
here, and ``--seed`` is the solver's seed.  Drawing a new dataset per seed
instead moved the total DIB iterations of ``cluster_cli`` from 101 to 135
over eight seeds, and the wall time with them; new solver seeds on one
dataset move it from 110 to 120.  ``grid_slice`` passes ``--seed`` into the
plan, whose single seed drives data and methods alike.

Each workload builds its inputs with ``setup()`` (timed as ``setup_s``) and
runs its operation with ``run(inputs)`` (timed as ``wall_s``).
``check(inputs, output)`` judges a pass against computations made apart from
the program (``checks``) and returns (failed operations, problems);
``fingerprint(output)`` is what later passes must reproduce exactly.
"""

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

import checks
import dibmix.bandwidth
import dibmix.benchmark
import dibmix.cli
import dibmix.datagen
import dibmix.dataset
import dibmix.dib
import dibmix.kernels
import dibmix.seeding

K = 2
BETA = 100.0
# An ARI floor the planted overlap supports: half of what the Bayes rule of
# the generating mixture attains on the same data.
ARI_FLOOR_SHARE = 0.5
# Rows of p(y|x) recomputed from the kernel formula on the checked pass.
SAMPLED_ROWS = 16


def _digest(*arrays_or_bytes):
    h = hashlib.sha256()
    for item in arrays_or_bytes:
        if isinstance(item, bytes):
            h.update(item)
        else:
            a = np.ascontiguousarray(item)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _ari_floor(labeled, spec):
    data = labeled.data
    bayes = checks.bayes_labels(
        data.continuous, data.categorical, spec.overlap_cont, spec.overlap_cat,
        spec.levels, spec.cluster_sizes(),
    )
    return ARI_FLOOR_SHARE * checks.pair_count_ari(labeled.truth, bayes)


def _result_checks(p, weights, assign, beta, objective, restart_objectives, converged):
    problems = checks.check_objective(
        p, weights, assign, K, beta, objective, restart_objectives
    )
    if converged:
        problems += checks.check_fixed_point(p, weights, assign, K, beta)
    return problems


class ClusterCli:
    """``dibmix cluster`` in-process on a CSV, with --truth for the ARI."""

    name = "cluster_cli"
    warmup = True
    restarts = 20

    def __init__(self, seed, workdir):
        self.spec = dibmix.datagen.GenSpec(
            n=2000, p_c=2, p_d=2, levels=4, overlap_cont=0.3, overlap_cat=0.3, seed=1000,
        )
        self.data_path = os.path.join(workdir, "data.csv")
        self.truth_path = os.path.join(workdir, "truth.csv")
        self.out_dir = os.path.join(workdir, "out")
        self.settings = [
            "--categorical", ",".join(f"c{j + 1}" for j in range(self.spec.p_d)),
            "--k", str(K), "--beta", repr(BETA), "--restarts", str(self.restarts),
            "--seed", str(seed), "--threads", "1",
        ]
        self.argv = ["cluster", "--input", self.data_path, *self.settings,
                     "--truth", self.truth_path, "--output-dir", self.out_dir]

    def setup(self):
        labeled = dibmix.datagen.generate(self.spec)
        dibmix.dataset.write_csv(labeled.data, self.data_path)
        with open(self.truth_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["truth"])
            writer.writerows([int(t)] for t in labeled.truth)
        return labeled

    def digest(self, labeled):
        with open(self.data_path, "rb") as data, open(self.truth_path, "rb") as truth:
            return _digest(data.read(), truth.read(), " ".join(self.settings).encode())

    def ops_per_pass(self):
        return 1

    def run(self, labeled):
        with contextlib.redirect_stdout(io.StringIO()):
            return dibmix.cli.main(self.argv)

    def fingerprint(self, code):
        """The exit code and the bytes of both result files."""
        if code != 0:
            return (code,)
        with open(os.path.join(self.out_dir, "result.json"), "rb") as fh:
            result = fh.read()
        with open(os.path.join(self.out_dir, "assignment.csv"), "rb") as fh:
            assignment = fh.read()
        return code, result, assignment

    def check(self, labeled, code):
        if code != 0:
            return 1, [f"dibmix cluster exited with {code}"]
        _, result, assignment = self.fingerprint(code)
        payload = json.loads(result)
        assign = np.array(payload["assignment"], dtype=np.int64)
        problems = []
        listed = [int(row[0]) for row in csv.reader(io.StringIO(assignment.decode()))
                  if row and row[0] != "assignment"]
        if listed != assign.tolist():
            problems.append("assignment.csv disagrees with result.json")
        data = labeled.data
        cont = checks.standardize(data.continuous)
        levels = self.spec.levels
        s = float(payload["bandwidths"]["s"])
        lam = np.array(payload["bandwidths"]["lambda"], dtype=float)
        problems += checks.check_balance(cont, data.categorical, levels, s, lam)
        p = checks.full_density(cont, data.categorical, levels, s, lam)
        weights = np.full(data.n, 1.0 / data.n)
        problems += _result_checks(
            p, weights, assign, payload["beta"], payload["objective"],
            [r["objective"] for r in payload["restart_summary"]], payload["converged"],
        )
        del p
        problems += checks.check_ari(
            labeled.truth, assign, _ari_floor(labeled, self.spec), payload["ari"]
        )
        return (1 if problems else 0), problems


class DensityWide:
    """The library pipeline standardize -> choose_bandwidths ->
    estimate_conditional -> dib_fit_density on wide data."""

    name = "density_wide"
    # A 6 s pass showed no first-pass penalty, so all passes are timed.
    warmup = False
    restarts = 3

    def __init__(self, seed, workdir):
        self.spec = dibmix.datagen.GenSpec(
            n=4000, p_c=6, p_d=6, levels=6, overlap_cont=0.3, overlap_cat=0.3, seed=2000,
        )
        self.solver_seed = seed

    def setup(self):
        return dibmix.datagen.generate(self.spec)

    def digest(self, labeled):
        return _digest(labeled.data.continuous, labeled.data.categorical, labeled.truth,
                       f"rng_seed={self.solver_seed}".encode())

    def ops_per_pass(self):
        return 1

    def run(self, labeled):
        ds = dibmix.dataset.standardize(labeled.data)
        bw = dibmix.bandwidth.choose_bandwidths(ds)
        density = dibmix.kernels.estimate_conditional(ds, bw)
        result = dibmix.dib.dib_fit_density(
            density, ds.weights, K, BETA, restarts=self.restarts,
            rng_seed=self.solver_seed, threads=1,
        )
        return bw, density, result

    def fingerprint(self, output):
        bw, density, result = output
        return (
            hashlib.sha256(density.matrix.data).hexdigest(), density.marginal_y.tobytes(),
            float(bw.s), bw.lam.tobytes(), result.assign.tobytes(), result.objective,
            tuple((r.objective, r.iterations, r.converged) for r in result.restart_summary),
        )

    def check(self, labeled, output):
        bw, density, result = output
        p = density.matrix
        data = labeled.data
        cont = checks.standardize(data.continuous)
        levels = self.spec.levels
        rows = np.random.default_rng(self.spec.seed).choice(data.n, SAMPLED_ROWS, replace=False)
        expected = dict(zip(rows.tolist(), checks.density_rows(
            cont, data.categorical, levels, float(bw.s), bw.lam, rows)))
        weights = np.full(data.n, 1.0 / data.n)
        problems = checks.check_density(p, density.marginal_y, weights, expected)
        problems += checks.check_balance(cont, data.categorical, levels, float(bw.s), bw.lam)
        problems += _result_checks(
            p, weights, result.assign, BETA, result.objective,
            [r.objective for r in result.restart_summary], result.converged,
        )
        problems += checks.check_ari(labeled.truth, result.assign, _ari_floor(labeled, self.spec))
        return (1 if problems else 0), problems


class GridSlice:
    """``run_benchmark`` over a 32-cell slice of the default factorial design,
    all three methods, one replicate, the plan's default 100 restarts."""

    name = "grid_slice"
    # One pass is 96 method runs, so first-call costs are already amortised.
    warmup = False

    def __init__(self, seed, workdir):
        self.plan = dibmix.benchmark.BenchmarkPlan(
            ns=(200, 500), p_cs=(2, 6), p_ds=(2, 6), levels=(2, 6),
            overlaps_cont=(0.3,), overlaps_cat=(0.3,), replicates=1,
            seed=3000 + seed, k=K, beta=BETA,
        )
        self.keys = [
            (ci, rep, method)
            for ci in range(len(self.plan.cells()))
            for rep in range(self.plan.replicates)
            for method in self.plan.methods
        ]

    def setup(self):
        """Regenerate every replicate's dataset the way ``run_benchmark``
        seeds it, for the input digest."""
        datasets = []
        for ci, factors in enumerate(self.plan.cells()):
            for rep in range(self.plan.replicates):
                spec = dibmix.datagen.GenSpec(
                    n=factors["n"], p_c=factors["p_c"], p_d=factors["p_d"],
                    levels=factors["levels"], overlap_cont=factors["overlap_cont"],
                    overlap_cat=factors["overlap_cat"], balance=factors["balance"],
                    seed=dibmix.seeding.derive_seed(
                        self.plan.seed, dibmix.seeding.STREAM_DATAGEN, ci, rep),
                )
                datasets.append(dibmix.datagen.generate(spec))
        return datasets

    def digest(self, datasets):
        return _digest(*(a for d in datasets
                         for a in (d.data.continuous, d.data.categorical, d.truth)))

    def ops_per_pass(self):
        return len(self.keys)

    def run(self, datasets):
        return dibmix.benchmark.run_benchmark(self.plan, threads=1)

    def fingerprint(self, rows):
        return tuple((r.cell, r.replicate, r.method, r.status, r.ari, r.effective_k)
                     for r in rows)

    def check(self, datasets, rows):
        problems, bad = checks.check_grid_rows(rows, self.keys, K)
        if problems and not bad:
            bad = self.keys
        return len(bad), problems


WORKLOADS = {w.name: w for w in (ClusterCli, DensityWide, GridSlice)}
