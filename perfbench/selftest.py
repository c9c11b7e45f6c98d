"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check is first shown to accept a correct answer from dibmix on a small
dataset, then fed a deliberately wrong one (a point moved, a density row
perturbed, an objective off by a little, ...) and must reject it.  Also
confirms that the metric names the benchmark prints are those declared in
BENCHMARK.json, and that tracing restores what it wraps.  Exits non-zero if
any test fails.
"""

import functools
import json
import math
import os
import sys
import traceback

import env


@functools.cache
def case():
    """A correct pipeline result on a small dataset, plus the inputs the
    checks need."""
    from dibmix import GenSpec, choose_bandwidths, dib_fit_density, estimate_conditional
    from dibmix import generate, standardize

    import checks

    spec = GenSpec(n=150, p_c=2, p_d=2, levels=4, overlap_cont=0.3, overlap_cat=0.3, seed=5)
    labeled = generate(spec)
    ds = standardize(labeled.data)
    bw = choose_bandwidths(ds)
    density = estimate_conditional(ds, bw)
    result = dib_fit_density(density, ds.weights, 2, 100.0, restarts=5, rng_seed=0)
    cont = checks.standardize(labeled.data.continuous)
    return {
        "spec": spec, "labeled": labeled, "cont": cont, "cat": labeled.data.categorical,
        "levels": spec.levels, "bw": bw, "p": density.matrix.copy(),
        "marginal": density.marginal_y.copy(), "weights": ds.weights, "result": result,
        "restart_objectives": [r.objective for r in result.restart_summary],
    }


def _expected_rows(c, rows):
    import checks

    return dict(zip(rows, checks.density_rows(
        c["cont"], c["cat"], c["levels"], c["bw"].s, c["bw"].lam, rows)))


def test_density_check():
    import checks

    c = case()
    rows = [0, 7, 42]
    assert checks.check_density(c["p"], c["marginal"], c["weights"], _expected_rows(c, rows)) == []
    # Independent rebuild of the whole density agrees with the program.
    mine = checks.full_density(c["cont"], c["cat"], c["levels"], c["bw"].s, c["bw"].lam)
    assert abs(mine - c["p"]).max() <= 1e-12

    p = c["p"].copy()
    p[7, 3] *= 1.0 + 1e-6  # one row perturbed: no longer sums to 1
    assert checks.check_density(p, c["marginal"], c["weights"], {})
    p = c["p"].copy()
    p[7, [3, 4]] = p[7, [4, 3]]  # still sums to 1, but not the kernel formula
    assert checks.check_density(p, c["marginal"], c["weights"], _expected_rows(c, rows))
    p = c["p"].copy()
    p[0, 0] = -p[0, 0]
    assert checks.check_density(p, c["marginal"], c["weights"], {})
    marginal = c["marginal"].copy()
    marginal[9] *= 1.0 + 1e-6
    assert checks.check_density(c["p"], marginal, c["weights"], {})


def test_balance_check():
    import checks

    c = case()
    s, lam = c["bw"].s, c["bw"].lam
    assert checks.check_balance(c["cont"], c["cat"], c["levels"], s, lam) == []
    assert checks.check_balance(c["cont"], c["cat"], c["levels"], s, lam * (1 + 1e-4))
    assert checks.check_balance(c["cont"], c["cat"], c["levels"], s * (1 + 1e-4), lam)
    assert checks.check_balance(c["cont"], c["cat"], c["levels"], s, lam, 1.001)


def test_objective_check():
    import checks

    c = case()
    r = c["result"]
    args = (c["p"], c["weights"], r.assign, 2, 100.0)
    assert checks.check_objective(*args, r.objective, c["restart_objectives"]) == []
    # An objective off by a small amount.
    off = r.objective + 1e-6 * abs(r.objective)
    assert checks.check_objective(*args, off, c["restart_objectives"])
    # A restart that did better than the reported best.
    assert checks.check_objective(*args, r.objective, [r.objective - 1e-9])
    # An assignment with one point moved no longer yields the reported value.
    moved = r.assign.copy()
    moved[11] = 1 - moved[11]
    bad = (c["p"], c["weights"], moved, 2, 100.0)
    assert checks.check_objective(*bad, r.objective, c["restart_objectives"])


def test_fixed_point_check():
    import checks

    c = case()
    r = c["result"]
    assert r.converged
    assert checks.check_fixed_point(c["p"], c["weights"], r.assign, 2, 100.0) == []
    moved = r.assign.copy()
    moved[11] = 1 - moved[11]
    assert checks.check_fixed_point(c["p"], c["weights"], moved, 2, 100.0)


def test_ari_check():
    import numpy as np
    from dibmix import ari

    import checks

    c = case()
    truth, assign = c["labeled"].truth, c["result"].assign
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 3, 60)
        b = rng.integers(0, 4, 60)
        assert abs(checks.pair_count_ari(a, b) - ari(a, b)) <= 1e-12
    program = ari(truth, assign)
    assert checks.check_ari(truth, assign, 0.5, program) == []
    assert checks.check_ari(truth, assign, 0.5, program + 1e-9)
    assert checks.check_ari(truth, rng.integers(0, 2, truth.size), 0.5)
    spec = c["spec"]
    bayes = checks.bayes_labels(c["labeled"].data.continuous, c["cat"], spec.overlap_cont,
                                spec.overlap_cat, spec.levels, spec.cluster_sizes())
    assert checks.pair_count_ari(truth, bayes) > 0.6


def test_grid_rows_check():
    import dataclasses

    from dibmix import BenchmarkPlan, run_benchmark

    import checks

    plan = BenchmarkPlan(ns=(40,), p_cs=(2,), p_ds=(2,), levels=(3,), overlaps_cont=(0.3,),
                         overlaps_cat=(0.3,), balances=("equal",), replicates=2, restarts=3)
    rows = run_benchmark(plan)
    keys = [(0, rep, m) for rep in range(2) for m in plan.methods]
    assert checks.check_grid_rows(rows, keys, 2) == ([], set())
    assert checks.check_grid_rows(rows[:-1], keys, 2)[1] == {keys[-1]}
    for change in ({"ari": math.nan}, {"ari": 1.5}, {"status": "error"}, {"effective_k": 0}):
        broken = (dataclasses.replace(rows[2], **change),) + rows[3:] + rows[:2]
        assert checks.check_grid_rows(broken, keys, 2)[1] == {keys[2]}, change


def test_tracing_restores_and_counts():
    import dibmix.cli
    import dibmix.dib
    import dibmix.kernels

    import tracing

    c = case()
    before = (dibmix.cli.estimate_conditional, dibmix.dib.Encoder.__dict__["from_assignment"])
    trace = tracing.Trace()
    with tracing.Patches(trace):
        assert dibmix.cli.estimate_conditional is not before[0]
        result = dibmix.dib.dib_fit_density(
            dibmix.kernels.ConditionalDensity(c["p"], c["marginal"]), c["weights"], 2, 100.0,
            restarts=5, rng_seed=0)
    after = (dibmix.cli.estimate_conditional, dibmix.dib.Encoder.__dict__["from_assignment"])
    assert after == before
    m = trace.metrics()
    assert m["dib.restarts"] == 5
    assert m["dib.iterations"] == sum(r.iterations for r in result.restart_summary)
    assert 0 < m["dib.decoder_refresh_s"] < m["dib.fit_s"]
    assert result.objective == c["result"].objective


def test_metric_names_match_benchmark_json():
    import run
    import tracing
    import workloads

    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    printed["trace.overhead_s"] = "s"
    assert declared == printed


def main():
    env.prepare()
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:  # noqa: BLE001 - report every failing test
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
