"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced passes,
interleaved with untraced ones to measure the tracing overhead.  The line
before it is a record of the host, the input digest and every pass.  The
exit code is 0 only when every operation succeeded and passed its checks.
See README.md in this directory.
"""

import argparse
import contextlib
import ctypes
import functools
import json
import os
import resource
import shutil
import sys
import time
import traceback
from statistics import median

import env

SETUP_REPEATS = 11

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@functools.cache
def _malloc_trim():
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):  # not glibc: freed heap stays resident
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_freed_memory():
    """Hand freed heap pages back to the OS.  glibc keeps them resident, so
    without this each pass's peak would sit on what the previous pass and
    its checks left behind, and peak_rss_mb would depend on how many passes
    fit in a run."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class Run:
    """Set-up, passes and their verdicts for one workload in one process."""

    def __init__(self, workload, trace_module):
        self.wl = workload
        self.tracing = trace_module
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.passes = []

    def set_up(self):
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.inputs = self.wl.setup()
            times.append(time.perf_counter() - start)
        self.setup_times = times
        self.digest = self.wl.digest(self.inputs)
        release_freed_memory()

    def one_pass(self, traced):
        """Run, time and judge one pass; returns its record."""
        trace = self.tracing.Trace() if traced else None
        ops = self.wl.ops_per_pass()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(self.tracing.Patches(trace))
            start = time.perf_counter()
            try:
                output = self.wl.run(self.inputs)
                error = None
            except Exception:  # noqa: BLE001 - a crashing pass is a failed pass
                error = traceback.format_exc()
            wall = time.perf_counter() - start
        if error is None:
            try:
                failed, problems = self.judge(output, ops)
            except Exception:  # noqa: BLE001 - unreadable outputs fail the pass
                error = traceback.format_exc()
            del output
        if error is not None:
            failed, problems = ops, [error]
        release_freed_memory()
        self.attempted += ops
        self.failed += failed
        self.problems += problems
        record = {"traced": traced, "wall_s": wall, "failed": failed,
                  "layers": trace.metrics() if traced else None}
        self.passes.append(record)
        return record

    def judge(self, output, ops):
        """Check the first pass in full; a later pass must reproduce its
        outputs exactly and then shares its verdict, so a fault shows in
        every pass alike."""
        fingerprint = self.wl.fingerprint(output)
        if self.reference is None:
            failed, problems = self.wl.check(self.inputs, output)
            self.reference = (fingerprint, failed)
            return failed, problems
        if fingerprint == self.reference[0]:
            return self.reference[1], []
        return ops, ["outputs differ from the first pass"]

    def measure(self, seconds, traced_run):
        """Passes for about ``seconds`` of pass time, in whole units: one
        untraced pass, or with tracing an untraced and a traced one.  A unit
        is not started when the last one says it would overrun."""
        if self.wl.warmup:
            self.one_pass(False)
            self.passes[-1]["warmup"] = True
        unit = (False, True) if traced_run else (False,)
        spent = 0.0
        while True:
            took = sum(self.one_pass(traced)["wall_s"] for traced in unit)
            spent += took
            if spent + took > seconds:
                break

    def timed(self, traced):
        return [p for p in self.passes if p["traced"] == traced and not p.get("warmup")]

    def end_to_end(self):
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": median(p["wall_s"] for p in self.timed(False)),
            "setup_s": median(self.setup_times),
            "peak_rss_mb": rss_mb,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self):
        traced = self.timed(True)
        metrics = {}
        for name, (unit, _) in self.tracing.LAYER_METRICS.items():
            values = [p["layers"][name] for p in traced]
            if unit != "count":
                metrics[name] = {"value": median(values), "unit": unit}
                continue
            if len(set(values)) > 1:
                self.problems.append(f"{name} differs between passes: {values}")
                self.failed += self.wl.ops_per_pass()
            metrics[name] = {"value": values[0], "unit": unit}
        overhead = (median(p["wall_s"] for p in traced)
                    - median(p["wall_s"] for p in self.timed(False)))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics


def main(argv=None):
    env.prepare()
    import tracing
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))

    workdir = os.path.join(env.ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(workloads.WORKLOADS[args.workload](args.seed, workdir), tracing)
        run.set_up()
        run.measure(args.seconds, bool(args.trace))
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": env.host_facts(), "input_digest": run.digest,
        "setup_s": run.setup_times, "passes": run.passes,
    }
    print(json.dumps({"record": record}))
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
