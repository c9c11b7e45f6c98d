"""Regenerate every workload's inputs from a seed and print their digests.

    python3 perfbench/digest.py --seed N

Prints one JSON object mapping workload name to the SHA-256 of its generated
inputs, the same value a run records as ``input_digest``, so two runs can be
shown to have measured the same inputs.
"""

import argparse
import json
import os
import shutil
import sys

import env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    env.prepare()
    import workloads

    workdir = os.path.join(env.ROOT, ".perfbench_work", f"digest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        digests = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(args.seed, workdir)
            digests[name] = wl.digest(wl.setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"seed": args.seed, "input_digest": digests}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
