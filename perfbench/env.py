"""Process set-up shared by the benchmark's scripts: one BLAS thread, the
checkout's own dibmix source on the import path, and the host facts each
run records.  Call ``prepare()`` before anything imports NumPy."""

import os
import platform
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "DIBMIX_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def prepare():
    """Pin every thread pool to one thread and import dibmix from ``src/``
    of the checkout this file belongs to; exit non-zero if it is absent."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "dibmix", "__init__.py")):
        sys.exit(f"perfbench: no dibmix package under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import dibmix

    if os.path.dirname(os.path.dirname(os.path.abspath(dibmix.__file__))) != SRC:
        sys.exit(f"perfbench: imported dibmix from {dibmix.__file__}, not from {SRC}")


def host_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 prints instead
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
