"""Check that ``import dibmix, dibmix.cli`` loads no SciPy module that a
bare ``import scipy`` does not, and no ``scipy.sparse`` module at all; then
that a later ``import scipy.sparse`` still binds its compiled kernels.

Run it in a fresh interpreter:

    python tests/scipy_import_probe.py

From outside the checkout, with ``src`` not on the path, it checks the
installed package.  It prints the dibmix it imported and any offending
modules, and exits 1 if there are any.
"""

import sys

import scipy  # noqa: F401


def scipy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}


bare = scipy_modules()
import dibmix  # noqa: E402
import dibmix.cli  # noqa: E402, F401

loaded = scipy_modules()
extra = sorted((loaded - bare) | {m for m in loaded if m.startswith("scipy.sparse")})
print(f"{dibmix.__file__}: SciPy modules beyond a bare import scipy: {extra}")
import scipy.sparse  # noqa: E402

assert callable(scipy.sparse._sparsetools.csc_matvecs)
sys.exit(1 if extra else 0)
