"""The public API is declared once, by the package's relative imports, and
importing it loads no more of SciPy than ``scipy.sparse``."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import dibmix


def test_all_is_the_names_the_package_imports_from_its_modules():
    with open(dibmix.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    # a stray import such as "from math import inf" would leak into the
    # derived list and make it differ from the relative imports
    assert dibmix.__all__ == sorted(imported)
    assert not any(isinstance(getattr(dibmix, name), types.ModuleType)
                   for name in dibmix.__all__)
    # the list is derived, not written out a second time
    assert not any(isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                   for node in tree.body)
    namespace = {}
    exec("from dibmix import *", namespace)
    assert set(namespace) - {"__builtins__"} == imported


def test_the_cli_imports_no_scipy_module_beyond_scipy_sparse():
    # scipy.sparse first, so only modules that it does not load count; an
    # older SciPy whose sparse loads more only widens what is allowed.
    probe = ("import sys\n"
             "import scipy.sparse\n"
             "def scipy_modules():\n"
             "    return {m for m in sys.modules if m.split('.')[0] == 'scipy'}\n"
             "before = scipy_modules()\n"
             "import dibmix.cli\n"
             "print(sorted(scipy_modules() - before))\n")
    src = str(Path(dibmix.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
