"""The public API is declared once, by the package's relative imports, and
importing it loads no SciPy module beyond a bare ``import scipy``: the
decoder refresh loads SciPy's compiled sparse kernels from their file."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dibmix
from dibmix import dib


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


def test_the_cli_imports_no_scipy_module_beyond_a_bare_import_scipy():
    probe = Path(__file__).with_name("scipy_import_probe.py")
    src = str(Path(dibmix.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(probe)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(dibmix.__file__)


def test_the_kernel_loader_names_the_file_it_cannot_find(monkeypatch, tmp_path):
    # a scipy.sparse imported by another test would be reused, not searched for
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    scipy_spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
    stem = os.path.join(tmp_path, "sparse", "_sparsetools")
    with pytest.raises(ImportError, match=f"no {re.escape(stem)} with a suffix in"):
        dib._load_sparsetools()


def test_the_kernel_loader_reuses_the_copy_scipy_sparse_loaded():
    import scipy.sparse

    assert dib._load_sparsetools() is sys.modules["scipy.sparse._sparsetools"]
    assert dib._load_sparsetools() is scipy.sparse._sparsetools
