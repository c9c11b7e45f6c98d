"""The public API is declared once, by the package's relative imports."""

import ast
import types

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
