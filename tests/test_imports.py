"""Every module of the package uses each name it imports, every private helper
is used somewhere in the package, and the CLI imports no more of scipy than it
uses."""

import ast
import subprocess
import sys
from pathlib import Path

import graphrates

SRC = Path(graphrates.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ are exports, not waste
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(SRC.glob("*.py"))
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, f"imported but never used: {unused}"


def test_unused_import_is_reported():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import a, b\n"
                     "__all__ = ['b']\nnp.zeros(a)\n")
    assert _unused_imports(tree) == [(1, "os")]


def _unused_private_definitions(trees):
    """(module, line, name) of each top-level _name function or class that no
    module refers to by name or attribute."""
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted((module, node.lineno, node.name)
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in used)


def test_no_unused_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = [f"{module}:{line} {name}"
              for module, line, name in _unused_private_definitions(trees)]
    assert not unused, f"private helper defined but never used: {unused}"


def test_unused_private_function_is_reported():
    trees = {"a.py": ast.parse("def _lost():\n    pass\n\ndef _kept():\n    pass\n"
                               "class _Box:\n    pass\n"),
             "b.py": ast.parse("import a\na._kept()\n_Box = None\n")}
    assert _unused_private_definitions(trees) == [("a.py", 1, "_lost")]


def test_cli_import_leaves_out_scipy_stats():
    # importing scipy.stats alone adds about 0.7 s to every command's start-up
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import graphrates.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def test_measures_imports_no_scipy():
    # the measure layer is numpy alone, so a command that needs no rate need not load scipy
    tree = ast.parse((SRC / "measures.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in modules if name.split(".")[0] == "scipy"]
