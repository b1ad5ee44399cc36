"""Every module of the package uses each name it imports."""

import ast
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
