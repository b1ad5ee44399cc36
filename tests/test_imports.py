"""Every module of the package uses each name it imports, every private helper
is used somewhere in the package, the package loads each public name's module
on first use, and each CLI command imports no more of scipy than it runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import graphrates

SRC = Path(graphrates.__file__).parent
BENCH = {"mu": [0.5, 0.5], "C": [[3.0, 1.0], [1.0, 2.0]]}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in a literal __all__ are exports, not waste
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
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


def _fresh_python(code):
    """The JSON that code prints, run in a new interpreter that imports this package."""
    code = f"import json, sys; sys.path.insert(0, {str(SRC.parent)!r}); {code}"
    return json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                     text=True, check=True).stdout)


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone adds about 0.7 s to every command's start-up, and
    # scipy.special with scipy.optimize about 0.4 s more; the CLI module loads
    # none of scipy. It does load numpy.random, which numpy 2 loads on first
    # use, so a command's first draw does not pay for it.
    loaded = _fresh_python("import graphrates; package = sorted(sys.modules); "
                           "import graphrates.cli; print(json.dumps(["
                           f"{_SCIPY_LOADED}, 'numpy.random' in sys.modules, "
                           "[m for m in package if m.startswith('graphrates.')]]))")
    assert loaded == [[], True, []]


def test_each_command_loads_only_the_scipy_it_runs(tmp_path):
    # the commands run in this order in one interpreter, so the modules each
    # has loaded include all the earlier ones'
    configs = {
        "generate": dict(BENCH, n=300, seed=1),
        "measure": dict(BENCH, n=300, seed=1),
        "sample-conditional": {"n": 60, "color_counts": [35, 25],
                               "edge_counts": [[20, 15], [15, 10]], "seed": 5},
        "edge-rate mc pair": dict(BENCH, mode="mc", sizes=[50], replicas=100, seed=3,
                                  event={"kind": "pair", "a": 0, "b": 1, "s": 0.4}),
        "edge-rate mc degree_zero": dict(BENCH, mode="mc", sizes=[50], replicas=100, seed=3,
                                         event={"kind": "degree_zero", "t": 0.2}),
        "degree-rate": {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0},
    }
    runs = []
    for name, cfg in configs.items():
        path = tmp_path / f"{len(runs)}.json"
        path.write_text(json.dumps(cfg))
        runs.append((name, [name.split()[0], "--config", str(path),
                            "--out", str(tmp_path / f"{len(runs)}-out.json")]))
    loaded = dict(_fresh_python(
        f"from graphrates.cli import main; runs = json.loads({json.dumps(runs)!r}); "
        f"print(json.dumps([(name, (main(argv), {_SCIPY_LOADED})) for name, argv in runs]))"))
    assert {name: code for name, (code, _) in loaded.items()} == dict.fromkeys(configs, 0)
    for name in list(configs)[:-1]:
        assert loaded[name][1] == [], name
    assert "scipy.special" in loaded["degree-rate"][1]
    assert "scipy.optimize" not in loaded["degree-rate"][1]


def _module_level_imports(tree):
    """The modules a file imports at its top level; a relative import of this package
    is named graphrates.<module>."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):  # "from . import a" or "from .a import b"
            names |= ({f"graphrates.{node.module}"} if node.module
                      else {f"graphrates.{alias.name}" for alias in node.names})
    return names


def _loading_scipy(trees):
    """The modules of trees ({module name: tree}) whose module-level imports load scipy,
    directly or through another module of trees."""
    imports = {name: _module_level_imports(tree) for name, tree in trees.items()}
    loading = {name for name, mods in imports.items()
               if any(mod.split(".")[0] == "scipy" for mod in mods)}
    grown = True
    while grown:
        grown = False
        for name, mods in imports.items():
            if name not in loading and mods & loading:
                loading.add(name)
                grown = True
    return loading


def test_numpy_layers_load_no_scipy_at_module_level():
    # functions may import the rate layers where they run; the modules that
    # sample and measure, and the CLI, must not reach scipy on import
    trees = {f"graphrates.{path.stem}": ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    trees["graphrates"] = trees.pop("graphrates.__init__")
    loading = _loading_scipy(trees)
    numpy_only = {"graphrates", "graphrates.cli", "graphrates.errors", "graphrates.graphs",
                  "graphrates.mcharness", "graphrates.measures", "graphrates.seeds"}
    assert not loading & numpy_only, sorted(loading & numpy_only)
    assert "graphrates.rates" in loading  # the guard sees scipy where it is


def test_loading_scipy_follows_module_level_imports_only():
    trees = {name: ast.parse(text) for name, text in {
        "graphrates.a": "from scipy.special import gammaln\n",
        "graphrates.b": "from .a import gammaln\n",
        "graphrates.c": "from . import b\n",
        "graphrates.d": "def f():\n    from . import a\n",
        "graphrates.e": "import numpy\nfrom .d import f\n",
    }.items()}
    assert _loading_scipy(trees) == {"graphrates.a", "graphrates.b", "graphrates.c"}


def test_every_public_name_resolves_to_its_home_module():
    # the package loads a name's module on first use; the object is the one
    # its module defines, and dir() lists every public name
    for name in graphrates.__all__:
        namespace = {}
        exec(f"from graphrates import {name}", namespace)
        obj = namespace[name]
        assert obj.__module__.startswith("graphrates."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(graphrates.__all__) <= set(dir(graphrates))
    assert not hasattr(graphrates, "no_such_name")


def test_measures_imports_no_scipy():
    # the measure layer is numpy alone, so a command that needs no rate need not load scipy
    tree = ast.parse((SRC / "measures.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in modules if name.split(".")[0] == "scipy"]
