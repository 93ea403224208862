import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import tiltfan

PACKAGE = Path(tiltfan.__file__).parent


def _imported_modules(path):
    """The package modules that a module imports, at module level or inside
    a function: `from . import x` names x, `from .x import y` names x."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_the_package_import_graph_has_no_cycle():
    graph = {p.stem: _imported_modules(p) for p in PACKAGE.glob("*.py")}
    assert set().union(*graph.values()) <= set(graph)
    list(TopologicalSorter(graph).static_order())  # CycleError on a cycle


def test_the_cli_import_loads_no_dataclasses_or_fractions():
    """`import tiltfan.cli` in a fresh interpreter adds none of these to
    sys.modules; what the interpreter loaded before it does not count."""
    script = ("import sys; before = set(sys.modules); import tiltfan.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "tiltfan.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}
