import ast
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
