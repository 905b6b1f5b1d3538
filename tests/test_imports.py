"""The runtime stays standard-library only.

Every import in ``src/divtrees`` must be package-relative or name a
standard-library module, so a speed-up cannot quietly bring in a
third-party dependency such as numpy or bitarray.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "divtrees"


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    outside = {
        (path.name, name)
        for path in files
        for name in _imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set()


def test_only_spantree_calls_the_tree_object_enumerator():
    # the runtime reads trees off masks; enumerate_spanning_trees stays
    # the validated reference that the tests check the mask readers against
    callers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "enumerate_spanning_trees"
    }
    assert callers <= {"spantree.py"}
