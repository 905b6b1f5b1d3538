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


_SERIALIZERS = {"dumps", "dump", "JSONEncoder"}


def _serializer_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "indent":
            yield node, "indent="
        elif isinstance(node, ast.Attribute) and node.attr in _SERIALIZERS:
            yield node, node.attr
        elif isinstance(node, ast.Name) and node.id in _SERIALIZERS:
            yield node, node.id
        elif isinstance(node, ast.alias) and node.name in _SERIALIZERS:
            yield node, node.name


def test_the_runtime_has_one_json_serializer():
    # indent= drops json to its pure-Python encoder; every JSON byte the
    # runtime writes goes through the one shared kernelizer.JSON_ENCODER
    shared = []
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (
                path.name == "kernelizer.py"
                and isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["JSON_ENCODER"]
            ):
                allowed |= {id(n) for n in ast.walk(node.value)}
        for node, what in _serializer_uses(tree):
            (shared if id(node) in allowed else stray).append((path.name, node.lineno, what))
    assert stray == []
    assert [what for _, _, what in shared] == ["JSONEncoder"]

