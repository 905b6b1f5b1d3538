"""The runtime stays standard-library only.

Every import in ``src/divtrees`` must be package-relative or name a
standard-library module, so a speed-up cannot quietly bring in a
third-party dependency such as numpy or bitarray.
"""

import ast
import re
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


def _root_walks(tree):
    """(function, line) of each ``while parent[x] != x`` loop: a
    union-find's walk up to a root, whatever its names."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                test = getattr(node, "test", None)
                if (
                    isinstance(node, ast.While)
                    and isinstance(test, ast.Compare)
                    and isinstance(test.ops[0], ast.NotEq)
                    and isinstance(test.left, ast.Subscript)
                    and ast.dump(test.left.slice) == ast.dump(test.comparators[0])
                ):
                    yield fn.name, node.lineno


def test_the_runtime_has_one_path_halving_union_find():
    # graphcore._unite serves every connectivity, spanning and forest
    # check; the enumerator keeps its own, undoable one, which cannot
    # compress paths because it unlinks
    walks = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name, _ in _root_walks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert set(walks) == {("graphcore.py", "_unite"), ("spantree.py", "_tree_leaves")}
    # the enumerator reads its undecided edges in one walk per frame,
    # finding the roots of u and v once each
    assert walks.count(("spantree.py", "_tree_leaves")) == 2
    copy = "def _component_count(n, edges):\n    for u, v in edges:\n        while parent[u] != u:\n            u = parent[u]"
    assert list(_root_walks(ast.parse(copy))) == [("_component_count", 3)]


def _namespace_writes(tree):
    """Each assignment target of the form ``vars(x)[...]`` or
    ``x.__dict__[...]``: a write past an object's attributes, as into a
    frozen dataclass's cached properties."""
    for node in ast.walk(tree):
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Subscript):
                inner = target.value
                if (
                    isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "vars"
                ) or (isinstance(inner, ast.Attribute) and inner.attr == "__dict__"):
                    yield target.lineno


def test_the_runtime_writes_no_object_namespace():
    # a value type's state is what its constructor made of it; reading
    # vars(), as JSON_ENCODER's default=vars does, stays allowed
    writes = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _namespace_writes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert writes == []
    assert list(_namespace_writes(ast.parse('vars(t)["leaves"] = x\nt.__dict__["a"] += 1'))) == [1, 2]


# records built once per rule firing, tree or pair: plain dataclasses,
# since a frozen one costs three to six times as much to build
_PLAIN_RECORDS = {"RuleApplication", "TreeCheck", "PairCheck"}
_SETTERS = {"setattr", "__setattr__", "delattr", "__delattr__"}


def _record_fields():
    """Each plain record's field names, read off its class body."""
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and node.name in _PLAIN_RECORDS:
                fields[node.name] = {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
    return fields


def _field_writes(tree, names):
    """(line, name) of each store to or delete of an attribute in
    ``names``, and of each setattr or delattr call that names one of
    them or names its attribute by no string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.attr in names:
                yield node.lineno, node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in _SETTERS:
            name = node.args[1] if len(node.args) > 1 else None
            if not isinstance(name, ast.Constant) or name.value in names:
                yield node.lineno, getattr(name, "value", None)


def test_the_plain_records_are_not_written_after_they_are_built():
    # what frozen=True enforced, kept by the source: no runtime module
    # stores to an attribute named like one of the records' fields
    fields = _record_fields()
    assert set(fields) == _PLAIN_RECORDS
    names = set().union(*fields.values())
    assert {"rule", "p_delta", "index", "leaves_ok", "distance", "ok"} <= names
    writes = [
        (path.name, *write)
        for path in sorted(SRC.glob("*.py"))
        for write in _field_writes(ast.parse(path.read_text(), filename=str(path)), names)
    ]
    assert writes == []
    probe = "e.rule = 'R2'\nc.ok &= x\nsetattr(t, 'index', 0)\nobject.__setattr__(t, f, 0)\ndel e.decision\nt.host = g"
    assert sorted(_field_writes(ast.parse(probe), names)) == [
        (1, "rule"), (2, "ok"), (3, "index"), (4, None), (5, "decision")
    ]


def _unchecked_uses(tree):
    """(innermost enclosing function or "<module>", line) of each read
    of the name ``_unchecked``, SpanningTree's constructor that runs no
    check, as an attribute, a name or a string."""
    owner = {}
    # ast.walk is breadth-first, so an inner function claims its nodes last
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = fn.name
    for node in ast.walk(tree):
        if "_unchecked" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)):
            yield owner.get(id(node), "<module>"), node.lineno


def test_only_trees_built_by_construction_skip_the_check():
    # the BFS tree and the tree leaf growth reaches are spanning trees by
    # construction, and a family's member is read off its core and own
    # edges only when a caller indexes it (a family that construct
    # returns was verified, and one made of trees holds checked trees);
    # every other tree, from a reader, the CLI or the oracle, runs
    # SpanningTree's check
    uses = {
        (path.name, fn)
        for path in sorted(SRC.glob("*.py"))
        for fn, _ in _unchecked_uses(ast.parse(path.read_text(), filename=str(path)))
    }
    assert uses == {
        ("spantree.py", "arbitrary_spanning_tree"),
        ("spantree.py", "grow_leaves"),
        ("spantree.py", "__getitem__"),
    }
    copy = 'make = T._unchecked\ndef f():\n    def g():\n        return getattr(T, "_unchecked")\n    return T._unchecked(h, e)'
    assert sorted(_unchecked_uses(ast.parse(copy))) == [("<module>", 1), ("f", 5), ("g", 4)]


# construct's steps: construct_family is their one check boundary, so
# each is private and has the one runtime caller named here
_STEP_CALLERS = {
    "augment_leaf": {("spantree.py", "_Growth.exchange")},
    "grow_leaves": {("diversify.py", "construct_family")},
    "plan_swaps": {("diversify.py", "construct_family")},
    "build_diverse_family": {("diversify.py", "construct_family")},
}


def _calls(tree, names):
    """(name, qualified name of the innermost enclosing function or
    class, or "<module>") of each call of one of ``names``, as a plain
    name or an attribute."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in names:
                    yield name, owner
            yield from visit(child, inner)

    yield from visit(tree, "<module>")


def test_construct_steps_are_private_and_called_only_by_construct():
    # the steps trust what construct_family checked on the way in, and
    # verify_family checks the family on the way out; nothing outside
    # construct reaches them past that boundary
    init = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({*_STEP_CALLERS, "LeafSwapPlan"})
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        for name, owner in _calls(ast.parse(path.read_text(), filename=str(path)), set(_STEP_CALLERS)):
            callers.setdefault(name, set()).add((path.name, owner))
    assert callers == _STEP_CALLERS
    copy = (
        "class G:\n    def exchange(self):\n        return augment_leaf(self)\n"
        "x = m.plan_swaps()\ndef f():\n    def g():\n        grow_leaves()"
    )
    assert sorted(_calls(ast.parse(copy), set(_STEP_CALLERS))) == [
        ("augment_leaf", "G.exchange"),
        ("grow_leaves", "f.g"),
        ("plan_swaps", "<module>"),
    ]


def test_a_family_core_is_formed_in_one_place():
    # Family.of intersects a list's members, and the swap builder reads
    # the core off the plan and its blocks; everything else takes a
    # family as given and reads its core and own edges, so nothing else
    # makes a Family or intersects edge sets
    makers = set()
    for path in sorted(SRC.glob("*.py")):
        for name, owner in _calls(ast.parse(path.read_text(), filename=str(path)), {"Family", "intersection"}):
            makers.add((name, path.name, owner))
    assert makers == {
        ("intersection", "spantree.py", "Family.of"),
        ("intersection", "diversify.py", "build_diverse_family"),
        ("Family", "diversify.py", "build_diverse_family"),
    }


def test_a_family_is_written_by_one_writer_per_form():
    # a family's members are merged from its core and own edges in one
    # place, read by the text writer and the JSON writer only, so a
    # second path to either form cannot come back
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for name, owner in _calls(ast.parse(path.read_text(), filename=str(path)), {"_merged"}):
            readers.add((name, path.name, owner))
    assert readers == {
        ("_merged", "spantree.py", "write_family"),
        ("_merged", "cli.py", "_family_text"),
    }


def test_required_internal_trees_are_searched_in_one_place():
    # the mist and ntst kernels and construct's lnt seed ask one search,
    # which puts the question to structure (the depth-first pass or the
    # union-find passes) and turns the enumeration into a first fitting
    # tree; the other enumeration readers are the oracle and the mask view
    wanted = {"_tree_leaves", "_dfs_answer", "_required_internal_tree", "_tree_search"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for name, owner in _calls(ast.parse(path.read_text(), filename=str(path)), wanted):
            callers.add((name, path.name, owner))
    assert callers == {
        ("_tree_leaves", "oracle.py", "_decide"),
        ("_tree_leaves", "blackbox.py", "_tree_search"),
        ("_tree_leaves", "spantree.py", "enumerate_tree_masks"),
        ("_dfs_answer", "blackbox.py", "_tree_search"),
        ("_required_internal_tree", "blackbox.py", "_tree_search"),
        ("_tree_search", "blackbox.py", "_tree_exists"),
        ("_tree_search", "diversify.py", "construct_family"),
    }


BENCH = SRC.parents[1] / "bench"

# exported without a runtime or bench caller, each for a stated reason
_EXPORT_ALLOWLIST = {
    "enumerate_spanning_trees": "the tests' validated reference for the mask readers",
}


def _references(tree):
    """(top-level name defined, identifiers read) per statement of a
    module.  A string that is a dotted name, such as
    ``"spantree.grow_leaves"``, reads its last part: the bench tracer
    wraps functions by such names."""
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"\w+(\.\w+)+", node.value):
                    names.add(node.value.rpartition(".")[2])
        yield getattr(stmt, "name", None), names


def test_every_export_has_a_caller():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += BENCH.rglob("*.py")
    used = set()
    for path in paths:
        for defined, names in _references(ast.parse(path.read_text(), filename=str(path))):
            # a name read only inside its own definition has no caller
            used |= names - {defined}
    assert exported - used - set(_EXPORT_ALLOWLIST) == set()
    assert set(_EXPORT_ALLOWLIST) <= exported
