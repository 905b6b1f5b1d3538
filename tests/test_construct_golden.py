"""Golden hash: the families and reasons of ``construct_family``.

One SHA-256 pins what the constructive builder returns on inputs where
leaf growth makes exchanges, not only where the start tree already has
its leaves:

- the benchmark's ``construct-li-grow-1012`` instance (unrelabelled
  ``subdivided(min-degree-3(88), 8)``, li p = q = 2, k = 4, ell = 36),
  whose breadth-first start tree needs 24 exchanges;
- lnt on the square of a path, whose first enumerated tree is two long
  degree-2 paths, with required-internal vertices on them: one case
  that reaches its target and one whose growth stalls;
- seeded, relabelled ``min-degree-3(12..40)`` hosts, most of whose
  targets stall after a few exchanges or none.

Each family enters the hash as its trees' sorted edge lists, each
failure as its reason string.  A change to growth, planning or building
must leave the hash unchanged.
"""

import hashlib
import random

from divtrees import Graph, Instance, InstanceNT, generate
from divtrees.diversify import construct_family

GOLDEN = "c7d683be76191e17b33e72f56dade6afeddffe73ee17c0d98ddab3fbba83695a"


def _path_square(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)])


def _corpus():
    base = generate("min-degree-3", (88,))
    yield "li-grow-1012", Instance(generate("subdivided", (base, 8)), 2, 2, 4, 36)
    yield "lnt-path-square-80", InstanceNT(_path_square(80), frozenset({7, 20, 33}), 2, 4, 8)
    yield "lnt-path-square-120", InstanceNT(_path_square(120), frozenset({5, 50, 51}), 2, 4, 30)
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(12, 40)
        g = generate("min-degree-3", (n,))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
        k, ell = rng.randint(1, 8), rng.randint(2, 6)
        yield f"md3-{seed}", Instance(h, rng.randint(0, 3), rng.randint(0, 3), k, ell)


def _digest():
    h = hashlib.sha256()
    for name, inst in _corpus():
        family, reason, _ = construct_family(inst)
        trees = None if family is None else [sorted(t.edges) for t in family]
        h.update(f"{name} {reason!r} {trees!r}\n".encode())
    return h.hexdigest()


def test_construct_families_are_pinned():
    assert _digest() == GOLDEN
