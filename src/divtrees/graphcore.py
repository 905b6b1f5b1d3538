"""Simple undirected graphs with 1-based vertex ids.

This module owns the graph value type, the structural queries the
reduction pipelines build on (pendant vertices, maximal chains of
degree-2 vertices), plain-text instance I/O, and the graph generators
behind the test corpus and the audit tooling.  Contraction and deletion
are applied by the kernelizer's edit state.

A degree-2-path is its vertex tuple, canonically oriented
(``_canonical_path``).  One walk, ``_walk``, steps along such paths,
and one rule, ``_path_through``, finds the path through a vertex on
it: the graph scan (``_degree2_paths``, sorted by
``maximal_degree2_paths``), the kernelizer's pendant pass and leaf
growth's tree paths all go through them.

All types are immutable values.
"""

from __future__ import annotations

import heapq
import json
import random
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import lt
from typing import AbstractSet, ClassVar, Iterable, Mapping


class GraphFormatError(ValueError):
    """Raised when edge-list text does not parse."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee the library relies on was violated."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _bfs_parents(adj: Mapping[int, Iterable[int]], root: int) -> dict[int, int]:
    """Breadth-first parent of every vertex reachable from ``root``
    (which is its own parent), visiting neighbors in id order."""
    parent = {root: root}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


def _dfs_parents(adj: Mapping[int, Iterable[int]], root: int) -> dict[int, int]:
    """Depth-first parent of every vertex reachable from ``root``
    (which is its own parent), visiting neighbors in id order.
    Iterative, so any depth fits.  Every edge between two reached
    vertices joins an ancestor to a descendant: the end entered first
    is left only once all its neighbors are reached, so the other end
    is entered while the first is on the current path."""
    parent = {root: root}
    path = [root]
    todo = [iter(sorted(adj[root]))]
    while todo:
        for y in todo[-1]:
            if y not in parent:
                parent[y] = path[-1]
                path.append(y)
                todo.append(iter(sorted(adj[y])))
                break
        else:
            path.pop()
            todo.pop()
    return parent


def _adjacency(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Each vertex's neighbours under ``edges``, keyed in ``vertices`` order."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _unite(
    parent: list[int], edges: Iterable[tuple[int, int]], linked: list[tuple[int, int]] | None = None
) -> int:
    """Link each edge's endpoints in the union-find ``parent`` (each
    vertex's parent, a root its own), halving paths on the way, and
    return how many edges were skipped because they closed a cycle.
    Given the parents a forest left, 0 says ``edges`` close no cycle
    over that forest; on the identity over 1..n, the m edges leave
    n - m + that count components.  ``linked``, when given, gets each
    edge that was linked, in order: over a connected graph's edges from
    the identity, a spanning tree."""
    cycles = 0
    for e in edges:
        u, v = e
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            cycles += 1
        else:
            parent[u] = v
            if linked is not None:
                linked.append(e)
    return cycles


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices 1..n.

    ``edges`` holds normalized pairs (u, v) with u < v.  Construction
    validates simplicity and range; use :meth:`from_edges` when the
    input pairs are not known to be normalized.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge {e} not normalized")
            if not (1 <= u and v <= self.n):
                raise ValueError(f"edge {e} out of range 1..{self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            e = _norm_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        return {v: frozenset(s) for v, s in _adjacency(self.vertices(), self.edges).items()}

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def is_connected(self) -> bool:
        # fewer than n - 1 edges cannot connect n vertices; m edges do
        # exactly when all but n - 1 of them close a cycle
        if self.m < self.n - 1:
            return False
        return _unite(list(range(self.n + 1)), self.edges) == self.m - self.n + 1

    def is_tree(self) -> bool:
        return self.is_connected and self.m == self.n - 1

    @cached_property
    def _edge_order(self) -> tuple[tuple[int, int], ...]:
        # the bit order of spanning-tree masks, sorted once per graph
        return tuple(sorted(self.edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(self._edge_order)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": self._edge_order}


@dataclass(frozen=True)
class Instance:
    """Decision instance: graph plus (p, q, k, ell).

    Asks for ell spanning trees, pairwise differing in at least k
    edges, each with at least p leaves and at least q internal
    vertices.  Reads like :class:`InstanceNT`: ``nonterminals`` is
    empty, because li requires no particular vertex to be internal.
    """

    problem: ClassVar[str] = "li"

    graph: Graph
    p: int
    q: int
    k: int
    ell: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be non-negative")
        if self.k < 1 or self.ell < 1:
            raise ValueError("k and ell must be at least 1")

    @property
    def nonterminals(self) -> frozenset[int]:
        return frozenset()

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d.update(problem=self.problem, p=self.p, q=self.q, k=self.k, ell=self.ell)
        return d


@dataclass(frozen=True)
class InstanceNT:
    """Decision instance: graph, a set of vertices that must stay
    internal in every tree, plus (p, k, ell).  Reads like
    :class:`Instance`: ``q`` is 0, because lnt has no internal count."""

    problem: ClassVar[str] = "lnt"

    graph: Graph
    nonterminals: frozenset[int]
    p: int
    k: int
    ell: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError("p must be non-negative")
        if self.k < 1 or self.ell < 1:
            raise ValueError("k and ell must be at least 1")
        for v in self.nonterminals:
            if not (1 <= v <= self.graph.n):
                raise ValueError(f"non-terminal {v} out of range")

    @property
    def q(self) -> int:
        return 0

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d.update(problem=self.problem, nonterminals=sorted(self.nonterminals))
        d.update(p=self.p, k=self.k, ell=self.ell)
        return d


def pendant_vertices(g: Graph) -> frozenset[int]:
    """All vertices of degree exactly 1."""
    return frozenset(v for v in g.vertices() if g.degree(v) == 1)


def _canonical_path(vs: list[int]) -> tuple[int, ...]:
    if vs[0] == vs[-1]:
        # closed: anchor stays put, orient towards the smaller neighbor
        if len(vs) > 2 and vs[1] > vs[-2]:
            vs = [vs[0]] + vs[-2:0:-1] + [vs[0]]
        return tuple(vs)
    rev = list(reversed(vs))
    return tuple(rev) if rev < vs else tuple(vs)


def _walk(
    adj: Mapping[int, AbstractSet[int]], forbidden: AbstractSet[int], a: int, b: int
) -> list[int]:
    """The walk from ``a`` through its neighbour ``b`` along allowed
    degree-2 vertices (degree exactly 2, not in ``forbidden``), up to
    the first vertex that is not one, or back to ``a``."""
    vs = [a, b]
    prev, x = a, b
    while x != a and len(adj[x]) == 2 and x not in forbidden:
        (nxt,) = adj[x] - {prev}
        vs.append(nxt)
        prev, x = x, nxt
    return vs


def _path_through(
    adj: Mapping[int, AbstractSet[int]], forbidden: AbstractSet[int], x: int
) -> tuple[int, ...] | None:
    """The canonical maximal degree-2-path that holds the allowed
    degree-2 vertex ``x`` internally, or None when ``x`` lies on a bare
    cycle of allowed vertices."""
    y, z = adj[x]
    back = _walk(adj, forbidden, x, y)
    if back[-1] == x:
        return None
    return _canonical_path(back[::-1] + _walk(adj, forbidden, x, z)[1:])


def _degree2_paths(
    adj: Mapping[int, AbstractSet[int]], forbidden: AbstractSet[int]
) -> list[tuple[int, ...]]:
    """The maximal degree-2-paths of ``adj``, canonical and unsorted:
    one :func:`_path_through` walk from each allowed degree-2 vertex
    that no earlier walk holds.  A bare cycle of allowed vertices is one
    closed path, anchored at its smallest vertex."""
    claimed: set[int] = set()
    found: list[tuple[int, ...]] = []
    for x, nbrs in adj.items():
        if len(nbrs) == 2 and x not in forbidden and x not in claimed:
            vs = _path_through(adj, forbidden, x)
            if vs is None:
                a = min(_walk(adj, forbidden, x, next(iter(nbrs))))
                vs = _canonical_path(_walk(adj, forbidden, a, next(iter(adj[a]))))
            claimed.update(vs)
            found.append(vs)
    return found


def maximal_degree2_paths(
    g: Graph, forbidden: frozenset[int] = frozenset(), *,
    adj: Mapping[int, AbstractSet[int]] | None = None,
) -> list[tuple[int, ...]]:
    """All inclusion-maximal degree-2-paths with at least one internal
    vertex, internal vertices drawn from allowed degree-2 vertices.

    A path is its vertex tuple (v_0, ..., v_r): r counts its edges, and
    it is closed when v_0 = v_r.  A vertex is allowed interior material
    iff it has degree exactly 2 and is not in ``forbidden``; forbidden
    degree-2 vertices act as endpoints.  Every allowed degree-2 vertex
    ends up internal to exactly one returned path.  A connected graph
    that is one cycle of allowed vertices yields a single closed path
    anchored at vertex 1.  Paths come back canonically oriented and
    sorted, whatever the key order of ``adj``, the adjacency walked:
    ``g.adjacency`` by default, else ``g``'s own neighbour sets.
    """
    if not g.is_connected:
        raise ValueError("maximal_degree2_paths expects a connected graph")
    return sorted(_degree2_paths(g.adjacency if adj is None else adj, forbidden))


def _compact_renaming(n: int, removed: int) -> dict[int, int]:
    return {v: (v - 1 if v > removed else v) for v in range(1, n + 1) if v != removed}


# ---------------------------------------------------------------------------
# plain-text I/O
#
# First non-comment line is "n m", followed by exactly m lines "u v".
# '#' starts a comment; directive comments "#% key value..." carry the
# instance parameters so a written instance reads back identically.
# A block of edge lines in the writers' canonical form is read in one
# pass (``_ContentLines.canonical_block``); every other block goes through
# the row loop, which alone decides what else is accepted and which fault
# is reported.  Trees of one family share all but a few edges, so the
# family writer (``spantree.write_family``) formats the lines of the
# family's core once and each tree's own edges' lines once per family,
# and the family reader (``spantree.read_family``) parses each distinct
# line once per family.

def _edge_lines(edges: Iterable[tuple[int, int]]) -> list[str]:
    """Each edge's ``u v`` line of the text format, with its newline."""
    return [f"{u} {v}\n" for u, v in edges]


def write_graph(g: Graph) -> str:
    """The text format: an ``n m`` header, then one ``u v`` line per edge."""
    return f"{g.n} {g.m}\n" + "".join(_edge_lines(g.sorted_edges()))


# the canonical form: each line "u v", two ASCII integers with no sign
# and no leading zero, one space apart, and nothing between the lines
_CANONICAL_BLOCK = re.compile(r"[1-9][0-9]*+ [1-9][0-9]*+(?:\n[1-9][0-9]*+ [1-9][0-9]*+)*+")


class _ContentLines:
    """A cursor over the lines of edge-list text.  Iterating yields the
    fields of each line that is neither blank nor a comment; the fields
    after each ``#%`` go to ``directives`` as the lines go by."""

    def __init__(self, text: str, directives: list[list[str]] | None = None) -> None:
        self._lines = text.splitlines()
        self._at = 0
        self._directives = directives

    def __iter__(self) -> _ContentLines:
        return self

    def __next__(self) -> list[str]:
        lines, directives = self._lines, self._directives
        while self._at < len(lines):
            raw = lines[self._at]
            self._at += 1
            row = raw.split()
            if row:
                if row[0][0] != "#":
                    return row
                if directives is not None and row[0].startswith("#%"):
                    directives.append(raw.strip()[2:].split())
        raise StopIteration

    def canonical_block(self, n: int, m: int) -> list[tuple[int, int]] | None:
        """The next m lines as normalised edges, read in one pass, when
        each is "u v" in canonical form with 1 <= u < v <= n.  Otherwise
        None, and the cursor stays put for the row loop to read them."""
        lines = self._lines[self._at : self._at + m]
        pairs = _canonical_pairs(lines, n) if len(lines) == m else None
        if pairs is not None:
            self._at += m
        return pairs


def _canonical_pairs(lines: list[str], n: int) -> list[tuple[int, int]] | None:
    """The edges of ``lines``, in order, when each is "u v" in canonical
    form with 1 <= u < v <= n; otherwise None.  One regex match and one
    ``json.loads`` of the integers read them all."""
    if not lines:
        return []
    block = "\n".join(lines)
    if not _CANONICAL_BLOCK.fullmatch(block):
        return None
    try:
        nums = json.loads("[" + block.replace("\n", ",").replace(" ", ",") + "]")
    except ValueError:  # a number past int's digit limit
        return None
    us, vs = nums[::2], nums[1::2]
    if max(vs) > n or not all(map(lt, us, vs)):
        return None
    return list(zip(us, vs))


def _edge_block(rows: _ContentLines, header: list[str]) -> tuple[int, frozenset]:
    """Parse one ``n m`` header and the m edge lines that follow it into
    ``n`` and the edge set, which together make a valid :class:`Graph`.

    A block in canonical form is read in one pass; any other goes to the
    row loop, which checks and normalises each row as it is read and so
    decides what is accepted and which fault is reported: a bad row
    first, then a short block, then the first duplicate."""
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"header must be two integers, got {' '.join(header)!r}") from None
    if n < 1 or m < 0:
        raise GraphFormatError(f"bad sizes n={n} m={m}")
    pairs = rows.canonical_block(n, m)
    if pairs is None:
        pairs = []
        for row in islice(rows, m):
            if len(row) != 2:
                raise GraphFormatError(f"edge line must be 'u v', got {' '.join(row)!r}")
            try:
                u, v = int(row[0]), int(row[1])
            except ValueError:
                raise GraphFormatError(f"edge line must be two integers, got {' '.join(row)!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex out of range in edge {u} {v}")
            if u < v:
                pairs.append((u, v))
            elif u > v:
                pairs.append((v, u))
            else:
                raise GraphFormatError(f"self-loop at vertex {u}")
    if len(pairs) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(pairs)}")
    edges = frozenset(pairs)
    if len(edges) != m:
        seen: set[tuple[int, int]] = set()
        for e in pairs:
            if e in seen:
                raise GraphFormatError(f"duplicate edge {e}")
            seen.add(e)
    return n, edges


def read_graph(text: str, directives: list[list[str]] | None = None) -> Graph:
    """The graph in ``text``.  Given a list, ``directives`` collects the
    fields after the ``#%`` of each directive line, in order."""
    rows = _ContentLines(text, directives)
    header = next(rows, None)
    if header is None:
        raise GraphFormatError("empty input")
    g = Graph(*_edge_block(rows, header))
    if next(rows, None) is not None:
        raise GraphFormatError("more edge lines than the header announces")
    return g


def _directive(d: dict[str, list[str]], kind: str, default, cast=int):
    if kind not in d:
        return default
    if len(d[kind]) != 1:
        raise GraphFormatError(f"directive {kind} needs one value")
    try:
        return cast(d[kind][0])
    except ValueError:
        raise GraphFormatError(f"directive {kind} needs an integer") from None


def read_instance(text: str) -> Instance | InstanceNT:
    """Parse a graph file with parameter directives into an instance.

    Missing directives default to p=0, q=0, k=1, ell=1 and the
    leaf/internal problem; a ``#% nt`` directive or ``#% problem lnt``
    selects the non-terminal variant.  A ``#% nt`` directive on li, or
    ``#% q`` on lnt, is an error.
    """
    found: list[list[str]] = []
    g = read_graph(text, found)
    # one pass: directives are gathered while the graph is read, and
    # checked after it, so a graph fault is reported first
    d: dict[str, list[str]] = {}
    for parts in filter(None, found):
        if parts[0] in d:
            raise GraphFormatError(f"directive {parts[0]} given twice")
        d[parts[0]] = parts[1:]
    p, k, ell = _directive(d, "p", 0), _directive(d, "k", 1), _directive(d, "l", 1)
    problem = _directive(d, "problem", "lnt" if "nt" in d else "li", str)
    stray = {"li": "nt", "lnt": "q"}.get(problem)
    if stray in d:
        raise GraphFormatError(f"directive {stray} does not apply to problem {problem}")
    try:
        if problem == "li":
            q = _directive(d, "q", 0)
            inst = Instance(g, p, q, k, ell)
        elif problem == "lnt":
            try:
                nt = frozenset(int(t) for t in d.get("nt", []))
            except ValueError:
                raise GraphFormatError("directive nt needs integers") from None
            inst = InstanceNT(g, nt, p, k, ell)
        else:
            raise GraphFormatError(f"unknown problem {problem!r}")
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    _check_instance_bounds(inst)
    return inst


def _check_instance_bounds(inst: Instance | InstanceNT) -> None:
    n = inst.graph.n
    if inst.p > n:
        raise GraphFormatError(f"p={inst.p} exceeds the vertex count {n}")
    if inst.q > n:
        raise GraphFormatError(f"q={inst.q} exceeds the vertex count {n}")


def write_instance(inst: Instance | InstanceNT) -> str:
    if isinstance(inst, Instance):
        head = [f"#% problem li", f"#% p {inst.p}", f"#% q {inst.q}"]
    else:
        head = [f"#% problem lnt", f"#% p {inst.p}"]
        if inst.nonterminals:
            head.append("#% nt " + " ".join(str(v) for v in sorted(inst.nonterminals)))
    head += [f"#% k {inst.k}", f"#% l {inst.ell}"]
    return "\n".join(head) + "\n" + write_graph(inst.graph)


# ---------------------------------------------------------------------------
# generators

def _paths(n: int, paths: Iterable[tuple[int, int, int]]) -> Graph:
    """The graph with, for each ``(u, v, r)``, a path of r edges from u
    to v through the next r - 1 vertex ids after 1..n."""
    edges = []
    for u, v, r in paths:
        for x in range(n + 1, n + r):
            edges.append((u, x))
            u = x
        edges.append((u, v))
        n += r - 1
    return Graph.from_edges(n, edges)


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return _paths(1, [(1, 1, n)])


def _gen_theta(a: int, b: int, c: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths of
    a, b and c edges."""
    lengths = (a, b, c)
    if min(lengths) < 1:
        raise ValueError("path lengths must be positive")
    if sorted(lengths)[1] == 1:
        raise ValueError("at most one connecting path may be a single edge")
    return _paths(2, [(1, 2, r) for r in lengths])


def _gen_subdivided(base: Graph, factor: int) -> Graph:
    """Replace every edge of ``base`` by a path of ``factor`` edges."""
    if factor < 1:
        raise ValueError("subdivision factor must be at least 1")
    return _paths(base.n, [(u, v, factor) for u, v in base.sorted_edges()])


def _gen_twin_pendants(base: Graph, count: int, rng: random.Random) -> Graph:
    """Attach ``count`` pairs of pendant vertices, each pair sharing a
    host vertex of ``base``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    hosts = list(base.vertices())
    rng.shuffle(hosts)
    edges = list(base.edges)
    nxt = base.n + 1
    for i in range(count):
        h = hosts[i % len(hosts)]
        edges += [(h, nxt), (h, nxt + 1)]
        nxt += 2
    return Graph.from_edges(nxt - 1, edges)


def _gen_min_degree3(n: int) -> Graph:
    """A connected graph with minimum degree >= 3: a rung-twisted
    ladder for even n, a two-step circulant for odd n."""
    if n < 4:
        raise ValueError("minimum degree 3 needs at least 4 vertices")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    if n % 2 == 0:
        edges += [(i, i + n // 2) for i in range(1, n // 2 + 1)]
    else:
        edges += [(i, (i + 1) % n + 1) for i in range(1, n + 1)]
    return Graph.from_edges(n, edges)


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _gen_random_connected(n: int, m: int, rng: random.Random) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"edge count {m} infeasible for {n} vertices")
    edges = {_norm_edge(u, v) for u, v in _prufer_tree(n, rng)}
    pool = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    ]
    rng.shuffle(pool)
    for e in pool[: m - len(edges)]:
        edges.add(e)
    return Graph.from_edges(n, edges)


# family name -> (builder, parameter count, whether it takes the rng)
_FAMILIES = {
    "cycle": (_gen_cycle, 1, False),
    "theta": (_gen_theta, 3, False),
    "random-connected": (_gen_random_connected, 2, True),
    "subdivided": (_gen_subdivided, 2, False),
    "twin-pendant-gadget": (_gen_twin_pendants, 2, True),
    "min-degree-3": (_gen_min_degree3, 1, False),
}


def generate(family: str, params: tuple, seed: int = 0) -> Graph:
    """Build a named graph family member, deterministic under ``seed``.

    Families: cycle(n), theta(a,b,c), random-connected(n,m),
    subdivided(base_graph, factor), twin-pendant-gadget(base_graph, count),
    min-degree-3(n).  An unknown family or a wrong parameter count
    raises ValueError.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, arity, seeded = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"{family} takes {arity} parameter(s), got {len(params)}")
    return build(*params, random.Random(seed)) if seeded else build(*params)
