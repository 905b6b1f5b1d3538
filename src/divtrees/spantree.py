"""Spanning trees and the constructive leaf machinery.

Holds the spanning-tree value type, the single-step leaf-gaining edge
exchange on a tree path given as its vertex tuple (it names the tree
edge to drop), the growth loop that pushes a tree towards a leaf
target (it edits one working tree's adjacency in place, keeping its
candidate degree-2-paths with graphcore's one path walker), and
bounded exhaustive enumeration of all spanning trees with their leaf
counts, kept by degree bookkeeping (the one engine behind the exact
solvers), and the union-find passes that look for a tree keeping given
vertices internal; and the family value, the edges its trees all hold and
each one's own, which the family writers read.  A tree built from
outside is checked; one built by construction here, or read off a
family, is trusted.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

from .graphcore import (
    Graph,
    GraphFormatError,
    InternalInvariantError,
    _adjacency,
    _bfs_parents,
    _canonical_pairs,
    _canonical_path,
    _ContentLines,
    _degree2_paths,
    _edge_block,
    _edge_lines,
    _norm_edge,
    _path_through,
    _unite,
    _walk,
)


# how many spanning trees an enumeration may produce unless told otherwise
DEFAULT_TREE_BUDGET = 200000


class TreeEnumerationOverflow(RuntimeError):
    """More spanning trees exist than the enumeration limit allows."""


def _acyclic(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether ``edges`` on vertices 1..n close no cycle: graphcore's
    union-find skips none of them.  Given n - 1 of them, that is
    whether they form a spanning tree."""
    return _unite(list(range(n + 1)), edges) == 0


def _degrees(n: int, edges: Iterable[tuple[int, int]]) -> Counter[int]:
    """How many of ``edges`` end at each vertex of 1..n, for the
    vertices they reach (any other reads 0); endpoints outside 1..n are
    ignored."""
    degree = Counter(chain.from_iterable(edges))
    for x in [x for x in degree if not 1 <= x <= n]:
        del degree[x]
    return degree


def _leaves(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[int]:
    """The vertices of 1..n that end exactly one of ``edges``; endpoints
    outside 1..n are ignored."""
    return frozenset(v for v, d in _degrees(n, edges).items() if d == 1)


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of ``host``: n-1 of its edges, acyclic, spanning.

    Construction checks the edges are the host's, n-1 of them, and
    spanning.  That also gives the balance fact that a tree on >= 2
    vertices with L leaves has B <= L - 2 vertices of degree three or
    more: the degree sum 2n - 2 is at least L + 2(n - L - B) + 3B.
    A union-find pass answers the spanning check (n-1 edges that close
    no cycle span), and the leaves, sorted edges and adjacency are read
    off the edge set; a tree builds no :class:`Graph` of its own.
    Nothing edits a tree, nor its adjacency: leaf growth edits a working
    copy of the adjacency (:class:`_Growth`).

    Three trees skip the check (:meth:`_unchecked`): the breadth-first
    tree of a connected graph and the tree leaf growth reaches, both
    spanning by construction, and a :class:`Family` member, read off
    the family's core and own edges when a caller indexes it.
    """

    host: Graph
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.host.n
        if not self.edges <= self.host.edges:
            raise ValueError("tree edges must come from the host graph")
        if len(self.edges) != n - 1:
            raise ValueError(f"a spanning tree of {n} vertices needs {n - 1} edges")
        if not _acyclic(n, self.edges):
            raise ValueError("edge set does not span the host graph")

    @classmethod
    def _unchecked(cls, host: Graph, edges: frozenset[tuple[int, int]]) -> SpanningTree:
        """The tree on ``edges``, which are a spanning tree of ``host``
        by construction: it runs none of the constructor's checks."""
        t = object.__new__(cls)
        object.__setattr__(t, "host", host)
        object.__setattr__(t, "edges", edges)
        return t

    @classmethod
    def from_mask(cls, host: Graph, mask: int) -> SpanningTree:
        """The tree on the set bits of ``mask`` over ``host.sorted_edges()``."""
        return cls(host, frozenset(e for i, e in enumerate(host._edge_order) if mask >> i & 1))

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        return _adjacency(self.host.vertices(), self.edges)

    @cached_property
    def leaves(self) -> frozenset[int]:
        return _leaves(self.host.n, self.edges)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def internal_count(self) -> int:
        return self.host.n - self.leaf_count

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def arbitrary_spanning_tree(g: Graph) -> SpanningTree:
    """A deterministic spanning tree: breadth-first from vertex 1,
    visiting neighbors in id order."""
    if not g.is_connected:
        raise ValueError("disconnected graphs have no spanning tree")
    parent = _bfs_parents(g.adjacency, 1)
    return SpanningTree._unchecked(g, frozenset(_norm_edge(v, u) for v, u in parent.items() if v != u))


def augment_leaf(
    t: SpanningTree | _Growth, path: tuple[int, ...], v: int, w: int
) -> tuple[int, int]:
    """The tree edge to exchange for ``vw`` so that the tree gains at
    least one leaf.

    ``t`` is read as its ``adjacency`` only, so it is a
    :class:`SpanningTree` or growth's working tree.  Precondition,
    which :meth:`_Growth.move` meets by construction and nothing here
    checks: ``path`` is the vertex tuple of a path of ``t`` whose
    internal vertices have tree degree exactly 2 and whose length is
    >= 6; ``v`` sits at positions 3..length-3 of the path and ``vw`` is
    an edge of the host graph absent from the tree.  Rooting the tree
    at the path start, the edge to delete depends on whether ``w`` is
    unrelated to ``v``, an ancestor, or a descendant; in every case it
    is a path edge on the cycle that ``vw`` closes, and its endpoints
    are interior path vertices that turn into leaves, so the leaf count
    rises even when ``w`` itself stops being one.  Whether ``w`` lies
    below ``v`` costs no search of the whole tree (:func:`_off_far_end`).
    """
    adj = t.adjacency
    vs, r = path, len(path) - 1
    pos = {x: i for i, x in enumerate(vs)}

    # w lies below v exactly when it follows v on the path or hangs off
    # the far path end
    j0 = pos.get(w)
    if j0 is None:
        w_below_v = _off_far_end(adj, vs, w)
    else:
        w_below_v = j0 > pos[v]

    if w_below_v:
        if j0 is not None and j0 < r:
            drop = (vs[j0 - 1], vs[j0])
        else:
            # w is the far path end or hangs below it
            drop = (vs[r - 2], vs[r - 1])
    elif j0 is not None and j0 >= 1:
        drop = (vs[j0], vs[j0 + 1])
    else:
        # w is the path start or neither ancestor nor descendant: the
        # cycle closes through the path start, so cutting near it frees
        # two interior vertices
        drop = (vs[1], vs[2])

    return _norm_edge(*drop)


def _off_far_end(adj: Mapping[int, AbstractSet[int]], vs: tuple[int, ...], w: int) -> bool:
    """Whether ``w``, a tree vertex off the path ``vs``, lies on the
    side of its far end: the path's interior vertices have tree degree
    2, so cutting them out leaves the start's side and the far end's.
    One search grows both sides in turn from the two ends and stops
    when either runs out, so it costs O(the smaller side)."""
    far, near = [vs[-1]], [vs[0]]
    seen = {vs[0], vs[1], vs[-2], vs[-1]}
    while far and near:
        for side in (far, near):
            for y in adj[side.pop()]:
                if y == w:
                    return side is far
                if y not in seen:
                    seen.add(y)
                    side.append(y)
    return not near


class _Growth:
    """A spanning tree under leaf growth, edited in place.

    Holds the tree's ``host``, its ``adjacency`` (sets built from the
    start tree's edges), its ``leaves`` and ``candidates``: the maximal
    degree-2-paths of the tree with ``forbidden=nt`` that an exchange
    can use, as canonical vertex tuples, sorted.  A strictly interior
    path vertex has tree degree 2, so it has a non-tree host edge
    exactly when its host degree is >= 3: whether a path is a candidate
    follows from its vertex tuple alone.  At the start the graph scan's
    walker (``graphcore._degree2_paths``) walks each path once; after
    each exchange :meth:`_through` finds the paths through its endpoints.

    An exchange changes the tree degree of the endpoints of the two
    exchanged edges only.  Every other vertex keeps its degree and its
    tree neighbours, so it stays a leaf or not, and a path holding none
    of those (at most four) vertices stays maximal.  The paths through
    them, read before the edit, give way to the paths through them after
    it, each walked out to its anchors.
    """

    def __init__(self, t: SpanningTree, nt: frozenset[int]) -> None:
        self.host = t.host
        self.adjacency = adj = _adjacency(t.host.vertices(), t.edges)
        self.leaves = set(t.leaves)
        self.nt = nt
        self.candidates: list[tuple[int, ...]] = []
        self._update((), _degree2_paths(adj, nt))

    def _candidate(self, vs: tuple[int, ...]) -> bool:
        return any(len(self.host.adjacency[x]) >= 3 for x in vs[3 : len(vs) - 3])

    def _update(self, gone: Iterable[tuple[int, ...]], found: Iterable[tuple[int, ...]]) -> None:
        for vs in filter(self._candidate, gone):
            del self.candidates[bisect_left(self.candidates, vs)]
        for vs in filter(self._candidate, found):
            insort(self.candidates, vs)

    def _through(self, x: int) -> set[tuple[int, ...]]:
        """The canonical maximal degree-2-paths of the tree that hold ``x``."""
        adj, nt = self.adjacency, self.nt
        if len(adj[x]) == 2 and x not in nt:
            return {_path_through(adj, nt, x)}
        return {
            _canonical_path(_walk(adj, nt, x, y)) for y in adj[x] if len(adj[y]) == 2 and y not in nt
        }

    def move(self) -> tuple[tuple[int, ...], int, int] | None:
        """The exchange growth makes next: the first candidate path, its
        first strictly interior vertex v of host degree >= 3, and v's
        lowest non-tree neighbour."""
        if not self.candidates:
            return None
        vs, host_adj = self.candidates[0], self.host.adjacency
        i = next(i for i in range(3, len(vs) - 3) if len(host_adj[vs[i]]) >= 3)
        return vs, vs[i], min(host_adj[vs[i]] - {vs[i - 1], vs[i + 1]})

    def exchange(self, path: tuple[int, ...], v: int, w: int) -> None:
        """Swap in ``vw`` for the tree edge :func:`augment_leaf` drops,
        and check that the tree gained a leaf, and only on ``path``'s
        interior.  ``path`` is a candidate, as :meth:`move` gives it."""
        a, b = augment_leaf(self, path, v, w)
        # a, b and v are interior to path: it is the one path through each
        gone = {path} | self._through(w)
        ends = {a, b, v, w}
        adj, old = self.adjacency, ends & self.leaves
        adj[a].remove(b)
        adj[b].remove(a)
        adj[v].add(w)
        adj[w].add(v)
        now = {x for x in ends if len(adj[x]) == 1}
        if len(now) <= len(old):
            raise InternalInvariantError("edge exchange failed to gain a leaf")
        if not now - old <= set(path[1:-1]):
            raise InternalInvariantError("edge exchange created a leaf off the path")
        self.leaves ^= old ^ now
        found = set().union(*map(self._through, ends))
        self._update(gone - found, found - gone)


def grow_leaves(start: SpanningTree, nt: frozenset[int], target: int) -> SpanningTree:
    """Push the leaf count of ``start`` up to ``target`` by repeated
    edge exchanges, and return the tree reached.

    Growth stops short of ``target`` when no tree path of length >= 6
    avoiding ``nt`` has an exchange left; the caller reads the shortfall
    off the returned tree's leaf count.  Requires every vertex of ``nt``
    internal in ``start``, as ``construct_family``'s seed keeps it.
    Vertices of ``nt`` never become leaves: exchanges only create leaves
    among interior path vertices, and those are kept disjoint from
    ``nt``; ``verify_family`` checks that on the way out of construct.
    Only when growth is needed is one working tree built from
    ``start``'s edges, edited in place by each exchange (see
    :class:`_Growth`).  Each exchange drops an edge of the cycle that
    the added edge closes, so the tree reached is a spanning tree by
    construction: its edges are read off the adjacency once, with no
    check; with no exchange made, ``start`` itself comes back.
    """
    if start.leaf_count >= target:
        return start
    growth = _Growth(start, nt)
    while len(growth.leaves) < target and (move := growth.move()) is not None:
        growth.exchange(*move)
    if len(growth.leaves) == start.leaf_count:
        return start
    adj = growth.adjacency
    return SpanningTree._unchecked(start.host, frozenset((x, y) for x in adj for y in adj[x] if x < y))


# ---------------------------------------------------------------------------
# exhaustive enumeration

def _tree_leaves(g: Graph, limit: int, nt: frozenset[int]) -> Iterator[tuple[int, int | None]]:
    """Yield every spanning tree of ``g`` as its bitmask over
    ``g.sorted_edges()`` with its leaf count, or with None when a vertex
    of ``nt`` is a leaf.  A lone vertex (K1) is no leaf.

    The order is include-first depth-first over the edges in index
    order: the (n-1)-subsets of the edge indices in lexicographic
    order, kept when they form a tree.  Raises
    :class:`TreeEnumerationOverflow` as soon as a (limit+1)-th tree is
    found.

    A frame can span when its picked edges plus its undecided ones
    connect ``g``.  The root can because ``g`` is connected, and two
    moves search below the frames that can:

    1. A frame's walk reads its undecided edges in index order, finding
       both roots of each once, and skips an edge inside one component
       with no frame.  While the forest has more than four components,
       an edge that joins two of them is picked at once, and only its
       exclude alternative is pushed, as a frame whose walk resumes at
       the next edge.  That frame is not pushed when the component of
       either endpoint has no edge after it at all: each root keeps the
       highest edge index that touches its component.  Once the forest
       has four components, the rest of the walk lists the joining
       edges, each with the two roots it joins, and the trees below are
       emitted from that list with no frame and no link.  Each listed
       edge j1 is picked in turn, leaving three components.  That
       forest's crossing edges are the later listed edges, with j1's
       second root read as its first and those inside j1's merged pair
       left out, each tagged with the sum of the two roots it joins;
       its trees are the pairs j2 < j3 of them that join different
       pairs of components, in (j2, j3) order.  After a j1 that is the
       last edge of either of its components no later j1 can span, so
       the list stops there, as the reach filter would.  A (limit+1)-th
       tree still raises among them.  A graph of at most three vertices
       never reaches four components: every n - 1 of its edges form a
       tree, and it is answered first.
    2. A popped frame restores its forest and resumes its walk where it
       was pushed, past the edge it leaves out.  It was pushed at five
       or more components, its parent could span, and leaving one edge
       out of a connected edge set leaves at most two components, so
       its walk reaches four components before it runs out of edges.
       The frame can span iff its walk emits a tree.  When it emits
       none, the frames its walk pushed lie below a frame that cannot
       span, so they are dropped unexpanded; every frame that is popped
       thus has a parent that can span.

    So a frame makes each of its links once: a popped frame reads the
    edges after the one it leaves out, each once, and the first tree
    costs one pass over the edges.  Past the walk, each j1 costs one
    pass over the later listed edges, with no root find, to build its
    crossing edges, and a tree costs O(1), plus a step over each later
    crossing edge that joins j2's own pair.  A frame that cannot span
    still costs that walk, O(m), and those passes, with nothing to show
    for it.

    The forest is one union-find per generator, linked by size and
    undone rather than copied: each link pushes the root it hung below
    another onto a trail, and the linked edge onto a second trail; a
    frame records the trail length its forest had, and popping it
    unlinks back to that length.  Path compression would rewrite
    parents that no trail entry restores, so finds walk up instead;
    linking by size keeps every walk O(log n).  The first tree thus
    takes O(m log n) union-find steps, and the forest, its trails and
    the roots' edge indices take O(n) words however deep the search
    runs.  Only the frames' masks grow with depth: pending frames share
    at most one m-bit mask per picked edge on the current path.

    Leaves are counted alongside: each vertex's forest degree and the
    number of degree-1 vertices, kept in O(1) per link and unlink.  A
    tree emitted as the forest plus j1, j2 and j3 corrects that number
    at j1's endpoints, then, with j1 counted in their degrees, at j2's,
    and with j2 counted too, at j3's, O(1); the ``nt`` test reads
    ``nt``'s degrees after all three, O(|nt|).
    """
    if not g.is_connected:
        raise ValueError("enumeration expects a connected graph")
    n = g.n
    edges = g.sorted_edges()
    m = len(edges)
    if n <= 3:
        # K1's empty tree, K2's one edge, or any two of a three-vertex
        # graph's edges: with so few vertices, every n - 1 edges are a tree
        for emitted, chosen in enumerate(combinations(range(m), n - 1)):
            if emitted >= limit:
                raise TreeEnumerationOverflow(f"more than {limit} spanning trees")
            leaves = _leaves(n, [edges[i] for i in chosen])
            yield sum(1 << i for i in chosen), None if nt & leaves else len(leaves)
        return
    emitted = 0
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    trail: list[int] = []
    ends: list[tuple[int, int]] = []
    # reach[r]: the highest index of an edge touching r's component;
    # kept[u]: its parent's reach before u was linked below it
    reach = [0] * (n + 1)
    for i, (u, v) in enumerate(edges):
        reach[u] = reach[v] = i
    kept = [0] * (n + 1)
    # deg[v]: v's forest degree; ones: the forest's degree-1 vertices;
    # step[d]: how ones moves when a vertex of degree d gains an edge
    deg = [0] * (n + 1)
    step = [1, -1] + [0] * n
    ones = 0
    # frame: the index of the edge its walk resumes at, then the chosen-
    # edge mask and trail length of its forest; each trail entry is one
    # link, so that forest has n - trail length components.
    # base: the stack height below the frames the current walk pushed
    stack = [(0, 0, 0)]
    while stack:
        start, mask, trail_len = stack.pop()
        while len(trail) > trail_len:
            r = trail.pop()
            p = parent[r]
            size[p] -= size[r]
            reach[p] = kept[r]
            parent[r] = r
            a, b = ends.pop()
            deg[a] -= 1
            deg[b] -= 1
            ones -= step[deg[a]] + step[deg[b]]
        base = len(stack)
        comps = n - trail_len
        # at four components, the joining edges with the two roots they join
        cross = []
        for j in range(start, m):
            u, v = a, b = e = edges[j]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                continue
            if comps == 4:
                cross.append((u, v, 1 << j, a, b))
                continue
            if reach[u] > j and reach[v] > j:
                stack.append((j + 1, mask, len(trail)))
            if size[u] > size[v]:
                u, v = v, u
            parent[u] = v
            size[v] += size[u]
            trail.append(u)
            ends.append(e)
            kept[u] = reach[v]
            if reach[u] > reach[v]:
                reach[v] = reach[u]
            ones += step[deg[a]] + step[deg[b]]
            deg[a] += 1
            deg[b] += 1
            mask |= 1 << j
            comps -= 1
        found = emitted
        for i1, (u1, v1, bit1, a1, b1) in enumerate(cross):
            # the forest plus j1 has three components, and its crossing
            # edges are the later joining edges with v1's root read as
            # u1's, less those inside that merged pair, each tagged by the
            # sum of the two roots it joins
            three = []
            for u, v, bit, a, b in cross[i1 + 1:]:
                if u == v1:
                    u = u1
                elif v == v1:
                    v = u1
                if u != v:
                    three.append((u + v, bit, a, b))
            # three[:k]: the j2s, each with a later edge of another tag
            k = len(three) - 1
            if k > 0:
                last = three[k][0]
                while k and three[k - 1][0] == last:
                    k -= 1
            ones1 = ones + step[deg[a1]] + step[deg[b1]]
            deg[a1] += 1
            deg[b1] += 1
            picked = mask | bit1
            for i2 in range(k):
                tag, bit, a, b = three[i2]
                ones2 = ones1 + step[deg[a]] + step[deg[b]]
                deg[a] += 1
                deg[b] += 1
                bit |= picked
                for tag3, bit3, a3, b3 in three[i2 + 1:]:
                    if tag3 != tag:
                        emitted += 1
                        if emitted > limit:
                            raise TreeEnumerationOverflow(f"more than {limit} spanning trees")
                        leaves = ones2 + step[deg[a3]] + step[deg[b3]]
                        for x in nt:
                            if deg[x] + (x == a3) + (x == b3) == 1:
                                leaves = None
                                break
                        yield bit | bit3, leaves
                deg[a] -= 1
                deg[b] -= 1
            deg[a1] -= 1
            deg[b1] -= 1
            if bit1 >> reach[u1] or bit1 >> reach[v1]:
                # j1 is the last edge of u1's or v1's component, so the
                # forest without it cannot span (move 1's reach filter)
                break
        if emitted == found:
            # this frame cannot span, nor can any frame below it (move 2)
            del stack[base:]
    if emitted == 0:
        raise InternalInvariantError("a connected graph must have a spanning tree")


def _required_internal_tree(g: Graph, nt: frozenset[int]) -> list[tuple[int, int]] | str | None:
    """A spanning tree of the connected graph ``g`` that keeps every
    vertex of ``nt`` internal, as its edges; or, when a short argument
    shows that none exists, that argument as a string; or None when
    neither is found.  The question is NP-hard (with all but two
    vertices required, it is Hamiltonian path), so on None blackbox's
    ``_tree_search`` falls back to the enumeration.

    Each tree is one union-find pass (graphcore's ``_unite``) over an
    edge order, keeping the edges that join two components:

    0. Every edge in index order.  That is the first tree
       :func:`_tree_leaves` yields, since its include-first walk
       picks each edge that joins two components, so where it fits
       both give the same tree.
    1. No tree, when a required vertex has degree 1 (it is a leaf of
       every tree; ``g`` is connected and n >= 2, as K1's empty tree
       fits), or when the forced edges close a cycle: a required vertex
       of degree 2 is internal only with both its edges in the tree.
    2. The forced edges, then each required vertex's other edges until
       it has two tree edges, then every edge in index order.  A vertex
       that stops at two leaves its other neighbours to the required
       vertices after it; on seeded random graphs (n <= 9) this finds
       twice as many of the trees that pass 0 misses as linking every
       edge of each required vertex does.
    """
    n = g.n
    tree: list[tuple[int, int]] = []
    _unite(list(range(n + 1)), g._edge_order, tree)
    if not nt & _leaves(n, tree):
        return tree
    adj = g.adjacency
    if any(len(adj[v]) < 2 for v in nt):
        return "a required vertex has degree 1"
    forced = sorted({_norm_edge(v, u) for v in nt if len(adj[v]) == 2 for u in adj[v]})
    parent, tree = list(range(n + 1)), []
    if _unite(parent, forced, tree):
        return "the forced edges close a cycle"
    degree = _degrees(n, tree)
    for v in sorted(nt):
        for u in sorted(adj[v]):
            if degree[v] < 2 and not _unite(parent, [_norm_edge(v, u)], tree):
                degree[u] += 1
                degree[v] += 1
    _unite(parent, g._edge_order, tree)
    return None if nt & _leaves(n, tree) else tree


def enumerate_tree_masks(g: Graph, limit: int = DEFAULT_TREE_BUDGET) -> Iterator[int]:
    """Yield every spanning tree as a bitmask over ``g.sorted_edges()``:
    the masks of :func:`_tree_leaves`, the one enumeration engine, in
    its order and with its overflow."""
    for mask, _ in _tree_leaves(g, limit, frozenset()):
        yield mask


def enumerate_spanning_trees(g: Graph, limit: int = DEFAULT_TREE_BUDGET) -> Iterator[SpanningTree]:
    """Stream all spanning trees of ``g`` in a deterministic order: the
    validated reference that the tests check the mask readers against."""
    for mask in enumerate_tree_masks(g, limit):
        yield SpanningTree.from_mask(g, mask)


def count_spanning_trees(g: Graph) -> int:
    """Exact spanning-tree count: the determinant of a reduced
    Laplacian, by fraction-free (Bareiss) elimination on integers."""
    size = g.n - 1
    lap = [[0] * size for _ in range(size)]
    for u, v in g.edges:
        # index by vertices 2..n; vertex 1's row and column are dropped
        ui, vi = u - 2, v - 2
        if ui >= 0:
            lap[ui][ui] += 1
        if vi >= 0:
            lap[vi][vi] += 1
        if ui >= 0 and vi >= 0:
            lap[ui][vi] -= 1
            lap[vi][ui] -= 1
    # Bareiss: each step eliminates the pivot's column and keeps only
    # the columns right of it.  Every entry is then a minor of the
    # matrix, so the division by the previous pivot is exact.  A row
    # with a zero in the pivot column would only be rescaled, so it
    # keeps the divisor of its last update instead.  Row order only
    # flips the sign, and the count is the absolute value.
    rows = [(1, row) for row in lap]
    prev = 1
    while rows:
        pivot = next((i for i, (_, row) in enumerate(rows) if row[0]), None)
        if pivot is None:
            return 0
        div, top = rows.pop(pivot)
        if div != prev:
            top = [x * prev // div for x in top]
        pc, tail = top[0], top[1:]
        rows = [
            (pc, [(x * pc - row[0] * y) // d for x, y in zip(row[1:], tail)])
            if row[0]
            else (d, row[1:])
            for d, row in rows
        ]
        prev = pc
    return abs(prev)


# ---------------------------------------------------------------------------
# families: trees told as the edges they all hold and each one's own

@dataclass(frozen=True)
class Family(Sequence[SpanningTree]):
    """Trees of ``host`` as the sorted edges they all hold, ``core``,
    and per tree the sorted edges it holds beyond them, ``own[i]``.

    Construct builds its family this way; :meth:`of` makes one of any
    list of members, or of a family file's blocks.  The verifier and the
    writers read the core once, then each member's own edges.  Indexing
    gives a member as a :class:`SpanningTree` with no check: a family
    read off a file, which need not hold trees, is never indexed.
    """

    host: Graph
    core: tuple[tuple[int, int], ...]
    own: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def of(cls, host: Graph, members: Iterable[SpanningTree | AbstractSet], edge: Mapping | None = None) -> Family:
        """The family of ``members``: trees, edge sets, or key sets that ``edge`` maps to edges."""
        sets = [m.edges if isinstance(m, SpanningTree) else m for m in members]
        core = sets[0].intersection(*sets[1:]) if sets else frozenset()
        edges = (lambda keys: keys) if edge is None else partial(map, edge.__getitem__)
        return cls(host, tuple(sorted(edges(core))), tuple(tuple(sorted(edges(s - core))) for s in sets))

    def __len__(self) -> int:
        return len(self.own)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return SpanningTree._unchecked(self.host, frozenset(chain(self.core, self.own[i])))

    def _merged(self, items: Callable[[Sequence[tuple[int, int]]], list]) -> Iterator[list]:
        """Each member's edges in sorted order, as ``items`` gives them
        for a list of edges: it is asked once for the core's and once for
        the distinct own edges', and each member puts its own edges'
        items in place among runs of the core's."""
        mine = [*{e for own in self.own for e in own}]
        item = dict(zip(mine, items(mine)))
        core, core_items = self.core, items(self.core)
        for own in self.own:
            out, at = [], 0
            for e in own:
                i = bisect_left(core, e, at)
                out += core_items[at:i]
                out.append(item[e])
                at = i
            out += core_items[at:]
            yield out


# ---------------------------------------------------------------------------
# serialization: a tree is an edge list with header "n n-1"; a family
# file is a plain concatenation of such blocks

def write_family(family: Family) -> str:
    """The family as text: each tree's block, its sorted edges under an
    ``n n-1`` header, each edge's line formatted once per family."""
    n = family.host.n
    return "".join(f"{n} {len(lines)}\n{''.join(lines)}" for lines in family._merged(_edge_lines))


def _read_blocks(text: str, n: int) -> tuple[list[AbstractSet], Mapping | None]:
    """A family text's blocks on n vertices as sets, and a map from their
    items to edges.  The writer's form (plain ``n m`` headers, m distinct
    canonical lines each) takes one pass: sets of line texts, each
    distinct line parsed once.  Any other text is read again from its
    start as edge sets, by the reader that decides every error's text."""
    lines, head, sets, at = text.splitlines(), f"{n} ", [], 0
    while at < len(lines):
        count = lines[at][len(head) :]
        # ten digits or more run past any text, and int() has a digit limit
        if not lines[at].startswith(head) or not count.isdecimal() or len(count) > 9:
            break
        m = int(count)
        at += 1 + m
        sets.append(set(lines[at - m : at]))
        if len(sets[-1]) != m:  # a short block, or a repeated line
            break
    else:
        del lines  # the sets hold every line: a garbage collection need not walk this list too
        distinct = [*set().union(*sets)]
        pairs = _canonical_pairs(distinct, n)
        if pairs is not None:
            return sets, dict(zip(distinct, pairs))
    rows, sets = _ContentLines(text), []
    for header in rows:
        block_n, edges = _edge_block(rows, header)
        if block_n != n:
            raise GraphFormatError(f"tree block is on {block_n} vertices, host has {n}")
        sets.append(edges)
    return sets, None


def read_edge_set_family(text: str, n: int) -> list[frozenset[tuple[int, int]]]:
    """Parse a concatenation of edge-list blocks into raw edge sets.

    Only format problems are errors here; whether each block is an
    actual spanning tree of some host is the verifier's question."""
    sets, edge = _read_blocks(text, n)
    return sets if edge is None else [frozenset(map(edge.__getitem__, s)) for s in sets]


def read_family(text: str, host: Graph) -> Family:
    """The family in a text of edge-list blocks on ``host``'s vertices,
    read as :func:`read_edge_set_family` reads it but with no member's
    edge set built: its core is the line texts every block holds."""
    return Family.of(host, *_read_blocks(text, host.n))
