"""Shared graph builders and samplers for the test suite, the anchor
walk that the degree-2-path scan is checked against, the one-step graph
rebuilds that the tests fold transcripts over, and the member-by-member
family verifier that the shared-core one is checked against."""

from itertools import combinations

from hypothesis import strategies as st

from divtrees import Graph, InternalInvariantError, SpanningTree, generate
from divtrees.diversify import FamilyReport, PairCheck, TreeCheck
from divtrees.graphcore import _compact_renaming, _norm_edge
from divtrees.spantree import _acyclic, _leaves


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def tree_graph(t: SpanningTree) -> Graph:
    """The tree ``t`` as a graph of its own, on its host's vertices."""
    return Graph(t.host.n, t.edges)


def internal_vertices(t: SpanningTree) -> frozenset[int]:
    """The vertices of ``t``'s host that are no leaf of ``t``."""
    return frozenset(t.host.vertices()) - t.leaves


def cycle_graph(n: int) -> Graph:
    return generate("cycle", (n,))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(1, n + 1), 2)))


def with_pendants(g: Graph, hosts: list[int]) -> Graph:
    """Attach one new pendant vertex to each listed host (repeats allowed)."""
    edges = set(g.edges)
    nxt = g.n
    for h in hosts:
        nxt += 1
        edges.add((h, nxt))
    return Graph(nxt, frozenset(edges))


def degree_profile(n: int, edges) -> dict[int, int]:
    deg = {v: 0 for v in range(1, n + 1)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def leaf_balance_ok(n: int, edges) -> bool:
    """Trees on >= 2 vertices have at most (#leaves - 2) branching vertices."""
    deg = degree_profile(n, edges)
    v1 = sum(1 for d in deg.values() if d == 1)
    v3 = sum(1 for d in deg.values() if d >= 3)
    return v3 <= v1 - 2


@st.composite
def connected_graphs(draw, min_n=2, max_n=9, max_extra=5):
    """Random connected graph: a spanning tree plus a few extra edges."""
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return Graph(1, frozenset())
    edges = set()
    for v in range(2, n + 1):
        u = draw(st.integers(1, v - 1))
        edges.add((u, v))
    pool = [e for e in combinations(range(1, n + 1), 2) if e not in edges]
    extra = draw(st.integers(0, min(max_extra, len(pool))))
    for e in draw(st.permutations(pool))[:extra] if pool else []:
        edges.add(e)
    return Graph(n, frozenset(edges))


def random_connected(rng, n: int) -> Graph:
    """A seeded random connected graph: a random tree on 1..n plus up to
    n + 2 other edges."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    pool = [e for e in combinations(range(1, n + 1), 2) if e not in edges]
    edges |= set(rng.sample(pool, rng.randint(0, min(len(pool), n + 2))))
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# anchor-walk reference for graphcore.maximal_degree2_paths, with its own
# walk and orientation so that it shares no code with the scan

def reference_degree2_paths(g: Graph, forbidden=frozenset()) -> list[tuple[int, ...]]:
    """From each vertex that is not allowed interior material (vertex 1
    alone when there is none), in id order, walk towards each allowed
    neighbour no earlier walk claimed, in id order, until the walk
    reaches a vertex that is not allowed or comes back; then orient each
    path canonically and sort."""
    adj = g.adjacency
    interior = {v for v in g.vertices() if len(adj[v]) == 2 and v not in forbidden}
    anchors = [v for v in g.vertices() if v not in interior] or [1]
    claimed, found = set(), []
    for a in anchors:
        for b in sorted(adj[a]):
            if b in interior and b not in claimed:
                vs = [a, b]
                while vs[-1] != a and vs[-1] in interior:
                    (nxt,) = adj[vs[-1]] - {vs[-2]}
                    vs.append(nxt)
                claimed.update(vs[1:-1])
                if vs[0] == vs[-1]:
                    # closed: keep the anchor, head for its lower neighbour
                    found.append(tuple(vs) if vs[1] < vs[-2] else tuple(reversed(vs)))
                else:
                    found.append(min(tuple(vs), tuple(reversed(vs))))
    return sorted(found)


# ---------------------------------------------------------------------------
# graph-rebuilding reference for contraction and pendant deletion; both
# renumber the vertices back to 1..n-1 and return the old-to-new id map

def contract_edge(g: Graph, keep: int, drop: int) -> tuple[Graph, dict[int, int]]:
    """Merge ``drop`` into ``keep`` and renumber ids above ``drop`` down by one."""
    if _norm_edge(keep, drop) not in g.edges:
        raise ValueError(f"({keep},{drop}) is not an edge")
    if g.adjacency[keep] & g.adjacency[drop]:
        raise ValueError("contraction would create a parallel edge")
    rename = _compact_renaming(g.n, drop)
    new_edges = set()
    for u, v in g.edges:
        if (u, v) == _norm_edge(keep, drop):
            continue
        u = keep if u == drop else u
        v = keep if v == drop else v
        new_edges.add(_norm_edge(rename[u], rename[v]))
    out = Graph(g.n - 1, frozenset(new_edges))
    if out.m != g.m - 1:
        raise InternalInvariantError("contraction changed the edge count by more than one")
    if g.is_connected and not out.is_connected:
        raise InternalInvariantError("contraction disconnected the graph")
    rename[drop] = rename[keep]
    return out, rename


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove ``v`` and its edges; remaining ids compact down to 1..n-1.

    Connectivity is the caller's concern: deleting a cut vertex leaves
    a disconnected graph and that is reported as such, not an error.
    """
    if not (1 <= v <= g.n):
        raise ValueError(f"vertex {v} out of range")
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    rename = _compact_renaming(g.n, v)
    new_edges = frozenset(
        _norm_edge(rename[a], rename[b]) for a, b in g.edges if v not in (a, b)
    )
    return Graph(g.n - 1, new_edges), rename


# ---------------------------------------------------------------------------
# member-by-member reference for diversify.verify_family: each member's
# leaves and spanning check read off all of its own edges

def reference_verify_family(g, family, p, q, k, nt=frozenset()) -> FamilyReport:
    edge_sets = [f.edges if isinstance(f, SpanningTree) else frozenset(f) for f in family]
    trees = []
    for i, edges in enumerate(edge_sets):
        leaves = _leaves(g.n, edges)
        spanning = edges <= g.edges and len(edges) == g.n - 1 and _acyclic(g.n, edges)
        # a tree covers every vertex, K1's lone one too; an edge set that
        # does not span has as internal vertices only those it reaches
        # more than once
        covered = g.n if spanning else len({x for e in edges for x in e if 1 <= x <= g.n})
        internal = covered - len(leaves)
        trees.append(
            TreeCheck(
                index=i,
                spanning=spanning,
                leaf_count=len(leaves),
                internal_count=internal,
                leaves_ok=len(leaves) >= p,
                internal_ok=internal >= q,
                required_internal_ok=not nt & leaves,
            )
        )
    pairs = []
    for i in range(len(edge_sets)):
        for j in range(i + 1, len(edge_sets)):
            d = len(edge_sets[i] ^ edge_sets[j])
            pairs.append(PairCheck(first=i, second=j, distance=d, ok=d >= k))
    return FamilyReport(trees=tuple(trees), pairs=tuple(pairs))
