import hashlib
import inspect
import random
import sys
import time
import tracemalloc
from itertools import combinations, islice

import pytest
from hypothesis import given

import support
from divtrees import blackbox
from divtrees import spantree as spantree_module
from divtrees import (
    Graph,
    SpanningTree,
    TreeEnumerationOverflow,
    arbitrary_spanning_tree,
    count_spanning_trees,
    enumerate_spanning_trees,
    generate,
    maximal_degree2_paths,
    read_edge_set_family,
    verify_family,
    write_family,
    write_graph,
)
from divtrees.blackbox import _dfs_answer, _tree_exists, _tree_search
from divtrees.graphcore import _bfs_parents, _norm_edge, _unite
from divtrees.spantree import (
    DEFAULT_TREE_BUDGET,
    Family,
    _acyclic,
    _Growth,
    _leaves,
    _required_internal_tree,
    _tree_leaves,
    augment_leaf,
    enumerate_tree_masks,
    grow_leaves,
)


# ---------------------------------------------------------------------------
# the tree value type

def test_spanning_tree_queries():
    g = support.cycle_graph(4)
    t = SpanningTree(g, frozenset({(1, 2), (2, 3), (3, 4)}))
    assert t.leaves == frozenset({1, 4})
    assert t.leaf_count == 2
    assert support.internal_vertices(t) == frozenset({2, 3})
    assert t.internal_count == 2
    assert support.tree_graph(t).is_tree()


def test_spanning_tree_rejects_wrong_edge_count():
    g = support.cycle_graph(4)
    with pytest.raises(ValueError, match="needs 3 edges"):
        SpanningTree(g, frozenset({(1, 2), (2, 3)}))


def test_spanning_tree_rejects_foreign_edges():
    g = support.cycle_graph(4)
    with pytest.raises(ValueError, match="host graph"):
        SpanningTree(g, frozenset({(1, 3), (1, 2), (2, 3)}))


def test_spanning_tree_rejects_non_spanning_sets():
    g = support.complete_graph(4)
    with pytest.raises(ValueError, match="span"):
        SpanningTree(g, frozenset({(1, 2), (1, 3), (2, 3)}))


def _check_corpus():
    yield support.complete_graph(4)
    yield support.cycle_graph(5)
    yield generate("theta", (2, 3, 3))
    for seed, (n, m) in enumerate([(5, 7), (6, 9), (7, 10), (7, 12)]):
        yield generate("random-connected", (n, m), seed=seed)


def _spans_by_connectivity(g, s):
    return s <= g.edges and len(s) == g.n - 1 and Graph(g.n, s).is_connected


def _leaves_by_adjacency(g, s):
    # a Graph over every endpoint, so an edge to a vertex past n still
    # gives its end inside 1..n a degree, as the verifier counts it
    adjacency = Graph(max([g.n] + [v for _, v in s]), s).adjacency
    return frozenset(v for v in g.vertices() if len(adjacency[v]) == 1)


def _assert_spanning_check(g, s):
    expected = _spans_by_connectivity(g, s)
    leaves = _leaves_by_adjacency(g, s)
    try:
        t = SpanningTree(g, s)
    except ValueError:
        t = None
    assert (t is not None) == expected, (g, s)
    if t is not None:
        assert t.leaves == leaves and t.leaf_count == len(leaves), (g, s)
    for nt in (frozenset({1}), frozenset({2, g.n})):
        check = verify_family(g, [s], 0, 0, 1, nt=nt).trees[0]
        assert check.spanning == expected, (g, s)
        covered = g.n if expected else len({x for e in s for x in e if 1 <= x <= g.n})
        assert (check.leaf_count, check.internal_count) == (len(leaves), covered - len(leaves))
        assert check.required_internal_ok == (nt <= frozenset(g.vertices()) - leaves), (g, s, nt)


def test_spanning_check_agrees_with_connectivity():
    # the union-find check against the graph search it replaced, and
    # the degree-count leaves against tree adjacency, on every subset
    # one edge short of, at, and one edge over a tree, then on raw sets
    # with a foreign edge or an endpoint past n
    rng = random.Random(14)
    for g in _check_corpus():
        edges = g.sorted_edges()
        for size in (g.n - 2, g.n - 1, g.n):
            for s in combinations(edges, size):
                _assert_spanning_check(g, frozenset(s))
        foreign = [e for e in combinations(g.vertices(), 2) if e not in g.edges]
        for _ in range(200 if foreign else 0):
            size = rng.randint(max(0, g.n - 3), min(g.m, g.n))
            s = frozenset(rng.sample(edges, size)) | {rng.choice(foreign)}
            _assert_spanning_check(g, s)
        for _ in range(100):
            size = rng.randint(max(0, g.n - 3), min(g.m, g.n))
            stray = (rng.randint(1, g.n), g.n + rng.randint(1, 3))
            _assert_spanning_check(g, frozenset(rng.sample(edges, size)) | {stray})


def test_pair_distances_are_symmetric_differences():
    rng = random.Random(7)
    g = generate("random-connected", (8, 14), seed=3)
    pool = list(g.edges) + [(1, 1), (2, 9), (9, 10), (3, 12)]
    pool += [e for e in combinations(g.vertices(), 2) if e not in g.edges]
    for _ in range(50):
        family = [frozenset(rng.sample(pool, rng.randint(0, 12))) for _ in range(rng.randint(2, 6))]
        report = verify_family(g, family, 0, 0, 1)
        assert len(report.pairs) == len(family) * (len(family) - 1) // 2
        for pair in report.pairs:
            assert pair.distance == len(family[pair.first] ^ family[pair.second])


def test_pair_distances_over_a_large_common_core():
    # the members share a 150-edge path and differ in a few edges, some
    # of them foreign to the host, and the first member holds edges
    # that the others lack
    n = 160
    g = Graph(n, frozenset({(i, i + 1) for i in range(1, n)} | {(1, n), (2, 80), (40, 120)}))
    core = frozenset((i, i + 1) for i in range(1, 151))
    tails = [
        {(1, n), (151, 152), (152, 153)},
        {(2, 80), (151, 152)},
        {(40, 120), (n + 1, n + 2)},
        {(1, n), (151, 152), (152, 153)},
        {(3, 3), (2, 80), (n, n + 5)},
        set(),
    ]
    family = [core | tail for tail in tails]
    report = verify_family(g, family, 0, 0, 3)
    assert [(p.first, p.second) for p in report.pairs] == list(combinations(range(len(family)), 2))
    for pair in report.pairs:
        d = len(family[pair.first] ^ family[pair.second])
        assert (pair.distance, pair.ok) == (d, d >= 3)
    # members 0 and 2 differ in five edges, members 0 and 3 in none
    assert (report.pairs[1].distance, report.pairs[2].distance) == (5, 0)


def test_arbitrary_tree_is_bfs_from_one():
    g = support.cycle_graph(5)
    t = arbitrary_spanning_tree(g)
    assert t.edges == frozenset({(1, 2), (1, 5), (2, 3), (4, 5)})
    with pytest.raises(ValueError):
        arbitrary_spanning_tree(Graph(3, frozenset({(1, 2)})))


@given(support.connected_graphs(min_n=2, max_n=9))
def test_arbitrary_tree_spans(g):
    t = arbitrary_spanning_tree(g)
    assert support.tree_graph(t).is_tree()
    assert support.leaf_balance_ok(g.n, t.edges) or g.n < 2


# ---------------------------------------------------------------------------
# enumeration and counting

def test_enumerate_k4_matches_cayley():
    trees = list(enumerate_spanning_trees(support.complete_graph(4)))
    assert len(trees) == 16
    assert len({t.edges for t in trees}) == 16


def test_enumerate_path_graph_single_tree():
    trees = list(enumerate_spanning_trees(support.path_graph(6)))
    assert len(trees) == 1


def test_enumerate_rejects_disconnected():
    with pytest.raises(ValueError):
        list(enumerate_spanning_trees(Graph(3, frozenset({(1, 2)}))))


def test_enumeration_overflow():
    g = support.complete_graph(5)
    with pytest.raises(TreeEnumerationOverflow):
        list(enumerate_spanning_trees(g, limit=100))


def test_count_pins():
    assert count_spanning_trees(support.complete_graph(4)) == 16
    assert count_spanning_trees(support.complete_graph(5)) == 125
    assert count_spanning_trees(support.cycle_graph(8)) == 8
    assert count_spanning_trees(generate("theta", (2, 2, 3))) == 16
    assert count_spanning_trees(support.path_graph(7)) == 1
    assert count_spanning_trees(Graph(1, frozenset())) == 1
    assert count_spanning_trees(Graph(3, frozenset({(1, 2)}))) == 0


def test_count_matches_enumeration_on_random_graphs():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = Graph(n, frozenset(rng.sample(pairs, rng.randint(0, min(len(pairs), 16)))))
        trees = sum(1 for _ in enumerate_tree_masks(g)) if g.is_connected else 0
        assert count_spanning_trees(g) == trees


def test_count_stays_fast_on_large_graphs():
    # the determinant has 48 digits; exact rationals took seconds here
    g = generate("min-degree-3", (160,))
    start = time.perf_counter()
    count = count_spanning_trees(g)
    assert time.perf_counter() - start < 0.5
    assert count == 227962700977360477553905172759643132779913339040


ORDER_GOLDEN = "8fb7ca97cecefb39769af896f5041f50a5b0ba9fba2fb5684fa3ab596bf8e1c1"


def _mask_digest(g, limit=200000):
    """SHA-256 over the mask stream, in emission order, plus whether
    the enumeration overflowed ``limit``."""
    h = hashlib.sha256()
    try:
        for mask in enumerate_tree_masks(g, limit):
            h.update(b"%x\n" % mask)
    except TreeEnumerationOverflow:
        h.update(b"overflow\n")
    return h.hexdigest()


def _order_corpus():
    yield "md3-10", generate("min-degree-3", (10,)), 200000
    yield "md3-12", generate("min-degree-3", (12,)), 200000
    for n, m in ((10, 18), (9, 14)):
        for seed in range(3):
            yield f"rc-{n}-{m}-{seed}", generate("random-connected", (n, m), seed=seed), 200000
    yield "c8", support.cycle_graph(8), 200000
    # K6 has 1296 trees, so the stream stops at the 501st
    yield "k6-overflow", support.complete_graph(6), 500


def test_enumeration_order_is_pinned():
    """The oracle, the subroutine kernels and the construct seed search
    all consume trees in this order; a faster enumerator must emit the
    same masks in the same sequence."""
    h = hashlib.sha256()
    for name, g, limit in _order_corpus():
        h.update(f"{name} {_mask_digest(g, limit)}\n".encode())
    assert h.hexdigest() == ORDER_GOLDEN


def _reference_masks(g):
    """Tree masks in include-first edge order: the (n-1)-subsets of the
    edge indices in lexicographic order, kept when they close no cycle."""
    edges = g.sorted_edges()
    return [
        sum(1 << i for i in picked)
        for picked in combinations(range(len(edges)), g.n - 1)
        if _acyclic(g.n, (edges[i] for i in picked))
    ]


def _reference_trees(g, nt):
    """(mask, leaf count) of each of ``_reference_masks``' trees, the
    count None when a vertex of ``nt`` is a leaf."""
    edges = g.sorted_edges()
    trees = []
    for mask in _reference_masks(g):
        leaves = _leaves(g.n, [e for i, e in enumerate(edges) if mask >> i & 1])
        trees.append((mask, None if nt & leaves else len(leaves)))
    return trees


def test_enumeration_matches_the_combinations_reference():
    rng = random.Random(17)
    for _ in range(300):
        g = support.random_connected(rng, rng.randint(1, 8))
        assert list(enumerate_tree_masks(g)) == _reference_masks(g), g.edges


@given(support.connected_graphs(min_n=2, max_n=8))
def test_enumeration_matches_the_reference_on_sampled_graphs(g):
    assert list(enumerate_tree_masks(g)) == _reference_masks(g)


# two triangles joined by the bridge (1, 4), which sorts before the
# second triangle's edges
TWO_TRIANGLES = Graph(6, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (4, 6), (5, 6)}))


def test_enumeration_matches_the_reference_on_bridge_graphs():
    # leaving out a bridge with later edges on both sides gives a frame
    # that cannot span but still passes the reach filter
    for g in (Graph(4, frozenset({(1, 3), (1, 4), (2, 3)})), TWO_TRIANGLES):
        assert list(enumerate_tree_masks(g)) == _reference_masks(g), g.edges


class _CountingEdges(list):
    """An edge list that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _edge_reads(monkeypatch, g):
    """The trees of ``g`` and how many edge reads the enumeration made."""
    lists = []
    real = Graph.sorted_edges

    def counting(self):
        lists.append(_CountingEdges(real(self)))
        return lists[-1]

    monkeypatch.setattr(Graph, "sorted_edges", counting)
    masks = list(enumerate_tree_masks(g))
    return len(masks), sum(edges.reads for edges in lists)


# the same two triangles, {1, 3, 4} and {2, 5, 6}, with the bridge
# (1, 2) sorting first
BRIDGE_FIRST = Graph(6, frozenset({(1, 2), (1, 3), (1, 4), (3, 4), (2, 5), (2, 6), (5, 6)}))


def test_frames_below_a_frame_that_cannot_span_are_never_expanded(monkeypatch):
    """The root reads every edge once, and each popped exclude frame
    reads the edges after the one it leaves out.  On the two triangles,
    with edges (1,2) (1,3) (1,4) (2,3) (4,5) (4,6) (5,6), the root's
    walk reaches four components after (1,3), and its list (1,4) (4,5)
    (4,6) (5,6) gives the three trees through (1,4).  Five frames pop,
    leaving out edges 1 2 0 2 1, so the search reads 7 + (5 + 4 + 6 + 4
    + 5) = 31 edges (35 when the list started at three components).
    The frames that leave out the bridge (1,4) cannot span, nor can the
    last, which leaves out both (1,2) and (1,3): each lists only (4,5)
    (4,6) (5,6), whose components leave {1, 2, 3} out.  Their walks push
    no frame: each edge they link is the last edge of one of the two
    components it joins, so the reach filter keeps no exclude frame.

    With the bridge (1,2) first, edges (1,2) (1,3) (1,4) (2,5) (2,6)
    (3,4) (5,6), leaving out the bridge is the root's first frame, and
    its walk pushes two frames, for (1,3) and (1,4), before it lists
    (2,5) (2,6) (5,6), which cannot join {1, 3, 4}.  The root (7 reads)
    gives six trees and the frame that leaves out (1,3) three more (5);
    the frame below it that also leaves out (1,4) reads 4 and pushes a
    frame for (2,5), and the one without the bridge reads 6.  Neither
    emits a tree, so the three frames their walks pushed go unexpanded:
    7 + 5 + 4 + 6 = 22 reads, where expanding them reads 40 or runs off
    the end of the edges.  A search that skips more work may lower
    these figures."""
    assert _edge_reads(monkeypatch, TWO_TRIANGLES) == (9, 31)
    assert _edge_reads(monkeypatch, BRIDGE_FIRST) == (9, 22)


def test_the_last_three_levels_push_no_frames(monkeypatch):
    """On K5, with edges (1,2) (1,3) (1,4) (1,5) (2,3) (2,4) (2,5)
    (3,4) (3,5) (4,5), a forest of one edge has four components, so
    below it the 125 trees come from one list of joining edges, with no
    frame.  The root links (1,2) and lists the other nine edges, 10
    reads.  Three frames pop, leaving out edge 0, then 0 and 1, then 0,
    1 and 2, each reading the edges after the last one it leaves out,
    so the search reads 10 + (9 + 8 + 7) = 34 edges (110 when the list
    started at three components, 256 at two).  A search that skips more
    work may lower this figure."""
    assert _edge_reads(monkeypatch, support.complete_graph(5)) == (125, 34)


def _runs_of_line(g, text):
    """How often the line of ``_tree_leaves`` that reads ``text`` runs
    while every tree of ``g`` is enumerated."""
    lines, first = inspect.getsourcelines(_tree_leaves)
    target = first + next(i for i, line in enumerate(lines) if line.strip() == text)
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        runs += event == "line" and frame.f_lineno == target
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is _tree_leaves.__code__ else None)
    try:
        list(_tree_leaves(g, 10**6, frozenset()))
    finally:
        sys.settrace(old)
    return runs


def test_the_four_component_list_stops_at_the_last_edge_of_a_component():
    """On K5 the four frames that reach four components have forests
    (1,2), (1,3), (1,4) and (1,5), and list the 9, 8, 7 and 6 joining
    edges after the edge they link.  Vertex 2's component has no edge
    after (2,5), so each frame picks as j1 only the listed edges up to
    (2,5): 6 + 5 + 4 + 3 = 18 three-component forests (30 when every
    listed edge is tried)."""
    assert _runs_of_line(support.complete_graph(5), "three = []") == 18


def test_k7_pops_frames_only_above_four_components(monkeypatch):
    """On K7 a forest has five or more components only when it holds
    at most two edges, so the search for its 16,807 trees pops 290
    frames, the root among them (1,577 when frames were pushed down to
    four components), and their walks read 3,211 edges (12,692).  A
    search that skips more work may lower this figure."""
    assert _edge_reads(monkeypatch, support.complete_graph(7)) == (16807, 3211)


def test_enumeration_stops_at_every_limit():
    # every limit from 0 to the tree count (or to 3), so some fall in
    # the middle of a run of trees that differ only in their last two
    # edges; with their leaf counts too, as the engine yields them
    cases = [
        (g, (frozenset(), frozenset({g.n})))
        for g in (
            Graph(1, frozenset()),
            support.complete_graph(4),
            support.complete_graph(5),
            support.cycle_graph(6),
            generate("theta", (2, 3, 3)),
        )
    ]
    # the three-vertex graphs, answered before any frame, with every
    # required set of the vertices 1 and 3
    cases += [
        (g, tuple(map(frozenset, ((), (1,), (3,), (1, 3)))))
        for g in (support.path_graph(3), support.complete_graph(3))
    ]
    # and seeded random graphs, each with one nonempty required set
    rng = random.Random(49)
    for _ in range(4):
        g = support.random_connected(rng, rng.randint(5, 7))
        cases.append((g, (frozenset(rng.sample(range(1, g.n + 1), rng.randint(1, 3))),)))
    for g, nts in cases:
        full = _reference_masks(g)
        trees = {nt: _reference_trees(g, nt) for nt in nts}
        for limit in range(max(len(full), 3) + 1):
            got = []
            try:
                for mask in enumerate_tree_masks(g, limit):
                    got.append(mask)
                overflow = False
            except TreeEnumerationOverflow:
                overflow = True
            assert got == full[:limit], (g.edges, limit)
            assert overflow == (len(full) > limit), (g.edges, limit)
            for nt, want in trees.items():
                assert _limited(g, nt, limit) == (want[:limit], overflow), (g.edges, nt, limit)


def test_enumeration_edge_cases():
    assert list(enumerate_tree_masks(Graph(1, frozenset()))) == [0]
    assert list(enumerate_tree_masks(support.path_graph(2))) == [1]
    with pytest.raises(ValueError):
        list(enumerate_tree_masks(Graph(4, frozenset({(1, 2), (3, 4)}))))


def _leaf_corpus():
    rng = random.Random(29)
    yield Graph(1, frozenset()), frozenset()
    yield Graph(1, frozenset()), frozenset({1})
    yield support.path_graph(2), frozenset()
    yield support.path_graph(2), frozenset({2})
    # n <= 2 is answered before the search, and n = 3 starts at three
    # components, where the root itself is one scan
    for g in (support.complete_graph(3), support.path_graph(3), *map(support.complete_graph, (4, 5, 6))):
        for nt in (frozenset(), frozenset({1}), frozenset({g.n}), frozenset({1, g.n})):
            yield g, nt
    yield Graph(4, frozenset({(1, 3), (1, 4), (2, 3)})), frozenset({1})
    yield TWO_TRIANGLES, frozenset()
    yield TWO_TRIANGLES, frozenset({1, 4})
    for _ in range(300):
        g = support.random_connected(rng, rng.randint(1, 7))
        yield g, frozenset(rng.sample(range(1, g.n + 1), rng.randint(0, min(2, g.n))))


def _limited(g, nt, limit):
    got = []
    try:
        for item in _tree_leaves(g, limit, nt):
            got.append(item)
    except TreeEnumerationOverflow:
        return got, True
    return got, False


def test_engine_counts_the_leaves_of_the_trees_it_yields():
    """The engine's masks are the enumeration's and the reference's,
    each with the leaf count that the tree value type reads, or None
    exactly when a vertex of ``nt`` is a leaf; a limit stops it at the
    same tree as the reference."""
    for g, nt in _leaf_corpus():
        full, overflow = _limited(g, nt, 200000)
        assert not overflow
        masks = [mask for mask, _ in full]
        assert masks == list(enumerate_tree_masks(g)) == _reference_masks(g), g.edges
        for mask, leaves in full:
            t = SpanningTree.from_mask(g, mask)
            want = t.leaf_count if nt <= support.internal_vertices(t) else None
            assert leaves == want, (g.edges, nt, t.edges)
        # every limit below 20 trees; past that 10 spread over the run
        # and the last two, since every limit costs quadratic time
        stride = max(1, len(full) // 10)
        for limit in {*range(0, len(full) + 1, stride), len(full) - 1, len(full)}:
            assert _limited(g, nt, limit) == (full[:limit], len(full) > limit), (g.edges, limit)


def test_the_tail_counts_both_edges_at_a_shared_endpoint():
    # a triangle's trees are its pairs of edges, (1,2)+(1,3), (1,2)+(2,3)
    # and (1,3)+(2,3): each vertex of degree zero in the forest is
    # internal only in the tree whose two tail edges it is shared by
    triangle = support.complete_graph(3)
    for v, centred in ((1, 0b011), (2, 0b101), (3, 0b110)):
        want = [(mask, 2 if mask == centred else None) for mask in (0b011, 0b101, 0b110)]
        assert list(_tree_leaves(triangle, 3, frozenset({v}))) == want
    # the path 1-2-3: 2 is an endpoint of both tail edges, 1 of one
    path = support.path_graph(3)
    assert list(_tree_leaves(path, 1, frozenset({2}))) == [(0b11, 2)]
    assert list(_tree_leaves(path, 1, frozenset({1}))) == [(0b11, None)]


def _budget_answer(first, total, limit):
    """What a search that may enumerate ``limit`` trees answers when the
    first fitting tree is the ``first``-th (None: no tree fits) of
    ``total``: True, False, or None when the limit ran out first."""
    if first is not None and first < limit:
        return True
    return False if first is None and total <= limit else None


def test_budgeted_searches_stop_inside_a_pair_run():
    """The searches that stop at their first fitting tree, at every
    budget up to a few past that tree, on questions their structural
    passes leave open: the ntst search (q = 0), which charges its passes'
    second tree, and the mist search (q > 0), which charges its
    depth-first tree.  A yes is the first fitting enumerated tree."""
    for g in (support.complete_graph(5), support.complete_graph(6)):
        n = g.n
        edges = g.sorted_edges()
        trees = [(mask, _leaves(n, [e for i, e in enumerate(edges) if mask >> i & 1])) for mask in _reference_masks(g)]

        def first_fit(q, nt):
            return next((i for i, (_, leaves) in enumerate(trees) if not nt & leaves and n - len(leaves) >= q), None)

        def search_answer(first, want):
            tree = None if first is None else [e for i, e in enumerate(edges) if trees[first][0] >> i & 1]
            return {True: tree, False: "no enumerated tree fits", None: None}[want]

        open_nt = [frozenset(c) for c in combinations(range(1, n + 1), 3) if _required_internal_tree(g, frozenset(c)) is None]
        for nt in open_nt[:3]:
            first = first_fit(0, nt)
            for budget in range(first + 4):
                limit = budget - 1 if budget >= 2 else budget
                want = _budget_answer(first, len(trees), limit)
                assert _tree_search(g, 0, nt, budget) == search_answer(first, want), (n, nt, budget)
                assert _tree_exists(g, 0, nt, budget) == want, (n, nt, budget)
        for q, nt in ((n - 2, frozenset({n})), (n - 2, frozenset({2, n})), (n - 1, frozenset())):
            assert _dfs_answer(g, q, nt) is None
            first = first_fit(q, nt)
            budgets = range(len(trees) + 3) if first is None else range(first + 4)
            if first is None and n > 5:
                budgets = [0, 1, 2, len(trees), len(trees) + 1]
            for budget in budgets:
                want = _budget_answer(first, len(trees), max(budget - 1, 0))
                assert _tree_search(g, q, nt, budget) == search_answer(first, want), (n, q, nt, budget)
                assert _tree_exists(g, q, nt, budget) == want, (n, q, nt, budget)


@given(support.connected_graphs(min_n=2, max_n=8))
def test_enumeration_agrees_with_kirchhoff(g):
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == count_spanning_trees(g)
    assert len({t.edges for t in trees}) == len(trees)
    # a tree is written in the graph text format without building a graph
    assert all(write_family(Family.of(g, [t])) == write_graph(support.tree_graph(t)) for t in trees)


@given(support.connected_graphs(min_n=2, max_n=8))
def test_enumeration_agrees_with_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges)
    expected = {
        frozenset(
            (min(u, v), max(u, v)) for u, v in tree.edges()
        )
        for tree in nx.SpanningTreeIterator(h)
    }
    got = {t.edges for t in enumerate_spanning_trees(g)}
    assert got == expected


def _first_tree_peak(n):
    g = generate("min-degree-3", (n,))
    # the graph caches its connectivity and edge order, and an untraced
    # first run fills the interpreter's free lists, so the peak counts
    # only what the search itself keeps alive
    next(enumerate_tree_masks(g))
    tracemalloc.start()
    try:
        next(enumerate_tree_masks(g))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_tree_copies_no_forest():
    # a forest copied per include child peaked at 33 MB here, four
    # times the n = 1000 peak; what is left to grow with depth is the
    # frames' edge masks
    big, small = _first_tree_peak(2000), _first_tree_peak(1000)
    assert big < 4_000_000
    assert big / small < 3


def test_first_tree_walks_short_finds_past_a_low_labelled_hub():
    # edges (1, 2), (1, 3), ... in order: linking roots without sizes
    # hangs the growing tree below each new spoke, so the finds from 1
    # walk the whole chain and the first tree took about 0.28 s here;
    # linked by size it takes a few ms
    n = 3000
    spokes = {(1, v) for v in range(2, n + 1)}
    rim = {(v, v + 1) for v in range(2, n)} | {(2, n)}
    g = Graph(n, frozenset(spokes | rim))
    next(enumerate_tree_masks(g))
    start = time.perf_counter()
    next(enumerate_tree_masks(g))
    assert time.perf_counter() - start < 0.1


def test_interleaved_enumerators_are_independent():
    g = generate("random-connected", (8, 13), seed=2)
    solo = list(enumerate_tree_masks(g))
    assert len(solo) > 500
    a, b = enumerate_tree_masks(g), enumerate_tree_masks(g)
    got_a, got_b = [], []
    while len(got_a) < len(solo):
        got_a.append(next(a))
        got_b.extend(islice(b, 2))
    got_b.extend(b)
    assert next(a, None) is None
    assert got_a == solo and got_b == solo

    limit = 50
    a, b = enumerate_tree_masks(g, limit), enumerate_tree_masks(g, limit)
    got_a, got_b = [], []
    for _ in range(limit):
        got_b.append(next(b))
        got_a.append(next(a))
    assert got_a == got_b == solo[:limit]
    with pytest.raises(TreeEnumerationOverflow):
        next(b)
    with pytest.raises(TreeEnumerationOverflow):
        next(a)


# ---------------------------------------------------------------------------
# required-internal trees: the union-find passes against the enumeration

def _first_tree(g):
    """Pass 0's tree: graphcore's union-find over every edge in index order."""
    tree = []
    _unite(list(range(g.n + 1)), g._edge_order, tree)
    return tree


def _finder_answer(g, nt):
    """The finder's answer on ``g`` and ``nt``, checked against the full
    enumeration: "tree", "no" or "unknown"."""
    fits = any(leaves is not None for _, leaves in _tree_leaves(g, DEFAULT_TREE_BUDGET, nt))
    found = _required_internal_tree(g, nt)
    if found is None:
        return "unknown"
    if isinstance(found, str):
        assert not fits, (g.edges, nt, found)
        return "no"
    t = SpanningTree(g, frozenset(found))
    assert len(found) == g.n - 1 and not nt & t.leaves, (g.edges, nt)
    assert fits
    return "tree"


def _chain_graph(rng):
    """A seeded small graph whose base edges are chains of 2 or 3 edges."""
    return generate("subdivided", (support.random_connected(rng, rng.randint(2, 5)), rng.randint(2, 3)))


def test_the_finders_first_pass_is_the_first_enumerated_tree():
    rng = random.Random(24)
    for _ in range(200):
        g = support.random_connected(rng, rng.randint(1, 9)) if rng.random() < 0.5 else _chain_graph(rng)
        first = _first_tree(g)
        index = {e: i for i, e in enumerate(g._edge_order)}
        assert sum(1 << index[e] for e in first) == next(enumerate_tree_masks(g))
        # when that tree keeps nt internal, the finder returns it
        nt = frozenset(v for v in g.vertices() if rng.random() < 0.3)
        if not nt & _leaves(g.n, first):
            assert _required_internal_tree(g, nt) == first


def test_the_finder_agrees_with_the_enumeration():
    # every answer agrees with the enumeration, every tree spans and
    # keeps nt internal, and each kind of answer turns up
    rng = random.Random(40)
    answers = {"tree": 0, "no": 0, "unknown": 0}
    for _ in range(600):
        g = support.random_connected(rng, rng.randint(1, 9))
        share = rng.choice([0.2, 0.5, 0.8])
        answers[_finder_answer(g, frozenset(v for v in g.vertices() if rng.random() < share))] += 1
    for _ in range(200):
        g = _chain_graph(rng)
        answers[_finder_answer(g, frozenset(rng.sample(range(1, g.n + 1), rng.randint(1, min(g.n, 4)))))] += 1
    assert min(answers.values()) >= 20, answers


def test_the_finder_decides_forced_cycles_and_degree_one():
    c4 = support.cycle_graph(4)
    assert _required_internal_tree(c4, frozenset({1, 3})) == "the forced edges close a cycle"
    assert _required_internal_tree(support.path_graph(3), frozenset({1})) == "a required vertex has degree 1"
    assert _required_internal_tree(Graph(1, frozenset()), frozenset({1})) == []
    # the bench's no-gadget shape: a and b both adjacent to 1 and 2 only
    g = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (1, 5), (2, 5), (1, 6), (2, 6)])
    assert _required_internal_tree(g, frozenset({5, 6})) == "the forced edges close a cycle"


def test_the_search_charges_the_passes_second_tree_to_the_budget(monkeypatch):
    # C4 on 1-2-4-3 plus (1, 4), with 1 and 4 required: the passes leave
    # it open, and the first fitting tree is the 4th enumerated
    g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    nt = frozenset({1, 4})
    assert _required_internal_tree(g, nt) is None
    assert _tree_search(g, 0, nt, 4) is None
    assert _tree_search(g, 0, nt, 5) == [(1, 2), (1, 4), (3, 4)]
    # under a budget of one tree the passes do not run; under two they do
    p3 = support.path_graph(3)
    calls = _spy(monkeypatch, "_required_internal_tree", blackbox)
    assert _tree_search(p3, 0, frozenset({2}), 1) == [(1, 2), (2, 3)]
    assert calls == []
    assert _tree_search(p3, 0, frozenset({1}), 1) == "no enumerated tree fits"
    assert calls == []
    assert _tree_search(p3, 0, frozenset({1}), 2) == "a required vertex has degree 1"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# leaf augmentation

def c8_with_chord():
    edges = set(support.cycle_graph(8).edges)
    edges.add((4, 8))
    return Graph(8, frozenset(edges))


def _exchanged(t, path, v, w):
    """The tree ``t`` with ``vw`` swapped in for the edge augment_leaf drops."""
    return SpanningTree(t.host, t.edges - {augment_leaf(t, path, v, w)} | {_norm_edge(v, w)})


def test_augment_pin_on_chorded_cycle():
    g = c8_with_chord()
    t = SpanningTree(g, frozenset((i, i + 1) for i in range(1, 8)))
    assert t.leaves == frozenset({1, 8})
    (path,) = maximal_degree2_paths(support.tree_graph(t))
    assert augment_leaf(t, path, 4, 8) == (6, 7)
    t2 = _exchanged(t, path, 4, 8)
    assert t2.edges == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 8), (7, 8)}
    )
    assert t2.leaves == frozenset({1, 6, 7})


# augment_leaf checks none of its input; the three tests below pin that
# growth's move, its one source, meets the precondition on each count

def test_augment_validation():
    # v is strictly internal, and vw is a host edge that the tree lacks:
    # of the interior vertices 4 and 5 only 4 has a non-tree edge, (4,8)
    g = c8_with_chord()
    t = SpanningTree(g, frozenset((i, i + 1) for i in range(1, 8)))
    (path,) = maximal_degree2_paths(support.tree_graph(t))
    path_, v, w = _Growth(t, frozenset()).move()
    assert (path_, v, w) == (path, 4, 8)
    assert v in path[3 : len(path) - 3]
    assert _norm_edge(v, w) in g.edges - t.edges


def test_augment_rejects_a_malformed_path():
    # a tree edge (4,8) gives vertex 4 tree degree 3: no degree-2-path of
    # the tree reaches length 6, so growth offers none
    g = c8_with_chord()
    t = SpanningTree(g, frozenset((i, i + 1) for i in range(1, 7)) | {(4, 8)})
    assert _Growth(t, frozenset()).move() is None
    # every path growth offers is open, has distinct vertices, steps
    # along tree edges and has tree degree 2 inside
    moves = 0
    for _, nt, growth in _growth_steps():
        if (move := growth.move()) is None:
            continue
        path, adj = move[0], growth.adjacency
        assert len(set(path)) == len(path) and path[0] != path[-1]
        assert all(b in adj[a] for a, b in zip(path, path[1:]))
        assert all(len(adj[x]) == 2 and x not in nt for x in path[1:-1])
        moves += 1
    assert moves > 0


def test_augment_needs_long_path():
    g = support.cycle_graph(5)
    t = arbitrary_spanning_tree(g)
    (path,) = maximal_degree2_paths(support.tree_graph(t))
    assert len(path) - 1 < 6 and _Growth(t, frozenset()).move() is None
    # chords give every interior vertex a non-tree edge: a path of length
    # 5 still offers no exchange, one of length 6 does, at its middle
    for n, expected in [(6, None), (7, 4)]:
        g = Graph(n, support.cycle_graph(n).edges | {(i, i + 2) for i in range(1, n - 1)})
        t = SpanningTree(g, frozenset((i, i + 1) for i in range(1, n)))
        move = _Growth(t, frozenset()).move()
        assert (move and move[1]) == expected


def test_augment_accepts_only_a_strictly_internal_vertex():
    # v must sit at positions 3..length-3: on a path of length 6 that is
    # the one middle vertex
    n = 10
    g = Graph(n, support.cycle_graph(n).edges | {(4, n), (5, n), (6, n)})
    t = SpanningTree(g, frozenset((i, i + 1) for i in range(1, n)))
    (path,) = maximal_degree2_paths(support.tree_graph(t))
    short = path[:7]
    assert len(short) - 1 == 6 and short[3:4] == (4,)
    assert _exchanged(t, short, 4, n).leaf_count > t.leaf_count


def _reference_drop(t, vs, v, w):
    """The edge augment_leaf drops, with w's place read off breadth-first
    parents from the path start: w lies below v when v is on w's way up."""
    r = len(vs) - 1
    parent = _bfs_parents(t.adjacency, vs[0])
    pos = {x: i for i, x in enumerate(vs)}
    x, below = w, False
    while x != vs[0] and not below:
        x = parent[x]
        below = x == v
    if below:
        j0 = pos.get(w)
        drop = (vs[j0 - 1], vs[j0]) if j0 is not None and j0 < r else (vs[r - 2], vs[r - 1])
    elif w in pos and pos[w] < pos[v]:
        drop = (vs[pos[w]], vs[pos[w] + 1]) if pos[w] >= 1 else (vs[1], vs[2])
    else:
        drop = (vs[1], vs[2])
    return _norm_edge(*drop)


def _hung_tree(rng, size, chain):
    """Edges of a random tree on 0..size whose vertex 0 is where it hangs
    from a path end; with ``chain`` it is a path from 0, so the path
    runs on through degree-2 vertices."""
    return [(rng.randrange(i) if not chain else i - 1, i) for i in range(1, size + 1)]


def _side_search_corpus():
    """(tree, path, v, w) on random trees: a path of length 6..12 with a
    random tree, a chain or nothing hung at each end, and w any vertex
    that is not v nor a tree neighbour of it."""
    rng = random.Random(41)
    for _ in range(400):
        r = rng.randint(6, 12)
        sides = [(rng.choice([0, 0, 1, 2, 5, 12]), rng.random() < 0.3) for _ in range(2)]
        n = r + 1 + sum(size for size, _ in sides)
        labels = rng.sample(range(1, n + 1), n)
        path = labels[: r + 1]
        edges = list(zip(path, path[1:]))
        nxt = r + 1
        for end, (size, chain) in zip((path[0], path[-1]), sides):
            names = [end] + labels[nxt : nxt + size]
            nxt += size
            edges += [(names[a], names[b]) for a, b in _hung_tree(rng, size, chain)]
        v = path[rng.randint(3, r - 3)]
        tree_edges = frozenset(_norm_edge(a, b) for a, b in edges)
        near = {a for e in tree_edges if v in e for a in e}
        w = rng.choice([x for x in range(1, n + 1) if x not in near])
        g = Graph(n, tree_edges | {_norm_edge(v, w)})
        vs = tuple(path) if rng.random() < 0.5 else tuple(reversed(path))
        yield SpanningTree(g, tree_edges), vs, v, w


def test_side_search_drops_the_edge_a_bfs_from_the_path_start_drops():
    placed = set()
    for t, vs, v, w in _side_search_corpus():
        assert augment_leaf(t, vs, v, w) == _reference_drop(t, vs, v, w), (sorted(t.edges), vs, v, w)
        pos = vs.index(w) if w in vs else None
        placed.add("path" if pos is not None else _reference_drop(t, vs, v, w) == _norm_edge(vs[1], vs[2]))
    # w on the path, off it near the start and off it near the far end
    assert placed == {"path", True, False}


def test_augment_gains_a_leaf_on_chorded_cycles():
    # a bare cycle cannot be improved (every tree is a path with both
    # non-tree endpoints outside the strict interior), so add one chord
    for n in (8, 11, 14):
        edges = set(support.cycle_graph(n).edges) | {(4, n)}
        g = Graph(n, frozenset(edges))
        t = SpanningTree(g, frozenset((i, i + 1) for i in range(1, n)))
        (path,) = maximal_degree2_paths(support.tree_graph(t))
        moved = _exchanged(t, path, 4, n)
        assert moved.leaf_count > t.leaf_count
        assert moved.leaves - t.leaves <= set(path[1:-1])


# ---------------------------------------------------------------------------
# leaf growth

def test_grow_reaches_target_on_dense_graph():
    g = generate("min-degree-3", (40,))
    start = arbitrary_spanning_tree(g)
    out = grow_leaves(start, frozenset(), 6)
    assert isinstance(out, SpanningTree)
    assert out.leaf_count >= 6


def test_grow_respects_required_internal_vertices():
    g = generate("min-degree-3", (30,))
    start = arbitrary_spanning_tree(g)
    nt = frozenset(sorted(support.internal_vertices(start))[:2])
    out = grow_leaves(start, nt, 5)
    assert isinstance(out, SpanningTree)
    assert nt <= support.internal_vertices(out)


def test_grow_reports_smallness_on_a_short_cycle():
    g = support.cycle_graph(6)
    start = arbitrary_spanning_tree(g)
    # no tree path is 6 long, so growth stops at the start tree and the
    # shortfall shows in its leaf count
    out = grow_leaves(start, frozenset(), 4)
    assert out == start and out.leaf_count == 2



def _reference_grow(start, nt, target):
    """Growth as a rescan: every maximal degree-2-path of the current
    tree, found afresh before each exchange.  Returns the tree reached
    and the moves made."""
    t, moves = start, []
    while t.leaf_count < target:
        move = _reference_move(t, nt)
        if move is None:
            break
        moves.append(move)
        t = _exchanged(t, *move)
    return t, moves


def _reference_move(t, nt):
    for path in maximal_degree2_paths(support.tree_graph(t), forbidden=nt):
        if len(path) - 1 < 6:
            continue
        for v in path[3 : len(path) - 3]:
            for w in sorted(t.host.neighbors(v)):
                if (min(v, w), max(v, w)) not in t.edges:
                    return path, v, w
    return None


def _dfs_tree(g, rng):
    # a random depth-first tree: long tree paths, unlike the
    # breadth-first one, so growth has many exchanges to make
    root = rng.randint(1, g.n)
    seen, stack, edges = {root}, [root], []
    while stack:
        x = stack[-1]
        fresh = [y for y in sorted(g.neighbors(x)) if y not in seen]
        if not fresh:
            stack.pop()
            continue
        y = rng.choice(fresh)
        seen.add(y)
        edges.append((min(x, y), max(x, y)))
        stack.append(y)
    return SpanningTree(g, frozenset(edges))


def _growth_corpus():
    rng = random.Random(19)
    for i in range(60):
        if i % 3 == 0:
            n = rng.randint(40, 120)
            g = generate("random-connected", (n, rng.randint(n + n // 4, 2 * n)), seed=i)
        elif i % 3 == 1:
            g = generate("subdivided", (generate("random-connected", (rng.randint(20, 40), 50), seed=i), 2))
        else:
            g = generate("min-degree-3", (rng.randint(40, 120),))
        start = _dfs_tree(g, rng) if i % 4 else arbitrary_spanning_tree(g)
        inner = sorted(support.internal_vertices(start))
        nt = frozenset(rng.sample(inner, rng.randint(1, 4))) if i % 2 else frozenset()
        yield g, start, nt
    square = Graph.from_edges(60, [(i, i + 1) for i in range(1, 60)] + [(i, i + 2) for i in range(1, 59)])
    yield square, arbitrary_spanning_tree(square), frozenset({7, 20, 33})


def _spy(monkeypatch, name, module=spantree_module):
    """Record the positional arguments of every call of <module>.<name>,
    spantree's by default."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_grow_matches_a_rescan_and_calls_augment_once_per_exchange(monkeypatch):
    # augment_leaf checks none of its input: at every call the path is a
    # candidate of a fresh scan of the current tree, v is strictly
    # interior to it and vw is a host edge that the tree lacks
    from divtrees import spantree

    calls = []

    def checked(growth, path, v, w, real=spantree.augment_leaf):
        t = _tree_of(growth)
        assert path in _candidates(t.host, maximal_degree2_paths(support.tree_graph(t), forbidden=growth.nt))
        r = len(path) - 1
        assert r >= 6 and v in path[3 : r - 2]
        assert _norm_edge(v, w) in t.host.edges - t.edges
        calls.append((path, v, w))
        return real(growth, path, v, w)

    monkeypatch.setattr(spantree, "augment_leaf", checked)
    for g, start, nt in _growth_corpus():
        for target in (start.leaf_count + 1, start.leaf_count + 3, g.n):
            reached, moves = _reference_grow(start, nt, target)
            calls.clear()
            grown = grow_leaves(start, nt, target)
            assert grown == reached and (grown is start) == (not moves)
            assert calls == moves


def test_growth_walks_each_start_path_once(monkeypatch):
    # growth takes its start paths from the graph scan's walker, which
    # walks a path only through a vertex no earlier walk claimed: the
    # start walks are the tree's paths, each once
    from divtrees import graphcore

    found, walks = [], []
    through, walk = graphcore._path_through, graphcore._walk
    monkeypatch.setattr(graphcore, "_path_through", lambda *args: found.append(through(*args)) or found[-1])
    monkeypatch.setattr(graphcore, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1])
    bench = generate("subdivided", (generate("min-degree-3", (88,)), 8))
    for g, start, nt in [*_growth_corpus(), (bench, arbitrary_spanning_tree(bench), frozenset())]:
        want = support.reference_degree2_paths(support.tree_graph(start), nt)
        found.clear()
        walks.clear()
        _Growth(start, nt)
        assert sorted(found) == want
        # one walk out of the start vertex each way, so each path's
        # vertices once and its start vertex twice
        assert len(walks) == 2 * len(found)
        assert sum(map(len, walks)) == sum(map(len, found)) + len(found)
    # the benchmark's growth instance: 93 paths of 1,104 vertices in all
    assert sum(map(len, found)) == 1104
    assert len(found) == 93


def test_grow_scans_paths_once_and_only_when_growth_is_needed(monkeypatch):
    # the working tree finds its start paths by its own rule, with no
    # graph scan under either module's name for it
    from divtrees import graphcore

    growths = _spy(monkeypatch, "_Growth")
    scans = []
    real = graphcore.maximal_degree2_paths
    for module in (graphcore, spantree_module):
        monkeypatch.setattr(
            module, "maximal_degree2_paths", lambda *a, **k: scans.append(a) or real(*a, **k), raising=False
        )
    g = generate("min-degree-3", (40,))
    start = arbitrary_spanning_tree(g)
    assert grow_leaves(start, frozenset(), start.leaf_count) is start
    assert growths == []
    grown = grow_leaves(start, frozenset(), start.leaf_count + 4)
    assert grown.leaf_count >= start.leaf_count + 4
    assert len(growths) == 1
    assert scans == []


def _relabelled_subdivisions():
    """Seeded subdivided min-degree-3 graphs under a random relabelling,
    each with a depth-first or breadth-first start tree and sometimes a
    required-internal set."""
    rng = random.Random(23)
    for i in range(24):
        base = generate("min-degree-3", (rng.randint(8, 30),))
        h = generate("subdivided", (base, rng.randint(3, 8)))
        perm = rng.sample(range(1, h.n + 1), h.n)
        g = Graph.from_edges(h.n, [(perm[u - 1], perm[v - 1]) for u, v in h.edges])
        start = _dfs_tree(g, rng) if i % 4 else arbitrary_spanning_tree(g)
        nt = frozenset(rng.sample(sorted(support.internal_vertices(start)), 3)) if i % 3 == 0 else frozenset()
        yield g, start, nt


def _growth_steps():
    """The working growth state before each exchange and after the last,
    over both corpora, with its host graph and required-internal set."""
    for g, start, nt in [*_growth_corpus(), *_relabelled_subdivisions()]:
        growth = _Growth(start, nt)
        while True:
            yield g, nt, growth
            if (move := growth.move()) is None:
                break
            growth.exchange(*move)


def _tree_of(growth):
    """The working tree as a checked SpanningTree, its edges read off
    the adjacency."""
    adj = growth.adjacency
    return SpanningTree(growth.host, frozenset((x, y) for x in adj for y in adj[x] if x < y))


def _candidates(g, paths):
    """The paths with a strictly interior vertex (positions 3..r-3)
    that has a non-tree host edge, in the given order."""
    return [vs for vs in paths if any(g.degree(x) >= 3 for x in vs[3 : len(vs) - 3])]


def test_exchanges_carry_the_adjacency_and_leaves_a_fresh_tree_reads():
    # the whole-tree union-find of a fresh SpanningTree is the reference
    # that growth's in-place edits keep a spanning tree
    exchanges = 0
    for g, nt, growth in _growth_steps():
        fresh = _tree_of(growth)
        assert growth.adjacency == fresh.adjacency
        assert growth.leaves == fresh.leaves
        exchanges += growth.move() is not None
    assert exchanges > 270


def test_kept_paths_match_a_rescan_after_every_exchange():
    exchanges = 0
    for g, nt, growth in _growth_steps():
        t = _tree_of(growth)
        assert growth.candidates == _candidates(g, maximal_degree2_paths(support.tree_graph(t), forbidden=nt))
        move = growth.move()
        assert move == _reference_move(t, nt)
        exchanges += move is not None
    assert exchanges > 270


def test_growth_starts_from_the_scan_and_walks_only_w_before_an_edit(monkeypatch):
    # an exchange's a, b and v are interior to its path, so the paths
    # they hold are that path: before the edit only w's are walked
    for g, start, nt in [*_growth_corpus(), *_relabelled_subdivisions()]:
        growth = _Growth(start, nt)
        assert growth.candidates == _candidates(g, maximal_degree2_paths(Graph(g.n, start.edges), nt))
    # drop: the tree edge the exchange about to be made drops; a walk
    # made while it is still in the tree is made before the edit
    real = _Growth._through
    walked, drop = [], None

    def spy(self, x):
        if drop is not None:
            walked.append((x, drop[1] in self.adjacency[drop[0]]))
        return real(self, x)

    monkeypatch.setattr(_Growth, "_through", spy)
    exchanges = 0
    for g, nt, growth in _growth_steps():
        if drop is not None:
            assert [x for x, before in walked if before] == [w]
        walked.clear()
        move, drop = growth.move(), None
        if move is not None:
            drop, w = augment_leaf(growth, *move), move[2]
            exchanges += 1
    assert exchanges > 270


def test_grow_on_the_bench_growth_instance_makes_24_exchanges(monkeypatch):
    # the benchmark's construct-li-grow case reads this count as
    # spantree.augment_leaf.calls.  Growth builds no Graph and runs no
    # search, every exchange edits the working tree, and the tree
    # reached, a spanning tree by construction, runs no union-find
    from divtrees import graphcore

    calls = _spy(monkeypatch, "augment_leaf")
    g = generate("subdivided", (generate("min-degree-3", (88,)), 8))
    start = arbitrary_spanning_tree(g)
    unites = _spy(monkeypatch, "_unite")
    assert start.leaf_count == 48
    # per Graph built or search run, the exchanges made before it
    after = []
    check = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: after.append(len(calls)) or check(self))
    for module in (graphcore, spantree_module):
        real = module._bfs_parents
        monkeypatch.setattr(
            module, "_bfs_parents", lambda adj, root, real=real: after.append(len(calls)) or real(adj, root)
        )
    grown = grow_leaves(start, frozenset(), 72)
    assert grown.leaf_count >= 72
    assert len(calls) == 24
    assert after == []
    assert unites == []
    assert SpanningTree(g, grown.edges) == grown

# ---------------------------------------------------------------------------
# family I/O

def test_tree_and_family_round_trip():
    g = support.complete_graph(4)
    trees = list(enumerate_spanning_trees(g))[:3]
    text = write_family(Family.of(g, trees))
    back = read_edge_set_family(text, g.n)
    assert back == [t.edges for t in trees]


def test_reading_a_family_builds_no_graph(monkeypatch):
    from divtrees import read_graph

    g = generate("min-degree-3", (12,))
    text = write_family(Family.of(g, islice(enumerate_spanning_trees(g), 3)))
    built = []
    check = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(self) or check(self))
    assert len(read_edge_set_family(text, g.n)) == 3
    assert built == []
    read_graph(write_graph(g))
    assert len(built) == 1


def test_family_text_and_json_share_one_sort():
    import json

    from divtrees.cli import _family_text

    g = generate("min-degree-3", (12,))
    trees = list(islice(enumerate_spanning_trees(g), 3))
    family = Family.of(g, trees)
    as_lists = [[list(e) for e in sorted(t.edges)] for t in trees]
    assert _family_text(family) == json.dumps(as_lists, sort_keys=True)
    assert write_family(family) == "".join(write_graph(support.tree_graph(t)) for t in trees)
    for t, edges in zip(trees, json.loads(_family_text(family))):
        assert list(map(tuple, edges)) == t.sorted_edges() == sorted(t.edges)


def test_write_tree_format():
    g = support.cycle_graph(3)
    t = SpanningTree(g, frozenset({(1, 2), (2, 3)}))
    assert write_family(Family.of(g, [t])) == "3 2\n1 2\n2 3\n"


def test_read_family_rejects_bad_blocks():
    from divtrees import GraphFormatError

    with pytest.raises(GraphFormatError):
        read_edge_set_family("{\n", 4)
    with pytest.raises(GraphFormatError):
        read_edge_set_family("4 3\n1 2\n2 3\n", 4)
    # one input per failure mode of read_graph, plus a block on the wrong n
    for text, pattern in [
        ("4 3\n1 2\n2 3\n", "expected 3 edges"),
        ("4 1\n1 5\n", "out of range"),
        ("4 1\n2 2\n", "self-loop"),
        ("4 2\n1 2\n2 1\n", "duplicate"),
        ("4 1\n1 2\n4 3\n1 2\n", "expected 3 edges"),
        ("4\n", "header"),
        ("4 x\n", "integers"),
        ("4 1\n1 x\n", "integers"),
        ("3 1\n1 2\n", "3 vertices, host has 4"),
    ]:
        with pytest.raises(GraphFormatError, match=pattern):
            read_edge_set_family(text, 4)
