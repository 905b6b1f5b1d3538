import random
from itertools import combinations

import pytest
from hypothesis import given

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    InternalInvariantError,
    SpanningTree,
    blackbox,
    enumerate_spanning_trees,
    kernelize_li,
    mist_kernel,
    ntst_kernel,
)
from divtrees.blackbox import _checked_mist, _checked_ntst, _dfs_answer
from divtrees.graphcore import _norm_edge
from divtrees.spantree import DEFAULT_TREE_BUDGET, _required_internal_tree, _tree_leaves


def mist(g, q):
    """The max-internal question as the li pipeline delegates it."""
    return Instance(g, 0, q, 1, 1)


def ntst(g, nt):
    """The non-terminal question as the lnt pipeline delegates it."""
    return InstanceNT(g, frozenset(nt), 0, 1, 1)


# the canonical kernel answers: K2's one spanning tree has two leaves
# and no internal vertex
K2 = Graph(2, frozenset({(1, 2)}))
MIST_YES = mist(K2, 0)
MIST_NO = mist(K2, 2)
NTST_YES = ntst(K2, ())
NTST_NO = ntst(K2, {1, 2})


def test_canonical_instances_decide_themselves():
    assert mist_kernel(MIST_YES) == MIST_YES
    assert mist_kernel(MIST_NO) == MIST_NO
    assert ntst_kernel(NTST_YES) == NTST_YES
    assert ntst_kernel(NTST_NO) == NTST_NO


def test_mist_kernel_small_cases():
    p3 = support.path_graph(3)
    assert mist_kernel(mist(p3, 1)) == MIST_YES
    assert mist_kernel(mist(p3, 2)) == MIST_NO
    assert mist_kernel(mist(p3, 0)) == MIST_YES
    # a kernel reads only the graph and q of the instance it is handed
    assert mist_kernel(Instance(p3, 2, 1, 3, 2)) == MIST_YES
    disconnected = Graph(n=3, edges=frozenset({(1, 2)}))
    assert mist_kernel(mist(disconnected, 1)) == MIST_NO
    # q = 0 short-circuits even when disconnected enumeration would fail
    assert mist_kernel(mist(disconnected, 0)) == MIST_NO


def test_ntst_kernel_small_cases():
    p3 = support.path_graph(3)
    assert ntst_kernel(ntst(p3, {2})) == NTST_YES
    assert ntst_kernel(ntst(p3, {1})) == NTST_NO
    assert ntst_kernel(ntst(p3, ())) == NTST_YES
    assert ntst_kernel(InstanceNT(p3, frozenset({1}), 2, 3, 2)) == NTST_NO
    # every spanning tree of C4 is a path leaving one of the marked pair a leaf
    c4 = support.cycle_graph(4)
    assert ntst_kernel(ntst(c4, {1, 3})) == NTST_NO
    assert ntst_kernel(ntst(c4, {1})) == NTST_YES
    disconnected = Graph(n=3, edges=frozenset({(1, 2)}))
    assert ntst_kernel(ntst(disconnected, ())) == NTST_NO


def test_budget_exhaustion_returns_none():
    c4 = support.cycle_graph(4)
    # negative instances need the full enumeration, so a tight budget
    # must give up rather than guess
    assert mist_kernel(mist(c4, 3), budget=2) is None
    # the diamond (K4 less (3, 4)) with 1, 2 and 3 required has no such
    # tree, and the union-find passes leave it open: vertex 3 forces
    # (1, 3) and (2, 3), which close no cycle, and 4 then hangs off 1
    # or 2, leaving the other a leaf.  The passes build two trees, and
    # the second is charged to the budget: its 8 trees need a budget of 9
    diamond = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert _required_internal_tree(diamond, frozenset({1, 2, 3})) is None
    assert ntst_kernel(ntst(diamond, {1, 2, 3}), budget=8) is None
    assert ntst_kernel(ntst(diamond, {1, 2, 3}), budget=9) == NTST_NO
    # C4 with 1 and 3 required: their forced edges close the cycle, a no
    # that needs no enumeration, so no budget is too tight for it
    assert ntst_kernel(ntst(c4, {1, 3}), budget=2) == NTST_NO
    # an early witness still counts even under the same budget
    assert mist_kernel(mist(c4, 1), budget=2) == MIST_YES
    # K1's one tree is a tree like any other: a budget of none finds it not
    k1 = Graph(1, frozenset())
    assert mist_kernel(mist(k1, 1), budget=0) is None
    assert mist_kernel(mist(k1, 1), budget=1) == MIST_YES


def _k2n(b):
    """K2,b with hubs 1 and 2 and side vertices 3..b+2."""
    return Graph.from_edges(b + 2, [(h, s) for h in (1, 2) for s in range(3, b + 3)])


def test_mist_kernel_stops_at_the_first_fitting_tree():
    # the DFS pass leaves this question open (its tree has 5 internal
    # vertices, its bound is 7), and the first of its enumerated trees
    # with 7 internal vertices is number 820; the DFS tree is charged
    # to the budget, so a budget of 821 finds it and 820 gives up
    g = Graph.from_edges(9, [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 9), (2, 5),
        (2, 6), (2, 9), (3, 4), (4, 6), (5, 6), (5, 7), (5, 8), (5, 9),
    ])
    assert _dfs_answer(g, 7, frozenset()) is None
    assert mist_kernel(mist(g, 7), budget=821) == MIST_YES
    assert mist_kernel(mist(g, 7), budget=820) is None
    # K2,110: the first 110 enumerated trees have two internal vertices
    # and no tree has four, but the DFS pass decides q = 3 and q = 4
    # before any tree is enumerated
    k2 = _k2n(110)
    assert mist_kernel(mist(k2, 3), budget=110) == MIST_YES
    assert mist_kernel(mist(k2, 4), budget=600) == MIST_NO


def _best_internal(g):
    return max(g.n - leaves for _, leaves in _tree_leaves(g, DEFAULT_TREE_BUDGET, frozenset()))


def _small_cover(rng):
    """A seeded K_{a,b}, a <= 3 and n <= 14, relabelled at random, plus up
    to two other edges."""
    a = rng.randint(1, 3)
    n = a + rng.randint(2, {1: 13, 2: 12, 3: 6}[a])
    label = rng.sample(range(1, n + 1), n)
    edges = {_norm_edge(label[h], label[s]) for h in range(a) for s in range(a, n)}
    pool = [e for e in combinations(range(1, n + 1), 2) if e not in edges]
    edges |= set(rng.sample(pool, min(len(pool), rng.randint(0, 2))))
    return Graph(n, frozenset(edges))


def test_the_dfs_pass_agrees_with_the_enumeration():
    # whenever the pass answers, for any q, full enumeration agrees, and
    # each yes is a spanning tree that fits; and it leaves both yes and
    # no questions open for the enumeration
    rng = random.Random(44)
    graphs = [support.random_connected(rng, rng.randint(2, 9)) for _ in range(300)]
    graphs += [_small_cover(rng) for _ in range(40)]
    # the DFS tree runs 6, 3, 1, 2, 4, 5 and 4, 7; greedy adds 1 and 6 to
    # its leaves 5 and 7, and only they neighbor 3, so a bound that took
    # N(I) over the leaves alone would say no to q = 5, which the path
    # 6, 3, 1, 2, 5, 4, 7 meets
    graphs.append(Graph.from_edges(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 5), (4, 7)]))
    open_answers = set()
    for g in graphs:
        best = _best_internal(g)
        for q in range(1, g.n + 1):
            found = _dfs_answer(g, q, frozenset())
            if found is None:
                open_answers.add(best >= q)
            else:
                assert (not isinstance(found, str)) == (best >= q), (g, q)
                if not isinstance(found, str):
                    assert SpanningTree(g, frozenset(found)).internal_count >= q, (g, q)
    assert open_answers == {True, False}
    # a tree that fits q but leaves a vertex of nt a leaf is no yes: in
    # P3 vertex 1 is a leaf of every tree, and vertex 2 of none
    p3 = support.path_graph(3)
    assert _dfs_answer(p3, 1, frozenset({1})) is None
    found = _dfs_answer(p3, 1, frozenset({2}))
    assert not SpanningTree(p3, frozenset(found)).leaves & {2}


@pytest.mark.parametrize("b", [110, 2000])
def test_the_dfs_pass_decides_k2n_with_no_enumeration(monkeypatch, b):
    # the DFS tree from side vertex 3 runs 3, 1, 4, 2 and hangs every
    # other side vertex off hub 2: three internal vertices.  Its other
    # leaves and 3 and 4 are independent, with the hubs as neighbors,
    # so no tree has more than n - b + 2 - 1 = 3
    def refuse(*args):
        raise AssertionError("a tree was enumerated")

    monkeypatch.setattr(blackbox, "_tree_leaves", refuse)
    k2 = _k2n(b)
    assert mist_kernel(mist(k2, 3), budget=1) == MIST_YES
    assert mist_kernel(mist(k2, 4), budget=1) == MIST_NO
    result = kernelize_li(Instance(k2, 1, 4, 1, 1))
    assert result.outcome == "delegated" and result.instance == MIST_NO


def test_output_size_bounds_are_enforced():
    p3 = support.path_graph(3)
    with pytest.raises(InternalInvariantError, match="exceeds its size bound"):
        _checked_mist(mist(p3, 0))
    with pytest.raises(InternalInvariantError, match="exceeds its size bound"):
        _checked_ntst(ntst(support.cycle_graph(4), ()))
    # two non-terminals allow up to 6 vertices
    roomy = ntst(support.cycle_graph(5), {1, 2})
    assert _checked_ntst(roomy) is roomy


@given(g=support.connected_graphs(min_n=2, max_n=7, max_extra=4))
def test_mist_kernel_matches_enumeration(g):
    best = max(t.internal_count for t in enumerate_spanning_trees(g))
    for q in range(0, g.n + 1):
        out = mist_kernel(mist(g, q))
        assert out is not None
        assert (out == MIST_YES) == (best >= q)


@given(g=support.connected_graphs(min_n=2, max_n=7, max_extra=4))
def test_ntst_kernel_matches_enumeration(g):
    trees = list(enumerate_spanning_trees(g))
    for nt in [frozenset(), frozenset({1}), frozenset({1, g.n})]:
        expected = any(nt <= support.internal_vertices(t) for t in trees)
        out = ntst_kernel(ntst(g, nt))
        assert out is not None
        assert (out == NTST_YES) == expected
