import pytest
from hypothesis import given

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    InternalInvariantError,
    enumerate_spanning_trees,
    mist_kernel,
    ntst_kernel,
)
from divtrees.blackbox import _checked_mist, _checked_ntst
from divtrees.spantree import _required_internal_tree


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


def test_mist_kernel_stops_at_the_first_fitting_tree():
    # K2,110 with hubs 1 and 2: the first 110 trees are the star on hub
    # 1 plus one edge (2, s), so hub 2 is a leaf and only hub 1 and s
    # are internal.  Tree 111, the first to leave out (1, 112), joins 2
    # through side vertex 3 and hangs 112 off it: three internal
    # vertices.  No tree has four (two hubs plus one side vertex).
    g = Graph.from_edges(112, [(h, s) for h in (1, 2) for s in range(3, 113)])
    assert mist_kernel(mist(g, 3), budget=111) == MIST_YES
    assert mist_kernel(mist(g, 3), budget=110) is None
    assert mist_kernel(mist(g, 4), budget=600) is None


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
