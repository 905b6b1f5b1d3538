"""Pluggable subroutine kernels for two delegated spanning-tree problems.

The pipelines hand off their hard cases to external kernels for
max-internal spanning tree (given q, is there a spanning tree with at
least q internal vertices?) and non-terminal spanning tree (is there a
spanning tree keeping every marked vertex internal?).  A kernel takes
the pipeline's own instance, an :class:`Instance` or
:class:`InstanceNT`, reads only its graph and its q or non-terminals,
and returns an instance of the same type asking an equivalent
single-tree question (p = 0, k = ell = 1), or None.  The default
plug-in decides each instance exactly and answers with a tiny
canonical equivalent.  Both kernels, and construct's lnt seed, ask one
search, :func:`_tree_search`, which first puts each question to
structure, in near-linear time:

- a non-terminal question to a few union-find passes, which build a
  tree keeping the marked vertices internal or show that none exists
  (a marked vertex of degree 1, or forced edges that close a cycle);
- a max-internal question to one depth-first tree, which answers yes
  with that tree when it has q internal vertices, and no when a
  counting bound read off its leaves shows that no spanning tree has q
  (:func:`_dfs_answer` writes out why both are sound).

Every question they leave open is decided by bounded tree enumeration,
and when its budget runs out the kernel reports unavailable (None)
instead of guessing.
"""

from __future__ import annotations

from .graphcore import Graph, Instance, InstanceNT, InternalInvariantError, _dfs_parents, _norm_edge
from .spantree import (
    DEFAULT_TREE_BUDGET,
    TreeEnumerationOverflow,
    _degrees,
    _required_internal_tree,
    _tree_leaves,
)


_K2 = Graph(n=2, edges=frozenset({(1, 2)}))


def _checked_mist(out: Instance) -> Instance:
    if out.graph.n > max(2 * out.q, 2):
        raise InternalInvariantError("mist kernel output exceeds its size bound")
    return out


def _checked_ntst(out: InstanceNT) -> InstanceNT:
    if out.graph.n > max(3 * len(out.nonterminals), 2):
        raise InternalInvariantError("ntst kernel output exceeds its size bound")
    return out


# K_2 has a single spanning tree: one edge, two leaves, zero internal
# vertices.  Demanding 0 internals always holds; demanding 2 never does.
_MIST_YES = Instance(_K2, 0, 0, 1, 1)
_MIST_NO = Instance(_K2, 0, 2, 1, 1)
_NTST_YES = InstanceNT(_K2, frozenset(), 0, 1, 1)
_NTST_NO = InstanceNT(_K2, frozenset({1, 2}), 0, 1, 1)


def _dfs_answer(g: Graph, q: int, nt: frozenset[int]) -> list[tuple[int, int]] | str | None:
    """A spanning tree of the connected graph ``g`` (n >= 2) with at
    least ``q`` internal vertices that keeps ``nt`` internal, as its
    edges, or a no, as its reason, when one depth-first tree decides it;
    None leaves the question open.  The tree is rooted at the lowest-id
    vertex of least degree and visits neighbors in id order (graphcore's
    ``_dfs_parents``).

    - Yes, when that tree itself fits: the answer is its edges.
    - No, by counting.  Every non-tree edge joins an ancestor to a
      descendant, so the leaves other than the root are pairwise
      non-adjacent.  Extend them greedily, in id order, to a maximal
      independent set I.  In any spanning tree T, each of the j vertices
      of I internal in T has two or more edges of T, all into N(I).
      Those edges form a forest on j + |N(I)| vertices, so
      2j <= j + |N(I)| - 1, and T has at most n - |I| + |N(I)| - 1
      internal vertices.  Below q, the answer is no.

    Independence makes the bound strong, not sound: for any vertex set
    S, n - |S| + |N(S)| - 1 is at least the bound of S less N(S), an
    independent set.  The root, an ancestor of every vertex, may be
    adjacent to a leaf, so it is left out to keep N(I) small.

    The yes rule is the either/or step of Prieto and Sloper's k-internal
    spanning tree kernel (WADS 2003): a DFS tree with fewer than q
    internal vertices leaves a vertex cover of at most q vertices, its
    internal vertices and root.  The no rule is the counting behind the
    3k kernel of Fomin, Gaspers, Saurabh and Thomasse (JCSS 2013).  Both
    take O(n + m) beside sorting each vertex's neighbors once.
    """
    adj = g.adjacency
    root = min(g.vertices(), key=lambda v: len(adj[v]))
    parent = _dfs_parents(adj, root)
    tree = [_norm_edge(v, u) for v, u in parent.items() if v != u]
    degree = _degrees(g.n, tree)
    internal = {v for v, d in degree.items() if d >= 2}
    if len(internal) >= q and nt <= internal:
        return tree
    chosen = {v for v, d in degree.items() if d == 1 and v != root}
    for v in g.vertices():
        if v not in chosen and chosen.isdisjoint(adj[v]):
            chosen.add(v)
    hood = set().union(*(adj[v] for v in chosen))
    if g.n - len(chosen) + len(hood) - 1 < q:
        return "the depth-first tree's leaves bound every tree below q"
    return None


def _tree_search(g: Graph, q: int, nt: frozenset[int], budget: int) -> list[tuple[int, int]] | str | None:
    """A spanning tree of the connected graph ``g`` with at least ``q``
    internal vertices that keeps every vertex of ``nt`` internal, as its
    edges; a no, as its reason; or None when ``budget`` trees ran out
    first.

    Structure answers first, and is charged one tree when it leaves the
    question open.  With q > 0 that is :func:`_dfs_answer`'s one
    depth-first tree, when n >= 2 and the budget allows a tree.  With
    q = 0 it is spantree's ``_required_internal_tree``, when the budget
    allows the two trees its passes build at most: the enumeration's
    first, which the enumeration would count again, and one more.  The
    answer to a question structure leaves open is the first tree
    :func:`_tree_leaves` yields that fits.
    """
    if (q > 0 and g.n >= 2 and budget >= 1) or (q == 0 and budget >= 2):
        found = _dfs_answer(g, q, nt) if q > 0 else _required_internal_tree(g, nt)
        if found is not None:
            return found
        budget -= 1
    try:
        trees = _tree_leaves(g, budget, nt)
        mask = next((m for m, leaves in trees if leaves is not None and g.n - leaves >= q), None)
    except TreeEnumerationOverflow:
        return None
    if mask is None:
        return "no enumerated tree fits"
    return [e for i, e in enumerate(g._edge_order) if mask >> i & 1]


def _tree_exists(g: Graph, q: int, nt: frozenset[int], budget: int) -> bool | None:
    """Does a spanning tree of ``g`` have at least ``q`` internal
    vertices and every vertex of ``nt`` internal?  None when ``budget``
    trees ran out before an answer: the kernels' yes or no reading of
    :func:`_tree_search`."""
    if not g.is_connected:
        return False
    if q == 0 and not nt:
        # every tree fits.  Outside the search this stays O(1): 6 of the
        # 82 bench calls (reduce-large li delegations, kernels of n = 308,
        # 616 and 1,232) reach mist_kernel with q = 0, and the search's
        # union-find passes would spend a pass over the edges on each
        return True
    found = _tree_search(g, q, nt, budget)
    return None if found is None else not isinstance(found, str)


def mist_kernel(inst: Instance, budget: int = DEFAULT_TREE_BUDGET) -> Instance | None:
    """Reduce the max-internal spanning tree question of ``inst`` (its
    graph and q) to a canonical 2-vertex equivalent by deciding it
    outright.

    One depth-first tree answers first (:func:`_dfs_answer`): yes when
    it has q internal vertices, no when its leaves bound every tree
    below q.  Only a question it leaves open is enumerated.

    ``budget`` caps the number of spanning trees examined, the
    depth-first one included; exceeding it returns None (unavailable)
    unless a witness already turned up.
    """
    found = _tree_exists(inst.graph, inst.q, frozenset(), budget)
    return None if found is None else _checked_mist(_MIST_YES if found else _MIST_NO)


def ntst_kernel(inst: InstanceNT, budget: int = DEFAULT_TREE_BUDGET) -> InstanceNT | None:
    """Reduce the non-terminal spanning tree question of ``inst`` (its
    graph and non-terminals) to a canonical 2-vertex equivalent by
    deciding it outright.

    Same budget semantics as :func:`mist_kernel`.
    """
    found = _tree_exists(inst.graph, 0, inst.nonterminals, budget)
    return None if found is None else _checked_ntst(_NTST_YES if found else _NTST_NO)
