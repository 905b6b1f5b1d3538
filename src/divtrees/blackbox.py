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
canonical equivalent.  A non-terminal question is first put to a few
union-find passes, which build a tree keeping the marked vertices
internal or show that none exists (a marked vertex of degree 1, or
forced edges that close a cycle); every question they leave open, and
every max-internal one, is decided by bounded tree enumeration, and
when its budget runs out the kernel reports unavailable (None) instead
of guessing.
"""

from __future__ import annotations

from .graphcore import Graph, Instance, InstanceNT, InternalInvariantError
from .spantree import (
    DEFAULT_TREE_BUDGET,
    TreeEnumerationOverflow,
    _required_internal_search,
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


def _tree_exists(g: Graph, q: int, nt: frozenset[int], budget: int) -> bool | None:
    """Does a spanning tree of ``g`` have at least ``q`` internal
    vertices and every vertex of ``nt`` internal?  None when ``budget``
    trees ran out before a match.  With q = 0 that is the search for a
    tree keeping ``nt`` internal, where a few union-find passes answer
    first and trees are enumerated only when they leave it open."""
    if not g.is_connected:
        return False
    if q == 0:
        if not nt:
            return True
        found = _required_internal_search(g, nt, budget)
        return None if found is None else not isinstance(found, str)
    try:
        trees = _tree_leaves(g, budget, nt)
        return any(leaves is not None and g.n - leaves >= q for _, leaves in trees)
    except TreeEnumerationOverflow:
        return None


def mist_kernel(inst: Instance, budget: int = DEFAULT_TREE_BUDGET) -> Instance | None:
    """Reduce the max-internal spanning tree question of ``inst`` (its
    graph and q) to a canonical 2-vertex equivalent by deciding it
    outright.

    ``budget`` caps the number of spanning trees examined; exceeding it
    returns None (unavailable) unless a witness already turned up.
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
