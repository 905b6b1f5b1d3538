"""Building pairwise-diverse tree families by leaf edge swaps.

Every chosen leaf v of a spanning tree keeps a designated swap: drop
its tree edge (to tree_neighbor[v]) and pick up a host edge to
swap_target[v] instead.  Applying the swaps of disjoint leaf blocks to
the same base tree yields trees at exactly known pairwise Hamming
distance, built as one ``Family``: the edges they all hold, and each
one's own.  Swap targets are chosen to minimize conflicts (a target
that is itself a chosen leaf).  Lowest-id targets cannot close a
conflict cycle (the proof is in :func:`plan_swaps`), so the conflicts
form a forest and two-colouring it keeps half the leaves as a
conflict-free pool.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import ceil
from typing import Iterable, Sequence

from .blackbox import _tree_search
from .graphcore import Graph, Instance, InstanceNT, _adjacency, _bfs_parents, _norm_edge
from .spantree import (
    DEFAULT_TREE_BUDGET,
    Family,
    SpanningTree,
    _degrees,
    _unite,
    arbitrary_spanning_tree,
    grow_leaves,
)


def _conflict_edges(
    leaves: frozenset[int], target: dict[int, int]
) -> frozenset[tuple[int, int]]:
    out = set()
    for v in leaves:
        u = target[v]
        if u in leaves and u != v:
            out.add(_norm_edge(u, v))
    return frozenset(out)


@dataclass(frozen=True)
class LeafSwapPlan:
    """A swap schedule over a chosen leaf set, as :func:`plan_swaps`
    builds it: each leaf's ``swap_target`` is a host neighbour other
    than its tree neighbour, ``independent`` is one colour class of the
    conflict forest, and ``blocks`` are its first slices, one per
    requested tree, disjoint and all the same size.  Each leaf's tree
    neighbour follows from the tree, so the plan derives it rather than
    storing it.
    """

    tree: SpanningTree
    leaves: frozenset[int]
    swap_target: dict[int, int]
    independent: frozenset[int]
    blocks: tuple[frozenset[int], ...]

    @cached_property
    def tree_neighbor(self) -> dict[int, int]:
        return {v: next(iter(self.tree.adjacency[v])) for v in self.leaves}


def _bfs_depth(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Breadth-first depth of each vertex of the forest ``edges``, roots at 0.

    Each component is rooted at its smallest vertex, so a depth is the
    length of the one path from that root, whatever the visiting order.
    """
    adj = _adjacency(sorted(vertices), edges)
    depth: dict[int, int] = {}
    for root in adj:
        if root not in depth:
            for x, px in _bfs_parents(adj, root).items():
                depth[x] = 0 if x == px else depth[px] + 1
    return depth


def plan_swaps(t: SpanningTree, L: Iterable[int], k: int, ell: int) -> LeafSwapPlan:
    """Choose swap targets for the leaves ``L`` and carve out
    conflict-free blocks, one per requested tree.

    Requires every vertex of ``L`` to be a leaf of ``t`` with host
    degree >= 2, as :func:`construct_family` chooses them, and k, ell
    >= 1, as the instance checks them.  Each target is the lowest-id
    host neighbor other than the leaf's tree neighbor, preferring
    targets outside ``L``.  The conflict
    edges then form a forest.  Each leaf has one target, so a conflict
    cycle of length r >= 3 is a directed cycle v1 -> v2 -> ... -> vr
    -> v1 inside ``L``.  Each vi aims inside ``L``, so all its non-tree
    neighbors lie in ``L`` and its target is the lowest of them.
    v(i-1) is one of those: it is not vi's tree neighbor, since two
    adjacent leaves would mean n = 2.  So v(i+1) < v(i-1) for every i,
    which no cyclic order allows.  Two-coloring the forest keeps at
    least half of ``L``.  With |L| >= 2*ceil(k/4)*ell the blocks always
    fill; smaller pools fail only if the surviving half is too small.
    """
    g = t.host
    if g.n < 3:
        raise ValueError("swap planning needs at least 3 vertices")
    leaves = frozenset(L)
    target: dict[int, int] = {}
    for v in sorted(leaves):
        options = sorted(g.neighbors(v) - t.adjacency[v])
        outside = [u for u in options if u not in leaves]
        target[v] = outside[0] if outside else options[0]

    conflicts = _conflict_edges(leaves, target)

    # two-color the conflict forest by depth parity, roots even
    depth = _bfs_depth(leaves, conflicts)
    even = frozenset(v for v in leaves if depth[v] % 2 == 0)
    odd = leaves - even
    pool = odd if len(odd) > len(even) else even

    block_size = ceil(k / 4)
    need = block_size * ell
    if len(pool) < need:
        raise ValueError(
            f"only {len(pool)} conflict-free leaves, need {need}; "
            f"supply at least {2 * need} leaves to guarantee success"
        )
    chosen = sorted(pool)[:need]
    blocks = tuple(
        frozenset(chosen[i * block_size : (i + 1) * block_size]) for i in range(ell)
    )
    return LeafSwapPlan(
        tree=t, leaves=leaves, swap_target=target, independent=pool, blocks=blocks
    )


def build_diverse_family(plan: LeafSwapPlan) -> Family:
    """One tree per plan block, the plan's tree with the block's swaps
    applied, as a :class:`Family`.

    Distinct blocks touch disjoint leaves and their added edges never
    collide, so two family members differ in exactly two edges per
    involved leaf.  A member is a spanning tree by construction: it
    moves each leaf of its block from its tree edge to a host edge at
    the same leaf, whose target is no leaf of the block (the pool holds
    no conflict edge).  :func:`construct_family` verifies the family.
    With two blocks or more, the core is the plan tree's edges less
    every block's gone edges, and a member owns the other blocks' gone
    edges and its block's added ones: no member is built or sorted.
    """
    t = plan.tree
    gone = [{_norm_edge(v, plan.tree_neighbor[v]) for v in block} for block in plan.blocks]
    added = [{_norm_edge(v, plan.swap_target[v]) for v in block} for block in plan.blocks]
    # every member holds what no block drops and what every block adds,
    # which is something only when there is one block
    every, shared = set().union(*gone), set.intersection(*added)
    core = tuple(sorted(t.edges.difference(every).union(shared)))
    own = [sorted(every.difference(out).union(new).difference(shared)) for out, new in zip(gone, added)]
    return Family(t.host, core, tuple(map(tuple, own)))


def construct_family(
    inst: Instance | InstanceNT, budget: int = DEFAULT_TREE_BUDGET
) -> tuple[Family | None, str | None, FamilyReport | None]:
    """Build a family the constructive way: grow leaves, then swap.

    The seed tree is the breadth-first tree for li.  For lnt it is a
    tree keeping every required vertex internal, searched within
    ``budget`` trees: the one a few union-find passes find (the first
    enumerated tree, when that one fits), and only when they neither
    find one nor rule it out, the first such tree the enumeration
    yields.  The seed goes through :class:`SpanningTree`'s check.
    Returns (family, reason, report); exactly
    one of family and reason is None.  The report is
    :func:`verify_family`'s check of the built family, present whenever
    a family was built; a family that fails it is returned as a reason,
    never as a family.
    """
    g = inst.graph
    k, ell = inst.k, inst.ell
    block = ceil(k / 4)
    if not g.is_connected:
        return None, "graph is disconnected", None
    nt = inst.nonterminals
    if isinstance(inst, InstanceNT):
        found = _tree_search(g, 0, nt, budget)
        if found is None:
            return None, "seed search exhausted its budget", None
        if isinstance(found, str):
            return None, "no spanning tree keeps the required vertices internal", None
        seed = SpanningTree(g, frozenset(found))
    else:
        seed = arbitrary_spanning_tree(g)
    target = max(2 * block * ell + 2 * len(nt), inst.p + block + 2 * len(nt))
    grown = grow_leaves(seed, nt, target)
    if grown.leaf_count < target:
        reason = f"growth stalled at {grown.leaf_count} leaves"
        bound = (2 * target + len(nt)) * (ell + 6)
        if g.n < bound:
            reason += f"; the graph has fewer than {bound} vertices"
        return None, reason, None
    # each vertex of nt keeps two tree neighbours outside the swap pool,
    # so it stays internal in every member
    excluded: set[int] = set()
    for v in sorted(nt):
        excluded.update(sorted(grown.adjacency[v])[:2])
    chosen = frozenset(
        v for v in grown.leaves if v not in excluded and g.degree(v) >= 2
    )
    try:
        plan = plan_swaps(grown, chosen, k, ell)
    except ValueError as exc:
        return None, f"swap planning failed: {exc}", None
    family = build_diverse_family(plan)
    # growth and swaps track p and k only, so q is checked here
    report = verify_family(g, family, inst.p, inst.q, k, nt=nt)
    if len(family) != ell or not report.verdict:
        return None, "the constructed family fails verification", report
    return family, None, report


# ---------------------------------------------------------------------------
# verification

# plain records, not frozen: a frozen one costs five times as much to build
@dataclass
class TreeCheck:
    index: int
    spanning: bool
    leaf_count: int
    internal_count: int
    leaves_ok: bool
    internal_ok: bool
    required_internal_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.spanning
            and self.leaves_ok
            and self.internal_ok
            and self.required_internal_ok
        )


@dataclass
class PairCheck:
    first: int
    second: int
    distance: int
    ok: bool


@dataclass(frozen=True)
class FamilyReport:
    """A family's checks; its JSON form writes each as its fields."""

    trees: tuple[TreeCheck, ...]
    pairs: tuple[PairCheck, ...]

    @property
    def verdict(self) -> bool:
        return all(t.ok for t in self.trees) and all(p.ok for p in self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "trees": self.trees,
            "pairs": self.pairs,
        }


def verify_family(
    g: Graph,
    family: Family | Sequence[SpanningTree | frozenset[tuple[int, int]]],
    p: int,
    q: int,
    k: int,
    nt: frozenset[int] = frozenset(),
) -> FamilyReport:
    """Check a claimed family against every instance constraint.

    Failures become report entries, never exceptions; the verdict is
    the conjunction of all per-tree and per-pair checks.  A list of
    members is read as its :class:`Family`.

    A member spans when its edges are the host's, n - 1 of them, and
    close no cycle.  One degree count runs over the family's core and,
    when some member has n - 1 edges, one union-find, after which each
    vertex points at its root.  Each member then reads only its own
    edges: it spans when they, too, are the host's and close no cycle
    among the roots they join, and its leaves are the core's, corrected
    at their endpoints.  A member that spans covers every vertex, so
    the rest are internal (K1's lone vertex too); one that does not
    counts as internal only the vertices its edges reach more than once.
    """
    fam = family if isinstance(family, Family) else Family.of(g, family)
    n, core = g.n, fam.core
    degree = _degrees(n, core)
    core_leaves = {v for v, d in degree.items() if d == 1}
    nt_leaves = nt & core_leaves
    # each vertex's root in the core's forest, or None when no member can
    # span: none has n - 1 edges, or the core has a foreign edge or a cycle
    root: list[int] | None = None
    if g.edges.issuperset(core) and any(len(core) + len(own) == n - 1 for own in fam.own):
        forest = list(range(n + 1))
        if _unite(forest, core) == 0:
            # each round halves every path to a root
            while (root := [*map(forest.__getitem__, forest)]) != forest:
                forest = root
    trees = []
    for i, own in enumerate(fam.own):
        touched = Counter(chain.from_iterable(own))
        # the core's leaves that own edges touch stop being leaves, and
        # a vertex only own edges reach is one when one edge reaches it
        fresh = [x for x in touched if x not in degree and 1 <= x <= n]
        gained = {x for x in fresh if touched[x] == 1}
        leaves = len(core_leaves) - len(touched.keys() & core_leaves) + len(gained)
        spanning = False
        if root is not None and len(core) + len(own) == n - 1 and g.edges.issuperset(own):
            joins = [(root[u], root[v]) for u, v in own]
            spanning = _unite({x: x for x in chain.from_iterable(joins)}, joins) == 0
        internal = (n if spanning else len(degree) + len(fresh)) - leaves
        nt_ok = not nt & gained and touched.keys() >= nt_leaves
        trees.append(TreeCheck(i, spanning, leaves, internal, leaves >= p, internal >= q, nt_ok))
    # one bit per edge that some member holds and another lacks, foreign
    # edges included, so a pair's distance is the popcount of the xor of
    # its two masks: the core cancels, T_i ^ T_j is own_i ^ own_j
    bit: dict[tuple[int, int], int] = {}
    masks = [sum(1 << bit.setdefault(e, len(bit)) for e in own) for own in fam.own]
    pairs = []
    for i, mask in enumerate(masks):
        for j in range(i + 1, len(masks)):
            d = (mask ^ masks[j]).bit_count()
            pairs.append(PairCheck(i, j, d, d >= k))
    return FamilyReport(trees=tuple(trees), pairs=tuple(pairs))
