"""Exhaustive ground-truth solver for the diverse spanning tree problems.

Enumerates spanning trees as edge bitmasks, filters them by the
per-tree constraints, and looks for ``ell`` pairwise far-apart trees as
a clique in the diversity graph (trees adjacent when their symmetric
difference has at least k edges).  Exact within its budgets; returns
``inconclusive`` instead of guessing when a budget runs out.  Intended
for small instances only — this is the referee, not the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import Instance, InstanceNT, InternalInvariantError
from .spantree import (
    SpanningTree,
    TreeEnumerationOverflow,
    count_spanning_trees,
    enumerate_tree_masks,
)
from .diversify import verify_family


@dataclass(frozen=True)
class OracleLimits:
    max_trees: int = 200000
    max_clique_nodes: int = 5_000_000

    def __post_init__(self) -> None:
        if self.max_trees < 1 or self.max_clique_nodes < 1:
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class OracleStats:
    trees_enumerated: int
    clique_nodes: int

    def to_json_dict(self) -> dict:
        return {
            "trees_enumerated": self.trees_enumerated,
            "clique_nodes": self.clique_nodes,
        }


@dataclass(frozen=True)
class OracleVerdict:
    answer: str  # yes | no | inconclusive
    witness: tuple[SpanningTree, ...] | None
    stats: OracleStats

    def __post_init__(self) -> None:
        if self.answer not in ("yes", "no", "inconclusive"):
            raise ValueError(f"unknown answer {self.answer!r}")
        if self.answer == "yes" and self.witness is None:
            raise ValueError("a yes verdict must carry a witness family")


_DEFAULT = OracleLimits()


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _find_clique(
    cands: list[int], k: int, ell: int, budget: int
) -> tuple[list[int] | None, int, bool]:
    """Search for ``ell`` pairwise k-distant masks among ``cands``.

    Returns (clique or None, nodes explored, search exhausted).  The
    caller orders ``cands``; a greedy pass runs first, then
    branch-and-bound over bitset adjacency with core pruning.  Not
    exhausted means the node budget (or the quadratic adjacency guard)
    cut the search short, so None is not a proven absence.
    """
    n = len(cands)
    if n < ell:
        return None, 0, True
    # greedy seed: cheap, no adjacency matrix needed
    clique: list[int] = []
    for i in range(n):
        if all((cands[i] ^ cands[j]).bit_count() >= k for j in clique):
            clique.append(i)
            if len(clique) == ell:
                return clique, 0, True
    if n * (n - 1) // 2 > budget:
        return None, 0, False
    adj = [0] * n
    for i in range(n):
        mi = cands[i]
        for j in range(i + 1, n):
            if (mi ^ cands[j]).bit_count() >= k:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    # peel vertices that cannot sit in an ell-clique
    deg = [a.bit_count() for a in adj]
    alive = (1 << n) - 1
    queue = [i for i in range(n) if deg[i] < ell - 1]
    while queue:
        v = queue.pop()
        if not alive >> v & 1:
            continue
        alive ^= 1 << v
        for u in _bits(adj[v] & alive):
            deg[u] -= 1
            if deg[u] < ell - 1:
                queue.append(u)
    if alive.bit_count() < ell:
        return None, 0, True
    nodes = 0
    stack: list[tuple[tuple[int, ...], int]] = [((), alive)]
    while stack:
        chosen, pool = stack.pop()
        nodes += 1
        if nodes > budget:
            return None, nodes, False
        if len(chosen) == ell:
            return list(chosen), nodes, True
        if len(chosen) + pool.bit_count() < ell:
            continue
        low = pool & -pool
        v = low.bit_length() - 1
        rest = pool ^ low
        stack.append((chosen, rest))
        stack.append((chosen + (v,), rest & adj[v]))
    return None, nodes, True


def _decide(
    inst: Instance | InstanceNT, limits: OracleLimits
) -> tuple[str, list[int] | None, OracleStats]:
    g, p, q, k, ell = inst.graph, inst.p, inst.q, inst.k, inst.ell
    nt = inst.nonterminals
    if not g.is_connected:
        return "no", None, OracleStats(0, 0)
    edges = g.sorted_edges()
    seen = 0
    cands: list[tuple[int, int]] = []  # (leaf count, mask)
    # pairwise distances between distinct trees are even and >= 2, so
    # for k <= 2 (or a single tree) any ell distinct candidates do
    fast = ell == 1 or k <= 2
    complete = True
    try:
        for mask in enumerate_tree_masks(g, limit=limits.max_trees):
            seen += 1
            degrees = [0] * (g.n + 1)
            for i in _bits(mask):
                u, v = edges[i]
                degrees[u] += 1
                degrees[v] += 1
            leaves = sum(1 for d in degrees[1:] if d == 1)
            # li reads nt as empty and lnt reads q as 0
            if leaves >= p and g.n - leaves >= q and all(degrees[v] != 1 for v in nt):
                cands.append((leaves, mask))
                if fast and len(cands) == ell:
                    break
    except TreeEnumerationOverflow:
        complete = False
    stats = OracleStats(seen, 0)
    if fast:
        if len(cands) >= ell:
            return "yes", [m for _, m in cands[:ell]], stats
        return ("no" if complete else "inconclusive"), None, stats
    cands.sort(key=lambda lm: (-lm[0], lm[1]))
    masks = [m for _, m in cands]
    clique, nodes, exhausted = _find_clique(masks, k, ell, limits.max_clique_nodes)
    stats = OracleStats(seen, nodes)
    if clique is not None:
        return "yes", [masks[i] for i in clique], stats
    if complete and exhausted:
        return "no", None, stats
    return "inconclusive", None, stats


def _solve(inst: Instance | InstanceNT, limits: OracleLimits) -> OracleVerdict:
    answer, masks, stats = _decide(inst, limits)
    witness = None
    if masks is not None:
        g, edges = inst.graph, inst.graph.sorted_edges()
        witness = tuple(
            SpanningTree(g, frozenset(edges[i] for i in _bits(mask))) for mask in masks
        )
        report = verify_family(g, witness, inst.p, inst.q, inst.k, nt=inst.nonterminals)
        if not report.verdict:
            raise InternalInvariantError("oracle produced a non-verifying witness")
    return OracleVerdict(answer=answer, witness=witness, stats=stats)


def solve_li(inst: Instance, limits: OracleLimits = _DEFAULT) -> OracleVerdict:
    """Decide whether ``inst.graph`` has ``ell`` pairwise k-diverse
    spanning trees, each with at least p leaves and q internal vertices."""
    return _solve(inst, limits)


def solve_lnt(inst: InstanceNT, limits: OracleLimits = _DEFAULT) -> OracleVerdict:
    """Decide the variant where ``inst.nonterminals`` must be internal
    in every tree and each tree has at least p leaves."""
    return _solve(inst, limits)


def solve(inst: Instance | InstanceNT, limits: OracleLimits = _DEFAULT) -> OracleVerdict:
    if isinstance(inst, InstanceNT):
        return solve_lnt(inst, limits)
    return solve_li(inst, limits)


def equivalent(
    a: Instance | InstanceNT,
    b: Instance | InstanceNT,
    limits: OracleLimits = _DEFAULT,
) -> str:
    """Compare the yes/no status of two instances of the same problem."""
    va = solve(a, limits)
    vb = solve(b, limits)
    if va.answer == "inconclusive" or vb.answer == "inconclusive":
        return "inconclusive"
    return "yes" if va.answer == vb.answer else "no"


def counting_shortcut(inst: Instance | InstanceNT) -> bool | None:
    """Tree-counting answer for the unconstrained k <= 2 special case.

    Distinct spanning trees are automatically 2-diverse, so with no
    per-tree constraints the answer is just "are there ell trees".
    Returns None when the instance has constraints the count ignores.
    """
    if inst.k > 2 or inst.p != 0 or inst.q != 0 or inst.nonterminals:
        return None
    if not inst.graph.is_connected:
        return False
    return count_spanning_trees(inst.graph) >= inst.ell
