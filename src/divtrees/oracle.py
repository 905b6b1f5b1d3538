"""Exhaustive ground-truth solver for the diverse spanning tree problems.

Enumerates spanning trees as edge bitmasks, filters them by the
per-tree constraints, and looks for ``ell`` pairwise far-apart trees as
a clique in the diversity graph (trees adjacent when their symmetric
difference has at least k edges).  Exact within its budgets; returns
``inconclusive`` instead of guessing when a budget runs out.  Intended
for small instances only — this is the referee, not the algorithm.

Trees are edge bitmasks: ``spantree._tree_leaves`` yields each tree
with its leaf count, and the distance of two trees is the popcount of
their xor.  The candidates are ranked most leaves first, then the
lower mask, and the search reads the ranking in order: a greedy pass
stops reading once it holds ell trees, so a leaf count's masks are
sorted only when the reading reaches them.  Past that pass, the
diversity graph is a list of bitset rows, built by one such test per
pair of candidates.  The clique search walks bitset pools in index
order and returns the lexicographically first clique, so witnesses
depend only on the candidate order; its node count (``clique_nodes``)
is the number of vertices it tried.  With more pairs than the node
budget, it runs without rows, filtering the later candidates at each
pick, and counts the pair tests it made instead.

Before the search, a counting bound can answer "no" outright.  Let c_e
be the number of trees of an ell-family holding edge e:

* edge e lies in exactly one tree of c_e (ell - c_e) pairs, so the
  pairwise distances sum to sum_e c_e (ell - c_e), where sum_e c_e =
  ell (n - 1);
* c (ell - c) is concave, so the sum is largest when every c_e is
  floor(ell (n - 1) / m) or one more;
* distances are even, so a yes needs C(ell, 2) * 2 ceil(k/2) in total.

The bound ignores p, q and the required set, which only shrink the
pool, so it is sound for both problems.  It runs only after a complete
enumeration, so ``trees_enumerated`` still counts every spanning tree
and a tree budget still makes the answer ``inconclusive``.  A ``no``
with ``clique_nodes`` 0 came from the bound, the peeling or too few
candidates, not from a search; an ``inconclusive`` one, from those on
a partial pool, or from a node budget below the row-free search's
first filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .graphcore import Instance, InstanceNT, InternalInvariantError
from .spantree import (
    DEFAULT_TREE_BUDGET,
    Family,
    SpanningTree,
    TreeEnumerationOverflow,
    _tree_leaves,
)
from .diversify import verify_family


@dataclass(frozen=True)
class OracleLimits:
    max_trees: int = DEFAULT_TREE_BUDGET
    max_clique_nodes: int = 5_000_000

    def __post_init__(self) -> None:
        if self.max_trees < 1 or self.max_clique_nodes < 1:
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class OracleStats:
    trees_enumerated: int
    clique_nodes: int


@dataclass(frozen=True)
class OracleVerdict:
    answer: str  # yes | no | inconclusive
    witness: Family | None
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


def _diversity_rows(cands: list[int], k: int) -> list[int]:
    """Row i: the bitset of j with ``(cands[i] ^ cands[j]).bit_count() >= k``.

    Each unordered pair is tested once and sets its bit in both rows, so
    i never sits in its own row.
    """
    rows = [0] * len(cands)
    for i, a in enumerate(cands):
        bit = 1 << i
        for j in range(i):
            if (a ^ cands[j]).bit_count() >= k:
                rows[i] |= 1 << j
                rows[j] |= bit
    return rows


def _first_clique(
    adj: list[int], pool: int, ell: int, budget: int
) -> tuple[list[int] | None, int, bool]:
    """The lexicographically first ``ell``-clique inside ``pool``.

    Include-first depth-first search in index order: each level keeps
    the bitset of vertices above its last pick that are adjacent to
    every pick, and a node is one vertex tried.  With two picks left it
    takes the lowest vertex whose forward neighbourhood meets the pool,
    and with one left the lowest pool vertex.  A level stops once its
    pool is too small to finish, which cuts no subtree holding a clique.
    """
    nodes = 0
    chosen: list[int] = []
    pools = [pool]
    while pools:
        pool = pools[-1]
        need = ell - len(chosen)
        if need == 1:
            if pool:
                nodes += 1
                if nodes > budget:
                    return None, nodes, False
                return chosen + [(pool & -pool).bit_length() - 1], nodes, True
        elif need == 2:
            while pool:
                low = pool & -pool
                pool ^= low
                nodes += 1
                if nodes > budget:
                    return None, nodes, False
                v = low.bit_length() - 1
                tail = pool & adj[v]
                if tail:
                    chosen.append(v)
                    pools.append(tail)
                    break
            if pool:  # found a vertex with a forward neighbour
                continue
        elif pool.bit_count() >= need:
            low = pool & -pool
            pools[-1] = pool ^ low
            nodes += 1
            if nodes > budget:
                return None, nodes, False
            v = low.bit_length() - 1
            tail = pool & adj[v]
            if tail.bit_count() >= need - 1:
                chosen.append(v)
                pools.append(tail)
            continue
        pools.pop()
        if chosen:
            chosen.pop()
    return None, nodes, True


def _first_clique_unbuilt(
    cands: list[int], k: int, ell: int, budget: int
) -> tuple[list[int] | None, int, bool]:
    """:func:`_first_clique` on the diversity graph of ``cands`` without
    its rows: each level's pool (highest index first) is the previous
    level's later candidates k-distant from its pick.  The count is of
    pair tests; a filter that would take it past ``budget`` is not run.
    """
    tests = 0
    chosen: list[int] = []
    pools = [list(range(len(cands) - 1, -1, -1))]
    while pools:
        pool = pools[-1]
        if len(pool) < ell - len(chosen):
            pools.pop()
            if chosen:
                chosen.pop()
            continue
        v = pool.pop()
        if len(chosen) == ell - 1:
            return chosen + [v], tests, True
        if tests + len(pool) > budget:
            return None, tests, False
        tests += len(pool)
        chosen.append(v)
        a = cands[v]
        pools.append([w for w in pool if (a ^ cands[w]).bit_count() >= k])
    return None, tests, True


def _find_clique(
    cands: Iterable[int], k: int, ell: int, budget: int
) -> tuple[list[int] | None, int, bool]:
    """Search for ``ell`` pairwise k-distant masks among ``cands``.

    Returns (clique or None, nodes, search exhausted).  A greedy pass
    reads the ranking in order, and stops reading once it holds ell
    masks.  Past it, the diversity graph of the whole ranking is built
    one pair test at a time, vertices that cannot sit in an ell-clique
    are peeled, and the search returns the lexicographically first
    ell-clique by index.  Nodes count the vertices the search tried.  A
    pool with more pairs than the node budget builds no rows, and
    :func:`_first_clique_unbuilt` finds the same clique (peeling removes
    no vertex of any ell-clique), counting pair tests.  Not exhausted
    means the node budget cut the search short, so None is not a proven
    absence.
    """
    # greedy seed: cheap, no adjacency matrix needed
    masks: list[int] = []
    clique: list[int] = []
    for a in cands:
        if all((a ^ masks[j]).bit_count() >= k for j in clique):
            clique.append(len(masks))
            if len(clique) == ell:
                return clique, 0, True
        masks.append(a)
    n = len(masks)
    if n < ell:
        return None, 0, True
    if n * (n - 1) // 2 > budget:
        return _first_clique_unbuilt(masks, k, ell, budget)
    adj = _diversity_rows(masks, k)
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
    return _first_clique(adj, alive, ell, budget)


class _Ranking:
    """The fitting masks in the candidate order: most leaves first, then
    the lower mask.  Holds one bucket of masks per leaf count, most
    leaves first, and sorts a bucket in place only when an iteration
    reaches it, so a search that stops early sorts no later bucket.  Its
    length, which the bench reads as the candidate count, is every
    mask's."""

    def __init__(self, buckets: list[list[int]]) -> None:
        self.buckets = buckets

    def __len__(self) -> int:
        return sum(map(len, self.buckets))

    def __iter__(self) -> Iterator[int]:
        for bucket in self.buckets:
            bucket.sort()
            yield from bucket


def _max_distance_sum(n: int, m: int, ell: int) -> int:
    """The largest sum of pairwise distances over ell spanning trees of
    a connected graph with n vertices and m edges: sum_e c_e (ell - c_e)
    at the balanced split of ell (n - 1) tree edges over the m edges."""
    if m == 0:
        return 0
    lo, hi = divmod(ell * (n - 1), m)
    return hi * (lo + 1) * (ell - lo - 1) + (m - hi) * lo * (ell - lo)


def _decide(
    inst: Instance | InstanceNT, limits: OracleLimits
) -> tuple[str, list[int] | None, OracleStats]:
    """(answer, witness masks, stats).  After a complete enumeration,
    when ell trees cannot reach the distance sum C(ell, 2) * 2 ceil(k/2)
    (``_max_distance_sum``, proved in the module docstring), the answer
    is no without a clique search.  When the tree budget ran out, the
    bound is skipped and the search runs on the partial pool, where
    finding no clique means inconclusive."""
    g, k, ell = inst.graph, inst.k, inst.ell
    if not g.is_connected:
        return "no", None, OracleStats(0, 0)
    n, p, q = g.n, inst.p, inst.q
    seen = 0
    # pairwise distances between distinct trees are even and >= 2, so
    # for k <= 2 (or a single tree) the first ell fitting trees do
    fast = ell == 1 or k <= 2
    first: list[int] = []
    # buckets[L]: the fitting masks with L leaves (unused on the fast path)
    buckets: list[list[int]] = [] if fast else [[] for _ in range(n + 1)]
    complete = True
    try:
        # li reads the required set as empty and lnt reads q as 0
        for mask, leaves in _tree_leaves(g, limits.max_trees, inst.nonterminals):
            seen += 1
            if leaves is None or leaves < p or n - leaves < q:
                continue
            if fast:
                first.append(mask)
                if len(first) == ell:
                    break
            else:
                buckets[leaves].append(mask)
    except TreeEnumerationOverflow:
        complete = False
    stats = OracleStats(seen, 0)
    if fast:
        if len(first) == ell:
            return "yes", first, stats
        return ("no" if complete else "inconclusive"), None, stats
    if complete and _max_distance_sum(n, g.m, ell) < ell * (ell - 1) * ((k + 1) // 2):
        return "no", None, stats
    ranking = _Ranking(buckets[::-1])
    clique, nodes, exhausted = _find_clique(ranking, k, ell, limits.max_clique_nodes)
    stats = OracleStats(seen, nodes)
    if clique is not None:
        masks = list(islice(ranking, clique[-1] + 1))
        return "yes", [masks[i] for i in clique], stats
    if complete and exhausted:
        return "no", None, stats
    return "inconclusive", None, stats


def _solve(inst: Instance | InstanceNT, limits: OracleLimits) -> OracleVerdict:
    answer, masks, stats = _decide(inst, limits)
    witness = None
    if masks is not None:
        g = inst.graph
        witness = Family.of(g, [SpanningTree.from_mask(g, mask) for mask in masks])
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
