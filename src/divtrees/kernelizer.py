"""Kernelization pipelines for the two diverse spanning tree problems.

Both problems run one pipeline: reject degenerate inputs, prune the
instance with local reduction rules (contract long induced paths, drop
redundant pendants, reset parameters that pendant counting already
satisfies), then either certify the answer, shrink the instance below
an explicit size threshold, or hand the residual single-tree question
to a pluggable subroutine kernel.  One record per problem
(``_VARIANTS``) names each rule by its role: contraction, twin-pendant
deletion (li only), reset, sweep (delete any pendant in case 1) and
the two thresholds with their guards and bounds, plus whether a large
case-1 instance is a yes outright.  The pipeline, :func:`apply_rule`
and :func:`replay` all read rule ids from it.  The subroutine kernel
takes and returns the pipeline's own instance type.  The lnt problem
has no internal count, so q reads as 0 there and the q-specific steps
(R1's decrement, PC-q) never fire.

Every firing is logged as a :class:`RuleApplication`, which
:data:`JSON_ENCODER` writes as its fields; replaying the transcript
from the input instance reproduces the pipeline's final instance
exactly, which is the backbone of the safety test harness.
One edit state applies every contraction and deletion, for a whole
run from the input to the kernel, :func:`apply_rule` and :func:`replay`
alike: the input's degree-2 paths are scanned once, a pendant pass
contracts each long path the moment a deletion opens it, on the same
state, and the graph is rebuilt once, not per step or per pass.
Replay re-derives every entry it replays.

Rule ids: R1-R6 belong to the leaf/internal pipeline (contract, twin
pendant, pendant-count reset, pendant delete, and the two size
thresholds), R7-R9 plus R5nt/R6nt to the leaf/non-terminal pipeline.
Pre-checks (disconnected, tree, infeasible parameters, pendant
required-internal vertex) get "PC-*" entries.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import ceil
from typing import Callable

from .blackbox import mist_kernel, ntst_kernel
from .diversify import construct_family, verify_family
from .graphcore import (
    Graph,
    Instance,
    InstanceNT,
    InternalInvariantError,
    _adjacency,
    _compact_renaming,
    _path_through,
    maximal_degree2_paths,
    pendant_vertices,
)
from .spantree import Family, SpanningTree


# a plain record, not frozen: a run builds one per rule firing, and a
# frozen one takes 1.6 us to build against 0.5 us (timeit, Python 3.11)
@dataclass
class RuleApplication:
    """One rule firing: what fired, where, and how the parameters moved.

    Mutation entries carry enough to replay exactly: a contraction
    stores its (keep, drop) pair and a deletion its removed vertex, in
    ids current at application time.  The old-to-new id map follows
    from ``n_before`` and those fields, so it is not serialized: ids
    above the removed (or dropped) vertex shift down by one, a
    contraction's ``drop`` maps to ``keep``'s new id, and every other
    id stays put.  Decision entries (pre-checks and size thresholds)
    mutate nothing and only record the verdict taken.
    """

    rule: str
    n_before: int
    touched: tuple[int, ...] = ()
    p_delta: int = 0
    q_delta: int = 0
    nt_removed: tuple[int, ...] = ()
    removed_vertex: int | None = None
    merged_edge: tuple[int, int] | None = None
    decision: str | None = None

    def renaming(self) -> dict[int, int]:
        """Old-id to new-id map for this entry; identity for decisions."""
        if self.merged_edge is not None:
            keep, drop = self.merged_edge
            out = _compact_renaming(self.n_before, drop)
            out[drop] = out[keep]
            return out
        if self.removed_vertex is not None:
            return _compact_renaming(self.n_before, self.removed_vertex)
        return {v: v for v in range(1, self.n_before + 1)}


# The runtime's one JSON serializer: key-sorted, one line, default
# separators; without indent, json runs its C encoder.  A record is
# written as its fields (default=vars) and a tuple as an array; the
# to_json_dict methods are the custom forms and return what it writes.
# check_circular=False skips the encoder's bookkeeping of every container
# it enters and changes no byte: each payload is a fresh tree of dicts,
# lists, tuples and flat records, built for one write, so none holds itself.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, default=vars, check_circular=False)


def transcript_to_ndjson(transcript: tuple[RuleApplication, ...] | list[RuleApplication] | str) -> str:
    """One JSON line per entry, each its own ``JSON_ENCODER`` text.

    Given the transcript's array text (``JSON_ENCODER.encode`` of the
    transcript) instead, the lines are cut from it with no second
    encoding: an entry is a flat record of ints, int arrays, null and
    fixed strings, so ``}, {`` occurs only between entries.
    """
    text = transcript if isinstance(transcript, str) else JSON_ENCODER.encode(transcript)
    return "" if text == "[]" else text[1:-1].replace("}, {", "}\n{") + "\n"


@dataclass(frozen=True)
class KernelResult:
    """Outcome of a kernelization run plus its full audit trail.

    ``instance`` holds the reduced instance for reduced and delegated
    outcomes; for delegated_unavailable it is the pre-delegation
    instance (size bound not guaranteed).  ``final_instance`` is the
    state after the last transcript mutation — transcript replay must
    reproduce it.
    """

    outcome: str  # reduced | trivial_yes | trivial_no | delegated | delegated_unavailable
    transcript: tuple[RuleApplication, ...]
    final_instance: Instance | InstanceNT
    instance: Instance | InstanceNT | None = None
    witness: Family | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        """The outcome, reason and instances; a payload's writer adds the
        transcript and the witness, each as the text it encodes once."""
        return {
            "outcome": self.outcome,
            "instance": self.instance.to_json_dict() if self.instance else None,
            "reason": self.reason,
            "final_instance": self.final_instance.to_json_dict(),
        }


# size thresholds; an instance strictly below its bound is already a kernel

def case1_bound_li(k: int, ell: int) -> int:
    return 4 * ceil(k / 4) * ell * (ell + 6)


def case2_bound_li(p: int, q: int, k: int, ell: int) -> int:
    return (2 * (max(p, q) + 2 * ceil(k / 4) * ell) + q) * (ell + 6)


def case1_bound_lnt(nt_size: int, k: int, ell: int) -> int:
    return (4 * ceil(k / 4) * ell + 5 * nt_size) * (ell + 6)


def case2_bound_lnt(nt_size: int, p: int, k: int, ell: int) -> int:
    return (4 * ceil(k / 4) * ell + 2 * p + 5 * nt_size) * (ell + 6)


@dataclass(frozen=True)
class _Variant:
    """One problem's rules, each named by its role in the pipeline."""

    contraction: str  # shorten a long degree-2 path
    twin: str | None  # delete a pendant whose host has another (li only)
    reset: str  # zero a target p or q that the pendant count meets
    sweep: str  # case 1: delete any pendant
    # (rule, guard text, size bound) of case 1 (p = q = 0) and case 2
    thresholds: tuple[tuple[str, str, Callable], tuple[str, str, Callable]]
    # case 1 above its threshold: yes outright (li) or delegate (lnt)
    large_is_yes: bool

    def rules(self) -> tuple[str, ...]:
        roles = self.contraction, self.twin, self.reset, self.sweep
        return *filter(None, roles), *(t[0] for t in self.thresholds)


_VARIANTS = {
    Instance: _Variant(
        contraction="R1", twin="R2", reset="R3", sweep="R4",
        thresholds=(
            ("R5", "p = q = 0", lambda i: case1_bound_li(i.k, i.ell)),
            ("R6", "max(p, q) > 0", lambda i: case2_bound_li(i.p, i.q, i.k, i.ell)),
        ),
        large_is_yes=True,
    ),
    InstanceNT: _Variant(
        contraction="R7", twin=None, reset="R8", sweep="R9",
        thresholds=(
            ("R5nt", "p = 0", lambda i: case1_bound_lnt(len(i.nonterminals), i.k, i.ell)),
            ("R6nt", "p > 0", lambda i: case2_bound_lnt(len(i.nonterminals), i.p, i.k, i.ell)),
        ),
        large_is_yes=False,
    ),
}


class _Edit:
    """An instance under a run of contractions and pendant deletions.

    The one place a contraction, deletion or reset is applied, by a
    reduction run, by :func:`apply_rule` and by :func:`replay`.  The
    adjacency, sets that ``graphcore._adjacency`` builds from the
    input's edges, and the required set are kept in starting ids, so a
    step touches only its own vertices.  ``live`` holds the surviving
    starting ids in order: a vertex's current id is its rank there, and
    current id ``c`` is starting id ``live[c - 1]``.  Each step checks
    that it is well formed, decides its parameter spend and returns its
    transcript entry, under the rule id of its role in the instance's
    variant; :meth:`instance` rebuilds the graph once at the end,
    through one rank map.
    """

    def __init__(self, inst: Instance | InstanceNT) -> None:
        self.start = inst
        self.variant = _VARIANTS[type(inst)]
        self.live = list(inst.graph.vertices())
        self.adj = _adjacency(self.live, inst.graph.edges)
        self.p, self.q = inst.p, inst.q
        self.nt = set(inst.nonterminals)

    def cur(self, v: int) -> int:
        return bisect_left(self.live, v) + 1

    def starting_id(self, c: int) -> int:
        if not 1 <= c <= len(self.live):
            raise ValueError(f"vertex {c} out of range 1..{len(self.live)}")
        return self.live[c - 1]

    def contract(self, keep: int, drop: int) -> RuleApplication:
        """Merge ``drop`` into its neighbour ``keep``; R1 spends one unit of q."""
        adj, pair = self.adj, (self.cur(keep), self.cur(drop))
        if drop not in adj[keep]:
            raise ValueError(f"{pair} is not an edge")
        if not adj[keep].isdisjoint(adj[drop]):
            raise ValueError(f"contracting {pair} would create a parallel edge")
        if keep in self.nt or drop in self.nt:
            raise ValueError(f"contracting {pair} merges a required-internal vertex")
        qd = -1 if self.q > 0 else 0
        entry = RuleApplication(
            self.variant.contraction, len(self.live), touched=pair, q_delta=qd, merged_edge=pair
        )
        adj[keep].discard(drop)
        for x in adj.pop(drop) - {keep}:
            adj[x].discard(drop)
            adj[x].add(keep)
            adj[keep].add(x)
        self.q += qd
        del self.live[pair[1] - 1]
        return entry

    def delete(self, v: int, twin: bool) -> RuleApplication:
        """Delete the pendant ``v`` by the twin rule or the sweep; the
        twin rule (R2) spends one unit of p, and the pendant's host
        leaves the required set (R9)."""
        adj, c = self.adj, self.cur(v)
        if len(adj[v]) != 1:
            raise ValueError(f"vertex {c} is not a pendant")
        (u,) = adj.pop(v)
        adj[u].discard(v)
        h = self.cur(u)
        pd = -1 if twin and self.p > 0 else 0
        rule = self.variant.twin if twin else self.variant.sweep
        released = (h,) if u in self.nt else ()
        entry = RuleApplication(
            rule, len(self.live), (c, h), p_delta=pd, nt_removed=released, removed_vertex=c
        )
        self.nt.discard(u)
        self.p += pd
        del self.live[c - 1]
        return entry

    def reset(self) -> RuleApplication | None:
        """R3 (li) or R8 (lnt, where q is 0): every spanning tree keeps
        the pendants as leaves, so a positive target p or q that their
        count meets drops to 0.  None when neither does."""
        h = sum(len(nbrs) == 1 for nbrs in self.adj.values())
        pd = -self.p if 0 < self.p <= h else 0
        qd = -self.q if 0 < self.q <= h else 0
        if not (pd or qd):
            return None
        self.p, self.q = self.p + pd, self.q + qd
        return RuleApplication(self.variant.reset, len(self.live), p_delta=pd, q_delta=qd)

    def instance(self) -> Instance | InstanceNT:
        rank = {v: c for c, v in enumerate(self.live, 1)}
        edges = frozenset(
            [(rank[u], rank[v]) for u, nbrs in self.adj.items() for v in nbrs if u < v]
        )
        return self.on(Graph(len(self.live), edges), frozenset(map(rank.__getitem__, self.nt)))

    def on(self, g: Graph, nt: frozenset[int]) -> Instance | InstanceNT:
        """The current parameters on the graph ``g`` with required set ``nt``."""
        inst = self.start
        if isinstance(inst, InstanceNT):
            return InstanceNT(g, nt, self.p, inst.k, inst.ell)
        return Instance(g, self.p, self.q, inst.k, inst.ell)


def apply_rule(
    inst: Instance | InstanceNT, rule: str
) -> tuple[Instance | InstanceNT, RuleApplication]:
    """Fire one reduction rule at its lowest canonical location.

    Returns the successor instance and the transcript entry; raises
    ValueError when the rule's guard does not hold.  The rule's role in
    its variant picks the step; a threshold mutates nothing, builds no
    edit state and records a "reduced"/"large" decision.
    """
    variant = _VARIANTS[type(inst)]
    if rule not in variant.rules():
        if all(rule not in v.rules() for v in _VARIANTS.values()):
            raise ValueError(f"unknown rule {rule!r}")
        raise ValueError(f"{rule} does not apply to this problem variant")
    g = inst.graph
    if not g.is_connected:
        raise ValueError(f"{rule} guard: graph must be connected")
    for case1, (name, needs, bound) in zip((True, False), variant.thresholds):
        if rule == name:
            if (inst.p == inst.q == 0) != case1:
                raise ValueError(f"{rule} guard: needs {needs}")
            small = g.n < bound(inst)
            return inst, RuleApplication(rule, g.n, decision="reduced" if small else "large")

    lnt = isinstance(inst, InstanceNT)
    edit = _Edit(inst)
    if rule == variant.reset:
        entry = edit.reset()
        if entry is None:
            why = "below p, or p already 0" if lnt else "resets neither p nor q"
            raise ValueError(f"{rule} guard: pendant count {why}")
        return edit.on(g, inst.nonterminals), entry
    if rule == variant.contraction:
        paths = maximal_degree2_paths(g, inst.nonterminals)
        path = next((vs for vs in paths if len(vs) - 1 >= inst.ell + 3), None)
        if path is None:
            clear = " clear of the required-internal set" if lnt else ""
            raise ValueError(f"{rule} guard: no degree-2-path of length >= ell+3{clear}")
        entry = edit.contract(path[1], path[2])
    elif rule == variant.twin:
        # counted here, apart from the pendant pass's heap
        host = {v: min(g.neighbors(v)) for v in pendant_vertices(g)}
        count = Counter(host.values())
        twins = [v for v, w in host.items() if count[w] >= 2]
        if not twins:
            raise ValueError(f"{rule} guard: no two pendants share a neighbor")
        entry = edit.delete(min(twins), twin=True)
    else:  # the sweep
        if inst.p or inst.q:
            raise ValueError(f"{rule} guard: needs {variant.thresholds[0][1]}")
        pend = pendant_vertices(g)
        if not pend:
            raise ValueError(f"{rule} guard: no pendant vertex")
        if pend & inst.nonterminals:
            raise ValueError(f"{rule} guard: a required-internal vertex is pendant")
        entry = edit.delete(min(pend), twin=False)
    return edit.instance(), entry


def _exhaust_contractions(
    edit: _Edit, paths: list[tuple[int, ...]], transcript: list[RuleApplication]
) -> None:
    """Contract the degree-2-paths ``paths`` to exhaustion (R1 or R7).

    ``paths`` are canonically oriented and sorted in starting ids, which
    order as current ids do.  A path ``vs`` of at least ell+3 edges
    keeps ell+2: ``vs[2], vs[3], ...`` merge into ``vs[1]`` one at a
    time.  Behaves exactly like firing the rule repeatedly at the
    lowest canonical location: contracting an interior edge never
    disturbs another maximal path, and it keeps the path's endpoints
    and ``vs[1]``, so the path keeps its orientation, open or closed.
    Two maximal paths have disjoint interiors, so ``P < Q`` is decided
    at ``P[0]`` or ``P[1]``, and the contracted path stays below every
    other pending path.
    """
    ell = edit.start.ell
    for vs in paths:
        # r = len(vs) - 1 edges: drop vs[2..r-ell-1], none when r < ell + 3
        for drop in vs[2 : max(2, len(vs) - 1 - ell)]:
            transcript.append(edit.contract(vs[1], drop))


def _exhaust_pendant_deletions(
    edit: _Edit, sweep: bool, transcript: list[RuleApplication]
) -> None:
    """Delete pendants to exhaustion by the variant's twin rule and, when
    ``sweep``, its sweep, contracting every long path a deletion opens.

    The twin rule (R2, li only) deletes the lowest pendant sharing its
    host with another pendant; the sweep (R4, R9), below it in
    priority, deletes the lowest pendant of all.  Sequentially identical
    to firing the rules one at a time with the contraction rule at
    higher priority.  Pendants are read off ``edit.adj``.  Before a
    deletion no long path exists, and a deletion changes only its host
    ``u``'s degree (and, under R9, ``u``'s required status), so the only
    path that can turn long goes through ``u``; it is contracted on the
    spot.  Contraction merges the run ``vs[2..r-ell-1]`` of a path with
    r edges into ``vs[1]``, and ell >= 1, so no dropped vertex is next
    to an endpoint: it is no pendant and no pendant's host, every other
    degree stays put, and the heap picks exactly what a restarted pass
    would.
    """
    twins, adj = edit.variant.twin is not None, edit.adj
    # deletions only lower degrees and contractions keep those of the vertices
    # they leave, so only a starting pendant can be a required-internal pendant
    pendants_of: dict[int, set[int]] = {}
    for v, nbrs in adj.items():
        if len(nbrs) == 1:
            if v in edit.nt:
                raise InternalInvariantError(f"required-internal vertex {v} became pendant")
            pendants_of.setdefault(next(iter(nbrs)), set()).add(v)

    # one lazy min-heap: (0, x) while x is a twin and (1, x) while x is
    # a pendant, so a (1, x) entry surfaces only once no twin is left.
    # An entry is checked when it surfaces, and a pendant is pushed
    # again only when it (re)gains its status
    heap = [(0, x) for xs in pendants_of.values() if len(xs) >= 2 for x in xs] if twins else []
    if sweep:
        heap += [(1, x) for xs in pendants_of.values() for x in xs]
    heapify(heap)
    while heap:
        tier, v = heappop(heap)
        # deleted and merged vertices have left adj.  A K2's last deletion
        # leaves degree 0, which only a direct call of this pass on a tree
        # reaches: _kernelize never does, since deletions and contractions
        # keep m - n fixed and the PC-tree pre-check answers every tree
        if len(adj.get(v, ())) != 1:
            continue
        (u,) = adj[v]
        if not tier and len(pendants_of[u]) < 2:
            continue  # no longer a twin
        pendants_of[u].discard(v)
        if not pendants_of[u]:
            del pendants_of[u]
        pendants_of.pop(v, None)
        transcript.append(edit.delete(v, twin=not tier))
        if len(adj[u]) == 1:
            if sweep:
                heappush(heap, (1, u))
            (w,) = adj[u]
            siblings = pendants_of.setdefault(w, set())
            siblings.add(u)
            if twins and len(siblings) >= 2:
                # on 1 -> 2 both pendants turn eligible; above 2 only u is
                # new, and re-pushing all of them would be quadratic on a star
                for x in siblings if len(siblings) == 2 else (u,):
                    heappush(heap, (0, x))
        if len(adj[u]) == 2 and u not in edit.nt:
            # no long path existed before the deletion, so each side of u
            # was part of a path shorter than ell+3 and walking both costs
            # O(ell); a walk back to u is a short bare cycle (None)
            path = _path_through(adj, edit.nt, u)
            if path is not None and len(path) - 1 >= edit.start.ell + 3:
                _exhaust_contractions(edit, [path], transcript)


def _unreachable_target(inst: Instance | InstanceNT) -> tuple[str, str] | None:
    """The pre-check rule and reason when p or q cannot be met."""
    # non-tree connected graphs have n >= 3, so a tree can have at most
    # n-1 leaves and, having at least 2 leaves, at most n-2 internals
    if inst.p >= inst.graph.n:
        return "PC-p", "p exceeds any possible leaf count"
    if inst.q >= inst.graph.n:
        return "PC-q", "q exceeds any possible internal count"
    return None


def _kernelize(
    inst: Instance | InstanceNT, construct_witness: bool, blackbox: Callable | None
) -> KernelResult:
    """The pipeline both problems share; :data:`_VARIANTS` supplies the
    rules and thresholds."""
    transcript: list[RuleApplication] = []

    def done(outcome: str, current: Instance | InstanceNT, **kw) -> KernelResult:
        return KernelResult(
            outcome=outcome,
            transcript=tuple(transcript),
            final_instance=current,
            **kw,
        )

    def refuse(
        current: Instance | InstanceNT, rule: str, reason: str, touched: tuple[int, ...] = ()
    ) -> KernelResult:
        transcript.append(
            RuleApplication(rule, current.graph.n, touched=touched, decision="no")
        )
        return done("trivial_no", current, reason=reason)

    g = inst.graph
    nt = inst.nonterminals
    if not g.is_connected:
        return refuse(inst, "PC-disconnected", "disconnected graphs have no spanning tree")
    if g.is_tree():
        witness = Family.of(g, [SpanningTree(g, g.edges)])
        if inst.ell != 1 or not verify_family(g, witness, inst.p, inst.q, inst.k, nt=nt).verdict:
            return refuse(
                inst,
                "PC-tree",
                "a tree has exactly one spanning tree and it fails the requirements",
            )
        transcript.append(RuleApplication("PC-tree", g.n, decision="yes"))
        return done("trivial_yes", inst, witness=witness)
    edit = _Edit(inst)  # the run reads the input only through it
    nt_pendants = tuple(sorted(v for v in nt if len(edit.adj[v]) == 1))
    if nt_pendants:
        return refuse(
            inst, "PC-nt-pendant", "a required-internal vertex has degree one", nt_pendants
        )
    unreachable = _unreachable_target(inst)
    if unreachable:
        return refuse(inst, *unreachable)

    variant = edit.variant
    _exhaust_contractions(edit, maximal_degree2_paths(g, nt, adj=edit.adj), transcript)
    if variant.twin is not None:
        _exhaust_pendant_deletions(edit, sweep=False, transcript=transcript)
    reset = edit.reset()
    if reset:
        transcript.append(reset)
    case1 = edit.p == edit.q == 0
    if case1:
        # no second scan: the passes above left no long path clear of
        # the required set, and the reset moves only p and q, which no
        # path's length or contraction guard reads
        _exhaust_pendant_deletions(edit, sweep=True, transcript=transcript)
    # rebuild only when a step removed a vertex: an untouched graph keeps
    # its cached connectivity
    cur = edit.instance() if len(edit.live) < g.n else edit.on(g, nt)
    if not case1:
        # contraction can shrink n below the leftover targets, so re-check
        unreachable = _unreachable_target(cur)
        if unreachable:
            return refuse(cur, *unreachable)
    cur, e = apply_rule(cur, variant.thresholds[not case1][0])
    transcript.append(e)
    if e.decision == "reduced":
        return done("reduced", cur, instance=cur)
    if case1 and variant.large_is_yes:
        if not construct_witness:
            return done("trivial_yes", cur)
        # every pendant is gone after R4, so construction swaps every leaf
        family, reason, _ = construct_family(cur)
        if reason is not None:
            raise InternalInvariantError(f"no family above the size threshold: {reason}")
        return done("trivial_yes", cur, witness=family)
    out = blackbox(cur) if blackbox is not None else None
    if out is None:
        return done(
            "delegated_unavailable",
            cur,
            instance=cur,
            reason="subroutine kernel unavailable within budget",
        )
    return done("delegated", cur, instance=out)


def kernelize_li(
    inst: Instance,
    *,
    construct_witness: bool = False,
    blackbox: Callable[[Instance], Instance | None] | None = mist_kernel,
) -> KernelResult:
    """Kernelize a leaf/internal instance.

    Outcomes: trivial answers for degenerate inputs, a Reduced instance
    below the size threshold of whichever case applied, a TrivialYes
    above the p=q=0 threshold (with a constructed witness family when
    asked), or delegation of the surviving internal-count constraint to
    the plug-in kernel.
    """
    return _kernelize(inst, construct_witness, blackbox)


def kernelize_lnt(
    inst: InstanceNT,
    *,
    blackbox: Callable[[InstanceNT], InstanceNT | None] | None = ntst_kernel,
) -> KernelResult:
    """Kernelize a leaf/non-terminal instance.

    Same pipeline as :func:`kernelize_li`; both parameter cases end
    below their size threshold (Reduced) or delegate the
    required-internal constraint to the plug-in kernel (no trivial-yes
    branch here).
    """
    return _kernelize(inst, False, blackbox)


def kernelize(
    inst: Instance | InstanceNT, *, construct_witness: bool = False, **blackbox
) -> KernelResult:
    """Run the instance's pipeline with ``blackbox`` passed on as given:
    None runs no subroutine kernel and, left out, the default kernel
    runs.  Only li builds a witness; asking for one on lnt is an error."""
    if isinstance(inst, InstanceNT):
        if construct_witness:
            raise ValueError("construct_witness has no meaning for the lnt problem")
        return kernelize_lnt(inst, **blackbox)
    return kernelize_li(inst, construct_witness=construct_witness, **blackbox)


def replay(
    inst: Instance | InstanceNT, transcript: tuple[RuleApplication, ...]
) -> Instance | InstanceNT:
    """Re-apply a transcript's mutations to the starting instance.

    Contractions, deletions and resets are re-applied on one edit state
    and the graph is rebuilt once, so replay costs O(n + m) plus
    O(log n) and one list shift per entry.  Entries are checked
    strictly: ``n_before`` must be the current vertex count, each
    contraction, deletion or reset must be well formed and re-derive
    exactly the recorded entry, rule id and parameter spend included,
    and every other entry must be a decision that moves nothing, or
    ValueError is raised.  The result must equal the producing run's
    final_instance.
    """
    edit = _Edit(inst)
    for e in transcript:
        if e.n_before != len(edit.live):
            raise ValueError(f"{e.rule} entry has n_before {e.n_before}, not {len(edit.live)}")
        if e.merged_edge is not None:
            derived = edit.contract(*map(edit.starting_id, e.merged_edge))
        elif e.removed_vertex is not None:
            twin = e.rule == edit.variant.twin
            derived = edit.delete(edit.starting_id(e.removed_vertex), twin=twin)
        elif e.rule == edit.variant.reset:
            derived = edit.reset()
        elif e.decision is None or e.p_delta or e.q_delta or e.nt_removed:
            raise ValueError(f"{e} records no step and is no decision that moves nothing")
        else:
            continue
        if derived != e:
            raise ValueError(f"{e} does not match the step it records, {derived}")
    return edit.instance()
