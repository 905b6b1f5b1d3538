"""Seeded instance corpora for the three benchmark workloads.

A workload is one round of CLI calls over instance files that this
module generates.  The seed picks a vertex relabelling for every graph
(and the host vertices of the twin-pendant gadgets), so two seeds give
different files for the same questions; the answers are invariant
under relabelling, which is what lets every case carry a pin derived
from how the instance was built rather than from running divtrees.

Each case is a :class:`Case`: the CLI arguments, a pinned expected
result (checked by ``check.py``), and a one-line reason it is in the
corpus.  Arguments use ``{out}`` for the directory the call writes its
outputs to; the worker fills it in per round.  Every workload has an
odd number of cases, so the median latency falls inside one case's
repeats rather than between two cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from divtrees.graphcore import Graph, Instance, InstanceNT, generate, write_instance

# reduction-rule parameters shared by the ladder cases: paths longer
# than ell + 2 = 5 edges are contracted, and both size thresholds sit
# far below every rung
K, ELL = 4, 3
SUBDIVISION = 8
# audit runs at fixed seeds so its 300 random instances are the same
# on every benchmark seed (each is self-checking against the oracle)
AUDIT_SEEDS = {"li": 7, "lnt": 8}
AUDIT_COUNT = 300


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    pin: dict
    why: str
    rung: int | None = None  # position on a doubling ladder of sizes


@dataclass
class Corpus:
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    cases: list[Case] = field(default_factory=list)

    def add_instance(self, name: str, inst: Instance | InstanceNT) -> str:
        path = f"inst/{name}.txt"
        self.files[path] = write_instance(inst)
        return path


# ---------------------------------------------------------------------------
# graphs

def _relabel(g: Graph, perm: list[int]) -> Graph:
    """``perm[v - 1]`` is the new id of vertex v."""
    return Graph.from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def _subdivided_md3(b: int) -> tuple[Graph, list[list[int]]]:
    """subdivided(min-degree-3(b), 8) and, per base edge, its chain of
    vertices from one base endpoint to the other."""
    base = generate("min-degree-3", (b,))
    g = generate("subdivided", (base, SUBDIVISION))
    chains = []
    nxt = base.n + 1
    for u, v in base.sorted_edges():
        inner = list(range(nxt, nxt + SUBDIVISION - 1))
        nxt += SUBDIVISION - 1
        chains.append([u, *inner, v])
    return g, chains


def _contractions(chains: list[list[int]], forbidden: set[int]) -> int:
    """Contractions R1/R7 make: every maximal run of allowed interior
    vertices of length L >= ELL + 3 edges shrinks to ELL + 2 edges."""
    total = 0
    for chain in chains:
        stops = [i for i, v in enumerate(chain) if i in (0, len(chain) - 1) or v in forbidden]
        for a, b in zip(stops, stops[1:]):
            total += max(0, (b - a) - (ELL + 2))
    return total


def _twin_pendant(b: int, rng: random.Random) -> tuple[Graph, set[int]]:
    """min-degree-3(b) with b/2 hosts carrying two pendants each;
    returns the gadget and its host set (base ids are 1..b)."""
    base = generate("min-degree-3", (b,))
    g = generate("twin-pendant-gadget", (base, b // 2), seed=rng.randrange(2**30))
    hosts = {v for v in base.vertices() if g.degree(v) > base.degree(v)}
    return g, hosts


# ---------------------------------------------------------------------------
# reduce-large

TP_BASE = (250, 500, 1000)  # n = 500, 1000, 2000
SUB_BASE = (44, 88, 176)  # n = 506, 1012, 2024


def _reduce_large(c: Corpus, rng: random.Random) -> None:
    for rung, b in enumerate(TP_BASE):
        g, hosts = _twin_pendant(b, rng)
        perm = _permutation(rng, g.n)
        # the base vertex with the lowest new id is tp-lnt's required
        # vertex; it goes to a vertex without pendants, so every seed
        # asks the same question (a host would be dropped from nt by R9
        # and take the kernel down another path)
        base = range(1, b + 1)
        low = min(base, key=lambda v: perm[v - 1])
        if low in hosts:
            other = min((v for v in base if v not in hosts), key=lambda v: perm[v - 1])
            perm[low - 1], perm[other - 1] = perm[other - 1], perm[low - 1]
        h = _relabel(g, perm)
        pairs = b // 2
        path = c.add_instance(f"tp-li-{h.n}", Instance(h, 0, 0, K, ELL))
        c.cases.append(Case(
            f"tp-li-{h.n}",
            ("kernelize", "-i", path, "-o", f"{{out}}/tp-li-{h.n}.json",
             "--transcript", f"{{out}}/tp-li-{h.n}.ndjson"),
            {
                "kind": "kernelize", "answer": "yes", "outcomes": ["trivial_yes"],
                "final": {"n": b, "m": 3 * b // 2, "p": 0, "q": 0},
                "rules": {"R2": pairs, "R4": pairs, "R5": 1},
            },
            "twin pendants: one R2 per host, then R4 strips the rest; md3 core is above the R5 bound, so yes",
            rung=rung,
        ))
        if rung == 1:
            path = c.add_instance(f"tp-li-pq-{h.n}", Instance(h, 2, 2, K, ELL))
            c.cases.append(Case(
                f"tp-li-pq-{h.n}",
                ("kernelize", "-i", path, "-o", f"{{out}}/tp-li-pq-{h.n}.json"),
                {
                    "kind": "kernelize", "answer": "yes", "outcomes": ["trivial_yes"],
                    "final": {"n": b, "m": 3 * b // 2, "p": 0, "q": 0},
                    "rules": {"R2": pairs, "R3": 1, "R4": pairs, "R5": 1},
                },
                "p=q=2: R2 spends p, R3 resets q from the pendant count, then as tp-li",
            ))
        # the lowest base id stays vertex 1 once every pendant is gone
        anchor = min(perm[v - 1] for v in base)
        path = c.add_instance(
            f"tp-lnt-{h.n}", InstanceNT(h, frozenset({anchor}), 0, K, ELL)
        )
        c.cases.append(Case(
            f"tp-lnt-{h.n}",
            ("kernelize", "-i", path, "-o", f"{{out}}/tp-lnt-{h.n}.json"),
            {
                "kind": "kernelize", "answer": "yes", "outcomes": ["delegated"],
                "final": {"n": b, "m": 3 * b // 2, "p": 0, "nt": [1]},
                "rules": {"R9": 2 * pairs, "R5nt": 1},
            },
            "R9 deletes every pendant; a single required vertex of a 3-connected core can be internal, so yes",
            rung=rung,
        ))
    for rung, b in enumerate(SUB_BASE):
        g, chains = _subdivided_md3(b)
        perm = _permutation(rng, g.n)
        h = _relabel(g, perm)
        contractions = _contractions(chains, set())
        path = c.add_instance(f"sub-li-{h.n}", Instance(h, 1, 1, K, ELL))
        c.cases.append(Case(
            f"sub-li-{h.n}",
            ("kernelize", "-i", path, "-o", f"{{out}}/sub-li-{h.n}.json"),
            {
                "kind": "kernelize", "answer": "yes", "outcomes": ["delegated"],
                "final": {"n": h.n - contractions, "m": h.m - contractions, "p": 1, "q": 0},
                "rules": {"R1": contractions, "R6": 1},
            },
            "R1 shortens every 8-edge chain to 5 and spends q; the q=0 subroutine question is a yes",
            rung=rung,
        ))
        # vertex 1 is never an interior contraction victim, so it keeps id 1
        one = perm.index(1) + 1
        contractions = _contractions(chains, {one})
        path = c.add_instance(f"sub-lnt-{h.n}", InstanceNT(h, frozenset({1}), 0, K, ELL))
        c.cases.append(Case(
            f"sub-lnt-{h.n}",
            ("kernelize", "-i", path, "-o", f"{{out}}/sub-lnt-{h.n}.json",
             "--transcript", f"{{out}}/sub-lnt-{h.n}.ndjson"),
            {
                "kind": "kernelize", "answer": "yes", "outcomes": ["delegated"],
                "final": {"n": h.n - contractions, "m": h.m - contractions, "p": 0, "nt": [1]},
                "rules": {"R7": contractions, "R5nt": 1},
            },
            "R7 contracts around the required vertex; any one vertex of a 2-connected graph can be internal",
            rung=rung,
        ))


# ---------------------------------------------------------------------------
# exact-small

# name, graph builder, problem, p, q or nt, k, ell, answer, why
_EXACT = (
    ("md14-enum", lambda: generate("min-degree-3", (14,)), "li", 0, 0, 4, 3, "yes",
     "35,301 trees enumerated in full, then the greedy clique pass succeeds at once"),
    ("k7-enum", lambda: _complete(7), "li", 2, 2, 4, 3, "yes",
     "16,807 trees of K7 enumerated in full; greedy pass succeeds"),
    ("md12-enum", lambda: generate("min-degree-3", (12,)), "lnt", 0, (1,), 4, 3, "yes",
     "8,112 trees, one required vertex; enumeration dominates"),
    ("rc10-enum", lambda: generate("random-connected", (10, 18), seed=3), "li", 3, 0, 4, 3, "yes",
     "7,197 trees of a pinned random graph; enumeration dominates"),
    ("k6-clique", lambda: _complete(6), "li", 0, 0, 10, 4, "no",
     "k=10 on 5-edge trees forces edge-disjoint trees; 4 x 5 edges exceed K6's 15, so no; clique search proves it"),
    ("md10-clique", lambda: generate("min-degree-3", (10,)), "li", 0, 0, 10, 4, "no",
     "about 1.9M clique nodes over 1,815 trees; no, confirmed by an independent search in the tests"),
    ("md10-p3-clique", lambda: generate("min-degree-3", (10,)), "li", 3, 0, 10, 4, "no",
     "p=3 only shrinks md10-clique's pool, so no; about 1.5M clique nodes"),
)


def _exact_small(c: Corpus, rng: random.Random) -> None:
    for name, build, problem, p, q_or_nt, k, ell, answer, why in _EXACT:
        g = build()
        perm = _permutation(rng, g.n)
        h = _relabel(g, perm)
        if problem == "lnt":
            nt = frozenset(perm[v - 1] for v in q_or_nt)
            inst: Instance | InstanceNT = InstanceNT(h, nt, p, k, ell)
        else:
            inst = Instance(h, p, q_or_nt, k, ell)
        path = c.add_instance(name, inst)
        c.cases.append(Case(
            name,
            ("solve", "-i", path, "-o", f"{{out}}/{name}.json"),
            {"kind": "solve", "answer": answer},
            why,
        ))
    for problem, seed in AUDIT_SEEDS.items():
        c.cases.append(Case(
            f"audit-{problem}",
            ("audit", "--problem", problem, "--count", str(AUDIT_COUNT),
             "--seed", str(seed), "--workers", "1", "-o", f"{{out}}/audit-{problem}.txt"),
            {"kind": "audit", "count": AUDIT_COUNT},
            "thousands of kernelize and oracle calls on n <= 9 graphs; guards per-call overhead",
        ))


# ---------------------------------------------------------------------------
# delegate-construct

CONSTRUCT_BASE = (44, 88, 176)  # n = 506, 1012, 2024
# the growth case asks for 2 * ell = 72 leaves where the BFS start
# tree has 48, so leaf growth and a 36-tree family do the work; it is
# not relabelled, since the BFS tree's leaf count (and so the growth
# work) swings between 48 and 88 with the labels
GROW_BASE, GROW_ELL = 88, 36
# tree budgets of the two delegations whose answer is "no"; each is
# spent in full, so they set the cost of those calls (the K2,110 yes
# case shares its budget but stops at the first tree)
NO_GADGET_BUDGET = 800
K2N_BUDGET = 600


def _no_gadget(rng: random.Random) -> InstanceNT:
    """min-degree-3(100) plus two required-internal degree-2 vertices
    a, b, both adjacent to 1 and 2: with both internal, 1-a-2-b-1 is a
    cycle, so no spanning tree keeps them internal."""
    base = generate("min-degree-3", (100,))
    a, b = 101, 102
    g = Graph.from_edges(102, [*base.edges, (1, a), (2, a), (1, b), (2, b)])
    perm = _permutation(rng, g.n)
    return InstanceNT(_relabel(g, perm), frozenset({perm[a - 1], perm[b - 1]}), 0, 1, 1)


def _k2n(n: int, q: int = 4) -> Instance:
    """K_{2,n} asking for q internal vertices: every spanning tree has
    the two hubs plus exactly one side vertex internal, so q = 4 is a
    no and q = 3 a yes.  With n = 110 both sit on or above the R6
    bound, so both reach the subroutine kernel.

    Not relabelled: the enumerator's cost on this graph swings 40x with
    where the hubs land in edge order, which would drown every other
    number in the workload.
    """
    g = Graph.from_edges(n + 2, [(h, s) for h in (1, 2) for s in range(3, n + 3)])
    return Instance(g, 1, q, 1, 1)


def _delegate_construct(c: Corpus, rng: random.Random) -> None:
    path = c.add_instance("no-gadget", _no_gadget(rng))
    c.cases.append(Case(
        "no-gadget",
        ("kernelize", "-i", path, "--budget", str(NO_GADGET_BUDGET), "-o", "{out}/no-gadget.json"),
        {"kind": "kernelize", "answer": "no", "outcomes": ["trivial_no", "delegated"],
         "undecided_ok": True},
        "lnt NO gadget: nothing reduces, the subroutine kernel runs its whole tree budget",
    ))
    path = c.add_instance("k2-110", _k2n(110))
    c.cases.append(Case(
        "k2-110",
        ("kernelize", "-i", path, "--budget", str(K2N_BUDGET), "-o", "{out}/k2-110.json"),
        {"kind": "kernelize", "answer": "no", "outcomes": ["trivial_no", "delegated"],
         "undecided_ok": True},
        "K2,110 with q=4: n=112 meets the R6 bound, the mist kernel runs its whole tree budget",
    ))
    path = c.add_instance("k2-110-yes", _k2n(110, q=3))
    c.cases.append(Case(
        "k2-110-yes",
        ("kernelize", "-i", path, "--budget", str(K2N_BUDGET), "-o", "{out}/k2-110-yes.json"),
        {"kind": "kernelize", "answer": "yes", "outcomes": ["delegated"]},
        "K2,110 with q=3: every tree has 3 internal vertices, so the mist kernel stops at its first tree",
    ))
    g, _ = _subdivided_md3(44)
    h = _relabel(g, _permutation(rng, g.n))
    path = c.add_instance("sub-lnt-yes", InstanceNT(h, frozenset({1}), 0, K, ELL))
    c.cases.append(Case(
        "sub-lnt-yes",
        ("kernelize", "-i", path, "-o", "{out}/sub-lnt-yes.json"),
        {"kind": "kernelize", "answer": "yes", "outcomes": ["delegated"]},
        "delegated yes: the ntst kernel stops at the first tree keeping vertex 1 internal",
    ))
    g, _ = _subdivided_md3(44)
    h = _relabel(g, _permutation(rng, g.n))
    path = c.add_instance("sub-li-witness", Instance(h, 0, 0, K, ELL))
    c.cases.append(Case(
        "sub-li-witness",
        ("kernelize", "-i", path, "--witness", "-o", "{out}/sub-li-witness.json",
         "--family-out", "{out}/sub-li-witness.fam"),
        {"kind": "kernelize", "answer": "yes", "outcomes": ["trivial_yes"], "witness": True},
        "p=q=0 above the R5 bound: grow leaves, plan swaps and build the witness family",
    ))
    for b in CONSTRUCT_BASE:
        g, _ = _subdivided_md3(b)
        h = _relabel(g, _permutation(rng, g.n))
        _construct_and_verify(c, f"li-{h.n}", Instance(h, 2, 2, K, ELL),
                              "li construct: a BFS tree already has the leaves, so planning and building dominate")
        _construct_and_verify(c, f"lnt-{h.n}", InstanceNT(h, frozenset({1}), 2, K, ELL),
                              "lnt construct: the seed search streams trees until vertex 1 is internal")
    g, _ = _subdivided_md3(GROW_BASE)
    _construct_and_verify(c, f"li-grow-{g.n}", Instance(g, 2, 2, K, GROW_ELL),
                          "li construct with ell=36: 24 leaf-growth exchanges, then a 36-tree family")


def _construct_and_verify(c: Corpus, name: str, inst, why: str) -> None:
    """A construct case and the verify of its family.  Both pins are
    yes: the check accepts a family only when verify_family does."""
    path = c.add_instance(f"construct-{name}", inst)
    fam = f"{{out}}/construct-{name}.fam"
    c.cases.append(Case(
        f"construct-{name}",
        ("construct", "-i", path, "-o", f"{{out}}/construct-{name}.json", "--family-out", fam),
        {"kind": "construct", "answer": "yes"},
        why,
    ))
    c.cases.append(Case(
        f"verify-{name}",
        ("verify", "-i", path, "--family", fam, "-o", f"{{out}}/verify-{name}.json"),
        {"kind": "verify"},
        "re-reads the constructed family and checks every tree and pair",
    ))


_BUILDERS = {
    "reduce-large": _reduce_large,
    "exact-small": _exact_small,
    "delegate-construct": _delegate_construct,
}


def build(workload: str, seed: int) -> Corpus:
    """The corpus of one workload; the same seed gives the same files."""
    corpus = Corpus()
    _BUILDERS[workload](corpus, random.Random(f"{workload}/{seed}"))
    return corpus
