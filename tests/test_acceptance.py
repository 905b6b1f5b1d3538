"""Release gate: ten numbered end-to-end checks.

Each test prints one `criterion NN: PASS/FAIL` line (visible under
pytest -s) and then asserts.  Tolerances are pinned in the constants
next to each criterion.
"""

import random
import time
from math import ceil

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    SpanningTree,
    apply_rule,
    arbitrary_spanning_tree,
    case1_bound_li,
    case1_bound_lnt,
    case2_bound_li,
    case2_bound_lnt,
    generate,
    kernelize,
    kernelize_lnt,
    maximal_degree2_paths,
    solve,
)
from divtrees.cli import _audit_one, _random_instance
from divtrees.diversify import _conflict_edges, build_diverse_family, plan_swaps
from divtrees.spantree import _acyclic, augment_leaf, enumerate_tree_masks, grow_leaves


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _answer(inst) -> str:
    verdict = solve(inst)
    assert verdict.answer in ("yes", "no"), "oracle budget too small for this instance"
    return verdict.answer


def md3(n):
    return generate("min-degree-3", (n,))


# ---------------------------------------------------------------------------
# criterion 1: end-to-end rule safety on random instances

CRIT1_PER_PROBLEM = 300
CRIT1_MAX_SECONDS = 300.0


def test_criterion_01_random_instance_safety():
    started = time.monotonic()
    failures = []
    for problem in ("li", "lnt"):
        rng = random.Random(101 if problem == "li" else 102)
        for i in range(CRIT1_PER_PROBLEM):
            inst = _random_instance(rng, problem, max_n=9)
            outcome, original, reduced = _audit_one(inst, budget=200000)
            if original != reduced or original not in ("yes", "no"):
                failures.append((problem, i, outcome, original, reduced))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < CRIT1_MAX_SECONDS
    _report(
        1,
        ok,
        f"{2 * CRIT1_PER_PROBLEM} kernelize-vs-oracle agreements in {elapsed:.1f}s"
        f" (limit {CRIT1_MAX_SECONDS:.0f}s), {len(failures)} mismatches",
    )
    assert not failures, failures[:5]
    assert elapsed < CRIT1_MAX_SECONDS


# ---------------------------------------------------------------------------
# criterion 2: per-rule safety, one application at a time

CRIT2_PER_RULE = 50


def _li_rule_instance(rule: str, rng: random.Random) -> Instance:
    p, q = rng.randint(0, 4), rng.randint(0, 4)
    k, ell = rng.randint(1, 4), rng.randint(1, 3)
    if rule == "R1":
        n = rng.randint(ell + 3, 9)
        g = support.cycle_graph(n)
        if rng.random() < 0.5:
            g = support.with_pendants(g, [rng.randint(1, n)])
        return Instance(g, p, q, k, ell)
    if rule == "R2":
        base = support.cycle_graph(rng.randint(3, 6))
        host = rng.randint(1, base.n)
        return Instance(support.with_pendants(base, [host, host]), p, q, k, ell)
    if rule == "R3":
        base = support.cycle_graph(rng.randint(4, 6))
        r = rng.randint(1, 3)
        hosts = rng.sample(range(1, base.n + 1), r)
        return Instance(support.with_pendants(base, hosts), rng.randint(1, r), q, k, ell)
    if rule == "R4":
        base = support.cycle_graph(rng.randint(3, 7))
        return Instance(support.with_pendants(base, [rng.randint(1, base.n)]), 0, 0, k, ell)
    if rule == "R5":
        if rng.random() < 0.5:
            return Instance(support.cycle_graph(rng.randint(4, 9)), 0, 0, k, ell)
        # n at or above the case-1 bound makes the decision "large"
        return Instance(support.cycle_graph(rng.randint(28, 55)), 0, 0, rng.randint(1, 2), 1)
    assert rule == "R6"
    if rng.random() < 0.5:
        pq = (rng.randint(1, 4), rng.randint(0, 4))
        return Instance(support.cycle_graph(rng.randint(4, 9)), *pq, k, ell)
    return Instance(support.cycle_graph(rng.randint(49, 70)), rng.randint(0, 1), 1, 1, 1)


def _lnt_rule_instance(rule: str, rng: random.Random):
    k, ell = rng.randint(1, 4), rng.randint(1, 3)
    if rule == "pre-check":
        base = support.cycle_graph(rng.randint(4, 7))
        g = support.with_pendants(base, [rng.randint(1, base.n)])
        nt = {g.n} | ({rng.randint(1, base.n)} if rng.random() < 0.5 else set())
        return InstanceNT(g, frozenset(nt), rng.randint(0, 4), k, ell)
    if rule == "R7":
        n = rng.randint(ell + 4, 9)
        a = rng.randint(1, n)
        nt = {a}
        if rng.random() < 0.5:
            nt.add(a % n + 1)
        return InstanceNT(support.cycle_graph(n), frozenset(nt), rng.randint(0, 4), k, ell)
    if rule == "R8":
        base = support.cycle_graph(rng.randint(4, 6))
        r = rng.randint(1, 3)
        hosts = rng.sample(range(1, base.n + 1), r)
        g = support.with_pendants(base, hosts)
        nt = frozenset({rng.choice([v for v in range(1, base.n + 1) if v not in hosts])})
        return InstanceNT(g, nt, rng.randint(1, r), k, ell)
    if rule == "R9":
        base = support.cycle_graph(rng.randint(4, 7))
        g = support.with_pendants(base, [rng.randint(1, base.n)])
        nt = frozenset(rng.sample(range(1, base.n + 1), rng.randint(0, 2)))
        return InstanceNT(g, nt, 0, k, ell)
    if rule == "R5nt":
        if rng.random() < 0.5:
            n = rng.randint(4, 9)
            return InstanceNT(support.cycle_graph(n), frozenset({rng.randint(1, n)}), 0, k, ell)
        n = rng.randint(63, 80)
        return InstanceNT(support.cycle_graph(n), frozenset({1}), 0, 1, 1)
    assert rule == "R6nt"
    if rng.random() < 0.5:
        n = rng.randint(4, 9)
        return InstanceNT(
            support.cycle_graph(n), frozenset({rng.randint(1, n)}), rng.randint(1, 4), k, ell
        )
    n = rng.randint(77, 90)
    return InstanceNT(support.cycle_graph(n), frozenset({1}), 1, 1, 1)


def test_criterion_02_per_rule_safety():
    checked = {}
    mismatches = []
    li_rules = ("R1", "R2", "R3", "R4", "R5", "R6")
    lnt_rules = ("pre-check", "R7", "R8", "R9", "R5nt", "R6nt")
    for idx, rule in enumerate(li_rules + lnt_rules):
        rng = random.Random(200 + idx)
        count = 0
        for _ in range(CRIT2_PER_RULE):
            if rule in li_rules:
                inst = _li_rule_instance(rule, rng)
            else:
                inst = _lnt_rule_instance(rule, rng)
            if rule == "pre-check":
                # the pendant required-internal pre-check decides no outright
                res = kernelize_lnt(inst)
                assert res.outcome == "trivial_no"
                assert res.transcript[0].rule == "PC-nt-pendant"
                if _answer(inst) != "no":
                    mismatches.append((rule, inst))
                count += 1
                continue
            after, entry = apply_rule(inst, rule)
            assert entry.rule == rule
            count += 1
            if _answer(inst) != _answer(after):
                mismatches.append((rule, inst))
        checked[rule] = count
    ok = not mismatches and all(c >= CRIT2_PER_RULE for c in checked.values())
    _report(
        2,
        ok,
        f"{sum(checked.values())} single-rule firings across {len(checked)} rules,"
        f" {len(mismatches)} equivalence breaks",
    )
    assert not mismatches, mismatches[:3]


# ---------------------------------------------------------------------------
# criterion 3: kernel size bounds and speed on large gadget instances

CRIT3_INSTANCES = 100
CRIT3_MAX_SECONDS_EACH = 1.0


def _crit3_instances():
    rng = random.Random(303)
    out = []
    for i in range(CRIT3_INSTANCES):
        k, ell = rng.randint(1, 4), rng.randint(1, 3)
        if i % 2 == 0:
            base = md3(rng.choice([12, 16, 20, 28, 40]))
            factor = rng.choice([3, 8, 15, 24, 33])
            g = generate("subdivided", (base, factor))
        else:
            base = md3(rng.choice([16, 40, 100]))
            pairs = rng.choice([10, 80, 300, 900])
            g = generate("twin-pendant-gadget", (base, pairs), seed=rng.randrange(1000))
        if i % 3 == 2:
            nt = frozenset(rng.sample(range(1, 4), rng.randint(0, 3)))
            out.append(InstanceNT(g, nt, rng.randint(0, 4), k, ell))
        else:
            out.append(Instance(g, rng.randint(0, 4), rng.randint(0, 4), k, ell))
    return out


def test_criterion_03_kernel_size_bounds():
    worst = 0.0
    reduced_seen = 0
    violations = []
    for inst in _crit3_instances():
        t0 = time.monotonic()
        res = kernelize(inst)
        worst = max(worst, time.monotonic() - t0)
        if res.outcome != "reduced":
            continue
        reduced_seen += 1
        final = res.instance
        decided_by = res.transcript[-1].rule
        if decided_by == "R5":
            bound = case1_bound_li(final.k, final.ell)
        elif decided_by == "R6":
            bound = case2_bound_li(final.p, final.q, final.k, final.ell)
        elif decided_by == "R5nt":
            bound = case1_bound_lnt(len(final.nonterminals), final.k, final.ell)
        else:
            assert decided_by == "R6nt"
            bound = case2_bound_lnt(
                len(final.nonterminals), final.p, final.k, final.ell
            )
        if final.graph.n >= bound:
            violations.append((inst.graph.n, final.graph.n, bound))
    ok = not violations and worst < CRIT3_MAX_SECONDS_EACH and reduced_seen > 0
    _report(
        3,
        ok,
        f"{CRIT3_INSTANCES} gadget instances (n up to 2000), {reduced_seen} reduced,"
        f" worst time {worst * 1000:.0f}ms (limit {CRIT3_MAX_SECONDS_EACH:.0f}s),"
        f" {len(violations)} bound violations",
    )
    assert not violations
    assert worst < CRIT3_MAX_SECONDS_EACH
    assert reduced_seen > 0


# ---------------------------------------------------------------------------
# criteria 4 and 5: swap families and conflict structure

CRIT4_INPUTS = 200


def _crit45_runs():
    """Collect (g, grown tree, nt, k, ell, plan, family) tuples."""
    rng = random.Random(404)
    runs = []
    guard = 0
    while len(runs) < CRIT4_INPUTS and guard < 4 * CRIT4_INPUTS:
        guard += 1
        n = rng.choice([24, 32, 40, 56, 72, 80])
        g = md3(n)
        k, ell = rng.randint(1, 8), rng.randint(2, 4)
        need = ceil(k / 4) * ell
        grown = grow_leaves(arbitrary_spanning_tree(g), frozenset(), 2 * need)
        if grown.leaf_count < 2 * need:
            continue
        leaves = grown.leaves
        nt_candidates = [
            v
            for v in sorted(support.internal_vertices(grown))
            if len(grown.adjacency[v] - leaves) >= 2
        ]
        nt = frozenset(rng.sample(nt_candidates, min(len(nt_candidates), rng.randint(0, 2))))
        try:
            plan = plan_swaps(grown, leaves, k, ell)
        except ValueError:
            continue
        family = build_diverse_family(plan)
        runs.append((g, grown, nt, k, ell, plan, family))
    return runs


_CRIT45 = None


def _crit45_cached():
    global _CRIT45
    if _CRIT45 is None:
        _CRIT45 = _crit45_runs()
    return _CRIT45


def _spans(g, edges):
    """Whether the public, checked constructor accepts ``edges`` as a
    spanning tree of ``g``: swap building trusts its members."""
    try:
        SpanningTree(g, edges)
    except ValueError:
        return False
    return True


def test_criterion_04_swap_family_properties():
    runs = _crit45_cached()
    bad = []
    for g, grown, nt, k, ell, plan, family in runs:
        block = ceil(k / 4)
        floor = grown.leaf_count - block
        for i, ti in enumerate(family):
            if not _spans(g, ti.edges) or not nt <= support.internal_vertices(ti) or ti.leaf_count < floor:
                bad.append((g.n, k, ell, "tree", i))
            for j in range(i):
                d = len(ti.edges ^ family[j].edges)
                si, sj = len(plan.blocks[i]), len(plan.blocks[j])
                if d != 2 * (si + sj) or d < k:
                    bad.append((g.n, k, ell, "pair", (i, j), d))
    ok = len(runs) == CRIT4_INPUTS and not bad
    _report(
        4,
        ok,
        f"{len(runs)} constructions; spanning members, exact pairwise distances,"
        f" protected internals, leaf floors; {len(bad)} deviations",
    )
    assert len(runs) == CRIT4_INPUTS
    assert not bad, bad[:5]


def test_criterion_05_conflict_structure():
    runs = _crit45_cached()
    bad = []
    for g, grown, nt, k, ell, plan, family in runs:
        if not _acyclic(g.n, _conflict_edges(plan.leaves, plan.swap_target)):
            bad.append((g.n, "cycle"))
        if 2 * len(plan.independent) < len(plan.leaves):
            bad.append((g.n, "pool", len(plan.independent), len(plan.leaves)))
    ok = not bad
    _report(
        5,
        ok,
        f"{len(runs)} plans; conflict graphs acyclic and pools >= half the leaves;"
        f" {len(bad)} deviations",
    )
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# criterion 6: every sampled augmentation gains a leaf inside the path

CRIT6_AUGMENTATIONS = 100


def _tree_moves(g: Graph, t: SpanningTree):
    for path in maximal_degree2_paths(support.tree_graph(t), frozenset()):
        if len(path) - 1 < 6:
            continue
        vs = path
        for v in vs[3 : len(path) - 3]:
            for w in sorted(g.neighbors(v)):
                e = (v, w) if v < w else (w, v)
                if e not in t.edges:
                    yield path, v, w


def test_criterion_06_augmentation_properties():
    done = 0
    bad = []
    for n in range(10, 60):
        chords = {(4, n), (5, n - 4)}
        g = Graph(n, support.cycle_graph(n).edges | chords)
        path_tree = SpanningTree(
            g, frozenset((i, i + 1) for i in range(1, n))
        )
        for path, v, w in _tree_moves(g, path_tree):
            drop = augment_leaf(path_tree, path, v, w)
            t2 = SpanningTree(g, path_tree.edges - {drop} | {(min(v, w), max(v, w))})
            done += 1
            if t2.leaf_count <= path_tree.leaf_count:
                bad.append((n, v, w, "no gain"))
            if not (t2.leaves - path_tree.leaves) <= frozenset(path[1:-1]):
                bad.append((n, v, w, "leaf outside the path"))
            if done >= CRIT6_AUGMENTATIONS:
                break
        if done >= CRIT6_AUGMENTATIONS:
            break
    ok = done >= CRIT6_AUGMENTATIONS and not bad
    _report(6, ok, f"{done} augmentations, {len(bad)} property violations")
    assert done >= CRIT6_AUGMENTATIONS
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# criterion 7: growth dichotomy above the size threshold

CRIT7_GRAPHS = 50


def test_criterion_07_growth_never_stalls_above_bound():
    rng = random.Random(707)
    shapes = [(1, 1), (2, 1), (4, 2), (5, 2), (8, 2), (3, 3), (4, 3), (8, 4)]
    failures = []
    tried = 0
    for i in range(CRIT7_GRAPHS):
        k, ell = shapes[i % len(shapes)]
        bound = case1_bound_li(k, ell)
        if i % 2 == 0:
            n = bound + rng.randrange(0, 30, 2)
            g = md3(n)
        else:
            factor = rng.randint(2, ell + 2)
            base_n = bound // (1 + 3 * (factor - 1) // 2) + 2
            base_n += base_n % 2
            g = generate("subdivided", (md3(base_n), factor))
            while g.n < bound:
                base_n += 2
                g = generate("subdivided", (md3(base_n), factor))
        assert g.n >= bound
        assert all(g.degree(v) >= 2 for v in g.vertices())
        assert all(
            len(path) - 1 < ell + 3 for path in maximal_degree2_paths(g, frozenset())
        )
        tried += 1
        target = 2 * ceil(k / 4) * ell
        grown = grow_leaves(arbitrary_spanning_tree(g), frozenset(), target)
        if grown.leaf_count < target:
            failures.append((k, ell, g.n))
    ok = tried == CRIT7_GRAPHS and not failures
    _report(
        7,
        ok,
        f"{tried} threshold-sized graphs grown to target, {len(failures)} stalls",
    )
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 8: parity and single-tree vacuity

CRIT8_INSTANCES = 100


def test_criterion_08_parity_and_vacuity():
    rng = random.Random(808)
    bad = []
    for i in range(CRIT8_INSTANCES // 2):
        inst = _random_instance(rng, "li" if i % 2 else "lnt", max_n=8)
        k = rng.choice([1, 3])
        a = _answer(_with_k_ell(inst, k, inst.ell))
        b = _answer(_with_k_ell(inst, k + 1, inst.ell))
        if a != b:
            bad.append(("parity", inst, k))
    for i in range(CRIT8_INSTANCES // 2):
        inst = _random_instance(rng, "lnt" if i % 2 else "li", max_n=8)
        answers = {_answer(_with_k_ell(inst, k, 1)) for k in (1, 2, 4, 7)}
        if len(answers) != 1:
            bad.append(("vacuity", inst))
    ok = not bad
    _report(
        8,
        ok,
        f"{CRIT8_INSTANCES} instances checked for odd-k rounding and ell=1"
        f" k-independence, {len(bad)} breaks",
    )
    assert not bad, bad[:5]


def _with_k_ell(inst, k, ell):
    if isinstance(inst, InstanceNT):
        return InstanceNT(inst.graph, inst.nonterminals, inst.p, k, ell)
    return Instance(inst.graph, inst.p, inst.q, k, ell)


# ---------------------------------------------------------------------------
# criterion 9: pinned instances

def test_criterion_09_pinned_instances():
    c5 = support.cycle_graph(5)
    c4 = support.cycle_graph(4)
    k4 = support.complete_graph(4)
    nt_pendant_graph = support.with_pendants(c4, [1])
    pins = [
        ("C5 leafy family", Instance(c5, 2, 3, 2, 5), "yes"),
        ("C5 distance 3", Instance(c5, 0, 0, 3, 2), "no"),
        ("K4 two far stars", Instance(k4, 3, 1, 4, 2), "yes"),
        # C4 has 4 spanning trees (C4 minus one edge); only C4-(2,3) and
        # C4-(3,4) keep vertex 1 internal, so ell = 3 distinct trees are
        # impossible.  Same pin as lnt(C4, {1}, 0, 2, 3) in
        # test_oracle.py::test_lnt_pinned_answers; keep the two in step.
        ("C4 one protected vertex", InstanceNT(c4, frozenset({1}), 0, 2, 3), "no"),
        (
            "protected vertex of degree one",
            InstanceNT(nt_pendant_graph, frozenset({5}), 0, 1, 1),
            "no",
        ),
    ]
    got = [(name, _answer(inst), want) for name, inst, want in pins]
    misses = [(name, have, want) for name, have, want in got if have != want]
    ok = not misses
    _report(
        9,
        ok,
        "5 pinned verdicts"
        + ("" if ok else "; mismatches: " + ", ".join(f"{n} expected {w} got {h}" for n, h, w in misses)),
    )
    assert not misses, misses


# ---------------------------------------------------------------------------
# criterion 10: leaves always outnumber branch vertices by two

CRIT10_MIN_TREES = 10**4


def test_criterion_10_leaf_branch_inequality():
    corpus = [
        support.complete_graph(7),
        support.complete_graph(5),
        generate("theta", (2, 3, 4)),
        Graph.from_edges(
            8,
            [
                (1, 2), (2, 3), (3, 4), (1, 4),
                (5, 6), (6, 7), (7, 8), (5, 8),
                (1, 5), (2, 6), (3, 7), (4, 8),
            ],
        ),
    ]
    total = 0
    violations = 0
    for g in corpus:
        edges = g.sorted_edges()
        for mask in enumerate_tree_masks(g, limit=50000):
            degree = [0] * (g.n + 1)
            m = mask
            while m:
                low = m & -m
                u, v = edges[low.bit_length() - 1]
                degree[u] += 1
                degree[v] += 1
                m ^= low
            leaves = sum(1 for d in degree[1:] if d == 1)
            branching = sum(1 for d in degree[1:] if d >= 3)
            total += 1
            if g.n >= 2 and branching > leaves - 2:
                violations += 1
    ok = total >= CRIT10_MIN_TREES and violations == 0
    _report(
        10,
        ok,
        f"{total} enumerated trees (need >= {CRIT10_MIN_TREES}), {violations} violations",
    )
    assert total >= CRIT10_MIN_TREES
    assert violations == 0
