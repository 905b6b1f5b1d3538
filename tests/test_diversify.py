import json
import random
import tracemalloc
from dataclasses import asdict, replace
from itertools import islice

import pytest
from hypothesis import given, strategies as st

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    InternalInvariantError,
    SpanningTree,
    arbitrary_spanning_tree,
    construct_family,
    generate,
    read_edge_set_family,
    verify_family,
    write_family,
)
from divtrees import diversify
from divtrees.cli import _emit_json, _family_text
from divtrees.diversify import LeafSwapPlan, _conflict_edges, build_diverse_family, plan_swaps
from divtrees.graphcore import _unite, write_graph
from divtrees.kernelizer import JSON_ENCODER
from divtrees.spantree import _acyclic as _uf_acyclic, Family, _Growth, enumerate_spanning_trees, grow_leaves


def k4_star():
    g = support.complete_graph(4)
    t = SpanningTree(g, frozenset({(1, 2), (1, 3), (1, 4)}))
    return g, t


# ---------------------------------------------------------------------------
# the worked K4 example, pinned end to end

def test_plan_on_k4_star():
    _, t = k4_star()
    plan = plan_swaps(t, {2, 3, 4}, k=2, ell=2)
    assert plan.tree_neighbor == {2: 1, 3: 1, 4: 1}
    # lowest-id non-tree neighbor; everything here is inside L
    assert plan.swap_target == {2: 3, 3: 2, 4: 2}
    assert _conflict_edges(plan.leaves, plan.swap_target) == frozenset({(2, 3), (2, 4)})
    # 2 is the conflict-star center, so the larger color class is {3, 4}
    assert plan.independent == frozenset({3, 4})
    assert plan.blocks == (frozenset({3}), frozenset({4}))


def test_family_on_k4_star():
    g, t = k4_star()
    plan = plan_swaps(t, {2, 3, 4}, k=2, ell=2)
    fam = build_diverse_family(plan)
    assert [ti.edges for ti in fam] == [
        frozenset({(1, 2), (1, 4), (2, 3)}),
        frozenset({(1, 2), (1, 3), (2, 4)}),
    ]
    assert len(fam[0].edges ^ fam[1].edges) == 4
    assert verify_family(g, fam, p=2, q=1, k=2).verdict


def test_plan_prefers_targets_outside_chosen_leaves():
    # 6-vertex host: star at 1 over {2,3,4}, plus 5 and 6 hanging off 4
    # and extra edges so every leaf can swap somewhere.
    g = Graph.from_edges(
        6, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (2, 5), (3, 5), (2, 3)]
    )
    t = SpanningTree(g, frozenset({(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)}))
    plan = plan_swaps(t, {2, 3}, k=4, ell=1)
    # 2 would pick 3 by id, but 5 is outside L; same for 3
    assert plan.swap_target == {2: 5, 3: 5}
    assert _conflict_edges(plan.leaves, plan.swap_target) == frozenset()
    assert plan.independent == frozenset({2, 3})


def test_plan_shortfall_message():
    _, t = k4_star()
    with pytest.raises(ValueError, match="only 2 conflict-free leaves, need 3"):
        plan_swaps(t, {2, 3, 4}, k=4, ell=3)


def test_plan_input_validation():
    with pytest.raises(ValueError, match="at least 3 vertices"):
        plan_swaps(arbitrary_spanning_tree(support.path_graph(2)), {2}, k=2, ell=1)


def test_plan_on_cycle_path_tree():
    g = support.cycle_graph(6)
    t = arbitrary_spanning_tree(g)  # drops (4, 5)
    assert t.leaves == frozenset({4, 5})
    plan = plan_swaps(t, {4, 5}, k=2, ell=1)
    # 4 and 5 target each other; one survives the coloring
    assert _conflict_edges(plan.leaves, plan.swap_target) == frozenset({(4, 5)})
    assert plan.independent == frozenset({4})
    fam = build_diverse_family(plan)
    assert fam[0].edges == (t.edges - {(3, 4)}) | {(4, 5)}


# ---------------------------------------------------------------------------
# conflict bookkeeping helpers

def test_conflict_edges_only_inside_leaf_set():
    leaves = frozenset({2, 3, 4})
    assert _conflict_edges(leaves, {2: 3, 3: 1, 4: 7}) == frozenset({(2, 3)})
    assert _conflict_edges(leaves, {2: 1, 3: 1, 4: 1}) == frozenset()


def test_find_cycle_on_forest_and_triangle():
    assert _uf_acyclic(4, frozenset({(1, 2), (3, 4)}))
    assert not _uf_acyclic(4, frozenset({(1, 2), (2, 3), (1, 3)}))


def test_find_cycle_skips_acyclic_component():
    # a cycle in the second component, after an acyclic one
    edges = frozenset({(1, 2), (3, 4), (4, 5), (3, 5)})
    assert not _uf_acyclic(5, edges)
    assert _uf_acyclic(5, edges - {(3, 5)})


def test_is_forest_on_forests_and_cycles():
    assert _uf_acyclic(3, frozenset())
    deep = frozenset({(2, 3), (2, 4), (3, 6), (3, 7), (5, 6)})
    assert _uf_acyclic(7, deep)
    hanging = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)})
    assert not _uf_acyclic(6, hanging)
    both = frozenset({(2, 4), (4, 6), (2, 6), (1, 3), (3, 5), (5, 7), (1, 7)})
    assert not _uf_acyclic(7, both)
    c5 = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})
    assert not _uf_acyclic(5, c5)
    assert _uf_acyclic(5, c5 - {(1, 5)})


def test_plan_two_colours_a_deep_conflict_forest():
    # star at 1; the lowest-id targets chain into a conflict tree of
    # depth 3 rooted at 2, whose colour classes tie, so the even one wins
    g = Graph.from_edges(
        7,
        [(1, v) for v in range(2, 8)]
        + [(2, 3), (2, 4), (3, 6), (3, 7), (4, 7), (5, 6)],
    )
    t = SpanningTree(g, frozenset((1, v) for v in range(2, 8)))
    plan = plan_swaps(t, range(2, 8), k=1, ell=1)
    assert plan.swap_target == {2: 3, 3: 2, 4: 2, 5: 6, 6: 3, 7: 3}
    assert _conflict_edges(plan.leaves, plan.swap_target) == frozenset({(2, 3), (2, 4), (3, 6), (3, 7), (5, 6)})
    assert plan.independent == frozenset({2, 6, 7})


def _acyclic(edges):
    root = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            return False
        root[a] = b
    return True


def _swap_corpus():
    yield support.complete_graph(4)
    yield support.complete_graph(5)
    yield support.cycle_graph(5)
    yield generate("theta", (2, 2, 3))
    for seed in range(6):
        n = 4 + seed % 4
        yield generate("random-connected", (n, min(n + 3, n * (n - 1) // 2)), seed=seed)


def test_lowest_targets_never_close_a_conflict_cycle():
    # plan_swaps keeps no cycle repair and the plan checks nothing: on
    # every tree and every leaf subset the targets are the lowest-id
    # non-tree host neighbours, the conflicts a forest, the pool a
    # conflict-free set of chosen leaves and the blocks equal, disjoint
    # slices of it
    plans = 0
    for g in _swap_corpus():
        for t in enumerate_spanning_trees(g):
            eligible = sorted(v for v in t.leaves if g.degree(v) >= 2)
            for bits in range(1, 1 << len(eligible)):
                L = frozenset(v for i, v in enumerate(eligible) if bits >> i & 1)
                plan = plan_swaps(t, L, 1, 1)
                for v in L:
                    (p,) = t.adjacency[v]
                    assert plan.tree_neighbor[v] == p
                    options = sorted(g.neighbors(v) - {p})
                    outside = [u for u in options if u not in L]
                    assert plan.swap_target[v] == (outside or options)[0]
                assert _acyclic(_conflict_edges(plan.leaves, plan.swap_target)), (g, t.edges, L)
                pool = plan.independent
                assert pool <= L
                assert not any(u in pool and v in pool for u, v in _conflict_edges(plan.leaves, plan.swap_target))
                # every pool leaf a block of its own, then blocks of two
                for k, ell in ((1, len(pool)), (5, len(pool) // 2)):
                    if ell:
                        blocks = plan_swaps(t, L, k, ell).blocks
                        assert len(blocks) == ell and {len(b) for b in blocks} == {-(-k // 4)}
                        assert sum(map(len, blocks)) == len(frozenset().union(*blocks))
                        assert frozenset().union(*blocks) <= pool
                plans += 1
    assert plans > 1000


# ---------------------------------------------------------------------------
# a plan is built by plan_swaps and checks nothing itself

def valid_plan_parts():
    g, t = k4_star()
    return dict(
        tree=t,
        leaves=frozenset({2, 3, 4}),
        swap_target={2: 3, 3: 2, 4: 2},
        independent=frozenset({3, 4}),
        blocks=(frozenset({3}), frozenset({4})),
    )


def test_plan_constructor_accepts_consistent_parts():
    plan = LeafSwapPlan(**valid_plan_parts())
    assert plan.independent == frozenset({3, 4})
    assert plan.tree_neighbor == {2: 1, 3: 1, 4: 1}
    assert _conflict_edges(plan.leaves, plan.swap_target) == frozenset({(2, 3), (2, 4)})


# ---------------------------------------------------------------------------
# family construction

def test_build_keeps_nonterminals_internal():
    # path tree on C6 plus chords: internal spine stays internal
    g = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 6)])
    t = SpanningTree(g, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}))
    plan = plan_swaps(t, {1}, k=2, ell=1)
    fam = build_diverse_family(plan)
    assert frozenset({3, 4}) <= support.internal_vertices(fam[0])


# ---------------------------------------------------------------------------
# verification

def test_verify_family_accepts_raw_edge_sets():
    g, _ = k4_star()
    fam = [
        frozenset({(1, 2), (1, 4), (2, 3)}),
        frozenset({(1, 2), (1, 3), (2, 4)}),
    ]
    report = verify_family(g, fam, p=2, q=1, k=4)
    assert report.verdict
    assert [p.distance for p in report.pairs] == [4]


def test_verify_family_flags_each_failure():
    g, t = k4_star()
    plan = plan_swaps(t, {2, 3, 4}, k=2, ell=2)
    fam = build_diverse_family(plan)
    # every member has exactly 2 leaves
    assert not verify_family(g, fam, p=3, q=1, k=2).verdict
    assert not verify_family(g, fam, p=0, q=3, k=2).verdict
    report = verify_family(g, fam, p=0, q=0, k=6)
    assert not report.verdict
    assert report.pairs[0].distance == 4 and not report.pairs[0].ok
    # 3 is a leaf of the first member
    assert not verify_family(g, fam, p=0, q=0, k=2, nt=frozenset({3})).verdict


def test_verify_family_rejects_non_spanning_sets():
    g, _ = k4_star()
    triangle = frozenset({(1, 2), (2, 3), (1, 3)})
    report = verify_family(g, [triangle], p=0, q=0, k=1)
    assert not report.trees[0].spanning
    assert not report.verdict
    foreign = frozenset({(1, 2), (2, 3), (5, 6)})
    assert not verify_family(g, [foreign], p=0, q=0, k=1).verdict


def test_verify_family_json_shape():
    g, _ = k4_star()
    report = verify_family(g, [frozenset({(1, 2), (1, 3), (1, 4)})], p=1, q=1, k=1)
    d = json.loads(JSON_ENCODER.encode(report.to_json_dict()))
    assert d["verdict"] is True
    assert d["trees"][0]["leaf_count"] == 3
    assert d["pairs"] == []



def test_report_json_equals_the_dataclass_fields():
    # the encoder writes each check as its fields; asdict is the reference
    g = generate("min-degree-3", (20,))
    grown = grow_leaves(arbitrary_spanning_tree(g), frozenset(), 6)
    fam = build_diverse_family(plan_swaps(grown, grown.leaves, 4, 3))
    foreign = frozenset({(1, 2), (2, 3), (5, 19)})
    report = verify_family(g, [*fam, foreign], p=5, q=10, k=5, nt=frozenset({1}))
    assert not report.verdict
    for check in (*report.trees, *report.pairs):
        assert JSON_ENCODER.encode(check) == json.dumps(asdict(check), sort_keys=True)
    assert JSON_ENCODER.encode(report.to_json_dict()) == json.dumps(
        {"verdict": False, **asdict(report)}, sort_keys=True
    )


# ---------------------------------------------------------------------------
# the shared-core verifier against the member-by-member reference

def _same_report(g, family, nt=frozenset()):
    """Both verifiers agree at thresholds that pass and that fail, on
    the members as trees and as raw edge sets."""
    raw = [t.edges if isinstance(t, SpanningTree) else t for t in family]
    for p, q, k in ((0, 0, 1), (3, 2, 4), (g.n, g.n, g.n)):
        for members in (family, raw):
            got = verify_family(g, members, p, q, k, nt=nt)
            assert got == support.reference_verify_family(g, members, p, q, k, nt=nt), (p, q, k)


def _subdivided(b):
    return generate("subdivided", (generate("min-degree-3", (b,)), 8))


def test_verify_matches_the_reference_on_constructed_families():
    cases = [Instance(_subdivided(44), 2, 2, 4, 3), InstanceNT(_subdivided(44), frozenset({1}), 2, 4, 3)]
    cases.append(Instance(_subdivided(88), 2, 2, 4, 36))
    for inst in cases:
        family, why, report = construct_family(inst)
        assert why is None and len(family) == inst.ell
        assert report == support.reference_verify_family(
            inst.graph, family, inst.p, inst.q, inst.k, nt=inst.nonterminals
        )
        _same_report(inst.graph, family, inst.nonterminals)
        # one member swapped for a tree of the plan's host that shares less
        _same_report(inst.graph, [*family[1:], arbitrary_spanning_tree(inst.graph)])


def test_verify_matches_the_reference_on_oracle_witnesses():
    from test_oracle import _oracle_corpus

    from divtrees import solve

    witnesses = 0
    for problem in ("li", "lnt"):
        for inst, limits in _oracle_corpus(problem):
            verdict = solve(inst, limits)
            if verdict.witness is not None:
                witnesses += 1
                _same_report(inst.graph, verdict.witness, inst.nonterminals)
    assert witnesses > 100


def test_verify_matches_the_reference_on_random_families():
    # random trees and random edge sets on small graphs share little
    rng = random.Random(37)
    for _ in range(200):
        g = support.random_connected(rng, rng.randint(1, 9))
        trees = [t.edges for t in islice(enumerate_spanning_trees(g), 200)]
        pool = sorted(g.edges)
        family = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.7:
                family.append(rng.choice(trees))
            else:
                family.append(frozenset(rng.sample(pool, rng.randint(0, len(pool)))))
        nt = frozenset(rng.sample(range(1, g.n + 1), rng.randint(0, min(2, g.n))))
        _same_report(g, family, nt)


def test_verify_matches_the_reference_on_broken_families():
    g = support.complete_graph(7)
    trees = [t.edges for t in islice(enumerate_spanning_trees(g), 0, 4000, 1000)]
    base = trees[0]
    missing = sorted(g.edges - base)
    # a triangle, held by every member or by one only
    cycle = frozenset({(1, 2), (2, 3), (1, 3)})
    # every family is checked on K7 and on h, where (6, 7) is foreign
    h = Graph(g.n, g.edges - {(6, 7)})
    families = {
        "edge (6, 7)": [*trees[1:], base - {min(base)} | {(6, 7)}],
        "out of range": [*trees[1:], base - {min(base)} | {(g.n, g.n + 1)}],
        "vertex 0": [*trees[1:], base - {min(base)} | {(0, 1)}],
        "n - 2 edges": [*trees[1:], base - {min(base)}],
        "n edges": [*trees[1:], base | {missing[0]}],
        "n - 1 edges, one cycle": [*trees[1:], cycle | {(3, 4), (4, 5), (5, 6)}],
        "cycle in the core": [t | cycle for t in trees],
        "cycle in one member": [*trees[1:], base | cycle],
        "foreign core": [t | {(g.n, g.n + 1)} for t in trees],
        "duplicates": [base, trees[1], base, base],
        "one member": [base],
        "one broken member": [base | cycle],
        "no members": [],
    }
    for family in families.values():
        _same_report(g, family, frozenset({1, 2}))
        _same_report(h, family, frozenset({1, 2}))
    assert verify_family(g, [], 0, 0, 1) == diversify.FamilyReport(trees=(), pairs=())


def test_verify_pays_per_vertex_only_when_a_member_can_span(monkeypatch):
    # no member has n - 1 edges: no union-find and no scan of 1..n, and a
    # member that does not span counts no untouched vertex as internal
    unites = []
    monkeypatch.setattr(diversify, "_unite", lambda *args: unites.append(args) or True)
    g = Graph(3_000_000, frozenset({(1, 2)}))
    tracemalloc.start()
    try:
        report = verify_family(g, [frozenset({(1, 2)})], 1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (check,) = report.trees
    assert (check.spanning, check.leaf_count, check.internal_count) == (False, 2, 0)
    assert not check.internal_ok and unites == [] and peak < 1 << 20


def test_verify_reads_members_off_their_core(monkeypatch):
    # one degree count and one union-find over the edges every member
    # holds, then per member only its own edges: no whole-tree pass
    from divtrees import spantree

    family, _, _ = construct_family(Instance(_subdivided(88), 2, 2, 4, 36))
    sets = [t.edges for t in family]
    core = frozenset.intersection(*sets)
    seen = {"_degrees": [], "_unite": [], "_leaves": [], "_acyclic": []}
    for module in (diversify, spantree):
        for name, calls in seen.items():
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda a, edges, real=real, calls=calls: calls.append(len(edges)) or real(a, edges)
                )
    assert verify_family(family[0].host, sets, 2, 2, 4).verdict
    assert seen["_leaves"] == seen["_acyclic"] == []
    assert seen["_degrees"] == [len(core)]
    assert seen["_unite"] == [len(core), *(len(s - core) for s in sets)]
    assert len(core) > 900 and max(len(s - core) for s in sets) < 40


# ---------------------------------------------------------------------------
# construct trusts what it builds and verifies the family on the way out

def _bench_growth_instance():
    # the benchmark's construct-li-grow case: 24 exchanges, then 36 trees
    return Instance(_subdivided(88), 2, 2, 4, 36)


def test_members_keep_the_plan_order_and_the_family_text_reads_back():
    # no member is sorted: the family's JSON and text merge the core's
    # order, taken from the plan tree's, with each member's own edges,
    # and match a sort of each member; the text, read with each distinct
    # line once, gives the members back
    for inst in (_bench_growth_instance(), InstanceNT(_subdivided(44), frozenset({1}), 2, 4, 3)):
        family, why, _ = construct_family(inst)
        assert why is None and len(family) == inst.ell
        n = inst.graph.n
        assert _family_text(family) == JSON_ENCODER.encode([sorted(t.edges) for t in family])
        text = write_family(family)
        assert text == "".join(write_graph(support.tree_graph(t)) for t in family)
        back = read_edge_set_family(text, n)
        assert back == [t.edges for t in family]
        # a line read before comes back as the tuple it gave then
        first = {e: e for e in back[0]}
        assert all(first.get(e, e) is e for edges in back[1:] for e in edges)


def test_the_family_json_text_is_the_plain_encode(capsys):
    # the distinct edges are encoded once and each member joins their
    # pairs' texts: the bytes are those of the plain encode
    for inst in (_bench_growth_instance(), InstanceNT(_subdivided(44), frozenset({1}), 2, 4, 3)):
        family, why, report = construct_family(inst)
        assert why is None
        text = _family_text(family)
        plain = [sorted(t.edges) for t in family]
        assert text == JSON_ENCODER.encode(plain)
        _emit_json(None, {"family": None, "report": report.to_json_dict()}, family=text)
        assert capsys.readouterr().out == JSON_ENCODER.encode(
            {"family": plain, "report": report.to_json_dict()}
        ) + "\n"
    k1 = Graph(1, frozenset())
    assert _family_text(Family.of(k1, [SpanningTree(k1, frozenset())])) == "[[]]"
    assert _family_text(None) is None


def test_construct_runs_no_whole_tree_union_find(monkeypatch):
    # one union-find pass over the graph (connectivity), one over the
    # family's core and one per member over its own edges: the BFS tree,
    # the grown tree and the members are spanning trees by construction
    from divtrees import graphcore, spantree

    inst = _bench_growth_instance()
    g = inst.graph
    passes = []
    for module in (graphcore, spantree, diversify):
        real = module._unite

        def spy(parent, edges, real=real):
            edges = list(edges)
            passes.append(len(edges))
            return real(parent, edges)

        monkeypatch.setattr(module, "_unite", spy)
    family, why, report = construct_family(inst)
    assert why is None and report.verdict and len(family) == 36
    core = frozenset.intersection(*(t.edges for t in family))
    assert passes == [g.m, len(core), *(len(t.edges - core) for t in family)]
    assert len(passes) == 38 and g.n - 1 not in passes


def _wrong_swap_target(plan):
    # the first block's leaf swaps to a vertex that is no host neighbour
    (v,) = plan.blocks[0]
    g = plan.tree.host
    bad = min(set(g.vertices()) - g.neighbors(v) - {v})
    return replace(plan, swap_target={**plan.swap_target, v: bad})


def _member_drops_an_edge(family):
    first = family[0]
    return [SpanningTree._unchecked(first.host, first.edges - {min(first.edges)}), *family[1:]]


@pytest.mark.parametrize(
    "name, mutate",
    [
        pytest.param("plan_swaps", _wrong_swap_target, id="wrong-swap-target"),
        pytest.param("build_diverse_family", _member_drops_an_edge, id="member-drops-an-edge"),
    ],
)
def test_a_broken_member_comes_back_as_a_reason(monkeypatch, name, mutate):
    # nothing checks the plan or the members as they are built, so a
    # broken one must be caught by the verification on the way out
    real = getattr(diversify, name)
    monkeypatch.setattr(diversify, name, lambda *args, **kwargs: mutate(real(*args, **kwargs)))
    family, why, report = construct_family(_bench_growth_instance())
    assert family is None and why == "the constructed family fails verification"
    assert not report.verdict and not report.trees[0].spanning


def _v_at_position_2(growth, vs, v, w):
    return vs, vs[2], w


def _w_the_next_tree_neighbour(growth, vs, v, w):
    return vs, v, vs[vs.index(v) + 1]


def _w_not_a_host_neighbour(growth, vs, v, w):
    host = growth.host
    return vs, v, min(set(host.vertices()) - host.neighbors(v) - {v})


def _break_growth(monkeypatch, mutate):
    real = _Growth.move
    monkeypatch.setattr(_Growth, "move", lambda self: (m := real(self)) and mutate(self, *m))


# augment_leaf checks none of its input: a growth move that breaks its
# precondition is caught by the exchange's leaf-gain checks or by the
# verification on the way out, and never comes back as a family


@pytest.mark.parametrize("mutate", [_v_at_position_2, _w_the_next_tree_neighbour])
def test_a_growth_move_that_gains_no_leaf_is_an_internal_fault(monkeypatch, mutate):
    _break_growth(monkeypatch, mutate)
    with pytest.raises(InternalInvariantError, match="edge exchange failed to gain a leaf"):
        construct_family(_bench_growth_instance())


def test_a_growth_move_off_the_host_comes_back_as_a_reason(monkeypatch):
    _break_growth(monkeypatch, _w_not_a_host_neighbour)
    family, why, report = construct_family(_bench_growth_instance())
    assert family is None and why == "the constructed family fails verification"
    assert not report.verdict


# ---------------------------------------------------------------------------
# the full construct pipeline on dense hosts

@given(
    n=st.integers(min_value=12, max_value=40),
    k=st.sampled_from([2, 4, 6, 8]),
    ell=st.sampled_from([1, 2]),
)
def test_grow_plan_build_round_trip(n, k, ell):
    g = generate("min-degree-3", (n,))
    block = -(-k // 4)
    need = block * ell
    grown = grow_leaves(arbitrary_spanning_tree(g), frozenset(), 2 * need)
    if grown.leaf_count < 2 * need:
        return
    plan = plan_swaps(grown, grown.leaves, k, ell)
    fam = build_diverse_family(plan)
    assert len(fam) == ell
    for i in range(ell):
        for j in range(i + 1, ell):
            assert len(fam[i].edges ^ fam[j].edges) == 4 * block
    assert verify_family(g, fam, p=grown.leaf_count - block, q=0, k=k).verdict


def test_family_members_build_no_tree_graph():
    # growth and planning walk the base tree's adjacency; a member's
    # leaves, counts and sorted edges come off its edge set
    g = generate("min-degree-3", (60,))
    grown = grow_leaves(arbitrary_spanning_tree(g), frozenset(), 6)
    fam = build_diverse_family(plan_swaps(grown, grown.leaves, 4, 3))
    assert verify_family(g, fam, p=0, q=0, k=4).verdict
    _family_text(fam)
    write_family(fam)
    for t in fam:
        assert support.internal_vertices(t) | t.leaves == frozenset(g.vertices())
        assert t.internal_count == g.n - t.leaf_count
    assert "adjacency" in grown.__dict__
    assert not any("adjacency" in t.__dict__ or "_graph" in t.__dict__ for t in fam)


def _required_chain_vertices(b, count):
    """Subdivided md3(b) x8 with ``count`` chain interior vertices
    required, drawn by a seeded sample, asking for 3 trees with 2
    leaves each at distance 4."""
    base = generate("min-degree-3", (b,))
    g = generate("subdivided", (base, 8))
    nt = frozenset(random.Random(0).sample(range(base.n + 1, g.n + 1), count))
    return InstanceNT(g, nt, 2, 4, 3)


@pytest.mark.parametrize("b, count", [(44, 4), (44, 16), (176, 4), (176, 16)])
def test_required_chain_vertices_seed_construct_and_the_kernel_with_no_enumeration(monkeypatch, b, count):
    # the first tree leaves a required vertex a leaf, and at n = 2,024
    # the enumeration runs out of its default budget before a tree that
    # fits; the union-find passes build one, so no tree is enumerated.  At
    # n = 506 the reduced instance is already below R5nt's bound, so
    # no subroutine kernel is asked
    from divtrees import blackbox, kernelize, ntst_kernel, spantree

    inst = _required_chain_vertices(b, count)
    g = inst.graph
    first = []
    _unite(list(range(g.n + 1)), g._edge_order, first)
    assert inst.nonterminals & spantree._leaves(g.n, first)

    def refuse(*args):
        raise AssertionError("a tree was enumerated")

    monkeypatch.setattr(spantree, "_tree_leaves", refuse)
    monkeypatch.setattr(blackbox, "_tree_leaves", refuse)
    family, why, report = construct_family(inst)
    assert why is None and report.verdict and len(family) == 3
    result = kernelize(inst, blackbox=ntst_kernel)
    if b == 176:
        assert result.outcome == "delegated" and result.instance == blackbox._NTST_YES
    else:
        assert result.outcome == "reduced"


# ---------------------------------------------------------------------------
# every way construct_family gives up: a reason, with no family or report

@pytest.mark.parametrize(
    "inst, limits, reason",
    [
        pytest.param(
            Instance(Graph(4, frozenset({(1, 2), (3, 4)})), 0, 0, 1, 1),
            {},
            "graph is disconnected",
            id="disconnected",
        ),
        pytest.param(
            InstanceNT(support.path_graph(4), frozenset({1}), 0, 1, 1),
            {},
            "no spanning tree keeps the required vertices internal",
            id="no-seed",
        ),
        pytest.param(
            InstanceNT(generate("min-degree-3", (12,)), frozenset(range(1, 13)), 0, 1, 1),
            {"budget": 5},
            "seed search exhausted its budget",
            id="seed-budget",
        ),
        pytest.param(
            Instance(support.cycle_graph(100), 0, 0, 2, 2),
            {},
            "growth stalled at 2 leaves",
            id="growth",
        ),
        pytest.param(
            Instance(generate("twin-pendant-gadget", (support.cycle_graph(6), 10)), 0, 0, 8, 3),
            {},
            "swap planning failed: only 0 conflict-free leaves, need 6; "
            "supply at least 12 leaves to guarantee success",
            id="planning",
        ),
    ],
)
def test_construct_family_failure_reasons(inst, limits, reason):
    family, why, report = construct_family(inst, **limits)
    assert family is None and report is None
    assert why == reason


def test_lnt_seed_is_the_passes_tree_else_the_first_fitting_enumerated_one(monkeypatch):
    seeds = []
    grow = diversify.grow_leaves

    def spy(start, nt, target):
        seeds.append(sorted(start.edges))
        return grow(start, nt, target)

    monkeypatch.setattr(diversify, "grow_leaves", spy)
    # md3(12) with 1..8 required: the first tree leaves 6, 7 and 8 leaves, and
    # pass 2 of the finder builds one that fits (the enumeration's first
    # such tree is its 95th).  A budget of one tree admits only the
    # enumeration's first, so the passes do not run
    inst = InstanceNT(generate("min-degree-3", (12,)), frozenset(range(1, 9)), 0, 1, 1)
    _, why, _ = construct_family(inst, budget=2)
    assert why == "growth stalled at 4 leaves; the graph has fewer than 308 vertices"
    assert seeds == [[(1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (4, 10),
                      (5, 6), (5, 11), (6, 12), (7, 8), (8, 9)]]
    assert construct_family(inst, budget=1)[1] == "seed search exhausted its budget"
    # C4 on 1-2-4-3 plus the chord (1, 4), with 1 and 4 required: the
    # passes find no tree and no proof, so the seed is the first fitting
    # enumerated tree, the 4th; the passes' second tree is charged to
    # the budget, so the enumeration gets one tree less
    g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    inst = InstanceNT(g, frozenset({1, 4}), 0, 1, 1)
    assert construct_family(inst, budget=5)[1].startswith("growth stalled at 2 leaves")
    assert seeds[1] == [(1, 2), (1, 4), (3, 4)]
    assert construct_family(inst, budget=4)[1] == "seed search exhausted its budget"
    assert len(seeds) == 2
