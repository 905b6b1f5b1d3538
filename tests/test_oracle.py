import hashlib
import itertools
import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    OracleLimits,
    OracleVerdict,
    SpanningTree,
    count_spanning_trees,
    generate,
    solve,
    solve_li,
    solve_lnt,
    verify_family,
)
from divtrees import oracle
from divtrees.kernelizer import JSON_ENCODER
from divtrees.oracle import (
    OracleStats,
    _diversity_rows,
    _find_clique,
    _first_clique,
    _first_clique_unbuilt,
    _max_distance_sum,
)
from divtrees.spantree import enumerate_tree_masks


def li(g, p, q, k, ell):
    return Instance(graph=g, p=p, q=q, k=k, ell=ell)


def lnt(g, nt, p, k, ell):
    return InstanceNT(graph=g, nonterminals=frozenset(nt), p=p, k=k, ell=ell)


def test_limits_and_verdict_validation():
    with pytest.raises(ValueError, match="positive"):
        OracleLimits(max_trees=0)
    with pytest.raises(ValueError, match="unknown answer"):
        OracleVerdict(answer="maybe", witness=None, stats=OracleStats(0, 0))
    with pytest.raises(ValueError, match="must carry a witness"):
        OracleVerdict(answer="yes", witness=None, stats=OracleStats(0, 0))


# ---------------------------------------------------------------------------
# pinned verdicts on hand-checked instances

C5 = support.cycle_graph(5)
C4 = support.cycle_graph(4)
K4 = support.complete_graph(4)
P4 = support.path_graph(4)
K1 = Graph(n=1, edges=frozenset())
SPLIT = Graph(n=3, edges=frozenset({(1, 2)}))


@pytest.mark.parametrize(
    "inst, answer",
    [
        # a path has exactly one spanning tree: itself
        (li(P4, 2, 2, 1, 1), "yes"),
        (li(P4, 2, 2, 1, 2), "no"),
        (li(P4, 3, 0, 1, 1), "no"),
        # C5 trees are the 5 hamiltonian paths, pairwise distance 2
        (li(C5, 2, 3, 2, 5), "yes"),
        (li(C5, 2, 3, 2, 6), "no"),
        (li(C5, 0, 0, 3, 2), "no"),
        (li(C5, 3, 0, 1, 1), "no"),
        # K4: 4 stars (3 leaves) and 12 paths (2 leaves, 2 internal)
        (li(K4, 3, 1, 4, 2), "yes"),
        (li(K4, 3, 1, 6, 2), "no"),
        (li(K4, 2, 2, 1, 12), "yes"),
        (li(K4, 2, 2, 1, 13), "no"),
        # two edge-disjoint spanning trees exist, three cannot
        (li(K4, 0, 0, 6, 2), "yes"),
        (li(K4, 0, 0, 6, 3), "no"),
        # the lone vertex of K1 has degree 0, hence counts as internal
        (li(K1, 0, 1, 1, 1), "yes"),
        (li(K1, 1, 0, 1, 1), "no"),
        # K1 has no edges for the distance bound to spread trees over
        (li(K1, 0, 0, 3, 2), "no"),
        (li(SPLIT, 0, 0, 1, 1), "no"),
    ],
)
def test_li_pinned_answers(inst, answer):
    verdict = solve_li(inst)
    assert verdict.answer == answer


@pytest.mark.parametrize(
    "inst, answer",
    [
        (lnt(support.path_graph(3), {2}, 2, 1, 1), "yes"),
        (lnt(support.path_graph(3), {1}, 0, 1, 1), "no"),
        # C4 trees keeping 1 internal: drop (2,3) or (3,4); distance 2
        (lnt(C4, {1}, 2, 2, 2), "yes"),
        (lnt(C4, {1}, 0, 2, 3), "no"),
        # every C4 tree is a path with two of the four vertices as leaves
        (lnt(C4, {1, 3}, 0, 1, 1), "no"),
        (lnt(SPLIT, set(), 0, 1, 1), "no"),
    ],
)
def test_lnt_pinned_answers(inst, answer):
    verdict = solve_lnt(inst)
    assert verdict.answer == answer


def test_solve_dispatches_on_instance_type():
    assert solve(li(P4, 2, 2, 1, 1)).answer == "yes"
    assert solve(lnt(C4, {1, 3}, 0, 1, 1)).answer == "no"


# ---------------------------------------------------------------------------
# witnesses and stats

def test_yes_verdicts_carry_verified_witnesses():
    verdict = solve_li(li(K4, 3, 1, 4, 2))
    assert verdict.witness is not None and len(verdict.witness) == 2
    assert all(isinstance(t, SpanningTree) for t in verdict.witness)
    assert verify_family(K4, verdict.witness, 3, 1, 4).verdict
    nt_verdict = solve_lnt(lnt(C4, {1}, 2, 2, 2))
    assert nt_verdict.witness is not None
    assert verify_family(C4, nt_verdict.witness, 2, 0, 2, nt=frozenset({1})).verdict


def test_no_verdicts_have_no_witness_but_full_stats():
    verdict = solve_li(li(C5, 0, 0, 3, 2))
    assert verdict.witness is None
    assert verdict.stats.trees_enumerated == 5
    assert json.loads(JSON_ENCODER.encode(verdict.stats)) == asdict(verdict.stats) == {
        "trees_enumerated": 5,
        "clique_nodes": verdict.stats.clique_nodes,
    }


def test_fast_path_stops_early():
    # k <= 2: distinct trees are automatically far enough apart
    verdict = solve_li(li(K4, 0, 0, 2, 3))
    assert verdict.answer == "yes"
    assert verdict.stats.trees_enumerated <= 4


# ---------------------------------------------------------------------------
# budget exhaustion

def test_tree_budget_gives_inconclusive():
    verdict = solve_li(li(C5, 0, 0, 3, 2), OracleLimits(max_trees=2))
    assert verdict.answer == "inconclusive"
    assert verdict.witness is None


def test_clique_budget_gives_inconclusive():
    # 16 candidate trees, so even the pair matrix blows a budget of 1
    assert solve_li(li(K4, 0, 0, 6, 2)).answer == "yes"
    verdict = solve_li(li(K4, 0, 0, 6, 2), OracleLimits(max_clique_nodes=1))
    assert verdict.answer == "inconclusive"


K7 = support.complete_graph(7)


def test_a_pool_past_the_pair_guard_is_searched_without_rows():
    # K7's 16,807 trees give 141M pairs, past the 5M node budget: three
    # pairwise edge-disjoint trees turn up after 1.7M pair tests
    verdict = solve_li(li(K7, 0, 0, 12, 3))
    assert verdict.answer == "yes"
    assert verify_family(K7, verdict.witness, 0, 0, 12).verdict
    assert verdict.stats == OracleStats(16807, 1698044)


def test_a_budget_short_of_the_search_without_rows_is_inconclusive():
    verdict = solve_li(li(K7, 0, 0, 12, 3), OracleLimits(max_clique_nodes=1_000_000))
    assert verdict.answer == "inconclusive" and verdict.witness is None
    assert 0 < verdict.stats.clique_nodes <= 1_000_000


def test_distance_bound_answers_before_the_clique_budget():
    # three trees of K4 use 9 edge slots on 6 edges: the distance sums
    # reach at most 12, short of the 18 that k = 6 needs
    verdict = solve_li(li(K4, 0, 0, 6, 3), OracleLimits(max_clique_nodes=1))
    assert verdict.answer == "no"
    assert verdict.stats.clique_nodes == 0


def test_early_yes_survives_tiny_tree_budget():
    verdict = solve_li(li(K4, 0, 0, 1, 2), OracleLimits(max_trees=2))
    assert verdict.answer == "yes"


# ---------------------------------------------------------------------------
# the distance-sum bound

def test_max_distance_sum_pins():
    # each is short of C(4, 2) * 2 ceil(k/2) for the k named
    assert _max_distance_sum(6, 15, 4) == 50  # K6, k = 10 needs 60
    md10 = generate("min-degree-3", (10,))
    assert (md10.n, md10.m) == (10, 15)
    assert _max_distance_sum(10, 15, 4) == 54  # md10, k = 10 needs 60
    assert _max_distance_sum(7, 21, 4) == 66  # K7, k = 12 needs 72
    assert _max_distance_sum(1, 0, 3) == 0  # K1 has no edge
    assert _max_distance_sum(2, 1, 3) == 0  # K2 has one tree


@given(g=support.connected_graphs(min_n=2, max_n=8, max_extra=4), data=st.data())
def test_distance_bound_is_sound(g, data):
    masks = list(enumerate_tree_masks(g))
    ell = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(3, 2 * g.n))
    bound = _max_distance_sum(g.n, g.m, ell)
    family = data.draw(st.lists(st.sampled_from(masks), min_size=ell, max_size=ell))
    assert sum((a ^ b).bit_count() for a, b in itertools.combinations(family, 2)) <= bound
    if bound < ell * (ell - 1) * ((k + 1) // 2):
        clique, _, exhausted = _find_clique(masks, k, ell, 10**7)
        assert exhausted and clique is None


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize(
    "g", [support.complete_graph(6), generate("min-degree-3", (10,))], ids=["K6", "md10"]
)
def test_distance_bound_skips_the_search_after_full_enumeration(g, p):
    verdict = solve_li(li(g, p, 0, 10, 4))
    assert verdict.answer == "no"
    assert verdict.stats.clique_nodes == 0
    assert verdict.stats.trees_enumerated == count_spanning_trees(g)


# ---------------------------------------------------------------------------
# structural verdict invariances

@given(
    g=support.connected_graphs(min_n=2, max_n=6, max_extra=3),
    p=st.integers(0, 3),
    q=st.integers(0, 3),
    k=st.sampled_from([1, 3, 5]),
    ell=st.integers(1, 3),
)
def test_odd_k_rounds_up(g, p, q, k, ell):
    # tree distances are even, so k and k+1 screen identically
    a = solve_li(li(g, p, q, k, ell))
    b = solve_li(li(g, p, q, k + 1, ell))
    assert a.answer == b.answer


@given(
    g=support.connected_graphs(min_n=2, max_n=6, max_extra=3),
    p=st.integers(0, 3),
    k=st.sampled_from([1, 2, 4, 7]),
)
def test_single_tree_requests_ignore_k(g, p, k):
    base = solve_li(li(g, p, 1, 1, 1))
    assert solve_li(li(g, p, 1, k, 1)).answer == base.answer
    marked = frozenset({1})
    nt_base = solve_lnt(lnt(g, marked, p, 1, 1))
    assert solve_lnt(lnt(g, marked, p, k, 1)).answer == nt_base.answer


# ---------------------------------------------------------------------------
# golden hashes over the clique search's answers
#
# One SHA-256 per problem over (answer, trees enumerated, witness edge
# masks) on a seeded corpus with k >= 3 and ell >= 3, so every
# instance with enough candidates reaches the clique search.  The
# search's node count is left out: it measures the search, not its
# result.  A rewrite of the oracle's inner layers must leave both
# hashes unchanged.

ORACLE_GOLDEN = {
    "li": "37f96cf29ec08f4428f968665f4c67582d527b58542527666bdc8b7a6b15f752",
    "lnt": "ac994ecd1ee9328ea6f600177ebf149b611b394d7d89bba0f530601c56118e38",
}


def _oracle_corpus(problem):
    """(instance, limits) pairs: random small graphs, then two md8 cases
    whose search runs long, one of them cut short by the tree budget."""
    rng = random.Random({"li": 1, "lnt": 2}[problem])
    for _ in range(300):
        n = rng.randint(5, 8)
        m = rng.randint(n, min(n * (n - 1) // 2, n + 6))
        g = generate("random-connected", (n, m), seed=rng.randrange(2**30))
        k = rng.randint(3, 2 * (n - 1))
        ell = rng.randint(3, 5)
        p = rng.randint(0, 3)
        if problem == "li":
            inst = li(g, p, rng.randint(0, 3), k, ell)
        else:
            inst = lnt(g, rng.sample(range(1, n + 1), rng.randint(0, 2)), p, k, ell)
        yield inst, OracleLimits()
    md8 = generate("min-degree-3", (8,))
    extra = li(md8, 3, 0, 8, 4) if problem == "li" else lnt(md8, {1}, 0, 8, 4)
    yield extra, OracleLimits()
    yield extra, OracleLimits(max_trees=100)


def _oracle_records(problem):
    records = []
    for inst, limits in _oracle_corpus(problem):
        verdict = solve(inst, limits)
        index = {e: i for i, e in enumerate(inst.graph.sorted_edges())}
        masks = None
        if verdict.witness is not None:
            masks = [sum(1 << index[e] for e in t.edges) for t in verdict.witness]
        records.append((verdict.answer, verdict.stats.trees_enumerated, masks, verdict.stats.clique_nodes))
    return records


@pytest.mark.parametrize("problem", ["li", "lnt"])
def test_oracle_golden(problem):
    records = _oracle_records(problem)
    # yes from the greedy pass, yes only from the search, no after a
    # search, no without one, and a search over a tree budget's partial pool
    classes = {(a, nodes > 0) for a, _, _, nodes in records}
    assert classes == {("yes", False), ("yes", True), ("no", False), ("no", True), ("inconclusive", True)}
    pinned = [r[:3] for r in records]
    text = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_GOLDEN[problem]


# ---------------------------------------------------------------------------
# the order the oracle hands its candidates on in
#
# A witness is the first clique by candidate index, so the candidate
# order is part of every pinned witness.  The reference: the fitting
# trees of the enumeration, most leaves first, then the lower mask;
# on the fast path, the first ell fitting trees as enumerated.

def _fitting(inst, limit=None):
    """(-leaf count, mask) of each fitting tree among the first
    ``limit``, in enumeration order; sorted, it is the reference order."""
    g, nt = inst.graph, inst.nonterminals
    pool = []
    for mask in itertools.islice(enumerate_tree_masks(g), limit):
        t = SpanningTree.from_mask(g, mask)
        if t.leaf_count >= inst.p and t.internal_count >= inst.q and nt <= support.internal_vertices(t):
            pool.append((-t.leaf_count, mask))
    return pool


def _witness_masks(inst, verdict):
    index = {e: i for i, e in enumerate(inst.graph.sorted_edges())}
    return [sum(1 << index[e] for e in t.edges) for t in verdict.witness]


def _random_oracle_instance(rng, k_floor):
    n = rng.randint(3, 8)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 5))
    g = generate("random-connected", (n, m), seed=rng.randrange(2**30))
    k = rng.randint(k_floor, 2 * (n - 1))
    ell = rng.randint(1, 4)
    p = rng.randint(0, 3)
    if rng.random() < 0.5:
        return li(g, p, rng.randint(0, 3), k, ell)
    return lnt(g, rng.sample(range(1, n + 1), rng.randint(0, 2)), p, k, ell)


def test_clique_search_sees_most_leaves_first_then_lower_masks(monkeypatch):
    seen = []
    real = oracle._find_clique

    def spy(cands, k, ell, budget):
        seen.append(list(cands))
        return real(seen[-1], k, ell, budget)

    monkeypatch.setattr(oracle, "_find_clique", spy)
    rng = random.Random(5)
    searched = 0
    for _ in range(400):
        inst = _random_oracle_instance(rng, 3)
        seen.clear()
        solve(inst)
        if seen:
            assert seen == [[mask for _, mask in sorted(_fitting(inst))]]
            searched += 1
    assert searched > 50
    # a pool cut short by the tree budget is ordered the same way
    md8 = generate("min-degree-3", (8,))
    for inst in (li(md8, 3, 0, 8, 4), lnt(md8, {1}, 0, 8, 4)):
        seen.clear()
        assert solve(inst, OracleLimits(max_trees=100)).answer == "inconclusive"
        pool = _fitting(inst, 100)
        assert len(pool) > 4
        assert seen == [[mask for _, mask in sorted(pool)]]


def test_fast_path_witness_is_the_first_fitting_trees():
    rng = random.Random(6)
    answered = 0
    for _ in range(300):
        inst = _random_oracle_instance(rng, 1)
        if inst.k > 2 and inst.ell > 1:
            continue
        verdict = solve(inst)
        first = [mask for _, mask in _fitting(inst)][: inst.ell]
        if len(first) < inst.ell:
            assert verdict.answer == "no"
            continue
        assert _witness_masks(inst, verdict) == first
        answered += 1
    assert answered > 50


# ---------------------------------------------------------------------------
# the clique search against brute force

def _random_masks(rng, least=0):
    """``least`` to 14 masks with one bit count, as the trees of one graph have."""
    width = rng.randint(2, 9)
    size = rng.randint(1, width - 1)
    return [
        sum(1 << b for b in rng.sample(range(width), size))
        for _ in range(rng.randint(least, 14))
    ], size


def _far(a, b, k):
    return (a ^ b).bit_count() >= k


def _brute_clique(cands, k, ell):
    for combo in itertools.combinations(range(len(cands)), ell):
        if all(_far(cands[i], cands[j], k) for i, j in itertools.combinations(combo, 2)):
            return list(combo)
    return None


def test_diversity_rows_match_pairwise_distances():
    rng = random.Random(3)
    for _ in range(400):
        cands, size = _random_masks(rng)
        for k in range(1, 2 * size + 3):
            rows = _diversity_rows(cands, k)
            assert rows == [
                sum(1 << j for j, b in enumerate(cands) if j != i and _far(a, b, k))
                for i, a in enumerate(cands)
            ]
            if k > 2 * size:
                assert not any(rows)


def _spent():
    raise AssertionError("the search read past its greedy clique")
    yield


def test_find_clique_matches_brute_force():
    # given the pool as a list or as an iterator, read once
    rng = random.Random(4)
    searched = {"yes": 0, "no": 0, "greedy": 0}
    for _ in range(1200):
        cands, size = _random_masks(rng, least=4)
        k = rng.randint(1, 2 * size)
        ell = rng.randint(1, 5)
        clique, nodes, exhausted = _find_clique(cands, k, ell, 10**6)
        assert exhausted
        assert clique == _brute_clique(cands, k, ell)
        assert _find_clique(iter(cands), k, ell, 10**6) == (clique, nodes, exhausted)
        if clique is not None and nodes == 0:
            # a greedy clique reads no mask past its last member
            searched["greedy"] += 1
            prefix = itertools.chain(cands[: clique[-1] + 1], _spent())
            assert _find_clique(prefix, k, ell, 10**6) == (clique, 0, True)
        if nodes > 1:
            # the greedy pass failed and the search needed more than one node
            searched["yes" if clique else "no"] += 1
            assert _find_clique(cands, k, ell, 1) == (None, 0, False)
            assert _find_clique(iter(cands), k, ell, 1) == (None, 0, False)
            # the node budget bounds the search itself, to the node
            adj, pool = _diversity_rows(cands, k), (1 << len(cands)) - 1
            found, tried, done = _first_clique(adj, pool, ell, 10**6)
            assert done and found == clique
            assert _first_clique(adj, pool, ell, tried - 1) == (None, tried, False)
            assert _first_clique(adj, pool, ell, tried) == (found, tried, True)
    assert searched["no"] > 50 and searched["yes"] > 10 and searched["greedy"] > 100


def test_the_ranking_sorts_a_bucket_only_when_its_reading_reaches_it():
    buckets = [[5, 3], [9, 1, 4], [8, 2]]
    ranking = oracle._Ranking(buckets)
    assert len(ranking) == 7
    assert list(itertools.islice(ranking, 3)) == [3, 5, 1]
    assert buckets == [[3, 5], [1, 4, 9], [8, 2]]
    assert list(ranking) == [3, 5, 1, 4, 9, 2, 8]


def test_the_k7_search_reads_six_of_its_candidates(monkeypatch):
    """li K7 with p = q = 2, k = 4 and ell = 3: the greedy pass finds
    masks 0, 2 and 5 of the 630 with five leaves, so the search reads
    six of the 16,800 candidates."""
    read, sizes = [], []
    real = oracle._find_clique

    def spy(cands, k, ell, budget):
        sizes.append(len(cands))

        def counted():
            for mask in cands:
                read.append(mask)
                yield mask

        return real(counted(), k, ell, budget)

    monkeypatch.setattr(oracle, "_find_clique", spy)
    verdict = solve(li(support.complete_graph(7), 2, 2, 4, 3))
    assert (verdict.answer, verdict.stats) == ("yes", OracleStats(16807, 0))
    assert (len(read), sizes) == (6, [16800])


def test_the_unbuilt_search_finds_the_first_clique():
    # the lexicographically first clique, the one the row search finds,
    # and a budget that bounds its pair tests to the test
    rng = random.Random(8)
    for _ in range(600):
        cands, size = _random_masks(rng, least=2)
        k, ell = rng.randint(1, 2 * size), rng.randint(2, 5)
        clique, tests, exhausted = _first_clique_unbuilt(cands, k, ell, 10**6)
        assert exhausted and clique == _brute_clique(cands, k, ell)
        assert _first_clique_unbuilt(cands, k, ell, tests) == (clique, tests, True)
        if tests:
            short = _first_clique_unbuilt(cands, k, ell, tests - 1)
            assert short[0] is None and short[1] < tests and not short[2]


def test_find_clique_pins_on_md10(monkeypatch):
    """The clique layer on a whole pool: md10's 1,815 trees in the
    oracle's order, past the greedy pass in both answers."""
    md10 = generate("min-degree-3", (10,))
    masks = [mask for _, mask in sorted(_fitting(li(md10, 0, 0, 1, 1)))]
    assert len(masks) == 1815
    assert _find_clique(masks, 8, 8, 10**7) == ([0, 3, 7, 58, 103, 784, 1605, 1788], 21, True)
    assert _find_clique(masks, 12, 4, 10**7) == (None, 28297, True)
    # a pool with more pairs than the node budget builds no rows; its
    # search counts pair tests and finds the same clique
    built = []
    monkeypatch.setattr(oracle, "_diversity_rows", lambda *args: built.append(args))
    found = _find_clique(masks, 8, 8, 1815 * 1814 // 2 - 1)
    assert found == ([0, 3, 7, 58, 103, 784, 1605, 1788], 3992, True)
    assert built == []
