import dataclasses
import random
from functools import partial
from itertools import combinations, islice

import pytest
from hypothesis import given, strategies as st

import support
from divtrees import (
    Graph,
    GraphFormatError,
    Instance,
    InstanceNT,
    InternalInvariantError,
    generate,
    maximal_degree2_paths,
    pendant_vertices,
    enumerate_spanning_trees,
    read_edge_set_family,
    read_graph,
    read_instance,
    write_family,
    write_graph,
    write_instance,
)
from divtrees.graphcore import _bfs_parents, _ContentLines, _path_through, _unite
from divtrees.spantree import Family, _acyclic


# ---------------------------------------------------------------------------
# construction and validation

def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, frozenset({(2, 2)}))


def test_graph_rejects_unnormalized_edge():
    with pytest.raises(ValueError, match="not normalized"):
        Graph(3, frozenset({(3, 1)}))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, frozenset({(1, 4)}))


def test_graph_needs_a_vertex():
    with pytest.raises(ValueError):
        Graph(0, frozenset())


def test_from_edges_normalizes_and_rejects_duplicates():
    g = Graph.from_edges(3, [(3, 1), (1, 2)])
    assert g.edges == frozenset({(1, 3), (1, 2)})
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(1, 2), (2, 1)])


def test_basic_queries():
    g = support.path_graph(4)
    assert g.m == 3
    assert list(g.vertices()) == [1, 2, 3, 4]
    assert g.neighbors(2) == frozenset({1, 3})
    assert g.degree(1) == 1
    assert (1, 2) in g.edges and (1, 3) not in g.edges
    assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4)]


def test_connectivity_and_tree_checks():
    assert Graph(1, frozenset()).is_connected
    assert support.path_graph(5).is_tree()
    assert not support.cycle_graph(5).is_tree()
    split = Graph(4, frozenset({(1, 2), (3, 4)}))
    assert not split.is_connected
    assert not split.is_tree()


def _reachable_from_1(g):
    return len(_bfs_parents(g.adjacency, 1)) == g.n


def _random_graphs(seed, count=300):
    """Seeded random graphs of every density, many of them disconnected."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        pairs = list(combinations(range(1, n + 1), 2))
        yield Graph(n, frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))))


@pytest.mark.parametrize(
    "g, connected",
    [
        (Graph(1, frozenset()), True),
        (Graph(2, frozenset()), False),
        (Graph(5, frozenset({(1, 2), (3, 4)})), False),  # m < n - 1
        # K4 plus an isolated vertex: m = 6 >= n - 1 = 4, still split
        (Graph(5, frozenset(combinations(range(1, 5), 2))), False),
        # only high ids are joined, so vertex 1 is isolated
        (Graph(6, frozenset(combinations(range(2, 7), 2))), False),
        (support.cycle_graph(7), True),
    ],
    ids=["K1", "two-isolated", "few-edges", "K4-plus-isolated", "1-isolated", "cycle"],
)
def test_connectivity_matches_bfs_reachability(g, connected):
    assert g.is_connected is connected
    assert "adjacency" not in vars(g)  # the answer reads only the edges
    assert _reachable_from_1(g) is connected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_connectivity_matches_bfs_reachability_on_random_graphs(seed):
    graphs = list(_random_graphs(seed))
    assert any(g.is_connected for g in graphs) and not all(g.is_connected for g in graphs)
    for g in graphs:
        assert g.is_connected == _reachable_from_1(g), g


def _components(g):
    seen, count = set(), 0
    for v in g.vertices():
        if v not in seen:
            seen.update(_bfs_parents(g.adjacency, v))
            count += 1
    return count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unite_skips_the_edges_past_a_spanning_forest(seed):
    # c components keep n - c edges of a spanning forest, so the other
    # m - n + c close cycles; the edges are a forest exactly when none do
    seen = dict.fromkeys(["K1", "few-edges", "split-with-cycle", "1-isolated"], 0)
    for g in [Graph(1, frozenset()), *_random_graphs(seed)]:
        c = _components(g)
        assert _unite(list(range(g.n + 1)), g.edges) == g.m - g.n + c
        assert _acyclic(g.n, (e for e in g.sorted_edges())) is (g.m - g.n + c == 0)
        seen["K1"] += g.n == 1
        seen["few-edges"] += g.m < g.n - 1
        seen["split-with-cycle"] += c > 1 and g.m - g.n + c > 0
        seen["1-isolated"] += g.n > 1 and not g.adjacency[1]
    assert all(seen.values()), seen


def test_instance_validation():
    g = support.cycle_graph(4)
    with pytest.raises(ValueError):
        Instance(g, -1, 0, 1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        Instance(g, 0, -1, 1, 1)
    with pytest.raises(ValueError):
        Instance(g, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        Instance(g, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="out of range"):
        InstanceNT(g, frozenset({9}), 0, 1, 1)
    with pytest.raises(ValueError, match="p must be non-negative"):
        InstanceNT(g, frozenset(), -1, 1, 1)
    with pytest.raises(ValueError, match="k and ell must be at least 1"):
        InstanceNT(g, frozenset(), 0, 0, 1)


def test_both_instance_types_answer_the_same_reads():
    g = support.cycle_graph(5)
    li = Instance(g, 1, 2, 3, 2)
    lnt = InstanceNT(g, frozenset({2, 4}), 1, 3, 2)
    assert (li.problem, lnt.problem) == ("li", "lnt")
    assert li.nonterminals == frozenset()
    assert lnt.q == 0
    assert (li.q, lnt.nonterminals) == (2, frozenset({2, 4}))


def test_instance_fields_stay_put():
    # the shared reads are properties and class attributes, not fields,
    # so equality, hashing and JSON keep to the fields below
    names = [f.name for f in dataclasses.fields(Instance)]
    assert names == ["graph", "p", "q", "k", "ell"]
    names = [f.name for f in dataclasses.fields(InstanceNT)]
    assert names == ["graph", "nonterminals", "p", "k", "ell"]
    g = support.cycle_graph(4)
    assert sorted(Instance(g, 0, 1, 1, 1).to_json_dict()) == [
        "edges", "ell", "k", "n", "p", "problem", "q"
    ]
    assert sorted(InstanceNT(g, frozenset({1}), 0, 1, 1).to_json_dict()) == [
        "edges", "ell", "k", "n", "nonterminals", "p", "problem"
    ]


def test_pendant_vertices():
    g = support.with_pendants(support.cycle_graph(3), [1, 1, 2])
    assert pendant_vertices(g) == frozenset({4, 5, 6})
    assert pendant_vertices(support.cycle_graph(4)) == frozenset()


# ---------------------------------------------------------------------------
# degree-2 paths

def test_paths_on_a_path_graph():
    paths = maximal_degree2_paths(support.path_graph(5))
    assert paths == [(1, 2, 3, 4, 5)]
    assert len(paths[0]) - 1 == 4
    assert paths[0][0] != paths[0][-1]
    assert paths[0][1:-1] == (2, 3, 4)


def test_paths_on_a_bare_cycle():
    (p,) = maximal_degree2_paths(support.cycle_graph(5))
    assert p == (1, 2, 3, 4, 5, 1)
    assert p[0] == p[-1] and len(p) - 1 == 5


def test_paths_on_theta_graph():
    g = generate("theta", (2, 2, 3))
    paths = maximal_degree2_paths(g)
    assert paths == [(1, 3, 2), (1, 4, 2), (1, 5, 6, 2)]


def test_forbidden_vertex_becomes_an_anchor():
    (p,) = maximal_degree2_paths(support.cycle_graph(5), frozenset({3}))
    assert p == (3, 2, 1, 5, 4, 3)
    assert p[0] == p[-1]
    assert 3 not in p[1:-1]


@given(support.connected_graphs(min_n=3, max_n=10))
def test_every_allowed_degree2_vertex_is_internal_once(g):
    paths = maximal_degree2_paths(g)
    interior = {v for v in g.vertices() if g.degree(v) == 2}
    # on a bare cycle the anchor is degree 2 yet serves as both endpoints
    covered = set(interior)
    if len(interior) == g.n:
        covered.discard(1)
    seen: list[int] = []
    for p in paths:
        for x in p[1:-1]:
            assert g.degree(x) == 2
            seen.append(x)
    assert sorted(seen) == sorted(covered)


_SCAN_GRAPHS = st.one_of(
    support.connected_graphs(min_n=3, max_n=12),
    st.integers(3, 12).map(support.cycle_graph),
    st.builds(
        lambda base, factor: generate("subdivided", (base, factor)),
        support.connected_graphs(min_n=2, max_n=6),
        st.integers(2, 4),
    ),
)


def _assert_scan_is_the_anchor_walk(g, forbidden):
    want = support.reference_degree2_paths(g, forbidden)
    assert maximal_degree2_paths(g, forbidden) == want, (g, forbidden)
    # the scan's answer does not depend on the key order of the adjacency
    reverse = dict(reversed(g.adjacency.items()))
    assert maximal_degree2_paths(g, forbidden, adj=reverse) == want, (g, forbidden)


@given(_SCAN_GRAPHS, st.data())
def test_scan_matches_the_anchor_walk(g, data):
    drawn = frozenset(data.draw(st.sets(st.integers(1, g.n), min_size=1, max_size=3)))
    for forbidden in (frozenset(), drawn):
        _assert_scan_is_the_anchor_walk(g, forbidden)


def test_scan_matches_the_anchor_walk_on_the_golden_corpora():
    from test_golden import _corpus

    for problem in ("li", "lnt"):
        for inst, _ in _corpus(problem):
            if inst.graph.is_connected:
                _assert_scan_is_the_anchor_walk(inst.graph, inst.nonterminals)


def test_scan_matches_the_anchor_walk_on_named_shapes():
    hanging = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
    shapes = {
        "cycle off a degree-3 vertex": (hanging, [(3, 4, 5, 6, 3), (1, 2, 3)]),
        "bare cycle": (support.cycle_graph(6), [(1, 2, 3, 4, 5, 6, 1)]),
        "theta": (generate("theta", (2, 3, 4)), [(1, 3, 2), (1, 4, 5, 2), (1, 6, 7, 8, 2)]),
        "path": (support.path_graph(5), [(1, 2, 3, 4, 5)]),
        "K1": (Graph(1, frozenset()), []),
        "K2": (support.complete_graph(2), []),
        "K3": (support.complete_graph(3), [(1, 2, 3, 1)]),
    }
    for name, (g, want) in shapes.items():
        assert maximal_degree2_paths(g) == sorted(want), name
        for forbidden in [frozenset(), *({v} for v in g.vertices())]:
            _assert_scan_is_the_anchor_walk(g, frozenset(forbidden))
    # a bare cycle with one forbidden vertex is one closed path anchored there
    assert maximal_degree2_paths(support.cycle_graph(6), frozenset({4})) == [(4, 3, 2, 1, 6, 5, 4)]


@given(_SCAN_GRAPHS, st.data())
def test_path_through_matches_the_scan(g, data):
    # the pendant pass and leaf growth walk one path at a time, and each
    # must be the anchor walk's path through that vertex
    drawn = frozenset(data.draw(st.sets(st.integers(1, g.n), min_size=1, max_size=3)))
    adj = g.adjacency
    for forbidden in (frozenset(), drawn):
        holder = {x: p for p in support.reference_degree2_paths(g, forbidden) for x in p[1:-1]}
        allowed = [x for x in g.vertices() if len(adj[x]) == 2 and x not in forbidden]
        bare = len(allowed) == g.n
        for x in allowed:
            got = _path_through(adj, forbidden, x)
            assert got is None if bare else got == holder[x], (g, forbidden, x)


# ---------------------------------------------------------------------------
# contraction and deletion

def test_contract_path_edge_on_c4():
    g = support.cycle_graph(4)
    (p,) = maximal_degree2_paths(g)
    g2, rename = support.contract_edge(g, p[1], p[2])
    assert g2 == support.cycle_graph(3)
    # dropped vertex maps to the merged one
    assert rename[p[2]] == rename[p[1]]


def test_contract_rejects_closed_triangle():
    g = support.cycle_graph(3)
    (p,) = maximal_degree2_paths(g)
    with pytest.raises(ValueError, match="parallel"):
        support.contract_edge(g, p[1], p[2])


def test_contract_renumbers_contiguously():
    g = support.path_graph(6)
    (p,) = maximal_degree2_paths(g)
    g2, rename = support.contract_edge(g, p[1], p[2])
    assert g2.n == 5 and g2.is_tree()
    assert sorted(rename[v] for v in range(1, 7)) == [1, 2, 2, 3, 4, 5]


def test_delete_vertex_compacts_ids():
    g = support.cycle_graph(4)
    g2, rename = support.delete_vertex(g, 2)
    assert g2 == Graph(3, frozenset({(1, 3), (2, 3)}))
    assert rename == {1: 1, 3: 2, 4: 3}


def test_delete_vertex_may_disconnect():
    g = support.path_graph(5)
    g2, _ = support.delete_vertex(g, 3)
    assert not g2.is_connected


def test_delete_only_vertex_fails():
    with pytest.raises(ValueError):
        support.delete_vertex(Graph(1, frozenset()), 1)


@given(support.connected_graphs(min_n=4, max_n=10))
def test_contraction_preserves_connectivity_and_counts(g):
    for p in maximal_degree2_paths(g):
        if len(p) - 1 < 3 or (p[0] == p[-1] and len(p) - 1 == 3):
            continue
        g2, _ = support.contract_edge(g, p[1], p[2])
        assert g2.n == g.n - 1
        assert g2.m == g.m - 1
        assert g2.is_connected


# ---------------------------------------------------------------------------
# text round trips

def test_graph_round_trip():
    g = generate("theta", (2, 3, 4))
    assert read_graph(write_graph(g)) == g


def test_instance_round_trip_li():
    inst = Instance(support.cycle_graph(5), 2, 1, 3, 2)
    again = read_instance(write_instance(inst))
    assert again == inst


def test_instance_round_trip_lnt():
    inst = InstanceNT(support.cycle_graph(5), frozenset({2, 4}), 1, 2, 2)
    again = read_instance(write_instance(inst))
    assert again == inst


def test_read_instance_defaults():
    inst = read_instance("3 3\n1 2\n2 3\n1 3\n")
    assert inst == Instance(support.cycle_graph(3), 0, 0, 1, 1)


def test_nt_directive_selects_lnt():
    inst = read_instance("#% nt 2\n3 3\n1 2\n2 3\n1 3\n")
    assert isinstance(inst, InstanceNT)
    assert inst.nonterminals == frozenset({2})


def test_read_graph_failure_modes():
    for text, pattern in [
        ("", "empty"),
        ("3\n", "header"),
        ("a b\n", "integers"),
        ("2 1\n1 2\n3 4\n", "more edge lines"),
        ("2 2\n1 2\n", "expected 2 edges"),
        ("2 1\n1 5\n", "out of range"),
        ("2 1\n1 1\n", "self-loop"),
        ("2 2\n1 2\n2 1\n", "duplicate"),
    ]:
        with pytest.raises(GraphFormatError, match=pattern):
            read_graph(text)


def test_read_instance_rejects_oversized_parameters():
    with pytest.raises(GraphFormatError, match="exceeds"):
        read_instance("#% p 9\n3 3\n1 2\n2 3\n1 3\n")
    with pytest.raises(GraphFormatError, match="exceeds"):
        read_instance("#% q 4\n3 3\n1 2\n2 3\n1 3\n")


def test_read_instance_rejects_unknown_problem():
    with pytest.raises(GraphFormatError, match="unknown problem"):
        read_instance("#% problem xyz\n3 3\n1 2\n2 3\n1 3\n")


def test_read_instance_rejects_bare_and_stray_directives():
    body = "3 2\n1 2\n2 3\n"
    for head, pattern in [
        ("#% problem\n", "problem needs one value"),
        ("#% problem li lnt\n", "problem needs one value"),
        ("#% problem li\n#% nt 2\n", "nt does not apply to problem li"),
        ("#% problem lnt\n#% q 1\n", "q does not apply to problem lnt"),
        ("#% nt 2\n#% q 1\n", "q does not apply to problem lnt"),
        ("#% p 1\n#% p 2\n", "directive p given twice"),
        ("#% problem li\n#% k 1\n#% problem li\n", "directive problem given twice"),
    ]:
        with pytest.raises(GraphFormatError, match=pattern):
            read_instance(head + body)


# ---------------------------------------------------------------------------
# the two ways an edge block is read: a canonical block in one pass, any
# other through the row loop, which must decide everything the same way

@pytest.fixture
def split_rows(monkeypatch):
    """Every row the reader's cursor splits and hands out."""
    rows = []
    step = _ContentLines.__next__
    monkeypatch.setattr(_ContentLines, "__next__", lambda self: rows.append(step(self)) or rows[-1])
    return rows


def _outcome(read, text):
    try:
        return read(text)
    except GraphFormatError as exc:
        return f"error: {exc}"


def _by_row_loop(monkeypatch, read, text):
    with monkeypatch.context() as patch:
        patch.setattr(_ContentLines, "canonical_block", lambda self, n, m: None)
        return _outcome(read, text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_writer_output_reads_the_same_with_tabs(seed, split_rows):
    g = generate("random-connected", (40, 90), seed)
    trees = list(islice(enumerate_spanning_trees(g), 4))
    # the family reader's one pass over a canonical text splits no row,
    # not even its headers, which it walks by index
    cases = [
        (read_graph, write_graph(g), True),
        (read_instance, write_instance(Instance(g, 2, 3, 2, 2)), True),
        (read_instance, write_instance(InstanceNT(g, frozenset({1, 5}), 2, 2, 2)), True),
        (partial(read_edge_set_family, n=g.n), write_family(Family.of(g, trees)), False),
    ]
    for read, text, splits_headers in cases:
        content = [line.split() for line in text.splitlines() if line[0] != "#"]
        headers, at = [], 0
        while at < len(content):
            headers.append(content[at])
            at += 1 + int(content[at][1])
        split_rows.clear()
        got = read(text)
        assert split_rows == (headers if splits_headers else [])
        # a tab for each space sends every edge line through the row loop
        split_rows.clear()
        assert read(text.replace(" ", "\t")) == got
        assert split_rows == content


PATH4 = Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
HUGE = "4" * 5000  # past int's default limit on digits

# each block next to what read_graph makes of it
BLOCKS = [
    pytest.param("4 3\r\n1 2\r\n2 3\r\n3 4\r\n", PATH4, id="crlf"),
    pytest.param("4 3\n1 2 \n2 3  \n3 4\n", PATH4, id="trailing-spaces"),
    pytest.param("4 3\n1  2\n\t2 3\n 3 4\n", PATH4, id="inner-and-leading-space"),
    pytest.param("4 3\n2 1\n2 3\n3 4\n", PATH4, id="reversed-pair"),
    pytest.param("4 3\n1 2\n2 3\n3 004\n", PATH4, id="leading-zero"),
    pytest.param("4 3\n1 2\n2 +3\n3 4\n", PATH4, id="plus-sign"),
    pytest.param("4 3\n1 2\n2 \uff13\n\u0663 4\n", PATH4, id="unicode-digits"),
    pytest.param("4 3\n1 2\n# a comment\n2 3\n3 4\n", PATH4, id="comment"),
    pytest.param("4 3\n1 2\n\n2 3\n3 4\n", PATH4, id="blank"),
    pytest.param("4 3\n1 2\n#% p 1\n2 3\n3 4\n", PATH4, id="directive"),
    pytest.param("4 3\n0 2\n2 3\n3 4\n", "error: vertex out of range in edge 0 2", id="zero"),
    pytest.param("4 3\n-1 2\n2 3\n3 4\n", "error: vertex out of range in edge -1 2", id="negative"),
    pytest.param("4 3\n1 2\n2 3\n3 5\n", "error: vertex out of range in edge 3 5", id="out-of-range"),
    pytest.param("4 3\n1 2\n2 2\n3 4\n", "error: self-loop at vertex 2", id="self-loop"),
    pytest.param("4 3\n1 2\n2 3\n1 2\n", "error: duplicate edge (1, 2)", id="duplicate"),
    pytest.param("4 3\n1 2\n2 3\n", "error: expected 3 edges, found 2", id="short"),
    pytest.param("4 3\n1 2\n2 3\n3 4\n1 3\n", "error: more edge lines than the header announces",
                 id="extra-row"),
    pytest.param("4 3\n1 2\n2 3.0\n3 4\n", "error: edge line must be two integers, got '2 3.0'",
                 id="float"),
    pytest.param(f"4 3\n1 2\n2 3\n3 {HUGE}\n", f"error: edge line must be two integers, got '3 {HUGE}'",
                 id="past-the-digit-limit"),
]


@pytest.mark.parametrize("text, graph", BLOCKS)
def test_both_paths_agree_on_every_block(text, graph, monkeypatch):
    assert _outcome(read_graph, text) == graph
    family = partial(read_edge_set_family, n=4)
    for read in (read_graph, read_instance, family):
        assert _outcome(read, text) == _by_row_loop(monkeypatch, read, text)
    # the same block after a canonical one, so a fault sits in a later block only
    text = write_graph(PATH4) + text
    assert _outcome(family, text) == _by_row_loop(monkeypatch, family, text)


def test_canonical_text_is_never_split_row_by_row(split_rows):
    g = generate("min-degree-3", (12,))
    inst = Instance(g, 2, 2, 2, 2)
    for text in (write_instance(inst), write_instance(inst).replace("\n", "\r\n")):
        split_rows.clear()
        assert read_instance(text) == inst
        assert split_rows == [["12", "18"]]
    split_rows.clear()
    trees = list(islice(enumerate_spanning_trees(g), 36))
    assert read_edge_set_family(write_family(Family.of(g, trees)), g.n) == [t.edges for t in trees]
    assert split_rows == []


# ---------------------------------------------------------------------------
# generators

def test_generate_cycle():
    g = generate("cycle", (6,))
    assert g.n == 6 and g.m == 6
    assert all(g.degree(v) == 2 for v in g.vertices())


def test_generate_theta_shape():
    g = generate("theta", (2, 2, 3))
    assert g.n == 6 and g.m == 7
    assert g.degree(1) == 3 and g.degree(2) == 3


def test_generate_theta_rejects_double_bridge():
    with pytest.raises(ValueError):
        generate("theta", (1, 1, 3))


def test_generate_random_connected_is_connected():
    for seed in range(5):
        g = generate("random-connected", (8, 11), seed=seed)
        assert g.n == 8 and g.m == 11 and g.is_connected
    # K1 and K2: Pruefer sequences need n >= 3
    assert generate("random-connected", (1, 0)) == Graph(1, frozenset())
    assert generate("random-connected", (2, 1)) == Graph(2, frozenset({(1, 2)}))


def test_generate_random_connected_deterministic():
    a = generate("random-connected", (9, 13), seed=42)
    b = generate("random-connected", (9, 13), seed=42)
    assert a == b


def test_generate_subdivided():
    base = support.complete_graph(4)
    g = generate("subdivided", (base, 6))
    assert g.n == base.n + base.m * 5 == 34
    assert g.m == base.m * 6
    assert g.is_connected


def test_generate_twin_pendants():
    base = support.cycle_graph(5)
    g = generate("twin-pendant-gadget", (base, 3), seed=1)
    assert g.n == base.n + 6
    pend = pendant_vertices(g)
    assert len(pend) == 6
    hosts = {next(iter(g.neighbors(v))) for v in pend}
    # pairs share hosts, so there are exactly 3 of them
    assert len(hosts) == 3


def test_generate_min_degree_3():
    for n in (4, 7, 10, 13):
        g = generate("min-degree-3", (n,))
        assert g.n == n and g.is_connected
        assert min(g.degree(v) for v in g.vertices()) >= 3


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(maximal_degree2_paths, Graph(3, frozenset({(1, 2)}))), "connected graph"),
        (partial(generate, "theta", (0, 2, 3)), "path lengths must be positive"),
        (partial(generate, "subdivided", (support.cycle_graph(3), 0)), "at least 1"),
        (partial(generate, "twin-pendant-gadget", (support.cycle_graph(3), -1)), "non-negative"),
        (partial(generate, "min-degree-3", (3,)), "at least 4 vertices"),
        (partial(generate, "random-connected", (0, 0)), "at least one vertex"),
    ],
)
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_generate_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate("moebius", (5,))
