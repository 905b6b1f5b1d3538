import dataclasses
import functools
import itertools
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    InternalInvariantError,
    KernelResult,
    RuleApplication,
    apply_rule,
    case1_bound_li,
    case1_bound_lnt,
    case2_bound_li,
    case2_bound_lnt,
    generate,
    kernelize,
    kernelize_li,
    kernelize_lnt,
    replay,
    solve,
    transcript_to_ndjson,
    verify_family,
)
from divtrees.graphcore import _canonical_path, maximal_degree2_paths, pendant_vertices
from divtrees import kernelizer
from test_golden import _corpus as golden_corpus


def li(g, p=0, q=0, k=1, ell=1):
    return Instance(graph=g, p=p, q=q, k=k, ell=ell)


def lnt(g, nt, p=0, k=1, ell=1):
    return InstanceNT(graph=g, nonterminals=frozenset(nt), p=p, k=k, ell=ell)


def md3(n):
    return generate("min-degree-3", (n,))


Q3 = Graph.from_edges(
    8,
    [
        (1, 2), (2, 3), (3, 4), (1, 4),
        (5, 6), (6, 7), (7, 8), (5, 8),
        (1, 5), (2, 6), (3, 7), (4, 8),
    ],
)


# ---------------------------------------------------------------------------
# size thresholds

def test_bound_formulas():
    assert case1_bound_li(2, 1) == 28
    assert case1_bound_li(4, 2) == 64
    assert case1_bound_li(5, 2) == 128
    assert case2_bound_li(1, 0, 2, 1) == 42
    assert case2_bound_li(0, 3, 2, 1) == 91
    assert case1_bound_lnt(1, 2, 1) == 63
    assert case2_bound_lnt(1, 1, 2, 1) == 77


# ---------------------------------------------------------------------------
# single rule applications

LI_RULES = ("R1", "R2", "R3", "R4", "R5", "R6")
LNT_RULES = ("R7", "R8", "R9", "R5nt", "R6nt")


@pytest.mark.parametrize("rule", LI_RULES + LNT_RULES)
def test_apply_rule_rejects_unknown_and_mismatched_rules(rule):
    c8 = support.cycle_graph(8)
    for inst in (li(c8), lnt(c8, {1})):
        with pytest.raises(ValueError, match="unknown rule"):
            apply_rule(inst, "R99")
    other = lnt(c8, {1}) if rule in LI_RULES else li(c8)
    with pytest.raises(ValueError, match="does not apply"):
        apply_rule(other, rule)
    split = Graph(n=3, edges=frozenset({(1, 2)}))
    own = li(split) if rule in LI_RULES else lnt(split, {1})
    with pytest.raises(ValueError, match="must be connected"):
        apply_rule(own, rule)


def test_r1_contracts_lowest_long_path():
    out, e = apply_rule(li(support.cycle_graph(8), q=2), "R1")
    assert out.graph.n == 7 and out.graph.is_connected
    assert out.q == 1
    assert e.merged_edge == (2, 3) and e.touched == (2, 3)
    # q stays at zero rather than going negative
    out2, e2 = apply_rule(li(support.cycle_graph(8), q=0), "R1")
    assert out2.q == 0 and e2.q_delta == 0
    with pytest.raises(ValueError, match="no degree-2-path"):
        apply_rule(li(support.path_graph(4)), "R1")


def test_r2_deletes_lowest_twin_pendant():
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    out, e = apply_rule(li(star, p=2), "R2")
    assert out.graph.n == 3 and out.p == 1
    assert e.removed_vertex == 2 and e.touched == (2, 1)
    with pytest.raises(ValueError, match="no two pendants share"):
        apply_rule(li(support.path_graph(4)), "R2")


def test_r3_resets_satisfied_parameters():
    g = support.with_pendants(support.cycle_graph(4), [1])
    out, e = apply_rule(li(g, p=1, q=1), "R3")
    assert (out.p, out.q) == (0, 0) and (e.p_delta, e.q_delta) == (-1, -1)
    out2, _ = apply_rule(li(g, p=2, q=1), "R3")
    assert (out2.p, out2.q) == (2, 0)
    with pytest.raises(ValueError, match="resets neither"):
        apply_rule(li(g, p=2, q=2), "R3")
    with pytest.raises(ValueError, match="resets neither"):
        apply_rule(li(g, p=0, q=0), "R3")


def test_r4_deletes_pendants_only_without_parameters():
    g = support.with_pendants(support.cycle_graph(4), [2, 3])
    out, e = apply_rule(li(g), "R4")
    assert out.graph.n == 5 and e.removed_vertex == 5
    with pytest.raises(ValueError, match="needs p = q = 0"):
        apply_rule(li(g, p=1), "R4")
    with pytest.raises(ValueError, match="no pendant"):
        apply_rule(li(support.cycle_graph(4)), "R4")


def test_threshold_rules_decide_but_do_not_mutate():
    small = li(support.cycle_graph(5), k=1, ell=1)
    out, e = apply_rule(small, "R5")
    assert out == small and e.decision == "reduced" and e.n_before == 5
    big = li(md3(30), k=1, ell=1)  # bound is 28
    _, e2 = apply_rule(big, "R5")
    assert e2.decision == "large"
    with pytest.raises(ValueError, match="needs p = q = 0"):
        apply_rule(li(support.cycle_graph(5), p=1), "R5")
    withp = li(md3(50), p=1, k=2, ell=1)  # bound is 42
    _, e3 = apply_rule(withp, "R6")
    assert e3.decision == "large"
    _, e4 = apply_rule(li(support.cycle_graph(5), p=1), "R6")
    assert e4.decision == "reduced"
    with pytest.raises(ValueError, match="needs max"):
        apply_rule(li(support.cycle_graph(5)), "R6")


def test_r7_contracts_around_the_required_set():
    out, e = apply_rule(lnt(support.cycle_graph(8), {3}), "R7")
    assert out.graph.n == 7
    assert out.nonterminals == frozenset({2})
    assert e.merged_edge == (2, 1)
    with pytest.raises(ValueError, match="clear of the required-internal"):
        apply_rule(lnt(support.cycle_graph(5), {1, 3}), "R7")


def test_r8_resets_p_when_pendants_cover_it():
    g = support.with_pendants(support.cycle_graph(4), [1, 2])
    out, e = apply_rule(lnt(g, {3}, p=2), "R8")
    assert out.p == 0 and e.p_delta == -2
    with pytest.raises(ValueError, match="below p"):
        apply_rule(lnt(g, {3}, p=3), "R8")
    with pytest.raises(ValueError, match="already 0"):
        apply_rule(lnt(g, {3}, p=0), "R8")


def test_r9_deletes_pendant_and_releases_its_host():
    g = support.with_pendants(support.cycle_graph(4), [1])
    out, e = apply_rule(lnt(g, {1}), "R9")
    assert out.graph.n == 4
    assert out.nonterminals == frozenset() and e.nt_removed == (1,)
    out2, e2 = apply_rule(lnt(g, {2}), "R9")
    assert out2.nonterminals == frozenset({2}) and e2.nt_removed == ()
    with pytest.raises(ValueError, match="needs p = 0"):
        apply_rule(lnt(g, {2}, p=1), "R9")
    with pytest.raises(ValueError, match="is pendant"):
        apply_rule(lnt(g, {5}), "R9")
    with pytest.raises(ValueError, match="no pendant"):
        apply_rule(lnt(support.cycle_graph(4), {1}), "R9")


def test_lnt_threshold_rules():
    c5 = support.cycle_graph(5)
    _, e = apply_rule(lnt(c5, {1}), "R5nt")
    assert e.decision == "reduced"
    _, e2 = apply_rule(lnt(md3(70), {1}, k=2, ell=1), "R5nt")  # bound is 63
    assert e2.decision == "large"
    with pytest.raises(ValueError, match="needs p = 0"):
        apply_rule(lnt(c5, {1}, p=1), "R5nt")
    _, e3 = apply_rule(lnt(c5, {1}, p=1), "R6nt")
    assert e3.decision == "reduced"
    _, e4 = apply_rule(lnt(md3(80), {1}, p=1, k=2, ell=1), "R6nt")  # bound 77
    assert e4.decision == "large"
    with pytest.raises(ValueError, match="needs p > 0"):
        apply_rule(lnt(c5, {1}), "R6nt")


# ---------------------------------------------------------------------------
# canonical path orientation used by the batched passes

def test_oriented_key_matches_canonical_form():
    assert _canonical_path([1, 2, 3]) == (1, 2, 3)
    assert _canonical_path([3, 2, 1]) == (1, 2, 3)
    assert _canonical_path([2, 5, 3, 2]) == (2, 3, 5, 2)
    assert _canonical_path([2, 3, 5, 2]) == (2, 3, 5, 2)
    # closed paths orient by the two edges at the anchor, nothing else
    assert _canonical_path([1, 4, 2, 6, 1]) == (1, 4, 2, 6, 1)
    assert _canonical_path([1, 6, 2, 4, 1]) == (1, 4, 2, 6, 1)


# ---------------------------------------------------------------------------
# pipeline outcomes, pinned

def test_li_pipeline_contracts_a_bare_cycle():
    res = kernelize_li(li(support.cycle_graph(20)))
    assert res.outcome == "reduced"
    assert res.instance.graph.n == 3
    rules = [e.rule for e in res.transcript]
    assert rules == ["R1"] * 17 + ["R5"]
    assert replay(li(support.cycle_graph(20)), res.transcript) == res.final_instance


def test_li_pipeline_leaves_small_dense_graphs_alone():
    res = kernelize_li(li(Q3, k=4, ell=2))
    assert res.outcome == "reduced"
    assert res.instance.graph == Q3
    assert [e.rule for e in res.transcript] == ["R5"]


def test_li_pipeline_prechecks():
    split = Graph(n=4, edges=frozenset({(1, 2), (3, 4)}))
    assert kernelize_li(li(split)).outcome == "trivial_no"
    res = kernelize_li(li(support.path_graph(4), p=2, q=2))
    assert res.outcome == "trivial_yes"
    assert res.witness is not None and len(res.witness) == 1
    assert kernelize_li(li(support.path_graph(4), p=3)).outcome == "trivial_no"
    assert kernelize_li(li(support.path_graph(4), ell=2)).outcome == "trivial_no"
    assert kernelize_li(li(support.cycle_graph(5), p=5)).outcome == "trivial_no"
    assert kernelize_li(li(support.cycle_graph(5), q=5)).outcome == "trivial_no"
    single = kernelize_li(li(Graph(n=1, edges=frozenset()), q=1))
    assert single.outcome == "trivial_yes"


def test_li_pipeline_recheck_after_contraction():
    res = kernelize_li(li(support.cycle_graph(30), p=4))
    assert res.outcome == "trivial_no"
    rules = [e.rule for e in res.transcript]
    assert rules == ["R1"] * 27 + ["PC-p"]
    assert res.reason.startswith("p exceeds")


def test_li_pipeline_recheck_catches_q_after_deletions():
    # ell=2 keeps the C4 part below the contraction threshold
    g = support.with_pendants(support.cycle_graph(4), [1] * 6)
    res = kernelize_li(li(g, q=9, ell=2))
    assert res.outcome == "trivial_no"
    assert [e.rule for e in res.transcript] == ["R2"] * 5 + ["PC-q"]


def test_li_pipeline_mixed_rule_run():
    g = support.with_pendants(support.cycle_graph(8), [1, 1])
    res = kernelize_li(li(g, p=2))
    assert res.outcome == "reduced"
    rules = [e.rule for e in res.transcript]
    # deleting one twin leaves a lone pendant: R3 resets p, R4 mops up
    assert rules == ["R1"] * 5 + ["R2", "R3", "R4", "R5"]
    assert res.instance.graph.n == 3
    assert res.instance.p == 0
    assert replay(li(g, p=2), res.transcript) == res.final_instance


def test_li_trivial_yes_with_constructed_witness():
    inst = li(md3(70), k=2, ell=2)  # bound is 64
    bare = kernelize_li(inst)
    assert bare.outcome == "trivial_yes" and bare.witness is None
    res = kernelize_li(inst, construct_witness=True)
    assert res.outcome == "trivial_yes"
    assert len(res.witness) == 2
    assert verify_family(inst.graph, res.witness, 0, 0, 2).verdict


def test_li_delegation_wraps_the_subkernel_answer():
    inst = li(md3(50), p=1, k=2, ell=1)  # case-2 bound is 42
    res = kernelize_li(inst)
    assert res.outcome == "delegated"
    assert res.instance == Instance(Graph(2, frozenset({(1, 2)})), 0, 0, 1, 1)
    assert res.final_instance.graph.n == 50
    # the plug-in gets the pipeline's final instance and its answer is
    # the result's instance as it stands
    received = []
    answer = Instance(Graph(2, frozenset({(1, 2)})), 0, 2, 1, 1)
    stub = kernelize_li(inst, blackbox=lambda m: received.append(m) or answer)
    assert len(received) == 1 and received[0] is stub.final_instance
    assert stub.instance is answer
    off = kernelize_li(inst, blackbox=None)
    assert off.outcome == "delegated_unavailable"
    assert off.instance == off.final_instance


def test_lnt_pipeline_prechecks():
    split = Graph(n=4, edges=frozenset({(1, 2), (3, 4)}))
    assert kernelize_lnt(lnt(split, set())).outcome == "trivial_no"
    res = kernelize_lnt(lnt(support.path_graph(4), {2, 3}, p=2))
    assert res.outcome == "trivial_yes" and len(res.witness) == 1
    assert kernelize_lnt(lnt(support.path_graph(4), {1})).outcome == "trivial_no"
    assert kernelize_lnt(lnt(support.path_graph(4), {2}, ell=2)).outcome == "trivial_no"
    g = support.with_pendants(support.cycle_graph(4), [1])
    bad = kernelize_lnt(lnt(g, {5}))
    assert bad.outcome == "trivial_no"
    assert bad.transcript[0].rule == "PC-nt-pendant"
    assert bad.transcript[0].touched == (5,)
    # only the pendant members of nt, sorted
    g = support.with_pendants(support.cycle_graph(6), [1, 1, 3])
    assert kernelize_lnt(lnt(g, {9, 7, 2})).transcript[0].touched == (7, 9)
    assert kernelize_lnt(lnt(support.cycle_graph(5), {1}, p=5)).outcome == "trivial_no"


def test_lnt_pipeline_contracts_around_marked_vertex():
    res = kernelize_lnt(lnt(support.cycle_graph(12), {5}))
    assert res.outcome == "reduced"
    rules = [e.rule for e in res.transcript]
    assert rules == ["R7"] * 9 + ["R5nt"]
    assert res.instance.graph.n == 3
    assert len(res.instance.nonterminals) == 1
    assert replay(lnt(support.cycle_graph(12), {5}), res.transcript) == res.final_instance


def test_lnt_pipeline_case2_and_delegation():
    inst = lnt(md3(80), {1}, p=1, k=2, ell=1)  # case-2 bound is 77
    res = kernelize_lnt(inst)
    assert res.outcome == "delegated"
    assert res.instance == InstanceNT(
        Graph(2, frozenset({(1, 2)})), frozenset(), 0, 1, 1
    )
    received = []
    answer = InstanceNT(Graph(2, frozenset({(1, 2)})), frozenset({1, 2}), 0, 1, 1)
    stub = kernelize_lnt(inst, blackbox=lambda m: received.append(m) or answer)
    assert len(received) == 1 and received[0] is stub.final_instance
    assert stub.instance is answer
    off = kernelize_lnt(inst, blackbox=None)
    assert off.outcome == "delegated_unavailable"


def test_lnt_case1_runs_deletions_and_contractions_together():
    g = support.with_pendants(support.cycle_graph(8), [3, 3])
    res = kernelize_lnt(lnt(g, {1}, p=2))
    assert res.outcome == "reduced"
    rules = [e.rule for e in res.transcript]
    assert rules[0] == "R7" and "R8" in rules and "R9" in rules
    assert res.instance.p == 0
    assert replay(lnt(g, {1}, p=2), res.transcript) == res.final_instance


def test_kernelize_dispatch():
    assert kernelize(li(support.cycle_graph(5))).outcome == "reduced"
    assert kernelize(lnt(support.cycle_graph(5), {1})).outcome == "reduced"
    # a given blackbox is passed on as it is, so None runs no plug-in;
    # left out, the pipeline's default plug-in runs
    for inst in (li(md3(50), p=1, k=2, ell=1), lnt(md3(80), {1}, p=1, k=2, ell=1)):
        assert kernelize(inst, blackbox=None).outcome == "delegated_unavailable"
        assert kernelize(inst).outcome == "delegated"
    with pytest.raises(ValueError, match="lnt"):
        kernelize(lnt(support.cycle_graph(5), {1}), construct_witness=True)


# ---------------------------------------------------------------------------
# batched passes agree with one-at-a-time rule firing

def sequential_fixpoint(inst, rules):
    """Fire ``rules`` through apply_rule, the first that applies each
    time, until none does."""
    transcript = []
    for _ in range(10000):
        for rule in rules:
            try:
                inst, e = apply_rule(inst, rule)
            except ValueError:
                continue
            transcript.append(e)
            break
        else:
            return inst, transcript
    raise AssertionError("no fixpoint")


def sequential_run(inst):
    """A whole reduction run one rule at a time: the phase-0 rules to a
    fixpoint, the reset when its guard holds, then the phase-1 rules
    when p = q = 0."""
    if isinstance(inst, InstanceNT):
        first, reset, then = ("R7",), "R8", ("R7", "R9")
    else:
        first, reset, then = ("R1", "R2"), "R3", ("R1", "R2", "R4")
    inst, transcript = sequential_fixpoint(inst, first)
    try:
        inst, e = apply_rule(inst, reset)
        transcript.append(e)
    except ValueError:
        pass
    if inst.p == inst.q == 0:
        inst, more = sequential_fixpoint(inst, then)
        transcript += more
    return inst, transcript


def assert_run_matches_sequential_rules(inst):
    res = kernelize(inst, blackbox=lambda _: None)
    if res.transcript[0].rule.startswith("PC-"):
        return  # refused before any rule could fire
    expected, expected_transcript = sequential_run(inst)
    # every entry but the pre-checks and thresholds
    assert [e for e in res.transcript if e.decision is None] == expected_transcript
    assert res.final_instance == expected


def with_legs(g, hub, legs):
    """Hang ``legs`` paths of two edges off ``hub``: once a leg's tip is
    deleted its middle vertex turns pendant, and those new pendants
    are twins at the hub."""
    mids = support.with_pendants(g, [hub] * legs)
    return support.with_pendants(mids, list(range(g.n + 1, g.n + legs + 1)))


def with_path(g, a, b, edges):
    """Join ``a`` and ``b`` by a new path of ``edges`` edges through
    fresh vertices, numbered from ``a``; ``a == b`` hangs a closed path."""
    n = g.n + edges - 1
    vs = [a, *range(g.n + 1, n + 1), b]
    return Graph.from_edges(n, list(g.edges) + list(zip(vs, vs[1:])))


# its first path is contracted again and again while it stays the lowest
THETA = generate("theta", (12, 6, 7))
K4 = support.complete_graph(4)
# a closed path of 21 edges at one anchor
LOLLIPOP = with_path(K4, 3, 3, 21)
# two long paths at anchor 2; the one built second sorts first
TWO_AT_ONE = with_path(with_path(K4, 2, 4, 9), 2, 1, 12)
# one path of 40 edges, whose canonical orientation runs against its ids
LONG_PATH = with_path(K4, 4, 2, 40)


def li_reduction_cases():
    base = support.cycle_graph(9)
    yield li(support.with_pendants(base, [1, 1, 4, 4, 4, 7]), p=3, q=2, ell=1), False
    yield li(generate("twin-pendant-gadget", (base, 4), seed=3), p=1, ell=1), False
    yield li(generate("subdivided", (support.complete_graph(4), 6)), ell=2), True
    yield li(generate("random-connected", (14, 16), seed=7)), True
    yield li(support.with_pendants(support.path_graph(9), [2, 2, 5, 9])), True
    star = Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
    yield li(star), True
    # the pass's heaps: hosts turning pendant mid-pass (spiders), a late
    # twin, one host with 40 pendants, the K_2 endgame of a path, theta
    yield li(with_legs(Graph(1, frozenset()), 1, 6)), True
    yield li(with_legs(support.cycle_graph(5), 2, 5)), True
    # deleting 6 turns 8 pendant beside 7: the older, lower twin goes first
    c5 = list(support.cycle_graph(5).edges)
    yield li(Graph.from_edges(8, c5 + [(1, 7), (1, 8), (6, 8)])), True
    yield li(support.with_pendants(support.cycle_graph(6), [1] * 40), p=3), False
    yield li(support.with_pendants(support.cycle_graph(6), [1] * 40)), True
    yield li(support.path_graph(7)), True
    yield li(support.path_graph(3)), False
    yield li(THETA, q=4), True
    yield li(LOLLIPOP, q=3), False
    yield li(TWO_AT_ONE, ell=2), True
    yield li(LONG_PATH, q=20, ell=3), True


@pytest.mark.parametrize("case", range(len(list(li_reduction_cases()))))
def test_li_fixpoint_matches_sequential_rules(case):
    inst, include_r4 = list(li_reduction_cases())[case]
    rules = ("R1", "R2", "R4") if include_r4 else ("R1", "R2")
    expected, expected_transcript = sequential_fixpoint(inst, rules)
    edit, transcript = kernelizer._Edit(inst), []
    paths = maximal_degree2_paths(inst.graph, inst.nonterminals)
    kernelizer._exhaust_contractions(edit, paths, transcript)
    kernelizer._exhaust_pendant_deletions(edit, sweep=include_r4, transcript=transcript)
    assert (edit.instance() if transcript else inst) == expected
    assert transcript == expected_transcript


@pytest.mark.parametrize("case", range(len(list(li_reduction_cases()))))
def test_li_run_matches_sequential_rules(case):
    inst, _ = list(li_reduction_cases())[case]
    assert_run_matches_sequential_rules(inst)


@given(
    g=support.connected_graphs(min_n=3, max_n=10, max_extra=4),
    p=st.integers(0, 3),
    q=st.integers(0, 3),
    ell=st.integers(1, 2),
)
def test_li_run_matches_sequential_rules_on_random_graphs(g, p, q, ell):
    assert_run_matches_sequential_rules(li(g, p=p, q=q, ell=ell))


def count_calls(monkeypatch):
    """Count _Edit constructions, instance() rebuilds and path scans."""
    calls = {"__init__": 0, "instance": 0, "maximal_degree2_paths": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("__init__", "instance"):
        monkeypatch.setattr(kernelizer._Edit, name, counted(name, getattr(kernelizer._Edit, name)))
    monkeypatch.setattr(
        kernelizer, "maximal_degree2_paths",
        counted("maximal_degree2_paths", kernelizer.maximal_degree2_paths),
    )
    return calls


def test_run_builds_one_edit_state(monkeypatch):
    # R2 fires in phase 0 and R4 in phase 1, and R4's deletions open
    # long paths that are contracted on the run's one edit state
    inst = li(support.with_pendants(support.cycle_graph(9), [1, 1, 4, 4, 4, 7]))
    calls = count_calls(monkeypatch)
    res = kernelize_li(inst)
    rules = [e.rule for e in res.transcript]
    assert rules.index("R2") < rules.index("R4") < rules.index("R1")
    assert calls == {"__init__": 1, "instance": 1, "maximal_degree2_paths": 1}


@pytest.mark.parametrize(
    "inst, rules",
    [
        (li(Q3, k=4, ell=2), ["R5"]),
        # one pendant meets p = 1 but not q = 2, so only the reset fires
        (li(support.with_pendants(support.complete_graph(4), [1]), p=1, q=2), ["R3", "R6"]),
    ],
)
def test_run_that_removes_nothing_keeps_the_input_graph(monkeypatch, inst, rules):
    calls = count_calls(monkeypatch)
    res = kernelize_li(inst)
    assert [e.rule for e in res.transcript] == rules
    assert res.final_instance.graph is inst.graph
    assert calls == {"__init__": 1, "instance": 0, "maximal_degree2_paths": 1}


@pytest.mark.parametrize(
    "inst, outcome",
    [
        # core n = 80 is above case1_bound_li(2, 2) = 64: R5 says large
        (li(generate("twin-pendant-gadget", (md3(80), 40), seed=1), k=2, ell=2), "trivial_yes"),
        (lnt(generate("subdivided", (md3(40), 8)), {1}, k=4, ell=3), "delegated"),
    ],
    ids=["tp-li", "sub-lnt"],
)
def test_run_builds_no_graph_adjacency(inst, outcome):
    # the run reads the input through its edit state's adjacency sets
    # and answers connectivity from the edges alone
    res = kernelize(inst)
    assert res.outcome == outcome
    assert res.final_instance.graph is not inst.graph
    assert "adjacency" not in vars(inst.graph)
    assert "adjacency" not in vars(res.final_instance.graph)


def _edge_sets(g):
    adj = {v: set() for v in g.vertices()}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@pytest.mark.parametrize("source", ["li", "lnt", "random"])
def test_scan_of_given_adjacency_matches_the_graphs_own(source):
    if source == "random":
        rng = random.Random(5)
        insts = [li(support.random_connected(rng, rng.randint(2, 30))) for _ in range(200)]
    else:
        insts = [inst for inst, _ in golden_corpus(source)]
    rng = random.Random(6)
    for g, nt in ((i.graph, i.nonterminals) for i in insts if i.graph.is_connected):
        drawn = frozenset(rng.sample(range(1, g.n + 1), min(g.n, 3)))
        for forbidden in (frozenset(), nt, drawn):
            expected = maximal_degree2_paths(g, forbidden)
            assert maximal_degree2_paths(g, forbidden, adj=_edge_sets(g)) == expected, g


@pytest.mark.parametrize(
    "g", [support.path_graph(6), Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])], ids=["path", "star"]
)
def test_sweep_pass_runs_a_tree_down_to_one_vertex(g):
    # a run answers a tree before any pass, so the pass is called on its
    # own; its last deletion leaves the other end of a K2 with no
    # neighbour, and that vertex is no pendant
    inst = li(g, ell=3)  # no path is long
    edit, transcript = kernelizer._Edit(inst), []
    kernelizer._exhaust_pendant_deletions(edit, sweep=True, transcript=transcript)
    expected, expected_transcript = sequential_fixpoint(inst, ("R1", "R2", "R4"))
    assert transcript == expected_transcript
    assert edit.instance() == expected
    assert expected.graph.n == 1


def lnt_reduction_cases():
    g = generate("twin-pendant-gadget", (support.cycle_graph(9), 4), seed=5)
    yield lnt(g, {1}, p=0, ell=1)
    # kernelize_lnt answers trees by PC-tree and deletions never break a
    # cycle, so the K_2 endgame cannot reach this loop
    yield lnt(with_legs(support.cycle_graph(5), 1, 6), {1, 3})
    yield lnt(support.with_pendants(support.cycle_graph(6), [2] * 40), {1})
    yield lnt(THETA, {20})
    yield lnt(LOLLIPOP, {3}, ell=2)
    yield lnt(TWO_AT_ONE, {1, 2})
    # a required vertex on the long path splits it in two
    yield lnt(LONG_PATH, {1, 25}, ell=3)
    # p > 0: R8 resets p between the phases when the pendants meet it
    yield lnt(g, {1}, p=1, ell=1)
    yield lnt(with_legs(support.cycle_graph(5), 1, 6), {1, 3}, p=4)
    yield lnt(support.with_pendants(support.cycle_graph(8), [3, 3]), {1}, p=2)
    # too few pendants: no reset, so only phase 0 runs
    yield lnt(support.with_pendants(LOLLIPOP, [1]), {3}, p=2, ell=2)


def test_lnt_loop_matches_sequential_rules():
    for inst in lnt_reduction_cases():
        assert_run_matches_sequential_rules(inst)


# ---------------------------------------------------------------------------
# transcripts

def entry_from_json(d):
    return RuleApplication(
        rule=d["rule"],
        n_before=d["n_before"],
        touched=tuple(d["touched"]),
        p_delta=d["p_delta"],
        q_delta=d["q_delta"],
        nt_removed=tuple(d["nt_removed"]),
        removed_vertex=d["removed_vertex"],
        merged_edge=tuple(d["merged_edge"]) if d["merged_edge"] else None,
        decision=d["decision"],
    )


def test_transcript_ndjson_round_trip():
    inst = li(support.with_pendants(support.cycle_graph(8), [1, 1]), p=2)
    res = kernelize_li(inst)
    lines = transcript_to_ndjson(res.transcript).splitlines()
    assert len(lines) == len(res.transcript)
    raw = [json.loads(line) for line in lines]
    assert all("renaming" not in d for d in raw)
    parsed = tuple(entry_from_json(d) for d in raw)
    assert parsed == res.transcript
    assert replay(inst, parsed) == res.final_instance
    for got, want in zip(parsed, res.transcript):
        assert got.renaming() == want.renaming()


def test_transcript_ndjson_is_cut_from_the_array_text():
    # one line per entry, each its own encoding, whether the lines are cut
    # from the array's text or the entries are encoded here
    inst = li(support.with_pendants(support.cycle_graph(8), [1, 1]), p=2)
    lnt_inst = lnt(support.with_pendants(support.cycle_graph(6), [1, 1, 3]), {9, 7, 2})
    for transcript in ((), kernelize_li(inst).transcript, kernelize_lnt(lnt_inst).transcript):
        want = "".join(kernelizer.JSON_ENCODER.encode(e) + "\n" for e in transcript)
        assert transcript_to_ndjson(transcript) == want
        assert transcript_to_ndjson(kernelizer.JSON_ENCODER.encode(transcript)) == want
    assert transcript_to_ndjson(()) == ""


def test_records_hold_only_their_fields():
    # the encoder writes a record as vars(record), so a cached_property
    # read before encoding would leak into the JSON
    res = kernelize_li(li(support.with_pendants(support.cycle_graph(8), [1, 1]), p=2))
    g = support.complete_graph(4)
    trees = [frozenset({(1, 2), (1, 3), (1, 4)}), frozenset({(1, 2), (2, 3), (3, 4)})]
    report = verify_family(g, trees, p=2, q=1, k=2)
    stats = solve(li(g, k=2, ell=2)).stats
    records = [*res.transcript, *report.trees, *report.pairs, stats]
    assert {type(r).__name__ for r in records} == {
        "RuleApplication", "TreeCheck", "PairCheck", "OracleStats"
    }
    for record in records:
        for name, attr in vars(type(record)).items():
            if isinstance(attr, (property, functools.cached_property)):
                getattr(record, name)
        assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]
        assert json.loads(kernelizer.JSON_ENCODER.encode(record)) == json.loads(
            json.dumps(dataclasses.asdict(record))
        )


def test_decision_entries_have_identity_renaming():
    res = kernelize_li(li(Q3, k=4, ell=2))
    (entry,) = res.transcript
    assert entry.rule == "R5"
    assert entry.renaming() == {v: v for v in range(1, 9)}


# ---------------------------------------------------------------------------
# replay: strict entry checks, an independent reference, and its cost

MIXED = li(support.with_pendants(support.cycle_graph(8), [1, 1]), p=2)


def corrupted(index, **changes):
    """MIXED's transcript (R1 x5, R2, R3, R4, R5) with one entry altered."""
    transcript = list(kernelize_li(MIXED).transcript)
    transcript[index] = dataclasses.replace(transcript[index], **changes)
    return tuple(transcript)


def test_replay_rejects_a_wrong_n_before():
    transcript = kernelize_li(MIXED).transcript
    with pytest.raises(ValueError, match="n_before"):
        replay(MIXED, corrupted(5, n_before=transcript[5].n_before + 7))
    # a decision entry re-derives nothing, but its count is checked too
    with pytest.raises(ValueError, match="R5 entry has n_before"):
        replay(MIXED, corrupted(8, n_before=transcript[8].n_before + 1))


def test_replay_rejects_wrong_touched_ids():
    with pytest.raises(ValueError, match="does not match"):
        replay(MIXED, corrupted(5, touched=(1, 2)))


def test_replay_rejects_a_relabelled_rule():
    # R2 spends one unit of p; an R4 deletion spends none
    assert kernelize_li(MIXED).transcript[5].p_delta == -1
    with pytest.raises(ValueError, match="does not match"):
        replay(MIXED, corrupted(5, rule="R4"))


def test_replay_rejects_an_entry_changed_in_place():
    # a transcript entry is a plain record, so it can be written after
    # kernelize returns; replay re-derives every step and catches that
    res = kernelize_li(MIXED)
    assert res.transcript[5].rule == "R2" and res.transcript[5].p_delta == -1
    assert replay(MIXED, res.transcript) == res.final_instance
    res.transcript[5].p_delta = 0
    with pytest.raises(ValueError, match="does not match the step it records"):
        replay(MIXED, res.transcript)


def test_replay_rejects_a_merged_pair_that_is_no_edge():
    with pytest.raises(ValueError, match="not an edge"):
        replay(MIXED, corrupted(0, touched=(1, 3), merged_edge=(1, 3)))


def test_replay_rejects_a_merge_into_a_parallel_edge():
    k4 = li(support.complete_graph(4))
    entry = RuleApplication("R1", 4, touched=(1, 2), merged_edge=(1, 2))
    with pytest.raises(ValueError, match="parallel edge"):
        replay(k4, (entry,))


def test_replay_rejects_ids_out_of_range():
    n = MIXED.graph.n
    with pytest.raises(ValueError, match="out of range"):
        replay(MIXED, corrupted(5, touched=(n + 1, 1), removed_vertex=n + 1))
    with pytest.raises(ValueError, match="out of range"):
        replay(MIXED, corrupted(0, touched=(0, 1), merged_edge=(0, 1)))


def test_replay_rejects_deleting_a_vertex_that_is_no_pendant():
    entry = RuleApplication("R4", 5, touched=(1, 2), removed_vertex=1)
    with pytest.raises(ValueError, match="not a pendant"):
        replay(li(support.cycle_graph(5)), (entry,))


def test_replay_rejects_contracting_a_required_vertex():
    # R7 contracts only paths clear of the required-internal set
    entry = RuleApplication("R7", 8, touched=(2, 3), merged_edge=(2, 3))
    with pytest.raises(ValueError, match="required-internal"):
        replay(lnt(support.cycle_graph(8), {3}), (entry,))


# K4 with a pendant at 1 and one at 2: the reset zeroes p = 2 (and q = 1
# on li), then the sweep deletes both pendants
K4_PENDANTS = support.with_pendants(support.complete_graph(4), [1, 2])


def with_entry(transcript, index, entry):
    return (*transcript[:index], entry, *transcript[index + 1 :])


def reset_spent_p_by_one(transcript):
    return with_entry(transcript, 0, dataclasses.replace(transcript[0], p_delta=-1))


def decision_moves_p(transcript):
    return with_entry(transcript, -1, dataclasses.replace(transcript[-1], p_delta=1))


def extra_reset(transcript):
    noop = dataclasses.replace(transcript[0], p_delta=0, q_delta=0)
    return (transcript[0], noop, *transcript[1:])


@pytest.mark.parametrize(
    "inst, corrupt, error",
    [
        (li(K4_PENDANTS, p=2, q=1, k=2, ell=2), reset_spent_p_by_one, "does not match"),
        (li(K4_PENDANTS, p=2, q=1, k=2, ell=2), decision_moves_p, "moves nothing"),
        (lnt(K4_PENDANTS, {3}, p=2, k=2, ell=2), reset_spent_p_by_one, "does not match"),
        (li(K4_PENDANTS, p=2, q=1, k=2, ell=2), extra_reset, "does not match"),
    ],
    ids=["R3-spend", "decision-spend", "R8-spend", "extra-R3"],
)
def test_replay_rederives_resets_and_decisions(inst, corrupt, error):
    transcript = kernelize(inst).transcript
    assert transcript[0].rule in ("R3", "R8") and transcript[0].p_delta == -2
    assert replay(inst, transcript).p == 0
    with pytest.raises(ValueError, match=error):
        replay(inst, corrupt(transcript))


def reference_replay(inst, transcript):
    """Replay on the one-step rebuilds in ``support``, rebuilding the
    graph for every entry; shares no code with :func:`replay`."""
    for e in transcript:
        g, rename = inst.graph, {v: v for v in inst.graph.vertices()}
        if e.merged_edge is not None:
            g, rename = support.contract_edge(g, *e.merged_edge)
        elif e.removed_vertex is not None:
            g, rename = support.delete_vertex(g, e.removed_vertex)
        p, q = inst.p + e.p_delta, inst.q + e.q_delta
        if isinstance(inst, InstanceNT):
            nt = frozenset(rename[v] for v in inst.nonterminals if v not in e.nt_removed)
            inst = InstanceNT(g, nt, p, inst.k, inst.ell)
        else:
            inst = Instance(g, p, q, inst.k, inst.ell)
    return inst


def test_replay_matches_a_graph_rebuilding_reference():
    insts = [inst for inst, _ in li_reduction_cases()] + list(lnt_reduction_cases())
    for problem in ("li", "lnt"):
        # the mid-size instances that follow the 300 random ones
        insts += [inst for inst, _ in itertools.islice(golden_corpus(problem), 300, None)]
    mutations = 0
    for inst in insts:
        res = kernelize(inst, blackbox=lambda _: None)
        assert replay(inst, res.transcript) == reference_replay(inst, res.transcript)
        steps = [e for e in res.transcript if e.merged_edge or e.removed_vertex is not None]
        mutations += len(steps)
    assert mutations > 1000


def test_replay_stays_fast_on_large_transcripts():
    # rebuilding the graph per entry took seconds here
    inst = li(generate("twin-pendant-gadget", (md3(2000), 1000)))
    res = kernelize_li(inst)
    assert inst.graph.n == 4000 and len(res.transcript) == 2001
    start = time.perf_counter()
    out = replay(inst, res.transcript)
    assert time.perf_counter() - start < 0.5
    assert out == res.final_instance


# ---------------------------------------------------------------------------
# randomized safety: replay exactness and oracle agreement

@given(
    g=support.connected_graphs(min_n=2, max_n=8, max_extra=5),
    p=st.integers(0, 3),
    q=st.integers(0, 3),
    k=st.integers(1, 4),
    ell=st.integers(1, 3),
)
def test_li_replay_and_oracle_agreement(g, p, q, k, ell):
    inst = li(g, p=p, q=q, k=k, ell=ell)
    res = kernelize_li(inst)
    assert replay(inst, res.transcript) == res.final_instance
    truth = solve(inst).answer
    if res.outcome == "trivial_yes":
        assert truth == "yes"
    elif res.outcome == "trivial_no":
        assert truth == "no"
    else:
        assert res.outcome in ("reduced", "delegated")
        assert solve(res.instance).answer == truth


@given(
    g=support.connected_graphs(min_n=2, max_n=8, max_extra=5),
    nt_pick=st.sets(st.integers(1, 8), max_size=3),
    p=st.integers(0, 3),
    k=st.integers(1, 4),
    ell=st.integers(1, 3),
)
def test_lnt_replay_and_oracle_agreement(g, nt_pick, p, k, ell):
    nt = frozenset(v for v in nt_pick if v <= g.n)
    inst = lnt(g, nt, p=p, k=k, ell=ell)
    res = kernelize_lnt(inst)
    assert replay(inst, res.transcript) == res.final_instance
    if not g.is_tree():
        assert res.outcome != "trivial_yes"
    truth = solve(inst).answer
    if res.outcome == "trivial_yes":
        assert truth == "yes"
    elif res.outcome == "trivial_no":
        assert truth == "no"
    else:
        assert res.outcome in ("reduced", "delegated")
        assert solve(res.instance).answer == truth


# ---------------------------------------------------------------------------
# metamorphic: vertex names carry no meaning

@pytest.mark.parametrize("problem", ["li", "lnt"])
def test_relabelling_keeps_answers_and_kernel_sizes(problem):
    rng = random.Random({"li": 11, "lnt": 12}[problem])
    changed = 0
    for _ in range(150):
        n = rng.randint(3, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 3))
        g = generate("random-connected", (n, m), seed=rng.randrange(2**30))
        name = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        h = Graph.from_edges(n, [(name[u], name[v]) for u, v in g.edges])
        p, k, ell = rng.randint(0, 3), rng.randint(1, 2 * n), rng.randint(1, 4)
        if problem == "li":
            q = rng.randint(0, 3)
            a, b = li(g, p, q, k, ell), li(h, p, q, k, ell)
        else:
            nt = rng.sample(range(1, n + 1), rng.randint(0, 2))
            a, b = lnt(g, nt, p, k, ell), lnt(h, [name[v] for v in nt], p, k, ell)
        va, vb = solve(a), solve(b)
        assert va.answer == vb.answer
        # a yes with k <= 2 or ell = 1 stops at the ell-th fitting tree,
        # which depends on edge order; every other answer counts all trees
        if va.answer == "no" or (k > 2 and ell > 1):
            assert va.stats.trees_enumerated == vb.stats.trees_enumerated
        ka, kb = (kernelize(inst) for inst in (a, b))
        final = ka.final_instance.graph
        assert (ka.outcome, final.n, final.m) == (
            kb.outcome, kb.final_instance.graph.n, kb.final_instance.graph.m
        )
        changed += (final.n, final.m) != (n, m)
    assert changed >= 20


# ---------------------------------------------------------------------------
# metamorphic: subdividing a degree-2-path at n = 506 (ROADMAP item 15).
# R1 and R7 shorten a path of r >= ell+3 edges to ell+2, so subdividing a
# path of at least ell+2 edges costs exactly one more contraction and
# leaves the kernel as it was, while a path of at most ell+1 edges stays
# below the guard and keeps the new vertex.

MD3_44 = generate("min-degree-3", (44,))
SUBDIVISION_CASES = {
    "li-00": lambda g, ell: li(g, ell=ell),
    "li-11": lambda g, ell: li(g, p=1, q=1, ell=ell),
    "lnt-1": lambda g, ell: lnt(g, {1}, ell=ell),
}


def kernel_signature(res):
    f = res.final_instance
    g = f.graph
    degrees = sorted(len(g.adjacency[v]) for v in g.vertices())
    return res.outcome, g.n, g.m, f.p, f.q, len(f.nonterminals), degrees


def contractions(res):
    return sum(e.merged_edge is not None for e in res.transcript)


def subdivided_once(inst, fits, count, seed):
    """``count`` seeded copies of ``inst``'s graph, each with one edge of
    a maximal degree-2-path (clear of the required set) subdivided,
    picked among the paths whose edge count ``fits``."""
    rng, g = random.Random(seed), inst.graph
    paths = [vs for vs in maximal_degree2_paths(g, inst.nonterminals) if fits(len(vs) - 1)]
    for _ in range(count):
        vs = rng.choice(paths)
        i = rng.randrange(len(vs) - 1)
        a, b, x = vs[i], vs[i + 1], g.n + 1
        yield Graph.from_edges(x, (g.edges - {(min(a, b), max(a, b))}) | {(a, x), (b, x)})


@pytest.mark.parametrize("case", sorted(SUBDIVISION_CASES))
def test_subdividing_a_long_path_costs_one_contraction(case):
    make, ell = SUBDIVISION_CASES[case], 1
    base = make(generate("subdivided", (MD3_44, 8)), ell)
    before = kernelize(base, blackbox=lambda _: None)
    for g in subdivided_once(base, lambda r: r >= ell + 2, 15, seed=1):
        after = kernelize(make(g, ell), blackbox=lambda _: None)
        assert contractions(after) == contractions(before) + 1
        assert kernel_signature(after) == kernel_signature(before)


@pytest.mark.parametrize("case", sorted(SUBDIVISION_CASES))
def test_subdividing_a_short_path_keeps_the_vertex(case):
    make, ell = SUBDIVISION_CASES[case], 3
    base = make(generate("subdivided", (MD3_44, 4)), ell)
    before = kernelize(base, blackbox=lambda _: None)
    outcome, n = kernel_signature(before)[:2]
    for g in subdivided_once(base, lambda r: r <= ell + 1, 6, seed=2):
        after = kernelize(make(g, ell), blackbox=lambda _: None)
        assert contractions(after) == contractions(before)
        assert kernel_signature(after)[:2] == (outcome, n + 1)


# ---------------------------------------------------------------------------
# metamorphic: adding a pendant to a twin-pendant gadget (ROADMAP item 15).
# R2 deletes a pendant whose host carries another and, on li with p > 0,
# spends one unit of p, so a pendant added at a host costs exactly one more
# R2 entry, and raising p by one pays for it.  With p = q = 0 (p = 0 on
# lnt) the sweep, R4 or R9, deletes every pendant, so a pendant added at a
# vertex that is no host, no pendant and not required costs exactly one
# more deletion.  Either way the kernel keeps its signature.

TWIN_GADGETS = [
    (generate("twin-pendant-gadget", (MD3_44, 1), seed=3), 4, 2),
    (generate("twin-pendant-gadget", (MD3_44, 6), seed=3), 4, 2),
    (generate("twin-pendant-gadget", (md3(88), 8), seed=4), 1, 1),
    (generate("twin-pendant-gadget", (md3(350), 200), seed=5), 2, 2),
]


def pendant_hosts(g):
    return sorted({min(g.neighbors(v)) for v in pendant_vertices(g)})


def count_rules(res, rules):
    return sum(e.rule in rules for e in res.transcript)


@pytest.mark.parametrize("p, q", [(0, 0), (2, 2), (1, 0)])
def test_a_pendant_at_a_host_costs_one_twin_deletion(p, q):
    outcomes = set()
    for g, k, ell in TWIN_GADGETS:
        before = kernelize(li(g, p, q, k, ell), blackbox=lambda _: None)
        outcomes.add(before.outcome)
        hosts = pendant_hosts(g)
        for h in random.Random(1).sample(hosts, min(3, len(hosts))):
            inst = li(support.with_pendants(g, [h]), p + (p > 0), q, k, ell)
            after = kernelize(inst, blackbox=lambda _: None)
            assert count_rules(after, {"R2"}) == count_rules(before, {"R2"}) + 1
            assert kernel_signature(after) == kernel_signature(before)
    assert outcomes == {"reduced", "trivial_yes"}


def sweep_case(problem, g, k, ell):
    """p = q = 0 on li; p = 0 with 1 required on lnt."""
    return li(g, k=k, ell=ell) if problem == "li" else lnt(g, {1}, k=k, ell=ell)


@pytest.mark.parametrize("problem", ["li", "lnt"])
def test_a_pendant_at_a_free_vertex_costs_one_sweep_deletion(problem):
    outcomes = set()
    deletions = {"R2", "R4", "R9"}
    for g, k, ell in TWIN_GADGETS:
        before = kernelize(sweep_case(problem, g, k, ell), blackbox=lambda _: None)
        outcomes.add(before.outcome)
        taken = {1, *pendant_hosts(g), *pendant_vertices(g)}
        free = [v for v in g.vertices() if v not in taken]
        for v in random.Random(2).sample(free, 3):
            inst = sweep_case(problem, support.with_pendants(g, [v]), k, ell)
            after = kernelize(inst, blackbox=lambda _: None)
            assert count_rules(after, deletions) == count_rules(before, deletions) + 1
            assert kernel_signature(after) == kernel_signature(before)
    assert outcomes == {"reduced", "trivial_yes" if problem == "li" else "delegated_unavailable"}


# ---------------------------------------------------------------------------
# metamorphic: the R9 and R1 spends (ROADMAP item 15), on subdivided md3(44)
# at n = 506 with k = 2 and ell = 1, and no subroutine kernel.  R9 deletes
# a pendant and drops its host from the required set, so a pendant at a
# required vertex h costs exactly one more R9 entry, which releases h, and
# leaves the kernel of the graph without it and with h not required.  A
# degree-2 h splits a long path until its pendant goes.  While q stays
# positive R1 spends one unit of q per contraction, so subdividing a long
# path and raising q by one costs exactly one more R1 entry.

SUB_506 = generate("subdivided", (MD3_44, 8))


def released(res):
    """How many vertices each R9 entry drops from the required set."""
    return Counter(len(e.nt_removed) for e in res.transcript if e.rule == "R9")


def test_a_pendant_at_a_required_vertex_costs_one_releasing_sweep_deletion():
    g, h2 = SUB_506, 1
    before = kernelize(lnt(g, {h2}, k=2), blackbox=None)
    rng = random.Random(3)
    hs = [rng.sample([v for v in g.vertices() if v != h2 and g.degree(v) == d], 5) for d in (2, 3)]
    for h in hs[0] + hs[1]:
        after = kernelize(lnt(support.with_pendants(g, [h]), {h, h2}, k=2), blackbox=None)
        assert released(after) == released(before) + Counter([1])
        assert kernel_signature(after) == kernel_signature(before)


def test_subdividing_a_long_path_while_q_lasts_spends_one_more_q():
    base = li(SUB_506, q=400, k=2)
    before = kernelize(base, blackbox=None)
    assert before.final_instance.q == 70  # no spend hits 0
    for g in subdivided_once(base, lambda r: r >= 3, 14, seed=4):
        after = kernelize(li(g, q=401, k=2), blackbox=None)
        assert count_rules(after, {"R1"}) == count_rules(before, {"R1"}) + 1
        assert kernel_signature(after) == kernel_signature(before)
