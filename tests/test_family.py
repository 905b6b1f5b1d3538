"""A family is one value: its core and each member's own edges.

Construct builds its ``Family`` from the swap plan, and any list of
members becomes one through ``Family.of``.  These differential checks
hold the two to the same value, and ``verify_family`` to one report on
a ``Family``, on the plain list of its member edge sets and, member by
member, on the reference: for the families of the construct golden
corpus, for a seeded sample of oracle witnesses and for broken and
edge-case lists.  The report must not depend on how a family splits
into core and own edges, so each check also reads the family with part
of its core told as every member's own.
"""

import random

import pytest
import support
from test_construct_golden import _corpus
from test_oracle import _oracle_corpus

from divtrees import Graph, Instance, generate, solve
from divtrees.diversify import construct_family, verify_family
from divtrees.spantree import Family, _leaves


def _members(family):
    return [frozenset(family.core).union(own) for own in family.own]


def _moved(family, count):
    """``family`` with its first ``count`` core edges told as every
    member's own: a split that ``Family.of`` never makes."""
    core, head = family.core[count:], family.core[:count]
    return Family(family.host, core, tuple(tuple(sorted(head + own)) for own in family.own))


def _same_report(g, family, nt=frozenset()):
    sets = _members(family)
    for p, q, k in ((0, 0, 1), (3, 2, 4), (g.n, g.n, g.n)):
        report = support.reference_verify_family(g, sets, p, q, k, nt=nt)
        assert verify_family(g, sets, p, q, k, nt=nt) == report, (p, q, k)
        for count in (0, 1, len(family.core)):
            assert verify_family(g, _moved(family, count), p, q, k, nt=nt) == report, (p, q, k, count)


def _constructed():
    yield from _corpus()
    # one member: Family.of makes it its own core, with nothing owned
    yield "li-one-member", Instance(generate("min-degree-3", (30,)), 2, 0, 4, 1)


@pytest.mark.parametrize("name, inst", list(_constructed()), ids=[name for name, _ in _constructed()])
def test_construct_builds_the_family_its_members_make(name, inst):
    family, reason, _ = construct_family(inst)
    if family is None:
        assert reason is not None
        return
    assert family == Family.of(inst.graph, [t.edges for t in family])
    _same_report(inst.graph, family, inst.nonterminals)


def test_oracle_witnesses_read_as_their_edge_sets():
    rng = random.Random(41)
    witnesses = 0
    for problem in ("li", "lnt"):
        for inst, limits in rng.sample(list(_oracle_corpus(problem)), 60):
            witness = solve(inst, limits).witness
            if witness is not None:
                witnesses += 1
                assert witness == Family.of(inst.graph, [t.edges for t in witness])
                _same_report(inst.graph, witness, inst.nonterminals)
    assert witnesses > 20


def _edge_cases():
    """(name, host, member edge sets, whether they pass at p = q = 0,
    k = 1): one constructed member broken each way, and the edge cases."""
    family, _, _ = construct_family(Instance(generate("min-degree-3", (40,)), 0, 0, 4, 4))
    g = family.host
    first, *rest = _members(family)
    # dropping a leaf's edge cuts the leaf off, so a host edge elsewhere
    # closes a cycle among the rest: n - 1 edges that do not span
    v = min(_leaves(g.n, first))
    (cut,) = [e for e in first if v in e]
    closing = min(e for e in g.edges - first if v not in e)
    yield "foreign edge", g, [first - {cut} | {(g.n, g.n + 1)}, *rest], False
    yield "member closes a cycle", g, [first - {cut} | {closing}, *rest], False
    yield "every member closes it", g, [first - {cut} | {closing}] * 2, False
    yield "duplicate member", g, [first, first, *rest], False
    yield "member one edge short", g, [first - {cut}, *rest], False
    yield "one member", g, [first], True
    yield "K1", Graph(1, frozenset()), [frozenset()], True


@pytest.mark.parametrize("name, g, sets, passes", list(_edge_cases()), ids=[c[0] for c in _edge_cases()])
def test_a_list_of_members_reads_as_its_family(name, g, sets, passes):
    family = Family.of(g, sets)
    assert _members(family) == sets
    assert verify_family(g, family, 0, 0, 1).verdict is passes
    # the first member's leaves as required vertices: most are the core's
    _same_report(g, family, frozenset({1, 2}) | _leaves(g.n, sets[0]))
