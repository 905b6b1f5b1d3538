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

A family file is read straight into its ``Family`` (``read_family``):
one pass takes each block's lines as a set of texts and parses each
distinct line once, and any text it declines is read again, block by
block, by the reader that decides every error.  The reader checks hold
both readers to that block-by-block reader's value or error text, on
written families and on the same texts with a fault or a variant
spelled in.
"""

import json
import random

import pytest
import support
from test_construct_golden import _corpus
from test_oracle import _oracle_corpus

from divtrees import Graph, GraphFormatError, Instance, generate, read_edge_set_family, solve, write_instance
from divtrees import graphcore, spantree
from divtrees.cli import main
from divtrees.diversify import construct_family, verify_family
from divtrees.spantree import Family, _leaves, _read_blocks, read_family, write_family


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


# ---------------------------------------------------------------------------
# reading a family file


def _blocks(text):
    """The lines of each block of a written family, its header first."""
    lines, out, at = text.splitlines(), [], 0
    while at < len(lines):
        m = int(lines[at].split()[1])
        out.append(lines[at : at + 1 + m])
        at += 1 + m
    return out


def _joined(blocks, end="\n"):
    return "".join(line + end for block in blocks for line in block)


def _variants(text):
    """(name, text) for a written family and for the same text with one
    fault or variant spelled into it, mostly at block 0's first edge."""
    blocks = _blocks(text)

    def edit(b, i, *lines):
        out = [list(block) for block in blocks]
        out[b][i : i + 1] = lines
        return _joined(out)

    yield "as written", text
    yield "crlf", _joined(blocks, "\r\n")
    yield "empty", ""
    n, m = blocks[0][0].split()
    yield "extra header field", edit(0, 0, f"{n} {m} 0")
    yield "count past the digit limit", edit(0, 0, f"{n} {'1' * 5000}")
    yield "another n", edit(len(blocks) - 1, 0, f"{int(n) + 1} {m}")
    if len(blocks[-1]) > 1:
        yield "short last block", _joined(blocks)[: -len(blocks[-1][-1]) - 1]
    if len(blocks[0]) > 1:
        x = blocks[0][1]
        u, v = x.split()
        yield "comment", edit(0, 1, x, "# a comment")
        yield "blank", edit(0, 1, x, "")
        yield "reversed pair", edit(0, 1, f"{v} {u}")
        yield "leading zero", edit(0, 1, f"0{u} {v}")
        yield "self-loop", edit(0, 1, "1 1")
        yield "out of range", edit(0, 1, f"{u} {int(n) + 1}")
    if len(blocks[0]) > 2:
        yield "duplicate line", edit(0, 2, blocks[0][1])
    shared = [line for line in blocks[0][1:] if len(blocks) > 1 and line in blocks[1][1:]]
    if len(shared) > 1:
        # x twice in block 0 and y twice in block 1: every line is still
        # in as many blocks as before, counted with repeats
        x, y = shared[:2]
        out = [list(block) for block in blocks]
        out[0][out[0].index(y)] = x
        out[1][out[1].index(x)] = y
        yield "multiset trap", _joined(out)


# the variants that read: the rest are faults, and of those that read,
# the one pass takes these, and every other goes block by block
READ = {"as written", "crlf", "empty", "comment", "blank", "reversed pair", "leading zero"}
ONE_PASS = {"as written", "crlf", "empty"}


def _outcome(read, text):
    try:
        return read(text)
    except GraphFormatError as exc:
        return f"error: {exc}"


def _block_by_block(host, text):
    """The family the block-by-block reader alone makes of ``text``: the
    one pass declines every text when its parse declines every line."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spantree, "_canonical_pairs", lambda lines, n: None)
        return _outcome(lambda t: Family.of(host, read_edge_set_family(t, host.n)), text)


def _reads_alike(host, text):
    n = host.n
    names = set()
    for name, variant in _variants(text):
        names.add(name)
        want = _block_by_block(host, variant)
        assert isinstance(want, Family) is (name in READ), (name, want)
        assert _outcome(lambda t: read_family(t, host), variant) == want, name
        assert _outcome(lambda t: Family.of(host, read_edge_set_family(t, n)), variant) == want, name
        # the one pass raises nothing: a fault is the block-by-block reader's
        one_pass = isinstance(want, Family) and _read_blocks(variant, n)[1] is not None
        assert one_pass is (name in ONE_PASS), name
    return names


@pytest.mark.parametrize("name, inst", list(_corpus()), ids=[name for name, _ in _corpus()])
def test_a_written_family_reads_as_the_block_by_block_reader_reads_it(name, inst):
    family, _, _ = construct_family(inst)
    if family is not None:
        assert read_family(write_family(family), inst.graph) == family
        names = _reads_alike(inst.graph, write_family(family))
        assert "multiset trap" in names


def test_a_written_witness_reads_as_the_block_by_block_reader_reads_it():
    rng = random.Random(42)
    witnesses = 0
    for problem in ("li", "lnt"):
        for inst, limits in rng.sample(list(_oracle_corpus(problem)), 40):
            witness = solve(inst, limits).witness
            if witness is not None:
                witnesses += 1
                assert read_family(write_family(witness), inst.graph) == witness
                _reads_alike(inst.graph, write_family(witness))
    assert witnesses > 10


def test_k1_families_read_alike():
    k1 = Graph(1, frozenset())
    for text in ("1 0\n", "1 0\n1 0\n", "1 0\n\n1 0\n", "1 00\n", "1 0\n1 1\n"):
        want = _block_by_block(k1, text)
        assert _outcome(lambda t: read_family(t, k1), text) == want, text
    assert read_family("1 0\n1 0\n", k1) == Family(k1, (), ((), ()))


def test_the_growth_family_parses_each_distinct_line_once(monkeypatch, tmp_path):
    name, inst = next(_corpus())
    assert name == "li-grow-1012"
    family, _, _ = construct_family(inst)
    parsed = []
    for module in (graphcore, spantree):
        monkeypatch.setattr(
            module, "_canonical_pairs",
            lambda lines, n, parse=module._canonical_pairs: parsed.append(len(lines)) or parse(lines, n),
        )
    assert read_family(write_family(family), inst.graph) == family
    distinct = {*family.core, *(e for own in family.own for e in own)}
    assert parsed == [len(distinct)]
    # 36 blocks of 1,011 lines, about 1,050 of them distinct
    assert len(family) * (inst.graph.n - 1) > 30 * len(distinct)
    # construct's report and verify's, read off the file, are one report
    path, fam = tmp_path / "inst.txt", tmp_path / "family.txt"
    path.write_text(write_instance(inst))
    assert main(["construct", "-i", str(path), "--family-out", str(fam), "-o", str(tmp_path / "c.json")]) == 0
    assert main(["verify", "-i", str(path), "--family", str(fam), "-o", str(tmp_path / "v.json")]) == 0
    built, checked = (json.loads((tmp_path / f"{x}.json").read_text()) for x in "cv")
    assert checked["report"] == built["report"] and checked["family_size"] == 36
