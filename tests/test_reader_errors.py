"""The edge-list readers' exact error text, and which error wins.

``read_graph`` and ``read_edge_set_family`` parse the same ``n m``
blocks.  A block can hold several faults at once; these pins fix the
one reported: a bad row before anything else, then a short block's
edge count, then the first duplicate edge in row order.  Comment
lines, blank lines and ``#``-prefixed lines (directives included)
inside a block are skipped, indented or not.
"""

import pytest

from divtrees import Graph, GraphFormatError, read_edge_set_family, read_graph

ERRORS = [
    # a bad row after an earlier duplicate is reported as the row error
    ("4 3\n1 2\n2 1\n1 x\n", "edge line must be two integers, got '1 x'"),
    ("4 3\n1 2\n1 2\n9 1\n", "vertex out of range in edge 9 1"),
    ("4 3\n1 2\n2 1\n3 3\n", "self-loop at vertex 3"),
    ("4 3\n1 2\n2 1\n1 2 3\n", "edge line must be 'u v', got '1 2 3'"),
    # a short block reports its edge count before any duplicate
    ("4 3\n1 2\n2 1\n", "expected 3 edges, found 2"),
    ("4 3\n1 2\n# 2 3\n\n", "expected 3 edges, found 1"),
    # the first duplicate in row order
    ("4 2\n1 2\n1 2\n", "duplicate edge (1, 2)"),
    ("4 4\n1 2\n3 4\n4 3\n2 1\n", "duplicate edge (3, 4)"),
    ("4 4\n1 2\n3 4\n2 1\n4 3\n", "duplicate edge (1, 2)"),
    # header faults
    ("4\n", "header must be 'n m', got '4'"),
    ("4 x\n", "header must be two integers, got '4 x'"),
    ("0 0\n", "bad sizes n=0 m=0"),
    ("4 -1\n", "bad sizes n=4 m=-1"),
]


@pytest.mark.parametrize("text, message", ERRORS)
def test_read_graph_reports_the_first_fault(text, message):
    with pytest.raises(GraphFormatError) as err:
        read_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", ERRORS)
def test_read_family_reports_the_first_fault(text, message):
    with pytest.raises(GraphFormatError) as err:
        read_edge_set_family(text, 4)
    assert str(err.value) == message


def test_a_later_block_reports_its_own_fault():
    text = "4 3\n1 2\n2 3\n3 4\n4 3\n1 2\n2 1\n1 x\n"
    with pytest.raises(GraphFormatError) as err:
        read_edge_set_family(text, 4)
    assert str(err.value) == "edge line must be two integers, got '1 x'"


def test_a_line_is_checked_against_its_own_block_n():
    # "3 9" fits the first block's n = 10, not the second's n = 5: the
    # second block reports its own range fault, not its n
    text = "10 2\n1 2\n3 9\n5 4\n1 2\n3 9\n2 3\n4 5\n"
    with pytest.raises(GraphFormatError) as err:
        read_edge_set_family(text, 10)
    assert str(err.value) == "vertex out of range in edge 3 9"


def test_a_later_block_of_earlier_lines_reports_its_duplicate():
    text = "4 3\n1 2\n2 3\n3 4\n4 3\n2 3\n3 4\n2 3\n"
    with pytest.raises(GraphFormatError) as err:
        read_edge_set_family(text, 4)
    assert str(err.value) == "duplicate edge (2, 3)"


BLOCK = "4 3\n1 2\n\n# a comment\n#% p 2\n   \n2 3\n  # indented\n\t3 4  \n#\n"
EDGES = frozenset({(1, 2), (2, 3), (3, 4)})


def test_comments_and_blanks_inside_a_block_are_skipped():
    assert read_graph(BLOCK) == Graph(4, EDGES)
    assert read_edge_set_family(BLOCK + BLOCK, 4) == [EDGES, EDGES]


def test_rows_are_normalised():
    assert read_graph("4 3\n2 1\n3 2\n4 3\n") == Graph(4, EDGES)
    assert read_edge_set_family("4 3\n2 1\n3 2\n4 3\n", 4) == [EDGES]
