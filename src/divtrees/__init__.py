"""Diverse spanning tree kernelization toolkit.

Decide whether a graph has several spanning trees that are pairwise far
apart in symmetric-difference distance, under per-tree leaf and
internal-vertex constraints.  The package offers two polynomial
kernelization pipelines, the constructive machinery behind their yes
answers (leaf growth and leaf edge swaps), an exact brute-force oracle
for small instances, and a command-line front end.
"""

from .graphcore import (
    Graph,
    GraphFormatError,
    Instance,
    InstanceNT,
    InternalInvariantError,
    generate,
    maximal_degree2_paths,
    pendant_vertices,
    read_graph,
    read_instance,
    write_graph,
    write_instance,
)
from .spantree import (
    Family,
    SpanningTree,
    TreeEnumerationOverflow,
    arbitrary_spanning_tree,
    count_spanning_trees,
    enumerate_spanning_trees,
    read_edge_set_family,
    write_family,
)
from .diversify import (
    FamilyReport,
    construct_family,
    verify_family,
)
from .blackbox import mist_kernel, ntst_kernel
from .oracle import (
    OracleLimits,
    OracleVerdict,
    solve,
    solve_li,
    solve_lnt,
)
from .kernelizer import (
    KernelResult,
    RuleApplication,
    apply_rule,
    case1_bound_li,
    case1_bound_lnt,
    case2_bound_li,
    case2_bound_lnt,
    kernelize,
    kernelize_li,
    kernelize_lnt,
    replay,
    transcript_to_ndjson,
)

__version__ = "0.1.0"
