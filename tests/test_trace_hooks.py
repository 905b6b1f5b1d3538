"""Names that bench/tracing.py and bench/metrics.py look up by string.

The benchmark wraps these functions in their module namespaces and
reads its per-layer counts off their arguments and return values.  A
rename does not break the benchmark; it silently turns the affected
counts into zeros.  This guard keeps the lookups honest from tier-1.
"""

import importlib
import inspect

import pytest

from divtrees import blackbox, cli, kernelizer, oracle

HOOKED = [
    "kernelizer.kernelize_li",
    "kernelizer.kernelize_lnt",
    "kernelizer._exhaust_contractions",
    "kernelizer._exhaust_pendant_deletions",
    "kernelizer.apply_rule",
    "kernelizer.transcript_to_ndjson",
    "oracle.solve",
    "oracle.solve_li",
    "oracle.solve_lnt",
    "oracle._find_clique",
    "spantree.enumerate_tree_masks",
    "spantree.enumerate_spanning_trees",
    "spantree.grow_leaves",
    "spantree.augment_leaf",
    "blackbox.mist_kernel",
    "blackbox.ntst_kernel",
    "diversify.plan_swaps",
    "diversify.build_diverse_family",
    "diversify.verify_family",
    "graphcore.read_instance",
    "graphcore.maximal_degree2_paths",
    "cli._cmd_kernelize",
    "cli._cmd_solve",
    "cli._cmd_verify",
    "cli._cmd_construct",
    "cli._cmd_audit",
    "cli._emit_json",
    "cli._emit",
]


@pytest.mark.parametrize("dotted", HOOKED)
def test_hooked_name_is_a_function_of_its_module(dotted):
    # the tracer only wraps functions whose home module is the one named
    short, attr = dotted.split(".")
    mod = importlib.import_module(f"divtrees.{short}")
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn), f"{dotted} is gone or is not a function"
    assert fn.__module__ == mod.__name__


def test_enumerators_stay_generators():
    # a generator is traced per resume; its yields count trees
    from divtrees import spantree

    assert inspect.isgeneratorfunction(spantree.enumerate_tree_masks)
    assert inspect.isgeneratorfunction(spantree.enumerate_spanning_trees)


def test_kernelizer_blackbox_defaults_are_the_named_kernels():
    # the tracer re-points these bound defaults at the wrapped kernels
    assert kernelizer.kernelize_li.__kwdefaults__["blackbox"] is blackbox.mist_kernel
    assert kernelizer.kernelize_lnt.__kwdefaults__["blackbox"] is blackbox.ntst_kernel


def test_counted_arguments_keep_their_positions():
    # counts are read off positional arguments: the emitted text and
    # the clique search's candidate list
    assert list(inspect.signature(cli._emit).parameters)[:2] == ["output", "text"]
    assert list(inspect.signature(oracle._find_clique).parameters)[0] == "cands"


def test_cli_dispatch_table_holds_the_cmd_functions():
    for name, fn in cli._COMMANDS.items():
        assert fn is getattr(cli, "_cmd_" + name)


def test_kernel_payload_method_is_on_the_result_class():
    assert inspect.isfunction(kernelizer.KernelResult.to_json_dict)
