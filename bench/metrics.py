"""End-to-end and per-layer metrics, computed from worker records.

End-to-end metrics come from an untraced run, over the normalised call
times of calibrate.py.  Per-layer metrics come
from the spans and counts of one traced round (see tracing.py); times
are seconds per round.  Metrics marked "self" subtract the time spent
in traced callees, "incl" keeps it.  A ratio whose base is zero, and a
doubling ratio on a workload without a ladder, reads 0.
"""

from __future__ import annotations

from statistics import median

TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)
# printed with the end-to-end metrics, but not gated: both are 0 on
# some workloads, and failures already surface as "failed"
SHARES = (("failed_share", "share"), ("undecided_share", "share"))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile that still has at
    least ten samples above it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def _per_case(records: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        out.setdefault(r["case"], []).append(r["seconds"])
    return out


def end_to_end(records: list[dict], statuses: list[str], setup_s: float,
               peak_rss_kb: int, rounds: int) -> dict[str, float]:
    samples = [r["seconds"] for r in records]
    _, tail_s = tail(samples)
    n = len(records)
    per_case = _per_case(records)
    # a round's calls over a round's time, each call at its median
    round_s = sum(median(xs) for xs in per_case.values())
    return {
        "setup_s": setup_s,
        "calls_per_s": len(per_case) / round_s,
        "latency_p50_ms": 1000 * median(samples),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "output_mb": sum(r["bytes"] for r in records) / rounds / 1e6,
        "failed_share": statuses.count("failed") / n,
        "undecided_share": statuses.count("undecided") / n,
    }


class _Layers:
    def __init__(self, summary: dict, counts: dict, rungs: dict[int, int]) -> None:
        self.s = summary
        self.c = counts
        self.rungs = rungs  # case index -> ladder rung

    def self(self, *names: str) -> float:
        return sum(self.s["self"].get(n, 0.0) for n in names)

    def incl(self, *names: str) -> float:
        return sum(self.s["incl"].get(n, 0.0) for n in names)

    def calls(self, name: str) -> float:
        return self.s["calls"].get(name, 0)

    def count(self, name: str) -> float:
        return self.c.get(name, 0)

    def yields(self, name: str, site: str | None = None) -> float:
        prefix = f"yields:{name}@"
        return sum(v for k, v in self.c.items()
                   if k.startswith(prefix) and (site is None or k == prefix + site))

    def doubling(self, name: str) -> float:
        """Self time at the largest ladder rung over the next one."""
        if not self.rungs:
            return 0.0
        top = max(self.rungs.values())
        by_call = self.s["self_by_call"]
        at = lambda rung: sum(by_call.get((name, i), 0.0) for i, r in self.rungs.items() if r == rung)
        return _ratio(at(top), at(top - 1))

    def first_tree_ms(self) -> float:
        firsts = [s for name, s in self.s["first_yield"].values()
                  if name == "spantree.enumerate_tree_masks"]
        return 1000 * sum(firsts) / len(firsts) if firsts else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_EXHAUST_C = "kernelizer._exhaust_contractions"
_EXHAUST_P = "kernelizer._exhaust_pendant_deletions"
_MASKS = "spantree.enumerate_tree_masks"
_TREES = "spantree.enumerate_spanning_trees"
_KERNELS = ("blackbox.mist_kernel", "blackbox.ntst_kernel")

# name, unit, how; the layer table in README.md says which end-to-end
# metric each should move, on which workload
PER_LAYER = (
    ("kernelizer.contraction_pass.s", "s", lambda x: x.self(_EXHAUST_C)),
    ("kernelizer.contraction_pass.calls", "count", lambda x: x.calls(_EXHAUST_C)),
    ("kernelizer.contraction_pass.doubling_ratio", "ratio", lambda x: x.doubling(_EXHAUST_C)),
    ("kernelizer.pendant_pass.s", "s", lambda x: x.self(_EXHAUST_P)),
    ("kernelizer.pendant_pass.calls", "count", lambda x: x.calls(_EXHAUST_P)),
    ("kernelizer.pendant_pass.doubling_ratio", "ratio", lambda x: x.doubling(_EXHAUST_P)),
    ("kernelizer.contractions.count", "count", lambda x: x.count("kernelizer.contractions.count")),
    ("kernelizer.deletions.count", "count", lambda x: x.count("kernelizer.deletions.count")),
    ("kernelizer.decisions.count", "count", lambda x: x.count("kernelizer.decisions.count")),
    ("kernelizer.apply_rule.s", "s", lambda x: x.self("kernelizer.apply_rule")),
    ("kernelizer.payload_json.s", "s", lambda x: x.self("kernelizer.payload_json")),
    ("kernelizer.payload_json.doubling_ratio", "ratio", lambda x: x.doubling("kernelizer.payload_json")),
    ("kernelizer.transcript_ndjson.s", "s", lambda x: x.self("kernelizer.transcript_to_ndjson")),
    ("kernelizer.transcript_ndjson.bytes", "bytes", lambda x: x.count("kernelizer.transcript_ndjson.bytes")),
    ("spantree.enumerate.trees", "count", lambda x: x.yields(_MASKS)),
    ("spantree.enumerate.s", "s", lambda x: x.self(_MASKS, _TREES)),
    ("spantree.trees_per_s", "1/s", lambda x: _ratio(x.yields(_MASKS), x.self(_MASKS, _TREES))),
    ("spantree.first_tree_ms", "ms", lambda x: x.first_tree_ms()),
    ("spantree.grow_leaves.s", "s", lambda x: x.incl("spantree.grow_leaves")),
    ("spantree.augment_leaf.calls", "count", lambda x: x.calls("spantree.augment_leaf")),
    ("oracle.solve.s", "s", lambda x: x.self("oracle.solve", "oracle.solve_li", "oracle.solve_lnt")),
    ("oracle.trees_enumerated.count", "count", lambda x: x.count("oracle.trees_enumerated.count")),
    ("oracle.clique_nodes.count", "count", lambda x: x.count("oracle.clique_nodes.count")),
    ("oracle.find_clique.s", "s", lambda x: x.self("oracle._find_clique")),
    ("oracle.clique_nodes_per_s", "1/s",
     lambda x: _ratio(x.count("oracle.clique_nodes.count"), x.self("oracle._find_clique"))),
    ("oracle.candidates.count", "count", lambda x: x.count("oracle.candidates.count")),
    ("blackbox.mist_kernel.s", "s", lambda x: x.incl("blackbox.mist_kernel")),
    ("blackbox.ntst_kernel.s", "s", lambda x: x.incl("blackbox.ntst_kernel")),
    ("blackbox.trees_examined.count", "count", lambda x: x.yields(_TREES, "blackbox")),
    ("blackbox.trees_per_s", "1/s", lambda x: _ratio(x.yields(_TREES, "blackbox"), x.incl(*_KERNELS))),
    ("blackbox.unavailable.count", "count", lambda x: x.count("blackbox.unavailable.count")),
    ("diversify.plan_swaps.s", "s", lambda x: x.incl("diversify.plan_swaps")),
    ("diversify.build_diverse_family.s", "s", lambda x: x.incl("diversify.build_diverse_family")),
    ("diversify.verify_family.s", "s", lambda x: x.incl("diversify.verify_family")),
    ("graphcore.read_instance.s", "s", lambda x: x.incl("graphcore.read_instance")),
    ("graphcore.maximal_degree2_paths.s", "s", lambda x: x.self("graphcore.maximal_degree2_paths")),
    ("graphcore.maximal_degree2_paths.calls", "count", lambda x: x.calls("graphcore.maximal_degree2_paths")),
    ("cli.kernelize.s", "s", lambda x: x.self("cli._cmd_kernelize")),
    ("cli.solve.s", "s", lambda x: x.self("cli._cmd_solve")),
    ("cli.construct.s", "s", lambda x: x.self("cli._cmd_construct")),
    ("cli.verify.s", "s", lambda x: x.self("cli._cmd_verify")),
    ("cli.audit.s", "s", lambda x: x.self("cli._cmd_audit")),
    ("cli.emit_json.s", "s", lambda x: x.incl("cli._emit_json")),
    ("cli.output.bytes", "bytes", lambda x: x.count("cli.output.bytes")),
)


OVERHEAD = ("trace.overhead_share", "share")
LAYER_METRICS = tuple((n, u) for n, u, _ in PER_LAYER) + (OVERHEAD,)
UNITS = dict(END_TO_END + SHARES + LAYER_METRICS)


def per_layer(summary: dict, counts: dict, rungs: dict[int, int],
              untraced_s: float, traced_s: float) -> dict[str, float]:
    x = _Layers(summary, counts, rungs)
    out = {name: float(how(x)) for name, _, how in PER_LAYER}
    out[OVERHEAD[0]] = (traced_s - untraced_s) / untraced_s
    return out
