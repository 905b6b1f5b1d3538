"""Tests of the benchmark's own machinery.

Corpus determinism, the output checker (including a deliberately wrong
pin and an undecided answer), the tail-percentile rule, the speed
calibration, span
bookkeeping, tracing at the lookup sites, and the one pin that rests on
exhaustive search rather than a counting argument.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from divtrees import blackbox, cli, kernelizer  # noqa: E402
from divtrees.graphcore import generate, read_instance  # noqa: E402


def _write(c: corpus.Corpus, root: Path) -> None:
    for rel, text in c.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _case(workload: str, name: str, seed: int = 1):
    c = corpus.build(workload, seed)
    return c, next(x for x in c.cases if x.name == name)


def _call(tmp_path: Path, c: corpus.Corpus, case: corpus.Case, argv=None):
    """Run one case in tmp_path; return (filled argv, exit code)."""
    _write(c, tmp_path)
    (tmp_path / "out").mkdir(exist_ok=True)
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in (argv or case.argv)]
    argv = [str(tmp_path / a) if a.startswith("inst/") else a for a in argv]
    return argv, cli.main(argv)


# ---------------------------------------------------------------------------
# corpus

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(corpus.build(workload, 5), a)
    _write(corpus.build(workload, 5), b)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert corpus.build(workload, 5).cases == corpus.build(workload, 5).cases


def test_other_seed_gives_other_files():
    assert corpus.build("reduce-large", 1).files != corpus.build("reduce-large", 2).files


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_case_has_a_pin_and_a_reason(workload):
    cases = corpus.build(workload, 1).cases
    assert len(cases) % 2 == 1  # so the median falls inside one case's repeats
    assert len({c.name for c in cases}) == len(cases)
    for c in cases:
        assert c.pin["kind"] in ("kernelize", "solve", "construct", "verify", "audit")
        assert c.why and "\n" not in c.why


# ---------------------------------------------------------------------------
# checker

def test_checker_accepts_the_true_pin_and_flags_a_wrong_one(tmp_path):
    c, case = _case("exact-small", "k6-clique")
    argv, rc = _call(tmp_path, c, case)
    assert check.check_call(case.pin, argv, rc) == check.OK
    status, why = check.check_call({**case.pin, "answer": "yes"}, argv, rc)
    assert status == "failed" and "pinned yes" in why


def test_checker_flags_wrong_rule_counts_and_final_size(tmp_path):
    c, case = _case("reduce-large", "tp-li-500")
    argv, rc = _call(tmp_path, c, case)
    assert check.check_call(case.pin, argv, rc) == check.OK
    rules = dict(case.pin["rules"], R2=case.pin["rules"]["R2"] + 1)
    assert check.check_call({**case.pin, "rules": rules}, argv, rc)[0] == "failed"
    final = dict(case.pin["final"], n=case.pin["final"]["n"] - 1)
    assert check.check_call({**case.pin, "final": final}, argv, rc)[0] == "failed"


def test_checker_counts_an_exhausted_budget_as_undecided(tmp_path):
    c, case = _case("delegate-construct", "k2-110")
    small = list(case.argv)
    small[small.index("--budget") + 1] = "20"
    argv, rc = _call(tmp_path, c, case, small)
    assert check.check_call(case.pin, argv, rc)[0] == "undecided"
    strict = {k: v for k, v in case.pin.items() if k != "undecided_ok"}
    assert check.check_call(strict, argv, rc)[0] == "failed"


def test_shares_count_failed_and_undecided_apart():
    records = [{"case": f"c{i}", "round": 0, "seconds": 0.01 * (i + 1), "bytes": 10}
               for i in range(12)]
    statuses = ["ok"] * 9 + ["failed"] + ["undecided"] * 2
    out = metrics.end_to_end(records, statuses, 0.5, 2048, 1)
    assert out["failed_share"] == pytest.approx(1 / 12)
    assert out["undecided_share"] == pytest.approx(2 / 12)
    assert out["peak_rss_mb"] == 2.0 and out["output_mb"] == pytest.approx(120e-6)


# ---------------------------------------------------------------------------
# percentiles

def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(range(1, 101))
    random.Random(0).shuffle(xs)
    pct, value = metrics.tail(xs)
    assert (pct, value) == (90.0, 90)
    assert sum(x > value for x in xs) == 10
    pct, value = metrics.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        metrics.tail(list(range(10)))


@pytest.mark.parametrize("n_cases", (9, 13, 19))
def test_enough_rounds_put_the_tail_above_the_median(n_cases):
    for wanted in (0.2, 1, 2.6, 6):
        rounds = run._rounds(wanted, n_cases)
        xs = [c + r / 100 for c in range(n_cases) for r in range(rounds)]
        assert rounds >= 2 and metrics.tail(xs)[1] > metrics.median(xs)


def test_calls_per_s_takes_each_case_at_its_median():
    records = [{"case": c, "round": 0, "seconds": s, "bytes": 0}
               for c, xs in (("a", [5, 1, 3, 2, 6, 4]), ("b", [12, 8, 10, 7, 11, 9])) for s in xs]
    out = metrics.end_to_end(records, ["ok"] * 12, 0.5, 1024, 1)
    assert out["calls_per_s"] == pytest.approx(2 / (3.5 + 9.5))
    assert out["latency_p50_ms"] == pytest.approx(6500)


# ---------------------------------------------------------------------------
# calibration

def test_normalise_scales_by_the_mean_probe_time():
    ref = calibrate.REF_PROBE_S
    assert calibrate.normalise(1.0, [ref, ref]) == pytest.approx(1.0)
    slow = 0.5 ** calibrate.SENSITIVITY
    assert calibrate.normalise(3.0, [ref, 2 * ref, 3 * ref]) == pytest.approx(3.0 * slow)


def test_sampler_probes_during_a_call_and_restores_the_handler():
    import signal
    from time import perf_counter

    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        end = perf_counter() + 5 * calibrate.SAMPLE_EVERY_S
        while perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.stolen >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_measure_returns_the_result_and_a_positive_time():
    result, seconds = calibrate.measure(lambda: sum(range(10000)))
    assert result == sum(range(10000)) and seconds > 0


# ---------------------------------------------------------------------------
# tracing

def test_self_time_subtracts_children_and_inclusive_skips_recursion():
    spans = [
        (3, 2, "a", 3.0, 4.0, 0, 0, False),
        (2, 1, "b", 2.0, 5.0, 0, 0, False),
        (1, 0, "a", 0.0, 10.0, 0, 0, False),
        (4, 0, "g", 20.0, 21.0, 1, 7, False),
        (5, 0, "g", 22.0, 24.0, 1, 7, True),
        (6, 0, "g", 25.0, 26.0, 1, 7, True),
    ]
    s = tracing.summarize(spans)
    assert s["self"]["a"] == pytest.approx(7.0 + 1.0)
    assert s["self"]["b"] == pytest.approx(2.0)
    assert s["incl"]["a"] == pytest.approx(10.0)
    assert s["calls"] == {"a": 2, "b": 1}
    assert s["first_yield"] == {7: ("g", 3.0)}
    assert s["self_by_call"][("g", 1)] == pytest.approx(4.0)


def test_tracing_reaches_every_lookup_site_and_changes_no_output(tmp_path):
    c, case = _case("reduce-large", "sub-li-506")
    argv, rc = _call(tmp_path, c, case)
    plain = Path(argv[argv.index("-o") + 1]).read_bytes()
    original = cli._COMMANDS["kernelize"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == rc
        kernelizer.kernelize_li(read_instance(Path(argv[2]).read_text()))
    finally:
        tracer.uninstall()
    assert Path(argv[argv.index("-o") + 1]).read_bytes() == plain
    names = [s[2] for s in tracer.spans]
    for name in ("cli._cmd_kernelize", "graphcore.read_instance",
                 "kernelizer._exhaust_contractions", "kernelizer.payload_json",
                 "cli._emit_json"):
        assert name in names
    # once through cli's partial, once through kernelize_li's bound default
    assert names.count("blackbox.mist_kernel") == 2
    assert cli._COMMANDS["kernelize"] is original
    assert kernelizer.kernelize_li.__kwdefaults__["blackbox"] is blackbox.mist_kernel
    assert tracer.counts["kernelizer.contractions.count"] == 2 * case.pin["rules"]["R1"]


# ---------------------------------------------------------------------------
# pins that rest on search

def test_md10_pin_no_by_an_independent_search():
    """No 4 spanning trees of min-degree-3(10) are pairwise 10 apart:
    networkx enumerates the trees, a plain clique search does the rest."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph(generate("min-degree-3", (10,)).edges)
    index = {e: i for i, e in enumerate(sorted(tuple(sorted(e)) for e in g.edges))}
    masks = [sum(1 << index[tuple(sorted(e))] for e in t.edges)
             for t in nx.SpanningTreeIterator(g)]
    assert len(masks) == 1815
    far = [sum(1 << j for j in range(i + 1, len(masks)) if (m ^ masks[j]).bit_count() >= 10)
           for i, m in enumerate(masks)]

    def extend(pool: int, need: int) -> bool:
        while need and pool:
            low = pool & -pool
            pool ^= low
            if extend(pool & far[low.bit_length() - 1], need - 1):
                return True
        return not need

    assert not extend((1 << len(masks)) - 1, 4)
    assert extend((1 << len(masks)) - 1, 3)  # the search can say yes
