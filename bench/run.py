"""divtrees benchmark: seeded CLI workloads, checked outputs, layer traces.

    python3 bench/run.py --workload reduce-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; divtrees is imported from its
``src/``.  Each workload runs in a child process of its own (one
caller, no threads), in a scratch directory under ``.bench_work/``
that is removed afterwards.

A run does a fixed number of rounds over the workload's corpus, chosen
from ``--seconds`` and the round time on the reference machine (2 cores,
Python 3.11), so every commit is measured on the same work.  Set-up
(importing divtrees in a fresh interpreter, generating and writing the
corpus) is repeated and its median reported as ``setup_s``.  The run
keeps to one CPU, and every time it reports is normalised for that
CPU's speed at the moment (calibrate.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
round in which every call runs untraced and then again with spans
installed, checks that both produced byte-identical outputs, and prints
the per-layer metrics and the tracing overhead.  Either way every
output is checked against its pin after the timed calls; the last line
of stdout is one JSON object and the exit code is nonzero when any
check failed.

corpus.py and check.py import divtrees, so they are imported only once
``main`` has put ``src/`` on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from statistics import median

from calibrate import measure, pin_to_one_cpu
from metrics import (
    END_TO_END, LAYER_METRICS, TAIL_BEYOND, UNITS, end_to_end, per_layer, tail,
)
from tracing import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("reduce-large", "exact-small", "delegate-construct")
# seconds one untraced round takes on the reference machine
ROUND_SECONDS = {"reduce-large": 10.7, "exact-small": 3.4, "delegate-construct": 3.3}
SETUP_REPS = 5
CHILD_TIMEOUT = 170
IMPORT_PROBE = (
    "import importlib, calibrate; "
    "print(calibrate.measure(lambda: importlib.import_module('divtrees.cli'))[1])"
)


def _args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _rounds(wanted: float, n_cases: int) -> int:
    """At least 2 rounds, and enough calls that the tail lies above the
    median."""
    rounds = max(2, round(wanted))
    while rounds * n_cases <= 2 * TAIL_BEYOND:
        rounds += 1
    return rounds


def _setup_once(workload: str, seed: int, work: Path):
    """One set-up: import divtrees in a fresh interpreter, then build
    and write the corpus.  Returns (normalised seconds, corpus)."""
    from corpus import build

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )

    def build_and_write():
        corpus = build(workload, seed)
        for rel, text in corpus.files.items():
            path = work / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return corpus

    corpus, took = measure(build_and_write)
    return float(child.stdout) + took, corpus


def _worker(work: Path, plan: dict, traced: bool) -> dict:
    (work / "plan.json").write_text(json.dumps(plan))
    cmd = [sys.executable, str(BENCH / "worker.py"), "plan.json", "result.json"]
    if traced:
        cmd.append("--trace")
    # the worker's stdout goes to our stderr: our stdout ends in the result
    subprocess.run(cmd, cwd=work, stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT)
    result = json.loads((work / "result.json").read_text())
    if traced:
        with open(work / "spans.ndjson") as f:
            result["spans"] = [tuple(json.loads(line)) for line in f]
    return result


def _verdicts(cases: list[dict], first: dict[str, dict], work: Path) -> dict[str, tuple[str, str]]:
    """Check each case's round-0 outputs against its pin."""
    from check import check_call

    out = {}
    for case in cases:
        argv = [a.replace("{out}", str(work / "out" / "0")) for a in case["argv"]]
        argv = [str(work / a) if a.startswith("inst/") else a for a in argv]
        try:
            out[case["name"]] = check_call(case["pin"], argv, first[case["name"]]["rc"])
        except Exception as exc:  # output the checker cannot read fails the check
            out[case["name"]] = ("failed", f"check raised {type(exc).__name__}: {exc}")
    return out


def _statuses(records: list[dict], reference: dict[str, dict], verdicts) -> list[tuple]:
    """(case, status, why) per call: a call must repeat the checked
    call's exit code and output bytes, and then shares its verdict."""
    out = []
    for r in records:
        ref = reference[r["case"]]
        if r["error"]:
            status, why = "failed", r["error"]
        elif (r["rc"], r["hashes"]) != (ref["rc"], ref["hashes"]):
            status, why = "failed", "output differs from the checked call"
        else:
            status, why = verdicts[r["case"]]
        out.append((r["case"], status, why))
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            took, corpus = _setup_once(workload, seed, work)
            setups.append(took)
        cases = [asdict(c) for c in corpus.cases]
        rounds = 1 if traced else _rounds(seconds / ROUND_SECONDS[workload], len(cases))
        plan = {"src": str(SRC), "rounds": rounds, "cases": cases}
        result = _worker(work, plan, traced)
        records = [r for r in result["records"] if not r["traced"]]
        first = {r["case"]: r for r in records if r["round"] == 0}
        verdicts = _verdicts(cases, first, work)
        statuses = _statuses(result["records"], first, verdicts)
        out = {"workload": workload, "seed": seed, "rounds": rounds}
        if traced:
            rungs = {i: c["rung"] for i, c in enumerate(cases) if c["rung"] is not None}
            out["metrics"] = per_layer(
                summarize(result["spans"]), result["counts"], rungs,
                sum(r["seconds"] for r in records),
                sum(r["seconds"] for r in result["records"] if r["traced"]),
            )
        else:
            out["metrics"] = end_to_end(
                records, [s for _, s, _ in statuses], median(setups),
                result["peak_rss_kb"], rounds,
            )
            out["tail"] = (tail([r["seconds"] for r in records])[0], len(records))
        out["statuses"] = statuses
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _report(res: dict, traced: bool) -> None:
    """Human-readable lines for one workload (stdout, before the JSON)."""
    calls = len(res["statuses"])
    print(f"== {res['workload']}  seed {res['seed']}  rounds {res['rounds']}"
          f"  calls {calls}  trace {int(traced)}")
    for name, value in res["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            pct, n = res["tail"]
            note = f"  (p{pct:.1f} of {n} samples, {TAIL_BEYOND} beyond)"
        print(f"  {name:44s} {value:14.6g} {UNITS[name]}{note}")
    for (case, status, why), n in sorted(Counter(s for s in res["statuses"] if s[1] != "ok").items()):
        print(f"  {status:9s} {case} x{n}: {why}")


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (SRC / "divtrees" / "cli.py").is_file():
        print(f"error: no divtrees sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    traced = bool(args.trace)
    gated = [n for n, _ in (LAYER_METRICS if traced else END_TO_END)]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        res = run_workload(workload, args.seed, args.seconds, traced)
        _report(res, traced)
        attempted += len(res["statuses"])
        failed += sum(status == "failed" for _, status, _ in res["statuses"])
        prefix = f"{workload}." if args.workload == "all" else ""
        for name in gated:
            metrics[prefix + name] = {"value": res["metrics"][name], "unit": UNITS[name]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
