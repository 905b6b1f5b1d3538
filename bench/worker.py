"""Run one workload's CLI calls in this process and record what happened.

    python3 worker.py PLAN RESULT [--trace]

PLAN is the JSON written by run.py: the divtrees source directory, the
number of rounds and the cases.  The worker runs in the directory that
holds the instance files.  One caller, no threads: each call goes
through ``divtrees.cli.main`` exactly as the console script would, and
only that call is timed.  Outputs of round 0 stay on disk for the
checks; later rounds are hashed and removed.  With ``--trace`` every
call runs a second time right after the first, with the spans of
tracing.py installed; the spans go to spans.ndjson.

RESULT gets, per call, the exit code, any exception, the seconds spent
in ``main`` normalised for the machine's speed (``calibrate.measure``),
the bytes written and a hash per output file, plus the process's peak
resident set size.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from calibrate import measure

OUTPUT_FLAGS = ("-o", "--transcript", "--family-out")


def _outputs(argv: list[str]) -> dict[str, str]:
    return {flag: argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in OUTPUT_FLAGS}


def _digest(path: str) -> tuple[int, str]:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return os.path.getsize(path), h.hexdigest()


def _peak_rss_kb() -> int:
    """This process's peak resident set.  Not ``ru_maxrss``: Linux carries
    the spawning process's peak across fork and exec into it."""
    with open("/proc/self/status") as f:
        line = next(line for line in f if line.startswith("VmHWM:"))
    return int(line.split()[1])


def _call(main, argv: list[str]) -> tuple:
    """(exit code, error, normalised seconds)."""
    def call():
        try:
            return main(argv), None
        except Exception as exc:  # a raising call is a failed call, not a crash
            return None, f"{type(exc).__name__}: {exc}"

    (rc, error), seconds = measure(call)
    return rc, error, seconds


def _record(case: dict, rnd: int, argv: list[str], rc, error, seconds: float, traced: bool) -> dict:
    files = {flag: _digest(path) for flag, path in _outputs(argv).items() if os.path.exists(path)}
    return {
        "case": case["name"], "round": rnd, "traced": traced, "rc": rc, "error": error,
        "seconds": seconds,
        "bytes": sum(size for size, _ in files.values()),
        "hashes": {flag: digest for flag, (_, digest) in files.items()},
    }


def run(plan: dict, tracer=None) -> list[dict]:
    """Run the rounds; with a tracer, each call runs once untraced and
    then once traced, back to back, so both see the same machine."""
    from divtrees.cli import main

    records = []
    for rnd in range(plan["rounds"]):
        out = f"out/{rnd}"
        os.makedirs(out, exist_ok=True)
        for idx, case in enumerate(plan["cases"]):
            argv = [a.replace("{out}", out) for a in case["argv"]]
            records.append(_record(case, rnd, argv, *_call(main, argv), False))
            if tracer is not None:
                os.makedirs("out/traced", exist_ok=True)
                argv = [a.replace("{out}", "out/traced") for a in case["argv"]]
                tracer.call = idx
                tracer.install()
                try:
                    outcome = _call(main, argv)
                finally:
                    tracer.uninstall()
                records.append(_record(case, rnd, argv, *outcome, True))
        if rnd > 0:
            shutil.rmtree(out)
    return records


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    records = run(plan, tracer)
    result = {"records": records, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        with open("spans.ndjson", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
