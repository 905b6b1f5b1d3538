"""Command-line front end.

Subcommands: kernelize (run a reduction pipeline, JSON out), solve
(exact oracle, exit code carries the verdict), verify (check a family
file against an instance), construct (build a diverse family directly),
gen (emit corpus graphs), audit (batch safety check of kernelization
against the oracle).

Exit codes: solve uses 0/1/2 for yes/no/inconclusive; verify and
construct use 0/1 for pass/fail; everything else 0 on success.  Usage
problems exit 64, unreadable or malformed data 65, violated internal
invariants 70.  All JSON is one key-sorted line so identical
invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import partial
from pathlib import Path
from typing import Sequence

from .blackbox import mist_kernel, ntst_kernel
from .diversify import construct_family, verify_family
from .graphcore import (
    GraphFormatError,
    Instance,
    InstanceNT,
    InternalInvariantError,
    _check_instance_bounds,
    generate,
    read_instance,
    write_graph,
)
from .kernelizer import JSON_ENCODER, KernelResult, kernelize, transcript_to_ndjson
from .oracle import OracleLimits, solve
from .spantree import DEFAULT_TREE_BUDGET, Family, read_family, write_family

EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70


class UsageError(ValueError):
    pass


def _parse_nt(text: str | None) -> frozenset[int] | None:
    if text is None:
        return None
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--nt takes comma-separated vertex ids, not {text!r}") from None


def _check_flags(problem: str | None, q: int | None, nt: frozenset[int] | None) -> None:
    if problem == "lnt" and q is not None:
        raise UsageError("-q has no meaning for the lnt problem")
    if problem == "li" and nt is not None:
        raise UsageError("--nt has no meaning for the li problem")


def _load_instance(args: argparse.Namespace) -> Instance | InstanceNT:
    """Read the input file and overlay any parameter flags.

    Flag conflicts are usage errors: against ``--problem`` they are
    reported before the file is read, against the file's problem after.
    """
    nt = _parse_nt(args.nt)
    _check_flags(args.problem, args.q, nt)
    base = read_instance(Path(args.input).read_text())
    problem = args.problem or base.problem
    _check_flags(problem, args.q, nt)
    if problem == "li" and base.nonterminals:
        raise UsageError("input file carries non-terminals but the problem is li")
    p = base.p if args.p is None else args.p
    k = base.k if args.k is None else args.k
    ell = base.ell if args.ell is None else args.ell
    if problem == "lnt":
        nt = base.nonterminals if nt is None else nt
        inst: Instance | InstanceNT = InstanceNT(base.graph, nt, p, k, ell)
    else:
        q = base.q if args.q is None else args.q
        inst = Instance(base.graph, p, q, k, ell)
    _check_instance_bounds(inst)
    return inst


def _emit(output: str | None, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(output: str | None, payload: dict, **spliced: str | None) -> None:
    """Write ``payload`` as one JSON line.  Each ``spliced`` text, an
    array already encoded, goes where the payload holds None under its
    key; a None text leaves that null."""
    text = JSON_ENCODER.encode(payload) + "\n"
    for key, part in spliced.items():
        if part is not None:
            # an encoded string escapes its quotes, and neither a nested
            # record nor a spliced array has a field of a spliced key, so
            # the first match is the top-level key
            text = text.replace(f'"{key}": null', f'"{key}": {part}', 1)
    _emit(output, text)


def _pair_texts(edges: Sequence[tuple[int, int]]) -> list[str]:
    """Each edge's ``JSON_ENCODER`` text less its brackets, cut from one
    encode of them all (``], [`` occurs only between pairs of ints)."""
    return JSON_ENCODER.encode(edges)[2:-2].split("], [") if edges else []


def _family_text(family: Family | None) -> str | None:
    """``JSON_ENCODER``'s text of the family as a list of its members'
    sorted edge pairs, None for no family, with each edge's pair
    encoded once per family."""
    if family is None:
        return None
    members = (f"[[{'], ['.join(m)}]]" if m else "[]" for m in family._merged(_pair_texts))
    return f"[{', '.join(members)}]"


# ---------------------------------------------------------------------------
# subcommands

def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1")
    return value


def _kernelize_within(
    inst: Instance | InstanceNT, budget: int | None, witness: bool = False
) -> KernelResult:
    """Run the instance's pipeline with its subroutine kernel capped at
    ``budget`` trees, or with no subroutine kernel when ``budget`` is None."""
    kernel = ntst_kernel if isinstance(inst, InstanceNT) else mist_kernel
    bb = None if budget is None else partial(kernel, budget=budget)
    return kernelize(inst, construct_witness=witness, blackbox=bb)


def _cmd_kernelize(args: argparse.Namespace) -> int:
    budget = _positive(args.budget, "--budget")
    inst = _load_instance(args)
    if args.witness and inst.problem == "lnt":
        raise UsageError("--witness has no meaning for the lnt problem")
    result = _kernelize_within(inst, None if args.blackbox == "none" else budget, args.witness)
    if args.family_out is not None and result.witness is None:
        raise UsageError("no witness family to write; outcome was " + result.outcome)
    # the transcript is encoded once: the payload's array, which the
    # NDJSON lines are cut from
    entries = JSON_ENCODER.encode(result.transcript)
    if args.transcript is not None:
        Path(args.transcript).write_text(transcript_to_ndjson(entries))
    if args.family_out is not None:
        Path(args.family_out).write_text(write_family(result.witness))
    payload = {"schema": 2, "problem": inst.problem}
    payload.update(result.to_json_dict(), transcript=None, witness=None)
    _emit_json(args.output, payload, transcript=entries, witness=_family_text(result.witness))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    limits = OracleLimits(
        max_trees=_positive(args.max_trees, "--max-trees"),
        max_clique_nodes=_positive(args.max_clique_nodes, "--max-clique-nodes"),
    )
    inst = _load_instance(args)
    verdict = solve(inst, limits)
    payload = {
        "schema": 1,
        "problem": inst.problem,
        "answer": verdict.answer,
        "stats": verdict.stats,
        "witness": None,
    }
    _emit_json(args.output, payload, witness=_family_text(verdict.witness))
    return {"yes": 0, "no": 1, "inconclusive": 2}[verdict.answer]


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    family = read_family(Path(args.family).read_text(), inst.graph)
    report = verify_family(inst.graph, family, inst.p, inst.q, inst.k, nt=inst.nonterminals)
    ok = len(family) == inst.ell and report.verdict
    payload = {
        "schema": 1,
        "ok": ok,
        "family_size": len(family),
        "expected_size": inst.ell,
        "report": report.to_json_dict(),
    }
    _emit_json(args.output, payload)
    return 0 if ok else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    budget = _positive(args.budget, "--budget")
    inst = _load_instance(args)
    family, reason, report = construct_family(inst, budget)
    if family is not None and args.family_out is not None:
        Path(args.family_out).write_text(write_family(family))
    payload = {
        "schema": 1,
        "ok": family is not None,
        "reason": reason,
        "family": None,
        "report": None if report is None else report.to_json_dict(),
    }
    _emit_json(args.output, payload, family=_family_text(family))
    return 0 if family is not None else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    fam = args.family
    raw = args.params
    if fam in ("subdivided", "twin-pendant-gadget"):
        if len(raw) < 3:
            raise UsageError(f"{fam} needs BASE-FAMILY BASE-PARAMS... FACTOR")
        base = generate(raw[0], tuple(int(x) for x in raw[1:-1]), seed=args.seed)
        g = generate(fam, (base, int(raw[-1])), seed=args.seed)
    else:
        g = generate(fam, tuple(int(x) for x in raw), seed=args.seed)
    _emit(args.output, write_graph(g))
    return 0


def _random_instance(rng: random.Random, problem: str, max_n: int) -> Instance | InstanceNT:
    n = rng.randint(3, max_n)
    m_cap = min(n * (n - 1) // 2, 14)
    m = rng.randint(n - 1, m_cap)
    g = generate("random-connected", (n, m), seed=rng.randrange(2**30))
    p = rng.randint(0, min(4, n))
    k = rng.randint(1, 4)
    ell = rng.randint(1, 3)
    if problem == "lnt":
        nt = frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(3, n))))
        return InstanceNT(g, nt, p, k, ell)
    q = rng.randint(0, min(4, n))
    return Instance(g, p, q, k, ell)


def _audit_one(inst: Instance | InstanceNT, budget: int) -> tuple[str, str, str]:
    result = _kernelize_within(inst, budget)
    original = solve(inst).answer
    if result.outcome == "trivial_yes":
        reduced = "yes"
    elif result.outcome == "trivial_no":
        reduced = "no"
    elif result.outcome in ("reduced", "delegated"):
        assert result.instance is not None
        # solve is a function of the instance, so a kernel equal to the
        # input has the input's answer
        reduced = original if result.instance == inst else solve(result.instance).answer
    else:
        reduced = "inconclusive"
    return result.outcome, original, reduced


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise UsageError("--count must be at least 0")
    # random instances have at most 14 edges, so a connected one has n <= 15
    if not 3 <= args.max_n <= 15:
        raise UsageError("--max-n must be between 3 and 15")
    budget = _positive(args.budget, "--budget")
    rng = random.Random(args.seed)
    lines = []
    passes = 0
    for idx in range(args.count):
        inst = _random_instance(rng, args.problem, args.max_n)
        outcome, original, reduced = _audit_one(inst, budget)
        good = original == reduced and original in ("yes", "no")
        passes += good
        nt_note = ",".join(map(str, sorted(inst.nonterminals))) or "-"
        lines.append(
            f"{idx:4d}  n={inst.graph.n} m={inst.graph.m} p={inst.p} q={inst.q}"
            f" k={inst.k} l={inst.ell} nt={nt_note:12s}"
            f" outcome={outcome:22s} original={original:12s}"
            f" kernel={reduced:12s} {'pass' if good else 'FAIL'}"
        )
    lines.append(f"{passes}/{args.count} equivalence passes")
    _emit(args.output, "\n".join(lines) + "\n")
    return 0 if passes == args.count else 1


# ---------------------------------------------------------------------------
# argument plumbing

def _add_instance_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-i", "--input", required=True, help="instance file")
    sp.add_argument("--problem", choices=["li", "lnt"])
    sp.add_argument("-p", type=int, default=None, help="required leaves per tree")
    sp.add_argument("-q", type=int, default=None, help="required internal vertices (li)")
    sp.add_argument("-k", type=int, default=None, help="pairwise distance floor")
    sp.add_argument("-l", "--ell", type=int, default=None, help="family size")
    sp.add_argument("--nt", default=None, help="comma-separated required-internal vertices (lnt)")
    sp.add_argument("-o", "--output", default=None, help="write output here instead of stdout")


def _build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The command line: only ``cmd``'s subparser is built, or all of them
    when ``cmd`` is None.  A lone subparser's top-level usage still names
    every subcommand, so the help and usage texts never change."""
    parser = argparse.ArgumentParser(
        prog="divtrees",
        description="Kernelization and exact solving for diverse spanning tree families.",
    )
    every = None if cmd is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=every)

    if cmd in (None, "kernelize"):
        sp = sub.add_parser("kernelize", help="run the reduction pipeline")
        _add_instance_flags(sp)
        sp.add_argument("--witness", action="store_true", help="construct a family on trivial-yes (li)")
        sp.add_argument("--blackbox", choices=["exact", "none"], default="exact")
        sp.add_argument("--budget", type=int, default=DEFAULT_TREE_BUDGET, help="subroutine kernel tree budget")
        sp.add_argument("--transcript", default=None, help="write the transcript here, one JSON object per line")
        sp.add_argument("--family-out", default=None, help="write the witness family here")

    if cmd in (None, "solve"):
        sp = sub.add_parser("solve", help="exact oracle; exit 0 yes, 1 no, 2 inconclusive")
        _add_instance_flags(sp)
        sp.add_argument("--max-trees", type=int, default=DEFAULT_TREE_BUDGET)
        sp.add_argument("--max-clique-nodes", type=int, default=OracleLimits.max_clique_nodes)

    if cmd in (None, "verify"):
        sp = sub.add_parser("verify", help="check a family file; exit 0 pass, 1 fail")
        _add_instance_flags(sp)
        sp.add_argument("--family", required=True, help="family file to check")

    if cmd in (None, "construct"):
        sp = sub.add_parser("construct", help="build a diverse family; exit 0 pass, 1 fail")
        _add_instance_flags(sp)
        sp.add_argument("--budget", type=int, default=DEFAULT_TREE_BUDGET, help="seed tree search budget")
        sp.add_argument("--family-out", default=None, help="write the family here")

    if cmd in (None, "gen"):
        sp = sub.add_parser("gen", help="emit a corpus graph")
        sp.add_argument("family")
        sp.add_argument("params", nargs="*")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("-o", "--output", default=None)

    if cmd in (None, "audit"):
        sp = sub.add_parser("audit", help="batch kernelize-vs-oracle safety check")
        sp.add_argument("--problem", choices=["li", "lnt"], required=True)
        sp.add_argument("--count", type=int, default=100)
        sp.add_argument("--max-n", type=int, default=9)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument(
            "--workers", type=int, default=4, help="ignored: audit runs serially"
        )
        sp.add_argument("--budget", type=int, default=DEFAULT_TREE_BUDGET)
        sp.add_argument("-o", "--output", default=None)

    return parser


_COMMANDS = {
    "kernelize": _cmd_kernelize,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "gen": _cmd_gen,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call pays only for its own subcommand's parser; any other first
    # word (none, -h, a typo) gets them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EX_USAGE
    try:
        return _COMMANDS[args.cmd](args)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
