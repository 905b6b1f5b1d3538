"""Output checks: compare one call's outputs with its case's pin.

Runs after the timed calls, on the files round 0 left behind.  A check
returns ``("ok", "")``, ``("undecided", why)`` for an answer the pin
allows to stay open (``inconclusive``/``delegated_unavailable`` on a
budget-limited case), or ``("failed", why)``.

Besides the pinned answer, each kind of call is checked independently
of its own self-report:

- kernelize: the outcome class, the final instance's size and
  parameters and the rule counts where pinned, ``replay`` of the
  transcript (read from the NDJSON file when one was written) equals
  ``final_instance``, and a witness family passes ``verify_family``;
- solve: the exit code matches the answer, a completed enumeration
  counted exactly ``count_spanning_trees`` trees (Kirchhoff), and a
  yes-witness passes ``verify_family``;
- construct: the family passes ``verify_family`` and the family file
  holds the same trees; verify: the report says ok;
- audit: every instance passed.

Transcript bytes are not compared, so a new transcript encoding is not
a failure as long as its entries still carry the replay fields.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from divtrees.diversify import verify_family
from divtrees.graphcore import Graph, Instance, InstanceNT, read_instance
from divtrees.kernelizer import RuleApplication, replay
from divtrees.spantree import count_spanning_trees, read_edge_set_family

OK = ("ok", "")
SOLVE_EXIT = {"yes": 0, "no": 1, "inconclusive": 2}


def _flag(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _edge_sets(trees) -> list[frozenset[tuple[int, int]]]:
    return [frozenset(tuple(e) for e in t) for t in trees]


def _family_ok(inst: Instance | InstanceNT, trees) -> str | None:
    if len(trees) != inst.ell:
        return f"family has {len(trees)} trees, expected {inst.ell}"
    if isinstance(inst, InstanceNT):
        report = verify_family(inst.graph, trees, inst.p, 0, inst.k, nt=inst.nonterminals)
    else:
        report = verify_family(inst.graph, trees, inst.p, inst.q, inst.k)
    return None if report.verdict else "family fails verify_family"


def _instance_from_json(d: dict) -> Instance | InstanceNT:
    g = Graph(d["n"], frozenset(tuple(e) for e in d["edges"]))
    if d["problem"] == "lnt":
        return InstanceNT(g, frozenset(d["nonterminals"]), d["p"], d["k"], d["ell"])
    return Instance(g, d["p"], d["q"], d["k"], d["ell"])


def _entry(d: dict) -> RuleApplication:
    return RuleApplication(
        rule=d["rule"],
        n_before=d["n_before"],
        touched=tuple(d["touched"]),
        p_delta=d["p_delta"],
        q_delta=d["q_delta"],
        nt_removed=tuple(d["nt_removed"]),
        removed_vertex=d["removed_vertex"],
        merged_edge=tuple(d["merged_edge"]) if d["merged_edge"] else None,
        decision=d["decision"],
    )


def _kernel_answer(payload: dict) -> str | None:
    """yes/no as the kernelize output states it, None when it only
    hands back a smaller instance."""
    outcome = payload["outcome"]
    if outcome in ("trivial_yes", "trivial_no"):
        return outcome[len("trivial_"):]
    if outcome == "delegated":
        # the subroutine kernels answer with a canonical K2 instance
        inst = payload["instance"]
        if inst["problem"] == "lnt":
            return "yes" if not inst["nonterminals"] else "no"
        return "yes" if inst["q"] == 0 else "no"
    return None


def _check_kernelize(pin: dict, inst, argv: list[str], rc, payload: dict) -> tuple[str, str]:
    if rc != 0:
        return "failed", f"exit code {rc}"
    outcome = payload["outcome"]
    if outcome == "delegated_unavailable":
        if pin.get("undecided_ok"):
            return "undecided", outcome
        return "failed", "delegated_unavailable on a case that must decide"
    if outcome not in pin["outcomes"]:
        return "failed", f"outcome {outcome}, expected one of {pin['outcomes']}"
    answer = _kernel_answer(payload)
    if answer is not None and answer != pin["answer"]:
        return "failed", f"answer {answer}, pinned {pin['answer']}"
    final = payload["final_instance"]
    for key, want in pin.get("final", {}).items():
        got = len(final["edges"]) if key == "m" else final["nonterminals" if key == "nt" else key]
        if got != want:
            return "failed", f"final {key} = {got}, pinned {want}"
    entries = payload["transcript"]
    ndjson = _flag(argv, "--transcript")
    if ndjson is not None:
        lines = [json.loads(line) for line in Path(ndjson).read_text().splitlines()]
        if lines != entries:
            return "failed", "NDJSON transcript differs from the JSON payload's"
    if "rules" in pin:
        counts = dict(Counter(e["rule"] for e in entries))
        if counts != pin["rules"]:
            return "failed", f"rule counts {counts}, pinned {pin['rules']}"
    final_inst = _instance_from_json(final)
    if replay(inst, tuple(_entry(e) for e in entries)) != final_inst:
        return "failed", "replaying the transcript does not give final_instance"
    witness = payload.get("witness")
    if pin.get("witness") and witness is None:
        return "failed", "no witness family"
    if witness is not None:
        trees = _edge_sets(witness)
        problem = _family_ok(final_inst, trees)
        if problem:
            return "failed", "witness: " + problem
        fam = _flag(argv, "--family-out")
        if fam is not None and read_edge_set_family(Path(fam).read_text(), final_inst.graph.n) != trees:
            return "failed", "family file differs from the witness"
    return OK


def _check_solve(pin: dict, inst, argv: list[str], rc, payload: dict) -> tuple[str, str]:
    answer = payload["answer"]
    if rc != SOLVE_EXIT[answer]:
        return "failed", f"exit code {rc} for answer {answer}"
    if answer == "inconclusive":
        if pin.get("undecided_ok"):
            return "undecided", answer
        return "failed", "inconclusive on a case that must decide"
    if answer != pin["answer"]:
        return "failed", f"answer {answer}, pinned {pin['answer']}"
    # k > 2 with ell > 1 enumerates every tree before searching
    if inst.k > 2 and inst.ell > 1:
        want = count_spanning_trees(inst.graph)
        got = payload["stats"]["trees_enumerated"]
        if got != want:
            return "failed", f"enumerated {got} trees, Kirchhoff counts {want}"
    if answer == "yes":
        problem = _family_ok(inst, _edge_sets(payload["witness"]))
        if problem:
            return "failed", "witness: " + problem
    return OK


def _check_construct(pin: dict, inst, argv: list[str], rc, payload: dict) -> tuple[str, str]:
    if rc != 0 or not payload["ok"] or payload["family"] is None:
        return "failed", f"construct failed: {payload['reason']}"
    trees = _edge_sets(payload["family"])
    problem = _family_ok(inst, trees)
    if problem:
        return "failed", problem
    fam = _flag(argv, "--family-out")
    if fam is not None and read_edge_set_family(Path(fam).read_text(), inst.graph.n) != trees:
        return "failed", "family file differs from the JSON family"
    return OK


def _check_verify(pin: dict, inst, argv: list[str], rc, payload: dict) -> tuple[str, str]:
    if rc != 0 or not payload["ok"] or payload["family_size"] != inst.ell:
        return "failed", "verify rejected the family"
    return OK


_CHECKS = {
    "kernelize": _check_kernelize,
    "solve": _check_solve,
    "construct": _check_construct,
    "verify": _check_verify,
}


def check_call(pin: dict, argv: list[str], rc) -> tuple[str, str]:
    """Check one call whose ``{out}`` placeholders are already filled."""
    if rc is None:
        return "failed", "the call raised"
    out = _flag(argv, "-o")
    if pin["kind"] == "audit":
        last = Path(out).read_text().splitlines()[-1]
        want = f"{pin['count']}/{pin['count']} equivalence passes"
        return OK if rc == 0 and last == want else ("failed", f"audit: {last!r}")
    if rc in (64, 65, 70):
        return "failed", f"exit code {rc}"
    inst = read_instance(Path(_flag(argv, "-i")).read_text())
    payload = json.loads(Path(out).read_text())
    return _CHECKS[pin["kind"]](pin, inst, argv, rc, payload)
