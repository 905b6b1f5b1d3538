"""Golden hashes: kernelization outcomes and transcripts on fixed corpora.

One SHA-256 per problem variant over a seeded corpus pins every
outcome, reason, reduced and final instance, witness family and
transcript entry.  A refactor of the pipelines must leave both hashes
unchanged; a deliberate behaviour change re-pins them and says why.

The hash covers each transcript entry's replay fields only, not the
derived ``renaming`` map, so a change to how that map is serialized
does not move the pins.

The corpus is the two 300-instance ``audit`` sets (li seed 7, lnt seed
8) plus mid-size twin-pendant and subdivided minimum-degree-3 graphs
that reach the outcomes and rules the small random graphs never do:
R5's "large" verdict with a constructed witness, delegation in both
parameter cases, and a subroutine kernel that runs out of budget.
"""

import hashlib
import json
import random
from functools import partial

from divtrees import (
    Instance,
    InstanceNT,
    generate,
    kernelize_li,
    kernelize_lnt,
    mist_kernel,
    ntst_kernel,
)
from divtrees.cli import _random_instance

GOLDEN = {
    "li": "d336dca46cfe4c549b7a1b3a2880a3c86514ba9beb7076a322452574af65b252",
    "lnt": "35106398fe8ed8b9472afeb080bae7ba77f4807b607d3932a3a2656032ca9c5a",
}

OUTCOMES = {"trivial_yes", "trivial_no", "reduced", "delegated", "delegated_unavailable"}
RULES = {
    "li": {"PC-tree", "PC-p", "PC-q", "R1", "R2", "R3", "R4", "R5", "R6"},
    "lnt": {"PC-tree", "PC-p", "PC-nt-pendant", "R7", "R8", "R9", "R5nt", "R6nt"},
}


def _md3(b):
    return generate("min-degree-3", (b,))


def _twin_pendant(b, seed):
    return generate("twin-pendant-gadget", (_md3(b), b // 2), seed=seed)


def _corpus(problem):
    """(instance, subroutine tree budget) pairs."""
    rng = random.Random({"li": 7, "lnt": 8}[problem])
    for _ in range(300):
        yield _random_instance(rng, problem, 9), 200000
    sub = generate("subdivided", (_md3(40), 8))
    if problem == "li":
        # core n = 80 is above case1_bound_li(2, 2) = 64: R5 says large
        yield Instance(_twin_pendant(80, 1), 0, 0, 2, 2), 200000
        yield Instance(_twin_pendant(80, 2), 2, 2, 2, 2), 200000
        yield Instance(_twin_pendant(40, 3), 0, 0, 2, 2), 200000
        yield Instance(sub, 1, 1, 4, 3), 200000
        # q survives on a graph without long paths; budget 0 stops the kernel
        yield Instance(_md3(200), 0, 5, 1, 1), 200000
        yield Instance(_md3(200), 0, 5, 1, 1), 0
    else:
        yield InstanceNT(_twin_pendant(40, 3), frozenset({1}), 0, 4, 3), 200000
        yield InstanceNT(_twin_pendant(80, 4), frozenset({1}), 1, 4, 3), 200000
        yield InstanceNT(sub, frozenset({1}), 0, 4, 3), 200000
        yield InstanceNT(sub, frozenset({1}), 2, 4, 3), 200000
        # vertex 40 is a leaf of md3(64)'s first enumerated tree, so a
        # one-tree budget runs out before a yes turns up
        yield InstanceNT(_md3(64), frozenset({40}), 0, 1, 1), 1


def _record(res):
    return {
        "outcome": res.outcome,
        "reason": res.reason,
        "instance": res.instance.to_json_dict() if res.instance else None,
        "final_instance": res.final_instance.to_json_dict(),
        "witness": None
        if res.witness is None
        else [[list(e) for e in t.sorted_edges()] for t in res.witness],
        "transcript": [
            [
                e.rule,
                e.n_before,
                list(e.touched),
                e.p_delta,
                e.q_delta,
                list(e.nt_removed),
                e.removed_vertex,
                list(e.merged_edge) if e.merged_edge else None,
                e.decision,
            ]
            for e in res.transcript
        ],
    }


def _run(problem):
    records = []
    for inst, budget in _corpus(problem):
        if problem == "li":
            res = kernelize_li(
                inst, construct_witness=True, blackbox=partial(mist_kernel, budget=budget)
            )
        else:
            res = kernelize_lnt(inst, blackbox=partial(ntst_kernel, budget=budget))
        records.append(_record(res))
    return records


def _digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_li():
    records = _run("li")
    assert {r["outcome"] for r in records} == OUTCOMES
    assert {e[0] for r in records for e in r["transcript"]} == RULES["li"]
    large = [r for r in records if any(e[0] == "R5" and e[8] == "large" for e in r["transcript"])]
    assert large and all(r["witness"] for r in large)
    assert _digest(records) == GOLDEN["li"]


def test_golden_lnt():
    records = _run("lnt")
    assert {r["outcome"] for r in records} == OUTCOMES
    assert {e[0] for r in records for e in r["transcript"]} == RULES["lnt"]
    assert _digest(records) == GOLDEN["lnt"]
