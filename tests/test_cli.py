import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import support
from divtrees import (
    Graph,
    Instance,
    InstanceNT,
    InternalInvariantError,
    generate,
    read_graph,
    read_instance,
    solve,
    write_graph,
    write_instance,
)
from divtrees import cli, diversify
from divtrees.cli import main
from divtrees.kernelizer import JSON_ENCODER
from divtrees.spantree import DEFAULT_TREE_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def instance_file(tmp_path, inst, name="inst.txt"):
    path = tmp_path / name
    path.write_text(write_instance(inst))
    return str(path)


def c5_file(tmp_path):
    return instance_file(tmp_path, Instance(support.cycle_graph(5), 0, 0, 1, 1))


def md3_file(tmp_path, n=70):
    g = generate("min-degree-3", (n,))
    return instance_file(tmp_path, Instance(g, 0, 0, 2, 2), name=f"md3-{n}.txt")


# ---------------------------------------------------------------------------
# exit codes for broken invocations

def test_usage_problems_exit_64(tmp_path, capsys):
    assert main([]) == 64
    assert main(["kernelize"]) == 64
    assert main(["frobnicate", "-i", "x"]) == 64
    path = c5_file(tmp_path)
    code, _, err = run(capsys, "kernelize", "-i", path, "--problem", "lnt", "-q", "2")
    assert code == 64 and "no meaning" in err
    code, _, err = run(capsys, "kernelize", "-i", path, "--problem", "li", "--nt", "1")
    assert code == 64 and "no meaning" in err
    # a flag conflict is reported before the input file is read
    missing = str(tmp_path / "missing.txt")
    code, _, err = run(capsys, "kernelize", "-i", missing, "--problem", "lnt", "-q", "2")
    assert code == 64 and "no meaning" in err
    code, _, err = run(capsys, "kernelize", "-i", missing, "--problem", "li", "--nt", "1")
    assert code == 64 and "no meaning" in err
    # and a flag that conflicts with the problem the file names
    li_file = instance_file(tmp_path, Instance(support.cycle_graph(6), 0, 0, 1, 1), "li.txt")
    code, _, err = run(capsys, "kernelize", "-i", li_file, "--nt", "1,2")
    assert code == 64 and "no meaning" in err
    lnt_inst = InstanceNT(support.cycle_graph(6), frozenset({1}), 0, 1, 1)
    lnt_file = instance_file(tmp_path, lnt_inst, "lnt.txt")
    code, _, err = run(capsys, "kernelize", "-i", lnt_file, "-q", "3")
    assert code == 64 and "no meaning" in err
    code, out, err = run(capsys, "audit", "--problem", "li", "--count", "-3")
    assert code == 64 and "--count" in err and out == ""
    for max_n in ("2", "16"):
        code, out, err = run(capsys, "audit", "--problem", "lnt", "--max-n", max_n)
        assert code == 64 and "--max-n" in err and out == ""
    for cmd in (["kernelize", "-i", path], ["construct", "-i", path], ["audit", "--problem", "li"]):
        for budget in ("0", "-3"):
            code, out, err = run(capsys, *cmd, "--budget", budget)
            assert code == 64 and "--budget" in err and out == ""
    # solve's limits are checked before the input file is read
    for flag in ("--max-trees", "--max-clique-nodes"):
        for source in (path, missing):
            for value in ("0", "-3"):
                code, out, err = run(capsys, "solve", "-i", source, flag, value)
                assert code == 64 and flag in err and out == ""
    # the smallest accepted sizes
    code, out, _ = run(capsys, "audit", "--problem", "li", "--count", "0", "--max-n", "3")
    assert code == 0 and out.strip() == "0/0 equivalence passes"
    code, out, _ = run(capsys, "audit", "--problem", "li", "--count", "2", "--max-n", "15")
    assert code == 0 and out.strip().endswith("2/2 equivalence passes")


def test_unparseable_nt_is_a_usage_error_naming_the_flag(tmp_path, capsys):
    path = c5_file(tmp_path)
    for text in ("1,,2", "x", "1;2"):
        code, out, err = run(capsys, "solve", "-i", path, "--problem", "lnt", "--nt", text)
        assert code == 64 and out == ""
        assert "--nt" in err and repr(text) in err and "invalid literal" not in err


def test_kernelize_witness_on_lnt_exits_64(tmp_path, capsys):
    # lnt has no trivial-yes branch, so the flag would do nothing; the
    # problem can come from the file or from --problem
    inst = InstanceNT(support.cycle_graph(5), frozenset({1}), 0, 1, 1)
    lnt_file = instance_file(tmp_path, inst, "lnt.txt")
    for argv in (["-i", lnt_file], ["-i", c5_file(tmp_path), "--problem", "lnt"]):
        code, out, err = run(capsys, "kernelize", *argv, "--witness")
        assert code == 64 and out == ""
        assert "--witness has no meaning for the lnt problem" in err
        code, out, _ = run(capsys, "kernelize", *argv)
        assert code == 0 and json.loads(out)["problem"] == "lnt"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["kernelize", "--help"]) == 0
    capsys.readouterr()


def test_problem_override_conflict_exits_64(tmp_path, capsys):
    inst = InstanceNT(support.cycle_graph(5), frozenset({1}), 0, 1, 1)
    path = instance_file(tmp_path, inst)
    code, _, err = run(capsys, "kernelize", "-i", path, "--problem", "li")
    assert code == 64
    assert "carries non-terminals" in err


def test_data_problems_exit_65(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "-i", str(tmp_path / "missing.txt"))
    assert code == 65
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    code, _, err = run(capsys, "solve", "-i", str(bad))
    assert code == 65 and "error:" in err
    # parameters beyond the vertex count are a data error too
    code, _, err = run(capsys, "solve", "-i", c5_file(tmp_path), "-p", "9")
    assert code == 65 and "exceeds the vertex count" in err
    for directives, message in [
        ("#% p 1\n#% p 2", "error: directive p given twice"),
        ("#% p x", "error: directive p needs an integer"),
        ("#% nt 1 x", "error: directive nt needs integers"),
    ]:
        bad.write_text(directives + "\n3 2\n1 2\n2 3\n")
        code, out, err = run(capsys, "solve", "-i", str(bad))
        assert code == 65 and out == "" and message in err, directives


def test_internal_errors_exit_70(tmp_path, capsys, monkeypatch):
    def broken(inst, limits):
        raise InternalInvariantError("oracle produced a non-verifying witness")

    monkeypatch.setattr(cli, "solve", broken)
    code, out, err = run(capsys, "solve", "-i", c5_file(tmp_path))
    assert code == 70 and out == ""
    assert err == "internal error: oracle produced a non-verifying witness\n"


def test_bare_problem_directive_exits_65(tmp_path, capsys):
    bad = tmp_path / "bare.txt"
    bad.write_text("#% problem\n3 2\n1 2\n2 3\n")
    code, out, err = run(capsys, "solve", "-i", str(bad))
    assert code == 65 and out == ""
    assert "error: directive problem needs one value" in err


def test_too_few_edges_answer_no_without_touching_every_vertex(tmp_path, capsys, monkeypatch):
    # m < n - 1 decides "disconnected" before any adjacency, which costs
    # O(n): three million vertices and one edge answer at once
    import time

    def no_adjacency(self):
        raise AssertionError("adjacency was built")

    monkeypatch.setattr(Graph, "adjacency", property(no_adjacency))
    n = 3_000_000
    killed = {"decision": "no", "merged_edge": None, "n_before": n, "nt_removed": [], "p_delta": 0,
              "q_delta": 0, "removed_vertex": None, "rule": "PC-disconnected", "touched": []}
    for problem, directive, final in [
        ("li", "#% problem li", {"q": 0}),
        ("lnt", "#% nt 1", {"nonterminals": [1]}),
    ]:
        path = tmp_path / f"{problem}.txt"
        path.write_text(f"{directive}\n{n} 1\n1 2\n")
        final = {"edges": [[1, 2]], "ell": 1, "k": 1, "n": n, "p": 0, "problem": problem, **final}
        expected = {
            "kernelize": (0, {"final_instance": final, "instance": None, "outcome": "trivial_no",
                              "problem": problem, "reason": "disconnected graphs have no spanning tree",
                              "schema": 2, "transcript": [killed], "witness": None}),
            "solve": (1, {"answer": "no", "problem": problem, "schema": 1,
                          "stats": {"clique_nodes": 0, "trees_enumerated": 0}, "witness": None}),
            "construct": (1, {"family": None, "ok": False, "reason": "graph is disconnected",
                              "report": None, "schema": 1}),
        }
        for cmd, (want_code, payload) in expected.items():
            start = time.perf_counter()
            code, out, err = run(capsys, cmd, "-i", str(path))
            assert time.perf_counter() - start < 1.0, (problem, cmd)
            assert (code, out, err) == (want_code, JSON_ENCODER.encode(payload) + "\n", ""), (problem, cmd)


# ---------------------------------------------------------------------------
# solve

def test_solve_exit_codes_carry_the_verdict(tmp_path, capsys):
    path = c5_file(tmp_path)
    code, out, _ = run(capsys, "solve", "-i", path, "-k", "2", "-l", "5", "-p", "2", "-q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "yes" and payload["problem"] == "li"
    assert len(payload["witness"]) == 5
    code, out, _ = run(capsys, "solve", "-i", path, "-k", "3", "-l", "2")
    assert code == 1
    assert json.loads(out)["answer"] == "no"
    code, out, _ = run(capsys, "solve", "-i", path, "-k", "3", "-l", "2", "--max-trees", "2")
    assert code == 2
    assert json.loads(out)["answer"] == "inconclusive"
    # too many candidates for the clique search's pair guard, but four
    # trees of K7 cannot reach the distance sum k = 12 needs
    k7 = instance_file(tmp_path, Instance(support.complete_graph(7), 0, 0, 12, 4), "k7.txt")
    code, out, _ = run(capsys, "solve", "-i", k7)
    assert code == 1
    assert json.loads(out)["stats"] == {"clique_nodes": 0, "trees_enumerated": 16807}


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "divtrees", "solve", "-i", c5_file(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0 and json.loads(done.stdout)["answer"] == "yes"


def test_solve_reads_lnt_files(tmp_path, capsys):
    inst = InstanceNT(support.cycle_graph(4), frozenset({1, 3}), 0, 1, 1)
    path = instance_file(tmp_path, inst)
    code, out, _ = run(capsys, "solve", "-i", path)
    assert code == 1
    assert json.loads(out)["problem"] == "lnt"


def test_flag_overrides_beat_file_directives(tmp_path, capsys):
    path = c5_file(tmp_path)
    code, out, _ = run(capsys, "solve", "-i", path, "--problem", "lnt", "--nt", "1,3")
    assert code == 0  # dropping edge (4,5) keeps both marked vertices internal
    payload = json.loads(out)
    assert payload["problem"] == "lnt"
    code, _, _ = run(capsys, "solve", "-i", path, "--problem", "lnt", "--nt", "")
    assert code == 0


# ---------------------------------------------------------------------------
# kernelize

KERNELIZE_KEYS = [
    "final_instance",
    "instance",
    "outcome",
    "problem",
    "reason",
    "schema",
    "transcript",
    "witness",
]


def test_kernelize_payload_shape(tmp_path, capsys):
    g = Graph.from_edges(
        8,
        [
            (1, 2), (2, 3), (3, 4), (1, 4),
            (5, 6), (6, 7), (7, 8), (5, 8),
            (1, 5), (2, 6), (3, 7), (4, 8),
        ],
    )
    path = instance_file(tmp_path, Instance(g, 0, 0, 4, 2))
    code, out, _ = run(capsys, "kernelize", "-i", path)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == KERNELIZE_KEYS
    assert payload["schema"] == 2
    assert payload["outcome"] == "reduced"
    assert payload["instance"]["n"] == 8
    assert payload["witness"] is None


def test_kernelize_writes_transcript_ndjson(tmp_path, capsys):
    path = instance_file(tmp_path, Instance(support.cycle_graph(20), 0, 0, 1, 1))
    log = tmp_path / "trace.ndjson"
    code, out, _ = run(capsys, "kernelize", "-i", path, "--transcript", str(log))
    assert code == 0
    lines = log.read_text().splitlines()
    rules = [json.loads(line)["rule"] for line in lines]
    assert rules == ["R1"] * 17 + ["R5"]


def test_kernelize_transcript_entries_stay_small(tmp_path, capsys):
    # an entry that encoded its id map would grow with n; 1997 contractions
    # of a 2000-cycle would then write megabytes
    path = instance_file(tmp_path, Instance(support.cycle_graph(2000), 0, 0, 1, 1))
    log = tmp_path / "trace.ndjson"
    code, _, _ = run(capsys, "kernelize", "-i", path, "--transcript", str(log))
    assert code == 0
    entries = log.read_text().splitlines()
    assert len(entries) == 1998
    assert log.stat().st_size < 200 * len(entries)


def test_kernelize_witness_flow(tmp_path, capsys):
    path = md3_file(tmp_path)
    fam = tmp_path / "family.txt"
    code, out, _ = run(
        capsys, "kernelize", "-i", path, "--witness", "--family-out", str(fam)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "trivial_yes"
    assert len(payload["witness"]) == 2
    code, out, _ = run(capsys, "verify", "-i", path, "--family", str(fam))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_kernelize_family_out_needs_a_witness(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "kernelize",
        "-i",
        c5_file(tmp_path),
        "--transcript",
        str(tmp_path / "t.ndjson"),
        "--family-out",
        str(tmp_path / "fam.txt"),
    )
    assert code == 64
    assert "no witness family" in err
    # the usage error comes before any file is written
    assert not (tmp_path / "t.ndjson").exists()
    assert not (tmp_path / "fam.txt").exists()


def test_kernelize_blackbox_none_reports_unavailable(tmp_path, capsys):
    g = generate("min-degree-3", (50,))
    path = instance_file(tmp_path, Instance(g, 1, 0, 2, 1))
    code, out, _ = run(capsys, "kernelize", "-i", path, "--blackbox", "none")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "delegated_unavailable"
    code, out, _ = run(capsys, "kernelize", "-i", path)
    assert json.loads(out)["outcome"] == "delegated"


def test_output_flag_writes_file_instead_of_stdout(tmp_path, capsys):
    path = c5_file(tmp_path)
    dest = tmp_path / "payload.json"
    code, out, _ = run(capsys, "kernelize", "-i", path, "-o", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["outcome"] == "reduced"


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    path = md3_file(tmp_path)
    _, first, _ = run(capsys, "kernelize", "-i", path, "--witness")
    _, second, _ = run(capsys, "kernelize", "-i", path, "--witness")
    assert first == second
    _, a1, _ = run(capsys, "audit", "--problem", "li", "--count", "5", "--seed", "9")
    _, a2, _ = run(capsys, "audit", "--problem", "li", "--count", "5", "--seed", "9")
    assert a1 == a2


def test_json_outputs_are_one_sorted_line(tmp_path, capsys):
    # every payload is the key-sorted, one-line encoding that the
    # transcript's NDJSON lines use
    path = md3_file(tmp_path)
    log = tmp_path / "steps.ndjson"
    fam = tmp_path / "fam.txt"
    runs = [
        ("kernelize", "-i", path, "--transcript", str(log)),
        ("solve", "-i", c5_file(tmp_path), "-k", "2", "-l", "2"),
        ("construct", "-i", path, "--family-out", str(fam)),
        ("verify", "-i", path, "--family", str(fam)),
    ]
    for argv in runs:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv
        assert out.count("\n") == 1, argv
        if argv[0] == "kernelize":
            entries = [json.loads(line) for line in log.read_text().splitlines()]
            assert entries and entries == json.loads(out)["transcript"]


def _subdivided_md3():
    return generate("subdivided", (generate("min-degree-3", (12,)), 4))


# one li and one lnt input per kernelize outcome: (instance, --witness, outcome)
SPLICE_CASES = {
    "li-trivial_yes": lambda: (Instance(_subdivided_md3(), 0, 0, 2, 1), False, "trivial_yes"),
    "li-trivial_yes-witness": lambda: (Instance(_subdivided_md3(), 0, 0, 2, 1), True, "trivial_yes"),
    "li-reduced": lambda: (
        Instance(generate("twin-pendant-gadget", (generate("min-degree-3", (12,)), 3)), 0, 0, 2, 1),
        False,
        "reduced",
    ),
    "li-delegated": lambda: (Instance(_subdivided_md3(), 1, 0, 2, 1), False, "delegated"),
    "li-trivial_no": lambda: (Instance(support.cycle_graph(6), 6, 0, 1, 1), False, "trivial_no"),
    "lnt-trivial_yes": lambda: (
        InstanceNT(Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]), frozenset({1}), 3, 1, 1),
        False,
        "trivial_yes",
    ),
    "lnt-reduced": lambda: (InstanceNT(_subdivided_md3(), frozenset({1}), 0, 2, 1), False, "reduced"),
    "lnt-delegated": lambda: (InstanceNT(_subdivided_md3(), frozenset(), 0, 2, 1), False, "delegated"),
    # PC-nt-pendant: two of the three required vertices are pendants
    "lnt-trivial_no": lambda: (
        InstanceNT(support.with_pendants(support.cycle_graph(6), [1, 1, 3]), frozenset({9, 7, 2}), 0, 1, 1),
        False,
        "trivial_no",
    ),
}


@pytest.mark.parametrize("case", list(SPLICE_CASES))
def test_kernelize_payload_splices_the_ndjson_lines(tmp_path, capsys, case):
    # the payload's transcript array is the NDJSON lines joined by ", ",
    # byte for byte, and --transcript leaves the payload as it is
    inst, witness, outcome = SPLICE_CASES[case]()
    path = instance_file(tmp_path, inst)
    flags = ["--witness"] if witness else []
    log = tmp_path / "t.ndjson"
    plain = run(capsys, "kernelize", "-i", path, *flags)
    assert run(capsys, "kernelize", "-i", path, *flags, "--transcript", str(log)) == plain
    result = cli._kernelize_within(read_instance(Path(path).read_text()), DEFAULT_TREE_BUDGET, witness)
    assert result.outcome == outcome and len(result.transcript) > 0
    lines = [JSON_ENCODER.encode(e) for e in result.transcript]
    assert log.read_text() == "".join(line + "\n" for line in lines)
    # keys are sorted, so the witness follows the transcript
    assert '"transcript": [' + ", ".join(lines) + '], "witness": ' in plain[1]
    # the CLI alone forms those two keys, and the whole line is the
    # plain encode of the records and each member's sorted edges
    fields = result.to_json_dict()
    assert {"transcript", "witness"}.isdisjoint(fields)
    members = None if result.witness is None else [sorted(t.edges) for t in result.witness]
    payload = {"schema": 2, "problem": inst.problem, **fields, "transcript": result.transcript, "witness": members}
    assert plain[1] == JSON_ENCODER.encode(payload) + "\n"


# ---------------------------------------------------------------------------
# verify

def test_verify_rejects_wrong_family_size(tmp_path, capsys):
    path = c5_file(tmp_path)
    fam = tmp_path / "fam.txt"
    t = support.cycle_graph(5)
    tree_edges = [(1, 2), (2, 3), (3, 4), (4, 5)]
    block = "5 4\n" + "".join(f"{u} {v}\n" for u, v in tree_edges)
    fam.write_text(block)
    code, out, _ = run(capsys, "verify", "-i", path, "--family", str(fam), "-l", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["family_size"] == 1 and payload["expected_size"] == 2
    code, _, _ = run(capsys, "verify", "-i", path, "--family", str(fam), "-l", "1")
    assert code == 0


def test_verify_flags_distance_failures(tmp_path, capsys):
    path = c5_file(tmp_path)
    fam = tmp_path / "fam.txt"
    fam.write_text(
        "5 4\n1 2\n2 3\n3 4\n4 5\n\n5 4\n2 3\n3 4\n4 5\n1 5\n"
    )
    code, out, _ = run(capsys, "verify", "-i", path, "--family", str(fam), "-l", "2", "-k", "4")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["pairs"][0]["distance"] == 2


# ---------------------------------------------------------------------------
# construct

def test_construct_builds_and_verifies(tmp_path, capsys):
    path = md3_file(tmp_path)
    fam = tmp_path / "family.txt"
    code, out, _ = run(capsys, "construct", "-i", path, "--family-out", str(fam))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["reason"] is None
    assert len(payload["family"]) == 2
    assert all(tree == sorted(tree) for tree in payload["family"])
    code, _, _ = run(capsys, "verify", "-i", path, "--family", str(fam))
    assert code == 0


def test_construct_reports_honest_failure_on_cycles(tmp_path, capsys):
    # every spanning tree of a cycle is a hamiltonian path: two leaves,
    # and n=12 is below the smallness bound, so growth just stalls
    path = instance_file(tmp_path, Instance(support.cycle_graph(12), 0, 0, 2, 2))
    code, out, _ = run(capsys, "construct", "-i", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "growth stalled" in payload["reason"]
    assert payload["family"] is None


def test_construct_failure_exits_1_with_null_family(tmp_path, capsys):
    g = generate("twin-pendant-gadget", (support.cycle_graph(6), 10))
    path = instance_file(tmp_path, Instance(g, 0, 0, 8, 3))
    code, out, _ = run(capsys, "construct", "-i", path)
    assert code == 1
    assert '"family": null' in out
    payload = json.loads(out)
    assert payload["ok"] is False and payload["report"] is None
    assert payload["reason"].startswith("swap planning failed: only 0 conflict-free leaves")


def test_construct_respects_nonterminals(tmp_path, capsys):
    g = generate("min-degree-3", (40,))
    inst = InstanceNT(g, frozenset({1, 2}), 2, 4, 2)
    path = instance_file(tmp_path, inst)
    code, out, _ = run(capsys, "construct", "-i", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    for tree in payload["report"]["trees"]:
        assert tree["required_internal_ok"]


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts verify_family calls from the library and the CLI."""
    calls = []
    real = diversify.verify_family

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(diversify, "verify_family", counting)
    monkeypatch.setattr(cli, "verify_family", counting)
    return calls


def test_construct_verifies_its_family_once(tmp_path, capsys, verify_calls):
    code, _, _ = run(capsys, "construct", "-i", md3_file(tmp_path))
    assert code == 0 and len(verify_calls) == 1


def test_construct_refuses_a_family_that_fails_verification(tmp_path, capsys, verify_calls):
    # growth and swaps track p and k only: the family built here has 6
    # and 8 internal vertices against q = 8, on an instance that is yes
    inst = Instance(generate("min-degree-3", (12,)), 2, 8, 2, 2)
    code, out, _ = run(capsys, "construct", "-i", instance_file(tmp_path, inst))
    assert code == 1 and len(verify_calls) == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["family"] is None
    assert payload["reason"] == "the constructed family fails verification"
    assert payload["report"]["verdict"] is False
    assert [t["internal_count"] for t in payload["report"]["trees"]] == [6, 8]
    assert solve(inst).answer == "yes"


# ---------------------------------------------------------------------------
# gen

def test_gen_families(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "cycle", "6")
    assert code == 0
    g = read_graph(out)
    assert g.n == 6 and g.m == 6
    code, out, _ = run(capsys, "gen", "theta", "2", "2", "3")
    assert read_graph(out).n == 6 and read_graph(out).m == 7
    code, out, _ = run(capsys, "gen", "min-degree-3", "8")
    assert all(read_graph(out).degree(v) >= 3 for v in range(1, 9))
    code, out, _ = run(capsys, "gen", "random-connected", "9", "12", "--seed", "5")
    g = read_graph(out)
    assert g.n == 9 and g.m == 12 and g.is_connected


def test_gen_compound_families(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "subdivided", "cycle", "4", "3")
    assert code == 0
    g = read_graph(out)
    assert g.n == 12 and g.m == 12
    code, out, _ = run(capsys, "gen", "twin-pendant-gadget", "cycle", "5", "2")
    g = read_graph(out)
    assert g.n == 9 and len([v for v in g.vertices() if g.degree(v) == 1]) == 4


def test_gen_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "wheel", "5")
    assert code == 64 and "unknown family" in err
    code, _, err = run(capsys, "gen", "subdivided", "cycle")
    assert code == 64 and "BASE-FAMILY" in err
    for argv, message in [
        (["cycle"], "cycle takes 1 parameter(s), got 0"),
        (["theta", "1", "2"], "theta takes 3 parameter(s), got 2"),
        (["min-degree-3", "5", "6"], "min-degree-3 takes 1 parameter(s), got 2"),
        (["random-connected", "5"], "random-connected takes 2 parameter(s), got 1"),
        (["subdivided", "cycle", "3", "4", "2"], "cycle takes 1 parameter(s), got 2"),
        (["cycle", "2"], "a cycle needs at least 3 vertices"),
        (["random-connected", "4", "9"], "edge count 9 infeasible for 4 vertices"),
    ]:
        code, _, err = run(capsys, "gen", *argv)
        assert code == 64 and message in err and "Traceback" not in err, argv
    dest = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "cycle", "7", "-o", str(dest))
    assert code == 0 and read_graph(dest.read_text()).n == 7


# ---------------------------------------------------------------------------
# audit

def test_audit_requires_problem(capsys):
    assert main(["audit"]) == 64


def test_audit_small_batches_pass(tmp_path, capsys):
    code, out, _ = run(
        capsys, "audit", "--problem", "li", "--count", "12", "--max-n", "7",
        "--seed", "3", "--workers", "2",
    )
    assert code == 0
    assert out.strip().endswith("12/12 equivalence passes")
    assert "FAIL" not in out
    # li rows have no required-internal set
    assert all(" nt=- " in row for row in out.splitlines()[:-1])
    code, out, _ = run(
        capsys, "audit", "--problem", "lnt", "--count", "12", "--max-n", "7",
        "--seed", "4", "--workers", "2",
    )
    assert code == 0
    assert out.strip().endswith("12/12 equivalence passes")
    # lnt rows read q as 0
    assert all(" q=0 " in row for row in out.splitlines()[:-1])


# The benchmark's two audits, byte for byte: one SHA-256 each over the
# text output of 300 random instances.
AUDIT_GOLDEN = {
    ("li", 7): "e45c8f1f9a4de0c68416e31686509091ec4f3b5302516ef6d14833461c37277e",
    ("lnt", 8): "bfeb3ed8c96341c98513323d0421161ab4174db161b2ba62b4fb99f66a8362dc",
}


@pytest.mark.parametrize("problem, seed", list(AUDIT_GOLDEN))
def test_audit_output_is_pinned(capsys, problem, seed):
    code, out, _ = run(
        capsys, "audit", "--problem", problem, "--count", "300", "--seed", str(seed),
        "--workers", "1",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_GOLDEN[(problem, seed)]


@pytest.mark.parametrize(
    "inst, solves",
    [
        # no rule fires: the kernel is the input
        (Instance(support.complete_graph(4), 0, 0, 4, 2), 1),
        (InstanceNT(support.complete_graph(5), frozenset({1}), 2, 4, 2), 1),
        # a long degree-2 path is contracted
        (Instance(support.cycle_graph(9), 0, 0, 3, 2), 2),
        (InstanceNT(support.cycle_graph(9), frozenset({1}), 0, 2, 2), 2),
    ],
)
def test_audit_solves_a_kernel_only_when_it_differs(monkeypatch, inst, solves):
    result = cli._kernelize_within(inst, 200000)
    assert result.outcome == "reduced"
    assert (result.instance == inst) == (solves == 1)
    expected = (result.outcome, solve(inst).answer, solve(result.instance).answer)
    calls = []

    def counting(instance, *args):
        calls.append(instance)
        return solve(instance, *args)

    monkeypatch.setattr(cli, "solve", counting)
    assert cli._audit_one(inst, 200000) == expected
    assert len(calls) == solves


def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(tmp_path, capsys):
    # a call that main() rejected must not change what the next call in
    # the same process prints
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = c5_file(tmp_path)
    after = [
        ["solve", "-i", path],
        ["kernelize", "-i", path, "-k", "x"],
        ["audit", "--problem", "lnt", "--count", "3", "--seed", "2"],
        ["kernelize", "-i", path, "--bogus"],
    ]
    for argv in after:
        assert run(capsys, "kernelize")[0] == 64
        assert run(capsys, "audit", "--problem", "li", "--count", "-3")[0] == 64
        assert run(capsys, "solve", "-i", path, "--bogus")[0] == 64
        fresh = subprocess.run(
            [sys.executable, "-m", "divtrees", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_audit_reads_an_unavailable_kernel_as_inconclusive(monkeypatch):
    # the pre-delegation instance is the input, but it is no kernel
    monkeypatch.setattr(cli, "mist_kernel", lambda inst, budget: None)
    inst = Instance(generate("min-degree-3", (50,)), 1, 0, 2, 1)
    result = cli._kernelize_within(inst, 1)
    assert result.outcome == "delegated_unavailable" and result.instance == inst
    assert cli._audit_one(inst, 1) == ("delegated_unavailable", "yes", "inconclusive")
