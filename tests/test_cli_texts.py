"""Every help and usage text the command line prints, pinned.

``main`` adds flags only to the subparser its first argument names, so
these texts are where that shows if it goes wrong: argparse reports an
unknown flag from the top-level parser, whose usage line lists every
registered subcommand.  The pins were captured with ``COLUMNS=80`` on
CPython 3.11, when every call built the full parser.  argparse's layout
differs between minor versions, so the literal pins run on 3.11 only;
the comparison with the full parser runs on any version.
"""

import sys

import pytest

from divtrees import cli
from divtrees.cli import main

TOP_USAGE = "usage: divtrees [-h] {kernelize,solve,verify,construct,gen,audit} ...\n"

KERNELIZE_USAGE = """\
usage: divtrees kernelize [-h] -i INPUT [--problem {li,lnt}] [-p P] [-q Q]
                          [-k K] [-l ELL] [--nt NT] [-o OUTPUT] [--witness]
                          [--blackbox {exact,none}] [--budget BUDGET]
                          [--transcript TRANSCRIPT] [--family-out FAMILY_OUT]
"""
SOLVE_USAGE = """\
usage: divtrees solve [-h] -i INPUT [--problem {li,lnt}] [-p P] [-q Q] [-k K]
                      [-l ELL] [--nt NT] [-o OUTPUT] [--max-trees MAX_TREES]
                      [--max-clique-nodes MAX_CLIQUE_NODES]
"""
VERIFY_USAGE = """\
usage: divtrees verify [-h] -i INPUT [--problem {li,lnt}] [-p P] [-q Q] [-k K]
                       [-l ELL] [--nt NT] [-o OUTPUT] --family FAMILY
"""
CONSTRUCT_USAGE = """\
usage: divtrees construct [-h] -i INPUT [--problem {li,lnt}] [-p P] [-q Q]
                          [-k K] [-l ELL] [--nt NT] [-o OUTPUT]
                          [--budget BUDGET] [--family-out FAMILY_OUT]
"""
GEN_USAGE = "usage: divtrees gen [-h] [--seed SEED] [-o OUTPUT] family [params ...]\n"
AUDIT_USAGE = """\
usage: divtrees audit [-h] --problem {li,lnt} [--count COUNT] [--max-n MAX_N]
                      [--seed SEED] [--workers WORKERS] [--budget BUDGET]
                      [-o OUTPUT]
"""

INSTANCE_OPTIONS = """
options:
  -h, --help            show this help message and exit
  -i INPUT, --input INPUT
                        instance file
  --problem {li,lnt}
  -p P                  required leaves per tree
  -q Q                  required internal vertices (li)
  -k K                  pairwise distance floor
  -l ELL, --ell ELL     family size
  --nt NT               comma-separated required-internal vertices (lnt)
  -o OUTPUT, --output OUTPUT
                        write output here instead of stdout
"""

HELP = {
    (): TOP_USAGE + """
Kernelization and exact solving for diverse spanning tree families.

positional arguments:
  {kernelize,solve,verify,construct,gen,audit}
    kernelize           run the reduction pipeline
    solve               exact oracle; exit 0 yes, 1 no, 2 inconclusive
    verify              check a family file; exit 0 pass, 1 fail
    construct           build a diverse family; exit 0 pass, 1 fail
    gen                 emit a corpus graph
    audit               batch kernelize-vs-oracle safety check

options:
  -h, --help            show this help message and exit
""",
    ("kernelize",): KERNELIZE_USAGE + INSTANCE_OPTIONS + """\
  --witness             construct a family on trivial-yes (li)
  --blackbox {exact,none}
  --budget BUDGET       subroutine kernel tree budget
  --transcript TRANSCRIPT
                        write the transcript here, one JSON object per line
  --family-out FAMILY_OUT
                        write the witness family here
""",
    ("solve",): SOLVE_USAGE + INSTANCE_OPTIONS + """\
  --max-trees MAX_TREES
  --max-clique-nodes MAX_CLIQUE_NODES
""",
    ("verify",): VERIFY_USAGE + INSTANCE_OPTIONS + """\
  --family FAMILY       family file to check
""",
    ("construct",): CONSTRUCT_USAGE + INSTANCE_OPTIONS + """\
  --budget BUDGET       seed tree search budget
  --family-out FAMILY_OUT
                        write the family here
""",
    ("gen",): GEN_USAGE + """
positional arguments:
  family
  params

options:
  -h, --help            show this help message and exit
  --seed SEED
  -o OUTPUT, --output OUTPUT
""",
    ("audit",): AUDIT_USAGE + """
options:
  -h, --help            show this help message and exit
  --problem {li,lnt}
  --count COUNT
  --max-n MAX_N
  --seed SEED
  --workers WORKERS     ignored: audit runs serially
  --budget BUDGET
  -o OUTPUT, --output OUTPUT
""",
}

UNKNOWN_FLAG = TOP_USAGE + "divtrees: error: unrecognized arguments: --bogus\n"


def _missing(cmd: str, usage: str, what: str) -> str:
    return f"{usage}divtrees {cmd}: error: the following arguments are required: {what}\n"


# argv -> (exit code, stdout, stderr)
TEXTS = {
    **{("--help",) if not cmd else (*cmd, "--help"): (0, text, "") for cmd, text in HELP.items()},
    (): (64, "", TOP_USAGE + "divtrees: error: the following arguments are required: cmd\n"),
    ("frobnicate",): (
        64,
        "",
        TOP_USAGE + "divtrees: error: argument cmd: invalid choice: 'frobnicate' (choose from"
        " 'kernelize', 'solve', 'verify', 'construct', 'gen', 'audit')\n",
    ),
    ("kernelize",): (64, "", _missing("kernelize", KERNELIZE_USAGE, "-i/--input")),
    ("solve",): (64, "", _missing("solve", SOLVE_USAGE, "-i/--input")),
    ("verify", "--family", "f"): (64, "", _missing("verify", VERIFY_USAGE, "-i/--input")),
    ("construct",): (64, "", _missing("construct", CONSTRUCT_USAGE, "-i/--input")),
    ("gen",): (64, "", _missing("gen", GEN_USAGE, "family, params")),
    ("audit",): (64, "", _missing("audit", AUDIT_USAGE, "--problem")),
    ("kernelize", "-i", "x", "--budget", "x"): (
        64,
        "",
        KERNELIZE_USAGE + "divtrees kernelize: error: argument --budget: invalid int value: 'x'\n",
    ),
    ("kernelize", "-i", "x", "--bogus"): (64, "", UNKNOWN_FLAG),
    ("solve", "-i", "x", "--bogus"): (64, "", UNKNOWN_FLAG),
    ("verify", "-i", "x", "--family", "f", "--bogus"): (64, "", UNKNOWN_FLAG),
    ("construct", "-i", "x", "--bogus"): (64, "", UNKNOWN_FLAG),
    ("gen", "cycle", "5", "--bogus"): (64, "", UNKNOWN_FLAG),
    ("audit", "--problem", "li", "--bogus"): (64, "", UNKNOWN_FLAG),
}


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned with CPython 3.11's argparse")
@pytest.mark.parametrize("argv", list(TEXTS), ids=" ".join)
def test_help_and_usage_texts_are_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(capsys, argv) == TEXTS[argv]


@pytest.mark.parametrize("argv", list(TEXTS), ids=" ".join)
def test_help_and_usage_texts_match_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _run(capsys, argv)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda cmd=None: full())
    assert got == _run(capsys, argv)
