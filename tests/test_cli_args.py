"""The CLI's plain-line parser against argparse, the reference it stands in for.

``cli._fast_args`` parses a plain command line without argparse; every other
line, help and usage errors included, goes to ``cli.build_parser``.  Drawn
lines must either fall back (None) or parse exactly as argparse parses them.
"""

import io
import runpy
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from supercoinv import cli

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = sorted(cli._COMMANDS)
ALL_FLAGS = sorted({flag.name for _h, _p, flags in cli._COMMANDS.values() for flag in flags})
VALUES = [
    *("0", "1", "3", "12", " 3", "1_0", "+2", "-1", "x", "-", "", "--n"),
    *("json", "csv", "text", "xml", "hilbert", "frobenius", "all", "artin", "out.json"),
]
POSITIONALS = ["all", "artin", "extra", "a.json", "-", "-1", ""]


def _argparse_args(argv):
    """``vars`` of argparse's namespace, or None where argparse exits (help or an error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@st.composite
def _pieces(draw):
    """One piece of a command line, plain or not."""
    flag = draw(st.sampled_from(ALL_FLAGS))
    value = draw(st.sampled_from(VALUES))
    kinds = ["pair", "pair", "pair", "joined", "prefix", "bare", "positional", "help", "dashes"]
    kind = draw(st.sampled_from(kinds))
    if kind == "pair":
        return [flag, value]
    if kind == "joined":
        return [f"{flag}={value}"]
    if kind == "prefix":
        return [flag[: draw(st.integers(1, len(flag) - 1))], value]
    if kind == "bare":
        return [flag]
    if kind == "positional":
        return [draw(st.sampled_from(POSITIONALS))]
    return [draw(st.sampled_from(["-h", "--help"]))] if kind == "help" else ["--"]


@st.composite
def _any_argv(draw):
    head = draw(st.sampled_from([*COMMANDS, *COMMANDS, "frobulate", "--help", "-h"]))
    pieces = draw(st.lists(_pieces(), max_size=6))
    return [head] + [token for piece in pieces for token in piece]


@st.composite
def _plain_argv(draw):
    """A plain line: declared flags once each, valid values, the positional at most once."""
    command = draw(st.sampled_from(COMMANDS))
    _help, positional, flags = cli._COMMANDS[command]
    chosen = [flag for flag in flags if flag.required or draw(st.booleans())]
    pieces = []
    for flag in chosen:
        if flag.choices is not None:
            value = draw(st.sampled_from(flag.choices))
        elif flag.type is int:
            value = str(draw(st.integers(0, 10**30)))
        else:
            value = draw(st.sampled_from(["out.json", "dir", "a b", "x=y", ""]))
        pieces.append([flag.name, value])
    if positional is not None and (positional.required or draw(st.booleans())):
        pieces.append([draw(st.sampled_from(["all", "artin", "a.json", "x y"]))])
    pieces = draw(st.permutations(pieces))
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_any_argv())
def test_fast_args_fall_back_or_match_argparse(argv):
    fast = cli._fast_args(argv)
    reference = _argparse_args(argv)
    if reference is None:
        assert fast is None, argv
    else:
        assert fast is None or vars(fast) == reference, argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_plain_argv())
def test_fast_args_parse_every_plain_line(argv):
    fast = cli._fast_args(argv)
    assert fast is not None, argv
    assert vars(fast) == _argparse_args(argv), argv


def test_fast_args_refuse_what_only_argparse_answers():
    for argv in (
        [],
        ["frobulate"],
        ["--help"],
        ["compute", "--help"],
        ["compute", "-h"],
        ["compute"],  # --n is required
        ["compute", "--n", "3", "--n", "4"],
        ["compute", "--n=3"],
        ["compute", "--n", "3", "--ser", "frobenius"],
        ["compute", "--n", "-1"],
        ["compute", "--n", "x"],
        ["compute", "--n", "3", "--format", "xml"],
        ["compute", "--n", "3", "--jobs", "2"],
        ["compute", "--n", "3", "--out", "-"],
        ["compute", "--n", "3", "--out"],
        ["compute", "--n", "3", "--"],
        ["compute", "--n", "3", "extra"],
        ["verify", "all", "extra"],
        ["verify", "--", "all"],
        ["cauchy", "--n", "2", "--cache-dir", "d"],
        ["table"],
        ["table", "a.json", "b.json"],
    ):
        assert cli._fast_args(argv) is None, argv


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # on the fast path and on argparse's
    for n in (["--n", "3"], ["--n=3"]):
        argv = ["supercoinv", "compute", *n, "--k", "1", "--format", "text"]
        monkeypatch.setattr("sys.argv", argv)
        assert cli.main() == 0
        assert capsys.readouterr().out == "1 + 2q + 2q^2 + q^3\n"


def _workload_argvs():
    workloads = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["WORKLOADS"]
    for workload in workloads.values():
        for op in (*workload.ops, *workload.counter_ops):
            yield op.argv + (["--cache-dir", "cache"] if op.cached else [])


def _ci_argvs():
    """The argv of each ``supercoinv`` command of the CI step that runs the installed command."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = text.split("- name: Installed command", 1)[1].split("- name:", 1)[0]
    for line in step.splitlines():
        tokens = shlex.split(line, comments=True)
        while "supercoinv" in tokens:
            tokens = tokens[tokens.index("supercoinv") + 1 :]
            argv = []
            for token in tokens:
                if token in ("|", "||", ";", "&&") or token.startswith((">", "2>")):
                    break
                argv.append(token)
            yield argv


# the CI lines that check argparse's own answers: help, a usage error, and
# ``--n=3``, whose output CI compares with that of the plain ``--n 3``
CI_ARGPARSE_LINES = [
    ["--help"],
    ["compute", "--help"],
    ["compute"],
    ["compute", "--n=3", "--k", "1"],
]


def test_benchmark_and_ci_commands_take_the_fast_path():
    # a command that fell back to argparse would still pass every output
    # check, but would pay argparse's start-up again
    workload = list(_workload_argvs())
    assert len(workload) >= 8
    for argv in workload:
        assert cli._fast_args(argv) is not None, argv
    ci = list(_ci_argvs())
    assert len(ci) >= 15
    assert all(argv in ci for argv in CI_ARGPARSE_LINES)
    for argv in ci:
        if argv not in CI_ARGPARSE_LINES:
            fast = cli._fast_args(argv)
            assert fast is not None, argv
            assert vars(fast) == _argparse_args(argv), argv
