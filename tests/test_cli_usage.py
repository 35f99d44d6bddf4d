"""The CLI's usage surface: help, usage errors and option syntax.

These hold for any option parser behind ``treepack.cli.main``: every flag
and help string is listed by ``--help``, a usage error exits 2 with a
``usage: treepack`` line and a last ``treepack[ <command>]: error:`` line,
and the ``--opt=value`` form equals ``--opt value``.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from helpers import build_parser
from test_cli import COMPLETE4, TREE3
from treepack import cli
from treepack.cli import main

COMMAND_HELP = {
    "solve": "solve an instance",
    "verify": "verify a packing against an instance",
    "oracle": "exhaustive exact search (small instances)",
    "reduce": "turn a 3-CNF into a packing instance",
}

# Per command: every flag and every help string its --help must list.
SURFACE = {
    "solve": [
        "-i", "--instance", "instance JSON file",
        "--alg", "auto", "greedy",
        "-o", "--output", "also write the result JSON here",
        "--value-only", "emit the objective only",
    ],
    "verify": ["-i", "--instance", "-p", "--packing", "packing JSON file"],
    "oracle": [
        "-i", "--instance", "-o", "--output",
        "--max-n", "vertex count limit (default 8)",
        "--max-k", "tree count limit (default 3)",
    ],
    "reduce": [
        "--cnf", "DIMACS CNF file",
        "-o", "--output", "instance JSON to write",
        "--labels", "sidecar JSON for the threshold and vertex roles",
    ],
}  # fmt: skip


def call(capsys, argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, whether it returned or raised SystemExit, and its streams."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def flat(text: str) -> str:
    """Text with each run of whitespace made one space, so wrapped lines still match."""
    return " ".join(text.split())


@pytest.fixture
def files(tmp_path, monkeypatch):
    (tmp_path / "c4.json").write_text(json.dumps(COMPLETE4))
    (tmp_path / "t3.json").write_text(json.dumps(TREE3))
    (tmp_path / "f.cnf").write_text("p cnf 3 1\n1 2 3 0\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestHelp:
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level(self, capsys, flag):
        code, out, err = call(capsys, [flag])
        assert (code, err) == (0, "")
        assert out.startswith("usage: treepack")
        for name, text in COMMAND_HELP.items():
            assert name in out and text in flat(out)

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_command(self, capsys, command):
        code, out, err = call(capsys, [command, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: treepack {command}")
        words = set(re.findall(r"[-\w]+", out))
        for item in SURFACE[command]:
            assert item in words or item in flat(out), item

    def test_help_wins_over_missing_required_options(self, capsys):
        assert call(capsys, ["verify", "-h"])[:2] == (0, call(capsys, ["verify", "--help"])[1])


USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "unknown-option": ["solve", "-i", "c4.json", "--bogus"],
    "stray-word": ["solve", "-i", "c4.json", "extra"],
    "missing-instance": ["solve", "--alg", "greedy"],
    "missing-packing": ["verify", "-i", "c4.json"],
    "missing-reduce-output": ["reduce", "--cnf", "f.cnf"],
    "no-value-at-end": ["solve", "-i"],
    "no-value-before-option": ["oracle", "-i", "--max-n", "4"],
    "max-n-not-int": ["oracle", "-i", "c4.json", "--max-n", "eight"],
    "max-k-not-int": ["oracle", "-i", "c4.json", "--max-k", "1.5"],
    "max-n-empty": ["oracle", "-i", "c4.json", "--max-n="],
    "max-vertices-removed": ["reduce", "--cnf", "f.cnf", "-o", "g.json", "--max-vertices", "9"],
    "alg-nope": ["solve", "-i", "c4.json", "--alg", "nope"],
    "alg-complete": ["solve", "-i", "c4.json", "--alg", "complete"],
    "alg-tree": ["solve", "-i", "t3.json", "--alg", "tree"],
    "switch-with-value": ["solve", "-i", "c4.json", "--value-only=yes"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_exits_2_with_usage_and_one_error_line(capsys, files, argv):
    code, out, err = call(capsys, argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert any(line.startswith("usage: treepack") for line in lines), err
    assert re.match(r"treepack( (solve|verify|oracle|reduce))?: error: \S", lines[-1]), err
    assert "Traceback" not in err
    assert not (files / "g.json").exists()


def test_usage_error_names_the_bad_value(capsys, files):
    err = call(capsys, ["solve", "-i", "c4.json", "--alg", "nope"])[2]
    assert "'nope'" in err.splitlines()[-1]
    err = call(capsys, ["oracle", "-i", "c4.json", "--max-n", "eight"])[2]
    assert "'eight'" in err.splitlines()[-1]


@pytest.mark.parametrize(
    "spaced",
    [
        ["solve", "-i", "t3.json", "--alg", "greedy"],
        ["solve", "--instance", "c4.json", "--value-only"],
        ["oracle", "-i", "t3.json", "--max-n", "3", "--max-k", "2"],
        ["oracle", "-i", "c4.json", "--max-n", "3"],
        ["reduce", "--cnf", "f.cnf", "--output", "g.json", "--labels", "l.json"],
    ],
)
def test_equals_form_matches_spaced_form(capsys, files, spaced):
    joined = []
    for word in spaced:
        if joined and joined[-1].startswith("--") and not word.startswith("-"):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    assert joined != spaced
    assert call(capsys, joined) == call(capsys, spaced)


def test_repeated_option_keeps_the_last_value(capsys, files):
    first = call(capsys, ["solve", "-i", "missing.json", "-i", "t3.json", "--alg", "auto"])
    assert first == call(capsys, ["solve", "-i", "t3.json"])
    assert first[0] == 0


@pytest.mark.parametrize("argv", [["--max-n", "-1"], ["--max-n=-1"], ["--max-k", "-1"]])
def test_negative_limit_is_a_value(capsys, files, argv):
    code, out, err = call(capsys, ["oracle", "-i", "c4.json", *argv])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "limit" in err


def option_family(rng: random.Random) -> list[str]:
    """A valid argv: every command, shuffled options, short, long, = and attached forms,
    repeats and negative integers."""

    def path():
        return rng.choice(["c4.json", "-", "a b.json", "x=y.json", "dir/t.json", ""])

    def number():
        return str(rng.randint(-12, 12))

    def alg():
        return rng.choice(["auto", "greedy"])

    options = {
        "solve": [(("-i", "--instance"), path, True), (("--alg",), alg, False),
            (("-o", "--output"), path, False), (("--value-only",), None, False)],
        "verify": [(("-i", "--instance"), path, True), (("-p", "--packing"), path, True)],
        "oracle": [(("-i", "--instance"), path, True), (("-o", "--output"), path, False),
            (("--max-n",), number, False), (("--max-k",), number, False)],
        "reduce": [(("--cnf",), path, True), (("-o", "--output"), path, True),
            (("--labels",), path, False)],
    }  # fmt: skip
    command = rng.choice(sorted(options))
    words = []
    for flags, value, required in options[command]:
        for _ in range(rng.choice([1, 1, 2, 3]) if required or rng.random() < 0.6 else 0):
            flag = rng.choice(flags)
            if value is None:
                words.append([flag])
                continue
            text = value()
            form = rng.randrange(3)
            if form == 0:
                words.append([flag, text])
            elif form == 1 or flag.startswith("--") or not text or text.startswith("="):
                words.append([f"{flag}={text}"])
            else:
                words.append([flag + text])  # attached short form: -ifile
    rng.shuffle(words)
    return [command] + [word for group in words for word in group]


def test_parser_matches_argparse_reference():
    """On a seeded family of valid argv the table-driven parser gives argparse's values."""
    reference = build_parser()
    rng = random.Random(1604)
    for _ in range(2000):
        argv = option_family(rng)
        assert vars(cli.parse_args(argv)) == vars(reference.parse_args(argv)), argv
