"""The README and the verify skill describe the program as it is.

Every ``python -m repro.<package> …`` command in a fenced block parses with
that package's own argument parser (no process is started), and every
package under ``src/repro`` has a row in the README's Layout table.
"""

from __future__ import annotations

import re
import shlex

import pytest

from repro.corpus.__main__ import build_parser as corpus_parser
from repro.diagnostics.__main__ import _build_parser as diagnostics_parser
from repro.runner.cli import build_parser as runner_parser
from repro.serving.__main__ import build_parser as serving_parser
from text_scan import ROOT

PARSERS = {
    "runner": runner_parser,
    "corpus": corpus_parser,
    "serving": serving_parser,
    "diagnostics": diagnostics_parser,
}

DOCUMENTS = ["README.md", ".claude/skills/verify/SKILL.md"]

COMMAND = re.compile(r"\bpython3? -m repro\.(\w+)\b(.*)")


def fenced_commands(text: str) -> list[tuple[int, str, str]]:
    """``(line, package, rest)`` for each ``python -m repro.<package>`` command
    in a fenced block, its ``\\`` continuations joined; ``line`` is where it
    starts."""
    commands = []
    fenced = False
    pending: tuple[int, str] | None = None
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        start, joined = pending if pending else (number, "")
        joined += line.strip()
        if joined.endswith("\\"):
            pending = (start, joined[:-1] + " ")
            continue
        pending = None
        match = COMMAND.search(joined)
        if match:
            commands.append((start, match.group(1), match.group(2)))
    return commands


def argv_of(rest: str) -> list[str]:
    """The arguments after ``python -m repro.<package>``, cut at a comment, a
    pipe, a ``;`` or a trailing ``&``."""
    lexer = shlex.shlex(rest, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if token and set(token) <= set("|;&"):
            break
        argv.append(token)
    return argv


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_command_parses(document):
    commands = fenced_commands((ROOT / document).read_text())
    assert commands, document
    refused = []
    for line, package, rest in commands:
        argv = argv_of(rest)
        try:
            PARSERS[package]().parse_args(argv)
        except SystemExit as error:
            if error.code:
                refused.append(f"{document}:{line}: python -m repro.{package} {shlex.join(argv)}")
    assert refused == []


def test_the_layout_table_lists_every_package():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(src/repro/[\w/]+/)` \|", table, flags=re.MULTILINE))
    packages = {
        f"{init.parent.relative_to(ROOT).as_posix()}/"
        for init in (ROOT / "src/repro").rglob("__init__.py")
        if init.parent != ROOT / "src/repro"
    }
    assert packages - rows == set()
