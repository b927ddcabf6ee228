"""Every subcommand renders its ``--help`` page.

argparse formats help strings lazily, so a stray ``%`` or a bad
``%(default)s`` in one option only fails when a user asks for that
command's help. Walking the parser keeps the check in step with the
commands the CLI actually registers.
"""

import argparse

import pytest

from repro.cli import build_parser


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from _subcommands(sub, prefix + (name,))


COMMANDS = sorted(_subcommands(build_parser()))


def _top_level_help():
    parser = build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {choice.dest: choice.help for choice in action._choices_actions}


def test_walk_finds_the_documented_commands():
    names = {command[0] for command in COMMANDS}
    assert {"summary", "sweep", "optimize", "runtime", "fleet", "serve",
            "obs", "lint"} <= names
    assert ("obs", "summarize") in COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_help_page_renders(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(list(command) + ["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage:")
    assert " ".join(command) in out.splitlines()[0]


@pytest.mark.parametrize(
    "name", sorted({command[0] for command in COMMANDS})
)
def test_listed_with_a_summary(name):
    summary = _top_level_help()[name]
    assert summary and summary.strip()
