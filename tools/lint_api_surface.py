"""Lint the public API surface: non-drifting docs.

Two checks, both cheap enough for every push:

1. **Generated reference** — the block between ``<!-- generated:begin -->``
   and ``<!-- generated:end -->`` in ``docs/api.md`` must be byte-identical
   to :func:`repro.service.routes.render_api_reference`.  The op list and
   error-code table documented to users are rendered from the same
   constants the server dispatches on, so the docs cannot drift.

2. **CLI flags match the parser** — every ``| `--flag ...` |`` table row
   under a ``## `<command>` `` heading of ``docs/cli.md`` must name a flag
   of that subcommand in :func:`repro.cli._build_parser`, and every flag
   of every subcommand (``--help`` aside) must have such a row.

Run from the repository root::

    PYTHONPATH=src python tools/lint_api_surface.py
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

GENERATED_BEGIN = "<!-- generated:begin -->"
GENERATED_END = "<!-- generated:end -->"


def check_generated_block() -> list[str]:
    from repro.service.routes import render_api_reference

    path = ROOT / "docs" / "api.md"
    if not path.exists():
        return [f"{path}: missing (the API reference page must exist)"]
    text = path.read_text(encoding="utf-8")
    if GENERATED_BEGIN not in text or GENERATED_END not in text:
        return [f"{path}: generated-block markers are missing"]
    begin = text.index(GENERATED_BEGIN) + len(GENERATED_BEGIN)
    block = text[begin : text.index(GENERATED_END)].strip("\n")
    expected = render_api_reference().strip("\n")
    if block != expected:
        return [
            f"{path}: generated block is stale — paste the current "
            "render_api_reference() output between the markers"
        ]
    return []


_COMMAND_HEADING = re.compile(r"^## `([a-z-]+)`")
_FLAG_ROW = re.compile(r"^\| `(--[a-z0-9-]+)")


def documented_flags(text: str) -> dict[str, dict[str, int]]:
    """``{command: {flag: line}}`` of the flag rows in ``docs/cli.md``."""
    sections: dict[str, dict[str, int]] = {}
    command = None
    for number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("## "):
            heading = _COMMAND_HEADING.match(line)
            command = heading.group(1) if heading else None
            if command is not None:
                sections.setdefault(command, {})
            continue
        row = _FLAG_ROW.match(line)
        if command is not None and row:
            sections[command].setdefault(row.group(1), number)
    return sections


def parser_flags() -> dict[str, set[str]]:
    """``{command: long flags}`` of every ``repro`` subcommand."""
    from repro.cli import _build_parser

    parser = _build_parser()
    commands = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            option
            for action in subparser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, subparser in commands.choices.items()
    }


def check_cli_flags() -> list[str]:
    path = ROOT / "docs" / "cli.md"
    if not path.exists():
        return [f"{path}: missing (the CLI reference page must exist)"]
    documented = documented_flags(path.read_text(encoding="utf-8"))
    relative = path.relative_to(ROOT)
    commands = parser_flags()
    problems = []
    for command, flags in sorted(commands.items()):
        rows = documented.get(command)
        if rows is None:
            problems.append(f"{relative}: no ## `{command}` section")
            continue
        for flag, number in sorted(rows.items(), key=lambda item: item[1]):
            if flag not in flags:
                problems.append(
                    f"{relative}:{number}: `{command} {flag}` is documented "
                    "but the parser has no such flag"
                )
        for flag in sorted(flags - set(rows)):
            problems.append(
                f"{relative}: `{command} {flag}` is a parser flag with no "
                "table row"
            )
    for command in sorted(set(documented) - set(commands)):
        problems.append(f"{relative}: ## `{command}` is not a subcommand")
    return problems


def main() -> int:
    problems = check_generated_block() + check_cli_flags()
    for problem in problems:
        print(problem)
    if problems:
        print(f"api-surface lint: {len(problems)} problem(s)")
        return 1
    print("api-surface lint OK: docs in sync, CLI flags match the parser")
    return 0


if __name__ == "__main__":
    sys.exit(main())
