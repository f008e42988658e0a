from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

from contextstream import io
from contextstream.labels import check_consistency
from contextstream.tables import REQUIRED

ROOT = Path(__file__).parent.parent


def test_readme_library_quick_start_runs(monkeypatch):
    """The fenced Python block under "Library quick start" runs from the
    repo root, with the import path it documents, and labels consistently."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    h, y = namespace["h"], namespace["y"]
    assert y.any()
    assert check_consistency(h, y) == []


EXTRA = {"ignore": "", "keep": " Other keys are kept."}


def _tables():
    """Every table of every format, each once, depth first."""
    seen: dict = {}

    def visit(table):
        if seen.setdefault(table.name, table) is not table:
            raise AssertionError(f"two tables are named {table.name!r}")
        for field in table.fields:
            if field.parser.table is not None and field.parser.table.name not in seen:
                visit(field.parser.table)

    for fmt in io.FORMATS.values():
        for table in (fmt.table, fmt.lines):
            if table is not None and table.name not in seen:
                visit(table)
    return list(seen.values())


def field_list_line(table) -> str:
    """The README line of `table`: each field's key, parser kind, and
    `required` or its default."""
    fields = "; ".join(
        f"`{f.key}` {f.parser.kind}, "
        + ("required" if f.default is REQUIRED else f"default `{json.dumps(f.default)}`")
        for f in table.fields
    )
    return f"- **{table.name}**: {fields or 'no fields'}.{EXTRA[table.extra]}"


def test_readme_lists_every_field_of_every_table():
    """The "Fields of each format" list holds one line per table, as
    `field_list_line` renders it: a field in a table but not in the list, or
    in the list but not in a table, fails."""
    section = (ROOT / "README.md").read_text().split("### Fields of each format", 1)[1]
    listed = [line for line in section.split("\n## ", 1)[0].splitlines()
              if line.startswith("- **")]
    assert listed == [field_list_line(table) for table in _tables()]


def test_readme_cli_flags_are_options_of_their_commands():
    """Every `--flag` in the "CLI" bash block is an option of the command it
    follows, or, before the command, of the top-level parser (`--seed`), as
    `cli._build_parser()` declares them."""
    from contextstream.cli import _build_parser

    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    checked = []
    for line in block.splitlines():
        if not line.startswith("contextstream "):
            continue
        words = shlex.split(line)[1:]
        at = next(i for i, word in enumerate(words) if word in commands.choices)
        for i, word in enumerate(words):
            if word.startswith("--"):
                owner = commands.choices[words[at]] if i > at else parser
                options = {flag for action in owner._actions for flag in action.option_strings}
                assert word in options, f"{word} is no option of {owner.prog}: {line}"
                checked.append(word)
    assert "--seed" in checked and "--out" in checked
