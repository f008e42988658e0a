"""No module of the package reads or imports another module's private
(`_`-prefixed) names: each decision stays behind the module that owns it.
And every public name of the package is used by the package itself or by
the benchmark: a name that only tests read belongs in the tests. No module
runs source text that it makes at run time (`exec`, `eval`, `compile`), and
a `Hierarchy` computes nothing on first use (`cached_property`). JSON is
decoded only through `json.loads`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import contextstream

PACKAGE = Path(contextstream.__file__).parent
BENCHMARK = Path(__file__).resolve().parent.parent / "pipebench"


def private_reaches(source: str) -> list[str]:
    """`line: name` for each private name of another package module that
    `source` imports (`from .core import _x`) or reads off an imported
    module (`io._read_json` after `from . import io`)."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "contextstream":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{node.lineno}: {alias.name}")
            elif node.module in (None, "contextstream"):
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_checker_finds_both_kinds_of_reach():
    source = "from .core import _x, y\nfrom . import io\nio._read_json(p)\nio.load_eg(p)\n"
    assert private_reaches(source) == ["1: _x", "3: io._read_json"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reaches_no_private_name_of_another(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


GENERATED_CODE_BUILTINS = ("exec", "eval", "compile")


def generated_code_uses(source: str) -> list[str]:
    """`line: name` for each reference in `source` to a builtin that runs
    source text made at run time: code is written as code, not generated."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name) and node.id in GENERATED_CODE_BUILTINS]
    return [f"{node.lineno}: {node.id}" for node in sorted(found, key=lambda n: n.lineno)]


def test_the_checker_finds_calls_and_aliases_of_exec_eval_and_compile():
    source = "exec(src, env)\nrun = eval\ncompile_hierarchy(etg, eg)\nre.compile(p)\n"
    assert generated_code_uses(source) == ["1: exec", "2: eval"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_runs_no_generated_code(path):
    assert generated_code_uses(path.read_text(encoding="utf-8")) == []


JSON_DECODERS = ("JSONDecoder", "raw_decode", "object_pairs_hook")
# the attribute that names each kind of reference to a name
NAMED = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg", ast.alias: "name"}


def json_decoder_uses(source: str) -> list[str]:
    """`line: name` for each reference in `source` to a JSON decoder other
    than the one `json.loads` uses: a decoder of its own, its `raw_decode`
    or a hook on an object's pairs. JSON text is decoded one way only."""
    found = [(node.lineno, name) for node in ast.walk(ast.parse(source))
             if (name := getattr(node, NAMED.get(type(node), ""), None)) in JSON_DECODERS]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_checker_finds_decoders_their_raw_decode_and_pair_hooks():
    source = ("from json import JSONDecoder\nd = json.JSONDecoder()\nd.raw_decode(s)\n"
              "json.loads(s, object_pairs_hook=f)\njson.loads(s)\n")
    assert json_decoder_uses(source) == [
        "1: JSONDecoder", "2: JSONDecoder", "3: raw_decode", "4: object_pairs_hook"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_decodes_json_only_through_json_loads(path):
    assert json_decoder_uses(path.read_text(encoding="utf-8")) == []


def public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function, class and constant
    of a module, and (`Class.method`, node) for each public method of a
    public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node


def references(source: str) -> dict[str, list[int]]:
    """The lines on which `source` refers to each name: as a name, as an
    attribute or in an import."""
    lines: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            continue
        for name in names:
            lines.setdefault(name, []).append(node.lineno)
    return lines


def test_the_hierarchy_computes_nothing_on_first_use():
    """A `Hierarchy` is ordered, indexed and grouped into levels as it is
    built, so a cycle is refused there and no later read pays for a build."""
    source = (PACKAGE / "hierarchy.py").read_text(encoding="utf-8")
    assert references(source).get("cached_property", []) == []


def unused_public_names(package: dict[str, str], benchmark: list[str]) -> list[str]:
    """`module: name` for each public name of the `package` sources (module
    -> source) that no line refers to outside the name's own definition,
    in the package or in the `benchmark` sources."""
    refs = {module: references(source) for module, source in package.items()}
    used = {name for source in benchmark for name in references(source)}
    unused = []
    for module, source in package.items():
        elsewhere = used.union(*(r for m, r in refs.items() if m != module))
        for name, node in public_definitions(ast.parse(source)):
            bare = name.rpartition(".")[2]
            if bare in elsewhere or any(not node.lineno <= line <= node.end_lineno
                                        for line in refs[module].get(bare, ())):
                continue
            unused.append(f"{module}: {name}")
    return unused


def test_the_surface_checker_finds_names_only_their_definition_uses():
    module = (
        "LIMIT = 3\n"
        "def used():\n    return helper(LIMIT)\n"
        "def helper(n):\n    return helper(n - 1) if n else Report()\n"
        "def lonely():\n    return lonely()\n"
        "class Report:\n"
        "    def codes(self):\n        return self.codes()\n"
        "    def ok(self):\n        return True\n"
        "    def _private(self):\n        pass\n"
        "class _Parser:\n    def error(self):\n        pass\n"
    )
    package = {"a.py": module, "b.py": "from .a import used\n"}
    assert unused_public_names(package, ["report.ok\n"]) == ["a.py: lonely", "a.py: Report.codes"]


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    """A name that only tests call is a test helper: it goes to conftest."""
    package = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    benchmark = [path.read_text(encoding="utf-8") for path in sorted(BENCHMARK.glob("*.py"))]
    assert unused_public_names(package, benchmark) == []
