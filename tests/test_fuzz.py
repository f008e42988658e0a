"""Seeded fuzzing of the loaders and of `validate`: every mutated fixture
either loads or raises a ContextStreamError, and `contextstream validate`
exits 0 or 2 on it; a run log or hierarchy that loads also goes through
`evaluate` or `export-dot`, a scenario that loads through `simulate` on
the travel ETG and EG, and an ETG or EG that loads through `compile` and
`simulate` against the other travel document, which exit 0 or 2 as well
(run with -s to see the PASS line on success). A scenario that loads holds
at most `simulate.MAX_SCRIPT_TICKS` ticks, which bounds each of its runs.
`simulate`'s own flags are set to edge values too. Mutants of the golden
metrics document, drawn from their own seed, make `validate` exit 2
exactly when `io.load_metrics` refuses them. Further mutants are derived
from the format tables themselves: for every field of every format, one
that drops a required field, one per JSON type the field refuses, and NaN
and the infinities for a number field; each must raise a FormatError and
make `validate` and the command that reads the format exit 2."""

from __future__ import annotations

import json
import math
import random
import time

from contextstream import io
from contextstream.cli import main
from contextstream.errors import ContextStreamError, FormatError
from contextstream.kg import containment_from_eg
from contextstream.tables import REQUIRED

from conftest import FIXTURES, GOLDEN

ETG = io.load_etg(FIXTURES / "travel_etg.json")
CONTAINMENT = containment_from_eg(io.load_eg(FIXTURES / "travel_eg.json", ETG), ETG)

RUNLOG = "\n".join(json.dumps(doc) for doc in [
    {"format": "runlog/1", "seed": 7, "nodes": ["a", "b", "c"], "manifest": ["speed"]},
    *({"begin": f"2021-06-02T12:0{i}:00+00:00", "end": f"2021-06-02T12:0{i + 1}:00+00:00",
       "features": [1.5], "queried": True, "prediction": [1, 0, i % 2], "truth": [1, 1, 0]}
      for i in range(3)),
]) + "\n"

# format kind -> file name, in DOCUMENTS; the metrics body is free, so its
# table has no field to mutate
FILE_OF_KIND = {"etg": "etg.json", "eg": "eg.json", "stream": "stream.jsonl",
                "scenario": "scenario.json", "hierarchy": "hierarchy.json",
                "runlog": "run.jsonl"}

# file name -> (original bytes, loader)
DOCUMENTS = {
    "etg.json": ((FIXTURES / "travel_etg.json").read_bytes(), io.load_etg),
    "eg.json": ((FIXTURES / "travel_eg.json").read_bytes(), lambda p: io.load_eg(p, ETG)),
    "stream.jsonl": ((FIXTURES / "travel_stream.jsonl").read_bytes(),
                     lambda p: io.load_stream(p, CONTAINMENT)),
    "scenario.json": ((FIXTURES / "travel_scenario.json").read_bytes(), io.load_scenario),
    "hierarchy.json": ((GOLDEN / "travel_hierarchy.json").read_bytes(), io.load_hierarchy),
    "run.jsonl": (RUNLOG.encode(), io.load_runlog),
}

# read, mutated and written to a temporary path; the golden file is never written
METRICS = (GOLDEN / "travel_metrics_seed7.json").read_bytes()

VALUES = [None, True, False, 0, -1, 7.9, 300, "", "x", "ar", [], ["x"], {}, {"x": 1}]
BAD_BITS = [2, -1, 300, True, False, 0.5, "x", None, [1]]

# `simulate` setting -> the edge values the flag test gives it; a seed of
# None leaves `--seed` out, and `tau` is spelled `--strategy kind:tau`
FLAG_EDGES = {
    "window": [0, -1, 1e-9, 1e-8, 0.5, 5, 1e6, 1e10, 1e300, float("nan")],
    "seed": [None, 0, -1, 2**32, 2**63, 7.5],
    "kind": ["always", "never", "margin", "x"],
    "tau": [0, -1, 0.5, 1e300, float("inf"), float("nan")],
}

# `simulate` on the travel fixture
SIMULATE_TRAVEL = ["simulate", "--scenario", str(FIXTURES / "travel_scenario.json"),
                   "--etg", str(FIXTURES / "travel_etg.json"),
                   "--eg", str(FIXTURES / "travel_eg.json")]


def _value_paths(node, path=()):
    """The path of every value in a JSON tree, the root included."""
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, child in node.items() if isinstance(node, dict) else ():
        yield from _value_paths(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _edit_json(rng, data: bytes, jsonl: bool, edit) -> bytes:
    """Applies `edit(doc) -> doc` to the document, or to one random line of
    a JSONL file."""
    if not jsonl:
        return json.dumps(edit(json.loads(data)), indent=2).encode()
    lines = data.decode().splitlines()
    i = rng.randrange(len(lines))
    lines[i] = json.dumps(edit(json.loads(lines[i])))
    return ("\n".join(lines) + "\n").encode()


def _swap_type(rng, doc):
    path = rng.choice(list(_value_paths(doc)))
    old = doc
    for key in path:
        old = old[key]
    value = rng.choice([v for v in VALUES if type(v) is not type(old)])
    return _replace(doc, path, value)


def _bad_bit(rng, doc):
    if not isinstance(doc.get("prediction"), list):  # the header
        return doc
    row = doc[rng.choice(["prediction", "truth"])]
    row[rng.randrange(len(row))] = rng.choice(BAD_BITS)
    return doc


def _mutate(rng, name: str, data: bytes) -> tuple[str, bytes]:
    # most byte edits break the JSON syntax, so type swaps get twice the weight
    kinds = ["flip", "truncate", "0xff", "swap", "swap"]
    kind = rng.choice(kinds + ["bit"] * (name == "run.jsonl"))
    pos = rng.randrange(len(data))
    if kind == "flip":
        flipped = bytes([data[pos] ^ rng.randrange(1, 256)])
        return f"{kind}@{pos}", data[:pos] + flipped + data[pos + 1:]
    if kind == "truncate":
        return f"{kind}@{pos}", data[:pos]
    if kind == "0xff":
        return f"{kind}@{pos}", data[:pos] + b"\xff" + data[pos:]
    jsonl = name.endswith(".jsonl")
    if kind == "swap":
        return kind, _edit_json(rng, data, jsonl, lambda doc: _swap_type(rng, doc))
    return kind, _edit_json(rng, data, jsonl, lambda doc: _bad_bit(rng, doc))


def test_mutated_documents_load_or_raise_format_errors(tmp_path, capsys):
    rng = random.Random(4242)
    start = time.perf_counter()
    failures: list[str] = []
    loaded = rejected = 0
    etg, eg = str(FIXTURES / "travel_etg.json"), str(FIXTURES / "travel_eg.json")
    compiled = str(tmp_path / "compiled.json")

    def compile_and_simulate(etg: str, eg: str) -> list[list[str]]:
        return [["compile", etg, eg, "--out", compiled],
                ["simulate", "--scenario", str(FIXTURES / "travel_scenario.json"),
                 "--etg", etg, "--eg", eg]]

    # file name -> the commands that read the document at a path once it loads
    readers = {
        "run.jsonl": lambda p: [["evaluate", "--log", p]],
        "hierarchy.json": lambda p: [["export-dot", "--out", str(tmp_path / "h.dot"), p]],
        "scenario.json": lambda p: [["simulate", "--scenario", p, "--etg", etg, "--eg", eg]],
        "etg.json": lambda p: compile_and_simulate(p, eg),
        "eg.json": lambda p: compile_and_simulate(etg, p),
    }
    for round_ in range(100):
        for name, (data, loader) in DOCUMENTS.items():
            what, mutated = _mutate(rng, name, data)
            path = tmp_path / name
            path.write_bytes(mutated)
            case = f"round {round_}, {name}, {what}"
            commands = [["validate", str(path)]]
            try:
                loader(path)
                loaded += 1
                commands += readers[name](str(path)) if name in readers else []
            except ContextStreamError:
                rejected += 1
            except Exception as exc:  # noqa: BLE001 - any other error is the defect
                failures.append(f"{case}: load raised {exc!r}")
            for command in commands:
                try:
                    code = main(command)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{case}: {' '.join(command)} raised {exc!r}")
                else:
                    if code not in (0, 2):
                        failures.append(f"{case}: {' '.join(command)} exited {code}")
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"
    print(f"\nFUZZ: PASS - {loaded + rejected} variants of {len(DOCUMENTS)} documents, "
          f"{loaded} loaded, {rejected} rejected with a ContextStreamError, in {elapsed:.2f}s")


def test_mutated_metrics_fail_validate_exactly_when_they_fail_to_load(tmp_path, capsys):
    rng = random.Random(4343)
    path = tmp_path / "metrics.json"
    failures: list[str] = []
    rejected = 0
    for round_ in range(100):
        what, mutated = _mutate(rng, path.name, METRICS)
        path.write_bytes(mutated)
        try:
            io.load_metrics(path)
            expected = 0
        except ContextStreamError:
            expected = 2
            rejected += 1
        code = main(["validate", str(path)])
        if code != expected:
            failures.append(f"round {round_}, {what}: validate exited {code}, not {expected}")
    capsys.readouterr()
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"
    assert 0 < rejected < 100


def _flags(settings: dict) -> list[str]:
    """`settings` spelled as the flags of `simulate`."""
    seed = [] if settings["seed"] is None else ["--seed", str(settings["seed"])]
    tau = "" if "tau" not in settings else f":{settings['tau']}"
    return [*seed, *SIMULATE_TRAVEL, "--window", str(settings["window"]),
            "--strategy", settings["kind"] + tau]


def test_simulate_flags_with_edge_values_exit_0_or_2(capsys):
    """One or two of `--window`, `--seed` and `--strategy kind[:tau]` at edge
    values, the others at `--window 5 --seed 7 --strategy always`: each run
    exits 0 or 2 with no traceback, or 1 where argparse refuses the spelling
    (`--seed 7.5`)."""
    rng = random.Random(977)
    failures: list[str] = []
    codes = set()
    for round_ in range(200):
        settings = {"window": 5, "seed": 7, "kind": "always"}
        for key in rng.sample(sorted(FLAG_EDGES), rng.randint(1, 2)):
            settings[key] = rng.choice(FLAG_EDGES[key])
        argv = _flags(settings)
        case = f"round {round_}, {' '.join(argv)}"
        expected = (1,) if isinstance(settings["seed"], float) else (0, 2)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any error is the defect
            failures.append(f"{case}: simulate raised {exc!r}")
            continue
        codes.add(code)
        if code not in expected:
            failures.append(f"{case}: simulate exited {code}, not one of {expected}")
        if "Traceback" in capsys.readouterr().err:
            failures.append(f"{case}: printed a traceback")
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"
    assert codes == {0, 1, 2}


# one value of each JSON type; a field's wrong-type mutants are those whose
# type its parser does not take
TYPE_SAMPLES = [None, True, 5, 1.5, "x", [5], {"x": 5}]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _objects(value, parser, path):
    """Paths of the objects that `parser`'s table reads in `value`: the value
    itself, the items of a list, or the values of an object of objects."""
    if isinstance(value, list):
        return [path + (i,) for i, v in enumerate(value) if isinstance(v, dict)]
    if isinstance(value, dict):
        if parser.kind.startswith("object of"):
            return [path + (k,) for k in value]
        return [path]
    return []


def _find_tables(table, doc, path, found):
    """Records, for `table` and each table nested in it, the first path in
    `doc` at which an object of it sits."""
    found.setdefault(table.name, (table, path))
    obj = _at(doc, path)
    for field in table.fields:
        if field.parser.table is not None and field.key in obj:
            for sub in _objects(obj[field.key], field.parser, path + (field.key,)):
                _find_tables(field.parser.table, doc, sub, found)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _field_mutants(kind: str):
    """(case, text) for every table-derived mutant of the fixture of `kind`."""
    fmt = io.FORMATS[kind]
    text = DOCUMENTS[FILE_OF_KIND[kind]][0].decode()
    jsonl = fmt.lines is not None
    doc = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    found: dict = {}
    _find_tables(fmt.table, doc, (0,) if jsonl else (), found)
    for i in range(1, len(doc)) if jsonl else ():
        _find_tables(fmt.lines, doc, (i,), found)
    reachable = {fmt.table.name} | ({fmt.lines.name} if jsonl else set())
    assert set(found) >= reachable, f"{kind}: the fixture holds no {reachable - set(found)}"
    for name, (table, path) in found.items():
        for field in table.fields:
            edits = [("missing", None)] if field.default is REQUIRED else []
            edits += [(f"type {type(v).__name__}", v) for v in TYPE_SAMPLES
                      if type(v) not in field.parser.types]
            if float in field.parser.types:
                edits += [(repr(v), v) for v in NON_FINITE]
            elif field.parser.kind == "list of finite number":
                edits += [(f"[{v!r}]", [v]) for v in NON_FINITE]
            for what, value in edits:
                mutant = json.loads(json.dumps(doc))
                obj = _at(mutant, path)
                if what == "missing":
                    obj.pop(field.key, None)
                else:
                    obj[field.key] = value
                out = ("\n".join(json.dumps(d) for d in mutant) + "\n" if jsonl
                       else json.dumps(mutant, indent=2))
                yield f"{kind} {name}.{field.key} {what}", out


def test_every_field_mutant_is_refused_by_its_loader_and_commands(tmp_path, capsys):
    start = time.perf_counter()
    etg, eg = str(FIXTURES / "travel_etg.json"), str(FIXTURES / "travel_eg.json")
    scenario, out = str(FIXTURES / "travel_scenario.json"), str(tmp_path / "out")
    # format kind -> the commands that read a document of it at a path
    commands = {
        "etg": lambda p: [["compile", p, eg, "--out", out],
                          ["simulate", "--scenario", scenario, "--etg", p, "--eg", eg]],
        "eg": lambda p: [["compile", etg, p, "--out", out],
                         ["simulate", "--scenario", scenario, "--etg", etg, "--eg", p]],
        "scenario": lambda p: [["simulate", "--scenario", p, "--etg", etg, "--eg", eg]],
        "hierarchy": lambda p: [["export-dot", p, "--out", out]],
        "runlog": lambda p: [["evaluate", "--log", p]],
        "stream": lambda p: [["snapshot", "--etg", etg, "--eg", eg, "--stream", p,
                              "--out-dir", out]],
    }
    assert set(commands) == set(FILE_OF_KIND) == set(io.FORMATS) - {"metrics"}
    failures: list[str] = []
    n = 0
    for kind, name in FILE_OF_KIND.items():
        loader = DOCUMENTS[name][1]
        path = tmp_path / name
        for case, text in _field_mutants(kind):
            n += 1
            path.write_text(text)
            try:
                loader(path)
                failures.append(f"{case}: loaded")
            except FormatError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other error is the defect
                failures.append(f"{case}: load raised {exc!r}")
            for command in [["validate", str(path)], *commands[kind](str(path))]:
                code = main(command)
                if code != 2:
                    failures.append(f"{case}: {' '.join(command[:2])} exited {code}")
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert not failures, f"{len(failures)} failures of {n}, first: {failures[:8]}"
    assert n > 400
    print(f"\nFIELD FUZZ: PASS - {n} table-derived mutants refused, in {elapsed:.2f}s")
