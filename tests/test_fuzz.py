"""Seeded fuzzing of the loaders and of `validate`: every mutated fixture
either loads or raises a ContextStreamError, and `contextstream validate`
exits 0 or 2 on it; a run log, hierarchy or config that loads also goes
through `evaluate`, `export-dot` or a `simulate` on the travel fixture, a
scenario that loads through `simulate` on the travel ETG and EG, and an ETG
or EG that loads through `compile` and `simulate` against the other travel
document, which exit 0 or 2 as well (run with -s to see the PASS line on
success). A scenario that loads holds at most `simulate.MAX_SCRIPT_TICKS`
ticks, which bounds each of its runs. Mutants of the golden metrics document, drawn from their
own seed, make `validate` exit 2 exactly when `io.load_metrics` refuses
them."""

from __future__ import annotations

import json
import random
import time

from contextstream import io
from contextstream.cli import main
from contextstream.errors import ContextStreamError
from contextstream.kg import containment_from_eg

from conftest import FIXTURES, GOLDEN

ETG = io.load_etg(FIXTURES / "travel_etg.json")
CONTAINMENT = containment_from_eg(io.load_eg(FIXTURES / "travel_eg.json", ETG), ETG)

RUNLOG = "\n".join(json.dumps(doc) for doc in [
    {"format": "runlog/1", "seed": 7, "nodes": ["a", "b", "c"], "manifest": ["speed"]},
    *({"begin": f"2021-06-02T12:0{i}:00+00:00", "end": f"2021-06-02T12:0{i + 1}:00+00:00",
       "features": [1.5], "queried": True, "prediction": [1, 0, i % 2], "truth": [1, 1, 0]}
      for i in range(3)),
]) + "\n"

# file name -> (original bytes, loader)
DOCUMENTS = {
    "etg.json": ((FIXTURES / "travel_etg.json").read_bytes(), io.load_etg),
    "eg.json": ((FIXTURES / "travel_eg.json").read_bytes(), lambda p: io.load_eg(p, ETG)),
    "stream.jsonl": ((FIXTURES / "travel_stream.jsonl").read_bytes(),
                     lambda p: io.load_stream(p, CONTAINMENT)),
    "scenario.json": ((FIXTURES / "travel_scenario.json").read_bytes(), io.load_scenario),
    "config.json": ((FIXTURES / "config.json").read_bytes(), io.load_config),
    "hierarchy.json": ((GOLDEN / "travel_hierarchy.json").read_bytes(), io.load_hierarchy),
    "run.jsonl": (RUNLOG.encode(), io.load_runlog),
}

# read, mutated and written to a temporary path; the golden file is never written
METRICS = (GOLDEN / "travel_metrics_seed7.json").read_bytes()

VALUES = [None, True, False, 0, -1, 7.9, 300, "", "x", "ar", [], ["x"], {}, {"x": 1}]
BAD_BITS = [2, -1, 300, True, False, 0.5, "x", None, [1]]

# config key -> the edge values the config test sets it to
CONFIG_EDGES = {
    ("window_minutes",): [0, -1, 1e-9, 1e-8, 0.5, 5, 1e6, 1e10, 1e300, float("nan"), "5"],
    ("near_threshold_m",): [0, -1, 1e-300, 1e300, float("inf")],
    ("seed",): [None, 0, -1, 2**32, 2**63, 7.5],
    ("strategy", "kind"): ["always", "never", "margin", "x"],
    ("strategy", "tau"): [0, -1, 0.5, 1e300, float("inf"), float("nan")],
}

# `simulate` on the travel fixture; a config path goes before it
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
        "config.json": lambda p: [["--config", p, *SIMULATE_TRAVEL]],
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


def test_configs_with_edge_values_simulate_or_exit_2(tmp_path, capsys):
    """Byte and type mutants of the config seldom load, so this sets one or
    two config keys to edge values instead: each config either fails to
    load with a ContextStreamError or drives `simulate` on the travel
    fixture to exit 0 or 2."""
    rng = random.Random(977)
    original = json.loads(DOCUMENTS["config.json"][0])
    path = tmp_path / "config.json"
    failures: list[str] = []
    ran = 0
    for round_ in range(200):
        doc = json.loads(json.dumps(original))
        for key in rng.sample(sorted(CONFIG_EDGES), rng.randint(1, 2)):
            _replace(doc, key, rng.choice(CONFIG_EDGES[key]))
        path.write_text(json.dumps(doc))
        case = f"round {round_}, {json.dumps(doc)}"
        try:
            io.load_config(path)
        except ContextStreamError:
            continue
        ran += 1
        try:
            code = main(["--config", str(path), *SIMULATE_TRAVEL])
        except Exception as exc:  # noqa: BLE001 - any error is the defect
            failures.append(f"{case}: simulate raised {exc!r}")
        else:
            if code not in (0, 2):
                failures.append(f"{case}: simulate exited {code}")
    capsys.readouterr()
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"
    assert ran >= 50, f"only {ran} configs loaded"
