from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest

from contextstream import io
from contextstream.cli import main
from contextstream.simulate import WindowSpec, run_simulation

from conftest import (FIXTURES, GOLDEN, MALFORMED, encode_case, fixture_record,
                      travel_etg_renaming, travel_etg_with_q)

ETG = str(FIXTURES / "travel_etg.json")
EG_PATH = str(FIXTURES / "travel_eg.json")
STREAM = str(FIXTURES / "travel_stream.jsonl")
SCENARIO = str(FIXTURES / "travel_scenario.json")


def test_compile_reproduces_golden(tmp_path):
    out = tmp_path / "h.json"
    assert main(["compile", ETG, EG_PATH, "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "travel_hierarchy.json").read_text()


def test_compile_writes_dot(tmp_path):
    out = tmp_path / "h.json"
    dot = tmp_path / "h.dot"
    assert main(["compile", ETG, EG_PATH, "--out", str(out), "--dot", str(dot)]) == 0
    text = dot.read_text()
    h = io.load_hierarchy(out)
    # every node rendered exactly once, with the legend colors
    for nid in h.nodes:
        assert text.count(f'"{nid}" [label=') == 1
    assert 'fillcolor=indianred1' in text       # actions
    assert 'fillcolor=palegreen' in text        # functions
    assert 'fillcolor=orange' in text           # entities
    assert 'fillcolor=lightskyblue' in text     # etypes
    assert text.count('"entity:sitting" [label="Sitting", fillcolor=indianred1]') == 1


def test_compile_nonconforming_eg_exits_2(tmp_path, travel_eg):
    bad = io.eg_to_dict(travel_eg)
    bad["triples"].append({"property": "FriendOf", "subject": "seat_1", "object": "haonan"})
    bad_path = tmp_path / "bad_eg.json"
    bad_path.write_text(json.dumps(bad))
    out = tmp_path / "h.json"
    assert main(["compile", ETG, str(bad_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_compile_simulate_and_snapshot_refuse_a_nonconforming_eg(tmp_path, capsys):
    """An enum value outside its values and a triple outside its property's
    domain: every command that reads the EG refuses it before any output."""
    doc = json.loads((FIXTURES / "travel_eg.json").read_text())
    next(e for e in doc["entities"] if e["id"] == "haonan")["values"]["mood"] = "furious"
    doc["triples"].append({"property": "partOf", "subject": "walk", "object": "trentino"})
    eg = tmp_path / "eg.json"
    eg.write_text(json.dumps(doc))
    out, snaps = tmp_path / "h.json", tmp_path / "snaps"
    assert main(["compile", ETG, str(eg), "--out", str(out)]) == 2
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", str(eg)]) == 2
    assert main(["snapshot", "--etg", ETG, "--eg", str(eg), "--stream", STREAM,
                 "--out-dir", str(snaps)]) == 2
    assert not out.exists() and not snaps.exists()
    err = capsys.readouterr().err
    assert err.count("error: EG does not conform to the ETG: 2 finding(s)") == 3


def test_every_command_refuses_an_eg_with_two_containment_parents(tmp_path, capsys):
    """A second `partOf` parent of `train_1` is a finding, not a log line:
    `validate` names the entity and both parents, and every command that
    reads the EG refuses it."""
    doc = json.loads(Path(EG_PATH).read_text())
    doc["entities"].append({"id": "veneto", "name": "Veneto", "etype": "region", "values": {}})
    doc["triples"].append({"property": "partOf", "subject": "train_1", "object": "veneto"})
    eg = tmp_path / "eg.json"
    eg.write_text(json.dumps(doc))
    finding = "train_1: several partOf parents, 'trentino' and 'veneto'; containment allows one"
    assert main(["validate", ETG, str(eg)]) == 2
    assert capsys.readouterr().err == f"[several-parents] {eg}: {finding}\n"
    assert main(["compile", ETG, str(eg), "--out", str(tmp_path / "h.json")]) == 2
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", str(eg)]) == 2
    assert capsys.readouterr().err.count(f"[several-parents] {finding}") == 2
    done = _cli_in_child("snapshot", "--stream", STREAM, "--out-dir", str(tmp_path / "snaps"),
                         eg=str(eg))
    assert done.returncode == 2, done.stderr
    assert f"[several-parents] {finding}" in done.stderr
    assert "WARNING:" not in done.stderr
    assert not (tmp_path / "h.json").exists() and not (tmp_path / "snaps").exists()


def test_compile_missing_file_exits_1(tmp_path):
    assert main(["compile", ETG, str(tmp_path / "nope.json"), "--out", str(tmp_path / "h.json")]) == 1


def test_compile_refuses_the_collapse_flag(tmp_path, capsys):
    """The structural properties are `kg.COLLAPSE_PROPERTIES`, matched by id
    or name: `--collapse` is no option, so it is a usage error and nothing
    is written."""
    out = tmp_path / "h.json"
    assert main(["compile", ETG, EG_PATH, "--out", str(out), "--collapse", "isA,has"]) == 1
    assert "unrecognized arguments: --collapse isA,has" in capsys.readouterr().err
    assert not out.exists()


def test_compile_q_override_drops_function_nodes(tmp_path):
    out = tmp_path / "h.json"
    etg = travel_etg_with_q(tmp_path, ["near", "use", "interact", "in", "do", "happenIn",
                                       "during", "participate", "FriendOf", "RestToolOf"])
    assert main(["compile", etg, EG_PATH, "--out", str(out)]) == 0
    h = io.load_hierarchy(out)
    assert "prop:FriendOf" not in h.nodes
    assert "pinst:RestToolOf/xiaoyue/seat_1" not in h.nodes


def test_compile_refuses_a_q_that_names_an_undeclared_property(tmp_path, capsys):
    """An unknown name in Q once made every context-dependent property
    reified (35 nodes, not 27); the ETG that lists one is refused as it
    loads."""
    out, etg = tmp_path / "h.json", travel_etg_with_q(tmp_path, ["nonsense"])
    assert main(["compile", etg, EG_PATH, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: {etg}: malformed etg/1 document: q lists unknown properties: ['nonsense']\n")


def test_validate_clean_fixtures_exit_0(capsys):
    assert main(["validate", ETG, EG_PATH, STREAM, SCENARIO,
                 str(GOLDEN / "travel_hierarchy.json")]) == 0
    assert "valid" in capsys.readouterr().out


def _graphs_with_a_boolean_home(tmp_path) -> tuple[str, str]:
    """The travel ETG with `me.home: coordinates`, and the travel EG whose
    observer's home has a boolean axis: it loads alone, not under the ETG."""
    etg = json.loads(Path(ETG).read_text())
    me = next(e for e in etg["etypes"] if e["id"] == "me")
    me["data_properties"].append({"name": "home", "datatype": "coordinates"})
    eg = json.loads(Path(EG_PATH).read_text())
    xiaoyue = next(e for e in eg["entities"] if e["id"] == "xiaoyue")
    xiaoyue["values"]["home"] = {"x": True, "y": 0, "z": 0}
    (tmp_path / "etg.json").write_text(json.dumps(etg))
    (tmp_path / "eg.json").write_text(json.dumps(eg))
    return str(tmp_path / "etg.json"), str(tmp_path / "eg.json")


def test_validate_loads_an_eg_under_the_one_etg_named(tmp_path, capsys):
    etg, eg = _graphs_with_a_boolean_home(tmp_path)
    assert main(["compile", etg, eg, "--out", str(tmp_path / "h.json")]) == 2
    compile_err = capsys.readouterr().err
    assert "entities[0].values.home.x: expected finite number" in compile_err
    assert main(["validate", etg, eg]) == 2
    findings = capsys.readouterr().err.splitlines()
    assert len(findings) == 1
    assert findings[0].startswith(f"[invalid-document] {eg}: malformed eg/1 document: ")
    assert findings[0].count(eg) == 1
    assert "entities[0].values.home.x: expected finite number" in findings[0]
    # alone, or beside two ETGs, the EG has no schema to load under
    assert main(["validate", eg]) == 0
    assert main(["validate", etg, ETG, eg]) == 0


def test_validate_reports_the_conformance_findings_of_an_eg(tmp_path, capsys):
    doc = json.loads(Path(EG_PATH).read_text())
    next(e for e in doc["entities"] if e["id"] == "haonan")["values"]["mood"] = "furious"
    doc["triples"].append({"property": "partOf", "subject": "walk", "object": "trentino"})
    eg = tmp_path / "eg.json"
    eg.write_text(json.dumps(doc))
    assert main(["validate", str(eg), STREAM, ETG]) == 2
    findings = capsys.readouterr().err.splitlines()
    assert [f.split("]")[0] for f in findings] == ["[datatype-mismatch", "[domain-violation"]
    assert all(f"] {eg}: " in f for f in findings)
    assert main(["validate", ETG, EG_PATH]) == 0
    assert capsys.readouterr().out == "2 document(s) valid\n"


def test_validate_defect_exits_2(tmp_path, travel_hierarchy, capsys):
    doc = io.hierarchy_to_dict(travel_hierarchy)
    doc["edges"].append(["entity:haonan", "etype:person"])  # implied by a path
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "redundant-edge" in capsys.readouterr().err


def test_validate_names_only_the_file_for_a_finding_without_a_subject(tmp_path, capsys):
    """A hierarchy finding with no subject of its own is on the file alone:
    no empty subject after the path."""
    node = lambda nid: {"id": nid, "kind": "etype", "display_name": nid, "source_ref": nid}
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps({
        "format": "hierarchy/1", "root": "r",
        "nodes": [node("a"), node("b"), {**node("r"), "kind": "root", "source_ref": None}],
        "edges": [["a", "b"], ["a", "r"], ["b", "r"]]}))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"[redundant-edge] {bad}: edge implied by a longer path: a -> r\n")


def test_validate_missing_file_exits_1():
    assert main(["validate", "/definitely/not/here.json"]) == 1


def test_validate_corrupt_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{не json")
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize("case", MALFORMED)
def test_validate_reports_a_malformed_document_and_goes_on(tmp_path, capsys, case):
    kind, text, line = MALFORMED[case]
    bad = tmp_path / ("bad.jsonl" if kind in ("stream", "runlog") else "bad.json")
    bad.write_bytes(encode_case(text))
    assert main(["validate", str(bad), ETG]) == 2
    findings = capsys.readouterr().err.splitlines()
    assert len(findings) == 1
    where = f"{bad}:{line}" if line is not None else f"{bad}"
    assert findings[0].startswith(f"[invalid-document] {where}: ")
    assert findings[0].count(str(bad)) == 1


@pytest.mark.parametrize("case", [case for case, doc in MALFORMED.items()
                                  if doc[0] in ("etg", "eg")])
def test_compile_and_simulate_refuse_a_malformed_etg_or_eg(tmp_path, capsys, case):
    kind, text, _ = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_bytes(encode_case(text))
    etg, eg = (str(bad), EG_PATH) if kind == "etg" else (ETG, str(bad))
    assert main(["compile", etg, eg, "--out", str(tmp_path / "h.json")]) == 2
    assert main(["simulate", "--scenario", SCENARIO, "--etg", etg, "--eg", eg]) == 2
    assert capsys.readouterr().err.count(f"error: {bad}") == 2


@pytest.mark.parametrize("case", [case for case, doc in MALFORMED.items()
                                  if doc[0] == "runlog"])
def test_evaluate_refuses_a_malformed_run_log(tmp_path, capsys, case):
    """An `Infinity` feature, say, is refused as the log loads, so no metrics
    are printed."""
    bad = tmp_path / "run.jsonl"
    bad.write_bytes(encode_case(MALFORMED[case][1]))
    assert main(["evaluate", "--log", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad}:")


@pytest.mark.parametrize("case", [case for case, doc in MALFORMED.items()
                                  if doc[0] == "hierarchy"])
def test_export_dot_refuses_a_malformed_hierarchy(tmp_path, capsys, case):
    bad, out = tmp_path / "h.json", tmp_path / "h.dot"
    bad.write_bytes(encode_case(MALFORMED[case][1]))
    assert main(["export-dot", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed hierarchy/1 document: ")
    assert not out.exists()


def test_validate_reads_the_jsonl_header_tag(tmp_path):
    """A stream whose header merely mentions the run-log tag is a stream."""
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join([json.dumps({"format": "stream/1", "source": "runlog/2"})]
                              + lines[1:]) + "\n")
    assert main(["validate", str(path)]) == 0


def test_simulate_writes_log_and_metrics(tmp_path):
    log = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main([
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH, "--window", "5",
        "--out-log", str(log), "--out-metrics", str(metrics),
    ]) == 0
    header, preds, truths, events = io.load_runlog(log)
    assert len(events) == 11
    assert all(e["queried"] for e in events)
    m = io.load_metrics(metrics)
    assert m["n_windows"] == 11
    assert m["n_queries"] == 11


def test_simulate_never_strategy_logs_zero_queries(tmp_path):
    log = tmp_path / "run.jsonl"
    assert main([
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH, "--window", "5",
        "--strategy", "never", "--out-log", str(log),
    ]) == 0
    _, _, _, events = io.load_runlog(log)
    assert events and not any(e["queried"] for e in events)


def test_simulate_same_command_twice_identical_logs(tmp_path):
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main([
            "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH, "--window", "5",
            "--out-log", str(path),
        ]) == 0
        logs.append(path.read_text())
    assert logs[0] == logs[1]


def test_simulate_golden_metrics(tmp_path, bless):
    from conftest import golden_check

    metrics = tmp_path / "metrics.json"
    assert main([
        "--seed", "7",
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH, "--window", "5",
        "--out-metrics", str(metrics),
    ]) == 0
    golden_check(GOLDEN / "travel_metrics_seed7.json", metrics.read_text(), bless)


def test_simulate_with_the_golden_hierarchy_matches_compiling_on_the_fly(tmp_path):
    metrics = {}
    for name, extra in (("compiled", []),
                        ("stored", ["--hierarchy", str(GOLDEN / "travel_hierarchy.json")])):
        metrics[name] = tmp_path / f"{name}.json"
        assert main(["--seed", "7", "simulate", "--scenario", SCENARIO, "--etg", ETG,
                     "--eg", EG_PATH, "--window", "5", "--out-metrics", str(metrics[name]),
                     *extra]) == 0
    assert metrics["stored"].read_text() == metrics["compiled"].read_text()
    assert metrics["stored"].read_text() == (GOLDEN / "travel_metrics_seed7.json").read_text()


def test_simulate_refuses_a_hierarchy_with_a_dangling_back_reference(tmp_path, capsys):
    doc = json.loads((GOLDEN / "travel_hierarchy.json").read_text())
    node = next(n for n in doc["nodes"] if n["id"] == "entity:train_1")
    node["source_ref"] = "atlantis"
    hierarchy = tmp_path / "h.json"
    hierarchy.write_text(json.dumps(doc))
    assert main(["validate", str(hierarchy)]) == 0
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--hierarchy", str(hierarchy)]) == 2
    assert ("2 finding(s): [dangling-source-ref] entity:train_1: unknown entity 'atlantis'; "
            "[missing-node] entity:train_1: entity 'train_1' has no node"
            in capsys.readouterr().err)


def test_validate_checks_a_hierarchy_against_the_one_etg_and_eg_named(tmp_path, capsys):
    """With the ETG and EG among its paths, `validate` refuses the hierarchy
    that `simulate --hierarchy` refuses; alone, or beside the ETG only, the
    hierarchy is checked for its structure only."""
    doc = json.loads((GOLDEN / "travel_hierarchy.json").read_text())
    next(n for n in doc["nodes"] if n["id"] == "entity:train_1")["source_ref"] = "atlantis"
    hierarchy = tmp_path / "h.json"
    hierarchy.write_text(json.dumps(doc))
    assert main(["validate", ETG, EG_PATH, str(hierarchy)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"[dangling-source-ref] {hierarchy}: entity:train_1: unknown entity 'atlantis'"
            in err.splitlines())
    assert main(["validate", str(hierarchy)]) == 0
    assert main(["validate", ETG, str(hierarchy)]) == 0
    assert capsys.readouterr().out == "1 document(s) valid\n2 document(s) valid\n"


def test_validate_checks_a_stream_against_the_containment_of_the_one_eg_named(
        tmp_path, capsys):
    """With the ETG and EG among its paths, `validate` refuses the stream
    that `snapshot` refuses, on the same line; alone, or beside the ETG
    only, the stream is read without the EG's chains. An EG with two
    `partOf` parents for one child has no chains, so its finding is the
    only one."""
    stream = tmp_path / "s.jsonl"
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    stream.write_text("\n".join(lines[:2] + [json.dumps(
        fixture_record(1, super_location="nowhere_land"))]) + "\n")
    assert main(["validate", ETG, EG_PATH, str(stream)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"[invalid-document] {stream}:3: location 'roads_2': parent chain ['trentino'] "
        "does not contain declared super location 'nowhere_land'\n")
    assert main(["validate", str(stream)]) == 0
    assert main(["validate", ETG, str(stream)]) == 0
    assert capsys.readouterr().out == "1 document(s) valid\n2 document(s) valid\n"
    doc = json.loads(Path(EG_PATH).read_text())
    doc["entities"].append({"id": "veneto", "name": "Veneto", "etype": "region", "values": {}})
    doc["triples"].append({"property": "partOf", "subject": "train_1", "object": "veneto"})
    eg = tmp_path / "eg.json"
    eg.write_text(json.dumps(doc))
    assert main(["validate", ETG, str(eg), str(stream)]) == 2
    assert [f.split("]")[0] for f in capsys.readouterr().err.splitlines()] == [
        "[several-parents"]


def test_validate_reads_each_stream_once_after_the_graphs(tmp_path, capsys, monkeypatch):
    """Named before the ETG and the EG, a stream is still read once, under
    the EG's chains, and its finding still comes before those of the paths
    after it."""
    stream, broken = tmp_path / "s.jsonl", tmp_path / "broken.json"
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    stream.write_text("\n".join(lines[:2] + [json.dumps(
        fixture_record(1, super_location="nowhere_land"))]) + "\n")
    broken.write_text("{")
    reads = []
    stream_records = io._stream_records
    monkeypatch.setattr(io, "_stream_records",
                        lambda path, *rest: reads.append(path) or stream_records(path, *rest))
    assert main(["validate", STREAM, ETG, EG_PATH]) == 0
    assert reads == [STREAM]
    reads.clear()
    assert main(["validate", str(stream), ETG, EG_PATH, str(broken)]) == 2
    assert reads == [str(stream)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith(f"[invalid-document] {stream}:3: location 'roads_2': ")
    assert err[1].startswith(f"[invalid-document] {broken}")


def test_evaluate_and_validate_refuse_a_runlog_1_file(tmp_path, capsys):
    """`runlog/2` is the one run-log format: a `runlog/1` file, one bit per
    node, is an unknown version."""
    log = tmp_path / "run.jsonl"
    log.write_text("\n".join(json.dumps(doc) for doc in [
        {"format": "runlog/1", "seed": 7, "nodes": ["a", "b"], "manifest": []},
        {"begin": "2021-06-02T12:00:00+00:00", "end": "2021-06-02T12:01:00+00:00",
         "features": [], "queried": True, "prediction": [1, 0], "truth": [1, 1]}]) + "\n")
    assert main(["evaluate", "--log", str(log)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {log}: expected format 'runlog/2', found 'runlog/1'\n"
    assert main(["validate", str(log)]) == 2
    assert capsys.readouterr().err == (f"[invalid-document] {log}: expected format "
                                       "'runlog/2' or 'stream/1', found 'runlog/1'\n")


def test_simulate_refuses_a_hierarchy_compiled_from_another_eg(tmp_path, capsys):
    """Compiled without FriendOf(xiaoyue, haonan), the hierarchy has no node
    for that truth bit; every back-reference it has still resolves."""
    doc = json.loads(Path(EG_PATH).read_text())
    doc["triples"] = [t for t in doc["triples"] if t["property"] != "FriendOf"]
    stale_eg, hierarchy = tmp_path / "eg.json", tmp_path / "h.json"
    stale_eg.write_text(json.dumps(doc))
    assert main(["compile", ETG, str(stale_eg), "--out", str(hierarchy)]) == 0
    simulate = ["simulate", "--scenario", SCENARIO, "--etg", ETG, "--hierarchy", str(hierarchy)]
    assert main([*simulate, "--eg", str(stale_eg)]) == 0
    capsys.readouterr()
    assert main([*simulate, "--eg", EG_PATH]) == 2
    assert ("1 finding(s): [missing-node] pinst:FriendOf/xiaoyue/haonan: "
            "triple FriendOf(xiaoyue, haonan) has no node" in capsys.readouterr().err)


@pytest.mark.parametrize("q, names", [
    (["near", "use", "interact", "in", "do", "happenIn", "during", "participate", "FriendOf",
      "RestToolOf"], None),
    (None, {"RestToolOf": "has"}),
], ids=["option0", "option1"])
def test_simulate_accepts_a_hierarchy_compiled_with_custom_sets(q, names, tmp_path):
    """Compiled under an ETG document with a custom `q`, or one that names
    `RestToolOf` `has`, so that it collapses, the hierarchy passes
    `simulate`'s check against the travel ETG."""
    hierarchy = tmp_path / "h.json"
    etg = travel_etg_renaming(tmp_path, names) if q is None else travel_etg_with_q(tmp_path, q)
    assert main(["compile", etg, EG_PATH, "--out", str(hierarchy)]) == 0
    assert "prop:RestToolOf" not in io.load_hierarchy(hierarchy).nodes
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--hierarchy", str(hierarchy)]) == 0


def _cli_in_child(*args: str, python: tuple[str, ...] = (),
                  eg: str = EG_PATH) -> subprocess.CompletedProcess:
    """Run the CLI with `args`, a command on the travel ETG and `eg`, in a
    child process so that a hang fails the test instead of stalling it;
    `python` holds options for the interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, *python, "-m", "contextstream", *args, "--etg", ETG, "--eg", eg],
        capture_output=True, text=True, env=env, timeout=20,
    )


@pytest.mark.parametrize(
    "case", ["scenario-reading-interval-rounds-to-zero", "scenario-reading-interval-overflows"])
def test_simulate_rejects_a_reading_interval_out_of_range(tmp_path, case):
    """1e-7 s rounds to a zero tick, which would never advance."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(MALFORMED[case][1])
    done = _cli_in_child("simulate", "--scenario", str(scenario))
    assert done.returncode == 2, done.stderr
    assert "reading_interval_s" in done.stderr


def test_simulate_refuses_a_window_of_too_many_ticks(tmp_path):
    """At a 1 us tick the default 30-minute window holds 1.8e9 ticks, 40 GiB
    of readings for three channels; it is refused before any is drawn. Each
    segment lasts one second, so the script stays under MAX_SCRIPT_TICKS."""
    scenario = tmp_path / "scenario.json"
    doc = json.loads((FIXTURES / "travel_scenario.json").read_text())
    doc["segments"][0]["end"] = "2021-06-02T12:00:01+00:00"
    doc["segments"][1]["end"] = "2021-06-02T12:30:01+00:00"
    scenario.write_text(json.dumps({**doc, "reading_interval_s": 0.000001}))
    done = _cli_in_child("simulate", "--scenario", str(scenario))
    assert done.returncode == 2, done.stderr
    assert "holds 1800000000 ticks" in done.stderr and "MAX_WINDOW_TICKS" in done.stderr
    assert "Traceback" not in done.stderr


def test_simulate_refuses_window_means_that_overflow(tmp_path):
    """Readings of 1.7e308 are finite, but a window's sum is not: the run
    exits 2, names the channel, and writes no run log with Infinity in it."""
    doc = json.loads((FIXTURES / "travel_scenario.json").read_text())
    for segment in doc["segments"]:
        for emission in segment["emissions"].values():
            emission.update(mean=1.7e308, std=0.0)
    scenario, log = tmp_path / "scenario.json", tmp_path / "run.jsonl"
    scenario.write_text(json.dumps(doc))
    done = _cli_in_child("simulate", "--scenario", str(scenario), "--out-log", str(log))
    assert done.returncode == 2, done.stderr
    assert "window mean on channel 'accelerometer_magnitude' is not finite" in done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert not log.exists()


def test_simulate_refuses_overflowing_readings_without_a_warning(tmp_path):
    """At std 1e308 a reading overflows to infinity as it is drawn: the run
    exits 2 with the refusal alone, even with warnings turned into errors."""
    doc = json.loads((FIXTURES / "travel_scenario.json").read_text())
    for segment in doc["segments"]:
        for emission in segment["emissions"].values():
            emission["std"] = 1e308
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    done = _cli_in_child("simulate", "--scenario", str(scenario), python=("-W", "error"))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: non-finite reading on channel ")
    assert len(done.stderr.splitlines()) == 1, done.stderr


# case -> what the message names
REFUSED_BEFORE_DRAWING = {
    "scenario-channels-repeated": "channels listed more than once: ['accelerometer_magnitude']",
    "scenario-seed-negative": "seed must be >= 0, not -1",
    "scenario-ticks-past-the-cap": "more than MAX_SCRIPT_TICKS",
}


@pytest.mark.parametrize("case", REFUSED_BEFORE_DRAWING)
def test_simulate_refuses_a_scenario_or_config_that_validate_refuses(tmp_path, case):
    """A repeated channel would be drawn twice per tick, a negative seed
    reaches numpy's bare "expected non-negative integer", and a last
    segment that ends in year 9999 holds 4.2e9 ticks of 60 s: each is
    refused as the document loads."""
    path = tmp_path / "scenario.json"
    path.write_text(MALFORMED[case][1])
    done = _cli_in_child("simulate", "--scenario", str(path))
    assert done.returncode == 2, done.stderr
    assert REFUSED_BEFORE_DRAWING[case] in done.stderr and "Traceback" not in done.stderr


def test_simulate_seed_flag_replaces_the_scenario_seed(tmp_path, travel_scenario,
                                                        travel_hierarchy, travel_etg, travel_eg):
    log = tmp_path / "run.jsonl"
    assert main(["--seed", "3", "simulate", "--scenario", SCENARIO, "--etg", ETG,
                 "--eg", EG_PATH, "--window", "5", "--out-log", str(log)]) == 0
    expected = run_simulation(replace(travel_scenario, seed=3), travel_hierarchy, travel_etg,
                              travel_eg, window_spec=WindowSpec.means(travel_scenario.channels, 5))
    io.save_runlog(tmp_path / "expected.jsonl", expected.node_order, expected.manifest, 3,
                   expected.events)
    assert log.read_text().splitlines() == (tmp_path / "expected.jsonl").read_text().splitlines()


def test_simulate_refuses_a_negative_seed_flag(capsys):
    assert main(["--seed", "-4", "simulate", "--scenario", SCENARIO,
                 "--etg", ETG, "--eg", EG_PATH]) == 2
    assert "error: seed must be >= 0, not -4" in capsys.readouterr().err


def test_seed_is_a_usage_error_on_any_command_but_simulate(tmp_path, capsys):
    """Only `simulate` reads a seed, so no other command takes one."""
    out = tmp_path / "h.json"
    assert main(["--seed", "5", "compile", ETG, EG_PATH, "--out", str(out)]) == 1
    assert "error: --seed applies to simulate only, not compile" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_defaults_to_30_minute_windows_all_queried(tmp_path):
    log = tmp_path / "run.jsonl"
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--out-log", str(log)]) == 0
    _, _, _, events = io.load_runlog(log)
    assert len(events) == 2
    assert all(e["end"] - e["begin"] == timedelta(minutes=30) for e in events)
    assert all(e["queried"] for e in events)


@pytest.mark.parametrize("minutes", ["1e-9", "1e300", "1e10", "nan"])
def test_simulate_rejects_a_window_out_of_range(minutes):
    """1e-9 minutes rounds to a zero window, which would never let a tick
    close it; 1e300 minutes overflows timedelta; 1e10 minutes fits a
    timedelta but ends past the last date; NaN is no length at all."""
    done = _cli_in_child("simulate", "--scenario", SCENARIO, "--window", minutes)
    assert done.returncode == 2, done.stderr
    assert "window length" in done.stderr


@pytest.mark.parametrize("strategy", ["margin:nan", "margin:inf"])
def test_simulate_rejects_a_margin_tau_that_is_not_finite(strategy, capsys):
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--strategy", strategy]) == 2
    assert "margin tau" in capsys.readouterr().err


def test_simulate_refuses_an_empty_strategy(capsys):
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--strategy", ""]) == 2
    assert "error: unknown query strategy ''" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["always:3", "never:0.5"])
def test_simulate_refuses_a_tau_that_only_margin_reads(strategy, capsys):
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--strategy", strategy]) == 2
    assert "only a margin strategy takes a tau" in capsys.readouterr().err


def test_simulate_refuses_an_undeclared_function(tmp_path, capsys):
    doc = json.loads((FIXTURES / "travel_scenario.json").read_text())
    doc["segments"][0]["record"]["persons"] = [
        {"function": "EnemyOf", "holder": "haonan", "beneficiary": "xiaoyue", "actions": []},
    ]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["validate", str(scenario)]) == 0
    assert main(["simulate", "--scenario", str(scenario), "--etg", ETG, "--eg", EG_PATH]) == 2
    err = capsys.readouterr().err
    assert "segment 0 EnemyOf" in err and "not declared" in err


def _without_property(name):
    def change(docs):
        docs["etg"]["properties"] = [p for p in docs["etg"]["properties"] if p["id"] != name]
        docs["etg"]["q"].remove(name)
    return change


def _second_observer(docs):
    docs["eg"]["entities"].append({"id": "zhang", "name": "Zhang", "etype": "me", "values": {}})


def _unknown_super_location(docs):
    docs["scenario"]["segments"][1]["record"]["super_location"] = "atlantis"


@pytest.mark.parametrize("change, expected", [
    (_without_property("during"), "[unresolved] segment 0 event during super event: "
                                  "property 'during' not declared"),
    (_without_property("in"), "[unresolved] segment 1 me in location: property 'in' not declared"),
    (_second_observer, "1 finding(s): [unresolved] no unique observer entity in the static EG"),
    (_unknown_super_location, "[unresolved] segment 1: super location 'atlantis' not in the EG"),
], ids=["etg-without-during", "etg-without-in", "eg-with-two-observers",
        "unknown-super-location"])
def test_simulate_refuses_a_record_snapshot_would_report(tmp_path, capsys, change, expected):
    """Every segment's record must snapshot without a finding; the ETG and
    EG themselves still compile."""
    docs = {kind: json.loads((FIXTURES / f"travel_{kind}.json").read_text())
            for kind in ("etg", "eg", "scenario")}
    change(docs)
    for kind, doc in docs.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(doc))
    etg, eg, scenario = (str(tmp_path / f"{kind}.json") for kind in docs)
    assert main(["compile", etg, eg, "--out", str(tmp_path / "h.json")]) == 0
    assert main(["simulate", "--scenario", scenario, "--etg", etg, "--eg", eg]) == 2
    assert expected in capsys.readouterr().err


def test_compile_and_simulate_refuse_two_triples_that_spell_one_node_id(tmp_path, capsys):
    doc = json.loads((FIXTURES / "travel_eg.json").read_text())
    doc["entities"] += [{"id": eid, "name": eid, "etype": "person", "values": {}}
                        for eid in ("x/y", "z", "x", "y/z")]
    doc["triples"] += [{"property": "FriendOf", "subject": s, "object": o}
                       for s, o in (("x/y", "z"), ("x", "y/z"))]
    eg = tmp_path / "eg.json"
    eg.write_text(json.dumps(doc))
    assert main(["compile", ETG, str(eg), "--out", str(tmp_path / "h.json")]) == 2
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", str(eg)]) == 2
    assert capsys.readouterr().err.count("'pinst:FriendOf/x/y/z'") == 2
    assert not (tmp_path / "h.json").exists()


def test_a_static_eg_defect_is_reported_once_per_command(tmp_path, capsys):
    """Two segments and two records share one EG with two observers: one
    finding each, not one per segment or record."""
    doc = json.loads((FIXTURES / "travel_eg.json").read_text())
    _second_observer({"eg": doc})
    eg = tmp_path / "eg.json"
    eg.write_text(json.dumps(doc))
    expected = "1 finding(s): [unresolved] no unique observer entity in the static EG\n"
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", str(eg)]) == 2
    assert capsys.readouterr().err.endswith(expected)
    assert main(["snapshot", "--etg", ETG, "--eg", str(eg), "--stream", STREAM,
                 "--out-dir", str(tmp_path / "snaps")]) == 2
    assert capsys.readouterr().err.endswith(expected)


def test_evaluate_from_log_matches_simulate(tmp_path):
    log = tmp_path / "run.jsonl"
    metrics_a = tmp_path / "a.json"
    metrics_b = tmp_path / "b.json"
    assert main([
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH, "--window", "5",
        "--out-log", str(log), "--out-metrics", str(metrics_a),
    ]) == 0
    assert main(["evaluate", "--log", str(log), "--out", str(metrics_b)]) == 0
    assert io.load_metrics(metrics_a) == io.load_metrics(metrics_b)


def test_snapshot_command_writes_snapshots(tmp_path, capsys):
    out_dir = tmp_path / "snaps"
    assert main([
        "snapshot", "--etg", ETG, "--eg", EG_PATH, "--stream", STREAM,
        "--out-dir", str(out_dir), "--pattern",
    ]) == 0
    outputs = sorted(p.name for p in out_dir.iterdir())
    assert outputs == ["snapshot_000.json", "snapshot_001.json"]
    assert "window pattern: 1EML" in capsys.readouterr().out
    etg = io.load_etg(ETG)
    snap = io.load_eg(out_dir / "snapshot_000.json", etg)
    assert snap.at is not None
    assert any(t.property == "in" for t in snap.triples)


def test_snapshot_reports_each_of_three_equal_records(tmp_path, capsys):
    """Equal records share one snapshot's work, but each counts its own
    finding and each snapshot is at its own record's time."""
    times = ["2021-06-02T12:15:00+00:00", "2021-06-02T12:15:01+00:00", "2021-06-02T12:15:02+00:00"]
    records = [fixture_record(0, ts=ts, location="atlantis") for ts in times]
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(json.dumps(d) for d in [{"format": "stream/1"}, *records]) + "\n")
    out_dir = tmp_path / "snaps"
    assert main(["snapshot", "--etg", ETG, "--eg", EG_PATH, "--stream", str(stream),
                 "--out-dir", str(out_dir)]) == 2
    assert ("3 finding(s): " + "; ".join(["[unresolved] location 'atlantis' not in the EG"] * 3)
            in capsys.readouterr().err)
    etg = io.load_etg(ETG)
    snaps = [io.load_eg(out_dir / f"snapshot_{i:03d}.json", etg) for i in range(3)]
    assert [io.format_timestamp(s.at) for s in snaps] == times
    assert snaps[0].triples == snaps[1].triples == snaps[2].triples


@pytest.mark.parametrize("case", [case for case, doc in MALFORMED.items() if doc[0] == "stream"])
def test_snapshot_refuses_a_malformed_stream(tmp_path, capsys, case):
    _, text, line = MALFORMED[case]
    bad = tmp_path / "stream.jsonl"
    bad.write_bytes(encode_case(text))
    assert main(["snapshot", "--etg", ETG, "--eg", EG_PATH, "--stream", str(bad),
                 "--out-dir", str(tmp_path / "snaps")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: ")


def test_snapshot_names_the_line_of_a_record_off_its_chain(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    stream.write_text("\n".join(lines[:2] + [json.dumps(
        fixture_record(1, super_location="nowhere_land"))]) + "\n")
    assert main(["snapshot", "--etg", ETG, "--eg", EG_PATH, "--stream", str(stream),
                 "--out-dir", str(tmp_path / "snaps")]) == 2
    assert capsys.readouterr().err == (
        f"error: {stream}:3: location 'roads_2': parent chain ['trentino'] "
        "does not contain declared super location 'nowhere_land'\n")
    assert not (tmp_path / "snaps").exists()


def test_snapshot_refuses_an_unknown_super_location(tmp_path, capsys):
    """The record has no location, so no containment chain can refuse it."""
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record.update(location=None, super_location="atlantis")
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(lines[:2] + [json.dumps(record)]) + "\n")
    assert main(["snapshot", "--etg", ETG, "--eg", EG_PATH, "--stream", str(stream),
                 "--out-dir", str(tmp_path / "snaps")]) == 2
    assert "1 finding(s): [unresolved] super location 'atlantis' not in the EG" in \
        capsys.readouterr().err


def test_simulate_and_evaluate_agree_on_a_session_without_windows(tmp_path, capsys):
    doc = json.loads((FIXTURES / "travel_scenario.json").read_text())
    doc["segments"] = []
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    log, simulated, evaluated = (tmp_path / name for name in ("run.jsonl", "a.json", "b.json"))
    assert main(["simulate", "--scenario", str(scenario), "--etg", ETG, "--eg", EG_PATH,
                 "--out-log", str(log), "--out-metrics", str(simulated)]) == 0
    assert "0 windows, 0 queries, hierarchical F1 1.000" in capsys.readouterr().out
    assert main(["evaluate", "--log", str(log), "--out", str(evaluated)]) == 0
    a, b = io.load_metrics(simulated), io.load_metrics(evaluated)
    assert a == b
    assert b["n_windows"] == 0 and b["hierarchical_f1"] == 1.0


def test_export_dot_standalone(tmp_path):
    h_path = tmp_path / "h.json"
    assert main(["compile", ETG, EG_PATH, "--out", str(h_path)]) == 0
    dot_path = tmp_path / "h.dot"
    assert main(["export-dot", str(h_path), "--etg", ETG, "--eg", EG_PATH,
                 "--out", str(dot_path)]) == 0
    assert dot_path.read_text().startswith("digraph hierarchy {")


def test_usage_error_exits_1(capsys):
    assert main(["compile"]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("flags", [["--config", "x"], ["--verbose"], ["--q", "near"]])
def test_the_config_and_verbose_flags_are_gone(tmp_path, capsys, flags):
    """Each is a usage error before `simulate` and after `compile`'s own
    arguments, where `--q` was taken."""
    log, out = tmp_path / "run.jsonl", tmp_path / "h.json"
    assert main([*flags, "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--out-log", str(log)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not log.exists()
    assert main(["compile", ETG, EG_PATH, "--out", str(out), *flags]) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_validate_refuses_a_config_document(tmp_path, capsys):
    """`config/1` is no format any more: a session's settings are flags."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"format": "config/1", "window_minutes": 5.0, "seed": 7}))
    assert main(["validate", str(path)]) == 2
    findings = capsys.readouterr().err.splitlines()
    assert len(findings) == 1
    assert findings == [f"[invalid-document] {path}: unrecognized format tag 'config/1'"]
