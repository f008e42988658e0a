from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contextstream import io
from contextstream.cli import main

from conftest import FIXTURES, GOLDEN, MALFORMED, encode_case

ETG = str(FIXTURES / "travel_etg.json")
EG_PATH = str(FIXTURES / "travel_eg.json")
STREAM = str(FIXTURES / "travel_stream.jsonl")
SCENARIO = str(FIXTURES / "travel_scenario.json")
CONFIG = str(FIXTURES / "config.json")


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


def test_compile_missing_file_exits_1(tmp_path):
    assert main(["compile", ETG, str(tmp_path / "nope.json"), "--out", str(tmp_path / "h.json")]) == 1


def test_compile_collapse_override_reifies_part_of(tmp_path):
    out = tmp_path / "h.json"
    assert main([
        "compile", ETG, EG_PATH, "--out", str(out), "--collapse", "isA,has",
    ]) == 0
    h = io.load_hierarchy(out)
    assert "prop:partOf" in h.nodes
    assert "pinst:partOf/roads_2/trentino" in h.nodes
    assert ("entity:roads_2", "entity:trentino") not in h.edges


def test_compile_q_override_drops_function_nodes(tmp_path):
    out = tmp_path / "h.json"
    q = "near,use,interact,in,do,happenIn,during,participate,FriendOf,RestToolOf"
    assert main(["compile", ETG, EG_PATH, "--out", str(out), "--q", q]) == 0
    h = io.load_hierarchy(out)
    assert "prop:FriendOf" not in h.nodes
    assert "pinst:RestToolOf/xiaoyue/seat_1" not in h.nodes


def test_validate_clean_fixtures_exit_0(capsys):
    assert main(["validate", ETG, EG_PATH, STREAM, SCENARIO, CONFIG,
                 str(GOLDEN / "travel_hierarchy.json")]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_defect_exits_2(tmp_path, travel_hierarchy, capsys):
    doc = io.hierarchy_to_dict(travel_hierarchy)
    doc["edges"].append(["entity:haonan", "etype:person"])  # implied by a path
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "redundant-edge" in capsys.readouterr().err


def test_validate_missing_file_exits_1():
    assert main(["validate", "/definitely/not/here.json"]) == 1


def test_validate_corrupt_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{не json")
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize("case", MALFORMED)
def test_validate_reports_a_malformed_document_and_goes_on(tmp_path, capsys, case):
    kind, text, _ = MALFORMED[case]
    bad = tmp_path / ("bad.jsonl" if kind in ("stream", "runlog") else "bad.json")
    bad.write_bytes(encode_case(text))
    assert main(["validate", str(bad), ETG]) == 2
    findings = capsys.readouterr().err.splitlines()
    assert len(findings) == 1
    assert findings[0].startswith(f"[invalid-document] {bad}: ")


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


def test_validate_reads_the_jsonl_header_tag(tmp_path):
    """A stream whose header merely mentions the run-log tag is a stream."""
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join([json.dumps({"format": "stream/1", "source": "runlog/1"})]
                              + lines[1:]) + "\n")
    assert main(["validate", str(path)]) == 0


def test_simulate_writes_log_and_metrics(tmp_path):
    log = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main([
        "--config", CONFIG,
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
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
        "--config", CONFIG,
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
        "--strategy", "never", "--out-log", str(log),
    ]) == 0
    _, _, _, events = io.load_runlog(log)
    assert events and not any(e["queried"] for e in events)


def test_simulate_same_command_twice_identical_logs(tmp_path):
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main([
            "--config", CONFIG,
            "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
            "--out-log", str(path),
        ]) == 0
        logs.append(path.read_text())
    assert logs[0] == logs[1]


def test_simulate_golden_metrics(tmp_path, bless):
    from conftest import golden_check

    metrics = tmp_path / "metrics.json"
    assert main([
        "--config", CONFIG, "--seed", "7",
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
        "--out-metrics", str(metrics),
    ]) == 0
    golden_check(GOLDEN / "travel_metrics_seed7.json", metrics.read_text(), bless)


def test_simulate_with_the_golden_hierarchy_matches_compiling_on_the_fly(tmp_path):
    metrics = {}
    for name, extra in (("compiled", []),
                        ("stored", ["--hierarchy", str(GOLDEN / "travel_hierarchy.json")])):
        metrics[name] = tmp_path / f"{name}.json"
        assert main(["--config", CONFIG, "--seed", "7", "simulate", "--scenario", SCENARIO,
                     "--etg", ETG, "--eg", EG_PATH, "--out-metrics", str(metrics[name]),
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


@pytest.mark.parametrize("option", [
    ["--q", "near,use,interact,in,do,happenIn,during,participate,FriendOf,RestToolOf"],
    ["--collapse", "isA,has"],
])
def test_simulate_accepts_a_hierarchy_compiled_with_custom_sets(option, tmp_path):
    hierarchy = tmp_path / "h.json"
    assert main(["compile", ETG, EG_PATH, "--out", str(hierarchy), *option]) == 0
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--hierarchy", str(hierarchy)]) == 0


def _simulate_in_child(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI with `args`, which end in a `simulate` on the travel ETG
    and EG, in a child process so that a hang fails the test instead of
    stalling it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "contextstream", *args, "--etg", ETG, "--eg", EG_PATH],
        capture_output=True, text=True, env=env, timeout=20,
    )


@pytest.mark.parametrize(
    "case", ["scenario-reading-interval-rounds-to-zero", "scenario-reading-interval-overflows"])
def test_simulate_rejects_a_reading_interval_out_of_range(tmp_path, case):
    """1e-7 s rounds to a zero tick, which would never advance."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(MALFORMED[case][1])
    done = _simulate_in_child("simulate", "--scenario", str(scenario))
    assert done.returncode == 2, done.stderr
    assert "reading_interval_s" in done.stderr


@pytest.mark.parametrize("minutes", ["1e-9", "1e300", "1e10", "nan"])
def test_simulate_rejects_a_window_out_of_range(minutes):
    """1e-9 minutes rounds to a zero window, which would never let a tick
    close it; 1e300 minutes overflows timedelta; 1e10 minutes fits a
    timedelta but ends past the last date; NaN is no length at all."""
    done = _simulate_in_child("simulate", "--scenario", SCENARIO, "--window", minutes)
    assert done.returncode == 2, done.stderr
    assert "window length" in done.stderr


@pytest.mark.parametrize(
    "case", ["config-window-minutes-rounds-to-zero", "config-window-minutes-overflows"])
def test_simulate_rejects_a_config_window_out_of_range(tmp_path, case):
    config = tmp_path / "config.json"
    config.write_text(MALFORMED[case][1])
    done = _simulate_in_child("--config", str(config), "simulate", "--scenario", SCENARIO)
    assert done.returncode == 2, done.stderr
    assert "window_minutes" in done.stderr


@pytest.mark.parametrize("strategy", ["margin:nan", "margin:inf"])
def test_simulate_rejects_a_margin_tau_that_is_not_finite(strategy, capsys):
    assert main(["simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
                 "--strategy", strategy]) == 2
    assert "margin tau" in capsys.readouterr().err


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
        "--config", CONFIG,
        "simulate", "--scenario", SCENARIO, "--etg", ETG, "--eg", EG_PATH,
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
