from __future__ import annotations

import json
import logging
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from contextstream import io
from contextstream.core import Containment, StreamingContext, format_timestamp
from contextstream.errors import FormatError, StreamChainError, StreamOrderError, SuperChainError
from contextstream.hierarchy import (
    ROOT_DISPLAY_NAME, ROOT_ID, ConceptNode, Hierarchy, NodeKind, compile_hierarchy,
    entity_node_id, etype_node_id, pinst_node_id, property_node_id, transitive_reduction,
)
from contextstream.kg import COLLAPSE_PROPERTIES, EG, ETG, PropertyValue, snapshot_eg
from contextstream.labels import repair_upward, zeros
from contextstream.learn import OnlinePerceptron
from contextstream.report import ValidationReport

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _fixture_doc(name: str, **changes) -> dict:
    doc = json.loads((FIXTURES / name).read_text())
    doc.update(changes)
    return doc


def travel_etg_with_q(tmp_path: Path, q: list[str]) -> str:
    """The path of the travel ETG's document with `q` as its Q, written
    under `tmp_path`."""
    path = tmp_path / "etg_with_q.json"
    path.write_text(json.dumps(_fixture_doc("travel_etg.json", q=q)))
    return str(path)


def _stream_ending_with(last_line: str) -> str:
    """The travel stream's header and first record, then `last_line` (line 3)."""
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    return "\n".join(lines[:2] + [last_line]) + "\n"


def fixture_record(i: int, **changes) -> dict:
    """Record `i` (from 0) of the travel stream fixture, as its JSON object."""
    lines = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()
    record = json.loads(lines[1 + i])
    record.update(changes)
    return record


def _first_record_again(ts: str) -> str:
    """The travel stream's first record line, byte for byte after its `ts`
    member, with `ts` in place of its timestamp."""
    line = (FIXTURES / "travel_stream.jsonl").read_text().splitlines()[1]
    return '{"ts": "' + ts + line[line.index('"', len('{"ts": "')):]


def _second_record(**changes) -> str:
    return json.dumps(fixture_record(1, **changes))


def _first_segment(**changes) -> str:
    doc = _fixture_doc("travel_scenario.json")
    doc["segments"][0].update(changes)
    return json.dumps(doc)


def _scenario_with(change) -> str:
    doc = _fixture_doc("travel_scenario.json")
    change(doc)
    return json.dumps(doc)


def _etg_with_duplicate_etype() -> str:
    doc = _fixture_doc("travel_etg.json")
    doc["etypes"].append(doc["etypes"][0])
    return json.dumps(doc)


def _etg_with(change) -> str:
    doc = _fixture_doc("travel_etg.json")
    change(doc)
    return json.dumps(doc)


def _etg_with_parents(**parents: str) -> str:
    """The travel ETG with the parent of each etype named in `parents`
    replaced."""
    doc = _fixture_doc("travel_etg.json")
    for et in doc["etypes"]:
        et["parent"] = parents.get(et["id"], et.get("parent"))
    return json.dumps(doc)


def _eg_with(change) -> str:
    doc = _fixture_doc("travel_eg.json")
    change(doc)
    return json.dumps(doc)


def _hierarchy(edges, **changes) -> str:
    """A two-node hierarchy whose one-letter ids a string edge would spell;
    `changes` apply to node "a"."""
    node = lambda nid: {"id": nid, "kind": "etype", "display_name": nid, "source_ref": nid}
    return json.dumps({"format": "hierarchy/1", "root": "r",
                       "nodes": [{**node("a"), **changes}, node("r")], "edges": edges})


def _runlog(nodes, change=lambda event: None, **header) -> str:
    """A run log whose header lists `nodes` (`header` adds or replaces
    keys), with one event of two bits; `change` edits the event."""
    header = {"format": "runlog/1", "seed": 7, "nodes": nodes, "manifest": [], **header}
    event = {"begin": "2021-06-02T12:00:00+00:00", "end": "2021-06-02T12:01:00+00:00",
             "features": [], "queried": True, "prediction": [1, 0], "truth": [1, 1]}
    change(event)
    return json.dumps(header) + "\n" + json.dumps(event) + "\n"


def _runlog2(change=lambda event: None) -> str:
    """A `runlog/2` log over the nodes a, b and c, with one event that
    predicts a and is true of a and c; `change` edits the event."""
    header = {"format": "runlog/2", "seed": 7, "nodes": ["a", "b", "c"], "manifest": []}
    event = {"begin": "2021-06-02T12:00:00+00:00", "end": "2021-06-02T12:01:00+00:00",
             "features": [], "queried": True, "prediction": [0], "truth": [0, 2]}
    change(event)
    return json.dumps(header) + "\n" + json.dumps(event) + "\n"


# A byte that is not UTF-8, in a case's text; `encode_case` writes it as 0xff
NOT_UTF8 = "\udcff"


def encode_case(text: str) -> bytes:
    return text.encode("utf-8", "surrogateescape")


# Documents whose shape is wrong; each must end in a FormatError, never in a
# bare ValueError or a traceback: id -> (kind, text, line of the bad record).
# Write them with `encode_case`.
MALFORMED = {
    "stream-record-not-object": ("stream", _stream_ending_with("[1]"), 3),
    "stream-ts-not-string": ("stream", _stream_ending_with(json.dumps({"ts": 5})), 3),
    "stream-ts-not-timestamp": ("stream", _stream_ending_with(_second_record(ts="nope")), 3),
    "stream-holder-is-beneficiary": ("stream", _stream_ending_with(_second_record(persons=[
        {"function": "FriendOf", "holder": "haonan", "beneficiary": "haonan", "actions": []},
    ])), 3),
    "stream-coordinate-overflows": ("stream", _stream_ending_with(
        _second_record(coo_me={"x": 0, "y": 0, "z": 0}).replace('"x": 0', '"x": 1e999')), 3),
    "stream-coordinate-boolean": ("stream", _stream_ending_with(
        _second_record(coo_me={"x": True, "y": 1, "z": 2, "frame": "local"})), 3),
    "stream-coordinate-frame-not-string": ("stream", _stream_ending_with(
        _second_record(coo_me={"x": 0, "y": 1, "z": 2, "frame": 5})), 3),
    "stream-coordinate-int-overflows": ("stream", _stream_ending_with(
        _second_record(coo_me={"x": 0, "y": 0, "z": 0}).replace('"x": 0', '"x": 1' + "0" * 400)),
        3),
    "document-not-object": ("json", "[1]", None),
    "eg-entity-not-object": ("eg", json.dumps(_fixture_doc("travel_eg.json", entities=[1])), None),
    "eg-at-not-string": ("eg", json.dumps(_fixture_doc("travel_eg.json", at=5)), None),
    "eg-at-zero": ("eg", json.dumps(_fixture_doc("travel_eg.json", at=0)), None),
    "eg-at-empty-string": ("eg", json.dumps(_fixture_doc("travel_eg.json", at="")), None),
    "etg-duplicate-etype": ("etg", _etg_with_duplicate_etype(), None),
    "etg-inheritance-cycle": ("etg", _etg_with_parents(me="location", location="me"), None),
    "scenario-record-not-object": ("scenario", _first_segment(record=[1]), None),
    "scenario-emissions-not-object": ("scenario", _first_segment(emissions=[1]), None),
    "scenario-segment-ends-before-it-begins": (
        "scenario", _first_segment(end="2021-06-02T11:00:00+00:00"), None),
    "etg-context-dependent-not-boolean": ("etg", _etg_with(
        lambda doc: doc["properties"][2].update(context_dependent="false")), None),
    "etg-enum-values-not-list": ("etg", _etg_with(
        lambda doc: doc["etypes"][0]["data_properties"][0].update(values="sad")), None),
    "etg-q-not-list": ("etg", json.dumps(_fixture_doc("travel_etg.json", q={"in": True})), None),
    "stream-my-actions-not-list": ("stream", _stream_ending_with(
        _second_record(my_actions="walk")), 3),
    "stream-person-actions-not-list": ("stream", _stream_ending_with(_second_record(persons=[
        {"function": "FriendOf", "holder": "haonan", "beneficiary": "xiaoyue", "actions": "walk"},
    ])), 3),
    "hierarchy-edge-not-list": ("hierarchy", _hierarchy(["ar"]), None),
    "hierarchy-edge-not-pair": ("hierarchy", _hierarchy([["a", "r", "a"]]), None),
    "hierarchy-self-loop": ("hierarchy", _hierarchy([["a", "a"]]), None),
    "hierarchy-two-node-cycle": ("hierarchy", _hierarchy([["a", "r"], ["r", "a"]]), None),
    "hierarchy-node-id-not-string": ("hierarchy", _hierarchy([], id=5), None),
    "hierarchy-lone-root-id-not-string": ("hierarchy", json.dumps({
        "format": "hierarchy/1", "root": 5, "edges": [], "nodes": [
            {"id": 5, "kind": "root", "display_name": "context", "source_ref": None}]}), None),
    "hierarchy-display-name-not-string": (
        "hierarchy", _hierarchy([["a", "r"]], display_name=["B"]), None),
    "hierarchy-source-ref-not-string": ("hierarchy", _hierarchy([["a", "r"]], source_ref=5), None),
    "hierarchy-source-ref-list-not-strings": (
        "hierarchy", _hierarchy([["a", "r"]], source_ref=["p", 1, "o"]), None),
    "runlog-node-not-string": ("runlog", _runlog([["a"], {"b": 1}]), 1),
    "runlog-nodes-repeat": ("runlog", _runlog(["a", "a"]), 1),
    "runlog-queried-not-boolean": ("runlog", _runlog(["a", "b"], lambda e: e.update(queried=1)), 2),
    "runlog-queried-missing": ("runlog", _runlog(["a", "b"], lambda e: e.pop("queried")), 2),
    "runlog-feature-infinite": ("runlog", _runlog(
        ["a", "b"], lambda e: e.update(features=[float("inf")]), manifest=["speed"]), 2),
    "runlog-feature-nan": ("runlog", _runlog(
        ["a", "b"], lambda e: e.update(features=[float("nan")]), manifest=["speed"]), 2),
    "runlog-begin-not-timestamp": ("runlog", _runlog(["a", "b"], lambda e: e.update(begin=5)), 2),
    "runlog-seed-string": ("runlog", _runlog(["a", "b"], seed="7"), 1),
    **{f"runlog2-index-{name}": ("runlog2", _runlog2(lambda e, row=row: e.update(truth=row)), 2)
       for name, row in [
           ("out-of-range", [0, 3]), ("negative", [-1, 0]), ("repeated", [0, 0]),
           ("unsorted", [2, 0]), ("true", [True]), ("float", [1.0]), ("string", ["1"]),
           ("null", [None]), ("list", [[0]]),
       ]},
    "runlog2-nodes-repeat": ("runlog2", _runlog2().replace('"c"]', '"a"]', 1), 1),
    "runlog2-feature-nan": ("runlog2", _runlog2(lambda e: e.update(features=[float("nan")])), 2),
    "runlog2-prediction-not-list": ("runlog2", _runlog2(lambda e: e.update(prediction=0)), 2),
    "scenario-channels-not-list": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", channels="ab", segments=[])), None),
    "scenario-seed-not-integer": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", seed=7.9)), None),
    "scenario-seed-boolean": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", seed=True)), None),
    "scenario-seed-negative": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", seed=-1)), None),
    "scenario-channels-repeated": ("scenario", json.dumps(_fixture_doc(
        "travel_scenario.json", channels=["accelerometer_magnitude", "bluetooth_count",
                                          "gps_speed", "accelerometer_magnitude"])), None),
    "scenario-ticks-past-the-cap": ("scenario", _scenario_with(
        lambda doc: doc["segments"][-1].update(end="9999-12-31T23:00:00+00:00")), None),
    "etg-not-utf-8": ("etg", (FIXTURES / "travel_etg.json").read_text().replace(
        '"Person"', f'"Pers{NOT_UTF8}on"', 1), 5),
    "stream-not-utf-8": ("stream", _stream_ending_with(
        _second_record().replace('"walk"', f'"walk{NOT_UTF8}"')), 3),
    "stream-location-not-string": ("stream", _stream_ending_with(
        _second_record(location=["roads_2"], super_location=None)), 3),
    "stream-super-location-not-string": ("stream", _stream_ending_with(
        _second_record(super_location=5)), 3),
    "stream-event-not-string": ("stream", _stream_ending_with(
        _second_record(event={"id": "walk"})), 3),
    "stream-super-event-boolean": ("stream", _stream_ending_with(
        _second_record(super_event=True)), 3),
    "stream-function-not-string": ("stream", _stream_ending_with(_second_record(persons=[
        {"function": 1, "holder": "haonan", "beneficiary": "xiaoyue", "actions": []},
    ])), 3),
    "stream-holder-not-string": ("stream", _stream_ending_with(_second_record(objects=[
        {"function": "RestToolOf", "holder": ["seat_1"], "beneficiary": "xiaoyue"},
    ])), 3),
    "stream-beneficiary-not-string": ("stream", _stream_ending_with(_second_record(persons=[
        {"function": "FriendOf", "holder": "haonan", "beneficiary": 7, "actions": []},
    ])), 3),
    "stream-holder-null": ("stream", _stream_ending_with(_second_record(persons=[
        {"function": "FriendOf", "holder": None, "beneficiary": "xiaoyue", "actions": []},
    ])), 3),
    "stream-beneficiary-null": ("stream", _stream_ending_with(_second_record(objects=[
        {"function": "RestToolOf", "holder": "seat_1", "beneficiary": None},
    ])), 3),
    "stream-repeat-ts-not-timestamp": ("stream", _stream_ending_with(_first_record_again("nope")),
                                       3),
    "stream-repeat-ts-not-after": ("stream", _stream_ending_with(
        _first_record_again(fixture_record(0)["ts"])), 3),
    "scenario-location-not-string": ("scenario", _scenario_with(
        lambda doc: doc["segments"][0]["record"].update(location=5)), None),
    "scenario-reading-interval-boolean": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", reading_interval_s=True)), None),
    "scenario-reading-interval-string": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", reading_interval_s="60")), None),
    "scenario-reading-interval-rounds-to-zero": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", reading_interval_s=1e-7)), None),
    "scenario-reading-interval-overflows": ("scenario", json.dumps(
        _fixture_doc("travel_scenario.json", reading_interval_s=1e300)), None),
    "scenario-emission-mean-string": ("scenario", _scenario_with(
        lambda doc: doc["segments"][0]["emissions"]["gps_speed"].update(mean="17")), None),
    "scenario-emission-std-nan": ("scenario", _scenario_with(
        lambda doc: doc["segments"][0]["emissions"]["gps_speed"].update(std=float("nan"))), None),
    "etg-etype-id-not-string": ("etg", _etg_with(
        lambda doc: doc["etypes"].append({"id": 300, "name": "Extra"})), None),
    "etg-etype-name-not-string": ("etg", _etg_with(
        lambda doc: doc["etypes"][0].update(name=5)), None),
    "etg-data-property-name-not-string": ("etg", _etg_with(
        lambda doc: doc["etypes"][0]["data_properties"][0].update(name=5)), None),
    "etg-property-id-not-string": ("etg", _etg_with(lambda doc: doc["properties"].append(
        {"id": 300, "name": "x", "domain": "person", "codomain": "person"})), None),
    "etg-property-name-not-string": ("etg", _etg_with(
        lambda doc: doc["properties"][0].update(name={"x": 1})), None),
    "eg-entity-id-not-string": ("eg", _eg_with(lambda doc: doc["entities"][1].update(id=300)), None),
    "eg-entity-name-not-string": ("eg", _eg_with(
        lambda doc: doc["entities"][1].update(name=5)), None),
    "eg-entity-etype-not-string": ("eg", _eg_with(
        lambda doc: doc["entities"][1].update(etype=5)), None),
    "eg-triple-property-not-string": ("eg", _eg_with(
        lambda doc: doc["triples"][0].update(property=5)), None),
    "eg-triple-subject-not-string": ("eg", _eg_with(
        lambda doc: doc["triples"][0].update(subject=5)), None),
    "eg-triple-object-not-string": ("eg", _eg_with(
        lambda doc: doc["triples"][0].update(object=5)), None),
    "eg-entity-values-not-object": ("eg", _eg_with(
        lambda doc: doc["entities"][1].update(values=[["mood", "sad"]])), None),
    "metrics-format-unknown-version": ("metrics", json.dumps({"format": "metrics/99"}), None),
}


def pytest_addoption(parser):
    parser.addoption(
        "--bless", action="store_true", default=False,
        help="regenerate golden files from current outputs",
    )


@pytest.fixture(scope="session")
def bless(request):
    return request.config.getoption("--bless")


def golden_check(path: Path, text: str, bless: bool) -> None:
    if bless:
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"golden file {path} missing; run pytest --bless"
    assert path.read_text(encoding="utf-8") == text


@pytest.fixture(scope="session")
def travel_etg():
    return io.load_etg(FIXTURES / "travel_etg.json")


@pytest.fixture(scope="session")
def travel_eg(travel_etg):
    return io.load_eg(FIXTURES / "travel_eg.json", travel_etg)


@pytest.fixture(scope="session")
def travel_containment():
    return Containment(
        location_parent={"train_1": "trentino", "roads_2": "trentino"},
        event_parent={"take_train": "travel_1", "walk": "travel_1"},
    )


@pytest.fixture(scope="session")
def travel_stream(travel_containment):
    return io.load_stream(FIXTURES / "travel_stream.jsonl", travel_containment)


@pytest.fixture(scope="session")
def travel_hierarchy(travel_etg, travel_eg):
    return compile_hierarchy(travel_etg, travel_eg)


@pytest.fixture(scope="session")
def travel_scenario():
    return io.load_scenario(FIXTURES / "travel_scenario.json")


# -- reference stream reader (per line, every line read; kept dumb on purpose) ----

def reference_load_stream(path, containment: Containment | None = None) -> StreamingContext:
    """The stream reader with no shortcut for a repeated record: every line
    is decoded, parsed and read by the stream record table, then checked to
    be after the record before it and against `containment` (off its chain
    is a StreamChainError on the line), and the records make one
    StreamingContext. The first line at fault ends it."""
    fmt = io.FORMATS["stream"]
    records: list = []
    header = False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(path, f"not UTF-8: {exc.reason}", line=lineno) from None
            if not text:
                continue
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FormatError(path, exc.msg, line=lineno, col=exc.colno) from None
            if not header:
                tag = doc.get("format") if isinstance(doc, dict) else None
                if tag != fmt.table.name:
                    raise FormatError(path, f"expected format {fmt.table.name!r}, found {tag!r}")
                header = True
                continue
            try:
                if type(doc) is not dict:
                    raise ValueError("expected object")
                record = fmt.lines.read(doc)
            except ValueError as exc:
                raise FormatError(path, f"malformed {fmt.table.name} document: {exc}",
                                  line=lineno) from None
            if records and record.ts <= records[-1].ts:
                raise StreamOrderError(path, lineno, records[-1].ts, record.ts)
            if containment is not None:
                try:
                    containment.check_record(record)
                except SuperChainError as exc:
                    raise StreamChainError(path, lineno, exc) from None
            records.append(record)
    if not header:
        raise FormatError(path, "no format header")
    return StreamingContext(tuple(records))


# -- reference sensor path (per tick, per reading; kept dumb on purpose) ----

def reference_ticks(script, seed=None):
    """Per tick: (ts, ((channel, value), ...), active record), one scalar
    `rng.normal` draw per reading, channels in `script.channels` order."""
    rng = np.random.default_rng(script.seed if seed is None else seed)
    step = timedelta(seconds=script.reading_interval_s)
    for seg in script.segments:
        ts = seg.begin
        while ts < seg.end:
            readings = tuple(
                (ch, float(rng.normal(spec.mean, spec.std)))
                for ch in script.channels
                if (spec := seg.emissions.get(ch)) is not None
            )
            yield ts, readings, seg.record
            ts = ts + step


def reference_windows(script, spec, seed=None):
    """(begin, end, features, record) per window. A window opens at a tick
    and takes the ticks before begin + length; the record active at its last
    tick, stamped with that tick, labels it. Features follow the manifest:
    per channel in sorted order, the mean of its readings, then the empty
    flag."""
    length = timedelta(minutes=spec.length_minutes)
    windows = []  # [begin, readings, record at the last tick]
    for ts, readings, record in reference_ticks(script, seed):
        if not windows or ts - windows[-1][0] >= length:
            windows.append([ts, [], None])
        windows[-1][1].extend(readings)
        windows[-1][2] = replace(record, ts=ts)
    out = []
    for begin, readings, record in windows:
        values = []
        for ch in sorted(spec.channels):
            samples = np.asarray([v for c, v in readings if c == ch], dtype=np.float64)
            values.append(float(samples.mean()) if samples.size else 0.0)
            values.append(1.0 if samples.size == 0 else 0.0)
        out.append((begin, begin + length, np.asarray(values), record))
    return out


def reference_session(script, h, etg, eg, spec, strategy, seed=None):
    """A session by the learning rule spelled out per window of
    `reference_windows`: scores `weights @ x + bias`; a node is predicted
    when its score and every ancestor's is above 0; "always" queries,
    "never" does not, and "margin" queries when any score is within tau of 0;
    a queried window moves each node whose score sides against its
    `reference_labels` bit by +-x (bias +-1). Returns (events, metrics); an
    event is (features, prediction, truth, queried), and the metrics are
    `reference_evaluate`'s plus the counts."""
    model = OnlinePerceptron.zeros(len(h), len(spec.manifest))
    ancestors = [dfs_closure_ids(set(h.edges), {nid}) for nid in h.node_order]
    events = []
    for _, _, x, record in reference_windows(script, spec, seed):
        y = reference_labels(h, snapshot_eg(eg, record, etg), etg)
        s = model.weights @ x + model.bias
        raw = {nid for nid, v in zip(h.node_order, s) if v > 0}
        prediction = np.array([int(up <= raw) for up in ancestors], dtype=np.uint8)
        queried = (strategy.kind == "always"
                   or strategy.kind == "margin" and any(abs(v) <= strategy.tau for v in s))
        if queried:
            for i in range(len(h)):
                if (s[i] > 0) != bool(y[i]):
                    sign = 1.0 if y[i] else -1.0
                    model.weights[i] += sign * x
                    model.bias[i] += sign
        events.append((x, prediction, y, queried))
    preds, truths = (np.array([e[k] for e in events], dtype=np.uint8).reshape(len(events), len(h))
                     for k in (1, 2))
    metrics = reference_evaluate(preds, truths, h.node_order)
    metrics["n_windows"] = len(events)
    metrics["n_queries"] = sum(e[3] for e in events)
    return events, metrics


# -- reference writer and labeller (per element, per string; kept dumb) -----

def reference_runlog_lines(node_order, manifest, seed, events) -> list[str]:
    """`runlog/1` lines built value by value with `json.dumps`."""
    header = {"format": "runlog/1", "seed": seed, "nodes": list(node_order),
              "manifest": list(manifest)}
    lines = [json.dumps(header, ensure_ascii=False)]
    for e in events:
        lines.append(json.dumps({
            "begin": format_timestamp(e.begin),
            "end": format_timestamp(e.end),
            "features": [float(v) for v in e.features],
            "queried": e.queried,
            "prediction": [int(b) for b in e.prediction],
            "truth": [int(b) for b in e.truth],
        }, ensure_ascii=False))
    return lines


def reference_runlog2_lines(node_order, manifest, seed, events) -> list[str]:
    """`runlog/2` lines built value by value with `json.dumps`: each row as
    the indexes of its set bits, ascending."""
    header = {"format": "runlog/2", "seed": seed, "nodes": list(node_order),
              "manifest": list(manifest)}
    lines = [json.dumps(header, ensure_ascii=False)]
    for e in events:
        lines.append(json.dumps({
            "begin": format_timestamp(e.begin),
            "end": format_timestamp(e.end),
            "features": [float(v) for v in e.features],
            "queried": e.queried,
            "prediction": [i for i, b in enumerate(e.prediction) if b],
            "truth": [i for i, b in enumerate(e.truth) if b],
        }, ensure_ascii=False))
    return lines


def reference_labels(h, snapshot, etg):
    """Labels looked up by node-id string over every snapshot triple."""
    log = logging.getLogger("contextstream.labels")
    seeds = zeros(h)
    index = {nid: i for i, nid in enumerate(h.node_order)}
    me = snapshot.me_entity(etg)
    me_id = me.id if me is not None else None
    for t in snapshot.triples:
        prop = etg.properties.get(t.property)
        if prop is None or not prop.context_dependent:
            continue
        for entity_id in (t.subject, t.object):
            if entity_id == me_id:
                continue
            i = index.get(entity_node_id(entity_id))
            if i is None:
                log.warning("snapshot entity %r has no node in the hierarchy", entity_id)
                continue
            seeds[i] = 1
        inst = index.get(pinst_node_id(t.property, t.subject, t.object))
        if inst is not None:
            seeds[inst] = 1
    return repair_upward(h, seeds)


# -- independent graph oracles (kept dumb on purpose) ----------------------

def reference_compile(
    etg: ETG,
    eg: EG,
    collapse: Sequence[str] = COLLAPSE_PROPERTIES,
) -> Hierarchy:
    """The compiler as it stood before its node and edge rules, kept
    verbatim as an oracle: every branch checks the observer, self-loops
    and missing endpoints itself.

    The ETG's `q` names the context-dependent properties; `collapse`
    names the structural properties turned into direct edges. Cycles surface
    as CycleError with a witness path before reduction. Two concepts that
    spell one node id from different back-references (`likes(x/y, z)` and
    `likes(x, y/z)`) raise ValueError; a repeated triple is one node.
    """
    collapse_set = frozenset(collapse)

    nodes: dict[str, ConceptNode] = {}
    edges: set[tuple[str, str]] = set()

    def add_node(node: ConceptNode) -> None:
        known = nodes.setdefault(node.id, node)
        if known.source_ref != node.source_ref:
            raise ValueError(f"{known.source_ref} and {node.source_ref} both compile to the "
                             f"node id {node.id!r}")

    me_entities = {e.id for e in eg.entities if etg.is_observer(e.etype)}

    for et_id in sorted(etg.etypes):
        if et_id == etg.me_etype:
            continue
        et = etg.etypes[et_id]
        add_node(ConceptNode(etype_node_id(et_id), NodeKind.ETYPE, et.name, et_id))

    entity_nodes: dict[str, str] = {}
    for entity in sorted(eg.entities, key=lambda e: e.id):
        if entity.id in me_entities or entity.id in entity_nodes:
            continue
        nid = entity_node_id(entity.id)
        entity_nodes[entity.id] = nid
        add_node(ConceptNode(nid, NodeKind.ENTITY, entity.name, entity.id))
        if entity.etype in etg.etypes and entity.etype != etg.me_etype:
            edges.add((nid, etype_node_id(entity.etype)))

    # inheritance links are etype-level isA assertions
    for et_id in sorted(etg.etypes):
        et = etg.etypes[et_id]
        if et.parent is None:
            continue
        if et_id == etg.me_etype or et.parent == etg.me_etype:
            continue
        edges.add((etype_node_id(et_id), etype_node_id(et.parent)))

    triples_by_property: dict[str, list[PropertyValue]] = {}
    for t in eg.triples:
        triples_by_property.setdefault(t.property, []).append(t)

    for prop_id in sorted(etg.properties):
        if prop_id in etg.q:
            continue
        prop = etg.properties[prop_id]
        prop_nid = property_node_id(prop_id)
        if prop_id in collapse_set or prop.name in collapse_set:
            # schema assertion p(A, B) becomes a direct edge; self-loops and
            # Me endpoints are skipped so no dangling or cyclic edge appears
            if (
                prop.domain != prop.codomain
                and prop.domain != etg.me_etype
                and prop.codomain != etg.me_etype
            ):
                edges.add((etype_node_id(prop.domain), etype_node_id(prop.codomain)))
            for t in sorted(
                triples_by_property.get(prop_id, ()), key=lambda t: (t.subject, t.object)
            ):
                if t.subject in me_entities or t.object in me_entities:
                    continue
                if t.subject == t.object:
                    continue
                if t.subject in entity_nodes and t.object in entity_nodes:
                    edges.add((entity_nodes[t.subject], entity_nodes[t.object]))
            continue
        add_node(ConceptNode(prop_nid, NodeKind.PROPERTY, prop.name, prop_id))
        if prop.codomain != etg.me_etype:
            edges.add((prop_nid, etype_node_id(prop.codomain)))
        for t in sorted(
            triples_by_property.get(prop_id, ()), key=lambda t: (t.subject, t.object)
        ):
            inst_nid = pinst_node_id(prop_id, t.subject, t.object)
            add_node(
                ConceptNode(
                    inst_nid,
                    NodeKind.PROPERTY_INSTANCE,
                    _reference_pinst_display(etg, eg, t),
                    (prop_id, t.subject, t.object),
                )
            )
            edges.add((inst_nid, prop_nid))
            if t.object not in me_entities and t.object in entity_nodes:
                edges.add((entity_nodes[t.object], inst_nid))

    add_node(ConceptNode(ROOT_ID, NodeKind.ROOT, ROOT_DISPLAY_NAME, None))
    with_parent = {child for child, _ in edges}
    for nid in sorted(nodes):
        if nid != ROOT_ID and nid not in with_parent:
            edges.add((nid, ROOT_ID))

    return transitive_reduction(Hierarchy(nodes.values(), edges, ROOT_ID))


def _reference_pinst_display(etg: ETG, eg: EG, t: PropertyValue) -> str:
    prop_name = etg.properties[t.property].name if t.property in etg.properties else t.property

    def name_of(entity_id: str) -> str:
        return eg.entity(entity_id).name if eg.has_entity(entity_id) else entity_id

    return f"{prop_name}({name_of(t.subject)}, {name_of(t.object)})"



def dfs_reachable_pairs(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """All (i, j) with a directed path i -> j, by per-node DFS."""
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
    out: set[tuple[int, int]] = set()
    for start in range(n):
        stack = list(adj[start])
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            out.add((start, node))
            stack.extend(adj[node])
    return out


def dfs_closure_ids(edges: set[tuple[str, str]], seeds: set[str]) -> set[str]:
    """Seeds plus everything reachable from them over child->parent edges."""
    adj: dict[str, list[str]] = {}
    for child, parent in edges:
        adj.setdefault(child, []).append(parent)
    out = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for parent in adj.get(node, ()):
            if parent not in out:
                out.add(parent)
                stack.append(parent)
    return out


def parent_chain(etypes, etype_id: str) -> list[str]:
    """`etype_id`, then each ancestor, found by following the `parent` links
    of the EntityType map `etypes` one at a time."""
    chain = [etype_id]
    while etypes[chain[-1]].parent is not None:
        chain.append(etypes[chain[-1]].parent)
    return chain


def random_dag(rng, n: int, p: float = 0.15) -> set[tuple[int, int]]:
    """Random DAG on 0..n-1 with edges only from lower to higher index."""
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return edges


def reference_evaluate(predictions, ground_truth, node_ids) -> dict:
    """`evaluate`'s dict, counted cell by cell over nested lists: a ratio
    with a zero denominator is 1.0, F1 is 0.0 when precision and recall are
    both 0, and exact match and Hamming accuracy are 1.0 with no rows or no
    cells."""
    preds = [[bool(v) for v in row] for row in np.asarray(predictions).tolist()]
    truths = [[bool(v) for v in row] for row in np.asarray(ground_truth).tolist()]
    rows, cols = np.asarray(predictions).shape
    per_node = {}
    for j, name in enumerate(node_ids):
        counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for i in range(rows):
            p, t = preds[i][j], truths[i][j]
            counts[("t" if p == t else "f") + ("p" if p else "n")] += 1
        per_node[name] = counts
    inter = sum(c["tp"] for c in per_node.values())
    predicted = sum(c["tp"] + c["fp"] for c in per_node.values())
    true = sum(c["tp"] + c["fn"] for c in per_node.values())
    hp = inter / predicted if predicted else 1.0
    hr = inter / true if true else 1.0
    exact = sum(p == t for p, t in zip(preds, truths))
    same = sum(p == t for pr, tr in zip(preds, truths) for p, t in zip(pr, tr))
    return {
        "hierarchical_precision": hp,
        "hierarchical_recall": hr,
        "hierarchical_f1": 2 * hp * hr / (hp + hr) if hp + hr > 0 else 0.0,
        "exact_match": exact / rows if rows else 1.0,
        "hamming_accuracy": same / (rows * cols) if rows * cols else 1.0,
        "n_examples": rows,
        "per_node": per_node,
    }


# -- readings of results that no stage makes ----------------------------------

def stacked(result) -> tuple[np.ndarray, np.ndarray]:
    """The predictions and the truths of a session's events, each as a
    (windows, nodes) uint8 matrix, (0, n) when there are no windows."""
    n = len(result.node_order)
    return tuple(np.array([getattr(e, key) for e in result.events], dtype=np.uint8)
                 .reshape(len(result.events), n) for key in ("prediction", "truth"))


def codes(report: ValidationReport) -> list[str]:
    """The code of each finding of `report`, in order."""
    return [f.code for f in report.findings]


def per_node_accuracy(predictions, ground_truth, last: int | None = None) -> np.ndarray:
    """Fraction of examples each node was predicted correctly on, optionally
    restricted to the trailing `last` examples."""
    preds = np.asarray(predictions, dtype=bool)
    truths = np.asarray(ground_truth, dtype=bool)
    if last is not None:
        preds = preds[-last:]
        truths = truths[-last:]
    if len(preds) == 0:
        return np.ones(preds.shape[1])
    return (preds == truths).mean(axis=0)
