from __future__ import annotations

import json
import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from contextstream import io
from contextstream.core import (Containment, Coordinates, StreamingContext, StreamRecord,
                                format_timestamp)
from contextstream.errors import (FormatError, StreamChainError, StreamOrderError,
                                  SuperChainError, TimestampOrderError)
from contextstream.kg import EG, ETG, DataPropertyDef, EntityType

from contextstream.simulate import WindowEvent

from conftest import (
    FIXTURES,
    GOLDEN,
    MALFORMED,
    _runlog,
    encode_case,
    fixture_record,
    reference_load_stream,
    reference_runlog2_lines,
    stacked,
)


def test_eg_round_trip(tmp_path, travel_etg, travel_eg):
    path = tmp_path / "eg.json"
    io.save_eg(path, travel_eg)
    assert io.load_eg(path, travel_etg) == travel_eg


def test_typed_values_round_trip(tmp_path, travel_etg):
    """Typed values load under their ETG, save as JSON values, and load back
    equal: a timestamp as its ISO text, coordinates as an object."""
    loaded = io.load_eg(FIXTURES / "travel_eg.json", travel_etg)
    assert loaded.entity("train_1").values["indoor"] is True
    assert loaded.entity("xiaoyue").values["mood"] == "happy"
    etg = ETG([EntityType("me", "Me", data_properties=(
        DataPropertyDef("home", "coordinates"), DataPropertyDef("born", "timestamp")))],
        [], me_etype="me")
    values = {"home": {"x": 1, "y": 2.5, "z": -3}, "born": "2021-06-02T12:00:00+00:00"}
    first, saved = tmp_path / "eg.json", tmp_path / "saved.json"
    first.write_text(json.dumps({"format": "eg/1", "triples": [], "entities": [
        {"id": "m", "name": "M", "etype": "me", "values": values}]}))
    eg = io.load_eg(first, etg)
    assert eg.entity("m").values == {"home": Coordinates(1.0, 2.5, -3.0, "local"),
                                     "born": datetime(2021, 6, 2, 12, tzinfo=timezone.utc)}
    io.save_eg(saved, eg)
    assert json.loads(saved.read_text())["entities"][0]["values"] == {
        "home": {"x": 1.0, "y": 2.5, "z": -3.0, "frame": "local"},
        "born": "2021-06-02T12:00:00+00:00"}
    assert io.load_eg(saved, etg) == eg


def test_eg_coordinates_values_are_typed(tmp_path):
    """A coordinates value takes finite numbers for its axes (ints become
    floats) and a string frame; anything else is a FormatError."""
    etg = ETG([EntityType("me", "Me", data_properties=(DataPropertyDef("home", "coordinates"),))],
              [], me_etype="me")
    path = tmp_path / "eg.json"

    def load(value):
        path.write_text(json.dumps({"format": "eg/1", "triples": [], "entities": [
            {"id": "m", "name": "M", "etype": "me", "values": {"home": value}}]}))
        return io.load_eg(path, etg)

    home = load({"x": 1, "y": 2.5, "z": -3}).entity("m").values["home"]
    assert home == Coordinates(1.0, 2.5, -3.0, "local")
    assert type(home.x) is float
    for bad in ({"x": True, "y": 1, "z": 2}, {"x": 0, "y": 1, "z": 2, "frame": 5},
                {"x": "0", "y": 1, "z": 2}, {"x": 0, "y": 1}):
        with pytest.raises(FormatError):
            load(bad)


def test_stream_rejects_disorder(tmp_path):
    """A record that repeats the one before it, `ts` included, is out of
    order on its own line."""
    path = tmp_path / "bad.jsonl"
    path.write_bytes(encode_case(MALFORMED["stream-repeat-ts-not-after"][1]))
    with pytest.raises(TimestampOrderError) as exc:
        io.load_stream(path)
    assert exc.value.line == 3
    assert str(exc.value) == (f"{path}:3: timestamp 2021-06-02T12:15:00+00:00 "
                              "is not after 2021-06-02T12:15:00+00:00")


def test_stream_rejects_bad_super_chain(tmp_path, travel_containment):
    path = tmp_path / "bad.jsonl"
    rows = [json.dumps({"format": "stream/1"}), json.dumps(fixture_record(0)),
            json.dumps(fixture_record(1, super_location="mars"))]
    path.write_text("\n".join(rows) + "\n")
    assert len(io.load_stream(path)) == 2  # without containment nothing to check
    with pytest.raises(SuperChainError):
        io.load_stream(path, travel_containment)


def test_a_record_off_its_chain_is_a_format_error_on_its_line(tmp_path, travel_containment):
    path = tmp_path / "bad.jsonl"
    rows = [json.dumps({"format": "stream/1"}), json.dumps(fixture_record(0)),
            json.dumps(fixture_record(1, super_location="nowhere_land"))]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(StreamChainError) as exc:
        io.load_stream(path, travel_containment)
    assert isinstance(exc.value, FormatError) and isinstance(exc.value, SuperChainError)
    assert exc.value.line == 3
    assert str(exc.value) == (f"{path}:3: location 'roads_2': parent chain ['trentino'] "
                              "does not contain declared super location 'nowhere_land'")


def test_stream_is_built_once(tmp_path, travel_stream, travel_containment, monkeypatch):
    """Loading checks the timestamp order once, not once per appended record."""
    start = travel_stream.records[0].ts
    rows = [json.dumps({"format": "stream/1"})]
    for i in range(50):
        record = fixture_record(i % 2, ts=(start + timedelta(seconds=i)).isoformat())
        rows.append(json.dumps(record))
    path = tmp_path / "long.jsonl"
    path.write_text("\n".join(rows) + "\n")
    built = []
    post_init = StreamingContext.__post_init__

    def counting(self):
        built.append(len(self.records))
        post_init(self)

    monkeypatch.setattr(StreamingContext, "__post_init__", counting)
    stream = io.load_stream(path, travel_containment)
    assert len(stream) == 50
    assert built == [50]


RUNS_START = datetime(2021, 6, 2, 12, tzinfo=timezone.utc)


def _write_runs(path, n: int, run: int = 300) -> None:
    """A stream of `n` records, one a second from RUNS_START, in runs of
    `run` that differ only in `ts`: the two travel records in turn."""
    records = [fixture_record(0), fixture_record(1)]
    rows = [json.dumps({"format": "stream/1"})]
    for i in range(n):
        ts = (RUNS_START + timedelta(seconds=i)).isoformat()
        rows.append(json.dumps({**records[i // run % 2], "ts": ts}))
    path.write_text("\n".join(rows) + "\n")


def test_a_run_of_repeated_records_is_read_and_checked_once(tmp_path, travel_containment,
                                                            monkeypatch):
    """600 records in two runs of 300 that differ only in `ts`: the chain
    check and `StreamRecord.__init__` run once per run, on its first line.
    A repeat is its predecessor's record at its own `ts`: it shares the
    run's field objects, is equal to, hashed as and printed as the per-line
    reader's record, and is frozen."""
    path = tmp_path / "runs.jsonl"
    _write_runs(path, 600)
    checked, built = [], []
    check, init = Containment.check_record, StreamRecord.__init__

    def counting_check(self, record):
        checked.append(record.ts)
        check(self, record)

    def counting_init(self, ts, *fields):
        built.append(ts)
        init(self, ts, *fields)

    monkeypatch.setattr(Containment, "check_record", counting_check)
    monkeypatch.setattr(StreamRecord, "__init__", counting_init)
    records = io.load_stream(path, travel_containment).records
    firsts = [RUNS_START, RUNS_START + timedelta(seconds=300)]
    assert checked == firsts
    assert built == firsts
    assert records[299].object_entries is records[0].object_entries
    monkeypatch.undo()
    reference = reference_load_stream(path, travel_containment).records
    assert len(records) == len(reference) == 600
    for got, want in zip(records, reference):
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
    copied = records[1]
    with pytest.raises(FrozenInstanceError):
        copied.location = "elsewhere"
    with pytest.raises(FrozenInstanceError):
        del copied.ts
    assert replace(copied, location="elsewhere") == replace(reference[1], location="elsewhere")
    assert copied.location == reference[1].location


def _decodes_and_peaks(tmp_path, monkeypatch, containment, run: int
                       ) -> tuple[list[int], list[int]]:
    """The JSON decode count and the tracemalloc peak of `load_stream` on
    `_write_runs`' streams of 2,400 and of 4,800 records in runs of `run`."""
    decodes = []
    raw_decode = json.JSONDecoder.raw_decode

    def counting(self, *args, **kwargs):
        decodes.append(None)
        return raw_decode(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    counts, peaks = [], []
    for n in (2400, 4800):
        path = tmp_path / f"runs-{n}.jsonl"
        _write_runs(path, n, run)
        decodes.clear()
        tracemalloc.start()
        try:
            stream = io.load_stream(path, containment)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(stream) == n
        counts.append(len(decodes))
    monkeypatch.undo()
    return counts, peaks


def test_a_run_of_repeats_is_decoded_once_and_reading_doubles_linearly(tmp_path,
                                                                        travel_containment,
                                                                        monkeypatch):
    """Runs of 300 repeats: a JSON decode for each line that repeats no
    other (the header and each run's first line), one for each run's first
    repeat, whose decoded `ts` proves that the run's text after `ts` holds
    no other `ts` member, and none for the rest.
    From 2,400 to 4,800 records the decode count and the tracemalloc peak of
    `load_stream` each grow by under 2.5x."""
    counts, peaks = _decodes_and_peaks(tmp_path, monkeypatch, travel_containment, 300)
    for n, count in zip((2400, 4800), counts):
        assert count <= 2 * (n // 300) + 1
    assert counts[1] < 2.5 * counts[0]
    assert peaks[1] < 2.5 * peaks[0]


def test_a_stream_with_no_repeats_is_decoded_line_by_line_and_doubles_linearly(
        tmp_path, travel_containment, monkeypatch):
    """The two travel records in turn, so that no line repeats the one
    before it: every line is decoded once, the header included, and from
    2,400 to 4,800 records the decode count and the tracemalloc peak of
    `load_stream` each grow by under 2.5x."""
    counts, peaks = _decodes_and_peaks(tmp_path, monkeypatch, travel_containment, 1)
    assert counts == [2401, 4801]
    assert counts[1] < 2.5 * counts[0]
    assert peaks[1] < 2.5 * peaks[0]


# A repeat must not be fooled by any of these spellings of a record
def _plain(ts, record):
    return json.dumps({"ts": ts, **record})


STALE_TS = "2021-06-03T00:00:00+00:00"


def _separated_by(sep):
    """The plain line with `sep`, raw text, between the date and the time of
    its `ts` (`datetime.fromisoformat` takes any one character there)."""
    return lambda ts, record: _plain(ts, record).replace(ts, ts.replace("T", sep), 1)


SPELLINGS = [
    _plain,
    lambda ts, record: json.dumps({"ts": ts, **dict(reversed(record.items()))}),
    lambda ts, record: json.dumps({**record, "ts": ts}),
    lambda ts, record: json.dumps({"ts": ts, **record}, separators=(",", ":")),
    # the first digit of `ts` as a \u escape
    lambda ts, record: _plain(ts, record).replace('{"ts": "2', '{"ts": "\\u0032', 1),
    # a second `ts` member, which the decoder keeps
    lambda ts, record: _plain(ts, record)[:-1] + f', "ts": "{ts}"}}',
    lambda ts, record: _plain(ts, record)[:-1] + f', "ts": "{STALE_TS}"}}',
    # a later member whose key is `ts` spelled with a \u escape
    lambda ts, record: _plain(ts, record)[:-1] + f', "\\u0074s": "{ts}"}}',
    lambda ts, record: _plain(ts, record)[:-1] + f', "\\u0074s": "{STALE_TS}"}}',
    # a raw tab (not JSON), a raw backslash (not JSON), a raw non-ASCII
    # letter or an escaped quote in `ts`
    _separated_by("\t"),
    _separated_by("\\"),
    _separated_by("\u00e9"),
    _separated_by('\\"'),
    lambda ts, record: _plain(ts, record) + " \t ",
    lambda ts, record: _plain(ts, record) + "\r",
]
# `true` is not `1`, `-0.0` not `0.0`; `1` and `1.0` read the same
AXES = [1, 1.0, True, 0.0, -0.0]


def oracle_stream(rng: random.Random, n: int = 24) -> str:
    """`n` records in runs of the two travel records, with sticky changes of
    spelling and of one coordinate's JSON value; about one line in seventy
    is at fault (a `ts` equal to the last, or that is not a timestamp, or a
    super location off the chain)."""
    start = datetime(2021, 6, 2, 12, tzinfo=timezone.utc)
    records = [fixture_record(i) for i in (0, 1)]
    lines = [json.dumps({"format": "stream/1"})]
    regime, axis, spelling, t = 0, 1, _plain, 0
    for _ in range(n):
        if rng.random() < 0.2:
            regime = 1 - regime
        if rng.random() < 0.05:
            axis = rng.choice(AXES)
        if rng.random() < 0.15:
            spelling = rng.choice(SPELLINGS)
        t += rng.random() >= 0.005
        ts = "nope" if rng.random() < 0.005 else (start + timedelta(seconds=t)).isoformat()
        record = {k: v for k, v in records[regime].items() if k != "ts"}
        record["coo_me"] = {"x": axis, "y": 2, "z": 3, "frame": "local"}
        if rng.random() < 0.005:
            record["super_location"] = "mars"
        lines.append(spelling(ts, record))
    return "\n".join(lines) + "\n"


def _outcome(load, path):
    """`repr` of what `load(path)` returns, which tells `-0.0` from `0.0`,
    or the type, message and line of what it raises."""
    try:
        return repr(load(path))
    except (FormatError, TimestampOrderError, SuperChainError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


FIRST = {k: v for k, v in fixture_record(0).items() if k != "ts"}
FIRST_TS = fixture_record(0)["ts"]
NEXT_TS = "2021-06-02T12:15:01+00:00"
ORACLE_CASES = {
    **{f"seed-{seed}": encode_case(oracle_stream(random.Random(seed))) for seed in range(150)},
    **{case: encode_case(text) for case, (kind, text, _) in MALFORMED.items() if kind == "stream"},
    "fixture": (FIXTURES / "travel_stream.jsonl").read_bytes(),
    # both out of order and off the chain: the order is checked first
    "out-of-order-and-off-the-chain": "\n".join(json.dumps(doc) for doc in [
        {"format": "stream/1"}, fixture_record(0), fixture_record(0, super_location="mars"),
    ]).encode(),
    # a repeat that is not JSON: cut short, with more after its value, or
    # after a byte-order mark
    **{case: "\n".join([json.dumps({"format": "stream/1"}), _plain(FIRST_TS, FIRST), mangle(
        _plain(NEXT_TS, FIRST))]).encode()
       for case, mangle in [("repeat-cut-short", lambda line: line[:-1]),
                            ("repeat-then-more", lambda line: line + " {}"),
                            ("repeat-after-a-bom", lambda line: "\ufeff" + line)]},
    # a first repeat whose text after `ts` holds a later `ts` member: a
    # stale one, spelled plain or with a \u escape, or one equal to the
    # repeat's own `ts`, which its predecessor read as its `ts` too
    **{case: "\n".join([json.dumps({"format": "stream/1"}), *(
        _plain(ts, FIRST)[:-1] + f', {key}: "{last}"}}' for ts in (FIRST_TS, NEXT_TS))]).encode()
       for case, key, last in [("repeat-holds-a-stale-ts", '"ts"', STALE_TS),
                               ("repeat-holds-an-escaped-stale-ts", '"\\u0074s"', STALE_TS),
                               ("repeat-holds-its-own-ts", '"ts"', NEXT_TS)]},
}


@pytest.mark.parametrize("entry", ["load_stream", "load_stream-containment", "load_document"])
def test_stream_reading_matches_the_per_line_reader(tmp_path, travel_containment, entry):
    """Seeded streams with runs of repeats, every malformed stream case and
    the fixture read to the reference's records, or to its error type,
    message and line, through either entry point."""
    load, reference = {
        "load_stream": (io.load_stream, reference_load_stream),
        "load_stream-containment": (lambda p: io.load_stream(p, travel_containment),
                                    lambda p: reference_load_stream(p, travel_containment)),
        "load_document": (io.load_document, lambda p: ("stream", reference_load_stream(p))),
    }[entry]
    path = tmp_path / "stream.jsonl"
    outcomes = set()
    for case, data in ORACLE_CASES.items():
        path.write_bytes(data)
        want = _outcome(reference, path)
        assert _outcome(load, path) == want, case
        outcomes.add(want[0] if isinstance(want, tuple) else "records")
    assert len(outcomes) == 4 if entry == "load_stream-containment" else 3


@pytest.mark.parametrize("case", ["repeat-holds-a-stale-ts", "repeat-holds-an-escaped-stale-ts",
                                  "repeat-holds-its-own-ts"])
def test_a_first_repeat_that_holds_a_later_ts_member_is_out_of_order(tmp_path, case):
    """The premise of reading a run's later repeats undecoded: a record line
    whose text after `ts` holds a `ts` member is refused by the order check
    when that text repeats on the next line, by the reference reader and by
    `load_stream` alike."""
    path = tmp_path / "stream.jsonl"
    path.write_bytes(ORACLE_CASES[case])
    for load in (reference_load_stream, io.load_stream):
        with pytest.raises(StreamOrderError) as exc:
            load(path)
        assert exc.value.line == 3


def test_stream_header_is_first_non_blank_line(tmp_path, travel_stream):
    path = tmp_path / "padded.jsonl"
    path.write_text("\n  \n" + (FIXTURES / "travel_stream.jsonl").read_text())
    assert io.load_stream(path) == travel_stream
    path.write_text("\n[]\n")
    with pytest.raises(FormatError):
        io.load_stream(path)


def _runlog_lines(nodes, rows):
    """A run log's lines: a header over `nodes`, then one event per row of
    node indexes, which it predicts and which is its truth."""
    header = {"format": "runlog/2", "seed": 1, "nodes": nodes, "manifest": []}
    events = [
        {"begin": "2021-06-02T12:00:00+00:00", "end": "2021-06-02T12:05:00+00:00",
         "features": [], "queried": True, "prediction": row, "truth": row}
        for row in rows
    ]
    return [json.dumps(header)] + [json.dumps(e) for e in events]


def test_runlog_header_is_first_non_blank_line(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text("\n" + "\n".join(_runlog_lines(["a", "b"], [[0], [0, 1]])) + "\n")
    header, preds, truths, events = io.load_runlog(path)
    assert header["nodes"] == ["a", "b"]
    assert preds.tolist() == [[1, 0], [1, 1]]
    assert len(events) == 2


def test_runlog_rows_are_as_wide_as_the_nodes(tmp_path):
    """Two events that name only the first two of 4 nodes load as two rows
    of 4, not folded into one; an index past the header's nodes is refused
    on its line."""
    path = tmp_path / "run.jsonl"
    path.write_text("\n".join(_runlog_lines(["a", "b", "c", "d"], [[0], [0, 1]])) + "\n")
    _, preds, truths, _ = io.load_runlog(path)
    assert preds.tolist() == truths.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0]]
    path.write_text("\n".join(_runlog_lines(["a", "b"], [[0], [0, 3]])) + "\n")
    with pytest.raises(FormatError, match="node index 3 is out of range for 2 nodes") as exc:
        io.load_runlog(path)
    assert exc.value.line == 3


def _runlog_text(mangle) -> str:
    return "\n".join(mangle(_runlog_lines(["a", "b"], [[0]]))) + "\n"


def _runlog_index(value) -> str:
    """A run log over two nodes whose event predicts [0, value]."""
    return _runlog_text(lambda lines: lines[:1] + [
        lines[1].replace('"prediction": [0]', f'"prediction": [0, {json.dumps(value)}]')])


LOADERS = {
    "stream": io.load_stream,
    "eg": io.load_eg,
    "etg": io.load_etg,
    "hierarchy": io.load_hierarchy,
    "scenario": io.load_scenario,
    "runlog": io.load_runlog,
    "metrics": io.load_metrics,
}

MALFORMED_FOR_LOADERS = {
    **{case: doc for case, doc in MALFORMED.items() if doc[0] in LOADERS},
    "runlog-header-without-nodes": ("runlog", _runlog_text(
        lambda lines: [json.dumps({"format": "runlog/2", "seed": 1})] + lines[1:]), 1),
    "runlog-event-without-truth": ("runlog", _runlog_text(
        lambda lines: lines[:1] + [json.dumps({"prediction": [0]})]), 2),
    "runlog-event-not-object": ("runlog", _runlog_text(lambda lines: lines[:1] + ["[1, 0]"]), 2),
    "runlog-header-not-object": ("runlog", _runlog_text(lambda lines: ["[]"] + lines[1:]), None),
    # the values a bit row of the retired `runlog/1` refused, each as a node
    # index of a prediction row: out of range, or not a distinct ascending integer
    **{f"runlog-bit-{name}": ("runlog", _runlog_index(bit), 2) for name, bit in [
        ("300", 300), ("negative", -1), ("2", 2), ("string", "x"), ("null", None),
        ("true", True), ("fraction", 0.5), ("list", [1]),
    ]},
}


@pytest.mark.parametrize("case", MALFORMED_FOR_LOADERS)
def test_malformed_document_raises_format_error(tmp_path, case):
    kind, text, line = MALFORMED_FOR_LOADERS[case]
    path = tmp_path / ("doc.jsonl" if kind in ("stream", "runlog") else "doc.json")
    path.write_bytes(encode_case(text))
    with pytest.raises(FormatError) as exc:
        LOADERS[kind](path)
    assert exc.value.line == line


@pytest.mark.parametrize("path, kind", [
    (FIXTURES / "travel_etg.json", "etg"),
    (FIXTURES / "travel_eg.json", "eg"),
    (FIXTURES / "travel_stream.jsonl", "stream"),
    (FIXTURES / "travel_scenario.json", "scenario"),
    (GOLDEN / "travel_hierarchy.json", "hierarchy"),
    (GOLDEN / "travel_metrics_seed7.json", "metrics"),
], ids=lambda v: v if isinstance(v, str) else v.name)
def test_load_document_routes_by_the_format_tag(path, kind):
    assert io.load_document(path) == (kind, LOADERS[kind](path))


def test_load_document_refuses_a_config_document(tmp_path):
    """`config/1` is no format any more: a session's settings are flags."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"format": "config/1", "window_minutes": 5.0}))
    with pytest.raises(FormatError, match="unrecognized format tag 'config/1'"):
        io.load_document(path)


def test_load_document_reads_a_run_log(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(_runlog(["a", "b"]))
    kind, (header, preds, truths, events) = io.load_document(path)
    assert kind == "runlog"
    assert header["nodes"] == ["a", "b"] and preds.tolist() == [[1, 0]] and len(events) == 1


def test_hierarchy_round_trip(tmp_path, travel_hierarchy):
    path = tmp_path / "h.json"
    io.save_hierarchy(path, travel_hierarchy)
    again = io.load_hierarchy(path)
    assert again == travel_hierarchy
    assert again.node_order == travel_hierarchy.node_order


def test_corrupted_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format": "etg/1",\n  oops\n}')
    with pytest.raises(FormatError) as exc:
        io.load_etg(path)
    assert exc.value.line == 3
    assert exc.value.col is not None


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "etg.json"
    doc = json.loads((FIXTURES / "travel_etg.json").read_text())
    doc["format"] = "etg/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        io.load_etg(path)


def test_empty_documents_load_as_empty_collections(tmp_path):
    eg_path = tmp_path / "eg.json"
    eg_path.write_text(json.dumps({"format": "eg/1", "at": None, "entities": [], "triples": []}))
    eg = io.load_eg(eg_path)
    assert eg == EG([], [])
    stream_path = tmp_path / "s.jsonl"
    stream_path.write_text(json.dumps({"format": "stream/1"}) + "\n")
    assert len(io.load_stream(stream_path)) == 0
    log_path = tmp_path / "run.jsonl"
    log_path.write_text(json.dumps({"format": "runlog/2", "seed": 1, "nodes": ["a", "b", "c"],
                                    "manifest": []}) + "\n")
    (_, preds, truths, events), (loaded_kind, (_, doc_preds, doc_truths, doc_events)) = (
        io.load_runlog(log_path), io.load_document(log_path))
    assert loaded_kind == "runlog" and events == doc_events == []
    for m in (preds, truths, doc_preds, doc_truths):
        assert m.shape == (0, 3) and m.dtype == np.uint8


def test_runlog_round_trip(tmp_path, travel_scenario, travel_hierarchy, travel_etg, travel_eg):
    from contextstream.simulate import WindowSpec, run_simulation

    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
    )
    path = tmp_path / "run.jsonl"
    io.save_runlog(path, result.node_order, result.manifest, result.seed, result.events)
    header, preds, truths, events = io.load_runlog(path)
    assert header["nodes"] == list(result.node_order)
    assert header["seed"] == result.seed
    assert preds.shape == (len(result.events), len(travel_hierarchy))
    assert (preds == stacked(result)[0]).all()
    assert (truths == stacked(result)[1]).all()


def _events(bits, queried=True):
    """One event per row pair of `bits` (shape (2, k, n)), a minute apart."""
    t0 = datetime(2021, 6, 2, 12, 0, tzinfo=timezone.utc)
    return [
        WindowEvent(t0 + timedelta(minutes=i), t0 + timedelta(minutes=i + 1),
                    np.array([0.1 * i, -3.0, 1e300]), queried, bits[0, i], bits[1, i])
        for i in range(bits.shape[1])
    ]


@pytest.mark.parametrize("k, n, queried, dtype", [
    (3, 0, True, np.uint8),
    (3, 1, True, np.uint8),
    (io.RUNLOG_BLOCK + 1, 5, True, np.uint8),
    (4, 7, False, np.uint8),
    (io.RUNLOG_BLOCK + 1, 6, False, bool),
])
def test_runlog_writer_matches_reference(tmp_path, k, n, queried, dtype):
    bits = np.random.default_rng(k * 10 + n).integers(0, 2, size=(2, k, n)).astype(dtype)
    events = _events(bits, queried)
    nodes = [f"n{i}" for i in range(n)]
    expected = reference_runlog2_lines(nodes, ["a", "b", "c"], 7, events)
    path = tmp_path / "run.jsonl"
    io.save_runlog(path, nodes, ["a", "b", "c"], 7, iter(events))
    assert path.read_text(encoding="utf-8").splitlines() == expected
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    _, preds, truths, _ = io.load_runlog(path)
    assert (preds == bits[0]).all() and (truths == bits[1]).all()


def test_runlog_writer_renders_each_distinct_row_once(tmp_path, monkeypatch):
    """Three distinct rows, repeated over three blocks, are turned into
    index lists three times, and the log still matches the oracle."""
    rows = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
    which = np.random.default_rng(3).integers(0, 3, size=(2, 2 * io.RUNLOG_BLOCK + 5))
    events = _events(rows[which])
    calls = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or flatnonzero(a))
    path = tmp_path / "run.jsonl"
    io.save_runlog(path, ["a", "b", "c", "d"], ["x", "y", "z"], 7, events)
    assert len(calls) == 3
    assert path.read_text().splitlines() == reference_runlog2_lines(
        ["a", "b", "c", "d"], ["x", "y", "z"], 7, events)


def test_a_session_log_matches_the_oracle_and_evaluates_to_its_metrics(
        tmp_path, travel_scenario, travel_hierarchy, travel_etg, travel_eg):
    """The writer's log of one session is the oracle's text, it loads to the
    session's header and rows, and `evaluate` gives the session's metrics
    document."""
    from contextstream.cli import main
    from contextstream.simulate import WindowSpec, run_simulation

    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
    )
    log, out = tmp_path / "run.jsonl", tmp_path / "metrics.json"
    io.save_runlog(log, result.node_order, result.manifest, result.seed, result.events)
    assert log.read_text().splitlines() == reference_runlog2_lines(
        result.node_order, result.manifest, result.seed, result.events)
    header, preds, truths, events = io.load_runlog(log)
    assert header == {"format": "runlog/2", "seed": result.seed,
                      "nodes": list(result.node_order), "manifest": list(result.manifest)}
    assert len(events) == len(result.events)
    assert np.array_equal(preds, stacked(result)[0]) and np.array_equal(truths, stacked(result)[1])
    assert main(["evaluate", "--log", str(log), "--out", str(out)]) == 0
    assert io.load_metrics(out) == result.metrics


def test_read_runlog_reads_as_it_is_iterated(tmp_path):
    """A line at fault is refused only when the read reaches its block."""
    lines = reference_runlog2_lines(["a", "b"], ["x", "y", "z"], 1, _events(
        np.zeros((2, io.RUNLOG_BLOCK + 1, 2), dtype=np.uint8)))
    lines[-1] = lines[-1].replace('"truth": []', '"truth": [2]')
    path = tmp_path / "run.jsonl"
    path.write_text("\n".join(lines) + "\n")
    header, blocks = io.read_runlog(path)
    assert header["nodes"] == ["a", "b"]
    events, preds, truths = next(blocks)
    assert len(events) == io.RUNLOG_BLOCK and preds.shape == truths.shape == (io.RUNLOG_BLOCK, 2)
    with pytest.raises(FormatError) as exc:
        next(blocks)
    assert exc.value.line == len(lines)


@pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
def test_runlog_writer_rejects_a_value_other_than_a_bit_before_opening(tmp_path, bad):
    bits = np.zeros((2, io.RUNLOG_BLOCK + 1, 3), dtype=np.float64)
    bits[1, io.RUNLOG_BLOCK, 2] = bad  # the truth row of the last event
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="bits"):
        io.save_runlog(path, ["a", "b", "c"], ["x", "y", "z"], 1, _events(bits))
    assert not path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_runlog_writer_rejects_a_feature_that_is_not_finite_before_opening(tmp_path, bad):
    """`json` would write NaN or Infinity, which `load_runlog` refuses."""
    events = _events(np.zeros((2, io.RUNLOG_BLOCK + 1, 3), dtype=np.uint8))
    events[-1].features[1] = bad
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="features must be finite"):
        io.save_runlog(path, ["a", "b", "c"], ["x", "y", "z"], 1, events)
    assert not path.exists()


def test_runlog_writer_rejects_a_row_of_the_wrong_width(tmp_path):
    events = _events(np.zeros((2, 2, 3), dtype=np.uint8))
    events[1] = replace(events[1], prediction=np.zeros(4, dtype=np.uint8))
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="3 bits"):
        io.save_runlog(path, ["a", "b", "c"], ["x", "y", "z"], 1, events)
    assert not path.exists()


@pytest.mark.parametrize("nodes, manifest, seed, message", [
    (["a", "b"], ["x", "y", "z"], -1, "seed: must be >= 0"),
    (["a", "a"], ["x", "y", "z"], 1, "a node id is listed more than once"),
    (["a", "b"], ["x"], 1, "expected 1 values, one per manifest entry"),
], ids=["negative-seed", "repeated-node", "more-features-than-manifest-entries"])
def test_runlog_writer_refuses_what_the_reader_refuses_before_opening(
        tmp_path, nodes, manifest, seed, message):
    path = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match=message):
        io.save_runlog(path, nodes, manifest, seed, _events(np.zeros((2, 2, 2), dtype=np.uint8)))
    assert not path.exists()


def _drawn_run_log(rng: random.Random) -> tuple[list, list, int, list]:
    """(nodes, manifest, seed, events) for `save_runlog`, drawn mostly from
    valid values and now and then from one that `load_runlog` refuses: a
    negative seed, a repeated node id, a feature count other than the
    manifest's width, a feature that is not finite, a row value that is not
    a bit."""
    nodes = [f"n{i}" for i in range(rng.randrange(4))]
    if nodes and rng.random() < 0.1:
        nodes.append(nodes[0])
    manifest = [f"c{i}" for i in range(rng.randrange(3))]
    seed = rng.choice([0, 1, 7, 2**40]) if rng.random() > 0.1 else -rng.randrange(1, 9)
    t0 = datetime(2021, 6, 2, 12, 0, tzinfo=timezone.utc)
    events = []
    for i in range(rng.randrange(4)):
        width = len(manifest) if rng.random() > 0.05 else rng.randrange(4)
        features = [rng.choice([0.0, 0.1 * i, -3.0, 1e300]) if rng.random() > 0.03
                    else rng.choice([math.nan, math.inf, -math.inf]) for _ in range(width)]
        rows = [[rng.randrange(2) if rng.random() > 0.03 else rng.choice([2, -1, 0.5, math.nan])
                 for _ in nodes] for _ in range(2)]
        events.append(WindowEvent(t0 + timedelta(minutes=i), t0 + timedelta(minutes=i + 1),
                                  np.array(features), rng.random() < 0.5, *map(np.array, rows)))
    return nodes, manifest, seed, events


@pytest.mark.parametrize("seed", range(4))
def test_a_drawn_run_log_is_refused_unopened_or_loads_back_as_written(tmp_path, seed):
    """`save_runlog` either raises ValueError and leaves no file, or writes a
    log that `load_runlog` reads back to the same header, rows and events."""
    rng = random.Random(seed)
    refused = written = 0
    for i in range(100):
        nodes, manifest, run_seed, events = _drawn_run_log(rng)
        path = tmp_path / f"run{i}.jsonl"
        try:
            io.save_runlog(path, nodes, manifest, run_seed, events)
        except ValueError:
            assert not path.exists()
            refused += 1
            continue
        header, preds, truths, loaded = io.load_runlog(path)
        assert header == {"format": "runlog/2", "seed": run_seed, "nodes": nodes,
                          "manifest": manifest}
        for matrix, key in ((preds, "prediction"), (truths, "truth")):
            rows = np.array([getattr(e, key) for e in events]).reshape(len(events), len(nodes))
            assert np.array_equal(matrix, rows)
        assert [(e["begin"], e["end"], e["features"], e["queried"]) for e in loaded] == [
            (e.begin, e.end, e.features.tolist(), e.queried) for e in events]
        written += 1
    assert refused and written


def test_runlog_writer_streams_in_little_memory(tmp_path):
    bits = np.random.default_rng(5).integers(0, 2, size=(2, 2000, 2000), dtype=np.uint8)
    events = _events(bits)
    nodes = [f"n{i}" for i in range(2000)]
    path = tmp_path / "run.jsonl"
    tracemalloc.start()
    try:
        io.save_runlog(path, nodes, ["x", "y", "z"], 1, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def _peak(call) -> int:
    """The tracemalloc peak of `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_run_log_is_written_and_evaluated_in_memory_that_doubles_linearly(tmp_path):
    """A log of 720 and then 1,440 windows over 2,000 nodes, each row setting
    17 random nodes: the tracemalloc peak of writing it grows less than 2.5
    times, and that of `evaluate --log` less than 1.25 times, since the
    evaluation keeps one block of rows, not the log's matrices."""
    from contextstream.cli import main

    n = 2000
    rng = np.random.default_rng(11)
    nodes = [f"n{i}" for i in range(n)]
    writes, reads = [], []
    for k in (720, 720, 1440):  # the first run warms the interpreter's caches
        bits = np.zeros((2, k, n), dtype=np.uint8)
        for row in bits.reshape(2 * k, n):
            row[rng.choice(n, 17, replace=False)] = 1
        events = _events(bits)
        log, out = tmp_path / f"run{k}.jsonl", tmp_path / f"metrics{k}.json"
        writes.append(_peak(lambda: io.save_runlog(log, nodes, ["x", "y", "z"], 1, events)))
        reads.append(_peak(lambda: main(["evaluate", "--log", str(log), "--out", str(out)])))
        assert io.load_metrics(out)["n_windows"] == k
    assert writes[2] < 2.5 * writes[1]
    assert reads[2] < 1.25 * reads[1]


def test_a_run_log_loads_with_each_matrix_built_once(tmp_path):
    """A log of 1,440 windows over 2,000 nodes, each row setting 17 random
    nodes, loads in a tracemalloc peak under 4 times one (events, nodes)
    matrix: its events, then each matrix, built once. Concatenating blocks
    of rows held each matrix twice at the peak."""
    n, k = 2000, 1440
    rng = np.random.default_rng(11)
    bits = np.zeros((2, k, n), dtype=np.uint8)
    for row in bits.reshape(2 * k, n):
        row[rng.choice(n, 17, replace=False)] = 1
    log = tmp_path / "run.jsonl"
    io.save_runlog(log, [f"n{i}" for i in range(n)], ["x", "y", "z"], 1, _events(bits))
    loaded = []
    peak = _peak(lambda: loaded.append(io.load_runlog(log)))
    _, preds, truths, events = loaded[0]
    assert np.array_equal(preds, bits[0]) and np.array_equal(truths, bits[1])
    assert len(events) == k
    assert peak < 4 * bits[0].nbytes, f"peak {peak} B, one matrix {bits[0].nbytes} B"


def _fan_out_etg(n: int) -> dict:
    """An ETG document of n etypes under one parent, each with a data property."""
    return {"format": "etg/1", "me_etype": "me", "etypes": [
        {"id": "me", "name": "Me"}, {"id": "place", "name": "Place"},
        *({"id": f"t{i}", "name": f"T{i}", "parent": "place",
           "data_properties": [{"name": f"p{i}", "datatype": "string"}]} for i in range(n))],
        "properties": [{"id": "near", "name": "near", "domain": "place", "codomain": "place"}]}


def _ring_eg(n: int) -> dict:
    """An EG document of n entities, one of each `_fan_out_etg(n)` etype,
    and n `near` triples joining them in a ring."""
    return {"format": "eg/1", "entities": [
        {"id": f"e{i}", "name": f"E{i}", "etype": f"t{i}", "values": {f"p{i}": "v"}}
        for i in range(n)], "triples": [
        {"property": "near", "subject": f"e{i}", "object": f"e{(i + 1) % n}"} for i in range(n)]}


def _scenario_of(n: int) -> dict:
    """A scenario document of n one-minute segments on one channel."""
    t0 = datetime(2021, 6, 2, tzinfo=timezone.utc)
    stamps = [format_timestamp(t0 + timedelta(minutes=i)) for i in range(n + 1)]
    return {"format": "scenario/1", "seed": 1, "reading_interval_s": 60.0, "channels": ["c"],
            "segments": [{"begin": begin, "end": end, "record": {},
                          "emissions": {"c": {"mean": 1.0, "std": 0.1}}}
                         for begin, end in zip(stamps, stamps[1:])]}


# kind -> (its document of size n, its loader, the size of what that loads)
SIZED_DOCUMENTS = {
    "etg": (_fan_out_etg, io.load_etg, lambda etg: len(etg.etypes) - 2),
    "eg": (_ring_eg, io.load_eg, lambda eg: len(eg.entities)),
    "scenario": (_scenario_of, io.load_scenario, lambda script: len(script.segments)),
}


@pytest.mark.parametrize("kind", SIZED_DOCUMENTS)
def test_a_document_loader_doubles_linearly(tmp_path, kind):
    """From n = 1,000 to 2,000 the tracemalloc peak of loading a document
    grows less than 2.5 times: a `_fan_out_etg(n)`, a `_ring_eg(n)` loaded
    under it, and a `_scenario_of(n)`."""
    document, load, size = SIZED_DOCUMENTS[kind]
    peaks = []
    for n in (1000, 2000):
        path, schema = tmp_path / f"{kind}{n}.json", []
        if kind == "eg":
            path.write_text(json.dumps(_fan_out_etg(n)))
            schema.append(io.load_etg(path))
        path.write_text(json.dumps(document(n)))
        loaded = []
        peaks.append(_peak(lambda: loaded.append(load(path, *schema))))
        assert size(loaded[0]) == n
    assert peaks[1] < 2.5 * peaks[0], f"peak {peaks[0]} B at 1,000, {peaks[1]} B at 2,000"


def test_metrics_round_trip(tmp_path):
    path = tmp_path / "m.json"
    io.save_metrics(path, {"hierarchical_f1": 0.5, "n_windows": 3})
    assert io.load_metrics(path) == {"hierarchical_f1": 0.5, "n_windows": 3}
