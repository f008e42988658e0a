"""File formats: versioned JSON documents for the schema/instance graphs,
hierarchies, scenarios and metrics, JSONL for streams and run logs.

Every format is described once, as data: `FORMATS` maps each kind to the
tables of the JSON objects it holds, the first of them named by the kind's
`format` tag. A table lists each field's JSON key, its default (or that it
is required) and its value parser, in the order the table's `build` takes
them; a table reads an object with one loop over those fields. Loaders reject unknown kinds and
versions, and any other malformed document, with a FormatError;
`load_document` loads any of them, routed by that tag alone. The program
writes only EGs, hierarchies, run logs and metrics; for those four
formats, saving then loading yields equal objects.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress, islice
from operator import attrgetter
from pathlib import Path
from types import NoneType
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Coordinates,
    Containment,
    FunctionAssignment,
    PersonEntry,
    StreamRecord,
    StreamingContext,
    Timestamp,
    format_timestamp,
    parse_timestamp,
)
from .errors import (CycleError, FormatError, StreamChainError, StreamOrderError,
                     SuperChainError)
from .hierarchy import ConceptNode, Hierarchy, NodeKind
from .kg import EG, ETG, DataPropertyDef, Entity, EntityType, ObjectPropertyDef, PropertyValue
from .simulate import EmissionSpec, ScenarioScript, Segment, WindowEvent
from .tables import (BITS, BOOLEAN, ID, INDEXES, INTEGER, NUMBER, OBJECT, STRING, STRINGS,
                     TIMESTAMP, Field, FieldError, Parser, Table, dict_of, list_of, nested,
                     nullable, within)


# -- the tables of every format ------------------------------------------------------

def _edge(values: list) -> tuple[str, ...]:
    edge = tuple(STRINGS.convert(values))
    if len(edge) != 2:
        raise FieldError("an edge is not a [child, parent] pair")
    return edge


def _source_ref(value: str | list) -> str | tuple[str, ...]:
    return tuple(STRINGS.convert(value)) if type(value) is list else value


_COORDINATES = Table("coordinates", (
    Field("x", NUMBER), Field("y", NUMBER), Field("z", NUMBER), Field("frame", STRING, "local"),
), Coordinates)
_FUNCTION = (Field("function", STRING), Field("holder", STRING), Field("beneficiary", STRING))
# a stream record's fields after `ts`, in StreamRecord's order
_RECORD = (
    Field("super_location", ID, None), Field("super_event", ID, None),
    Field("location", ID, None), Field("event", ID, None),
    Field("coo_me", nullable(nested(_COORDINATES)), None),
    Field("my_actions", nullable(list_of(STRING, frozenset)), None),
    Field("persons", nullable(list_of(nested(Table(
        "person entry", _FUNCTION + (Field("actions", list_of(STRING, frozenset), []),),
        lambda function, holder, beneficiary, actions: PersonEntry(
            FunctionAssignment(function, holder, beneficiary), actions))))), None),
    Field("objects", nullable(list_of(nested(Table(
        "object entry", _FUNCTION, FunctionAssignment)))), None),
)


# -- what the tables build, beyond a constructor call ---------------------------------

def _eg(at: Timestamp | None, entities: tuple, triples: tuple, etg: ETG | None = None) -> EG:
    """The EG of an `eg/1` document's values; under `etg`, the values of an
    entity of a declared etype are parsed by their datatypes."""
    typed = []
    for i, (eid, name, etype, values) in enumerate(entities):
        declared = etg is not None and etype in etg.etypes
        dps = etg.effective_data_properties(etype) if declared else {}
        parsed = {}
        for k, v in values.items():
            try:
                parsed[k] = _value_from_json(dps[k].datatype, v) if k in dps else v
            except ValueError as exc:
                raise within(f"entities[{i}].values.{k}", exc) from None
        typed.append(Entity(eid, name, etype, parsed))
    return EG(typed, triples, at=at)


def _value_from_json(datatype: str, v: Any) -> Any:
    if datatype == "coordinates" and isinstance(v, dict):
        return _COORDINATES.read(v)
    if datatype == "timestamp" and isinstance(v, str):
        return parse_timestamp(v)
    return v


def _runlog_header(tag: str) -> Callable[[int, list, list], dict]:
    """The build of the `tag` run-log header table."""
    def build(seed: int, nodes: list, manifest: list) -> dict:
        if seed < 0:
            raise FieldError(f"must be >= 0, not {seed}", "seed")
        if len(set(nodes)) != len(nodes):
            raise FieldError("a node id is listed more than once", "nodes")
        return {"format": tag, "seed": seed, "nodes": nodes, "manifest": manifest}

    return build


def _event(rows: Callable[[list, int], list]) -> Callable[..., dict]:
    """The build of a run-log event table, which checks an event against its
    header: one feature per manifest entry, and `rows(row, n)` gives each of
    its rows as the ascending indexes of its set bits among the header's n
    nodes, or raises a ValueError."""
    def build(begin: Timestamp, end: Timestamp, features: list, queried: bool,
              prediction: list, truth: list, header: dict) -> dict:
        if len(features) != len(header["manifest"]):
            raise FieldError(f"expected {len(header['manifest'])} values, one per manifest entry",
                             "features")
        event = {"begin": begin, "end": end, "features": features, "queried": queried}
        for key, row in (("prediction", prediction), ("truth", truth)):
            try:
                event[key] = rows(row, len(header["nodes"]))
            except ValueError as exc:
                raise within(key, exc) from None
        return event

    return build


def _bit_indexes(row: list, n: int) -> list:
    """A `runlog/1` row of bits, one per node, as the indexes of its set bits."""
    if len(row) != n:
        raise FieldError(f"expected {n} bits, one per node")
    return list(compress(range(n), row))


def _node_indexes(row: list, n: int) -> list:
    """A `runlog/2` row of ascending node indexes, refused past the last node."""
    if row and row[-1] >= n:
        raise FieldError(f"node index {row[-1]} is out of range for {n} nodes")
    return row


def _index_matrix(rows: Sequence[list], n: int) -> np.ndarray:
    """The (len(rows), n) uint8 matrix whose row i sets the indexes rows[i]."""
    m = np.zeros((len(rows), n), dtype=np.uint8)
    for i, row in enumerate(rows):
        m[i, row] = 1
    return m


def _runlog_blocks(header: dict, events: Iterable[dict]
                   ) -> Iterator[tuple[list[dict], np.ndarray, np.ndarray]]:
    """(events, predictions, truths) of each next RUNLOG_BLOCK of `events`,
    with their rows as (events, nodes) uint8 matrices."""
    n = len(header["nodes"])
    events = iter(events)
    while block := list(islice(events, RUNLOG_BLOCK)):
        yield (block, _index_matrix([e["prediction"] for e in block], n),
               _index_matrix([e["truth"] for e in block], n))


@dataclass(frozen=True)
class Format:
    """A document format: the table of the document, or of a JSONL file's
    header line, which is named by the format's tag; a JSONL format adds
    the table of its other lines."""

    table: Table
    lines: Table | None = None


def _runlog_format(tag: str, event: str, row: Parser, rows: Callable[[list, int], list]
                   ) -> Format:
    """A run-log format: its header table, and the table of its events, named
    `event`, whose rows `row` parses and `rows` checks against the header."""
    return Format(
        Table(tag, (Field("seed", INTEGER), Field("nodes", STRINGS), Field("manifest", STRINGS)),
              _runlog_header(tag)),
        Table(event, (
            Field("begin", TIMESTAMP), Field("end", TIMESTAMP),
            Field("features", list_of(NUMBER, list)), Field("queried", BOOLEAN),
            Field("prediction", row), Field("truth", row),
        ), _event(rows)))


FORMATS: dict[str, Format] = {
    "etg": Format(Table("etg/1", (
        Field("etypes", list_of(nested(Table("etype", (
            Field("id", STRING), Field("name", STRING), Field("parent", ID, None),
            Field("data_properties", list_of(nested(Table("data property", (
                Field("name", STRING), Field("datatype", STRING),
                Field("values", list_of(STRING), []),
            ), DataPropertyDef))), []),
        ), EntityType))), []),
        Field("properties", list_of(nested(Table("property", (
            Field("id", STRING), Field("name", STRING),
            Field("domain", STRING), Field("codomain", STRING),
            Field("context_dependent", BOOLEAN, False),
        ), ObjectPropertyDef))), []),
        Field("me_etype", STRING),
        Field("q", nullable(STRINGS), None),
    ), ETG)),
    "eg": Format(Table("eg/1", (
        Field("at", nullable(TIMESTAMP), None),
        Field("entities", list_of(nested(Table("entity", (
            Field("id", STRING), Field("name", STRING), Field("etype", STRING),
            Field("values", OBJECT, {}),
        )))), []),
        Field("triples", list_of(nested(Table("triple", (
            Field("property", STRING), Field("subject", STRING), Field("object", STRING),
        ), PropertyValue))), []),
    ), _eg)),
    "stream": Format(
        Table("stream/1", (), lambda: None),
        Table("stream record", (Field("ts", TIMESTAMP),) + _RECORD, StreamRecord)),
    "hierarchy": Format(Table("hierarchy/1", (
        Field("nodes", list_of(nested(Table("node", (
            Field("id", STRING),
            Field("kind", Parser("node kind", (str,), NodeKind)),
            Field("display_name", STRING),
            Field("source_ref", Parser("null, string or list of string", (str, list, NoneType),
                                       _source_ref)),
        ), ConceptNode)))),
        Field("edges", list_of(Parser("[child, parent] pair", (list,), _edge))),
        Field("root", STRING),
    ), Hierarchy)),
    "scenario": Format(Table("scenario/1", (
        Field("seed", INTEGER),
        Field("reading_interval_s", NUMBER),
        Field("channels", list_of(STRING)),
        Field("segments", list_of(nested(Table("segment", (
            Field("begin", TIMESTAMP), Field("end", TIMESTAMP),
            Field("emissions", dict_of(nested(Table("emission", (
                Field("mean", NUMBER), Field("std", NUMBER),
            ), EmissionSpec))), {}),
            Field("record", nested(Table("scenario record", _RECORD))),
        ), lambda begin, end, emissions, record: Segment(
            begin, end, emissions, StreamRecord(begin, *record))))), []),
    ), ScenarioScript)),
    "runlog": _runlog_format("runlog/1", "event", BITS, _bit_indexes),
    "runlog2": _runlog_format("runlog/2", "indexed event", INDEXES, _node_indexes),
    "metrics": Format(Table("metrics/1", (), dict, extra="keep")),
}


# -- reading -----------------------------------------------------------------------

def _decode(path: Any, data: bytes, line: int | None = None) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if line is None:
            line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(path, f"not UTF-8: {exc.reason}", line=line) from None


def _json(path: Any, text: str, line: int | None = None) -> Any:
    """The JSON value of `text`, a whole JSON document or the stripped JSONL
    line numbered `line`: the one place where JSON is decoded."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.msg, line=exc.lineno if line is None else line,
                          col=exc.colno) from None


def _read_json(path: str | Path) -> Any:
    return _json(path, _decode(path, Path(path).read_bytes()))


def _jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of every non-blank line of a JSONL file."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _decode(path, raw, lineno).strip()
            if line:
                yield lineno, line


def _kind(doc: Any, kinds: Sequence[str], path: Any) -> str:
    """The one of `kinds` whose tag `doc` carries, else a FormatError."""
    tag = doc.get("format") if isinstance(doc, dict) else None
    for kind in kinds:
        if FORMATS[kind].table.name == tag:
            return kind
    expected = " or ".join(repr(FORMATS[kind].table.name) for kind in kinds)
    raise FormatError(path, f"expected format {expected}, found {tag!r}")


def _read(path: Any, tag: str, table: Table, doc: Any, line: int | None, *context: Any) -> Any:
    """`doc` read by `table`: the one place where a ValueError, from a parser
    or from a constructor, or a constructor's CycleError becomes a
    FormatError on `path` and `line`."""
    try:
        if type(doc) is not dict:
            raise FieldError("expected object")
        return table.read(doc, *context)
    except (ValueError, CycleError) as exc:
        raise FormatError(path, f"malformed {tag} document: {exc}", line=line) from None


def _from_dict(kind: str, doc: Any, path: Any, *context: Any) -> Any:
    fmt = FORMATS[_kind(doc, (kind,), path)]
    return _read(path, fmt.table.name, fmt.table, doc, None, *context)


# How `json.dumps` begins a stream record whose first key is `ts`
_TS = '{"ts": "'
# A record's fields after `ts`, as a tuple
_AFTER_TS = attrgetter(*(f.name for f in fields(StreamRecord)[1:]))


def _stream_records(path: Any, lines: Iterator[tuple[int, str]],
                    containment: Containment | None = None) -> Iterator[StreamRecord]:
    """The records of a stream file's lines after its header, each in one
    pass: decoded, read by its table, then checked to be after the record
    before it, then checked against `containment`'s chains.

    A line `{"ts": "` + T + R, where T is printable and holds no backslash
    (so the JSON string `"T"` is T), is a repeat when its predecessor is
    such a line with the same R. R is a fixed text after a string value, so
    a repeat is valid JSON as its predecessor was, with the same members
    after `ts`: equal text gives equal JSON values, in type as well as
    value (`true` is not `1`, nor `-0.0` `0.0`). A repeat takes its
    predecessor's fields, with no table read or chain check.

    The first repeat of a run is decoded like any other line. Unless its
    decoded `ts` is T, R holds a top-level member whose decoded key is
    `ts` (`"ts"` or `"\\u0074s"`), and the line is read from its object.
    When it is T, either R holds no such member, and the line is its
    predecessor's object with `ts` = T; or it holds one, and the
    predecessor and this line both got its value, T, as their `ts` (the
    decoder keeps the last member of a name), so the order check refuses
    the line, as it would the same record read in full. So the R of a run
    that goes on past its first repeat holds no such member, and no later
    repeat of that R is decoded. A `ts` that is not a timestamp goes to the
    table read for its error."""
    fmt = FORMATS["stream"]
    prev = prev_rest = proved = None
    for line, text in lines:
        doc = record = rest = None
        if text.startswith(_TS):
            end = text.find('"', len(_TS))
            ts = text[len(_TS):end]
            if end != -1 and ts.isprintable() and "\\" not in ts:
                rest = text[end:]
                if rest == prev_rest:
                    if rest != proved:
                        doc = _json(path, text, line)
                        if doc["ts"] == ts:
                            proved = rest
                    if rest == proved:
                        try:
                            record = StreamRecord(parse_timestamp(ts), *_AFTER_TS(prev))
                        except ValueError:
                            pass
        fresh = record is None
        if fresh:
            if doc is None:
                doc = _json(path, text, line)
            record = _read(path, fmt.table.name, fmt.lines, doc, line)
        if prev is not None and record.ts <= prev.ts:
            raise StreamOrderError(path, line, prev.ts, record.ts)
        if fresh and containment is not None:
            try:
                containment.check_record(record)
            except SuperChainError as exc:
                raise StreamChainError(path, line, exc) from None
        yield record
        prev, prev_rest = record, rest


def _jsonl_values(path: str | Path, kinds: Sequence[str], *context: Any
                 ) -> tuple[str, Any, Iterator]:
    """(kind, header, values) of a JSONL file: a header on its first
    non-blank line, with the tag of one of `kinds`, then one document per
    line, read as `values` is iterated. A stream's lines go through
    `_stream_records`, with `context`; every other line is decoded here, and
    a run log's header goes with each line to its table, so that a line is
    checked against it."""
    lines = _jsonl_lines(path)
    for line, text in lines:
        doc = _json(path, text, line)
        kind = _kind(doc, kinds, path)
        fmt = FORMATS[kind]
        header = _read(path, fmt.table.name, fmt.table, doc, line)
        break
    else:
        raise FormatError(path, "no format header")
    if kind == "stream":
        values = _stream_records(path, lines, *context)
    else:
        values = (_read(path, fmt.table.name, fmt.lines, _json(path, text, line), line, header)
                  for line, text in lines)
    return kind, header, values


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


# -- ETG ---------------------------------------------------------------

def load_etg(path: str | Path) -> ETG:
    return _from_dict("etg", _read_json(path), path)


# -- EG ----------------------------------------------------------------

def _value_to_json(v: Any) -> Any:
    if isinstance(v, Coordinates):
        return {"x": v.x, "y": v.y, "z": v.z, "frame": v.frame}
    if isinstance(v, Timestamp):
        return format_timestamp(v)
    return v


def eg_to_dict(eg: EG) -> dict:
    return {
        "format": FORMATS["eg"].table.name,
        "at": format_timestamp(eg.at) if eg.at is not None else None,
        "entities": [
            {
                "id": e.id,
                "name": e.name,
                "etype": e.etype,
                "values": {k: _value_to_json(v) for k, v in e.values.items()},
            }
            for e in eg.entities
        ],
        "triples": [
            {"property": t.property, "subject": t.subject, "object": t.object}
            for t in eg.triples
        ],
    }


def load_eg(path: str | Path, etg: ETG | None = None) -> EG:
    return _from_dict("eg", _read_json(path), path, etg)


def save_eg(path: str | Path, eg: EG) -> None:
    _write_json(path, eg_to_dict(eg))


# -- stream records (JSONL) ---------------------------------------------

def load_stream(path: str | Path, containment: Containment | None = None) -> StreamingContext:
    """Read a JSONL stream: a format header on the first non-blank line, then
    one record per line, read in one pass. The first line at fault ends the
    read: a malformed record is a FormatError on its line, a record that is
    not after the one before it a StreamOrderError (a TimestampOrderError)
    on its line, and one whose declared supers are off its chains in
    `containment` a StreamChainError (a SuperChainError) on its line."""
    return StreamingContext(tuple(_jsonl_values(path, ("stream",), containment)[2]))


# -- hierarchy -----------------------------------------------------------

def _source_ref_to_json(ref) -> Any:
    if isinstance(ref, tuple):
        return list(ref)
    return ref


def hierarchy_to_dict(h: Hierarchy) -> dict:
    return {
        "format": FORMATS["hierarchy"].table.name,
        "root": h.root,
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind.value,
                "display_name": node.display_name,
                "source_ref": _source_ref_to_json(node.source_ref),
            }
            for node in sorted(h.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [list(e) for e in sorted(h.edges)],
    }


def load_hierarchy(path: str | Path) -> Hierarchy:
    return _from_dict("hierarchy", _read_json(path), path)


def save_hierarchy(path: str | Path, h: Hierarchy) -> None:
    _write_json(path, hierarchy_to_dict(h))


# -- scenario ------------------------------------------------------------

def load_scenario(path: str | Path) -> ScenarioScript:
    return _from_dict("scenario", _read_json(path), path)


# -- run logs and metrics --------------------------------------------------

# Events checked or collected per numpy pass: large enough to amortise the
# pass, small enough that a block's rows stay a small part of the whole log
RUNLOG_BLOCK = 64

# Both versions of the run log, which the readers take; the writer emits `runlog/2`
_RUNLOGS = ("runlog", "runlog2")


def _bit_matrix(rows: Sequence[Any], n: int) -> np.ndarray:
    """`rows` stacked as a (len(rows), n) uint8 matrix; ValueError unless every
    row holds n values, each 0 or 1 (bools are written as 0/1)."""
    try:
        m = np.array(rows)
    except ValueError:  # rows of unequal width
        m = np.empty((0, 0))
    if m.shape != (len(rows), n) or m.dtype.kind not in "biuf" or ((m != 0) & (m != 1)).any():
        raise ValueError(f"run-log rows must hold {n} bits (0 or 1), one per node")
    return m.astype(np.uint8)


def _event_heads(events: Sequence[WindowEvent]) -> list[str]:
    """Each event's run-log line up to the inside of its prediction list,
    as `json.dumps` writes it: a finite float is its `repr`. A window that
    opens where the one before it closed reuses that timestamp's text.
    ValueError if a feature is not finite, which `json` would write as
    `NaN` or `Infinity` and `load_runlog` refuses."""
    heads = []
    last_end, end = None, ""
    for e in events:
        features = np.asarray(e.features, dtype=np.float64).tolist()
        if not all(map(math.isfinite, features)):
            raise ValueError("run-log features must be finite numbers")
        begin = end if e.begin == last_end else format_timestamp(e.begin)
        last_end, end = e.end, format_timestamp(e.end)
        heads.append(f'{{"begin": "{begin}", "end": "{end}", '
                     f'"features": [{", ".join(map(repr, features))}], '
                     f'"queried": {"true" if e.queried else "false"}, "prediction": [')
    return heads


def save_runlog(path: str | Path, node_order: Sequence[str], manifest: Sequence[str],
                seed: int, events: Iterable[WindowEvent]) -> None:
    """Write a `runlog/2` file, whose events list each row as the ascending
    indexes of its set bits, streaming it one block of events at a time.
    Every row must hold one bit (0 or 1) per node and every feature must be
    finite: a ValueError is raised before the file is opened otherwise.
    Each distinct row is kept once, packed 8 bits a byte, and its text is
    rendered once, then kept only until the last event that repeats it."""
    events = list(events)
    n = len(node_order)
    heads = _event_heads(events)
    # each distinct row's number, by its packed bits; each event's two numbers
    numbers: dict[bytes, int] = {}
    pairs = []
    for start in range(0, len(events), RUNLOG_BLOCK):
        block = events[start:start + RUNLOG_BLOCK]
        packed = [np.packbits(_bit_matrix([getattr(e, key) for e in block], n), axis=1)
                  for key in ("prediction", "truth")]
        pairs += [(numbers.setdefault(p.tobytes(), len(numbers)),
                   numbers.setdefault(t.tobytes(), len(numbers))) for p, t in zip(*packed)]
    packed_rows = list(numbers)
    uses = Counter(number for pair in pairs for number in pair)
    texts: dict[int, str] = {}

    def text(number: int) -> str:
        """The inside of row `number`'s JSON list of indexes (`0, 4, 17`)."""
        row = texts.pop(number, None)
        if row is None:
            bits = np.unpackbits(np.frombuffer(packed_rows[number], dtype=np.uint8), count=n)
            row = ", ".join(map(str, np.flatnonzero(bits).tolist()))
        uses[number] -= 1
        if uses[number]:
            texts[number] = row
        return row

    header = {"format": FORMATS["runlog2"].table.name, "seed": seed, "nodes": list(node_order),
              "manifest": list(manifest)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        for start in range(0, len(events), RUNLOG_BLOCK):
            fh.write("".join(
                f'{head}{text(pred)}], "truth": [{text(truth)}]}}\n'
                for head, (pred, truth) in zip(heads[start:start + RUNLOG_BLOCK],
                                               pairs[start:start + RUNLOG_BLOCK])))


def read_runlog(path: str | Path
                ) -> tuple[dict, Iterator[tuple[list[dict], np.ndarray, np.ndarray]]]:
    """(header, blocks) of a run log of either version, its lines read as
    `blocks` is iterated: the header (`format`, `seed`, `nodes`,
    `manifest`), then (events, predictions, truths) of each next
    RUNLOG_BLOCK events, with each event as a dict of its parsed fields, its
    rows as the ascending indexes of their set bits, and the block's rows as
    (events, nodes) uint8 matrices. A `runlog/1` row holds one bit (the
    integer 0 or 1) per node; a `runlog/2` row lists the indexes of its set
    bits, integers in range and strictly increasing."""
    _, header, events = _jsonl_values(path, _RUNLOGS)
    return header, _runlog_blocks(header, events)


def _runlog(header: dict, events: Iterable[dict]
            ) -> tuple[dict, np.ndarray, np.ndarray, list[dict]]:
    """(header, predictions, truths, events) of a run log: its events
    collected, then each column of rows built once as an (events, nodes)
    uint8 matrix, which has no rows when the log has none."""
    events, n = list(events), len(header["nodes"])
    return (header, _index_matrix([e["prediction"] for e in events], n),
            _index_matrix([e["truth"] for e in events], n), events)


def load_runlog(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray, list[dict]]:
    """(header, predictions, truths, events): every event of a run log of
    either version, read as `read_runlog` reads it, with the rows as
    (events, nodes) uint8 matrices."""
    return _runlog(*_jsonl_values(path, _RUNLOGS)[1:])


def save_metrics(path: str | Path, metrics: dict[str, Any]) -> None:
    doc = {"format": FORMATS["metrics"].table.name, **metrics}
    _write_json(path, doc)


def load_metrics(path: str | Path) -> dict:
    return _from_dict("metrics", _read_json(path), path)


# -- any document ----------------------------------------------------------

def load_document(path: str | Path) -> tuple[str, Any]:
    """(kind, loaded object) of the document at `path`: a `.jsonl` file is a
    run log or a stream, by its header's tag; a JSON one goes by the tag's
    kind, and an EG loads without a schema."""
    if str(path).endswith(".jsonl"):
        kind, header, values = _jsonl_values(path, _RUNLOGS + ("stream",))
        if kind == "stream":
            return kind, StreamingContext(tuple(values))
        return kind, _runlog(header, values)
    doc = _read_json(path)
    tag = doc.get("format") if isinstance(doc, dict) else None
    kind = tag.partition("/")[0] if isinstance(tag, str) else ""
    if kind not in FORMATS or FORMATS[kind].lines is not None:
        raise FormatError(path, f"unrecognized format tag {tag!r}")
    return kind, _from_dict(kind, doc, path)
