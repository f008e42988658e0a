"""File formats: versioned JSON documents for the schema/instance graphs,
hierarchies, scenarios and metrics, JSONL for streams and run logs.

Every format is described once, as data: `FORMATS` maps each kind to its
`format` tag and to the tables of the JSON objects it holds. A table lists
each field's JSON key, its default (or that it is required) and its value
parser, in the order the table's `build` takes them, and is compiled once
into a reader. Loaders reject unknown kinds and versions, and any other
malformed document, with a FormatError; `load_document` loads any of them,
routed by that tag alone. The program writes only EGs, hierarchies, run logs
and metrics; for those four formats, saving then loading yields equal
objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
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
from .errors import FormatError, StreamOrderError
from .hierarchy import ConceptNode, Hierarchy, NodeKind
from .kg import EG, ETG, DataPropertyDef, Entity, EntityType, ObjectPropertyDef, PropertyValue
from .simulate import EmissionSpec, ScenarioScript, Segment, WindowEvent
from .tables import (BITS, BOOLEAN, ID, INTEGER, NUMBER, OBJECT, STRING, STRINGS, TIMESTAMP,
                     Field, FieldError, Parser, Table, dict_of, list_of, nested, nullable, within)


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


def _runlog_header(seed: int, nodes: list, manifest: list) -> dict:
    if seed < 0:
        raise FieldError(f"must be >= 0, not {seed}", "seed")
    if len(set(nodes)) != len(nodes):
        raise FieldError("a node id is listed more than once", "nodes")
    return {"format": FORMATS["runlog"].tag, "seed": seed, "nodes": nodes, "manifest": manifest}


def _event(begin: Timestamp, end: Timestamp, features: list, queried: bool, prediction: list,
           truth: list, header: dict) -> dict:
    """A run-log event, checked against its header: one feature per manifest
    entry, and one bit per node in each row."""
    if len(features) != len(header["manifest"]):
        raise FieldError(f"expected {len(header['manifest'])} values, one per manifest entry",
                         "features")
    for key, row in (("prediction", prediction), ("truth", truth)):
        if len(row) != len(header["nodes"]):
            raise FieldError(f"expected {len(header['nodes'])} bits, one per node", key)
    return {"begin": begin, "end": end, "features": features, "queried": queried,
            "prediction": prediction, "truth": truth}


def _runlog(header: dict, events: list[dict]) -> tuple[dict, np.ndarray, np.ndarray, list[dict]]:
    n = len(header["nodes"])
    preds = np.array([e["prediction"] for e in events], dtype=np.uint8).reshape(len(events), n)
    truths = np.array([e["truth"] for e in events], dtype=np.uint8).reshape(len(events), n)
    return header, preds, truths, events


@dataclass(frozen=True)
class Format:
    """A document format: its tag and the table of the document, or of a
    JSONL file's header line. A JSONL format adds the table of its other
    lines and `finish(header, values)`, which makes the loaded object."""

    tag: str
    table: Table
    lines: Table | None = None
    finish: Callable[[Any, Iterable], Any] | None = None


FORMATS: dict[str, Format] = {
    "etg": Format("etg/1", Table("etg/1", (
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
    "eg": Format("eg/1", Table("eg/1", (
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
        "stream/1", Table("stream/1", (), lambda: None),
        Table("stream record", (Field("ts", TIMESTAMP),) + _RECORD, StreamRecord),
        lambda header, records: StreamingContext(tuple(records))),
    "hierarchy": Format("hierarchy/1", Table("hierarchy/1", (
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
    "scenario": Format("scenario/1", Table("scenario/1", (
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
    "runlog": Format(
        "runlog/1",
        Table("runlog/1", (Field("seed", INTEGER), Field("nodes", STRINGS),
                           Field("manifest", STRINGS)), _runlog_header),
        Table("event", (
            Field("begin", TIMESTAMP), Field("end", TIMESTAMP),
            Field("features", list_of(NUMBER, list)), Field("queried", BOOLEAN),
            Field("prediction", BITS), Field("truth", BITS),
        ), _event),
        _runlog),
    "metrics": Format("metrics/1", Table("metrics/1", (), dict, extra="keep")),
}


# -- reading -----------------------------------------------------------------------

def _decode(path: Any, data: bytes, line: int | None = None) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if line is None:
            line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(path, f"not UTF-8: {exc.reason}", line=line) from None


def _read_json(path: str | Path) -> Any:
    text = _decode(path, Path(path).read_bytes())
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.msg, line=exc.lineno, col=exc.colno) from None


_DECODER = json.JSONDecoder()


def _jsonl_docs(path: str | Path) -> Iterator[tuple[int, str, Any]]:
    """(line number, stripped text, parsed JSON) for every non-blank line of
    a JSONL file."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _decode(path, raw, lineno).strip()
            if not line:
                continue
            # `json.loads` without its wrapper: a stripped line whose one
            # value ends at its end is what `json.loads` returns; any other
            # line goes to `json.loads` for its error
            try:
                doc, end = _DECODER.raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(path, exc.msg, line=lineno, col=exc.colno) from None
            yield lineno, line, doc


def _kind(doc: Any, kinds: Sequence[str], path: Any) -> str:
    """The one of `kinds` whose tag `doc` carries, else a FormatError."""
    tag = doc.get("format") if isinstance(doc, dict) else None
    for kind in kinds:
        if FORMATS[kind].tag == tag:
            return kind
    expected = " or ".join(repr(FORMATS[kind].tag) for kind in kinds)
    raise FormatError(path, f"expected format {expected}, found {tag!r}")


def _read(path: Any, tag: str, table: Table, doc: Any, line: int | None, *context: Any) -> Any:
    """`doc` read by `table`: the one place where a ValueError, from a parser
    or from a constructor, becomes a FormatError on `path` and `line`."""
    try:
        if type(doc) is not dict:
            raise FieldError("expected object")
        return table.read(doc, *context)
    except ValueError as exc:
        raise FormatError(path, f"malformed {tag} document: {exc}", line=line) from None


def _from_dict(kind: str, doc: Any, path: Any, *context: Any) -> Any:
    fmt = FORMATS[_kind(doc, (kind,), path)]
    return _read(path, fmt.tag, fmt.table, doc, None, *context)


# How `json.dumps` begins a stream record whose first key is `ts`
_TS = '{"ts": "'
# A record's fields after `ts`, as a tuple
_AFTER_TS = attrgetter(*(f.name for f in fields(StreamRecord)[1:]))


def _stream_records(path: Any, docs: Iterator[tuple[int, str, Any]],
                    containment: Containment | None = None) -> Iterator[StreamRecord]:
    """The records of a stream file's lines after its header, each in one
    pass: read by its table, then checked to be after the record before it,
    then checked against `containment`'s chains.

    A line that begins with a `ts` member whose raw text is its decoded
    value, and whose text after that member is its predecessor's, takes the
    predecessor's other fields and skips the table read and the chain check.
    Equal text gives equal JSON values, in type as well as value (`true` is
    not `1`, nor `-0.0` `0.0`), so both would give what they gave the
    predecessor; an escaped `ts`, or a later `ts` member, fails the raw test.
    A `ts` that is not a timestamp goes to the table read for its error."""
    fmt = FORMATS["stream"]
    prev = prev_rest = None
    for line, text, doc in docs:
        record = rest = None
        if text.startswith(_TS):
            end = text.find('"', len(_TS))
            ts = text[len(_TS):end]
            if doc.get("ts") == ts:
                rest = text[end:]
                if rest == prev_rest:
                    try:
                        record = StreamRecord(parse_timestamp(ts), *_AFTER_TS(prev))
                    except ValueError:
                        pass
        fresh = record is None
        if fresh:
            record = _read(path, fmt.tag, fmt.lines, doc, line)
        if prev is not None and record.ts <= prev.ts:
            raise StreamOrderError(path, line, prev.ts, record.ts)
        if fresh and containment is not None:
            containment.check_record(record)
        yield record
        prev, prev_rest = record, rest


def _jsonl(path: str | Path, kinds: Sequence[str], *context: Any) -> tuple[str, Any]:
    """(kind, loaded object) of a JSONL file: a header on its first non-blank
    line, with the tag of one of `kinds`, then one document per line. A
    stream's lines go through `_stream_records`, with `context`; a run log's
    header goes with each line to its table, so that a line is checked
    against it."""
    docs = _jsonl_docs(path)
    for line, _, doc in docs:
        kind = _kind(doc, kinds, path)
        fmt = FORMATS[kind]
        header = _read(path, fmt.tag, fmt.table, doc, line)
        break
    else:
        raise FormatError(path, "no format header")
    if kind == "stream":
        values = _stream_records(path, docs, *context)
    else:
        values = [_read(path, fmt.tag, fmt.lines, doc, line, header) for line, _, doc in docs]
    return kind, fmt.finish(header, values)


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
        "format": FORMATS["eg"].tag,
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
    `containment` a SuperChainError."""
    return _jsonl(path, ("stream",), containment)[1]


# -- hierarchy -----------------------------------------------------------

def _source_ref_to_json(ref) -> Any:
    if isinstance(ref, tuple):
        return list(ref)
    return ref


def hierarchy_to_dict(h: Hierarchy) -> dict:
    return {
        "format": FORMATS["hierarchy"].tag,
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

# Events rendered per numpy pass: large enough to amortise the pass, small
# enough that a block's text stays a small part of the whole log
RUNLOG_BLOCK = 64


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


def _bit_rows(m: np.ndarray) -> list[str]:
    """The inside of each row's JSON list (`0, 1, 0`), rendered in one pass."""
    k, n = m.shape
    if n == 0:
        return [""] * k
    text = np.empty((k, 3 * n), dtype=np.uint8)
    text[:, 0::3] = m + ord("0")
    text[:, 1::3] = ord(",")
    text[:, 2::3] = ord(" ")
    width = 3 * n - 2
    flat = text[:, :width].tobytes().decode("ascii")
    return [flat[i * width:(i + 1) * width] for i in range(k)]


def _event_blocks(events: Sequence[WindowEvent], n: int) -> Iterator[list[str]]:
    """The `runlog/1` lines of `events`, without newlines, RUNLOG_BLOCK at a
    time; each is what `json.dumps` writes for the event's fields."""
    for start in range(0, len(events), RUNLOG_BLOCK):
        block = events[start:start + RUNLOG_BLOCK]
        preds = _bit_rows(_bit_matrix([e.prediction for e in block], n))
        truths = _bit_rows(_bit_matrix([e.truth for e in block], n))
        yield [
            json.dumps({"begin": format_timestamp(e.begin), "end": format_timestamp(e.end),
                        "features": e.features.tolist(), "queried": e.queried},
                       ensure_ascii=False)[:-1]
            + f', "prediction": [{pred}], "truth": [{truth}]}}'
            for e, pred, truth in zip(block, preds, truths)
        ]


def save_runlog(path: str | Path, node_order: Sequence[str], manifest: Sequence[str],
                seed: int, events: Iterable[WindowEvent]) -> None:
    """Write a `runlog/1` file, streaming it one block of events at a time.
    Every row must hold one bit (0 or 1) per node: a ValueError is raised
    before the file is opened otherwise."""
    events = list(events)
    n = len(node_order)
    for start in range(0, len(events), RUNLOG_BLOCK):
        for key in ("prediction", "truth"):
            _bit_matrix([getattr(e, key) for e in events[start:start + RUNLOG_BLOCK]], n)
    header = {"format": FORMATS["runlog"].tag, "seed": seed, "nodes": list(node_order),
              "manifest": list(manifest)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        for block in _event_blocks(events, n):
            fh.write("\n".join(block) + "\n")


def load_runlog(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray, list[dict]]:
    """Returns (header, predictions, truths, events): the header (`format`,
    `seed`, `nodes`, `manifest`) and each event as a dict of its parsed
    fields. Every event's rows hold one bit (the integer 0 or 1) per node."""
    return _jsonl(path, ("runlog",))[1]


def save_metrics(path: str | Path, metrics: dict[str, Any]) -> None:
    doc = {"format": FORMATS["metrics"].tag, **metrics}
    _write_json(path, doc)


def load_metrics(path: str | Path) -> dict:
    return _from_dict("metrics", _read_json(path), path)


# -- any document ----------------------------------------------------------

def load_document(path: str | Path) -> tuple[str, Any]:
    """(kind, loaded object) of the document at `path`: a `.jsonl` file is a
    run log or a stream, by its header's tag; a JSON one goes by the tag's
    kind, and an EG loads without a schema."""
    if str(path).endswith(".jsonl"):
        return _jsonl(path, ("runlog", "stream"))
    doc = _read_json(path)
    tag = doc.get("format") if isinstance(doc, dict) else None
    kind = tag.partition("/")[0] if isinstance(tag, str) else ""
    if kind not in FORMATS or FORMATS[kind].lines is not None:
        raise FormatError(path, f"unrecognized format tag {tag!r}")
    return kind, _from_dict(kind, doc, path)
