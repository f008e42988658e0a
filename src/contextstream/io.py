"""File formats: versioned JSON documents for the schema/instance graphs,
hierarchies, scenarios and configuration, JSONL for streams and run logs.

Every document carries a `format` tag (`<kind>/<version>`); loaders reject
unknown kinds and versions, and any other malformed document, with a
FormatError; `load_document` loads any of them, routed by that tag alone.
The program writes only EGs, hierarchies, run logs and metrics; for those
four formats, saving then loading yields equal objects.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Containment,
    Coordinates,
    FunctionAssignment,
    PersonEntry,
    StreamRecord,
    StreamingContext,
    Timestamp,
    format_timestamp,
    parse_timestamp,
)
from .errors import FormatError
from .hierarchy import ConceptNode, Hierarchy, NodeKind
from .kg import EG, ETG, DataPropertyDef, Entity, EntityType, ObjectPropertyDef, PropertyValue
from .learn import QueryStrategy
from .simulate import (DEFAULT_WINDOW_MINUTES, EmissionSpec, ScenarioScript, Segment,
                       WindowEvent, positive_delta)

FORMATS = {
    "etg": "etg/1",
    "eg": "eg/1",
    "stream": "stream/1",
    "hierarchy": "hierarchy/1",
    "scenario": "scenario/1",
    "config": "config/1",
    "runlog": "runlog/1",
    "metrics": "metrics/1",
}


class _Malformed:
    """Context in which an error raised by a document's shape (a missing key,
    a value of the wrong type or out of range) becomes a FormatError on
    `path`. `load_stream` enters it once per file and keeps `line` current."""

    def __init__(self, path: Any, what: str):
        self.path = path
        self.what = what
        self.line: int | None = None

    def __enter__(self) -> "_Malformed":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, (KeyError, TypeError, ValueError, AttributeError)):
            raise FormatError(self.path, f"malformed {self.what}: {exc}", line=self.line) from None


def _check_format(doc: Any, kind: str, path: Any) -> None:
    tag = doc.get("format") if isinstance(doc, Mapping) else None
    if tag != FORMATS[kind]:
        raise FormatError(path, f"expected format {FORMATS[kind]!r}, found {tag!r}")


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


def _jsonl_docs(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, parsed JSON) for every non-blank line of a JSONL file."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _decode(path, raw, lineno).strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(path, exc.msg, line=lineno, col=exc.colno) from None
            yield lineno, doc


def _strings(value: Any, what: str) -> list[str]:
    """`value` itself when it is a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{what} must be a list of strings")
    return value


def _integer(value: Any, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass; JSON true is not a number
        raise TypeError(f"{what} must be an integer")
    return value


def _number(value: Any, what: str) -> float:
    # NaN fails the comparison, and so do infinities and ints past the float range
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise TypeError(f"{what} must be a finite number")
    return float(value)


def _id(value: Any, what: str) -> str | None:
    if value is not None and type(value) is not str:
        raise TypeError(f"{what} must be a string or null")
    return value


def _coordinates(d: Mapping[str, Any]) -> Coordinates:
    frame = d.get("frame", "local")
    if type(frame) is not str:
        raise TypeError("a coordinates frame must be a string")
    return Coordinates(_number(d["x"], "coordinate x"), _number(d["y"], "coordinate y"),
                       _number(d["z"], "coordinate z"), frame)


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


# -- ETG ---------------------------------------------------------------

def etg_from_dict(doc: Mapping[str, Any], path: Any = "<memory>") -> ETG:
    _check_format(doc, "etg", path)
    with _Malformed(path, "ETG document"):
        etypes = [
            EntityType(
                *_strings([et["id"], et["name"]], "an etype's id and name"),
                parent=_id(et.get("parent"), "an etype's parent"),
                data_properties=tuple(
                    DataPropertyDef(
                        *_strings([dp["name"], dp["datatype"]],
                                  "a data property's name and datatype"),
                        enum_values=tuple(_strings(dp.get("values", []), "enum values")),
                    )
                    for dp in et.get("data_properties", ())
                ),
            )
            for et in doc.get("etypes", ())
        ]
        properties = []
        for p in doc.get("properties", ()):
            fields = _strings([p["id"], p["name"], p["domain"], p["codomain"]],
                              "a property's id, name, domain and codomain")
            context_dependent = p.get("context_dependent", False)
            if not isinstance(context_dependent, bool):
                raise TypeError(f"context_dependent of {p['id']!r} must be true or false")
            properties.append(ObjectPropertyDef(*fields, context_dependent=context_dependent))
        q = doc.get("q")
        return ETG(etypes, properties, me_etype=_strings([doc["me_etype"]], "me_etype")[0],
                   q=_strings(q, "q") if q is not None else None)


def load_etg(path: str | Path) -> ETG:
    return etg_from_dict(_read_json(path), path)


# -- EG ----------------------------------------------------------------

def _value_to_json(v: Any) -> Any:
    if isinstance(v, Coordinates):
        return {"x": v.x, "y": v.y, "z": v.z, "frame": v.frame}
    if isinstance(v, Timestamp):
        return format_timestamp(v)
    return v


def _value_from_json(datatype: str, v: Any) -> Any:
    if datatype == "coordinates" and isinstance(v, Mapping):
        return _coordinates(v)
    if datatype == "timestamp" and isinstance(v, str):
        return parse_timestamp(v)
    return v


def eg_to_dict(eg: EG) -> dict:
    return {
        "format": FORMATS["eg"],
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


def eg_from_dict(doc: Mapping[str, Any], etg: ETG | None = None, path: Any = "<memory>") -> EG:
    _check_format(doc, "eg", path)
    with _Malformed(path, "EG document"):
        entities = []
        for e in doc.get("entities", ()):
            eid, name, etype = _strings([e["id"], e["name"], e["etype"]],
                                        "an entity's id, name and etype")
            values = e.get("values", {})
            if not isinstance(values, dict):
                raise TypeError("an entity's values must be an object")
            if etg is not None and etype in etg.etypes:
                effective = etg.effective_data_properties(etype)
                values = {
                    k: _value_from_json(effective[k].datatype, v) if k in effective else v
                    for k, v in values.items()
                }
            entities.append(Entity(eid, name, etype, dict(values)))
        triples = [
            PropertyValue(*_strings([t["property"], t["subject"], t["object"]],
                                    "a triple's property, subject and object"))
            for t in doc.get("triples", ())
        ]
        at = doc.get("at")
        return EG(entities, triples, at=parse_timestamp(at) if at else None)


def load_eg(path: str | Path, etg: ETG | None = None) -> EG:
    return eg_from_dict(_read_json(path), etg, path)


def save_eg(path: str | Path, eg: EG) -> None:
    _write_json(path, eg_to_dict(eg))


# -- stream records (JSONL) ---------------------------------------------

def _function(d: Mapping[str, Any]) -> FunctionAssignment:
    return FunctionAssignment(
        function_name=_id(d["function"], "function"),
        holder=_id(d["holder"], "holder"),
        beneficiary=_id(d["beneficiary"], "beneficiary"),
    )


def _record_from_json(d: Mapping[str, Any], ts: Timestamp | None = None) -> StreamRecord:
    my_actions = d.get("my_actions")
    persons = d.get("persons")
    objects = d.get("objects")
    coo_me = d.get("coo_me")
    return StreamRecord(
        ts=ts if ts is not None else parse_timestamp(d["ts"]),
        super_location=_id(d.get("super_location"), "super_location"),
        super_event=_id(d.get("super_event"), "super_event"),
        location=_id(d.get("location"), "location"),
        event=_id(d.get("event"), "event"),
        coo_me=_coordinates(coo_me) if coo_me is not None else None,
        my_actions=frozenset(_strings(my_actions, "my_actions"))
        if my_actions is not None
        else None,
        person_entries=None
        if persons is None
        else tuple(
            PersonEntry(
                function=_function(p),
                actions=frozenset(_strings(p.get("actions", []), "person actions")),
            )
            for p in persons
        ),
        object_entries=None
        if objects is None
        else tuple(_function(o) for o in objects),
    )


def load_stream(path: str | Path, containment: Containment | None = None) -> StreamingContext:
    """Read a JSONL stream: a format header on the first non-blank line, then
    one record per line. Each record's declared supers are checked against
    `containment` as it is read; the timestamp order is checked once, when
    the stream is built. A malformed record is a FormatError on its line."""
    docs = _jsonl_docs(path)
    for _, header in docs:
        _check_format(header, "stream", path)
        break
    records: list[StreamRecord] = []
    with _Malformed(path, "stream record") as where:
        for lineno, doc in docs:
            where.line = lineno
            record = _record_from_json(doc)
            if containment is not None:
                containment.check_record(record)
            records.append(record)
    return StreamingContext(tuple(records))


# -- hierarchy -----------------------------------------------------------

def _source_ref_to_json(ref) -> Any:
    if isinstance(ref, tuple):
        return list(ref)
    return ref


def hierarchy_to_dict(h: Hierarchy) -> dict:
    return {
        "format": FORMATS["hierarchy"],
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


def hierarchy_from_dict(doc: Mapping[str, Any], path: Any = "<memory>") -> Hierarchy:
    _check_format(doc, "hierarchy", path)
    with _Malformed(path, "hierarchy document"):
        nodes = []
        for n in doc["nodes"]:
            nid, name = _strings([n["id"], n["display_name"]], "a node's id and display_name")
            r = n["source_ref"]
            ref = tuple(_strings(r, "source_ref")) if isinstance(r, list) else _id(r, "source_ref")
            nodes.append(ConceptNode(nid, NodeKind(n["kind"]), name, ref))
        edges = [tuple(_strings(e, "an edge")) for e in doc["edges"]]
        if any(len(e) != 2 for e in edges):
            raise ValueError("an edge is not a [child, parent] pair")
        return Hierarchy(nodes, edges, root=_strings([doc["root"]], "root")[0])


def load_hierarchy(path: str | Path) -> Hierarchy:
    return hierarchy_from_dict(_read_json(path), path)


def save_hierarchy(path: str | Path, h: Hierarchy) -> None:
    _write_json(path, hierarchy_to_dict(h))


# -- scenario ------------------------------------------------------------

def scenario_from_dict(doc: Mapping[str, Any], path: Any = "<memory>") -> ScenarioScript:
    _check_format(doc, "scenario", path)
    with _Malformed(path, "scenario document"):
        segments = []
        for seg in doc.get("segments", ()):
            begin = parse_timestamp(seg["begin"])
            segments.append(Segment(
                begin=begin,
                end=parse_timestamp(seg["end"]),
                emissions={
                    ch: EmissionSpec(_number(spec["mean"], "emission mean"),
                                     _number(spec["std"], "emission std"))
                    for ch, spec in seg.get("emissions", {}).items()
                },
                record=_record_from_json(seg["record"], ts=begin),
            ))
        return ScenarioScript(
            seed=_integer(doc["seed"], "seed"),
            reading_interval_s=_number(doc["reading_interval_s"], "reading_interval_s"),
            channels=tuple(_strings(doc["channels"], "channels")),
            segments=tuple(segments),
        )


def load_scenario(path: str | Path) -> ScenarioScript:
    return scenario_from_dict(_read_json(path), path)


# -- config --------------------------------------------------------------

# `near_threshold_m` stays a valid config/1 key; no stage reads it, so it is
# checked and then dropped
CONFIG_KEYS = {"format", "near_threshold_m", "window_minutes", "strategy", "seed"}


@dataclass(frozen=True)
class Config:
    window_minutes: float = DEFAULT_WINDOW_MINUTES
    strategy: QueryStrategy = QueryStrategy("always")
    seed: int | None = None

    def __post_init__(self):
        positive_delta("window_minutes", minutes=self.window_minutes)
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")


def config_from_dict(doc: Mapping[str, Any], path: Any = "<memory>") -> Config:
    _check_format(doc, "config", path)
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise FormatError(path, f"unknown config keys: {sorted(unknown)}")
    with _Malformed(path, "config"):
        if _number(doc.get("near_threshold_m", 10.0), "near_threshold_m") <= 0:
            raise ValueError("near_threshold_m must be positive")
        strategy = doc.get("strategy", {"kind": "always"})
        return Config(
            window_minutes=_number(doc.get("window_minutes", Config.window_minutes),
                                   "window_minutes"),
            strategy=QueryStrategy(kind=strategy.get("kind", "always"),
                                   tau=_number(strategy.get("tau", 0.0), "strategy tau")),
            seed=_integer(doc["seed"], "seed") if doc.get("seed") is not None else None,
        )


def load_config(path: str | Path) -> Config:
    return config_from_dict(_read_json(path), path)


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


def _runlog_header(node_order: Sequence[str], manifest: Sequence[str], seed: int) -> str:
    return json.dumps({"format": FORMATS["runlog"], "seed": seed, "nodes": list(node_order),
                       "manifest": list(manifest)}, ensure_ascii=False)


def runlog_to_lines(node_order: Sequence[str], manifest: Sequence[str], seed: int,
                    events: Iterable[WindowEvent]) -> list[str]:
    lines = [_runlog_header(node_order, manifest, seed)]
    for block in _event_blocks(list(events), len(node_order)):
        lines += block
    return lines


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_runlog_header(node_order, manifest, seed) + "\n")
        for block in _event_blocks(events, n):
            fh.write("\n".join(block) + "\n")


def load_runlog(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray, list[dict]]:
    """Returns (header, predictions, truths, raw event dicts). The header is
    the first non-blank line; every event's rows hold one bit (the integer 0
    or 1) per node, and its `queried` is a JSON bool."""
    docs = _jsonl_docs(path)
    header: dict | None = None
    for lineno, header in docs:
        _check_format(header, "runlog", path)
        nodes = header.get("nodes")
        if (not isinstance(nodes, list) or {*map(type, nodes)} - {str}
                or len(set(nodes)) != len(nodes)):
            raise FormatError(path, "run log header must list distinct node ids", line=lineno)
        break
    if header is None:
        raise FormatError(path, "empty run log")
    n = len(header["nodes"])
    events: list[dict] = []
    for lineno, doc in docs:
        for key in ("prediction", "truth"):
            row = doc.get(key) if isinstance(doc, Mapping) else None
            if (not isinstance(row, list) or len(row) != n
                    or {*map(type, row)} - {int} or not {*row} <= {0, 1}):
                raise FormatError(path, f"event {key} must list {n} bits (0 or 1), one per node",
                                  line=lineno)
        if type(doc.get("queried")) is not bool:
            raise FormatError(path, "event queried must be true or false", line=lineno)
        events.append(doc)
    preds = np.array([e["prediction"] for e in events], dtype=np.uint8).reshape(len(events), n)
    truths = np.array([e["truth"] for e in events], dtype=np.uint8).reshape(len(events), n)
    return header, preds, truths, events


def save_metrics(path: str | Path, metrics: Mapping[str, Any]) -> None:
    doc = {"format": FORMATS["metrics"], **metrics}
    _write_json(path, doc)


def metrics_from_dict(doc: Mapping[str, Any], path: Any = "<memory>") -> dict:
    _check_format(doc, "metrics", path)
    return {k: v for k, v in doc.items() if k != "format"}


def load_metrics(path: str | Path) -> dict:
    return metrics_from_dict(_read_json(path), path)


# -- any document ----------------------------------------------------------

_FROM_DICT = {
    "etg": etg_from_dict,
    "eg": eg_from_dict,
    "hierarchy": hierarchy_from_dict,
    "scenario": scenario_from_dict,
    "config": config_from_dict,
    "metrics": metrics_from_dict,
}


def load_document(path: str | Path) -> tuple[str, Any]:
    """(kind, loaded object) of the document at `path`: a `.jsonl` file is a
    run log when its header has the run-log tag, else a stream; a JSON one
    goes by the tag's kind, and an EG loads without a schema."""
    if str(path).endswith(".jsonl"):
        header = next((doc for _, doc in _jsonl_docs(path)), None)
        if isinstance(header, Mapping) and header.get("format") == FORMATS["runlog"]:
            return "runlog", load_runlog(path)
        return "stream", load_stream(path)
    doc = _read_json(path)
    with _Malformed(path, "document"):
        tag = doc.get("format", "")
    kind = tag.partition("/")[0] if isinstance(tag, str) else ""
    if kind not in _FROM_DICT:
        raise FormatError(path, f"unrecognized format tag {tag!r}")
    return kind, _FROM_DICT[kind](doc, path=path)
