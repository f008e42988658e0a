"""Tables that describe JSON objects, and the value parsers they use.

A `Table` lists the fields of one kind of JSON object: each field's key, its
default or that it is required, and its `Parser`. A parser checks a value's
JSON type and converts it, and may hold a nested table, alone or in a list.
The rules follow the JSON Schema validation vocabulary (`type`, `required`,
`default`, `items`, `additionalProperties`); each table is compiled once
into a reader function. A value that breaks a rule raises `FieldError`, a
ValueError that names the value's path from the object read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Callable

from .core import parse_timestamp


class FieldError(ValueError):
    """A value that breaks its field's rule, at `where`, its path from the
    object being read (`persons[0].holder`); empty at the value itself."""

    def __init__(self, why: str, where: str = ""):
        super().__init__(f"{where}: {why}" if where else why)
        self.why, self.where = why, where


def within(step: str, exc: ValueError) -> FieldError:
    """`exc`, raised by a parser or a constructor inside `step` (a key or
    `[i]`), as seen from one step further out."""
    if not isinstance(exc, FieldError):
        return FieldError(str(exc), step)
    dot = "." if exc.where[:1] not in ("", "[") else ""
    return FieldError(exc.why, step + dot + exc.where)


@dataclass(frozen=True)
class Parser:
    """The rule of one JSON value: its type is one of `types` (as
    `json.loads` gives them), then `convert`, if any, makes the program's
    value of it or refuses it with a ValueError; null skips `convert`.
    `table` is the table of the objects the value holds, if any."""

    kind: str
    types: tuple[type, ...]
    convert: Callable[[Any], Any] | None = None
    table: Table | None = None

    def parse(self, value: Any) -> Any:
        if type(value) not in self.types:
            raise FieldError(f"expected {self.kind}")
        return value if value is None or self.convert is None else self.convert(value)


REQUIRED = object()
_MISSING = object()


@dataclass(frozen=True)
class Field:
    """One key of a JSON object. A missing key takes `default`, a JSON value
    that the parser reads once, unless it is REQUIRED."""

    key: str
    parser: Parser
    default: Any = REQUIRED


@dataclass(frozen=True)
class Table:
    """One kind of JSON object: its fields, in the order `build` takes their
    values. Other keys are ignored, or passed to `build` as one dict after
    the fields (`extra="keep"`); a document's `format` key is never one of
    them."""

    name: str
    fields: tuple[Field, ...]
    build: Callable[..., Any] = lambda *values: values
    extra: str = "ignore"
    read: Callable[..., Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # compiled as the table is defined, so that no load pays for it
        object.__setattr__(self, "read", self._compile())

    def _compile(self) -> Callable[..., Any]:
        """`read(obj, *context)` is `build(*values, *context)` for the JSON
        object `obj`, or a ValueError at the first field that breaks its rule.
        Its source is generated once, as `dataclasses` writes `__init__`, so a
        read runs one check per field and no loop over the table."""
        env = {"_MISSING": _MISSING, "FieldError": FieldError, "within": within,
               "build": self.build, "known": frozenset(f.key for f in self.fields) | {"format"}}
        src = ["def read(obj, *context):"]
        for i, f in enumerate(self.fields):
            env[f"types{i}"], env[f"convert{i}"] = f.parser.types, f.parser.convert
            if f.default is REQUIRED:
                missing = f"raise FieldError('required key missing', {f.key!r})"
            else:
                env[f"default{i}"] = f.parser.parse(f.default)
                missing = f"v{i} = default{i}"
            src += [f"    v{i} = obj.get({f.key!r}, _MISSING)",
                    f"    if v{i} is _MISSING:",
                    f"        {missing}",
                    f"    elif type(v{i}) not in types{i}:",
                    f"        raise FieldError({'expected ' + f.parser.kind!r}, {f.key!r})"]
            if f.parser.convert is not None:
                src += [f"    elif v{i} is not None:",
                        "        try:",
                        f"            v{i} = convert{i}(v{i})",
                        "        except ValueError as exc:",
                        f"            raise within({f.key!r}, exc) from None"]
        values = [f"v{i}" for i in range(len(self.fields))]
        if self.extra == "keep":
            values.append("{k: v for k, v in obj.items() if k not in known}")
        src.append(f"    return build({', '.join(values + ['*context'])})")
        exec("\n".join(src), env)
        return env["read"]


def _finite(value: int | float) -> float:
    # NaN fails the comparison, and so do infinities and ints past the float range
    if not abs(value) <= sys.float_info.max:
        raise FieldError("expected finite number")
    return float(value)


def _bits(row: list) -> list:
    # whole-row set checks: a run log holds one bit per node and event
    if {*map(type, row)} - {int} or not {*row} <= {0, 1}:
        raise FieldError("expected list of bits (the integers 0 and 1)")
    return row


def nullable(p: Parser) -> Parser:
    return Parser(f"null or {p.kind}", p.types + (NoneType,), p.convert, p.table)


def nested(table: Table) -> Parser:
    """A JSON object that `table` reads."""
    return Parser(table.name, (dict,), table.read, table)


def list_of(item: Parser, into: Callable[[list], Any] = tuple) -> Parser:
    def convert(values: list) -> Any:
        out = []
        for i, value in enumerate(values):
            try:
                out.append(item.parse(value))
            except ValueError as exc:
                raise within(f"[{i}]", exc) from None
        return into(out)

    return Parser(f"list of {item.kind}", (list,), convert, item.table)


def dict_of(item: Parser) -> Parser:
    """A JSON object whose keys are free and whose values `item` reads."""
    def convert(obj: dict) -> dict:
        out = {}
        for key, value in obj.items():
            try:
                out[key] = item.parse(value)
            except ValueError as exc:
                raise within(key, exc) from None
        return out

    return Parser(f"object of {item.kind}", (dict,), convert, item.table)


STRING = Parser("string", (str,))
ID = nullable(STRING)
STRINGS = list_of(STRING, list)
NUMBER = Parser("finite number", (int, float), _finite)
INTEGER = Parser("integer", (int,))
BOOLEAN = Parser("boolean", (bool,))
TIMESTAMP = Parser("timestamp", (str,), parse_timestamp)
OBJECT = Parser("object", (dict,))  # its values are free
BITS = Parser("list of bits", (list,), _bits)
