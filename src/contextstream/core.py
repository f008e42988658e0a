"""Typed personal-context records: stream records with their person and
object function assignments, the strictly ordered streaming context, the
location/event containment chains, and window pattern classification.

All types are immutable value objects; stream appends return a new sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property
from itertools import pairwise
from typing import Mapping, Optional

from .errors import (
    CompositeWindowError,
    CycleError,
    SuperChainError,
    TimestampOrderError,
    UnknownIdError,
)

Timestamp = datetime


def parse_timestamp(s: str) -> Timestamp:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    ts = datetime.fromisoformat(s)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def format_timestamp(ts: Timestamp) -> str:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.isoformat()


@dataclass(frozen=True)
class Coordinates:
    """A point in a named local Cartesian frame, in meters."""

    x: float
    y: float
    z: float
    frame: str = "local"

    def __post_init__(self):
        for axis in (self.x, self.y, self.z):
            if not math.isfinite(axis):
                raise ValueError(f"non-finite coordinate in frame {self.frame!r}")


@dataclass(frozen=True)
class FunctionAssignment:
    """The role an entity plays for another (friend, rest tool, ...).

    `holder` is the entity bearing the function, `beneficiary` the entity it
    is directed at; the conventional notation Name(beneficiary, holder)
    follows the subject/object order of the matching graph property.
    """

    function_name: str
    holder: str
    beneficiary: str

    def __post_init__(self):
        if not self.function_name:
            raise ValueError("function_name must be nonempty")
        if self.holder == self.beneficiary:
            raise ValueError(f"holder and beneficiary are both {self.holder!r}")


@dataclass(frozen=True)
class PersonEntry:
    """One annotated person column of a stream record: the function the
    person holds plus the actions observed for them."""

    function: FunctionAssignment
    actions: frozenset[str] = frozenset()


@dataclass(frozen=True)
class StreamRecord:
    """One row of the personal streaming context. Any field except `ts` may
    be None, the explicit missing marker."""

    ts: Timestamp
    super_location: Optional[str] = None
    super_event: Optional[str] = None
    location: Optional[str] = None
    event: Optional[str] = None
    coo_me: Optional[Coordinates] = None
    my_actions: Optional[frozenset[str]] = None
    person_entries: Optional[tuple[PersonEntry, ...]] = None
    object_entries: Optional[tuple[FunctionAssignment, ...]] = None


@dataclass(frozen=True)
class StreamingContext:
    """The time-ordered sequence of stream records."""

    records: tuple[StreamRecord, ...] = ()

    def __post_init__(self):
        for prev, cur in pairwise(self.records):
            if cur.ts <= prev.ts:
                raise TimestampOrderError(prev.ts, cur.ts)

    def __len__(self) -> int:
        return len(self.records)


class ContextPattern(Enum):
    """The four ways locations and events compose inside a window."""

    ONE_LOC_ONE_EVENT = "1L1E"
    ONE_LOC_MANY_EVENTS = "1LME"
    ONE_EVENT_ONE_LOC = "1E1L"
    ONE_EVENT_MANY_LOCS = "1EML"


@dataclass(frozen=True)
class Containment:
    """Parent maps for locations and events (child id -> parent id)."""

    location_parent: Mapping[str, str] = field(default_factory=dict)
    event_parent: Mapping[str, str] = field(default_factory=dict)

    @cached_property
    def _location_parents(self) -> frozenset[str]:
        return frozenset(self.location_parent.values())

    @cached_property
    def _event_parents(self) -> frozenset[str]:
        return frozenset(self.event_parent.values())

    def check_record(self, r: StreamRecord) -> None:
        """Raise SuperChainError when a record's declared super location or
        super event is not on its location's or event's known chain."""
        if r.location is not None and r.super_location is not None:
            chain = _known_chain(r.location, self.location_parent, self._location_parents)
            if chain is not None and r.super_location not in chain:
                raise SuperChainError(
                    f"location {r.location!r}: parent chain {list(chain)} "
                    f"does not contain declared super location {r.super_location!r}"
                )
        if r.event is not None and r.super_event is not None:
            chain = _known_chain(r.event, self.event_parent, self._event_parents)
            if chain is not None and r.super_event not in chain:
                raise SuperChainError(
                    f"event {r.event!r}: super chain {list(chain)} "
                    f"does not contain declared super event {r.super_event!r}"
                )


def super_of(entity_id: str, parents: Mapping[str, str]) -> tuple[str, ...]:
    """Ancestor chain of `entity_id`, immediate parent first.

    Ids appearing only as parents are roots with an empty chain; ids absent
    from the map entirely are unknown.
    """
    if entity_id not in parents:
        if any(entity_id == p for p in parents.values()):
            return ()
        raise UnknownIdError(f"unknown id {entity_id!r}")
    chain: list[str] = []
    seen = {entity_id}
    cur = entity_id
    while cur in parents:
        cur = parents[cur]
        if cur in seen:
            raise CycleError([entity_id, *chain, cur])
        seen.add(cur)
        chain.append(cur)
    return tuple(chain)


def _known_chain(entity_id: str, parents: Mapping[str, str],
                 parent_ids: frozenset[str]) -> tuple[str, ...] | None:
    """`super_of(entity_id, parents)` when the map knows the id, else None
    (ids the maps have never heard of cannot be verified and are skipped).
    `parent_ids` is the set of the map's values, built once per map."""
    if entity_id in parents:
        return super_of(entity_id, parents)
    return () if entity_id in parent_ids else None


def _top_event(r: StreamRecord, containment: Containment | None) -> str | None:
    """Topmost known event group of a record: the containment chain top when
    available, else the declared super event, else the event itself."""
    if r.event is not None and containment is not None:
        chain = _known_chain(r.event, containment.event_parent, containment._event_parents)
        if chain:
            return chain[-1]
    if r.super_event is not None:
        return r.super_event
    return r.event


def classify_pattern(
    window: StreamingContext,
    *,
    event_focus: bool = False,
    containment: Containment | None = None,
) -> ContextPattern:
    """Classify how locations and events compose inside a window.

    Locations are counted at record level (the most specific stored location);
    events are collapsed to their topmost known group. A window varying in
    both dimensions has no pattern and raises CompositeWindowError.
    """
    if not window.records:
        raise ValueError("cannot classify an empty window")
    locations = {
        r.location if r.location is not None else r.super_location
        for r in window.records
        if r.location is not None or r.super_location is not None
    }
    events = {
        top for r in window.records if (top := _top_event(r, containment)) is not None
    }
    n_loc = max(1, len(locations))
    n_event = max(1, len(events))
    if n_loc == 1 and n_event == 1:
        return ContextPattern.ONE_EVENT_ONE_LOC if event_focus else ContextPattern.ONE_LOC_ONE_EVENT
    if n_loc == 1:
        return ContextPattern.ONE_LOC_MANY_EVENTS
    if n_event == 1:
        return ContextPattern.ONE_EVENT_MANY_LOCS
    raise CompositeWindowError(n_loc, n_event)


