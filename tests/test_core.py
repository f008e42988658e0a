from __future__ import annotations

import json
import random
from collections.abc import Mapping
from datetime import datetime, timedelta, timezone

import pytest

from contextstream.core import (
    Containment,
    ContextPattern,
    Coordinates,
    FunctionAssignment,
    StreamRecord,
    StreamingContext,
    classify_pattern,
    format_timestamp,
    parse_timestamp,
    super_of,
)
from contextstream.errors import (
    CompositeWindowError,
    CycleError,
    SuperChainError,
    TimestampOrderError,
    UnknownIdError,
)
from contextstream.io import load_stream

UTC = timezone.utc
T0 = datetime(2021, 6, 2, 12, 0, tzinfo=UTC)


def ts(minutes: float) -> datetime:
    return T0 + timedelta(minutes=minutes)


def record(minutes: float, location=None, event=None, super_location=None, super_event=None):
    return StreamRecord(
        ts=ts(minutes),
        location=location,
        event=event,
        super_location=super_location,
        super_event=super_event,
    )


# -- timestamps -------------------------------------------------------------

def test_timestamp_round_trip():
    stamps = ["2021-06-02T12:15:00+00:00", "2021-06-02T14:15:30+02:00"]
    for s in stamps:
        assert format_timestamp(parse_timestamp(s)) == s


def test_timestamp_z_suffix_and_ordering():
    a = parse_timestamp("2021-06-02T12:15:00Z")
    b = parse_timestamp("2021-06-02T14:15:00+02:00")
    assert a == parse_timestamp("2021-06-02T12:15:00+00:00")
    assert a < b or a == b  # total order defined across offsets
    assert parse_timestamp("2021-06-02T12:15:00") == a  # naive -> UTC


# -- coordinates ------------------------------------------------------------

def test_coordinates_reject_non_finite():
    with pytest.raises(ValueError):
        Coordinates(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Coordinates(0, float("inf"), 0)


# -- pattern classification ---------------------------------------------------

def test_travel_window_is_one_event_many_locs(travel_stream, travel_containment):
    assert (
        classify_pattern(travel_stream, containment=travel_containment)
        is ContextPattern.ONE_EVENT_MANY_LOCS
    )


def test_single_record_is_one_loc_one_event():
    window = StreamingContext((record(0, location="classroom", event="lecture"),))
    assert classify_pattern(window) is ContextPattern.ONE_LOC_ONE_EVENT
    assert classify_pattern(window, event_focus=True) is ContextPattern.ONE_EVENT_ONE_LOC


def test_meetings_in_one_office_are_one_loc_many_events():
    window = StreamingContext(
        tuple(
            record(i * 30, location="office", event=f"meeting_{i}")
            for i in range(3)
        )
    )
    assert classify_pattern(window) is ContextPattern.ONE_LOC_MANY_EVENTS


def test_composite_window_is_reported():
    window = StreamingContext(
        (
            record(0, location="office", event="meeting_1"),
            record(30, location="train_1", event="take_train", super_event="travel_1"),
        )
    )
    with pytest.raises(CompositeWindowError) as exc:
        classify_pattern(window)
    assert exc.value.n_locations == 2
    assert exc.value.n_events == 2


def test_classification_invariant_under_reordering(travel_stream, travel_containment):
    records = list(travel_stream.records)
    shuffled = StreamingContext(tuple(sorted(records, key=lambda r: r.ts)))
    reversed_times = StreamingContext(
        tuple(
            StreamRecord(
                ts=rec.ts,
                super_location=other.super_location,
                super_event=other.super_event,
                location=other.location,
                event=other.event,
            )
            for rec, other in zip(records, reversed(records))
        )
    )
    expected = classify_pattern(shuffled, containment=travel_containment)
    assert classify_pattern(reversed_times, containment=travel_containment) is expected


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        classify_pattern(StreamingContext())


def test_timestamps_strictly_increasing_property():
    rng = random.Random(3)
    for _ in range(50):
        minutes = rng.sample(range(200), 12)
        records: tuple[StreamRecord, ...] = ()
        accepted: list[float] = []
        for m in minutes:
            try:
                records = StreamingContext(records + (record(m),)).records
                accepted.append(m)
            except TimestampOrderError:
                pass
        assert accepted == sorted(accepted)
        assert all(b.ts > a.ts for a, b in zip(records, records[1:]))


def test_streaming_context_constructor_enforces_order():
    with pytest.raises(TimestampOrderError):
        StreamingContext((record(10), record(5)))


def test_append_equal_timestamp_rejected():
    """A record whose timestamp equals the previous one's is rejected when
    the stream is built."""
    with pytest.raises(TimestampOrderError) as exc:
        StreamingContext((record(15), record(15)))
    assert exc.value.last == ts(15)
    assert exc.value.new == ts(15)


# -- super chains -------------------------------------------------------------

def test_super_of_location(travel_containment):
    assert super_of("train_1", travel_containment.location_parent) == ("trentino",)


def test_super_of_event(travel_containment):
    assert super_of("take_train", travel_containment.event_parent) == ("travel_1",)


def test_super_of_root_is_empty(travel_containment):
    assert super_of("trentino", travel_containment.location_parent) == ()


def test_super_of_unknown_id():
    with pytest.raises(UnknownIdError):
        super_of("atlantis", {"a": "b"})


def test_super_of_cycle_detected():
    with pytest.raises(CycleError) as exc:
        super_of("a", {"a": "b", "b": "c", "c": "a"})
    assert "a" in exc.value.path


class CountingMap(Mapping):
    """A parent map that counts the scans of its values."""

    def __init__(self, parents):
        self._parents = dict(parents)
        self.scans = 0

    def __getitem__(self, key):
        return self._parents[key]

    def __iter__(self):
        return iter(self._parents)

    def __len__(self):
        return len(self._parents)

    def values(self):
        self.scans += 1
        return self._parents.values()


def test_chain_checks_scan_each_parent_map_once(tmp_path):
    # 1,000 records whose ids are mostly unknown to the maps, with known
    # children and roots in between
    locations = CountingMap({f"room_{i}": f"floor_{i % 7}" for i in range(50)})
    events = CountingMap({f"step_{i}": f"task_{i % 5}" for i in range(50)})
    containment = Containment(location_parent=locations, event_parent=events)
    lines = [json.dumps({"format": "stream/1"})]
    for i in range(1000):
        room, step = f"room_{i % 50}", f"step_{i % 50}"
        location, event, super_event = [
            (f"nowhere_{i}", f"task_{i % 5}", None),
            (room, f"unheard_{i}", "task_0"),
            (f"nowhere_{i}", step, f"task_{i % 50 % 5}"),
        ][i % 3]
        lines.append(json.dumps({
            "ts": format_timestamp(ts(i)),
            "location": location,
            "super_location": f"floor_{i % 50 % 7}",
            "event": event,
            "super_event": super_event,
        }))
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    stream = load_stream(path, containment)
    assert len(stream) == 1000
    with pytest.raises(CompositeWindowError):
        classify_pattern(stream, containment=containment)
    assert locations.scans <= 1 and events.scans <= 1


def test_chain_checks_keep_their_errors():
    containment = Containment(location_parent={"a": "b", "b": "c"},
                              event_parent={"x": "y", "y": "x"})
    wrong_super = StreamRecord(ts=ts(0), location="a", super_location="z")
    with pytest.raises(SuperChainError, match="does not contain"):
        containment.check_record(wrong_super)
    cyclic = StreamRecord(ts=ts(0), event="x", super_event="y")
    with pytest.raises(CycleError):
        containment.check_record(cyclic)
    # a root has an empty chain; an unknown id passes unchecked
    with pytest.raises(SuperChainError, match=r"parent chain \[\]"):
        containment.check_record(StreamRecord(ts=ts(0), location="c", super_location="z"))
    containment.check_record(StreamRecord(ts=ts(0), location="q", super_location="z"))


# -- function assignments -----------------------------------------------------

def test_function_assignment_invariants():
    with pytest.raises(ValueError):
        FunctionAssignment("", holder="a", beneficiary="b")
    with pytest.raises(ValueError):
        FunctionAssignment("SelfCare", holder="a", beneficiary="a")
    fa = FunctionAssignment("FriendOf", holder="haonan", beneficiary="xiaoyue")
    assert (fa.holder, fa.beneficiary) == ("haonan", "xiaoyue")
