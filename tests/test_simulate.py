from __future__ import annotations

import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from contextstream import learn, simulate
from contextstream.core import FunctionAssignment, PersonEntry, StreamRecord
from contextstream.errors import InconsistentLabelError
from contextstream.hierarchy import Hierarchy
from contextstream.kg import snapshot_eg
from contextstream.labels import check_consistency, labels_from_eg, repair_downward
from contextstream.learn import OnlinePerceptron, QueryStrategy
from contextstream.simulate import (
    EmissionSpec,
    ScenarioScript,
    Segment,
    WindowSpec,
    aggregate_window,
    run_simulation,
)

from conftest import (reference_labels, reference_session, reference_ticks, reference_windows,
                      stacked)

UTC = timezone.utc
T0 = datetime(2021, 6, 2, 12, 0, tzinfo=UTC)


def ts(minutes: float):
    return T0 + timedelta(minutes=minutes)


def two_regime_script(n_pairs=2, segment_minutes=30.0, seed=7):
    """Alternating train/walk segments built on the travel fixture records."""
    train_record = StreamRecord(
        ts=T0, super_location="trentino", super_event="travel_1",
        location="train_1", event="take_train",
        my_actions=frozenset({"Sitting"}),
    )
    walk_record = StreamRecord(
        ts=T0, super_location="trentino", super_event="travel_1",
        location="roads_2", event="walk",
        my_actions=frozenset({"Walking"}),
    )
    segments = []
    for i in range(2 * n_pairs):
        begin = ts(i * segment_minutes)
        end = ts((i + 1) * segment_minutes)
        if i % 2 == 0:
            emissions = {
                "accelerometer_magnitude": EmissionSpec(1.1, 0.05),
                "bluetooth_count": EmissionSpec(8.0, 0.3),
                "gps_speed": EmissionSpec(17.0, 0.5),
            }
            record = train_record
        else:
            emissions = {
                "accelerometer_magnitude": EmissionSpec(9.4, 0.05),
                "bluetooth_count": EmissionSpec(2.0, 0.3),
                "gps_speed": EmissionSpec(1.4, 0.1),
            }
            record = walk_record
        segments.append(Segment(begin, end, emissions, record))
    return ScenarioScript(
        seed=seed,
        reading_interval_s=60.0,
        channels=("accelerometer_magnitude", "bluetooth_count", "gps_speed"),
        segments=tuple(segments),
    )


# -- scenario structure ---------------------------------------------------------

def test_script_rejects_overlaps_and_unknown_channels():
    record = StreamRecord(ts=T0)
    seg = Segment(ts(0), ts(30), {"a": EmissionSpec(0, 1)}, record)
    overlapping = Segment(ts(15), ts(45), {"a": EmissionSpec(0, 1)}, record)
    with pytest.raises(ValueError):
        ScenarioScript(1, 60.0, ("a",), (seg, overlapping))
    with pytest.raises(ValueError):
        ScenarioScript(1, 60.0, ("other",), (seg,))
    with pytest.raises(ValueError):
        Segment(ts(30), ts(30), {}, record)


def test_emission_spec_refuses_a_negative_or_nan_std():
    for std in (-0.5, float("nan")):
        with pytest.raises(ValueError, match="std must be >= 0"):
            EmissionSpec(1.0, std)
    assert EmissionSpec(1.0, 0.0).std == 0.0


def test_script_rejects_an_interval_that_rounds_to_no_time():
    seg = Segment(ts(0), ts(30), {"a": EmissionSpec(0, 1)}, StreamRecord(ts=T0))
    for interval in (1e-7, 0.0, -60.0):
        with pytest.raises(ValueError, match="microsecond"):
            ScenarioScript(1, interval, ("a",), (seg,))
    # a second of 1 us ticks: the 30-minute segment would hold more than MAX_SCRIPT_TICKS
    second = replace(seg, end=ts(0) + timedelta(seconds=1))
    assert ScenarioScript(1, 1e-6, ("a",), (second,)).step == timedelta(microseconds=1)


def test_script_refuses_more_ticks_than_the_cap():
    """A segment's ticks are counted with the ceiling: MAX_SCRIPT_TICKS
    minutes at 60 s a tick hold the cap, and 30 s more hold one tick more."""
    cap = simulate.MAX_SCRIPT_TICKS
    record = StreamRecord(ts=T0)
    at_cap = Segment(ts(0), ts(cap), {}, record)
    assert ScenarioScript(1, 60.0, (), (at_cap,)).ticks == (cap,)
    after = Segment(ts(cap + 1), ts(cap + 1.5), {}, record)
    with pytest.raises(ValueError, match=rf"hold {cap + 1} ticks .* MAX_SCRIPT_TICKS \({cap}\)"):
        ScenarioScript(1, 60.0, (), (at_cap, after))


def script_ending_with(record):
    """A clean travel segment, then a 10-minute segment that plays `record`."""
    clean = two_regime_script().segments[0].record
    return ScenarioScript(1, 60.0, ("a",), (
        Segment(ts(0), ts(10), {"a": EmissionSpec(0, 1)}, clean),
        Segment(ts(10), ts(20), {"a": EmissionSpec(0, 1)}, record),
    ))


def test_run_simulation_refuses_unknown_entities(travel_hierarchy, travel_etg, travel_eg):
    """An empty id is a reference too, not a missing one."""
    for location in ("atlantis", ""):
        record = StreamRecord(ts=T0, location=location, my_actions=frozenset({"Sitting"}))
        with pytest.raises(ValueError, match=r"1 finding\(s\): \[unresolved\] segment 1: "
                                             rf"location '{location}' not in the EG$"):
            run_simulation(script_ending_with(record), travel_hierarchy, travel_etg, travel_eg)


def test_run_simulation_refuses_unknown_beneficiaries(travel_hierarchy, travel_etg, travel_eg):
    nobody = FunctionAssignment("FriendOf", "haonan", "nobody")
    records = {
        "FriendOf": StreamRecord(ts=T0, person_entries=(PersonEntry(nobody, frozenset()),)),
        "RestToolOf": StreamRecord(
            ts=T0, object_entries=(FunctionAssignment("RestToolOf", "seat_1", "nobody"),)),
    }
    for function, record in records.items():
        expected = (rf"1 finding\(s\): \[unresolved\] segment 1 {function}\(nobody, \w+\): "
                    r"endpoint entity not found$")
        with pytest.raises(ValueError, match=expected):
            run_simulation(script_ending_with(record), travel_hierarchy, travel_etg, travel_eg)


def test_run_simulation_refuses_undeclared_functions(travel_hierarchy, travel_etg, travel_eg):
    enemy = FunctionAssignment("EnemyOf", "haonan", "xiaoyue")
    records = [
        StreamRecord(ts=T0, person_entries=(PersonEntry(enemy, frozenset()),)),
        StreamRecord(ts=T0, object_entries=(FunctionAssignment("EnemyOf", "seat_1", "xiaoyue"),)),
    ]
    for record in records:
        expected = (r"1 finding\(s\): \[unresolved\] segment 1 EnemyOf\(xiaoyue, \w+\): "
                    r"property 'EnemyOf' not declared$")
        with pytest.raises(ValueError, match=expected):
            run_simulation(script_ending_with(record), travel_hierarchy, travel_etg, travel_eg)


def test_run_simulation_refuses_an_unknown_super_location_before_drawing(
    travel_hierarchy, travel_etg, travel_eg
):
    """The script's only emission is infinite, so a draw would fail first."""
    record = replace(two_regime_script().segments[0].record, super_location="atlantis")
    script = ScenarioScript(1, 60.0, ("a",), (
        Segment(ts(0), ts(10), {"a": EmissionSpec(float("inf"), 0.0)}, record),))
    with pytest.raises(ValueError, match=r"1 finding\(s\): \[unresolved\] segment 0: "
                                         r"super location 'atlantis' not in the EG$"):
        run_simulation(script, travel_hierarchy, travel_etg, travel_eg)


# -- sensor path against the per-tick reference ----------------------------------------

def mixed_script(seed=5):
    """Segments that meet and segments with gaps between them, a 50 s tick
    that divides no segment, a channel one segment does not emit, a segment
    that emits nothing, and a channel with std 0. The last segment but one
    ends 5 s after its tenth tick, so a 1-minute window of its last two ticks
    also takes the next segment's first tick."""
    train, walk = (seg.record for seg in two_regime_script().segments[:2])
    full = {"a": EmissionSpec(1.1, 0.05), "b": EmissionSpec(8.0, 0.3), "c": EmissionSpec(4.25, 0.0)}
    no_b = {"a": EmissionSpec(9.4, 0.2), "c": EmissionSpec(-2.0, 0.0)}
    segments = (
        Segment(ts(0), ts(7), full, train),
        Segment(ts(7), ts(16), no_b, walk),
        Segment(ts(20.5), ts(41), full, train),
        Segment(ts(41), ts(43), {}, walk),
        Segment(ts(43), ts(75), no_b, walk),
        Segment(ts(140), ts(141), full, train),
        Segment(ts(150), ts(150) + timedelta(seconds=455), full, train),
        Segment(ts(150) + timedelta(seconds=455), ts(160), no_b, walk),
    )
    return ScenarioScript(seed, 50.0, ("a", "b", "c"), segments)


def assert_matches_reference(result, script, spec, h, etg, eg, seed=None):
    expected = reference_windows(script, spec, seed)
    assert len(result.events) == len(expected)
    for event, (begin, end, features, record) in zip(result.events, expected):
        assert (event.begin, event.end) == (begin, end)
        assert event.features.dtype == features.dtype
        assert event.features.tobytes() == features.tobytes()
        assert np.array_equal(event.truth, labels_from_eg(h, snapshot_eg(eg, record, etg), etg))


def reference_readings(script, channel, begin, end):
    """The reference path's readings of `channel` at ticks in [begin, end)."""
    return [v for t, readings, _ in reference_ticks(script) if begin <= t < end
            for c, v in readings if c == channel]


# Ticks per draw of whole windows: one window a draw, a few short windows a
# draw, and the default
CHUNKS = [1, 7, simulate.CHUNK_TICKS]


@pytest.mark.parametrize("minutes", [1.0, 5.0, 30.0])
def test_run_simulation_matches_reference(
    minutes, monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """Heads that close a window open from earlier segments, whole windows
    summed a draw at a time, and tails that open the next window give the
    reference features bit for bit at every chunk size."""
    script = mixed_script()
    spec = WindowSpec.means(script.channels, minutes)
    for chunk_ticks in CHUNKS:
        monkeypatch.setattr(simulate, "CHUNK_TICKS", chunk_ticks)
        result = run_simulation(script, travel_hierarchy, travel_etg, travel_eg,
                                window_spec=spec)
        assert_matches_reference(result, script, spec, travel_hierarchy, travel_etg, travel_eg)
    # the cases the script is built for all occur: a window with no b, a
    # stretch with no window, and a window whose ticks come from two segments
    windows = reference_windows(script, spec)
    assert any(f[spec.manifest.index("b:empty")] == 1.0 for _, _, f, _ in windows)
    assert any(nxt[0] > prev[1] for prev, nxt in zip(windows, windows[1:]))

    def segment_of(t):
        return next(i for i, seg in enumerate(script.segments) if seg.begin <= t < seg.end)

    assert any(segment_of(b) != segment_of(record.ts) for b, _, _, record in windows)


def test_each_segment_is_labelled_once(
    monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """Four distinct records: a 2-minute segment, shorter than the 5-minute
    windows, a window that spans two segments and one that spans a gap.
    Each segment's record is snapshotted and labelled once, and every window
    carries the labels of the record at its last tick."""
    base = two_regime_script().segments[0].record
    friend = PersonEntry(FunctionAssignment("FriendOf", "haonan", "xiaoyue"),
                         frozenset({"Listening"}))
    records = [
        replace(base, object_entries=(FunctionAssignment("RestToolOf", "seat_1", "xiaoyue"),)),
        replace(base, location="roads_2", event="walk", my_actions=frozenset({"Walking"})),
        replace(base, location="roads_2", event="walk", person_entries=(friend,)),
        StreamRecord(ts=T0, location="train_1"),
    ]
    bounds = [(0, 7), (7, 9), (9, 16), (20.5, 31)]
    emissions = {"a": EmissionSpec(1.0, 0.1)}
    script = ScenarioScript(3, 50.0, ("a",), tuple(
        Segment(ts(b), ts(e), emissions, r) for (b, e), r in zip(bounds, records)))
    spec = WindowSpec(5.0, ("a",))
    calls = {"snapshot_eg": 0, "labels_from_eg": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, original in (("snapshot_eg", snapshot_eg), ("labels_from_eg", labels_from_eg)):
        monkeypatch.setattr(simulate, name, counted(name, original))
    result = run_simulation(script, travel_hierarchy, travel_etg, travel_eg, window_spec=spec)
    assert calls == {"snapshot_eg": 4, "labels_from_eg": 4}

    windows = reference_windows(script, spec)
    assert len(result.events) == len(windows)
    for event, (begin, _, _, record) in zip(result.events, windows):
        assert event.begin == begin
        snapshot = snapshot_eg(travel_eg, record, travel_etg)
        assert np.array_equal(event.truth, reference_labels(travel_hierarchy, snapshot, travel_etg))
    assert len({tuple(e.truth) for e in result.events}) == 3  # one record ends no window

    def segment_of(t):
        return next(i for i, seg in enumerate(script.segments) if seg.begin <= t < seg.end)

    spans = {(segment_of(b), segment_of(record.ts)) for b, _, _, record in windows}
    assert (0, 2) in spans and (2, 3) in spans


@pytest.mark.parametrize("seed", [None, 11])
def test_run_simulation_matches_reference_on_fixtures(
    seed, monkeypatch, travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    for chunk_ticks in CHUNKS:
        monkeypatch.setattr(simulate, "CHUNK_TICKS", chunk_ticks)
        for script in (travel_scenario, two_regime_script(n_pairs=3, segment_minutes=7.0)):
            spec = WindowSpec.means(script.channels, 5.0)
            seeded = script if seed is None else replace(script, seed=seed)
            result = run_simulation(seeded, travel_hierarchy, travel_etg, travel_eg,
                                    window_spec=spec)
            assert_matches_reference(
                result, script, spec, travel_hierarchy, travel_etg, travel_eg, seed)


def day_at_1hz():
    """A day at 1 Hz in one segment."""
    record = two_regime_script().segments[0].record
    emissions = {"a": EmissionSpec(1.0, 0.1), "b": EmissionSpec(2.0, 0.5)}
    return ScenarioScript(2, 1.0, ("a", "b"), (Segment(ts(0), ts(24 * 60), emissions, record),))


def test_no_draw_asks_for_more_than_a_chunk(
    monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """A day at 1 Hz in one segment is drawn CHUNK_TICKS ticks at a time, or
    one window at a time when a window holds more (a 2-hour window holds
    7,200 ticks), so the readings in memory do not grow with the segment's
    length."""
    default_rng = np.random.default_rng
    drawn = []

    class RecordingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size):
            drawn.append(size[0])
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
    for minutes in (1, 120):
        drawn.clear()
        result = run_simulation(day_at_1hz(), travel_hierarchy, travel_etg, travel_eg,
                                window_spec=WindowSpec(minutes, ("a", "b")))
        assert result.metrics["n_windows"] == 24 * 60 // minutes
        assert sum(drawn) == 24 * 60 * 60
        assert max(drawn) <= max(simulate.CHUNK_TICKS, 60 * minutes)


def test_only_the_window_at_the_segment_end_is_built_from_pieces(
    monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """On a day at 1 Hz in one segment, every 1-minute window's features
    come from aggregate_window: the 1,439 whole windows CHUNK_TICKS // 60
    per call, and the last, which the segment's end cuts, alone from its
    pieces."""
    calls = []

    def counted(samples, spec, n=1):
        calls.append(n)
        return aggregate_window(samples, spec, n)

    monkeypatch.setattr(simulate, "aggregate_window", counted)
    result = run_simulation(day_at_1hz(), travel_hierarchy, travel_etg, travel_eg,
                            window_spec=WindowSpec(1.0, ("a", "b")))
    assert sum(calls) == result.metrics["n_windows"] == 24 * 60
    per_call = simulate.CHUNK_TICKS // 60
    assert calls == [per_call] * (1439 // per_call) + [1439 % per_call, 1]


def test_run_simulation_non_finite_reading_names_the_channel(
    travel_hierarchy, travel_etg, travel_eg
):
    record = two_regime_script().segments[0].record
    emissions = {"a": EmissionSpec(1.0, 0.1), "b": EmissionSpec(float("inf"), 0.0)}
    script = ScenarioScript(
        1, 60.0, ("a", "b"), (Segment(ts(0), ts(10), emissions, record),),
    )
    with pytest.raises(ValueError, match="non-finite reading on channel 'b'"):
        run_simulation(script, travel_hierarchy, travel_etg, travel_eg)


def test_run_simulation_zero_variance_constant(travel_hierarchy, travel_etg, travel_eg):
    record = StreamRecord(ts=T0, location="train_1")
    script = ScenarioScript(
        3, 60.0, ("a",),
        (Segment(ts(0), ts(5), {"a": EmissionSpec(4.25, 0.0)}, record),),
    )
    spec = WindowSpec(5.0, ("a",))
    result = run_simulation(script, travel_hierarchy, travel_etg, travel_eg, window_spec=spec)
    assert [e.features.tolist() for e in result.events] == [[4.25, 0.0]]


def test_run_simulation_two_regimes_statistics(
    travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    spec = WindowSpec(30.0, ("accelerometer_magnitude",))
    result = run_simulation(travel_scenario, travel_hierarchy, travel_etg, travel_eg,
                            window_spec=spec)
    (train_mean, _), (walk_mean, _) = [e.features for e in result.events]
    train, walk = (
        reference_readings(travel_scenario, "accelerometer_magnitude", e.begin, e.end)
        for e in result.events
    )
    assert (len(train), len(walk)) == (30, 25)
    assert (train_mean, walk_mean) == (np.mean(train), np.mean(walk))
    assert abs(train_mean - 1.1) < 0.1
    assert abs(walk_mean - 9.4) < 0.2


def test_run_simulation_ground_truth_matches_script(
    travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
    )
    train = travel_hierarchy.index_of("entity:train_1")
    roads = travel_hierarchy.index_of("entity:roads_2")
    for event in result.events:
        assert bool(event.truth[train]) == (event.begin < ts(30))
        assert bool(event.truth[roads]) == (event.begin >= ts(30))


def test_window_spanning_two_segments_takes_the_last_ticks_label(
    travel_hierarchy, travel_etg, travel_eg
):
    """Segments of 7 minutes, windows of 5: the window [5, 10) holds two
    train ticks and three walk ticks, and walk labels it."""
    script = two_regime_script(n_pairs=1, segment_minutes=7.0)
    spec = WindowSpec(5.0, ("accelerometer_magnitude",))
    result = run_simulation(script, travel_hierarchy, travel_etg, travel_eg, window_spec=spec)
    straddling = result.events[1]
    assert (straddling.begin, straddling.end) == (ts(5), ts(10))
    mean, empty = straddling.features
    readings = reference_readings(script, "accelerometer_magnitude", ts(5), ts(10))
    assert len(readings) == 5 and mean == np.mean(readings) and empty == 0.0
    assert 1.1 < mean < 9.4
    walk = travel_hierarchy.index_of("entity:walk")
    take_train = travel_hierarchy.index_of("entity:take_train")
    assert straddling.truth[walk] and not straddling.truth[take_train]


# -- window aggregation -------------------------------------------------------------

def test_aggregate_mean_example():
    spec = WindowSpec(30.0, ("bluetooth_count",))
    x = aggregate_window({"bluetooth_count": np.array([[3.0, 5.0, 4.0]])}, spec)
    assert spec.manifest == ("bluetooth_count:mean", "bluetooth_count:empty")
    assert x.dtype == np.float64
    assert x.tolist() == [[4.0, 0.0]]
    # n windows of m readings each give n rows, one per window
    two = aggregate_window({"bluetooth_count": np.array([[3.0, 5.0, 4.0], [1.0, 2.0, 6.0]])},
                           spec, 2)
    assert two.tolist() == [[4.0, 0.0], [3.0, 0.0]]


def test_aggregate_empty_window_zeros_and_flags():
    spec = WindowSpec(30.0, ("b", "a"))
    assert spec.manifest == ("a:mean", "a:empty", "b:mean", "b:empty")
    for samples in ({}, {"a": np.empty((1, 0)), "b": np.empty((1, 0))}):
        assert aggregate_window(samples, spec).tolist() == [[0.0, 1.0, 0.0, 1.0]]
    assert aggregate_window({}, spec, 2).tolist() == [[0.0, 1.0, 0.0, 1.0]] * 2
    # a channel outside the spec is ignored; one without readings is flagged
    x = aggregate_window({"b": np.array([[2.0, 4.0]]), "z": np.array([[9.0]])}, spec)
    assert x.tolist() == [[0.0, 1.0, 3.0, 0.0]]


def test_aggregate_refuses_a_mean_that_overflows():
    """Each reading is finite, but two of them sum past the largest float."""
    spec = WindowSpec(30.0, ("a", "b"))
    with pytest.raises(ValueError, match="window mean on channel 'b' is not finite"):
        aggregate_window({"a": np.array([[1.0, 2.0]]), "b": np.array([[1.7e308, 1.7e308]])}, spec)


def test_aggregate_matches_independent_recompute(travel_scenario):
    spec = WindowSpec.means(travel_scenario.channels, 30.0)
    first_window = [
        r for t, readings, _ in reference_ticks(travel_scenario) if t < ts(30) for r in readings
    ]
    samples = {
        ch: np.array([[v for c, v in first_window if c == ch]]) for ch in travel_scenario.channels
    }
    x = aggregate_window(samples, spec)
    assert x.shape == (1, 2 * len(travel_scenario.channels))
    for ch in travel_scenario.channels:
        values = [v for c, v in first_window if c == ch]
        assert x[0, spec.manifest.index(f"{ch}:mean")] == pytest.approx(sum(values) / len(values))
        assert x[0, spec.manifest.index(f"{ch}:empty")] == 0.0


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, ())
    spec = WindowSpec(5, ("b", "a", "b"))
    assert spec.channels == ("a", "b")
    assert spec.manifest == ("a:mean", "a:empty", "b:mean", "b:empty")
    assert spec.manifest is spec.manifest  # built once per spec
    assert WindowSpec.means(["b", "a"], 5) == spec


def test_window_spec_rejects_a_length_that_rounds_to_no_time():
    for minutes in (1e-9, 0.0, -5.0):
        with pytest.raises(ValueError, match="microsecond"):
            WindowSpec(minutes, ())
    with pytest.raises(ValueError, match="too large"):
        WindowSpec(1e300, ())
    with pytest.raises(ValueError, match="window length must be a number"):
        WindowSpec(float("nan"), ())
    assert WindowSpec(1e-6 / 60, ()).length_minutes == 1e-6 / 60


def test_run_simulation_refuses_a_window_past_the_last_date_before_drawing(
    travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    """1e10 minutes fits a timedelta but not a date after the script's end.
    The script's only reading is infinite, so a draw would fail otherwise."""
    record = two_regime_script().segments[0].record
    script = ScenarioScript(
        1, 60.0, ("a",), (Segment(ts(0), ts(10), {"a": EmissionSpec(float("inf"), 0.0)}, record),),
    )
    with pytest.raises(ValueError, match="window length of 10000000000.0 minutes"):
        run_simulation(script, travel_hierarchy, travel_etg, travel_eg,
                       window_spec=WindowSpec(1e10, ("a",)))
    # a window as long as a million minutes still fits: the session is one window
    result = run_simulation(travel_scenario, travel_hierarchy, travel_etg, travel_eg,
                            window_spec=WindowSpec.means(travel_scenario.channels, 1e6))
    assert result.metrics["n_windows"] == 1


def test_run_simulation_refuses_a_window_of_too_many_ticks_before_drawing(
    travel_hierarchy, travel_etg, travel_eg
):
    """At 60 s a tick, a window of MAX_WINDOW_TICKS minutes holds exactly the
    cap and one a minute longer holds a tick too many. The script's only
    reading is infinite, so a draw would fail otherwise."""
    record = two_regime_script().segments[0].record
    script = ScenarioScript(
        1, 60.0, ("a",), (Segment(ts(0), ts(10), {"a": EmissionSpec(float("inf"), 0.0)}, record),),
    )
    cap = simulate.MAX_WINDOW_TICKS
    with pytest.raises(ValueError, match=rf"holds {cap + 1} ticks .* MAX_WINDOW_TICKS \({cap}\)"):
        run_simulation(script, travel_hierarchy, travel_etg, travel_eg,
                       window_spec=WindowSpec(cap + 1, ("a",)))
    with pytest.raises(ValueError, match="non-finite reading"):
        run_simulation(script, travel_hierarchy, travel_etg, travel_eg,
                       window_spec=WindowSpec(cap, ("a",)))


def test_example_pairs_window_features_with_labels(travel_hierarchy, travel_etg, travel_eg):
    spec = WindowSpec(30.0, ("bluetooth_count",))
    x = aggregate_window({"bluetooth_count": np.array([[4.0]])}, spec)
    record = StreamRecord(ts=ts(30), location="train_1", event="take_train",
                          super_event="travel_1")
    y = labels_from_eg(travel_hierarchy, snapshot_eg(travel_eg, record, travel_etg), travel_etg)
    assert x.tolist() == [[4.0, 0.0]]
    assert check_consistency(travel_hierarchy, y) == []


# -- full simulation -----------------------------------------------------------------

def test_run_simulation_travel(travel_scenario, travel_hierarchy, travel_etg, travel_eg):
    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
    )
    assert result.metrics["n_windows"] == 11
    assert result.metrics["n_queries"] == 11
    for event in result.events:
        assert check_consistency(travel_hierarchy, event.truth) == []
        assert check_consistency(travel_hierarchy, event.prediction) == []
    # regime split: 6 train windows then 5 walk windows
    walk_idx = travel_hierarchy.index_of("entity:walk")
    truth_walk = [bool(e.truth[walk_idx]) for e in result.events]
    assert truth_walk == [False] * 6 + [True] * 5


def test_run_simulation_never_strategy_trains_nothing(
    monkeypatch, travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    calls = []
    monkeypatch.setattr(OnlinePerceptron, "update", lambda *args: calls.append(args))
    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
        strategy=QueryStrategy("never"),
    )
    assert result.metrics["n_queries"] == 0
    assert calls == []
    assert not any(e.prediction.any() for e in result.events)


def test_run_simulation_reproducible(tmp_path, travel_scenario, travel_hierarchy, travel_etg,
                                    travel_eg):
    from contextstream.io import save_runlog

    runs = [
        run_simulation(
            travel_scenario, travel_hierarchy, travel_etg, travel_eg,
            window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
        )
        for _ in range(2)
    ]
    lines = []
    for i, r in enumerate(runs):
        save_runlog(tmp_path / f"run{i}.jsonl", r.node_order, r.manifest, r.seed, r.events)
        lines.append((tmp_path / f"run{i}.jsonl").read_text().splitlines())
    assert lines[0] == lines[1]
    assert runs[0].metrics == runs[1].metrics


def test_run_simulation_seed_changes_stream(travel_scenario, travel_hierarchy, travel_etg, travel_eg):
    spec = WindowSpec.means(travel_scenario.channels, 5.0)
    a = run_simulation(replace(travel_scenario, seed=1), travel_hierarchy, travel_etg,
                       travel_eg, window_spec=spec)
    b = run_simulation(replace(travel_scenario, seed=2), travel_hierarchy, travel_etg,
                       travel_eg, window_spec=spec)
    assert a.seed != b.seed
    assert not np.array_equal(a.events[0].features, b.events[0].features)


def test_two_regime_learning_improves(travel_hierarchy, travel_etg, travel_eg):
    script = two_regime_script(n_pairs=6)
    result = run_simulation(
        script, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(script.channels, 5.0),
    )
    preds, truths = stacked(result)
    late = (preds[-24:] == truths[-24:]).mean()
    early = (preds[:24] == truths[:24]).mean()
    assert late >= early
    assert late >= 0.95


def test_training_accuracy_monotone_over_blocks(travel_hierarchy, travel_etg, travel_eg):
    script = two_regime_script(n_pairs=25)
    result = run_simulation(
        script, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(script.channels, 5.0),
    )
    preds, truths = stacked(result)
    correct = preds == truths
    blocks = [float(correct[i:i + 50].mean()) for i in range(0, len(correct) - 49, 50)]
    assert len(blocks) >= 5
    drops = sum(1 for a, b in zip(blocks, blocks[1:]) if b < a - 1e-12)
    assert drops <= 2, f"accuracy dropped {drops} times across blocks {blocks}"


# -- one pass per window --------------------------------------------------------------

STRATEGIES = ["always", "never", "margin:0.0", "margin:0.5"]


def labelled_nodes_only(h, result):
    """`h` cut to the nodes some window of `result` labels. That set is
    closed upward, so the cut keeps its edges reduced. On the full travel
    hierarchy a node no window labels keeps a zero score, so "margin" asks
    for labels on every window."""
    keep = {h.node_order[i] for i in np.flatnonzero(stacked(result)[1].any(axis=0))}
    return Hierarchy([h.nodes[n] for n in keep], [e for e in h.edges if e[0] in keep], h.root)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_simulation_equals_the_public_learner_calls(
    strategy, travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    """Scoring once per window and checking each truth once change nothing:
    events and metrics equal `reference_session`, which spells the learning
    rule out per window in the test code, bit for bit, under every
    strategy."""
    regimes = two_regime_script(n_pairs=6)
    cut = labelled_nodes_only(travel_hierarchy, run_simulation(
        regimes, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(regimes.channels, 5.0)))
    queries = []
    for h, script, seed in ((travel_hierarchy, regimes, None), (cut, regimes, None),
                            (travel_hierarchy, mixed_script(), 3),
                            (travel_hierarchy, travel_scenario, None)):
        spec = WindowSpec.means(script.channels, 5.0)
        seeded = script if seed is None else replace(script, seed=seed)
        result = run_simulation(seeded, h, travel_etg, travel_eg, window_spec=spec,
                                strategy=QueryStrategy.parse(strategy))
        events, metrics = reference_session(script, h, travel_etg, travel_eg, spec,
                                            QueryStrategy.parse(strategy), seed)
        assert len(result.events) == len(events)
        for got, (x, prediction, truth, queried) in zip(result.events, events):
            assert got.features.tobytes() == x.tobytes()
            assert got.prediction.tobytes() == prediction.tobytes()
            assert got.truth.tobytes() == truth.tobytes()
            assert got.queried is queried
        assert result.metrics == metrics
        queries.append(metrics["n_queries"] / metrics["n_windows"])
    if strategy.startswith("margin"):
        # on the cut hierarchy the margin decides both ways
        assert queries[0] == 1.0 and 0 < queries[1] < 1


def learner_log(monkeypatch):
    """Wraps `OnlinePerceptron.scores` and `OnlinePerceptron.update`; returns
    the list they append to, in call order: ("scores", xs, s) and ("update",
    x, y, s), each array a copy."""
    log = []
    scores, update = OnlinePerceptron.scores, OnlinePerceptron.update

    def logged_scores(self, xs):
        s = scores(self, xs)
        log.append(("scores", np.array(xs), s.copy()))
        return s

    def logged_update(self, x, y, s):
        log.append(("update", np.array(x), np.array(y), np.array(s)))
        return update(self, x, y, s)

    monkeypatch.setattr(OnlinePerceptron, "scores", logged_scores)
    monkeypatch.setattr(OnlinePerceptron, "update", logged_update)
    return log


@pytest.mark.parametrize("strategy", ["always", "never", "margin:0.5"])
def test_each_window_is_scored_once_and_each_truth_checked_once(
    strategy, monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """Each window's prediction, query decision and update come from one row
    of scores made under the model of its turn. Replaying the learner's calls
    with a model of the test's own: every call scores the windows that come
    next, in order, under the model of every update before it; its rows up to
    the first queried row whose raw bits miss the truth are those windows'
    decisions, and that row, and only it, updates the model next. The rows
    after it are the only ones scored again, so rows scored equal windows
    plus those, which never outnumber the windows. Each truth is checked once."""
    script = mixed_script()
    h = travel_hierarchy
    parsed = QueryStrategy.parse(strategy)
    update = OnlinePerceptron.update  # the replay's own, not the logged one
    log = learner_log(monkeypatch)
    checks = []
    check = learn.check_consistency
    monkeypatch.setattr(learn, "check_consistency", lambda h, y: checks.append(y) or check(h, y))
    result = run_simulation(script, h, travel_etg, travel_eg,
                            window_spec=WindowSpec.means(script.channels, 5.0), strategy=parsed)
    events = result.events
    model = OnlinePerceptron.zeros(len(h), len(result.manifest))
    done = rows = again = 0
    for n, (kind, xs, s, *_) in enumerate(log):
        if kind == "update":
            continue
        rows += len(xs)
        assert s.tobytes() == np.array([model.weights @ x + model.bias for x in xs]).tobytes()
        window = events[done:done + len(xs)]
        assert len(window) == len(xs)
        mover = None
        for j, (e, x, row) in enumerate(zip(window, xs, s)):
            assert e.features.tobytes() == x.tobytes()
            raw = (row > 0).astype(np.uint8)
            assert e.prediction.tobytes() == repair_downward(h, raw).tobytes()
            assert e.queried is (parsed.kind == "always" or parsed.kind == "margin"
                                 and bool((np.abs(row) <= parsed.tau).any()))
            if e.queried and not np.array_equal(raw, e.truth):
                mover = j
                break
        following = log[n + 1] if n + 1 < len(log) else None
        if mover is None:
            assert following is None or following[0] == "scores"
            done += len(xs)
            continue
        kind, x, y, row = following
        assert kind == "update"
        assert (x.tobytes(), y.tobytes(), row.tobytes()) == (
            xs[mover].tobytes(), events[done + mover].truth.tobytes(), s[mover].tobytes())
        update(model, x, y, row)
        again += len(xs) - mover - 1
        done += mover + 1
    assert done == len(events) > len(script.segments)
    assert rows == len(events) + again and again <= len(events)
    if strategy == "always":
        assert again > 0  # some update falls inside a run of rows
    assert len(checks) == len(script.segments)
    for event in events:
        assert not event.truth.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            event.truth[0] = 1


def noisy_script(seed=0):
    """Four 40-minute segments of train and walk whose one channel overlaps
    (mean 1.0 against 1.5, std 1.0), so the perceptron keeps erring: its
    model changes at windows all through the session."""
    train, walk = (seg.record for seg in two_regime_script().segments[:2])
    return ScenarioScript(seed, 60.0, ("a",), tuple(
        Segment(ts(40 * i), ts(40 * (i + 1)), {"a": EmissionSpec(1.0 + 0.5 * (i % 2), 1.0)},
                (train, walk)[i % 2])
        for i in range(4)))


@pytest.mark.parametrize("strategy", ["always", "never", "margin:0.5"])
def test_model_changes_at_block_edges_match_the_reference(
    strategy, monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """A block is the whole windows of one draw (four 2-minute windows at 8
    ticks a draw) or a window built from pieces. On the noisy script the
    model changes on the first row of a block, on its last row, and on two
    rows of one block; events and metrics still equal `reference_session`
    bit for bit, at that chunk size and the default. However often the
    model changes, the rows scored again never outnumber the windows."""
    script = noisy_script()
    spec = WindowSpec.means(script.channels, 2.0)
    parsed = QueryStrategy.parse(strategy)
    aggregate, scores, update = aggregate_window, OnlinePerceptron.scores, OnlinePerceptron.update
    cases = set()
    for chunk_ticks in (8, simulate.CHUNK_TICKS):
        blocks = []  # per block: its features and the rows that updated the model
        rows = []

        def logged_scores(self, xs):
            rows.append(len(xs))
            return scores(self, xs)

        def logged_aggregate(samples, spec, n=1):
            xs = aggregate(samples, spec, n)
            blocks.append((xs, []))
            return xs

        def logged_update(self, x, y, s):
            xs, moved = blocks[-1]
            moved.append(next(j for j, row in enumerate(xs) if row.tobytes() == x.tobytes()))
            return update(self, x, y, s)

        with monkeypatch.context() as m:
            m.setattr(simulate, "CHUNK_TICKS", chunk_ticks)
            m.setattr(simulate, "aggregate_window", logged_aggregate)
            m.setattr(OnlinePerceptron, "scores", logged_scores)
            m.setattr(OnlinePerceptron, "update", logged_update)
            result = run_simulation(script, travel_hierarchy, travel_etg, travel_eg,
                                    window_spec=spec, strategy=parsed)
        assert len(result.events) <= sum(rows) <= 2 * len(result.events)
        events, metrics = reference_session(script, travel_hierarchy, travel_etg, travel_eg,
                                            spec, parsed)
        assert len(result.events) == len(events)
        for got, (x, prediction, truth, queried) in zip(result.events, events):
            assert got.features.tobytes() == x.tobytes()
            assert got.prediction.tobytes() == prediction.tobytes()
            assert got.truth.tobytes() == truth.tobytes()
            assert got.queried is queried
        assert result.metrics == metrics
        for xs, moved in blocks:
            if len(xs) > 1:
                cases |= {"first"} if 0 in moved else set()
                cases |= {"last"} if len(xs) - 1 in moved else set()
                cases |= {"two"} if len(moved) > 1 else set()
    assert cases == (set() if strategy == "never" else {"first", "last", "two"})


def test_a_scenario_with_many_windows_doubles_linearly(
    monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """One long segment at 10 s ticks, 600 and then 1,200 one-minute windows,
    with the score cap at 8 rows: no call scores more rows than the cap, the
    `repair_downward` calls grow no faster than the windows, and the
    tracemalloc peak of the run grows less than 2.5 times. The cap itself is
    read off the calls: the peak grows linearly with or without it, because
    a block never holds more windows than a draw."""
    h = travel_hierarchy
    record = two_regime_script().segments[0].record
    emissions = {"a": EmissionSpec(1.0, 0.1), "b": EmissionSpec(2.0, 0.5)}
    monkeypatch.setattr(simulate, "BLOCK_SCORES", 8 * len(h) + 3)
    rows, repairs = [], []
    scores, repair = OnlinePerceptron.scores, learn.repair_downward
    monkeypatch.setattr(OnlinePerceptron, "scores",
                        lambda self, xs: rows.append(len(xs)) or scores(self, xs))
    monkeypatch.setattr(learn, "repair_downward", lambda h, y: repairs.append(1) or repair(h, y))
    peaks, calls = [], []
    for hours in (10, 10, 20):  # the first run fills the hierarchy's lazy caches
        script = ScenarioScript(4, 10.0, ("a", "b"), (
            Segment(ts(0), ts(60 * hours), emissions, record),))
        rows.clear()
        repairs.clear()
        tracemalloc.start()
        try:
            result = run_simulation(script, h, travel_etg, travel_eg,
                                    window_spec=WindowSpec(1.0, ("a", "b")))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(result.events) == 60 * hours
        assert max(rows) == 8
        calls.append(len(repairs))
    assert calls[2] <= 2 * calls[1]
    assert peaks[2] < 2.5 * peaks[1]


class _CountedName(str):
    """A channel name that counts its comparisons and its hashes."""

    calls = 0

    def __eq__(self, other):
        _CountedName.calls += 1
        return str.__eq__(self, other)

    def __hash__(self):
        _CountedName.calls += 1
        return str.__hash__(self)


def test_checking_a_scenarios_channels_doubles_linearly():
    """ROADMAP item 11: a script of n and then 2n channels, with a one-minute
    segment per 10 channels that emits one of them, is checked with
    comparisons and hashes of channel names that grow less than 2.5 times.
    Counting each channel's copies in the whole list, or a set of the
    channels built per segment, makes them grow 4 times. A repeated channel
    is still refused by name."""
    record = two_regime_script().segments[0].record
    calls = []
    for n in (500, 1000):
        channels = tuple(_CountedName(f"c{i:05d}") for i in range(n))
        segments = tuple(Segment(ts(i), ts(i + 1), {channels[10 * i]: EmissionSpec(0.0, 1.0)},
                                 record) for i in range(n // 10))
        _CountedName.calls = 0
        ScenarioScript(1, 60.0, channels, segments)
        calls.append(_CountedName.calls)
    assert 0 < calls[1] < 2.5 * calls[0], calls
    with pytest.raises(ValueError, match=r"channels listed more than once: \['c00007'\]"):
        ScenarioScript(1, 60.0, channels + channels[7:8], segments)


def test_run_simulation_refuses_an_inconsistent_truth_before_drawing(
    monkeypatch, travel_hierarchy, travel_etg, travel_eg
):
    """The second segment's labels set train_1 without its region. The
    first segment's only emission is infinite, so a draw would fail first."""
    h = travel_hierarchy
    labelled = []

    def inconsistent_after_the_first(h, snapshot, etg):
        y = labels_from_eg(h, snapshot, etg)
        if labelled:
            y = np.zeros_like(y)
            y[h.index_of("entity:train_1")] = 1
        labelled.append(y)
        return y

    monkeypatch.setattr(simulate, "labels_from_eg", inconsistent_after_the_first)
    record = two_regime_script().segments[0].record
    script = ScenarioScript(1, 60.0, ("a",), (
        Segment(ts(0), ts(10), {"a": EmissionSpec(float("inf"), 0.0)}, record),
        Segment(ts(10), ts(20), {"a": EmissionSpec(1.0, 0.1)}, record),
    ))
    for strategy in ("always", "never"):
        labelled.clear()
        with pytest.raises(InconsistentLabelError,
                           match="sets entity:train_1 without its parent entity:trentino"):
            run_simulation(script, h, travel_etg, travel_eg,
                           strategy=QueryStrategy.parse(strategy))
        assert len(labelled) == 2
