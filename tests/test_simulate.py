from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from contextstream.core import FunctionAssignment, PersonEntry, StreamRecord
from contextstream.labels import check_consistency
from contextstream.learn import QueryStrategy
from contextstream.simulate import (
    EmissionSpec,
    ScenarioScript,
    Segment,
    SensorReading,
    WindowSpec,
    aggregate_window,
    generate_stream,
    run_simulation,
    validate_script,
)

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


def test_validate_script_flags_unknown_entities(travel_eg):
    record = StreamRecord(ts=T0, location="atlantis", my_actions=frozenset({"Sitting"}))
    script = ScenarioScript(
        1, 60.0, ("a",),
        (Segment(ts(0), ts(10), {"a": EmissionSpec(0, 1)}, record),),
    )
    report = validate_script(script, travel_eg)
    assert "unknown-entity" in report.codes()
    with pytest.raises(ValueError):
        list(generate_stream(script, eg=travel_eg))


def test_validate_script_flags_unknown_beneficiaries(travel_eg):
    nobody = FunctionAssignment("FriendOf", "haonan", "nobody")
    records = [
        StreamRecord(ts=T0, person_entries=(PersonEntry(nobody, frozenset()),)),
        StreamRecord(ts=T0, object_entries=(FunctionAssignment("RestToolOf", "seat_1", "nobody"),)),
    ]
    for record in records:
        script = ScenarioScript(
            1, 60.0, ("a",), (Segment(ts(0), ts(10), {"a": EmissionSpec(0, 1)}, record),),
        )
        report = validate_script(script, travel_eg)
        assert [(f.code, f.subject) for f in report.findings] == [("unknown-entity", "nobody")]
        with pytest.raises(ValueError):
            list(generate_stream(script, eg=travel_eg))


# -- stream generation ------------------------------------------------------------

def test_generate_stream_deterministic(travel_scenario):
    a = [
        (r.ts, tuple((s.channel, s.value) for s in readings))
        for readings, r in generate_stream(travel_scenario)
    ]
    b = [
        (r.ts, tuple((s.channel, s.value) for s in readings))
        for readings, r in generate_stream(travel_scenario)
    ]
    assert a == b


def test_generate_stream_zero_variance_constant():
    record = StreamRecord(ts=T0, location="train_1")
    script = ScenarioScript(
        3, 60.0, ("a",),
        (Segment(ts(0), ts(5), {"a": EmissionSpec(4.25, 0.0)}, record),),
    )
    values = [s.value for readings, _ in generate_stream(script) for s in readings]
    assert values == [4.25] * 5


def test_generate_stream_two_regimes_statistics(travel_scenario):
    by_segment: dict[str, list[float]] = {"take_train": [], "walk": []}
    for readings, record in generate_stream(travel_scenario):
        for s in readings:
            if s.channel == "accelerometer_magnitude":
                by_segment[record.event].append(s.value)
    train = np.array(by_segment["take_train"])
    walk = np.array(by_segment["walk"])
    assert len(train) == 30 and len(walk) == 25
    assert abs(train.mean() - 1.1) < 0.1
    assert abs(walk.mean() - 9.4) < 0.2


def test_generate_stream_ground_truth_matches_script(travel_scenario):
    for readings, record in generate_stream(travel_scenario):
        if record.ts < ts(30):
            assert record.location == "train_1"
        else:
            assert record.location == "roads_2"


# -- window aggregation -------------------------------------------------------------

def test_aggregate_mean_example():
    spec = WindowSpec(30.0, {"bluetooth_count": ("mean",)})
    readings = [SensorReading(ts(i), "bluetooth_count", v) for i, v in enumerate([3, 5, 4])]
    fv = aggregate_window(readings, spec, ts(0), ts(30))
    assert fv.manifest == ("bluetooth_count:mean", "bluetooth_count:empty")
    assert fv.values.tolist() == [4.0, 0.0]


def test_aggregate_empty_window_zeros_and_flags():
    spec = WindowSpec(30.0, {"a": ("mean", "variance"), "b": ("count",)})
    fv = aggregate_window([], spec, ts(0), ts(30))
    assert fv.manifest == ("a:mean", "a:variance", "a:empty", "b:count", "b:empty")
    assert fv.values.tolist() == [0.0, 0.0, 1.0, 0.0, 1.0]


def test_aggregate_matches_independent_recompute(travel_scenario):
    spec = WindowSpec(30.0, {ch: ("mean", "count", "variance") for ch in travel_scenario.channels})
    ticks = list(generate_stream(travel_scenario))
    first_window = [s for readings, r in ticks if r.ts < ts(30) for s in readings]
    fv = aggregate_window(first_window, spec, ts(0), ts(30))
    for ch in travel_scenario.channels:
        samples = [s.value for s in first_window if s.channel == ch]
        base = fv.manifest.index(f"{ch}:mean")
        assert fv.values[base] == pytest.approx(sum(samples) / len(samples))
        assert fv.values[fv.manifest.index(f"{ch}:count")] == len(samples)
        mean = sum(samples) / len(samples)
        var = sum((v - mean) ** 2 for v in samples) / len(samples)
        assert fv.values[fv.manifest.index(f"{ch}:variance")] == pytest.approx(var)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, {})
    with pytest.raises(ValueError):
        WindowSpec(5, {"a": ("median",)})


def test_example_pairs_window_features_with_labels(travel_hierarchy, travel_etg, travel_eg):
    from contextstream.kg import snapshot_eg
    from contextstream.labels import check_consistency, labels_from_eg

    spec = WindowSpec(30.0, {"bluetooth_count": ("mean",)})
    x = aggregate_window(
        [SensorReading(ts(0), "bluetooth_count", 4.0)], spec, ts(0), ts(30)
    )
    record = StreamRecord(ts=ts(30), location="train_1", event="take_train",
                          super_event="travel_1")
    y = labels_from_eg(travel_hierarchy, snapshot_eg(travel_eg, record, travel_etg), travel_etg)
    assert x.values.tolist() == [4.0, 0.0]
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
    travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
        strategy=QueryStrategy("never"),
    )
    assert result.metrics["n_queries"] == 0
    assert not result.model.weights.any()
    assert not any(e.prediction.any() for e in result.events)


def test_run_simulation_reproducible(travel_scenario, travel_hierarchy, travel_etg, travel_eg):
    from contextstream.io import runlog_to_lines

    runs = [
        run_simulation(
            travel_scenario, travel_hierarchy, travel_etg, travel_eg,
            window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
        )
        for _ in range(2)
    ]
    lines = [
        runlog_to_lines(r.node_order, r.manifest, r.seed, r.events) for r in runs
    ]
    assert lines[0] == lines[1]
    assert runs[0].metrics == runs[1].metrics


def test_run_simulation_seed_changes_stream(travel_scenario, travel_hierarchy, travel_etg, travel_eg):
    spec = WindowSpec.means(travel_scenario.channels, 5.0)
    a = run_simulation(travel_scenario, travel_hierarchy, travel_etg, travel_eg,
                       window_spec=spec, seed=1)
    b = run_simulation(travel_scenario, travel_hierarchy, travel_etg, travel_eg,
                       window_spec=spec, seed=2)
    assert a.seed != b.seed
    assert not np.array_equal(a.events[0].features, b.events[0].features)


def test_two_regime_learning_improves(travel_hierarchy, travel_etg, travel_eg):
    script = two_regime_script(n_pairs=6)
    result = run_simulation(
        script, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(script.channels, 5.0),
    )
    preds, truths = result.predictions(), result.truths()
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
    correct = result.predictions() == result.truths()
    blocks = [float(correct[i:i + 50].mean()) for i in range(0, len(correct) - 49, 50)]
    assert len(blocks) >= 5
    drops = sum(1 for a, b in zip(blocks, blocks[1:]) if b < a - 1e-12)
    assert drops <= 2, f"accuracy dropped {drops} times across blocks {blocks}"
