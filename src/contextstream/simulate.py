"""Desk-scale streaming harness: scripted sensor emission, window
aggregation, query decisions, online training, and logging.

A scenario script plays non-overlapping timeline segments; each segment emits
Gaussian readings per channel at a fixed tick and declares the stream record
that is the ground truth while it is active. Runs are deterministic for a
given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import timedelta
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import StreamRecord, Timestamp
from .hierarchy import Hierarchy
from .kg import EG, ETG, snapshot_eg
from .labels import labels_from_eg
from .learn import OnlinePerceptron, QueryStrategy, decide_query, predict, train_step
from .metrics import evaluate
from .report import ValidationReport

AGGREGATORS = ("mean", "count", "variance")


@dataclass(frozen=True)
class SensorReading:
    ts: Timestamp
    channel: str
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"non-finite reading on channel {self.channel!r}")


@dataclass(frozen=True)
class EmissionSpec:
    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be >= 0")


@dataclass(frozen=True)
class Segment:
    begin: Timestamp
    end: Timestamp
    emissions: Mapping[str, EmissionSpec]
    record: StreamRecord

    def __post_init__(self):
        if self.begin >= self.end:
            raise ValueError("segment must have positive duration")


@dataclass(frozen=True)
class ScenarioScript:
    seed: int
    reading_interval_s: float
    channels: tuple[str, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if self.reading_interval_s <= 0:
            raise ValueError("reading_interval_s must be positive")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if cur.begin < prev.end:
                raise ValueError(
                    f"segments overlap or are unordered at {cur.begin.isoformat()}"
                )
        for seg in self.segments:
            unknown = set(seg.emissions) - set(self.channels)
            if unknown:
                raise ValueError(f"segment emits undeclared channels: {sorted(unknown)}")


def validate_script(script: ScenarioScript, eg: EG) -> ValidationReport:
    """Check that every entity the script's records mention exists in the EG."""
    report = ValidationReport()

    def check(ref: str | None, what: str) -> None:
        if ref is not None and eg.resolve(ref) is None:
            report.add("unknown-entity", f"{what} {ref!r} not in the EG", ref)

    for i, seg in enumerate(script.segments):
        r = seg.record
        where = f"segment {i}"
        check(r.location, f"{where} location")
        check(r.super_location, f"{where} super location")
        check(r.event, f"{where} event")
        check(r.super_event, f"{where} super event")
        for name in sorted(r.my_actions or ()):
            check(name, f"{where} action")
        for entry in r.person_entries or ():
            check(entry.function.holder, f"{where} person")
            check(entry.function.beneficiary, f"{where} person beneficiary")
            for name in sorted(entry.actions):
                check(name, f"{where} person action")
        for fa in r.object_entries or ():
            check(fa.holder, f"{where} object")
            check(fa.beneficiary, f"{where} object beneficiary")
    return report


def generate_stream(
    script: ScenarioScript, eg: EG | None = None, seed: int | None = None
) -> Iterator[tuple[tuple[SensorReading, ...], StreamRecord]]:
    """Yield per-tick reading batches paired with the active ground-truth
    record. Byte-identical across runs for the same script and seed."""
    if eg is not None:
        report = validate_script(script, eg)
        if not report.ok:
            raise ValueError("script references unknown entities: " + report.summary())
    rng = np.random.default_rng(script.seed if seed is None else seed)
    step = timedelta(seconds=script.reading_interval_s)
    for seg in script.segments:
        ts = seg.begin
        while ts < seg.end:
            readings = tuple(
                SensorReading(ts, ch, float(rng.normal(spec.mean, spec.std)))
                for ch in script.channels
                if (spec := seg.emissions.get(ch)) is not None
            )
            yield readings, replace(seg.record, ts=ts)
            ts = ts + step


@dataclass(frozen=True)
class WindowSpec:
    """Aggregation plan: window length plus per-channel aggregators. The
    manifest orders features as channel:aggregator plus a channel:empty flag
    raised when the window held no readings for that channel."""

    length_minutes: float
    aggregators: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        if self.length_minutes <= 0:
            raise ValueError("window length must be positive")
        for ch, aggs in self.aggregators.items():
            for agg in aggs:
                if agg not in AGGREGATORS:
                    raise ValueError(f"unknown aggregator {agg!r} for channel {ch!r}")

    @classmethod
    def means(cls, channels: Sequence[str], length_minutes: float) -> "WindowSpec":
        return cls(length_minutes, {ch: ("mean",) for ch in channels})

    @property
    def manifest(self) -> tuple[str, ...]:
        names: list[str] = []
        for ch in sorted(self.aggregators):
            names.extend(f"{ch}:{agg}" for agg in self.aggregators[ch])
            names.append(f"{ch}:empty")
        return tuple(names)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray
    begin: Timestamp
    end: Timestamp
    manifest: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != (len(self.manifest),):
            raise ValueError("feature length does not match the manifest")


def aggregate_window(
    readings: Sequence[SensorReading],
    spec: WindowSpec,
    begin: Timestamp,
    end: Timestamp,
) -> FeatureVector:
    """Manifest-ordered aggregates; channels with no readings contribute 0
    plus a raised empty flag."""
    by_channel: dict[str, list[float]] = {ch: [] for ch in spec.aggregators}
    for r in readings:
        if r.channel in by_channel:
            by_channel[r.channel].append(r.value)
    values: list[float] = []
    for ch in sorted(spec.aggregators):
        samples = np.asarray(by_channel[ch], dtype=np.float64)
        empty = samples.size == 0
        for agg in spec.aggregators[ch]:
            if empty:
                values.append(0.0)
            elif agg == "mean":
                values.append(float(samples.mean()))
            elif agg == "count":
                values.append(float(samples.size))
            else:
                values.append(float(samples.var()))
        values.append(1.0 if empty else 0.0)
    return FeatureVector(np.asarray(values), begin, end, spec.manifest)


@dataclass(frozen=True, eq=False)
class WindowEvent:
    begin: Timestamp
    end: Timestamp
    features: np.ndarray
    queried: bool
    prediction: np.ndarray
    truth: np.ndarray


@dataclass(eq=False)
class RunResult:
    node_order: tuple[str, ...]
    manifest: tuple[str, ...]
    seed: int
    events: list[WindowEvent] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    model: OnlinePerceptron | None = None

    @property
    def n_queries(self) -> int:
        return sum(1 for e in self.events if e.queried)

    def predictions(self) -> np.ndarray:
        return np.stack([e.prediction for e in self.events])

    def truths(self) -> np.ndarray:
        return np.stack([e.truth for e in self.events])


def run_simulation(
    script: ScenarioScript,
    h: Hierarchy,
    etg: ETG,
    static_eg: EG,
    *,
    window_spec: WindowSpec | None = None,
    strategy: QueryStrategy = QueryStrategy("always"),
    seed: int | None = None,
) -> RunResult:
    """Play the script once: aggregate windows, predict, decide whether to
    query, and train on acquired labels (prequential order: the prediction
    for a window is made before its labels can influence the model)."""
    effective_seed = script.seed if seed is None else seed
    spec = window_spec or WindowSpec.means(script.channels, 30.0)
    manifest = spec.manifest
    model = OnlinePerceptron.zeros(len(h), len(manifest))
    result = RunResult(node_order=h.node_order, manifest=manifest, seed=effective_seed)

    window_len = timedelta(minutes=spec.length_minutes)
    window_begin: Timestamp | None = None
    window_readings: list[SensorReading] = []
    window_record: StreamRecord | None = None

    def flush(end: Timestamp) -> None:
        nonlocal window_begin, window_readings, window_record
        if window_begin is None or window_record is None:
            return
        x = aggregate_window(window_readings, spec, window_begin, end)
        snapshot = snapshot_eg(static_eg, window_record, etg)
        y = labels_from_eg(h, snapshot, etg)
        pred = predict(model, x.values, h)
        queried = decide_query(strategy, x.values, model)
        if queried:
            train_step(model, x.values, y, h)
        result.events.append(
            WindowEvent(window_begin, end, x.values, queried, pred, y)
        )
        window_begin, window_readings, window_record = None, [], None

    for readings, record in generate_stream(script, eg=static_eg, seed=effective_seed):
        ts = record.ts
        if window_begin is None:
            window_begin = ts
        elif ts - window_begin >= window_len:
            flush(window_begin + window_len)
            window_begin = ts
        window_readings.extend(readings)
        window_record = record
    if window_begin is not None:
        flush(window_begin + window_len)

    if result.events:
        result.metrics = evaluate(
            result.predictions(), result.truths(), node_ids=h.node_order
        )
    result.metrics["n_windows"] = len(result.events)
    result.metrics["n_queries"] = result.n_queries
    result.model = model
    return result
