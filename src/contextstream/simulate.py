"""Desk-scale streaming harness: scripted sensor emission, window
aggregation, query decisions, online training, and logging.

A scenario script plays non-overlapping timeline segments; each segment emits
Gaussian readings per channel at a fixed tick and declares the stream record
that is the ground truth while it is active. Tick arithmetic cuts each
segment in three before anything is drawn: the head, the ticks that the
window still open from earlier segments takes; the whole windows, which open
and close inside the segment; and the tail, which opens the next window.
Readings are drawn in that order, tick-major as per-reading draws would be,
the whole windows at most CHUNK_TICKS ticks (or one window) per
random-number call. Every window's features come from `aggregate_window`:
whole windows a draw at a time, the window built from the pieces that a
segment or gap edge splits once it closes. Each segment's truth is labelled,
checked for consistency and frozen once; each window is scored once, and
those scores give its prediction, its query decision and its update. Runs
are deterministic: the script's seed fixes every reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import timedelta
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import StreamRecord, Timestamp
from .hierarchy import Hierarchy
from .kg import EG, ETG, check_observer, snapshot_eg
from .labels import labels_from_eg
from .learn import OnlinePerceptron, QueryStrategy, labels_from_scores, require_consistent
from .metrics import session_metrics
from .report import ValidationReport

# Ticks of whole windows drawn per random-number call (one window when a
# window holds more): large enough to amortise numpy's per-call cost over
# many windows, small enough that a segment's readings never sit in memory
# whole
CHUNK_TICKS = 4096

# The window length, in minutes, of a session that names none
DEFAULT_WINDOW_MINUTES = 30.0

# The most ticks one window may hold. A draw holds one window's readings
# when a window holds more than CHUNK_TICKS ticks, and a window that a
# segment or gap edge splits keeps its pieces until it closes, so this
# bounds their memory (8 MB per channel) before anything is drawn
MAX_WINDOW_TICKS = 1_000_000

# The most ticks a script may hold, summed over its segments, 23 times a day
# at 1 Hz. At the cap the travel scenario (60 s ticks, 30-minute windows)
# simulates in 2.5 s on a 2-vCPU VM; a segment that runs to year 9999 (4.2e9
# ticks of 60 s) is refused as the script is built, before anything is drawn
MAX_SCRIPT_TICKS = 2_000_000


@dataclass(frozen=True)
class EmissionSpec:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std >= 0:  # NaN too
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


def positive_delta(name: str, **amount: float) -> timedelta:
    """`timedelta(**amount)`, refused unless it lasts at least one microsecond:
    a zero tick or window length would never let the tick loop advance."""
    try:
        delta = timedelta(**amount)
    except OverflowError:
        raise ValueError(f"{name} is too large") from None
    except ValueError:  # NaN
        raise ValueError(f"{name} must be a number") from None
    if delta <= timedelta(0):
        raise ValueError(f"{name} must be at least one microsecond")
    return delta


@dataclass(frozen=True)
class ScenarioScript:
    seed: int
    reading_interval_s: float
    channels: tuple[str, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        positive_delta("reading_interval_s", seconds=self.reading_interval_s)
        repeated = {ch for ch in self.channels if self.channels.count(ch) > 1}
        if repeated:
            raise ValueError(f"channels listed more than once: {sorted(repeated)}")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if cur.begin < prev.end:
                raise ValueError(
                    f"segments overlap or are unordered at {cur.begin.isoformat()}"
                )
        for seg in self.segments:
            unknown = set(seg.emissions) - set(self.channels)
            if unknown:
                raise ValueError(f"segment emits undeclared channels: {sorted(unknown)}")
        if sum(self.ticks) > MAX_SCRIPT_TICKS:
            raise ValueError(
                f"segments hold {sum(self.ticks)} ticks of {self.reading_interval_s} s, "
                f"more than MAX_SCRIPT_TICKS ({MAX_SCRIPT_TICKS})"
            )

    @property
    def step(self) -> timedelta:
        """The time between two ticks, exact in microseconds."""
        return timedelta(seconds=self.reading_interval_s)

    @cached_property
    def ticks(self) -> tuple[int, ...]:
        """Each segment's tick count: tick k of a segment is its begin +
        step * k, and ceiling division counts those before its end."""
        step = self.step
        return tuple(-((seg.begin - seg.end) // step) for seg in self.segments)


@dataclass(frozen=True)
class WindowSpec:
    """Window length plus the channels it aggregates, kept sorted. The
    manifest lists, per channel, its mean and an empty flag raised when the
    window held no readings for it."""

    length_minutes: float
    channels: tuple[str, ...]

    def __post_init__(self):
        positive_delta("window length", minutes=self.length_minutes)
        object.__setattr__(self, "channels", tuple(sorted(set(self.channels))))

    @classmethod
    def means(cls, channels: Sequence[str], length_minutes: float) -> "WindowSpec":
        return cls(length_minutes, tuple(channels))

    @cached_property
    def manifest(self) -> tuple[str, ...]:
        return tuple(f"{ch}:{kind}" for ch in self.channels for kind in ("mean", "empty"))


def aggregate_window(samples: Mapping[str, np.ndarray], spec: WindowSpec, n: int = 1) -> np.ndarray:
    """Manifest-ordered features of `n` windows, one row each, given each
    channel's readings as a C-contiguous float64 (n, m) block whose row i
    holds window i's readings in tick order (a strided view is not
    guaranteed to sum in the same order). A channel with no readings,
    absent or with m = 0, contributes 0 plus a raised empty flag. A mean
    that is not finite (finite readings whose sum overflows) raises
    ValueError naming its channel."""
    x = np.zeros((n, len(spec.manifest)))
    for f, ch in enumerate(spec.channels):
        block = samples.get(ch)
        if block is None or block.shape[-1] == 0:
            x[:, 2 * f + 1] = 1.0
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            # each row's sum / m is that row's mean() bit for bit, without its dispatch
            x[:, 2 * f] = block.sum(axis=-1) / block.shape[-1]
        if not np.isfinite(x[:, 2 * f]).all():
            raise ValueError(f"window mean on channel {ch!r} is not finite")
    return x


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

    def predictions(self) -> np.ndarray:
        return self._matrix("prediction")

    def truths(self) -> np.ndarray:
        return self._matrix("truth")

    def _matrix(self, key: str) -> np.ndarray:
        """The events' `key` rows as a (windows, nodes) uint8 matrix, (0, n)
        when there are no windows, as `io.load_runlog` reads them."""
        rows = [getattr(e, key) for e in self.events]
        return np.array(rows, dtype=np.uint8).reshape(len(rows), len(self.node_order))


def run_simulation(
    script: ScenarioScript,
    h: Hierarchy,
    etg: ETG,
    static_eg: EG,
    *,
    window_spec: WindowSpec | None = None,
    strategy: QueryStrategy = QueryStrategy("always"),
) -> RunResult:
    """Play the script once: aggregate windows, predict, decide whether to
    query, and train on acquired labels (prequential order: the prediction
    for a window is made before its labels can influence the model).

    Windows are cut by tick: a window opens at a tick and holds every tick
    before its begin + window length, across segment boundaries and gaps;
    the next one opens at the first tick after that. Each segment's record
    is snapshotted, labelled and checked for consistency once, before any
    reading is drawn, and its truth vector is made read-only; the segment
    that holds a window's last tick gives the whole window that truth, even
    when its features mix two segments. Each window is scored once, and the
    scores serve its prediction, its query decision and its update. Raises
    InconsistentLabelError if a truth vector sets a child without its
    parent, and ValueError if the EG has no unique observer, if a segment's
    snapshot reports a finding (an entity the EG lacks, a function or
    structural property the ETG lacks), if a window would end past the last
    representable date or would hold more than MAX_WINDOW_TICKS ticks, or if
    a reading is not finite."""
    report = ValidationReport()
    check_observer(static_eg, etg, report)
    snapshots = []
    for i, seg in enumerate(script.segments):
        found = ValidationReport()
        snapshots.append(snapshot_eg(static_eg, seg.record, etg, found))
        for f in found:
            report.add(f.code, f.message, f"segment {i}" + (f" {f.subject}" if f.subject else ""))
    if not report.ok:
        raise ValueError("script does not match the EG and ETG: " + report.summary())
    truths = [labels_from_eg(h, snapshot, etg) for snapshot in snapshots]
    for truth in truths:
        require_consistent(h, truth)
        truth.flags.writeable = False
    spec = window_spec or WindowSpec.means(script.channels, DEFAULT_WINDOW_MINUTES)
    window_len = timedelta(minutes=spec.length_minutes)
    if script.segments:
        try:
            script.segments[-1].end + window_len
        except OverflowError:
            raise ValueError(
                f"window length of {spec.length_minutes} minutes runs past the last date"
            ) from None
    window_ticks = -(-window_len // script.step)
    if window_ticks > MAX_WINDOW_TICKS:
        raise ValueError(
            f"window length of {spec.length_minutes} minutes holds {window_ticks} ticks of "
            f"{script.reading_interval_s} s, more than MAX_WINDOW_TICKS ({MAX_WINDOW_TICKS})"
        )
    model = OnlinePerceptron.zeros(len(h), len(spec.manifest))
    result = RunResult(node_order=h.node_order, manifest=spec.manifest, seed=script.seed)

    def learn_window(begin: Timestamp, x: np.ndarray, y: np.ndarray) -> None:
        s = model.scores(x)
        pred = labels_from_scores(h, s)
        queried = strategy.wants_labels(s)
        if queried:
            model.update(x, y, s)
        result.events.append(WindowEvent(begin, begin + window_len, x, queried, pred, y))

    rng = np.random.default_rng(script.seed)
    step = script.step
    per_draw = max(1, CHUNK_TICKS // window_ticks)
    # the open window: its first tick, reading pieces per channel, last tick's truth
    begin: Timestamp | None = None
    pieces: dict[str, list[np.ndarray]] = {}
    y: np.ndarray | None = None

    def draw(n: int) -> dict[str, np.ndarray]:
        """The segment's next n ticks, each channel's readings one contiguous row."""
        # rng.normal(means, stds, size) bit for bit, without its broadcasting;
        # an overflow is refused below, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            block = means + stds * rng.standard_normal((n, len(channels)))
        if not np.isfinite(block).all():
            bad = np.argwhere(~np.isfinite(block))[0, 1]
            raise ValueError(f"non-finite reading on channel {channels[bad]!r}")
        return dict(zip(channels, np.ascontiguousarray(block.T)))

    def flush() -> None:
        samples = {ch: np.concatenate(p).reshape(1, -1) for ch, p in pieces.items()}
        learn_window(begin, aggregate_window(samples, spec)[0], y)

    for seg, n_ticks, truth in zip(script.segments, script.ticks, truths):
        channels = [ch for ch in script.channels if ch in seg.emissions]
        means = np.array([seg.emissions[ch].mean for ch in channels], dtype=np.float64)
        stds = np.array([seg.emissions[ch].std for ch in channels], dtype=np.float64)
        # head: the ticks before the open window's end
        head = 0 if begin is None else min(
            n_ticks, max(0, -((seg.begin - (begin + window_len)) // step)))
        if head:
            for ch, row in draw(head).items():
                pieces.setdefault(ch, []).append(row)
            y = truth
        if head == n_ticks:
            continue
        if begin is not None:
            flush()
        # whole windows: each leaves at least one tick of the segment after it,
        # so the next segment's ticks can never belong to it
        q = (n_ticks - 1 - head) // window_ticks
        for j0 in range(0, q, per_draw):
            n = min(per_draw, q - j0)
            rows = {ch: r.reshape(n, window_ticks) for ch, r in draw(n * window_ticks).items()}
            x = aggregate_window(rows, spec, n)
            for j in range(n):
                learn_window(seg.begin + step * (head + (j0 + j) * window_ticks), x[j], truth)
        # tail: opens the next window
        k = head + q * window_ticks
        begin, y = seg.begin + step * k, truth
        pieces = {ch: [row] for ch, row in draw(n_ticks - k).items()}
    if begin is not None:
        flush()

    result.metrics = session_metrics(result.predictions(), result.truths(),
                                     [e.queried for e in result.events], h.node_order)
    return result
