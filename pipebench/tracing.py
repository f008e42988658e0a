"""Timing wrappers around the program's public functions, for the traced run.

A wrapper replaces the original name in every loaded `contextstream` module
that bound it, so calls made inside the pipeline (say, `run_simulation`
calling `snapshot_eg`) are timed as well as the benchmark's own calls. A
name the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# A window runs from the start of aggregate_window to the end of the last
# of these stages before the next aggregate_window.
WINDOW_STAGES = ("simulate.aggregate", "kg.snapshot", "labels.from_eg",
                 "learn.predict", "learn.decide", "learn.train")


class Tracer:
    def __init__(self):
        self.ns: dict[str, list[int]] = defaultdict(list)
        self.count: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._window_start: int | None = None
        self._window_end: int | None = None
        self._static_count: dict[int, int] = {}

    def install(self) -> None:
        self._wrap("io", "load_etg", "io.load_docs")
        self._wrap("io", "load_eg", "io.load_docs")
        self._wrap("io", "load_scenario", "io.load_docs")
        self._wrap("io", "load_stream", "io.load_stream", after=self._after_load_stream)
        self._wrap("io", "save_runlog", "io.save_runlog")
        self._wrap("kg", "validate_eg", "kg.validate_eg")
        self._wrap("kg", "snapshot_eg", "kg.snapshot", after=self._after_snapshot)
        self._wrap("hierarchy", "compile_hierarchy", "hierarchy.compile")
        self._wrap("labels", "labels_from_eg", "labels.from_eg", after=self._after_labels)
        self._wrap("labels", "repair_downward", "labels.repair_downward", after=self._after_down)
        self._wrap("learn", "predict", "learn.predict")
        self._wrap("learn", "decide_query", "learn.decide", after=self._after_decide)
        self._wrap("learn", "train_step", "learn.train")
        self._wrap("simulate", "aggregate_window", "simulate.aggregate")
        self._wrap_generator("simulate", "generate_stream", "simulate.generate")
        self._wrap("metrics", "evaluate", "metrics.evaluate")
        self._wrap("core", "classify_pattern", "core.classify_pattern")

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()
        self._close_window()

    def _bind(self, module: str, name: str, make) -> None:
        home = sys.modules.get(f"contextstream.{module}")
        original = getattr(home, name, None)
        if original is None:
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "contextstream" and getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self._restore.append((mod, name, original))

    def _wrap(self, module: str, name: str, key: str, after=None) -> None:
        in_window = key in WINDOW_STAGES
        opens_window = key == WINDOW_STAGES[0]

        def make(original):
            def wrapper(*args, **kwargs):
                start = perf_counter_ns()
                if opens_window:
                    self._close_window()
                    self._window_start = start
                out = original(*args, **kwargs)
                end = perf_counter_ns()
                self.ns[key].append(end - start)
                if in_window:
                    self._window_end = end
                if after is not None:
                    after(args, out)
                return out
            return wrapper

        self._bind(module, name, make)

    def _wrap_generator(self, module: str, name: str, key: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                busy = 0
                try:
                    while True:
                        start = perf_counter_ns()
                        try:
                            item = next(inner)
                        except StopIteration:
                            busy += perf_counter_ns() - start
                            return
                        busy += perf_counter_ns() - start
                        self.count["simulate.ticks"] += 1
                        self.count["simulate.readings"] += len(item[0])
                        yield item
                finally:
                    self.ns[key].append(busy)
            return wrapper

        self._bind(module, name, make)

    def _close_window(self) -> None:
        if self._window_start is not None and self._window_end is not None:
            self.ns["simulate.window"].append(self._window_end - self._window_start)
        self._window_start = self._window_end = None

    def _after_load_stream(self, args, stream) -> None:
        self.count["io.stream_records"] += len(stream)

    def _after_snapshot(self, args, snapshot) -> None:
        static_eg, etg = args[0], args[2]
        key = id(static_eg)
        if key not in self._static_count:
            self._static_count[key] = sum(
                1 for t in static_eg.triples
                if t.property not in etg.properties or not etg.properties[t.property].context_dependent
            )
        copied = self._static_count[key]
        self.count["kg.static_triples_copied"] += copied
        self.count["kg.context_triples"] += len(snapshot.triples) - copied

    def _after_labels(self, args, y) -> None:
        self.count["labels.bits_set"] += int(np.count_nonzero(y))

    def _after_down(self, args, y) -> None:
        self.count["learn.repair_removed_bits"] += int(
            np.count_nonzero(np.asarray(args[1])) - np.count_nonzero(y))

    def _after_decide(self, args, queried) -> None:
        self.count["learn.queries"] += int(bool(queried))

    def total_s(self, key: str) -> float:
        return sum(self.ns.get(key, ())) / 1e9

    def pct_us(self, key: str, q: float) -> float:
        samples = self.ns.get(key)
        return float(np.percentile(samples, q)) / 1e3 if samples else 0.0

    def mean_per_call(self, counter: str, key: str) -> float:
        calls = len(self.ns.get(key, ()))
        return self.count[counter] / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the wrappers can measure; the benchmark adds
        the ones it times itself (first repair, DAG size, run-log bytes)."""
        records = self.count["io.stream_records"]
        load_stream_s = self.total_s("io.load_stream")
        return {
            "io.load_docs_s": self.total_s("io.load_docs"),
            "io.load_stream_s": load_stream_s,
            "io.load_stream_us_per_record": load_stream_s * 1e6 / records if records else 0.0,
            "io.save_runlog_s": self.total_s("io.save_runlog"),
            "kg.validate_eg_s": self.total_s("kg.validate_eg"),
            "kg.snapshot_us.p50": self.pct_us("kg.snapshot", 50),
            "kg.snapshot_us.p99": self.pct_us("kg.snapshot", 99),
            "kg.static_triples_copied": self.mean_per_call("kg.static_triples_copied", "kg.snapshot"),
            "kg.context_triples": self.mean_per_call("kg.context_triples", "kg.snapshot"),
            "hierarchy.compile_s": self.total_s("hierarchy.compile"),
            "labels.from_eg_us.p50": self.pct_us("labels.from_eg", 50),
            "labels.from_eg_us.p99": self.pct_us("labels.from_eg", 99),
            "labels.bits_set_mean": self.mean_per_call("labels.bits_set", "labels.from_eg"),
            "learn.predict_us.p50": self.pct_us("learn.predict", 50),
            "learn.predict_us.p99": self.pct_us("learn.predict", 99),
            "learn.train_us.p50": self.pct_us("learn.train", 50),
            "learn.train_us.p99": self.pct_us("learn.train", 99),
            "learn.decide_us.p50": self.pct_us("learn.decide", 50),
            "learn.queries": float(self.count["learn.queries"]),
            "learn.repair_removed_bits": float(self.count["learn.repair_removed_bits"]),
            "simulate.generate_s": self.total_s("simulate.generate"),
            "simulate.ticks": float(self.count["simulate.ticks"]),
            "simulate.readings": float(self.count["simulate.readings"]),
            "simulate.aggregate_us.p50": self.pct_us("simulate.aggregate", 50),
            "simulate.aggregate_us.p99": self.pct_us("simulate.aggregate", 99),
            "simulate.window_us.p50": self.pct_us("simulate.window", 50),
            "simulate.window_us.p99": self.pct_us("simulate.window", 99),
            "metrics.evaluate_s": self.total_s("metrics.evaluate"),
            "core.classify_pattern_s": self.total_s("core.classify_pattern"),
        }
