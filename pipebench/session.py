"""One benchmark session in a fresh process.

It loads the generated documents through `io`, runs the pipeline in the
order the `simulate` command (session workloads) or the `snapshot` command
(`stream_ingest`) uses, writes the outputs, and only then checks them
against `checks.py`. Each layer is timed from outside; with `--trace 1` the
public functions are wrapped by `tracing.Tracer` as well.

    python3 pipebench/session.py --workload day_travel --seed 1 --inputs DIR --out DIR --trace 0

The last line of standard output is one JSON object with the timings, the
operations attempted and failed (an operation is a compile, a window or a
record), a digest of the outputs and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from datetime import timedelta
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from contextstream import core, hierarchy, io, kg, labels, learn, metrics, simulate  # noqa: E402
from contextstream.report import ValidationReport  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402


class Failures:
    """Operation indexes that failed a check: 0 is the compile, 1..n the
    windows or records of the main loop."""

    def __init__(self, n_steps: int):
        self.n_steps = n_steps
        self.ops: set[int] = set()
        self.messages: list[str] = []

    def fail(self, ops, message: str) -> None:
        self.ops.update(ops)
        if len(self.messages) < 20:
            self.messages.append(message)

    def fail_loop(self, message: str) -> None:
        self.fail(range(1, self.n_steps + 1), message)


def setup(paths: dict[str, Path]):
    """Load, validate and compile; one upward repair builds the lazy ancestor
    structures so the first step runs like every other."""
    etg = io.load_etg(paths["etg"])
    eg = io.load_eg(paths["eg"], etg)
    report = kg.validate_eg(etg, eg)
    script = io.load_scenario(paths["scenario"]) if "scenario" in paths else None
    h = hierarchy.compile_hierarchy(etg, eg)
    start = perf_counter()
    one_bit = np.zeros(len(h), dtype=np.uint8)
    one_bit[0] = 1
    labels.repair_upward(h, one_bit)
    return etg, eg, report, script, h, perf_counter() - start


def run_session(w: gen.Workload, paths: dict[str, Path], out: Path) -> dict:
    t0 = perf_counter()
    etg, eg, report, script, h, first_repair_s = setup(paths)
    t1 = perf_counter()
    result = simulate.run_simulation(
        script, h, etg, eg,
        window_spec=simulate.WindowSpec.means(script.channels, w.window_minutes),
        strategy=learn.QueryStrategy("always"),
    )
    t2 = perf_counter()
    io.save_runlog(out / "run.jsonl", result.node_order, result.manifest, result.seed, result.events)
    io.save_metrics(out / "metrics.json", result.metrics)
    t3 = perf_counter()
    return {"times": (t0, t1, t2, t3), "steps": len(result.events), "first_repair_s": first_repair_s,
            "valid": report.ok, "h": h, "result": result}


def run_stream(paths: dict[str, Path]) -> dict:
    t0 = perf_counter()
    etg, eg, report, _, h, first_repair_s = setup(paths)
    t1 = perf_counter()
    containment = kg.containment_from_eg(eg, etg)
    stream = io.load_stream(paths["stream"], containment)
    findings = ValidationReport()
    snapshot_triples, ys = [], []
    for record in stream.records:
        snap = kg.snapshot_eg(eg, record, etg, findings)
        snapshot_triples.append(snap.triples)
        ys.append(labels.labels_from_eg(h, snap, etg))
    t2 = perf_counter()
    pattern = core.classify_pattern(stream, containment=containment)
    t3 = perf_counter()
    return {"times": (t0, t1, t2, t3), "steps": len(stream), "first_repair_s": first_repair_s,
            "valid": report.ok, "h": h, "stream": stream,
            "findings": findings, "snapshot_triples": snapshot_triples, "ys": ys,
            "pattern": pattern}


def check_dag(w: gen.Workload, run: dict, failures: Failures) -> tuple[np.ndarray, np.ndarray]:
    """Checks the compile; returns the expected truth matrix rows of the two
    regimes over the program's node order, and the edges as index pairs."""
    h = run["h"]
    nodes, edges = checks.expected_dag(w.k)
    if not run["valid"]:
        failures.fail([0], "the generated EG does not conform to the ETG")
    got_nodes = {nid: node.kind.value for nid, node in h.nodes.items()}
    if got_nodes != nodes:
        failures.fail([0], f"compiled nodes differ: {len(got_nodes)} vs {len(nodes)} expected")
    if set(h.edges) != edges or h.root != "root":
        failures.fail([0], f"compiled edges differ: {len(h.edges)} vs {len(edges)} expected")
    for defect in checks.dag_defects(set(nodes), set(h.edges), "root")[:5]:
        failures.fail([0], defect)
    order = {nid: i for i, nid in enumerate(h.node_order)}
    truths = np.zeros((2, len(order)), dtype=bool)
    for regime, closed in enumerate(checks.regime_truths(edges)):
        truths[regime, [order[n] for n in closed if n in order]] = True
    pairs = np.array([(order[c], order[p]) for c, p in sorted(edges)
                      if c in order and p in order], dtype=np.int64).reshape(-1, 2)
    return truths, pairs


def check_session(w: gen.Workload, seed: int, run: dict, out: Path, failures: Failures) -> None:
    truths, pairs = check_dag(w, run, failures)
    result = run["result"]
    events = result.events
    if len(events) != w.n_steps:
        failures.fail_loop(f"{len(events)} windows, expected {w.n_steps}")
        return
    if result.metrics["n_queries"] != len(events):
        failures.fail_loop("n_queries differs from n_windows under 'always'")
    window = timedelta(minutes=w.window_minutes)
    preds = np.array([e.prediction for e in events], dtype=bool)
    truth = np.array([e.truth for e in events], dtype=bool)
    for i, e in enumerate(events):
        begin = gen.START + i * window
        regime = (gen.first_regime(seed) + int((i * window) / timedelta(minutes=w.segment_minutes))) % 2
        if e.begin != begin or e.end != begin + window:
            failures.fail([i + 1], f"window {i} spans {e.begin}..{e.end}")
        if not np.array_equal(truth[i], truths[regime]):
            failures.fail([i + 1], f"window {i}: truth differs from regime {regime}")
    inconsistent = (preds[:, pairs[:, 0]] & ~preds[:, pairs[:, 1]]).any(axis=1)
    for i in np.flatnonzero(inconsistent):
        failures.fail([int(i) + 1], f"window {i}: prediction sets a child without its parent")
    tail = len(events) - len(events) // 4
    f1 = checks.hierarchical_f1(preds[tail:], truth[tail:])
    if f1 < 0.95:
        failures.fail_loop(f"hierarchical F1 over the last quarter is {f1:.4f} < 0.95")
    header, log_preds, log_truths, _ = io.load_runlog(out / "run.jsonl")
    scored = metrics.evaluate(log_preds, log_truths, node_ids=header["nodes"])
    in_memory = {k: v for k, v in result.metrics.items() if k not in ("n_windows", "n_queries")}
    if scored != in_memory or io.load_metrics(out / "metrics.json") != result.metrics:
        failures.fail_loop("run log or metrics file read back does not give the in-memory metrics")


def check_stream(w: gen.Workload, seed: int, run: dict, paths: dict[str, Path],
                 failures: Failures) -> None:
    truths, _ = check_dag(w, run, failures)
    records = run["stream"].records
    if len(records) != w.n_steps:
        failures.fail_loop(f"stream holds {len(records)} records, expected {w.n_steps}")
        return
    etg_doc = json.loads(paths["etg"].read_text(encoding="utf-8"))
    eg_doc = json.loads(paths["eg"].read_text(encoding="utf-8"))
    static = checks.static_triples(etg_doc, eg_doc)
    ys = np.array(run["ys"], dtype=bool)
    for i, (record, triples) in enumerate(zip(records, run["snapshot_triples"])):
        regime = (gen.first_regime(seed) + i // w.regime_records) % 2
        if record.ts != gen.START + timedelta(seconds=i):
            failures.fail([i + 1], f"record {i} is out of place ({record.ts})")
        got = {(t.property, t.subject, t.object) for t in triples}
        if got != static | checks.REGIME_CONTEXT_TRIPLES[regime]:
            failures.fail([i + 1], f"record {i}: snapshot triples differ from regime {regime}")
        if not np.array_equal(ys[i], truths[regime]):
            failures.fail([i + 1], f"record {i}: labels differ from regime {regime}")
    if not run["findings"].ok:
        failures.fail_loop("unresolved findings: " + run["findings"].summary()[:200])
    if run["pattern"].value != checks.PATTERN:
        failures.fail_loop(f"pattern {run['pattern'].value}, expected {checks.PATTERN}")


def output_digest(run: dict, out: Path) -> str:
    digest = hashlib.sha256()
    if "result" in run:
        digest.update((out / "run.jsonl").read_bytes())
        digest.update((out / "metrics.json").read_bytes())
    else:
        digest.update(np.array(run["ys"], dtype=np.uint8).tobytes())
        digest.update(run["pattern"].value.encode())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    w = gen.WORKLOADS[args.workload]
    paths = gen.input_paths(w, args.inputs)
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_stream(paths) if w.records else run_session(w, paths, args.out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failures = Failures(w.n_steps)
    if w.records:
        check_stream(w, args.seed, run, paths, failures)
    else:
        check_session(w, args.seed, run, args.out, failures)

    t0, t1, t2, t3 = run["times"]
    report = {
        "setup_s": t1 - t0,
        "loop_s": t2 - t1,
        "wall_s": t3 - t0,
        "steps": run["steps"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": 1 + w.n_steps,
        "failed": len(failures.ops),
        "failures": failures.messages,
        "digest": output_digest(run, args.out),
    }
    if tracer is not None:
        h = run["h"]
        runlog = args.out / "run.jsonl"
        report["layers"] = {
            **tracer.layer_metrics(),
            "io.runlog_bytes": float(runlog.stat().st_size) if runlog.exists() else 0.0,
            "hierarchy.first_repair_s": run["first_repair_s"],
            "hierarchy.nodes": float(len(h)),
            "hierarchy.edges": float(len(h.edges)),
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
