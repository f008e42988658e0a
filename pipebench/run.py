"""Pipeline benchmark: one workload per invocation, sessions in fresh processes.

    python3 pipebench/run.py --workload day_travel --seed 1 --seconds 30 --trace 0

It writes the seeded input documents (gen.py) before any timing, then runs
whole sessions (session.py), each in a fresh single process, until
`--seconds` have passed and at least three have run. Every session's
outputs must be byte-identical. With `--trace 0` it reports the medians of
the end-to-end metrics over the sessions. With `--trace 1` untraced and
traced sessions alternate; it reports the medians of the per-layer metrics
over the traced ones and the tracing overhead (median traced wall time minus
median untraced wall time).

The speed of a shared host drifts by a third and more over tens of seconds,
for every process at once. So a fixed pure-Python loop is timed in this
process before and after every session, and the end-to-end times are scaled
to the loop's nominal speed: a session's time is multiplied by
REFERENCE_S / (mean loop time beside it). The loop runs here, never in the
session process, so nothing the program does can change it. Raw times are
printed as well, and `--trace 1` reports them among the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP: the sessions inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

MIN_SESSIONS = 3
# Nominal time of reference_loop_s() on an idle 2.1 GHz Xeon vCPU; it sets the
# scale of the end-to-end times only.
REFERENCE_S = 0.007
DEADLINE_S = 170.0  # from start-up; a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "steps_per_s": "steps/s", "wall_s": "s", "peak_rss_mb": "MB"}
REQUIRED = (REPO / "src" / "contextstream", REPO / "tests" / "fixtures", REPO / "tests" / "golden")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if "_us" in name:
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop over five tries (≈ 40 ms)."""
    times = []
    for _ in range(5):
        began = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(perf_counter() - began)
    return statistics.median(times)


def run_one(workload: str, seed: int, inputs: Path, out: Path, trace: int, timeout: float) -> dict:
    """One session in a fresh process; a crash or a timeout counts every
    operation failed."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload, "--seed", str(seed),
           "--inputs", str(inputs), "--out", str(out), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        problem = f"session did not end within {timeout:.0f} s"
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        problem = f"session exited with code {proc.returncode} and no result"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    steps = gen.WORKLOADS[workload].n_steps
    return {"attempted": 1 + steps, "failed": 1 + steps, "digest": None, "failures": [problem]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    missing = [str(p.relative_to(REPO)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}", file=sys.stderr)
        return 2

    work = REPO / ".pipebench-work" / str(os.getpid())
    try:
        inputs = work / "inputs"
        gen.write_inputs(args.workload, args.seed, inputs)
        start = perf_counter()
        sessions: list[dict] = []
        longest = 0.0
        ref_times = [reference_loop_s()]
        # In a traced run, untraced and traced sessions alternate.
        while len(sessions) < MIN_SESSIONS or perf_counter() - start + longest / 2 < args.seconds:
            began = perf_counter()
            if began + 1.5 * longest > deadline:
                break
            trace = args.trace * (len(sessions) % 2)
            out = work / f"s{len(sessions)}"
            result = run_one(args.workload, args.seed, inputs, out, trace, deadline - began)
            ref_times.append(reference_loop_s())
            scale = REFERENCE_S / ((ref_times[-2] + ref_times[-1]) / 2)
            sessions.append(result | {"traced": trace, "scale": scale})
            longest = max(longest, perf_counter() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    w = gen.WORKLOADS[args.workload]
    attempted = failed = 0
    for s in sessions:
        attempted += s["attempted"]
        failed += s["failed"]
        for message in s["failures"]:
            print(f"check failed: {message}")
        if s["digest"] is not None and s["digest"] != sessions[0]["digest"]:
            print("check failed: outputs differ between sessions of the same inputs")
            failed += w.n_steps - min(s["failed"], w.n_steps)
    ok = [s for s in sessions if "setup_s" in s]
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]

    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in untraced),
        "steps_per_s": statistics.median(s["steps"] / s["loop_s"] for s in untraced),
        "wall_s": statistics.median(s["wall_s"] for s in untraced),
    } if untraced else {}
    if args.trace:
        names = sorted(traced[0]["layers"]) if traced else []
        values = {n: statistics.median(s["layers"][n] for s in traced) for n in names}
        if traced and raw:
            values |= {"host.reference_loop_ms": statistics.median(ref_times) * 1e3,
                       "host.raw_setup_s": raw["setup_s"], "host.raw_wall_s": raw["wall_s"]}
        units = {n: layer_unit(n) for n in values}
        if traced and raw:
            plain = raw["wall_s"]
            overhead = statistics.median(s["wall_s"] for s in traced) - plain
            print(f"tracing overhead: {overhead:+.4f} s on an untraced wall of {plain:.4f} s")
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in ok),
            "steps_per_s": statistics.median(s["steps"] / (s["loop_s"] * s["scale"]) for s in ok),
            "wall_s": statistics.median(s["wall_s"] * s["scale"] for s in ok),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        } if ok else {}
        units = END_TO_END_UNITS
    print(f"{args.workload} seed {args.seed}: {len(sessions)} session(s) in {perf_counter() - start:.1f} s")
    print(f"  reference loop: median {statistics.median(ref_times) * 1e3:.3f} ms "
          f"(nominal {REFERENCE_S * 1e3:.3f} ms), range {min(ref_times) * 1e3:.3f}-{max(ref_times) * 1e3:.3f} ms")
    for name, value in raw.items():
        print(f"  raw {name}: {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in values.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
