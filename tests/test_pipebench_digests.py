"""The benchmark's seed-7 outputs are pinned: `pipebench/gen.py` writes each
workload's inputs and `pipebench/session.py` runs one session on them, both
as the benchmark runs them, and the session's output digest and failure
count must not move."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"

SEED_7_DIGESTS = {
    "day_travel": "588edb0e3cedf38644fa05463f1b5732ac2e320c21367b0021425ded02eb7fc9",
    "big_graph": "821a8b1a67c935da727cdfb869eab5383d5526ac8306f37520b49eeb171e34d5",
    "stream_ingest": "60d5826248364445595184e9b0c1413651e71e5e52aea51b33f8eef363bafe92",
}


def _run(script: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, str(PIPEBENCH / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("workload", sorted(SEED_7_DIGESTS))
def test_seed_7_session_digest_is_pinned(tmp_path, workload):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    _run("gen.py", "--workload", workload, "--seed", "7", "--out", str(inputs))
    report = json.loads(_run("session.py", "--workload", workload, "--seed", "7",
                             "--inputs", str(inputs), "--out", str(out),
                             "--trace", "0").splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    assert report["digest"] == SEED_7_DIGESTS[workload]
