"""Seeded input documents for the pipeline benchmark.

Every input is built from the travel fixture in `tests/fixtures/`. For each
of k copies the EG gains a person `p_i`, a train `t_i` and a seat `s_i`, plus
the triples FriendOf(xiaoyue, p_i), partOf(t_i, trentino) and
RestToolOf(xiaoyue, s_i). Scenarios and streams alternate the two regimes of
`travel_scenario.json` (regime 0 takes the train, regime 1 walks with a
friend).

The seed picks the scenario's sensor-noise seed, the regime that comes first,
and the order in which the synthetic entities and triples are listed. The
compiled DAG and the hand-listed truths do not depend on it.

Regenerate the documents of one workload:

    python3 pipebench/gen.py --workload big_graph --seed 1 --out /some/dir
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"
START = datetime(2021, 6, 2, tzinfo=timezone.utc)
ME = "xiaoyue"


@dataclass(frozen=True)
class Workload:
    k: int
    duration_h: float = 0.0  # scenario length; 0 for the stream workload
    reading_interval_s: float = 0.0
    segment_minutes: float = 25.0
    window_minutes: float = 1.0
    records: int = 0  # stream records; 0 for the two session workloads
    regime_records: int = 300

    @property
    def n_steps(self) -> int:
        """Windows of a session, or records of the stream."""
        return self.records or round(self.duration_h * 60 / self.window_minutes)


WORKLOADS = {
    "day_travel": Workload(k=30, duration_h=24.0, reading_interval_s=1.0),
    "big_graph": Workload(k=150, duration_h=24.0, reading_interval_s=10.0),
    "stream_ingest": Workload(k=30, records=8000),
}


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def first_regime(seed: int) -> int:
    return seed % 2


def regime_templates() -> list[dict]:
    """The two segments of the travel scenario: emissions plus record."""
    return _fixture("travel_scenario.json")["segments"]


def copy_ids(i: int) -> tuple[str, str, str]:
    return f"p_{i}", f"t_{i}", f"s_{i}"


def make_eg(k: int, seed: int) -> dict:
    doc = _fixture("travel_eg.json")
    entities, triples = [], []
    for i in range(k):
        p, t, s = copy_ids(i)
        entities += [
            {"id": p, "name": f"Person {i}", "etype": "person", "values": {}},
            {"id": t, "name": f"Train copy {i}", "etype": "train", "values": {"indoor": True}},
            {"id": s, "name": f"Seat copy {i}", "etype": "seat", "values": {}},
        ]
        triples += [
            {"property": "FriendOf", "subject": ME, "object": p},
            {"property": "partOf", "subject": t, "object": "trentino"},
            {"property": "RestToolOf", "subject": ME, "object": s},
        ]
    rng = random.Random(seed)
    rng.shuffle(entities)
    rng.shuffle(triples)
    doc["entities"] += entities
    doc["triples"] += triples
    return doc


def make_scenario(w: Workload, seed: int) -> dict:
    templates = regime_templates()
    end = START + timedelta(hours=w.duration_h)
    step = timedelta(minutes=w.segment_minutes)
    segments, begin, j = [], START, 0
    while begin < end:
        seg_end = min(begin + step, end)
        tpl = templates[(first_regime(seed) + j) % 2]
        segments.append({
            "begin": begin.isoformat(),
            "end": seg_end.isoformat(),
            "emissions": tpl["emissions"],
            "record": tpl["record"],
        })
        begin, j = seg_end, j + 1
    return {
        "format": "scenario/1",
        "seed": seed,
        "reading_interval_s": w.reading_interval_s,
        "channels": _fixture("travel_scenario.json")["channels"],
        "segments": segments,
    }


def stream_lines(w: Workload, seed: int) -> list[str]:
    templates = regime_templates()
    lines = [json.dumps({"format": "stream/1"})]
    for n in range(w.records):
        record = dict(templates[(first_regime(seed) + n // w.regime_records) % 2]["record"])
        lines.append(json.dumps({"ts": (START + timedelta(seconds=n)).isoformat(), **record}))
    return lines


def input_paths(w: Workload, out: Path) -> dict[str, Path]:
    """The workload's documents in `out`, by kind."""
    paths = {"etg": out / "etg.json", "eg": out / "eg.json"}
    if w.records:
        paths["stream"] = out / "stream.jsonl"
    else:
        paths["scenario"] = out / "scenario.json"
    return paths


def write_inputs(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write the workload's documents into `out`; returns their paths by kind."""
    w = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    paths = input_paths(w, out)
    paths["etg"].write_text(json.dumps(_fixture("travel_etg.json"), indent=2), encoding="utf-8")
    paths["eg"].write_text(json.dumps(make_eg(w.k, seed), indent=2), encoding="utf-8")
    if w.records:
        paths["stream"].write_text("\n".join(stream_lines(w, seed)) + "\n", encoding="utf-8")
    else:
        paths["scenario"].write_text(json.dumps(make_scenario(w, seed), indent=2), encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for kind, path in write_inputs(args.workload, args.seed, args.out).items():
        print(f"{kind}: {path}")


if __name__ == "__main__":
    main()
