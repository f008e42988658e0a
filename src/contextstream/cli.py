"""Command-line surface.

`compile`, `simulate` and `snapshot` refuse an EG that does not conform to
its ETG before writing anything. `validate` loads each document through
`io.load_document`, which routes it by its format tag; when its paths name
exactly one ETG, it also loads each EG under that ETG and reports what the
other commands would refuse.

`simulate` takes each setting of a session from one flag: `--window`,
`--strategy` and `--seed`, which replaces the scenario's seed and which no
other command accepts.

Exit codes: 0 success, 1 I/O or usage errors, 2 validation or compilation
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import io
from .core import classify_pattern
from .dot import export_dot
from .errors import ContextStreamError, FormatError
from .hierarchy import compile_hierarchy, validate_hierarchy
from .kg import (
    COLLAPSE_PROPERTIES,
    EG,
    ETG,
    check_observer,
    containment_from_eg,
    snapshot_eg,
    validate_eg,
)
from .learn import QueryStrategy
from .metrics import MetricsAccumulator
from .report import ValidationReport
from .simulate import DEFAULT_WINDOW_MINUTES, WindowSpec, run_simulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contextstream", description=__doc__)
    parser.add_argument("--seed", type=int, help="replace the scenario's seed (simulate only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an ETG + EG pair into a hierarchy")
    p.add_argument("etg")
    p.add_argument("eg")
    p.add_argument("--out", required=True, help="hierarchy JSON output path")
    p.add_argument("--dot", help="also write a DOT rendering")
    p.add_argument(
        "--collapse",
        help="comma-separated override of the structural properties collapsed "
        f"to direct edges (default {','.join(COLLAPSE_PROPERTIES)})",
    )

    p = sub.add_parser("validate", help="validate documents, aggregating findings")
    p.add_argument("paths", nargs="+")

    p = sub.add_parser("simulate", help="run a scripted recognition session")
    p.add_argument("--scenario", required=True)
    p.add_argument("--etg", required=True)
    p.add_argument("--eg", required=True)
    p.add_argument("--hierarchy", help="precompiled hierarchy (default: compile on the fly)")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW_MINUTES,
                   help=f"window length in minutes (default {DEFAULT_WINDOW_MINUTES:g})")
    p.add_argument("--strategy", default="always",
                   help="always | never | margin:<tau> (default always)")
    p.add_argument("--out-log", help="JSONL event log output")
    p.add_argument("--out-metrics", help="metrics JSON output")

    p = sub.add_parser("evaluate", help="recompute metrics from a run log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="metrics JSON output (default: print)")

    p = sub.add_parser("export-dot", help="render a hierarchy as a DOT file")
    p.add_argument("hierarchy")
    p.add_argument("--etg", help="source schema, enables action coloring")
    p.add_argument("--eg", help="source instances, enables action coloring")
    p.add_argument("--out", required=True)

    p = sub.add_parser("snapshot", help="materialize per-record EG snapshots from a stream")
    p.add_argument("--etg", required=True)
    p.add_argument("--eg", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pattern", action="store_true", help="also report the window pattern")

    return parser


def _eg_under(etg: ETG, path: str) -> tuple[EG, ValidationReport]:
    """The EG at `path` loaded under `etg`, which parses its typed values,
    and every way it does not conform to `etg`."""
    eg = io.load_eg(path, etg)
    return eg, validate_eg(etg, eg)


def _load_graphs(args):
    """(ETG, EG) as `args` name them; ValueError unless the EG conforms."""
    etg = io.load_etg(args.etg)
    eg, report = _eg_under(etg, args.eg)
    if not report.ok:
        raise ValueError("EG does not conform to the ETG: " + report.summary())
    return etg, eg


def _cmd_compile(args) -> int:
    etg, eg = _load_graphs(args)
    collapse = (
        [s for s in args.collapse.split(",") if s]
        if args.collapse is not None
        else COLLAPSE_PROPERTIES
    )
    h = compile_hierarchy(etg, eg, collapse=collapse)
    io.save_hierarchy(args.out, h)
    if args.dot:
        Path(args.dot).write_text(export_dot(h, etg, eg), encoding="utf-8")
    print(f"compiled {len(h)} nodes, {len(h.edges)} edges -> {args.out}")
    return EXIT_OK


def _validate_one(path: str, kind: str, doc, etg: ETG | None) -> ValidationReport:
    """What loading `doc` does not check: a hierarchy's structure, and an
    EG's conformance to `etg`, loaded under it as the other commands do."""
    if kind == "hierarchy":
        return validate_hierarchy(doc)
    if kind == "eg" and etg is not None:
        return _eg_under(etg, path)[1]
    return ValidationReport()


def _cmd_validate(args) -> int:
    loaded = []
    for path in args.paths:
        try:
            loaded.append((path, *io.load_document(path)))
        except FormatError as exc:
            loaded.append((path, "invalid-document", str(exc)))
    # an EG is checked against the ETG when the paths name exactly one
    etgs = [doc for _, kind, doc in loaded if kind == "etg"]
    etg = etgs[0] if len(etgs) == 1 else None
    # a FormatError's text begins with its path (and line), so an
    # `invalid-document` finding names no subject
    aggregated = ValidationReport()
    for path, kind, doc in loaded:
        if kind == "invalid-document":
            aggregated.add(kind, doc)
            continue
        try:
            report = _validate_one(path, kind, doc, etg)
        except FormatError as exc:
            aggregated.add("invalid-document", str(exc))
            continue
        for finding in report:
            subject = f"{path}: {finding.subject}" if finding.subject else str(path)
            aggregated.add(finding.code, finding.message, subject)
    if aggregated.ok:
        print(f"{len(args.paths)} document(s) valid")
        return EXIT_OK
    for finding in aggregated:
        print(str(finding), file=sys.stderr)
    return EXIT_VALIDATION


def _cmd_simulate(args) -> int:
    etg, eg = _load_graphs(args)
    script = io.load_scenario(args.scenario)
    if args.seed is not None:
        script = dataclasses.replace(script, seed=args.seed)
    if args.hierarchy:
        h = io.load_hierarchy(args.hierarchy)
        report = validate_hierarchy(h, etg, eg)
        if not report.ok:
            print(f"{args.hierarchy} does not match the ETG and EG: {report.summary()}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    else:
        h = compile_hierarchy(etg, eg)
    result = run_simulation(
        script,
        h,
        etg,
        eg,
        window_spec=WindowSpec.means(script.channels, args.window),
        strategy=QueryStrategy.parse(args.strategy),
    )
    if args.out_log:
        io.save_runlog(args.out_log, result.node_order, result.manifest, result.seed, result.events)
    if args.out_metrics:
        io.save_metrics(args.out_metrics, result.metrics)
    print(
        f"{result.metrics['n_windows']} windows, {result.metrics['n_queries']} queries, "
        f"hierarchical F1 {result.metrics['hierarchical_f1']:.3f}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    header, blocks = io.read_runlog(args.log)
    counts = MetricsAccumulator(len(header["nodes"]))
    for events, preds, truths in blocks:
        counts.add(preds, truths, sum(e["queried"] for e in events))
    metrics = counts.session_result(header["nodes"])
    if args.out:
        io.save_metrics(args.out, metrics)
        print(f"metrics -> {args.out}")
    else:
        for key in ("hierarchical_precision", "hierarchical_recall", "hierarchical_f1",
                    "exact_match", "hamming_accuracy"):
            print(f"{key}: {metrics[key]:.4f}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    h = io.load_hierarchy(args.hierarchy)
    etg = io.load_etg(args.etg) if args.etg else None
    eg = io.load_eg(args.eg, etg) if args.eg else None
    Path(args.out).write_text(export_dot(h, etg, eg), encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    etg, eg = _load_graphs(args)
    containment = containment_from_eg(eg, etg)
    stream = io.load_stream(args.stream, containment)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ValidationReport()
    check_observer(eg, etg, report)
    for i, record in enumerate(stream.records):
        snap = snapshot_eg(eg, record, etg, report)
        io.save_eg(out_dir / f"snapshot_{i:03d}.json", snap)
    if args.pattern:
        pattern = classify_pattern(stream, containment=containment)
        print(f"window pattern: {pattern.value}")
    if not report.ok:
        print("unresolved references: " + report.summary(), file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wrote {len(stream.records)} snapshot(s) -> {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "compile": _cmd_compile,
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "export-dot": _cmd_export_dot,
    "snapshot": _cmd_snapshot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and args.command != "simulate":
            parser.error(f"--seed applies to simulate only, not {args.command}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=logging.WARNING)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContextStreamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
