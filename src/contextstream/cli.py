"""Command-line surface.

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
from .kg import COLLAPSE_PROPERTIES, check_observer, containment_from_eg, snapshot_eg, validate_eg
from .learn import QueryStrategy
from .report import ValidationReport
from .simulate import WindowSpec, run_simulation

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
    parser.add_argument("--config", help="config JSON applied to all commands")
    parser.add_argument("--seed", type=int, help="override the configured/scripted seed")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an ETG + EG pair into a hierarchy")
    p.add_argument("etg")
    p.add_argument("eg")
    p.add_argument("--out", required=True, help="hierarchy JSON output path")
    p.add_argument("--dot", help="also write a DOT rendering")
    p.add_argument("--q", help="comma-separated override of the context-dependent set")
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
    p.add_argument("--window", type=float, help="window length in minutes")
    p.add_argument("--strategy", help="always | never | margin:<tau>")
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


def _load_config(args) -> io.Config:
    config = io.load_config(args.config) if args.config else io.Config()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_compile(args, config: io.Config) -> int:
    etg = io.load_etg(args.etg)
    eg = io.load_eg(args.eg, etg)
    report = validate_eg(etg, eg)
    if not report.ok:
        print("EG does not conform to the ETG:", file=sys.stderr)
        for finding in report:
            print(f"  {finding}", file=sys.stderr)
        return EXIT_VALIDATION
    q = [s for s in args.q.split(",") if s] if args.q is not None else None
    collapse = (
        [s for s in args.collapse.split(",") if s]
        if args.collapse is not None
        else COLLAPSE_PROPERTIES
    )
    h = compile_hierarchy(etg, eg, q=q, collapse=collapse)
    io.save_hierarchy(args.out, h)
    if args.dot:
        Path(args.dot).write_text(export_dot(h, etg, eg), encoding="utf-8")
    print(f"compiled {len(h)} nodes, {len(h.edges)} edges -> {args.out}")
    return EXIT_OK


def _validate_one(path: str) -> ValidationReport:
    report = ValidationReport()
    if path.endswith(".jsonl"):
        # JSONL streams and run logs validate by loading; the header names the kind
        if io.jsonl_format(path) == io.FORMATS["runlog"]:
            io.load_runlog(path)
        else:
            io.load_stream(path)
        return report
    doc = io._read_json(path)
    with io._Malformed(path, "document"):
        tag = doc.get("format", "")
    kind = tag.partition("/")[0] if isinstance(tag, str) else ""
    if kind == "etg":
        io.etg_from_dict(doc, path)
    elif kind == "eg":
        # structural checks only without a schema; conformance runs in compile
        io.eg_from_dict(doc, path=path)
    elif kind == "hierarchy":
        h = io.hierarchy_from_dict(doc, path)
        report.extend(validate_hierarchy(h))
    elif kind == "scenario":
        io.scenario_from_dict(doc, path)
    elif kind == "config":
        io.config_from_dict(doc, path)
    elif kind == "metrics":
        io.metrics_from_dict(doc, path)
    else:
        raise FormatError(path, f"unrecognized format tag {tag!r}")
    return report


def _cmd_validate(args, config: io.Config) -> int:
    aggregated = ValidationReport()
    for path in args.paths:
        try:
            report = _validate_one(path)
        except ContextStreamError as exc:
            aggregated.add("invalid-document", str(exc), path)
            continue
        for finding in report:
            aggregated.add(finding.code, finding.message, f"{path}: {finding.subject or ''}")
    if aggregated.ok:
        print(f"{len(args.paths)} document(s) valid")
        return EXIT_OK
    for finding in aggregated:
        print(str(finding), file=sys.stderr)
    return EXIT_VALIDATION


def _cmd_simulate(args, config: io.Config) -> int:
    etg = io.load_etg(args.etg)
    eg = io.load_eg(args.eg, etg)
    report = validate_eg(etg, eg)
    if not report.ok:
        print("EG does not conform to the ETG: " + report.summary(), file=sys.stderr)
        return EXIT_VALIDATION
    script = io.load_scenario(args.scenario)
    if args.hierarchy:
        h = io.load_hierarchy(args.hierarchy)
        report = validate_hierarchy(h, etg, eg)
        if not report.ok:
            print(f"{args.hierarchy} does not match the ETG and EG: {report.summary()}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    else:
        h = compile_hierarchy(etg, eg)
    window_minutes = args.window if args.window is not None else config.window_minutes
    strategy = (
        QueryStrategy.parse(args.strategy) if args.strategy else config.strategy
    )
    result = run_simulation(
        script,
        h,
        etg,
        eg,
        window_spec=WindowSpec.means(script.channels, window_minutes),
        strategy=strategy,
        seed=config.seed,
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


def _cmd_evaluate(args, config: io.Config) -> int:
    from .metrics import evaluate

    header, preds, truths, events = io.load_runlog(args.log)
    metrics = evaluate(preds, truths, node_ids=header["nodes"])
    metrics["n_windows"] = len(preds)
    metrics["n_queries"] = sum(e["queried"] for e in events)
    if args.out:
        io.save_metrics(args.out, metrics)
        print(f"metrics -> {args.out}")
    else:
        for key in ("hierarchical_precision", "hierarchical_recall", "hierarchical_f1",
                    "exact_match", "hamming_accuracy"):
            print(f"{key}: {metrics[key]:.4f}")
    return EXIT_OK


def _cmd_export_dot(args, config: io.Config) -> int:
    h = io.load_hierarchy(args.hierarchy)
    etg = io.load_etg(args.etg) if args.etg else None
    eg = io.load_eg(args.eg, etg) if args.eg else None
    Path(args.out).write_text(export_dot(h, etg, eg), encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_snapshot(args, config: io.Config) -> int:
    etg = io.load_etg(args.etg)
    eg = io.load_eg(args.eg, etg)
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](args, config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ContextStreamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
