"""Command-line pipeline: diff, mine, rank, rules, simulate, eval, report.

Stages hand off through files so partial runs stay inspectable. Exit codes:
0 ok, 1 partial per-item failures, 2 input errors, 3 time budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

from .evalharness import (
    EvalError,
    GridSpec,
    ThresholdSpec,
    format_map_tables,
    read_report_csv,
    run_grid,
    write_report_csv,
)
from .graphcore import (
    GraphError,
    LabeledGraph,
    canonical_code,
    dumps_transactions,
    loads_transactions,
    save_json,
)
from .miner import (
    CalibrationConfig,
    MinerError,
    MiningBudgetExceeded,
    Pattern,
    TransactionDB,
    calibrate_threshold,
    mine,
)
from .modeldiff import (
    ModelError,
    change_components,
    change_counts,
    difference_graph,
    load_model,
    simple_change_graph,
    MetaModel,
)
from .ranker import RankedList, RankError, prune, rank
from .rulegen import RuleError, pattern_to_rule, save_rule, to_dot
from .simgen import (
    DEFAULT_INSTANCE_COUNTS,
    SimConfig,
    SimError,
    default_catalogs,
    default_metamodel,
    save_bundle,
    simulate,
)

OK, PARTIAL, INPUT_ERROR, BUDGET_EXCEEDED = 0, 1, 2, 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return INPUT_ERROR


def _time_budget(args) -> float:
    env = os.environ.get("OPMINER_TIME_BUDGET_S")
    if env is None:
        return args.time_budget
    try:
        return float(env)
    except ValueError:
        raise MinerError(f"OPMINER_TIME_BUDGET_S={env!r} is not a number") from None


# --- document formats -------------------------------------------------------


def patterns_to_doc(patterns: list[Pattern], threshold: int, partial: bool) -> dict:
    """The mined ``patterns``, each with its ``closed`` mark, so ``rank --in``
    prunes as ``mine`` does. A full set also records its lattice links among
    ``patterns``, as indices into the list; a partial one does not, so that
    writing it builds no lattice past the budget."""
    index = {p.code: i for i, p in enumerate(patterns)}

    def entry(p: Pattern) -> dict:
        doc = {"code": p.code.text, "support": p.support, "closed": p.closed,
               "graph": dumps_transactions([p.graph])}
        if not partial:
            doc["parents"] = sorted(index[c] for c in p.parents if c in index)
            doc["children"] = sorted(index[c] for c in p.children if c in index)
        return doc

    return {"threshold": threshold, "partial": partial, "patterns": [entry(p) for p in patterns]}


class DocumentError(ValueError):
    """Malformed pattern or ranked document."""


def _entry_graph(entry, where: str) -> LabeledGraph:
    """The one transaction in a document entry's ``graph`` text."""
    text = entry.get("graph") if isinstance(entry, dict) else None
    if not isinstance(text, str):
        raise DocumentError(f"{where} is not an object with a graph text")
    graphs = loads_transactions(text)
    if len(graphs) != 1:
        raise DocumentError(f"{where}: graph holds {len(graphs)} transactions, not 1")
    return graphs[0]


def doc_to_patterns(doc) -> list[Pattern]:
    """Patterns of a ``patterns_to_doc`` document, without links;
    DocumentError if malformed."""
    entries = doc.get("patterns") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise DocumentError("pattern document holds no patterns list")
    patterns = []
    for k, entry in enumerate(entries):
        graph = _entry_graph(entry, f"pattern {k}")
        support, closed = entry.get("support"), entry.get("closed")
        if type(support) is not int or type(closed) is not bool:
            raise DocumentError(f"pattern {k}: support is not an integer or closed not a boolean")
        patterns.append(Pattern(graph, canonical_code(graph), support, closed))
    return patterns


def ranked_to_doc(ranked: RankedList, threshold: int, partial: bool) -> dict:
    return {
        "mode": ranked.mode,
        "threshold": threshold,
        "partial": partial,
        "items": [
            {
                "rank": item.rank,
                "support": item.support,
                "compression": item.compression,
                "nodes": item.pattern.graph.n_nodes,
                "edges": item.pattern.graph.n_edges,
                "code": item.pattern.code.text,
                "graph": dumps_transactions([item.pattern.graph]),
            }
            for item in ranked.items
        ],
    }


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- subcommands ------------------------------------------------------------


def cmd_diff(args) -> int:
    try:
        old = load_model(args.old)
        new = load_model(args.new)
        if args.metamodel:
            mm = MetaModel.from_json(_read_json(args.metamodel))
            old.validate_against(mm)
            new.validate_against(mm)
        scg = simple_change_graph(difference_graph(old, new))
        components = change_components(scg)
        text = dumps_transactions([c.graph for c in components])
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (ModelError, GraphError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    counts = change_counts(scg)
    print(f"components: {len(components)}")
    print(f"created: {counts['created']}")
    print(f"deleted: {counts['deleted']}")
    print(f"boundary: {counts['preserved']}")
    return OK


def _collect_transaction_files(inputs: list[str]) -> list[Path]:
    files: list[Path] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            files.extend(sorted(path.glob("*.txt")))
        else:
            files.append(path)
    return files


def _load_db(inputs: list[str]) -> TransactionDB:
    graphs: list[LabeledGraph] = []
    tags: list[str] = []
    for path in _collect_transaction_files(inputs):
        with open(path, "r", encoding="utf-8") as fh:
            parsed = loads_transactions(fh.read())
        graphs.extend(parsed)
        tags.extend(f"{path.name}:{i}" for i in range(len(parsed)))
    return TransactionDB.of(graphs, tags)


def _resolve_threshold(args, db: TransactionDB, time_budget_s: float) -> tuple[int, str]:
    if args.calibrate and args.threshold is not None:
        raise RankError("choose either --calibrate or --threshold, not both")
    if args.calibrate or args.threshold is None:
        t = calibrate_threshold(db, CalibrationConfig(time_budget_s=time_budget_s))
        return t, f"threshold: {t} (calibrated)"
    if args.relative:
        if not 0 < args.threshold <= 1:
            raise RankError("relative threshold must lie in (0, 1]")
        t = max(1, math.ceil(args.threshold * len(db)))
        return t, f"threshold: {t} (relative {args.threshold} of {len(db)})"
    if not args.threshold.is_integer() or args.threshold < 1:
        raise RankError("absolute threshold must be a positive integer")
    t = int(args.threshold)
    return t, f"threshold: {t} (fixed)"


def cmd_mine(args) -> int:
    try:
        time_budget_s = _time_budget(args)
        db = _load_db(args.inputs)
        if len(db) == 0:
            save_json(ranked_to_doc(RankedList(args.by, ()), 0, False), args.out)
            if args.patterns_out:
                save_json(patterns_to_doc([], 0, False), args.patterns_out)
            print("threshold: n/a (empty input)")
            print("patterns: 0")
            return OK
        threshold, header = _resolve_threshold(args, db, time_budget_s)
    except (GraphError, MinerError, RankError, OSError) as exc:
        return _fail(str(exc))
    except MiningBudgetExceeded:
        try:
            save_json(ranked_to_doc(RankedList(args.by, ()), 0, True), args.out)
            if args.patterns_out:
                save_json(patterns_to_doc([], 0, True), args.patterns_out)
        except OSError as exc:
            return _fail(str(exc))
        print("warning: calibration exceeded the time budget; nothing mined", file=sys.stderr)
        return BUDGET_EXCEEDED

    print(header)
    partial = False
    t0 = time.perf_counter()
    try:
        patterns = mine(db, threshold, time_budget_s=time_budget_s)
    except MiningBudgetExceeded as exc:
        patterns = exc.partial
        partial = True
    wall_ms = (time.perf_counter() - t0) * 1000.0

    kept = prune(patterns)
    ranked = rank(kept, args.by)
    try:
        save_json(ranked_to_doc(ranked, threshold, partial), args.out)
        if args.patterns_out:
            save_json(patterns_to_doc(patterns, threshold, partial), args.patterns_out)
    except OSError as exc:
        return _fail(str(exc))
    print(f"patterns: {len(patterns)} mined, {len(kept)} after pruning")
    print(f"wall_ms: {wall_ms:.1f}")
    if partial:
        print("warning: partial results (budget exceeded)", file=sys.stderr)
        return BUDGET_EXCEEDED
    return OK


def cmd_rank(args) -> int:
    try:
        doc = _read_json(args.input)
        patterns = doc_to_patterns(doc)
        threshold, partial = doc.get("threshold", 0), doc.get("partial", False)
        if type(threshold) is not int or threshold < 0:
            raise DocumentError(f"threshold {threshold!r} is not a non-negative integer")
        if type(partial) is not bool:
            raise DocumentError(f"partial {partial!r} is not a boolean")
        ranked = rank(prune(patterns), args.by)
        save_json(ranked_to_doc(ranked, threshold, partial), args.out)
    except (GraphError, RankError, DocumentError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    print(f"ranked: {len(ranked)} patterns by {args.by}")
    return OK


def cmd_rules(args) -> int:
    try:
        doc = _read_json(args.input)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    entries = doc.get("items", doc.get("patterns")) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        return _fail("input document holds neither an items nor a patterns list")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(str(exc))
    failures = 0
    for i, entry in enumerate(entries):
        rank_no = entry.get("rank", i + 1) if isinstance(entry, dict) else i + 1
        try:
            if type(rank_no) is not int:
                raise DocumentError(f"rank {rank_no!r} is not an integer")
            graph = _entry_graph(entry, f"entry {i}")
            rule = pattern_to_rule(graph, name=f"rule_{rank_no:04d}")
        except (DocumentError, RuleError, GraphError) as exc:
            failures += 1
            print(f"warning: pattern at rank {rank_no} skipped: {exc}", file=sys.stderr)
            continue
        try:
            save_rule(rule, out_dir / f"rule_{rank_no:04d}.json")
            if args.dot:
                (out_dir / f"rule_{rank_no:04d}.dot").write_text(to_dot(rule), encoding="utf-8")
        except OSError as exc:
            return _fail(str(exc))
    print(f"rules: {len(entries) - failures} written, {failures} skipped")
    return PARTIAL if failures else OK


def cmd_simulate(args) -> int:
    try:
        metamodel = (
            MetaModel.from_json(_read_json(args.metamodel))
            if args.metamodel
            else default_metamodel()
        )
        counts = _read_json(args.counts) if args.counts else dict(DEFAULT_INSTANCE_COUNTS)
        core, pert = default_catalogs(both_core_rules=args.rules == "experiment2")
        config = SimConfig(
            d=args.d, e=args.e, p=args.p, seed=args.seed,
            core_rules=core, perturbations=pert,
            metamodel=metamodel, initial_counts=counts,
        )
        bundle = simulate(config)
        save_bundle(bundle, args.out)
    except (SimError, ModelError, RuleError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    applications = sum(len(rev) for rev in bundle.logs)
    print(f"versions: {len(bundle.versions)}")
    print(f"applications: {applications} ({bundle.skipped_applications} skipped)")
    return OK


def cmd_eval(args) -> int:
    try:
        spec = GridSpec.from_json(_read_json(args.grid))
        if args.jobs is not None:
            spec = GridSpec.from_json({**spec.to_json(), "jobs": args.jobs})
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, EvalError) as exc:
        return _fail(str(exc))
    result = run_grid(spec)
    summary = {
        "map": result.map_table(),
        "errors": {str(k): v for k, v in sorted(result.errors.items())},
        "grid": spec.to_json(),
    }
    try:
        write_report_csv(result.rows, out_dir / "report.csv", ks=spec.ks)
        save_json(summary, out_dir / "summary.json")
    except OSError as exc:
        return _fail(str(exc))
    print(format_map_tables(result.rows), end="")
    if result.errors:
        print(f"warning: {len(result.errors)} cells failed", file=sys.stderr)
        return PARTIAL
    return OK


def cmd_report(args) -> int:
    path = Path(args.input)
    if path.is_dir():
        path = path / "report.csv"
    try:
        rows = read_report_csv(path)
    except (OSError, UnicodeDecodeError, csv.Error, EvalError) as exc:
        return _fail(str(exc))
    print(format_map_tables(rows), end="")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opminer",
        description="Learn edit operations from model histories by mining "
        "frequent connected subgraphs of model differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="difference two model files into SCG components")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--out", required=True)
    p.add_argument("--metamodel", help="validate conformance against this meta-model")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("mine", help="mine, prune and rank patterns from SCG files")
    p.add_argument("inputs", nargs="+", help="transaction files or directories")
    p.add_argument("--out", required=True, help="ranked pattern document (json)")
    p.add_argument("--patterns-out",
                   help="also write the mined pattern set, each marked closed or not")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--relative", action="store_true",
                   help="interpret --threshold as a ratio of the transaction count")
    p.add_argument("--calibrate", action="store_true",
                   help="pick the threshold via the frequent-subtree pre-pass (default)")
    p.add_argument("--by", choices=["compression", "frequency"], default="compression")
    p.add_argument("--time-budget", type=float, default=300.0)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("rank", help="re-rank a pattern document")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--by", choices=["compression", "frequency"], default="compression")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("rules", help="turn ranked patterns into edit rule files")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dot", action="store_true", help="also write graphviz dumps")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("simulate", help="generate a synthetic model history bundle")
    p.add_argument("--metamodel", help="meta-model json (default: built-in)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules", choices=["experiment1", "experiment2"], default="experiment1")
    p.add_argument("--counts", help="per-type element counts json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="run an experiment grid")
    p.add_argument("--grid", required=True, help="grid spec json")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print MAP tables from an eval report")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
