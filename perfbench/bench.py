"""Workloads, timed rounds and metrics of the pipeline benchmark.

A run builds its datasets from the seed, then processes rounds of them
until ``seconds`` have passed (only whole rounds, at least one). Every
round repeats the same operations on the same inputs. Time and memory
metrics are medians over every pass of the run (each dataset once a round).
The program is driven through its public entry points only:
``simgen.simulate`` and ``evalharness.evaluate_dataset`` in process,
``opminer.cli.main`` for the CLI workload. Each dataset starts with the
program's memos empty, as it would in a fresh ``opminer`` process.

Each pass over a dataset runs in a forked child process, one at a time (see
``in_child``). With tracing on, the first half of the datasets is processed
twice in one round, once untraced and once with spans around every stage
call (alternating which goes first), and the per-layer metrics come from the
spans' self times.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pickle
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

from opminer import cli, evalharness  # noqa: E402
from opminer.evalharness import ThresholdSpec, evaluate_dataset  # noqa: E402
from opminer.miner import TransactionDB  # noqa: E402
from opminer.simgen import SimConfig, default_catalogs, simulate  # noqa: E402

from checks import (  # noqa: E402
    CheckError,
    Item,
    Outcome,
    Pair,
    check_outcome,
    expected_changes,
    parse_transactions,
    read_model,
    rule_doc_graph,
    rule_graph,
)
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    rules: str  # simulator catalog: experiment1 (interface op) or experiment2 (both ops)
    d: int
    e: int
    p: float
    datasets: int  # per round
    via_cli: bool

    @property
    def k(self) -> int:
        """MAP cutoff: the number of operations the simulator applies."""
        return 2 if self.rules == "experiment2" else 1

    def dataset_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.datasets)]


WORKLOADS = {
    w.name: w
    for w in (
        # large, overlapping change components: mining dominates
        Workload("exp1-dense", "experiment1", d=10, e=20, p=0.2, datasets=7, via_cli=False),
        # small components of two operations: calibration dominates; run by hand
        # only (not in BENCHMARK.json), see README
        Workload("exp2-mixed", "experiment2", d=10, e=20, p=0.2, datasets=6, via_cli=False),
        # one application per revision through the file-based CLI: diffing
        # dominates. With more, applications that share elements merge into one
        # transaction and mining takes either ~0.07 s or ~1.5 s (see README)
        Workload("cli-sparse", "experiment1", d=10, e=1, p=0.1, datasets=20, via_cli=True),
    )
}

#: names in evaluate_dataset's module namespace -> span names
EVALHARNESS_SPANS = {
    "bundle_to_db": "evalharness.bundle_to_db",
    "difference_graph": "modeldiff.difference_graph",
    "simple_change_graph": "modeldiff.simple_change_graph",
    "change_components": "modeldiff.change_components",
    "calibrate_threshold": "miner.calibrate_threshold",
    "mine": "miner.mine",
    "prune": "ranker.prune",
    "rank": "ranker.rank",
    "locate_truth": "evalharness.locate_truth",
    "ap_at_k": "evalharness.ap_at_k",
    "size_at_threshold": "evalharness.size_at_threshold",
}
#: names in the CLI module namespace -> span names
CLI_SPANS = {
    "simulate": "simgen.simulate",
    "load_model": "modeldiff.load_model",
    "difference_graph": "modeldiff.difference_graph",
    "simple_change_graph": "modeldiff.simple_change_graph",
    "change_components": "modeldiff.change_components",
    "calibrate_threshold": "miner.calibrate_threshold",
    "mine": "miner.mine",
    "prune": "ranker.prune",
    "rank": "ranker.rank",
}
DB_SPANS = {"of": "miner.TransactionDB.of"}

#: per-layer time metric -> the spans whose self times it sums
SPAN_METRICS = {
    "simgen.simulate_s": ("simgen.simulate",),
    "modeldiff.load_s": ("modeldiff.load_model",),
    "modeldiff.diff_s": (
        "modeldiff.difference_graph",
        "modeldiff.simple_change_graph",
        "modeldiff.change_components",
    ),
    "miner.db_build_s": ("miner.TransactionDB.of",),
    "miner.calibrate_s": ("miner.calibrate_threshold",),
    "miner.mine_s": ("miner.mine",),
    "ranker.prune_s": ("ranker.prune",),
    "ranker.rank_s": ("ranker.rank",),
    "evalharness.score_s": (
        "evalharness.locate_truth",
        "evalharness.ap_at_k",
        "evalharness.size_at_threshold",
    ),
    "cli.diff_s": ("cli.diff",),
    "cli.mine_s": ("cli.mine",),
    "cli.rules_s": ("cli.rules",),
}
#: per-layer counters, summed over a round's datasets unless named in MEAN/MAX_COUNTS
COUNTERS = (
    "simgen.applications",
    "simgen.perturbations",
    "simgen.skipped",
    "modeldiff.version_pairs",
    "modeldiff.references",
    "modeldiff.transactions",
    "modeldiff.scg_nodes",
    "modeldiff.scg_edges",
    "miner.threshold",
    "miner.patterns",
    "miner.largest_pattern_size",
    "miner.lattice_links",
    "ranker.kept",
    "cli.bytes_written",
    "cli.rules_written",
)
MEAN_COUNTS = {"miner.threshold"}
MAX_COUNTS = {"miner.largest_pattern_size"}


class OperationFailed(RuntimeError):
    """A dataset pass raised or died, or a CLI command exited non-zero."""


@dataclass
class Timing:
    total_s: float  # simulation (CLI: first diff) -> scored ranked lists (CLI: rule files)
    history_s: float  # model history -> ranked lists
    peak_rss_mib: float = 0.0


def in_child(fn, *args):
    """``fn(*args)`` in a forked child process; returns its result and the
    child's peak resident set size in MiB.

    Every dataset pass runs in its own child, one at a time, so it starts
    from the same clean heap and the program's memos are as empty as in a
    fresh ``opminer`` process, and its peak memory is its own: the parent's
    high-water mark could not be reset, and heap left fragmented by a large
    dataset would raise the figures of the ones after it.
    """
    gc.collect()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = ("ok", fn(*args))
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        raise OperationFailed(f"dataset process ended with wait status {status}")
    kind, value = pickle.loads(data)  # written by our own child above
    if kind == "error":
        raise OperationFailed(value)
    return value, usage.ru_maxrss / 1024.0


def dataset_pass(runner, index: int, tracer: Tracer, want_outcome: bool):
    """One pass over one dataset; runs in a child, so it returns the spans it
    added rather than relying on the tracer it was given."""
    first = len(tracer.spans)
    timing = runner.run(index, tracer)
    outcome = runner.outcome(index, tracer) if want_outcome else None
    return timing, outcome, tracer.spans[first:]


# --- in process ----------------------------------------------------------------


def sim_config(w: Workload, seed: int) -> SimConfig:
    core, pert = default_catalogs(both_core_rules=w.rules == "experiment2")
    return SimConfig(d=w.d, e=w.e, p=w.p, seed=seed, core_rules=core, perturbations=pert)


class InProcess:
    """simulate -> evaluate_dataset; one dataset is one operation."""

    ops_per_dataset = 1
    #: calls whose results the checks read, captured in the untraced pass
    CAPTURED = ("bundle_to_db", "mine", "rank")
    KEEP = frozenset({"simgen.simulate", "evalharness.evaluate_dataset"}
                     | {EVALHARNESS_SPANS[a] for a in CAPTURED})

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seeds = w.dataset_seeds(seed)
        self.configs: list[SimConfig] = []

    def setup(self, tracer: Tracer) -> None:
        self.configs = [sim_config(self.w, s) for s in self.seeds]

    def run(self, index: int, tracer: Tracer) -> Timing:
        names = EVALHARNESS_SPANS if tracer.timed else {a: EVALHARNESS_SPANS[a] for a in self.CAPTURED}
        with contextlib.ExitStack() as stack:
            stack.enter_context(tracer.instrument(evalharness, names))
            if tracer.timed:
                stack.enter_context(tracer.instrument(TransactionDB, DB_SPANS))
            t0 = perf_counter()
            bundle = tracer.call("simgen.simulate", simulate, self.configs[index])
            t1 = perf_counter()
            tracer.call("evalharness.evaluate_dataset", evaluate_dataset,
                        bundle, ThresholdSpec("calibrate"), (self.w.k,))
            t2 = perf_counter()
        return Timing(t2 - t0, t2 - t1)

    def outcome(self, index: int, tracer: Tracer) -> Outcome:
        (bundle,) = tracer.take("simgen.simulate")
        (rows,) = tracer.take("evalharness.evaluate_dataset")
        (db,) = tracer.take("evalharness.bundle_to_db")
        (patterns,) = tracer.take("miner.mine")
        rankings = {r.mode: [_item(i) for i in r.items] for r in tracer.take("ranker.rank")}
        pairs = []
        for i, (old, new) in enumerate(zip(bundle.versions, bundle.versions[1:])):
            tag = f"{i}->{i + 1}"
            pairs.append(Pair(
                expected_changes(old.elements, old.references, new.elements, new.references),
                [(g.nodes, g.edges) for g, t in zip(db.transactions, db.tags) if t == tag],
            ))
        entries = [e for rev in bundle.logs for e in rev]
        return Outcome(
            pairs=pairs,
            threshold=rows[0]["threshold"],
            rankings=rankings,
            truths={
                r.name: rule_graph(r.context_nodes, r.created_nodes, r.deleted_nodes,
                                   r.created_edges, r.deleted_edges)
                for r in bundle.config.core_rules
            },
            rows={row["mode"]: row for row in rows},
            counts={
                "simgen.applications": len(entries),
                "simgen.perturbations": sum(e.perturbed for e in entries),
                "simgen.skipped": bundle.skipped_applications
                + sum(e.skipped_perturbation for e in entries),
                "modeldiff.references": sum(len(v.references) for v in bundle.versions[:-1]),
                "miner.patterns": len(patterns),
                "miner.largest_pattern_size": max((p.size for p in patterns), default=0),
                "miner.lattice_links": sum(len(p.parents) for p in patterns),
            },
        )

    def close(self) -> None:
        pass


def _item(ranked_item) -> Item:
    p = ranked_item.pattern
    return Item(ranked_item.rank, ranked_item.support, ranked_item.compression,
                p.code.text, (p.graph.nodes, p.graph.edges))


# --- through the CLI ---------------------------------------------------------------


class ThroughCli:
    """Set-up writes one simulated bundle per dataset with ``opminer simulate``;
    then each dataset is ``diff`` per revision pair, ``mine`` and ``rules``,
    and each command is one operation."""

    KEEP = frozenset()

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seeds = w.dataset_seeds(seed)
        self.work = work
        self.ops_per_dataset = w.d + 2

    def _cli(self, tracer: Tracer, command: str, *args) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.call(f"cli.{command}", cli.main, [command, *map(str, args)])
        if code != 0:
            raise OperationFailed(f"opminer {command} exited {code}")

    def setup(self, tracer: Tracer) -> None:
        names = {"simulate": CLI_SPANS["simulate"]} if tracer.timed else {}
        with tracer.instrument(cli, names):
            for i, seed in enumerate(self.seeds):
                tracer.dataset = str(seed)
                w = self.w
                self._cli(tracer, "simulate", "--d", w.d, "--e", w.e, "--p", w.p, "--seed", seed,
                          "--rules", w.rules, "--out", self.work / f"d{i}" / "bundle")

    def run(self, index: int, tracer: Tracer) -> Timing:
        base = self.work / f"d{index}"
        bundle = base / "bundle"
        for out in ("scg", "rules"):
            shutil.rmtree(base / out, ignore_errors=True)
        (base / "scg").mkdir()
        with contextlib.ExitStack() as stack:
            if tracer.timed:
                stack.enter_context(tracer.instrument(cli, CLI_SPANS))
                stack.enter_context(tracer.instrument(TransactionDB, DB_SPANS))
            t0 = perf_counter()
            for i in range(self.w.d):
                self._cli(tracer, "diff", bundle / f"m{i}.json", bundle / f"m{i + 1}.json",
                          "--out", base / "scg" / f"scg_{i:03d}.txt")
            self._cli(tracer, "mine", base / "scg", "--out", base / "ranked.json",
                      "--patterns-out", base / "patterns.json")
            t1 = perf_counter()
            self._cli(tracer, "rules", "--in", base / "ranked.json", "--out", base / "rules", "--dot")
            t2 = perf_counter()
        return Timing(t2 - t0, t1 - t0)

    def outcome(self, index: int, tracer: Tracer) -> Outcome:
        base = self.work / f"d{index}"
        bundle = base / "bundle"

        def read(path):
            return json.loads(path.read_text(encoding="utf-8"))

        pairs, references = [], 0
        old = read_model(bundle / "m0.json")
        for i in range(self.w.d):
            new = read_model(bundle / f"m{i + 1}.json")
            references += len(old[1])
            text = (base / "scg" / f"scg_{i:03d}.txt").read_text(encoding="utf-8")
            pairs.append(Pair(expected_changes(*old, *new), parse_transactions(text)))
            old = new
        ranked, patterns = read(base / "ranked.json"), read(base / "patterns.json")
        log = read(bundle / "log.json")
        items = []
        for entry in ranked["items"]:
            (graph,) = parse_transactions(entry["graph"])
            items.append(Item(entry["rank"], entry["support"], entry["compression"], entry["code"], graph))
        pattern_graphs = [parse_transactions(p["graph"])[0] for p in patterns["patterns"]]
        entries = [e for rev in log["revisions"] for e in rev]
        written = [base / "ranked.json", base / "patterns.json",
                   *(base / "scg").iterdir(), *(base / "rules").iterdir()]
        return Outcome(
            pairs=pairs,
            threshold=ranked["threshold"],
            rankings={"compression": items},
            truths={r["name"]: rule_doc_graph(r) for r in read(bundle / "config.json")["coreRules"]},
            rule_dir=base / "rules",
            counts={
                "simgen.applications": len(entries),
                "simgen.perturbations": sum(e["perturbed"] for e in entries),
                "simgen.skipped": log["skippedApplications"]
                + sum(e["skippedPerturbation"] for e in entries),
                "modeldiff.references": references,
                "miner.patterns": len(pattern_graphs),
                "miner.largest_pattern_size": max((len(n) + len(e) for n, e in pattern_graphs), default=0),
                "miner.lattice_links": sum(len(p["parents"]) for p in patterns["patterns"]),
                "cli.bytes_written": sum(p.stat().st_size for p in written),
                "cli.rules_written": sum(1 for p in (base / "rules").glob("*.json")),
            },
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# --- the run -------------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def layer_metrics(tracer: Tracer, outcomes: list[Outcome], untraced: dict[str, float]) -> dict:
    """Per-layer metrics of one traced round; ``untraced`` is each dataset's
    untraced time, which the self times of its run-phase spans should match."""
    by_name: dict[str, float] = {}
    by_dataset: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        if span.phase == "run":
            by_dataset[span.dataset] = by_dataset.get(span.dataset, 0.0) + own
    metrics = {
        name: (sum(by_name.get(s, 0.0) for s in spans), "s") for name, spans in SPAN_METRICS.items()
    }
    counts = dict.fromkeys(COUNTERS, 0.0)
    for o in outcomes:
        derived = dict(
            o.counts,
            **{
                "modeldiff.version_pairs": len(o.pairs),
                "modeldiff.transactions": sum(len(p.transactions) for p in o.pairs),
                "modeldiff.scg_nodes": sum(len(t[0]) for p in o.pairs for t in p.transactions),
                "modeldiff.scg_edges": sum(len(t[1]) for p in o.pairs for t in p.transactions),
                "miner.threshold": o.threshold / len(outcomes),
                "ranker.kept": len(o.rankings["compression"]),
            },
        )
        for name in COUNTERS:
            value = derived.get(name, 0)
            counts[name] = max(counts[name], value) if name in MAX_COUNTS else counts[name] + value
    metrics.update({name: (value, "count") for name, value in counts.items()})
    mined = counts["miner.patterns"]
    metrics["ranker.kept_per_mined"] = (counts["ranker.kept"] / mined if mined else 0.0, "ratio")
    total = sum(untraced.values())
    metrics["trace.overhead_pct"] = (100.0 * (sum(by_dataset.values()) - total) / total, "%")
    metrics["trace.max_gap_pct"] = (
        max(100.0 * abs(by_dataset.get(d, 0.0) - u) / u for d, u in untraced.items()),
        "%",
    )
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    metrics["trace.span_cost_s"] = (len(tracer.spans) * span_cost_s(), "s")
    return metrics


def span_cost_s(calls: int = 20000) -> float:
    """Time one wrapped call adds, measured on a no-op function."""
    probe = Tracer(timed=True)
    wrapped = probe.wrap("probe", int)
    t0 = perf_counter()
    for _ in range(calls):
        int()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(perf_counter() - t0 - bare, 0.0) / calls


def run(workload: str, seed: int, seconds: float, trace: bool, started: float) -> Result:
    """One benchmark run; ``started`` is the ``perf_counter`` reading taken
    when the process began, before it imported the program."""
    w = WORKLOADS[workload]
    work = OUT / f"work-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    runner = ThroughCli(w, seed, work) if w.via_cli else InProcess(w, seed)
    tracer = Tracer(timed=True)
    capture = Tracer(timed=False, keep=runner.KEEP)
    attempted = failed = 0
    try:
        imports_s = perf_counter() - started
        setups = []
        for rep in range(SETUP_REPEATS):
            traced_setup = trace and rep == SETUP_REPEATS - 1
            tracer.phase = "setup"
            t0 = perf_counter()
            runner.setup(tracer if traced_setup else capture)
            setups.append(perf_counter() - t0)
        tracer.phase = "run"
        setup_s = imports_s + statistics.median(setups)

        names = [str(s) for s in runner.seeds]
        if trace:  # two passes per dataset: trace half of them in about a run's time
            names = names[: (len(names) + 1) // 2]
        rounds: list[list[Timing | None]] = []
        outcomes: list[Outcome | None] = [None] * len(names)
        untraced: dict[str, float] = {}
        loop_start = perf_counter()
        while True:
            round_start = perf_counter()
            timings: list[Timing | None] = []
            for i, name in enumerate(names):
                passes = [capture, tracer] if trace else [capture]
                if i % 2:
                    passes.reverse()  # alternate which pass goes first
                for active in passes:
                    active.dataset = name
                    attempted += runner.ops_per_dataset
                    want_outcome = active is capture and not rounds
                    try:
                        (timing, outcome, spans), peak_mib = in_child(
                            dataset_pass, runner, i, active, want_outcome
                        )
                    except OperationFailed as exc:  # counted, never fatal
                        print(f"dataset {name} failed: {exc}", file=sys.stderr)
                        failed += runner.ops_per_dataset
                        timing = None
                    else:
                        timing.peak_rss_mib = peak_mib
                        tracer.spans.extend(spans)
                        if want_outcome:
                            outcomes[i] = outcome
                        print(f"dataset {name} {'traced' if active.timed else 'untraced'}: "
                              f"{timing.total_s:.3f} s, history {timing.history_s:.3f} s, "
                              f"peak {peak_mib:.1f} MiB", file=sys.stderr)
                    if active is capture:
                        timings.append(timing)
                        if timing is not None:
                            untraced[name] = timing.total_s
            rounds.append(timings)
            last_round = perf_counter() - round_start
            if trace or perf_counter() - loop_start + last_round > seconds:
                break
        correct = True
        aps = []
        for name, outcome in zip(names, outcomes):
            if outcome is None:
                continue
            try:
                aps.append(check_outcome(outcome, w.k))
            except CheckError as exc:
                print(f"check failed on dataset {name}: {exc}", file=sys.stderr)
                correct = False
        if not aps:
            raise OperationFailed("no dataset completed")

        if trace:
            tracer.write(OUT / f"trace-{workload}-{seed}.json")
            metrics = layer_metrics(tracer, [o for o in outcomes if o], untraced)
        else:
            done = [i for i in range(len(names)) if all(r[i] for r in rounds)]

            def over_run(field: str) -> float:
                """Median over every pass of the run: each dataset once per round."""
                return statistics.median(getattr(r[i], field) for r in rounds for i in done)

            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (over_run("total_s"), "s"),
                "history_to_ranked_s": (over_run("history_s"), "s"),
                "map_at_truths": (sum(aps) / len(aps), "MAP"),
                "peak_rss_mib": (over_run("peak_rss_mib"), "MiB"),
            }
        return Result(correct, attempted, failed, metrics)
    finally:
        runner.close()
