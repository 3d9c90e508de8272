"""Scoring ranked recommendations against ground truth, and experiment grids.

Each grid cell simulates one repository, diffs its revisions into SCG
components, mines and ranks patterns both by compression and by frequency,
locates the ground-truth patterns by canonical-code equality and scores
AP@k. Per-dataset rows carry the drivers (mining time, component sizes,
size-at-threshold) for correlation analysis; MAP@k aggregates per mode.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .graphcore import LabeledGraph, canonical_code
from .miner import (
    CalibrationConfig,
    TransactionDB,
    calibrate_threshold,
    mine,
    size_at_threshold,
)
from .modeldiff import change_components, difference_graph, simple_change_graph
from .ranker import RankedList, prune, rank
from .simgen import (
    RepoBundle,
    SimConfig,
    SimError,
    check_counts,
    default_catalogs,
    default_metamodel,
    simulate,
)

log = logging.getLogger(__name__)

DEFAULT_KS: tuple[int, ...] = (1, 5, 10)


class EvalError(ValueError):
    """Invalid evaluation input."""


def locate_truth(
    ranked: RankedList, truth: Mapping[str, LabeledGraph]
) -> dict[str, int | None]:
    """Rank of the first entry isomorphic to each truth pattern (or None).

    Isomorphism is decided by canonical-code equality, so node-id-permuted
    copies locate identically.
    """
    codes = {name: canonical_code(g) for name, g in truth.items()}
    out: dict[str, int | None] = {name: None for name in truth}
    for item in ranked.items:
        for name, code in codes.items():
            if out[name] is None and item.pattern.code == code:
                out[name] = item.rank
    return out


def ap_at_k(ranks: Iterable[int | None], k: int | None, total_relevant: int) -> float:
    """Average precision at cutoff k; ``k=None`` means no cutoff.

    Sum of precision-at-i over relevant positions i <= k, divided by the
    total number of relevant items; absent items contribute nothing.
    """
    if total_relevant < 1:
        raise EvalError("total_relevant must be at least 1")
    hits = sorted(r for r in ranks if r is not None)
    score = 0.0
    for n_seen, r in enumerate(hits, start=1):
        if k is not None and r > k:
            break
        score += n_seen / r
    return score / total_relevant


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Returns 0.0 when either side has no variation.
    """
    if len(xs) != len(ys):
        raise EvalError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        return 0.0

    def ranks(values):
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for idx in order[i : j + 1]:
                out[idx] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


@dataclass(frozen=True)
class ThresholdSpec:
    """fixed: absolute support; relative: ceil(value * |db|); calibrate:
    ``calibrate_threshold``'s best-first frequent-subtree search."""

    mode: str = "calibrate"
    value: float | None = None

    def __post_init__(self) -> None:
        number = _is_number(self.value)
        if self.mode == "fixed":
            whole = number and (isinstance(self.value, int) or self.value.is_integer())
            if not (whole and self.value >= 1):
                raise EvalError("fixed threshold needs a positive integer value")
        elif self.mode == "relative":
            if not (number and 0 < self.value <= 1):
                raise EvalError("relative threshold needs a ratio in (0, 1]")
        elif self.mode != "calibrate":
            raise EvalError(f"unknown threshold mode {self.mode!r}")

    def resolve(self, db: TransactionDB, calibration: CalibrationConfig) -> int:
        if self.mode == "fixed":
            return int(self.value)
        if self.mode == "relative":
            return max(1, math.ceil(self.value * len(db)))
        return calibrate_threshold(db, calibration)

    def to_json(self) -> dict:
        return {"mode": self.mode, "value": self.value}

    @classmethod
    def from_json(cls, doc: Mapping) -> "ThresholdSpec":
        if not isinstance(doc, Mapping):
            raise EvalError("grid threshold must be an object")
        return cls(doc.get("mode", "calibrate"), doc.get("value"))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value) -> bool:
    return type(value) is int and value >= 1


def _grid_values(key: str, values, ok, what: str) -> tuple:
    """``values`` as a tuple; EvalError unless it is a list whose every entry
    is a number (not a bool) passing ``ok``."""
    if not isinstance(values, list) or not all(_is_number(v) and ok(v) for v in values):
        raise EvalError(f"grid {key!r} must be a list of {what}")
    return tuple(values)


RULE_SETS = ("experiment1", "experiment2")


@dataclass(frozen=True)
class GridSpec:
    """One controlled experiment: the (d, e, p, seed) grid and pipeline knobs."""

    d_values: tuple[int, ...]
    e_values: tuple[int, ...]
    p_values: tuple[float, ...]
    seeds: tuple[int, ...]
    rules: str = "experiment1"  # experiment1: one core rule; experiment2: both
    threshold: ThresholdSpec = field(default_factory=ThresholdSpec)
    ks: tuple[int, ...] = DEFAULT_KS
    jobs: int = 1
    initial_counts: Mapping[str, int] | None = None
    time_budget_s: float = 300.0

    def cells(self) -> list[tuple[int, int, float, int]]:
        return [
            (d, e, p, s)
            for d in self.d_values
            for e in self.e_values
            for p in self.p_values
            for s in self.seeds
        ]

    def to_json(self) -> dict:
        return {
            "d": list(self.d_values),
            "e": list(self.e_values),
            "p": list(self.p_values),
            "seeds": list(self.seeds),
            "rules": self.rules,
            "threshold": self.threshold.to_json(),
            "k": list(self.ks),
            "jobs": self.jobs,
            "initialCounts": dict(self.initial_counts) if self.initial_counts else None,
            "timeBudgetS": self.time_budget_s,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "GridSpec":
        """Parse a grid document; EvalError names the first malformed field."""
        if not isinstance(doc, Mapping):
            raise EvalError("grid spec must be a JSON object")
        seeds = doc.get("seeds", [0])
        if type(seeds) is int and seeds >= 0:
            seeds = list(range(seeds))
        rules = doc.get("rules", "experiment1")
        if rules not in RULE_SETS:
            raise EvalError(f"grid 'rules' must be one of {', '.join(RULE_SETS)}")
        jobs, budget = doc.get("jobs", 1), doc.get("timeBudgetS", 300.0)
        if not (type(jobs) is int and jobs >= 1):
            raise EvalError("grid 'jobs' must be a positive integer")
        if not (_is_number(budget) and budget > 0):
            raise EvalError("grid 'timeBudgetS' must be a positive number")
        counts = doc.get("initialCounts")
        if counts is not None:
            try:
                check_counts(default_metamodel(), counts)
            except SimError as exc:
                raise EvalError(f"grid 'initialCounts': {exc}") from None
        return cls(
            d_values=_grid_values("d", doc.get("d"), _positive, "integers of at least 1"),
            e_values=_grid_values("e", doc.get("e"), _positive, "integers of at least 1"),
            p_values=_grid_values("p", doc.get("p"), lambda v: 0 <= v <= 1, "numbers in [0, 1]"),
            seeds=_grid_values("seeds", seeds, lambda v: type(v) is int, "integers"),
            rules=rules,
            threshold=ThresholdSpec.from_json(doc.get("threshold", {})),
            ks=_grid_values("k", doc.get("k", list(DEFAULT_KS)), _positive, "integers of at least 1"),
            jobs=jobs,
            initial_counts=counts,
            time_budget_s=float(budget),
        )


def bundle_to_db(bundle: RepoBundle) -> TransactionDB:
    """Diff successive versions and collect SCG components as transactions."""
    transactions: list[LabeledGraph] = []
    tags: list[str] = []
    for i, (old, new) in enumerate(zip(bundle.versions, bundle.versions[1:])):
        scg = simple_change_graph(difference_graph(old, new))
        for comp in change_components(scg):
            transactions.append(comp.graph)
            tags.append(f"{i}->{i + 1}")
    return TransactionDB.of(transactions, tags)


def _cell_config(spec: GridSpec, d: int, e: int, p: float, seed: int) -> SimConfig:
    core, pert = default_catalogs(both_core_rules=spec.rules == "experiment2")
    kwargs = dict(
        d=d, e=e, p=p, seed=seed, core_rules=core, perturbations=pert
    )
    if spec.initial_counts is not None:
        kwargs["initial_counts"] = dict(spec.initial_counts)
    return SimConfig(**kwargs)


def evaluate_dataset(
    bundle: RepoBundle,
    threshold_spec: ThresholdSpec,
    ks: Sequence[int] = DEFAULT_KS,
    time_budget_s: float = 300.0,
) -> list[dict]:
    """Run mining + both ranking modes on one bundle; two report rows."""
    db = bundle_to_db(bundle)
    calibration = CalibrationConfig(time_budget_s=time_budget_s)
    threshold = threshold_spec.resolve(db, calibration)
    t0 = time.perf_counter()
    patterns = mine(db, threshold, time_budget_s=time_budget_s)
    mining_ms = (time.perf_counter() - t0) * 1000.0
    kept = prune(patterns)

    cfg = bundle.config
    avg_nodes = (
        sum(t.n_nodes for t in db.transactions) / len(db) if len(db) else 0.0
    )
    sat = size_at_threshold(db, threshold) if 1 <= threshold <= len(db) else 0
    truth_names = sorted(bundle.truth)
    rows = []
    for mode in ("compression", "frequency"):
        ranked = rank(kept, mode)
        ranks = locate_truth(ranked, bundle.truth)
        rank_list = [ranks[name] for name in truth_names]
        row: dict = {
            "d": cfg.d,
            "e": cfg.e,
            "p": cfg.p,
            "seed": cfg.seed,
            "threshold": threshold,
            "mining_ms": round(mining_ms, 3),
            "avg_nodes_per_component": round(avg_nodes, 3),
            "size_at_threshold": sat,
            "rank_truth_1": rank_list[0] if rank_list else None,
            "rank_truth_2": rank_list[1] if len(rank_list) > 1 else None,
            "mode": mode,
        }
        total = len(truth_names)
        for k in ks:
            row[f"ap@{k}"] = ap_at_k(rank_list, k, total)
        row["ap@inf"] = ap_at_k(rank_list, None, total)
        rows.append(row)
    return rows


def _run_cell(args: tuple) -> tuple[tuple, list[dict], str | None]:
    spec, d, e, p, seed = args
    key = (d, e, p, seed)
    try:
        bundle = simulate(_cell_config(spec, d, e, p, seed))
        rows = evaluate_dataset(bundle, spec.threshold, spec.ks, spec.time_budget_s)
        return key, rows, None
    except Exception as exc:  # per-cell failures never abort the grid
        return key, [], f"{type(exc).__name__}: {exc}"


@dataclass
class GridResult:
    rows: list[dict]
    errors: dict[tuple, str]

    def map_table(self) -> dict[str, dict[str, float]]:
        """MAP@k per ranking mode: the mean of each ap@ column."""
        table: dict[str, dict[str, float]] = {}
        for mode in ("compression", "frequency"):
            rows = [r for r in self.rows if r["mode"] == mode]
            if not rows:
                continue
            ap_cols = sorted(c for c in rows[0] if c.startswith("ap@"))
            table[mode] = {
                c.replace("ap@", "MAP@"): sum(r[c] for r in rows) / len(rows)
                for c in ap_cols
            }
        return table


def run_grid(spec: GridSpec) -> GridResult:
    """Simulate, mine and score every grid cell; failures are recorded.

    Cells are independent; with ``jobs > 1`` they run in a process pool and
    results join deterministically, sorted by cell key.
    """
    cells = spec.cells()
    args = [(spec, d, e, p, s) for d, e, p, s in cells]
    results: dict[tuple, tuple[list[dict], str | None]] = {}
    if spec.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here only: loading it costs memory

        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            for key, rows, err in pool.map(_run_cell, args):
                results[key] = (rows, err)
    else:
        for a in args:
            key, rows, err = _run_cell(a)
            results[key] = (rows, err)

    all_rows: list[dict] = []
    errors: dict[tuple, str] = {}
    for key in sorted(results):
        rows, err = results[key]
        if err is not None:
            errors[key] = err
            log.warning("grid cell %s failed: %s", key, err)
        all_rows.extend(rows)
    return GridResult(all_rows, errors)


def report_columns(ks: Sequence[int]) -> list[str]:
    return (
        ["d", "e", "p", "seed", "threshold", "mining_ms", "avg_nodes_per_component",
         "size_at_threshold", "rank_truth_1", "rank_truth_2"]
        + [f"ap@{k}" for k in ks]
        + ["ap@inf", "mode"]
    )


def write_report_csv(rows: Iterable[dict], path, ks: Sequence[int] = DEFAULT_KS) -> None:
    cols = report_columns(ks)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: ("" if row.get(c) is None else row.get(c)) for c in cols})


_INT_COLUMNS = ("d", "e", "seed", "threshold", "size_at_threshold", "rank_truth_1", "rank_truth_2")


def read_report_csv(path) -> list[dict]:
    """Rows of a ``write_report_csv`` file, an empty cell read as None.

    EvalError unless the file has the d, e, p, seed and mode columns, no row
    has more cells than columns, every ap@ cell is filled and every filled
    cell but mode is a number.
    """
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = sorted({"d", "e", "p", "seed", "mode"} - set(reader.fieldnames or ()))
        if missing:
            raise EvalError(f"{path}: report has no {', '.join(missing)} column")
        for raw in reader:
            where = f"{path} line {reader.line_num}"
            if None in raw:
                raise EvalError(f"{where}: more cells than columns")
            row: dict = {}
            for key, val in raw.items():
                if val == "" or val is None:
                    if key.startswith("ap@"):
                        raise EvalError(f"{where}: empty {key}")
                    row[key] = None
                elif key == "mode":
                    row[key] = val
                else:
                    try:
                        row[key] = int(float(val)) if key in _INT_COLUMNS else float(val)
                    except (ValueError, OverflowError):
                        raise EvalError(f"{where}: {key} {val!r} is not a number") from None
            out.append(row)
    return out


def format_map_tables(result_rows: list[dict]) -> str:
    """Human-readable MAP tables per ranking mode."""
    grid = GridResult(result_rows, {})
    table = grid.map_table()
    if not table:
        return "no rows\n"
    lines = []
    for mode in sorted(table):
        lines.append(f"[{mode}]")
        for key in sorted(table[mode], key=lambda k: (len(k), k)):
            lines.append(f"  {key:>8}: {table[mode][key]:.3f}")
    n = len({(r['d'], r['e'], r['p'], r['seed']) for r in result_rows})
    lines.append(f"datasets: {n}")
    return "\n".join(lines) + "\n"
