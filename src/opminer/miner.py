"""Exact frequent connected subgraph mining over graph transactions.

Patterns grow depth-first in the style of gSpan: a pattern is its DFS code
(``graphcore.canonical_code``), children append one edge on the rightmost
path by the extension step that code is grown with
(``graphcore.rightmost_extensions``), and a child is kept only when its code
is minimal, so every isomorphism class is grown once. Support counts
distinct transactions, never embeddings. The result is exactly the set of
connected subgraphs (up to isomorphism) contained in at least ``threshold``
transactions, linked into a subgraph lattice.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .graphcore import (
    CanonicalCode,
    CodeEntry,
    LabeledGraph,
    canonical_code,
    is_connected,
    rightmost_extensions,
    rightmost_path,
)


class MinerError(ValueError):
    """Invalid mining input or configuration."""


class MiningBudgetExceeded(RuntimeError):
    """Wall-clock budget ran out; carries the patterns finished so far."""

    def __init__(self, budget_s: float, partial: list["Pattern"]):
        super().__init__(f"mining exceeded the {budget_s:g}s budget")
        self.partial = partial


@dataclass(frozen=True)
class TransactionDB:
    """Connected graph transactions plus a source tag per transaction."""

    transactions: tuple[LabeledGraph, ...]
    tags: tuple[str, ...] = ()

    @classmethod
    def of(cls, transactions: Iterable[LabeledGraph], tags: Iterable[str] | None = None):
        txns = tuple(transactions)
        tag_tuple = tuple(tags) if tags is not None else tuple("" for _ in txns)
        return cls(txns, tag_tuple)

    def __post_init__(self) -> None:
        if len(self.tags) != len(self.transactions):
            raise MinerError("one source tag per transaction required")
        for idx, txn in enumerate(self.transactions):
            if txn.n_nodes == 0:
                raise MinerError(f"transaction {idx} is empty")
            if not is_connected(txn):
                raise MinerError(f"transaction {idx} is not connected")

    def __len__(self) -> int:
        return len(self.transactions)


@dataclass(frozen=True)
class Pattern:
    """A mined connected subgraph with transaction support and lattice links.

    ``children`` are canonical codes of direct subgraphs (one edge smaller),
    ``parents`` codes of direct supergraphs (one edge larger); both restricted
    to patterns in the same mined set.
    """

    graph: LabeledGraph
    code: CanonicalCode
    support: int
    children: tuple[CanonicalCode, ...] = ()
    parents: tuple[CanonicalCode, ...] = ()

    @property
    def size(self) -> int:
        return self.graph.size


@dataclass(frozen=True)
class MinerConfig:
    """Wall-clock budget of one mining run, in seconds."""

    time_budget_s: float = 300.0


# a growth node: pattern graph, its DFS code, rightmost path, projections
_Node = tuple[LabeledGraph, CanonicalCode, tuple[int, ...], dict[int, list[tuple[int, ...]]]]


def _seeds(db: TransactionDB, threshold: int) -> list[_Node]:
    """Single-node patterns contained in at least ``threshold`` transactions."""
    singles: dict[str, dict[int, list[tuple[int, ...]]]] = {}
    for tid, txn in enumerate(db.transactions):
        for nid, label in txn.nodes:
            singles.setdefault(label, {}).setdefault(tid, []).append((nid,))
    return [
        (LabeledGraph(((0, label),), ()), CanonicalCode(label, ()), (0,), singles[label])
        for label in sorted(singles, reverse=True)
        if len(singles[label]) >= threshold
    ]


def _children(
    db: TransactionDB,
    node: _Node,
    threshold: int,
    trees_only: bool,
    max_nodes: int | None,
    check_budget: Callable[[], None],
) -> list[_Node]:
    """Minimal-code one-edge extensions of ``node`` with support >= threshold.

    A pattern's graph numbers nodes by discovery index. Projections map each
    discovery index to a transaction node, grouped per transaction, and grow
    by ``graphcore.rightmost_extensions``, with no backward edges when
    ``trees_only`` and no forward edges once ``max_nodes`` nodes are reached.
    Its rules only drop codes that are not minimal, so a frequent child is
    kept only when its code is ``canonical_code`` of its graph: each
    isomorphism class is reached exactly once, by its canonical code.
    """
    graph, code, rmpath, projections = node
    backward = not trees_only
    forward = max_nodes is None or graph.n_nodes < max_nodes
    if not (backward or forward):
        return []
    extend = rightmost_extensions(
        code.root_label, code.entries, rmpath, backward=backward, forward=forward
    )
    ext: dict[CodeEntry, dict[int, list[tuple[int, ...]]]] = {}
    for tid, embs in projections.items():
        check_budget()
        for entry, found in extend(db.transactions[tid].incident, embs).items():
            ext.setdefault(entry, {})[tid] = found
    children = []
    for entry, child_projections in ext.items():
        if len(child_projections) < threshold:
            continue
        i, j, dflag, _, el, to_label = entry
        # sorted, so trusted: a new node j is the largest id, the edge goes in at its place
        nodes = graph.nodes if j < i else graph.nodes + ((j, to_label),)
        edge = (i, j, el) if dflag == 0 else (j, i, el)
        at = bisect_left(graph.edges, edge)
        child = LabeledGraph(nodes, graph.edges[:at] + (edge,) + graph.edges[at:])
        child_code = CanonicalCode(code.root_label, code.entries + (entry,))
        if canonical_code(child) != child_code:
            continue  # reached again, by its minimal code, from another parent
        children.append((child, child_code, rightmost_path(rmpath, entry), child_projections))
    return children


def _mine_raw(
    db: TransactionDB,
    threshold: int,
    config: MinerConfig,
    *,
    trees_only: bool = False,
    max_nodes: int | None = None,
) -> list[tuple[LabeledGraph, CanonicalCode, int]]:
    """Every frequent pattern as (graph, code, support), grown depth-first.

    ``trees_only`` and ``max_nodes`` restrict growth as in ``_children``.
    """
    deadline = time.monotonic() + config.time_budget_s
    results: list[tuple[LabeledGraph, CanonicalCode, int]] = []

    def check_budget() -> None:
        if time.monotonic() > deadline:
            raise MiningBudgetExceeded(config.time_budget_s, _finalize(results))

    stack = _seeds(db, threshold)
    while stack:
        check_budget()
        node = stack.pop()
        graph, code, _, projections = node
        results.append((graph, code, len(projections)))
        children = _children(db, node, threshold, trees_only, max_nodes, check_budget)
        children.sort(key=lambda c: c[1].sort_key, reverse=True)
        stack.extend(children)
    return results


def _direct_subgraphs(g: LabeledGraph) -> list[LabeledGraph]:
    """Connected subgraphs obtainable by removing exactly one edge.

    Dropping a non-bridge edge keeps every node. Dropping a bridge counts only
    when it strands a leaf, which goes with it (both ends of a lone edge);
    parallel and antiparallel edges never form a bridge. Node ids are
    renumbered 0..n-1 in order, the way pattern graphs number their nodes, so
    a subgraph the growth has built compares equal to that pattern's graph.
    """
    out = []
    for drop in g.edges:
        rest = tuple(e for e in g.edges if e != drop)
        leaves = [v for v in drop[:2] if len(g.incident[v]) == 1]
        if not leaves and is_connected(g, without=drop):
            leaves = [None]  # not a bridge: every node stays
        for leaf in leaves:
            nodes = [n for n in g.nodes if n[0] != leaf]
            index = {nid: k for k, (nid, _) in enumerate(nodes)}
            # an order-preserving renumbering keeps nodes and edges sorted
            out.append(LabeledGraph(
                tuple((k, label) for k, (_, label) in enumerate(nodes)),
                tuple((index[s], index[d], label) for s, d, label in rest),
            ))
    return out


def _finalize(raw: list[tuple[LabeledGraph, CanonicalCode, int]]) -> list[Pattern]:
    """Order patterns deterministically and complete the subgraph lattice.

    A direct subgraph equal to a grown pattern graph takes that pattern's
    code; only the others are canonicalised.
    """
    ordered = sorted(raw, key=lambda r: (r[0].n_edges, r[1].sort_key))
    by_code = {code: i for i, (_, code, _) in enumerate(ordered)}
    grown = {graph: code for graph, code, _ in ordered}
    children: list[set[CanonicalCode]] = [set() for _ in ordered]
    parents: list[set[CanonicalCode]] = [set() for _ in ordered]
    for idx, (graph, code, _) in enumerate(ordered):
        for sub in _direct_subgraphs(graph):
            sub_code = grown.get(sub) or canonical_code(sub)
            j = by_code.get(sub_code)
            if j is not None:
                children[idx].add(sub_code)
                parents[j].add(code)
    return [
        Pattern(
            graph,
            code,
            support,
            children=tuple(sorted(children[i], key=lambda c: c.sort_key)),
            parents=tuple(sorted(parents[i], key=lambda c: c.sort_key)),
        )
        for i, (graph, code, support) in enumerate(ordered)
    ]


def mine(
    db: TransactionDB,
    threshold: int,
    *,
    strict: bool = False,
    config: MinerConfig = MinerConfig(),
) -> list[Pattern]:
    """All connected subgraphs contained in at least ``threshold`` transactions.

    Support counts distinct transactions. The result is deduplicated by
    canonical code, sorted by (edge count, code), and carries complete direct
    sub/supergraph links among the returned patterns. A threshold above the
    transaction count yields an empty result, or raises in strict mode.
    Raises MiningBudgetExceeded (with partial results) past the time budget.
    """
    if threshold < 1:
        raise MinerError("threshold must be a positive integer")
    if threshold > len(db):
        if strict:
            raise MinerError(
                f"threshold {threshold} exceeds transaction count {len(db)}"
            )
        return []
    return _finalize(_mine_raw(db, threshold, config))


@dataclass(frozen=True)
class CalibrationConfig:
    """Threshold search bounds: smallest t whose frequent-subtree count fits.

    The calibrated threshold is the smallest t in [t_min, t_max] at which at
    most ``budget`` subtrees with node count in ``size_range`` occur in t or
    more transactions, or ``t_max`` when none is; ``t_max`` falls back to the
    transaction count when unset, and a ``t_max`` below ``t_min`` gives
    ``t_min``.
    """

    t_min: int = 2
    t_max: int | None = None
    size_range: tuple[int, int] = (3, 8)
    budget: int = 100
    miner: MinerConfig = field(default_factory=MinerConfig)

    def __post_init__(self) -> None:
        if self.t_min < 1:
            raise MinerError("calibration t_min must be a positive integer")
        if self.budget < 0:
            raise MinerError("calibration budget must not be negative")
        lo, hi = self.size_range
        if not 1 <= lo <= hi:
            raise MinerError(f"calibration size_range {self.size_range} breaks 1 <= lo <= hi")


def calibrate_threshold(db: TransactionDB, config: CalibrationConfig = CalibrationConfig()) -> int:
    """Pick the mining threshold in one best-first pass over frequent subtrees.

    Top-k mining with a rising threshold (Han, Wang, Lu & Tzvetkov, ICDM
    2002). Subtrees grow from a max-heap keyed on support, so they leave it in
    non-increasing support order (a child never has more support than its
    parent). The threshold rises from ``t_min`` to one above the support of
    the (budget+1)-th most frequent in-range subtree found so far; children
    below it are never pushed, and the search ends once the heap holds
    nothing at or above it. The result equals scanning t upward over every
    subtree mined at ``t_min``. Raises MiningBudgetExceeded, with an empty
    ``partial``, past the time budget.
    """
    if len(db) == 0:
        raise MinerError("cannot calibrate on an empty transaction database")
    t_max = len(db) if config.t_max is None else config.t_max
    if t_max < config.t_min:
        return config.t_min
    lo, hi = config.size_range
    deadline = time.monotonic() + config.miner.time_budget_s

    def check_budget() -> None:
        if time.monotonic() > deadline:
            raise MiningBudgetExceeded(config.miner.time_budget_s, [])

    t = config.t_min
    in_range: list[int] = []  # min-heap: supports >= t of in-range subtrees seen
    heap: list[tuple[int, int, _Node]] = []
    tie = itertools.count()

    def push(node: _Node) -> None:
        nonlocal t
        support = len(node[3])
        if support < t:
            return
        heapq.heappush(heap, (-support, next(tie), node))
        if lo <= node[0].n_nodes <= hi:
            heapq.heappush(in_range, support)
            if len(in_range) > config.budget:
                t = heapq.heappop(in_range) + 1
                while in_range and in_range[0] < t:
                    heapq.heappop(in_range)

    for node in _seeds(db, t):
        push(node)
    while heap and -heap[0][0] >= t:
        check_budget()
        node = heapq.heappop(heap)[2]
        for child in _children(db, node, t, True, hi, check_budget):
            push(child)
    return min(t, t_max)


def size_at_threshold(db: TransactionDB, threshold: int) -> int:
    """Node count of the t-th largest transaction (descending by node count)."""
    if not 1 <= threshold <= len(db):
        raise MinerError(
            f"threshold {threshold} out of range 1..{len(db)}"
        )
    sizes = sorted((t.n_nodes for t in db.transactions), reverse=True)
    return sizes[threshold - 1]
