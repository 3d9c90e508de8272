"""Exact frequent connected subgraph mining over graph transactions.

Patterns grow depth-first in the style of gSpan: a pattern is its DFS code
(``graphcore.canonical_code``), children append one edge on the rightmost
path by the extension step that code is grown with
(``graphcore.rightmost_extensions``), and a child is kept only when its code
is minimal, so every isomorphism class is grown once. Support counts
distinct transactions, never embeddings; isomorphic transactions are grown
once, and each stands for all the transactions of its class. The result is
exactly the set of connected subgraphs (up to isomorphism) contained in at
least ``threshold`` transactions, each marked closed or not as it is grown,
with subgraph lattice links that are built when they are first read.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .graphcore import (
    CanonicalCode,
    CodeEntry,
    Incidence,
    LabeledGraph,
    canonical_code,
    connected_components,
    incidence,
    rightmost_extensions,
    rightmost_path,
)


class MinerError(ValueError):
    """Invalid mining input or configuration."""


class MiningBudgetExceeded(RuntimeError):
    """Wall-clock budget ran out; carries the patterns grown so far (see ``mine``)."""

    def __init__(self, budget_s: float, partial: list["Pattern"]):
        super().__init__(f"mining exceeded the {budget_s:g}s budget")
        self.partial = partial


@dataclass(frozen=True)
class TransactionDB:
    """Connected graph transactions plus a source tag per transaction.

    Mining and calibration grow each isomorphism class of transactions once,
    from its first transaction, and weigh it by the class size
    (``multiplicity``); ``transactions``, ``tags`` and ``len`` keep every
    transaction. ``incident`` holds the incidence maps of those first
    transactions, the one graph index that every growth step re-reads.
    """

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
        for idx, (txn, tag) in enumerate(zip(self.transactions, self.tags)):
            where = f"transaction {idx}" + (f" ({tag})" if tag else "")
            if txn.n_nodes == 0:
                raise MinerError(f"{where} is empty")
            if len(connected_components(txn)) != 1:
                raise MinerError(f"{where} is not connected")

    def __len__(self) -> int:
        return len(self.transactions)

    @cached_property
    def multiplicity(self) -> dict[int, int]:
        """Per isomorphism class, in transaction order: the index of its first
        transaction -> the number of transactions in it.

        Sorted node labels and sorted (source label, edge label, target label)
        triples bucket the transactions, which fixes their node and edge
        counts as well; ``canonical_code`` splits only buckets of two or more.
        """
        buckets: dict[tuple, list[int]] = {}
        for tid, txn in enumerate(self.transactions):
            labels = dict(txn.nodes)
            key = (
                tuple(sorted(labels.values())),
                tuple(sorted((labels[s], el, labels[d]) for s, d, el in txn.edges)),
            )
            buckets.setdefault(key, []).append(tid)
        sizes: dict[int, int] = {}
        for tids in buckets.values():
            if len(tids) == 1:
                sizes[tids[0]] = 1
                continue
            classes: dict[CanonicalCode, list[int]] = {}
            for tid in tids:
                classes.setdefault(canonical_code(self.transactions[tid]), []).append(tid)
            sizes.update((members[0], len(members)) for members in classes.values())
        return dict(sorted(sizes.items()))

    @cached_property
    def incident(self) -> dict[int, Incidence]:
        """Per class, the ``graphcore.incidence`` map of its first transaction."""
        return {tid: incidence(self.transactions[tid]) for tid in self.multiplicity}

    def support(self, tids: Iterable[int]) -> int:
        """How many transactions the classes of the first transactions ``tids`` hold."""
        return sum(self.multiplicity[tid] for tid in tids)


_Links = tuple[tuple[CanonicalCode, ...], tuple[CanonicalCode, ...]]  # (children, parents)


class _Lattice:
    """The links of one set of patterns, given as (graph, code) pairs, built
    on first read."""

    def __init__(self, patterns: Sequence[tuple[LabeledGraph, CanonicalCode]]):
        self.patterns = patterns

    @cached_property
    def links(self) -> dict[CanonicalCode, _Links]:
        return _link(self.patterns)


@dataclass(frozen=True)
class Pattern:
    """A mined connected subgraph with its transaction support.

    ``closed`` is True when no one-edge supergraph has the pattern's support
    in the mined database, so no strict supergraph has; ``mine`` decides it
    while growing, and marks False the one pattern still undecided when its
    budget runs out.

    ``children`` are canonical codes of direct subgraphs (one edge smaller),
    ``parents`` codes of direct supergraphs (one edge larger); both restricted
    to patterns in the same mined set. ``mine`` gives its whole result one
    ``lattice``, built the first time any of its links is read; a pattern
    built by hand or from a document has none, and no links to read.
    """

    graph: LabeledGraph
    code: CanonicalCode
    support: int
    closed: bool
    lattice: _Lattice | None = field(default=None, compare=False, repr=False)

    @property
    def children(self) -> tuple[CanonicalCode, ...]:
        return self._links()[0]

    @property
    def parents(self) -> tuple[CanonicalCode, ...]:
        return self._links()[1]

    def _links(self) -> _Links:
        if self.lattice is None:
            raise ValueError(f"pattern {self.code.text} has no lattice: "
                             "only mined patterns have links")
        return self.lattice.links[self.code]

    @property
    def size(self) -> int:
        return self.graph.size


# a growth node: pattern graph, its DFS code, rightmost path, projections
# (the embeddings per first transaction of a class; see TransactionDB)
_Node = tuple[LabeledGraph, CanonicalCode, tuple[int, ...], dict[int, list[tuple[int, ...]]]]
_Extensions = dict[CodeEntry, dict[int, list[tuple[int, ...]]]]


def _seeds(db: TransactionDB, threshold: int) -> list[_Node]:
    """Single-node patterns contained in at least ``threshold`` transactions."""
    singles: dict[str, dict[int, list[tuple[int, ...]]]] = {}
    for tid in db.multiplicity:
        for nid, label in db.transactions[tid].nodes:
            singles.setdefault(label, {}).setdefault(tid, []).append((nid,))
    return [
        (LabeledGraph(((0, label),), ()), CanonicalCode(label, ()), (0,), singles[label])
        for label in sorted(singles, reverse=True)
        if db.support(singles[label]) >= threshold
    ]


def _extensions(
    db: TransactionDB,
    node: _Node,
    backward: bool,
    forward: bool,
    check_budget: Callable[[], None],
) -> _Extensions:
    """The node's projections grown by ``graphcore.rightmost_extensions``,
    with its ``backward`` and ``forward`` flags.

    A pattern's graph numbers nodes by discovery index, and projections map
    each discovery index to a transaction node, grouped per transaction.
    """
    _, code, rmpath, projections = node
    ext: _Extensions = {}
    if not (backward or forward):
        return ext
    extend = rightmost_extensions(
        code.root_label, code.entries, rmpath, backward=backward, forward=forward
    )
    for tid, embs in projections.items():
        check_budget()
        for entry, found in extend(db.incident[tid], embs).items():
            ext.setdefault(entry, {})[tid] = found
    return ext


def _frequent_minimal(
    db: TransactionDB, node: _Node, ext: _Extensions, threshold: int
) -> list[_Node]:
    """The children in ``ext`` with support >= threshold and a minimal code.

    The extension step's rules only drop codes that are not minimal, so a
    frequent child is kept only when its code is ``canonical_code`` of its
    graph: each isomorphism class is reached exactly once, by its canonical
    code.
    """
    graph, code, rmpath, _ = node
    children = []
    for entry, child_projections in ext.items():
        if db.support(child_projections) < threshold:
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


def _closed(
    db: TransactionDB, node: _Node, ext: _Extensions, check_budget: Callable[[], None]
) -> bool:
    """Whether no one-edge supergraph of the node's pattern has its support.

    A one-edge supergraph adds an edge from a pattern position to a new node,
    keyed (position, direction flag, edge label, new node's label), or an
    edge between two positions that the pattern lacks, keyed (source, target,
    edge label). It has the pattern's support exactly when its key occurs,
    under some embedding, in every transaction that holds the pattern. The
    projections hold every embedding, automorphic copies included, so each
    transaction's keys are closed under the pattern's automorphisms and one
    key stands for its whole isomorphism class of supergraphs.

    An extension in ``ext`` that reaches every transaction settles it at
    once. Otherwise the keys of the smallest projection are intersected with
    those of each further one, until none is left; the last one need only
    show a single key. The pattern's edge set is built for the call.
    """
    graph, _, _, projections = node
    if any(len(found) == len(projections) for found in ext.values()):
        return False
    held = frozenset(graph.edges)
    candidates: set[tuple] | None = None
    positions: range | set[int] = range(graph.n_nodes)
    order = sorted(projections, key=lambda t: len(projections[t]))
    for tid in order:
        check_budget()
        last = tid == order[-1]
        incident = db.incident[tid]
        found: set[tuple] = set()
        for emb in projections[tid]:
            index = {v: k for k, v in enumerate(emb)}
            for k in positions:
                for w, dflag, el, w_label in incident[emb[k]]:
                    j = index.get(w)
                    if j is None:
                        key: tuple = (k, dflag, el, w_label)
                    elif dflag == 0 and (k, j, el) not in held:
                        key = (k, j, el)
                    else:
                        continue  # seen from its source, or held by the pattern
                    if candidates is None or key in candidates:
                        found.add(key)
            if found and (last or candidates is not None and len(found) == len(candidates)):
                break  # in the last transaction, one common key is enough
        if not found:
            return True
        candidates = found
        positions = {key[0] for key in found}
    return False


def _mine_raw(
    db: TransactionDB, threshold: int, time_budget_s: float
) -> list[tuple[LabeledGraph, CanonicalCode, int, bool]]:
    """Every frequent pattern as (graph, code, support, closed), grown
    depth-first.

    Each pattern is recorded when it is popped, not closed until ``_closed``
    decides; past the budget, MiningBudgetExceeded carries the recorded ones.
    """
    deadline = time.monotonic() + time_budget_s
    results: list[tuple[LabeledGraph, CanonicalCode, int, bool]] = []

    def check_budget() -> None:
        if time.monotonic() > deadline:
            raise MiningBudgetExceeded(time_budget_s, _patterns(results))

    stack = _seeds(db, threshold)
    while stack:
        check_budget()
        node = stack.pop()
        graph, code, _, projections = node
        support = db.support(projections)
        results.append((graph, code, support, False))
        ext = _extensions(db, node, True, True, check_budget)
        results[-1] = (graph, code, support, _closed(db, node, ext, check_budget))
        children = _frequent_minimal(db, node, ext, threshold)
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
    The leaf test reads an incidence map built for the call.
    """
    incident = incidence(g)
    out = []
    for drop in g.edges:
        rest = tuple(e for e in g.edges if e != drop)
        leaves = [v for v in drop[:2] if len(incident[v]) == 1]
        if not leaves and len(connected_components(LabeledGraph(g.nodes, rest))) == 1:
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


def _link(patterns: Sequence[tuple[LabeledGraph, CanonicalCode]]) -> dict[CanonicalCode, _Links]:
    """Per pattern code: its (children, parents) among ``patterns``, each
    sorted by code.

    A direct subgraph equal to a pattern graph takes that pattern's code;
    only the others are canonicalised.
    """
    grown = {graph: code for graph, code in patterns}
    children: dict[CanonicalCode, set[CanonicalCode]] = {code: set() for _, code in patterns}
    parents: dict[CanonicalCode, set[CanonicalCode]] = {code: set() for _, code in patterns}
    for graph, code in patterns:
        for sub in _direct_subgraphs(graph):
            sub_code = grown.get(sub) or canonical_code(sub)
            if sub_code in children:
                children[code].add(sub_code)
                parents[sub_code].add(code)
    def ordered(codes: set[CanonicalCode]) -> tuple[CanonicalCode, ...]:
        return tuple(sorted(codes, key=lambda c: c.sort_key))

    return {code: (ordered(children[code]), ordered(parents[code])) for code in children}


def _patterns(raw: list[tuple[LabeledGraph, CanonicalCode, int, bool]]) -> list[Pattern]:
    """Patterns ordered by (edge count, code), sharing one lattice that is
    built on first read."""
    ordered = sorted(raw, key=lambda r: (r[0].n_edges, r[1].sort_key))
    lattice = _Lattice([(graph, code) for graph, code, _, _ in ordered])
    return [
        Pattern(graph, code, support, closed, lattice)
        for graph, code, support, closed in ordered
    ]


def mine(db: TransactionDB, threshold: int, *, time_budget_s: float = 300.0) -> list[Pattern]:
    """All connected subgraphs contained in at least ``threshold`` transactions.

    Support counts distinct transactions. The result is deduplicated by
    canonical code and sorted by (edge count, code). Each pattern's
    ``closed`` flag is decided during growth from the projections it already
    holds (see ``_closed``), so ``ranker.prune`` reads no links; the direct
    sub/supergraph links among the returned patterns are built the first
    time one is read. A threshold above the transaction count yields an
    empty result.

    Past the time budget, at the next budget check, this raises
    MiningBudgetExceeded. Its ``partial`` holds every pattern grown so far,
    each with its exact support and with links among the partial set. Each
    is marked closed only if it is closed in the whole database, and the one
    pattern still being grown is marked not closed, so a ranking of a partial
    result holds only globally closed patterns.
    """
    if threshold < 1:
        raise MinerError("threshold must be a positive integer")
    if threshold > len(db):
        return []
    return _patterns(_mine_raw(db, threshold, time_budget_s))


@dataclass(frozen=True)
class CalibrationConfig:
    """Threshold search bounds: smallest t whose frequent-subtree count fits.

    The calibrated threshold is the smallest t in [t_min, t_max] at which at
    most ``budget`` subtrees with node count in ``size_range`` occur in t or
    more transactions, or ``t_max`` when none is; ``t_max`` falls back to the
    transaction count when unset, and a ``t_max`` below ``t_min`` gives
    ``t_min``. The search has the wall-clock budget of a mining run.
    """

    t_min: int = 2
    t_max: int | None = None
    size_range: tuple[int, int] = (3, 8)
    budget: int = 100
    time_budget_s: float = 300.0

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
    2002). Subtrees grow by the two calls mining makes, ``_extensions``
    (without backward edges, and without forward ones at the largest
    in-range size) then ``_frequent_minimal``, from a max-heap keyed on
    support, so they leave it in non-increasing support order (a child never
    has more support than its parent). The threshold rises from ``t_min`` to
    one above the support of the (budget+1)-th most frequent in-range subtree
    found so far; children below it are never pushed, and the search ends
    once the heap holds nothing at or above it. The result equals scanning t upward over every
    subtree mined at ``t_min``. Raises MiningBudgetExceeded, with an empty
    ``partial``, past the time budget.
    """
    if len(db) == 0:
        raise MinerError("cannot calibrate on an empty transaction database")
    t_max = len(db) if config.t_max is None else config.t_max
    if t_max < config.t_min:
        return config.t_min
    lo, hi = config.size_range
    deadline = time.monotonic() + config.time_budget_s

    def check_budget() -> None:
        if time.monotonic() > deadline:
            raise MiningBudgetExceeded(config.time_budget_s, [])

    t = config.t_min
    in_range: list[int] = []  # min-heap: supports >= t of in-range subtrees seen
    heap: list[tuple[int, int, _Node]] = []
    tie = itertools.count()

    def push(node: _Node) -> None:
        nonlocal t
        support = db.support(node[3])
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
        ext = _extensions(db, node, False, node[0].n_nodes < hi, check_budget)
        for child in _frequent_minimal(db, node, ext, t):
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
