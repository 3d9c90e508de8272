"""Output checks that do not reuse the code they check.

The program's results are first copied into plain data (``Outcome``): node
and edge tuples, ranked items and per-revision-pair expectations computed
from the two model versions by set difference. The checks then decide
support, containment and isomorphism with networkx VF2, and recompute
compression, ranking order and AP@k from their definitions. Transaction and
model files are parsed here, not with the program's readers.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

Graph = tuple[tuple[tuple[int, str], ...], tuple[tuple[int, int, str], ...]]

TOP = 10  # ranked items per list whose support is recounted


class CheckError(AssertionError):
    """A program output violates a property the method guarantees."""


@dataclass(frozen=True)
class Item:
    rank: int
    support: int
    compression: int
    code: str  # canonical code text, as the program prints it
    graph: Graph


@dataclass
class Pair:
    """One revision pair: the change counts its two versions imply, and the
    transactions the program produced for it."""

    expected: dict[str, int]  # create_/delete_ node and edge counts
    transactions: list[Graph]


@dataclass
class Outcome:
    """Everything the checks need about one dataset, as plain data."""

    pairs: list[Pair]
    threshold: int
    rankings: dict[str, list[Item]]  # mode -> items in rank order
    truths: dict[str, Graph]
    rows: dict[str, dict] | None = None  # evaluate_dataset rows by mode
    rule_dir: Path | None = None  # written rule files (CLI only)
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counters


# --- conversions -------------------------------------------------------------


def expected_changes(old_elements, old_refs, new_elements, new_refs) -> dict[str, int]:
    """Created/deleted counts implied by (uid, type) and reference set differences."""
    old_e, new_e = set(old_elements), set(new_elements)
    old_r, new_r = set(old_refs), set(new_refs)
    return {
        "create_nodes": len(new_e - old_e),
        "delete_nodes": len(old_e - new_e),
        "create_edges": len(new_r - old_r),
        "delete_edges": len(old_r - new_r),
    }


def rule_graph(context, created, deleted, created_edges, deleted_edges) -> Graph:
    """The change pattern a rule leaves in a simple change graph."""
    nodes = (
        [(n, "preserved_" + t) for n, t in context]
        + [(n, "create_" + t) for n, t in created]
        + [(n, "delete_" + t) for n, t in deleted]
    )
    edges = [(s, d, "create_" + t) for s, d, t in created_edges] + [
        (s, d, "delete_" + t) for s, d, t in deleted_edges
    ]
    return tuple(sorted(nodes)), tuple(sorted(edges))


def rule_doc_graph(doc: dict) -> Graph:
    """``rule_graph`` of a rule document (authored catalog or written rule)."""

    def nodes(key):
        return [(n["id"], n["type"]) for n in doc.get(key, [])]

    def edges(key):
        return [(e["src"], e["tgt"], e["type"]) for e in doc.get(key, [])]

    return rule_graph(
        nodes("contextNodes"),
        nodes("createdNodes"),
        nodes("deletedNodes"),
        edges("createdEdges"),
        edges("deletedEdges"),
    )


def parse_transactions(text: str) -> list[Graph]:
    """Read the line-based ``t``/``v``/``e`` transaction format."""
    graphs: list[Graph] = []
    nodes: list | None = None
    edges: list = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "t":
            if nodes is not None:
                graphs.append((tuple(sorted(nodes)), tuple(sorted(edges))))
            nodes, edges = [], []
        elif parts[0] == "v" and nodes is not None:
            nodes.append((int(parts[1]), parts[2]))
        elif parts[0] == "e" and nodes is not None:
            edges.append((int(parts[1]), int(parts[2]), parts[3]))
        else:
            raise CheckError(f"unreadable transaction line {line!r}")
    if nodes is not None:
        graphs.append((tuple(sorted(nodes)), tuple(sorted(edges))))
    return graphs


def read_model(path) -> tuple[set, set]:
    """(uid, type) elements and (src, tgt, type) references of a model file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    elements = {(e["uid"], e["type"]) for e in doc["elements"]}
    refs = {(r["src"], r["tgt"], r["type"]) for r in doc["references"]}
    return elements, refs


# --- graph relations (networkx VF2) -----------------------------------------


def size(g: Graph) -> int:
    return len(g[0]) + len(g[1])


def _nx(g: Graph):
    import networkx as nx  # loaded on first check, after the timed rounds

    out = nx.DiGraph()
    for nid, label in g[0]:
        out.add_node(nid, label=label)
    for src, dst, label in g[1]:
        if out.has_edge(src, dst):
            out[src][dst]["labels"] = out[src][dst]["labels"] | {label}
        else:
            out.add_edge(src, dst, labels=frozenset([label]))
    return out


def _same_label(a: dict, b: dict) -> bool:
    return a["label"] == b["label"]


def _label_counts(g: Graph) -> Counter:
    return Counter([l for _, l in g[0]] + ["->" + l for _, _, l in g[1]])


class Host:
    """A graph prepared once for many containment queries."""

    def __init__(self, g: Graph):
        self.graph = _nx(g)
        self.labels = _label_counts(g)

    def contains(self, pattern: "Host") -> bool:
        """Whether ``pattern`` maps into this graph by a label-preserving
        monomorphism (not necessarily induced), edge labels included."""
        from networkx.algorithms.isomorphism import DiGraphMatcher

        if pattern.labels - self.labels:
            return False
        matcher = DiGraphMatcher(
            self.graph,
            pattern.graph,
            node_match=_same_label,
            edge_match=lambda host, pat: pat["labels"] <= host["labels"],
        )
        return matcher.subgraph_is_monomorphic()

    def isomorphic(self, other: "Host") -> bool:
        import networkx as nx

        if self.labels != other.labels:
            return False
        return nx.is_isomorphic(
            self.graph,
            other.graph,
            node_match=_same_label,
            edge_match=lambda a, b: a["labels"] == b["labels"],
        )


# --- definitions recomputed --------------------------------------------------

_ENTRY = re.compile(r"^(\d+)([<>])(\d+):([^:]*):(.*)$")


def code_order(code: str) -> tuple:
    """Order of canonical code texts: root label, then per entry backward
    edges (smaller target first) before forward edges (deeper source first),
    then direction flag, edge label and target label."""
    root, *entries = code.split(";")
    keys = []
    for entry in entries:
        m = _ENTRY.match(entry)
        if m is None:
            raise CheckError(f"unreadable canonical code entry {entry!r}")
        i, arrow, j, elabel, tlabel = m.groups()
        i, j, dflag = int(i), int(j), 0 if arrow == ">" else 1
        keys.append((0, j, dflag, elabel, "") if j < i else (1, -i, dflag, elabel, tlabel))
    return root, tuple(keys)


def average_precision(ranks, k: int, total: int) -> float:
    """AP@k: mean over the relevant items of precision at each hit ranked <= k."""
    score = 0.0
    for seen, r in enumerate(sorted(r for r in ranks if r is not None), start=1):
        if r > k:
            break
        score += seen / r
    return score / total


# --- checks ------------------------------------------------------------------


def check_pairs(outcome: Outcome) -> None:
    """Created/deleted nodes and edges across a pair's transactions equal the
    uid and reference set differences of its two versions."""
    for i, pair in enumerate(outcome.pairs):
        got = Counter()
        for nodes, edges in pair.transactions:
            for _, label in nodes:
                for prefix in ("create_", "delete_"):
                    got[prefix + "nodes"] += label.startswith(prefix)
            for _, _, label in edges:
                for prefix in ("create_", "delete_"):
                    got[prefix + "edges"] += label.startswith(prefix)
        for key, want in pair.expected.items():
            if got[key] != want:
                raise CheckError(f"pair {i}->{i + 1}: {got[key]} {key} in transactions, versions imply {want}")


def check_order(outcome: Outcome) -> None:
    """Compression is (support - 1) * (nodes + edges); each list is sorted by
    its score, then larger size, then ascending canonical code; ranks run 1..n."""
    for mode, items in outcome.rankings.items():
        keys = []
        for pos, item in enumerate(items, start=1):
            if item.rank != pos:
                raise CheckError(f"{mode}: item {pos} carries rank {item.rank}")
            want = (item.support - 1) * size(item.graph)
            if item.compression != want:
                raise CheckError(f"{mode} rank {pos}: compression {item.compression}, formula gives {want}")
            primary = item.compression if mode == "compression" else item.support
            keys.append((-primary, -size(item.graph), code_order(item.code)))
        for pos in range(1, len(keys)):
            if not keys[pos - 1] < keys[pos]:
                raise CheckError(f"{mode}: ranks {pos} and {pos + 1} are out of order")


def check_supports(outcome: Outcome, hosts: list[Host]) -> None:
    """Recount the transaction support of the top items of every list."""
    counted: dict[str, int] = {}
    for mode, items in outcome.rankings.items():
        for item in items[:TOP]:
            if item.code not in counted:
                pattern = Host(item.graph)
                counted[item.code] = sum(1 for h in hosts if h.contains(pattern))
            if counted[item.code] != item.support:
                raise CheckError(
                    f"{mode} rank {item.rank}: support {item.support} reported, "
                    f"{counted[item.code]} transactions contain it"
                )
            if item.support < outcome.threshold:
                raise CheckError(f"{mode} rank {item.rank}: support below threshold {outcome.threshold}")


def check_closed(outcome: Outcome) -> None:
    """No kept pattern is contained in another kept pattern of equal support."""
    items = next(iter(outcome.rankings.values()), [])
    prepared = [Host(item.graph) for item in items]
    for a, pa in zip(items, prepared):
        for b, pb in zip(items, prepared):
            if a is b or a.support != b.support or size(a.graph) > size(b.graph):
                continue
            if pb.contains(pa):
                raise CheckError(
                    f"kept pattern {a.code} (support {a.support}) lies inside kept pattern {b.code}"
                )


def truth_ranks(outcome: Outcome, mode: str) -> dict[str, int | None]:
    """Rank of the first item isomorphic to each truth pattern."""
    truths = {name: Host(g) for name, g in outcome.truths.items()}
    found: dict[str, int | None] = {name: None for name in truths}
    for item in outcome.rankings[mode]:
        host = None
        for name, truth in truths.items():
            if found[name] is None and size(item.graph) == size(outcome.truths[name]):
                host = host or Host(item.graph)
                if host.isomorphic(truth):
                    found[name] = item.rank
    return found


def check_truths(outcome: Outcome, k: int) -> float:
    """AP@k of every list from isomorphism-located truths; equal to the
    program's row where there is one. Returns the compression AP@k."""
    names = sorted(outcome.truths)
    ap = {}
    for mode in outcome.rankings:
        ranks = truth_ranks(outcome, mode)
        ap[mode] = average_precision(ranks.values(), k, len(names))
        if outcome.rows is None:
            continue
        row = outcome.rows[mode]
        program = [row["rank_truth_1"], row["rank_truth_2"]][: len(names)]
        if program != [ranks[n] for n in names]:
            raise CheckError(f"{mode}: program ranks truths at {program}, isomorphism at {ranks}")
        if abs(row[f"ap@{k}"] - ap[mode]) > 1e-12:
            raise CheckError(f"{mode}: program AP@{k} {row[f'ap@{k}']}, recomputed {ap[mode]}")
    return ap["compression"]


def check_rules(outcome: Outcome) -> None:
    """One rule file (and its dot dump) per ranked item, with the item's node
    and edge counts; no other rule files."""
    items = outcome.rankings["compression"]
    written = sorted(p.name for p in outcome.rule_dir.iterdir())
    want = sorted(f"rule_{item.rank:04d}.{ext}" for item in items for ext in ("json", "dot"))
    if written != want:
        raise CheckError(f"rule files {written[:4]}... do not match the {len(items)} ranked items")
    for item in items:
        doc = json.loads((outcome.rule_dir / f"rule_{item.rank:04d}.json").read_text(encoding="utf-8"))
        nodes, edges = rule_doc_graph(doc)
        if (len(nodes), len(edges)) != (len(item.graph[0]), len(item.graph[1])):
            raise CheckError(f"rule {item.rank}: {len(nodes)} nodes/{len(edges)} edges, pattern has "
                             f"{len(item.graph[0])}/{len(item.graph[1])}")


def check_outcome(outcome: Outcome, k: int) -> float:
    """Run every check on one dataset; returns its checked compression AP@k."""
    check_pairs(outcome)
    check_order(outcome)
    hosts = [Host(t) for pair in outcome.pairs for t in pair.transactions]
    check_supports(outcome, hosts)
    check_closed(outcome)
    if outcome.rule_dir is not None:
        check_rules(outcome)
    return check_truths(outcome, k)
