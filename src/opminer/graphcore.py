"""Labeled directed graphs and the operations every other stage builds on.

A graph is a set of (id, label) nodes plus directed (src, dst, label) edges.
The module provides weak connected components, the gSpan extension step of
a DFS code (rightmost-path growth with its pruning rules), a canonical form
for connected graphs (the minimal DFS code, with an explicit direction flag
per code entry, grown greedily by that same step), label- and
direction-preserving subgraph embedding search, the line-based transaction
file format shared by the mining pipeline, and ``save_json``: ``json.dump``
in the one layout of every JSON document the program saves, which
``modeldiff.save_models`` builds by hand for models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class GraphError(ValueError):
    """Malformed graph data or graph file."""


def incidence(g: LabeledGraph) -> dict[int, tuple[tuple[int, int, str, str], ...]]:
    """Per node: (other endpoint, direction flag (0 out, 1 in), edge label,
    other endpoint's label), sorted. ``miner.TransactionDB.incident`` keeps it
    for the transactions every growth step scans; every other caller builds
    it for the call."""
    labels = dict(g.nodes)
    inc: dict[int, list[tuple[int, int, str, str]]] = {nid: [] for nid, _ in g.nodes}
    for src, dst, label in g.edges:
        inc[src].append((dst, 0, label, labels[dst]))
        inc[dst].append((src, 1, label, labels[src]))
    return {nid: tuple(sorted(items)) for nid, items in inc.items()}


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable directed graph with string labels on nodes and edges.

    Node ids are opaque integers local to one graph. Parallel edges between
    the same ordered node pair are allowed when their labels differ;
    (src, dst, label) triples are unique. Self-loops are rejected.

    ``of`` sorts nodes by id and edges by (src, dst, label) and checks all of
    the above; every graph built from outside data (transaction files,
    pattern and rule documents) goes through it. The constructor trusts its
    caller to pass sorted tuples that pass those checks, as a subgraph or a
    one-edge extension of a checked graph does.

    A graph is its nodes and edges only: a call that needs an index on it
    (incidence map, label map, edge set) builds its own, so none is cached.
    """

    nodes: tuple[tuple[int, str], ...]
    edges: tuple[tuple[int, int, str], ...]

    @classmethod
    def of(
        cls,
        nodes: Mapping[int, str] | Iterable[tuple[int, str]],
        edges: Iterable[tuple[int, int, str]] = (),
    ) -> "LabeledGraph":
        """Build a graph from any node/edge iterables, normalized and validated."""
        if isinstance(nodes, Mapping):
            nodes = nodes.items()
        g = cls(tuple(sorted(nodes)), tuple(sorted(edges)))
        g._validate()
        return g

    def _validate(self) -> None:
        seen: dict[int, str] = {}
        for nid, label in self.nodes:
            if not isinstance(nid, int):
                raise GraphError(f"node id {nid!r} is not an integer")
            if nid in seen:
                raise GraphError(f"duplicate node id {nid}")
            seen[nid] = label
        edge_seen = set()
        for src, dst, label in self.edges:
            if src not in seen or dst not in seen:
                raise GraphError(f"edge ({src},{dst},{label!r}) references undeclared node")
            if src == dst:
                raise GraphError(f"self-loop on node {src} is not supported")
            triple = (src, dst, label)
            if triple in edge_seen:
                raise GraphError(f"duplicate edge {triple}")
            edge_seen.add(triple)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def size(self) -> int:
        """Node count plus edge count; the quantity compression scores weigh."""
        return len(self.nodes) + len(self.edges)


def connected_components(g: LabeledGraph) -> list[LabeledGraph]:
    """Split into induced subgraphs on weak-connectivity classes.

    Edge direction is ignored for connectivity. Components are ordered by
    their smallest node id; the empty graph yields an empty list. One walk
    numbers every node's component, then the sorted nodes and edges are
    dealt out to their components in order, so each stays sorted.
    """
    neighbours: dict[int, list[int]] = {nid: [] for nid, _ in g.nodes}
    for src, dst, _ in g.edges:
        neighbours[src].append(dst)
        neighbours[dst].append(src)
    component: dict[int, int] = {}
    count = 0
    for start in neighbours:  # in node id order
        if start in component:
            continue
        component[start] = count
        stack = [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in component:
                    component[w] = count
                    stack.append(w)
        count += 1
    nodes: list[list[tuple[int, str]]] = [[] for _ in range(count)]
    edges: list[list[tuple[int, int, str]]] = [[] for _ in range(count)]
    for node in g.nodes:
        nodes[component[node[0]]].append(node)
    for edge in g.edges:
        edges[component[edge[0]]].append(edge)
    return [LabeledGraph(tuple(n), tuple(e)) for n, e in zip(nodes, edges)]


# --- canonical form -------------------------------------------------------

# A code entry is (i, j, dflag, from_label, edge_label, to_label) where i, j
# are DFS discovery indices, and dflag records the underlying edge direction:
# 0 when the edge runs from the node at index i to the node at index j, else 1.
# Forward entries discover index j == len(order); backward entries close to an
# earlier index j < i on the rightmost path.
CodeEntry = tuple[int, int, int, str, str, str]


def _entry_key(entry: CodeEntry) -> tuple:
    i, j, dflag, _lf, le, lt = entry
    if j < i:  # backward: smaller target index first
        return (0, j, dflag, le, "")
    return (1, -i, dflag, le, lt)  # forward: deeper source index first


@dataclass(frozen=True)
class CanonicalCode:
    """Minimal DFS code of a connected graph; equal iff graphs are isomorphic.

    Ordered lexicographically by (root label, per-entry keys), which is a
    total order usable as a deterministic tie-break.
    """

    root_label: str
    entries: tuple[CodeEntry, ...]

    @cached_property
    def sort_key(self) -> tuple:
        return (self.root_label, tuple(_entry_key(e) for e in self.entries))

    def __lt__(self, other: "CanonicalCode") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "CanonicalCode") -> bool:
        return self.sort_key <= other.sort_key

    @property
    def text(self) -> str:
        if not self.entries:
            return self.root_label
        parts = [self.root_label]
        for i, j, dflag, _lf, le, lt in self.entries:
            arrow = ">" if dflag == 0 else "<"
            parts.append(f"{i}{arrow}{j}:{le}:{lt}")
        return ";".join(parts)


def rightmost_path(rmpath: tuple[int, ...], entry: CodeEntry) -> tuple[int, ...]:
    """The rightmost path of a code once ``entry`` is appended to it."""
    i, j = entry[0], entry[1]
    return rmpath if j < i else rmpath[: rmpath.index(i) + 1] + (j,)


Embedding = tuple[int, ...]  # host node per discovery index
Incidence = Mapping[int, Sequence[tuple[int, int, str, str]]]


def rightmost_extensions(
    root_label: str,
    entries: tuple[CodeEntry, ...],
    rmpath: tuple[int, ...],
    *,
    backward: bool = True,
    forward: bool = True,
) -> Callable[[Incidence, Iterable[Embedding]], dict[CodeEntry, list[Embedding]]]:
    """One gSpan extension step (Yan & Han 2002) of the DFS code ``entries``.

    The code's pattern numbers its nodes by discovery index, and ``rmpath``
    runs from the root 0 to the rightmost vertex r. The step returns
    ``extend(incident, embeddings)``: for one host graph, given by its
    ``incident`` map, it maps each entry that appends one host edge to the
    embeddings grown by it. Entries are backward edges from r to the path
    (when ``backward``) and forward edges from any path vertex to an unmapped
    node (when ``forward``), less three rules that drop entries whose code
    cannot be minimal, each because the grown graph has a DFS enumeration
    with a smaller code:

    1. a forward edge to a label below the root label: the minimal code
       starts at that smaller label;
    2. a forward edge from a path vertex i other than r whose (direction
       flag, edge label, target label) is below that of the entry that
       discovered i's successor on the path: the new node is a leaf, so
       visiting it from i before that successor gives the same prefix and
       then a smaller entry;
    3. a backward edge r-j whose key as a forward edge from j, (1 - direction
       flag, edge label, label of r), is below that of the entry that
       discovered j's successor: walking the cycle j ... r the other way
       round gives the same prefix and then a smaller entry.
    """
    labels = [root_label] + [e[5] for e in entries if e[1] > e[0]]
    held = {(i, j, el) if dflag == 0 else (j, i, el) for i, j, dflag, _, el, _ in entries}
    discovered = {e[1]: (e[2], e[4], e[5]) for e in entries if e[1] > e[0]}
    # per path vertex but r: the key of the entry that discovered its successor
    floor = {i: discovered[k] for i, k in zip(rmpath, rmpath[1:])}
    inner = [(i, labels[i], floor[i]) for i in rmpath[:-1]] if forward else []
    n, r = len(labels), rmpath[-1]
    r_label = labels[r]

    def extend(incident: Incidence, embeddings: Iterable[Embedding]):
        table: dict[CodeEntry, list[Embedding]] = {}
        for emb in embeddings:
            mapped = set(emb)
            for w, dflag, el, w_label in incident[emb[r]]:
                if w not in mapped:
                    if forward and w_label >= root_label:  # rule 1
                        entry = (r, n, dflag, r_label, el, w_label)
                        table.setdefault(entry, []).append(emb + (w,))
                elif backward:
                    j = emb.index(w)
                    if j not in floor or (1 - dflag, el, r_label) < floor[j]:
                        continue  # off the path, or rule 3
                    if ((r, j, el) if dflag == 0 else (j, r, el)) in held:
                        continue  # an edge the pattern already holds
                    entry = (r, j, dflag, r_label, el, labels[j])
                    table.setdefault(entry, []).append(emb)
            for i, i_label, lo in inner:
                for w, dflag, el, w_label in incident[emb[i]]:
                    if w in mapped or w_label < root_label or (dflag, el, w_label) < lo:
                        continue  # on the pattern, or rule 1 or 2
                    entry = (i, n, dflag, i_label, el, w_label)
                    table.setdefault(entry, []).append(emb + (w,))
        return table

    return extend


@lru_cache(maxsize=32768)
def canonical_code(g: LabeledGraph) -> CanonicalCode:
    """Minimal DFS code over all valid depth-first enumerations of g.

    Deterministic and invariant under node-id renaming. Raises GraphError
    for empty or disconnected input.

    The code grows greedily, as gSpan grows it. Embeddings start at every
    node with the smallest label; each step appends the smallest entry of
    ``rightmost_extensions`` by ``_entry_key`` and keeps that entry's
    embeddings, and the code is complete when no entry is left. Two facts
    make this exact without a dead-end check:

    - backward entries sort before forward ones, and deeper forward sources
      before shallower ones, so an embedding that has the smallest entry
      never strands an uncovered edge: none is left at the rightmost vertex
      or at a path vertex that the entry takes off the rightmost path;
    - the rules of ``rightmost_extensions`` remove only entries that cannot
      extend a minimal prefix.

    So the kept embeddings end with every edge covered, and each step's
    smallest entry is the next entry of the minimal code. On a connected
    graph they then cover every node, and on a disconnected one they cannot:
    the walk ends short of ``g.n_nodes`` exactly when g is disconnected.
    """
    if g.n_nodes == 0:
        raise GraphError("canonical code of the empty graph is undefined")
    root_label = min(label for _, label in g.nodes)
    entries: tuple[CodeEntry, ...] = ()
    rmpath: tuple[int, ...] = (0,)
    embeddings = [(v,) for v, label in g.nodes if label == root_label]
    incident = incidence(g)
    while True:
        table = rightmost_extensions(root_label, entries, rmpath)(incident, embeddings)
        if not table:
            if len(embeddings[0]) < g.n_nodes:
                raise GraphError("canonical_code requires a connected graph")
            return CanonicalCode(root_label, entries)
        entry = min(table, key=_entry_key)
        entries += (entry,)
        rmpath = rightmost_path(rmpath, entry)
        embeddings = table[entry]


# --- subgraph embedding ---------------------------------------------------


def _search_order(incident: Incidence) -> list[int]:
    """Node visit order keeping each next node adjacent to placed ones."""
    remaining = set(incident)
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        adjacent = sorted(
            v for v in remaining if any(w in placed for w, *_ in incident[v])
        )
        pick = adjacent[0] if adjacent else min(remaining)
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return order


def find_embeddings(needle: LabeledGraph, hay: LabeledGraph) -> Iterator[dict[int, int]]:
    """Yield every injective label- and direction-preserving embedding.

    Embeddings map needle node ids to hay node ids, in a deterministic order.
    The needle's incidence map and the hay's edge set are built for the call.
    """
    if needle.n_nodes == 0:
        yield {}
        return
    incident = incidence(needle)
    order = _search_order(incident)
    by_label: dict[str, list[int]] = {}
    for nid, label in hay.nodes:
        by_label.setdefault(label, []).append(nid)
    labels = dict(needle.nodes)
    candidates = {v: by_label.get(labels[v], []) for v in order}
    hay_edges = set(hay.edges)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> Iterator[dict[int, int]]:
        if pos == len(order):
            yield dict(mapping)
            return
        v = order[pos]
        for h in candidates[v]:
            if h in used:
                continue
            ok = True
            for w, dflag, el, _ in incident[v]:
                if w not in mapping:
                    continue
                need = (h, mapping[w], el) if dflag == 0 else (mapping[w], h, el)
                if need not in hay_edges:
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = h
            used.add(h)
            yield from backtrack(pos + 1)
            del mapping[v]
            used.remove(h)

    yield from backtrack(0)


def is_subgraph_isomorphic(
    needle: LabeledGraph, hay: LabeledGraph
) -> tuple[bool, dict[int, int] | None]:
    """Decide embeddability and return one witness embedding if it exists."""
    witness = next(find_embeddings(needle, hay), None)
    return (witness is not None, witness)


# --- transaction line format ----------------------------------------------


def dumps_transactions(graphs: Sequence[LabeledGraph]) -> str:
    """Serialize graphs in the line-based transaction format.

    ``t # <k>`` starts transaction k, ``v <id> <label>`` declares a node and
    ``e <src> <dst> <label>`` a directed edge. Output is deterministic: nodes
    sorted by id, edges by (src, dst, label).
    """
    lines: list[str] = []
    for k, g in enumerate(graphs):
        lines.append(f"t # {k}")
        for nid, label in g.nodes:
            if nid < 0:
                raise GraphError(f"node id {nid} not representable (negative)")
            if not label or any(c.isspace() for c in label):
                raise GraphError(f"label {label!r} not representable (whitespace/empty)")
            lines.append(f"v {nid} {label}")
        for src, dst, label in g.edges:
            if not label or any(c.isspace() for c in label):
                raise GraphError(f"label {label!r} not representable (whitespace/empty)")
            lines.append(f"e {src} {dst} {label}")
    return "\n".join(lines) + ("\n" if lines else "")


def loads_transactions(text: str) -> list[LabeledGraph]:
    """Parse the line-based transaction format; errors carry line numbers."""
    graphs: list[LabeledGraph] = []
    nodes: list[tuple[int, str]] | None = None
    edges: list[tuple[int, int, str]] = []
    start_line = 0

    def flush() -> None:
        if nodes is None:
            return
        try:
            graphs.append(LabeledGraph.of(nodes, edges))
        except GraphError as exc:
            raise GraphError(f"line {start_line}: transaction invalid: {exc}") from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "t":
            flush()
            nodes, edges = [], []
            start_line = lineno
        elif kind == "v":
            if nodes is None:
                raise GraphError(f"line {lineno}: node before first transaction")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'v <id> <label>'")
            try:
                nid = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: node id {parts[1]!r} is not an integer")
            if nid < 0:
                raise GraphError(f"line {lineno}: node id must be non-negative")
            nodes.append((nid, parts[2]))
        elif kind == "e":
            if nodes is None:
                raise GraphError(f"line {lineno}: edge before first transaction")
            if len(parts) != 4:
                raise GraphError(f"line {lineno}: expected 'e <src> <dst> <label>'")
            try:
                src, dst = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: edge endpoints must be integers")
            edges.append((src, dst, parts[3]))
        else:
            raise GraphError(f"line {lineno}: unknown record {kind!r}")
    flush()
    return graphs


def save_transactions(graphs: Sequence[LabeledGraph], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_transactions(graphs))


# --- JSON documents ------------------------------------------------------------


def save_json(doc, path) -> None:
    """Write ``doc`` to ``path`` as ``json.dump(doc, indent=2, sort_keys=True)``
    and a newline, so equal documents give equal files."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
