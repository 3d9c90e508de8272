"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately naive: union-find for components,
permutation search for isomorphism, exhaustive enumeration for embeddings,
connected subgraphs, frequent and closed patterns, a whole-model walk for
meta-model conformance. None of it shares code with the library paths it
verifies. ``induced`` and ``relabel_ids`` are
graph helpers for the tests.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Mapping

from opminer.graphcore import LabeledGraph
from opminer.modeldiff import ChangeGraph, ModelError


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def induced(g: LabeledGraph, node_ids: Iterable[int]) -> LabeledGraph:
    """Subgraph of ``g`` on the given nodes with every edge among them."""
    keep = set(node_ids)
    return LabeledGraph.of(
        [n for n in g.nodes if n[0] in keep],
        [e for e in g.edges if e[0] in keep and e[1] in keep],
    )


def relabel_ids(g: LabeledGraph, mapping: Mapping[int, int]) -> LabeledGraph:
    """Copy of ``g`` with node ids renamed through a bijection (labels unchanged)."""
    return LabeledGraph.of(
        [(mapping[n], l) for n, l in g.nodes],
        [(mapping[s], mapping[d], l) for s, d, l in g.edges],
    )


def components_oracle(g: LabeledGraph) -> list[frozenset[int]]:
    """Weak-connectivity classes via union-find over the undirected closure."""
    uf = UnionFind([n for n, _ in g.nodes])
    for src, dst, _ in g.edges:
        uf.union(src, dst)
    groups: dict[int, set[int]] = {}
    for n, _ in g.nodes:
        groups.setdefault(uf.find(n), set()).add(n)
    return sorted((frozenset(v) for v in groups.values()), key=min)


def isomorphic_oracle(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Exact isomorphism by trying every label-respecting node bijection."""
    if a.n_nodes != b.n_nodes or a.n_edges != b.n_edges:
        return False
    if sorted(l for _, l in a.nodes) != sorted(l for _, l in b.nodes):
        return False
    a_labels, b_labels = dict(a.nodes), dict(b.nodes)
    for perm in itertools.permutations(b_labels):
        mapping = dict(zip(a_labels, perm))
        if any(a_labels[n] != b_labels[mapping[n]] for n in a_labels):
            continue
        if {(mapping[s], mapping[d], l) for s, d, l in a.edges} == set(b.edges):
            return True
    return False


def embeddings_oracle(needle: LabeledGraph, hay: LabeledGraph) -> list[dict[int, int]]:
    """All injective embeddings by exhaustive placement search."""
    n_labels, h_labels = dict(needle.nodes), dict(hay.nodes)
    hay_edges = set(hay.edges)
    out = []
    for combo in itertools.permutations(h_labels, len(n_labels)):
        mapping = dict(zip(n_labels, combo))
        if any(n_labels[n] != h_labels[mapping[n]] for n in n_labels):
            continue
        if all((mapping[s], mapping[d], l) in hay_edges for s, d, l in needle.edges):
            out.append(mapping)
    return out


def _is_connected(node_ids, edges) -> bool:
    uf = UnionFind(node_ids)
    for s, d, _ in edges:
        uf.union(s, d)
    roots = {uf.find(n) for n in node_ids}
    return len(roots) == 1


def connected_subgraphs_oracle(g: LabeledGraph) -> list[LabeledGraph]:
    """Every connected subgraph (any node subset plus any edge subset on it)."""
    labels = dict(g.nodes)
    node_ids = list(labels)
    found: list[LabeledGraph] = []
    for r in range(1, len(node_ids) + 1):
        for node_combo in itertools.combinations(node_ids, r):
            keep = set(node_combo)
            pool = [e for e in g.edges if e[0] in keep and e[1] in keep]
            for k in range(len(pool) + 1):
                for edge_combo in itertools.combinations(pool, k):
                    if not _is_connected(node_combo, edge_combo):
                        continue
                    found.append(
                        LabeledGraph.of([(n, labels[n]) for n in node_combo], edge_combo)
                    )
    return found


def permutation_canonical(g: LabeledGraph) -> tuple:
    """Canonical encoding by exhaustive node reordering within label classes.

    Nodes are grouped by label (isomorphisms must respect labels); the
    encoding is the lexicographic minimum of the re-indexed sorted edge list
    over every combination of per-class orderings. Same encoding iff
    isomorphic. Independent of the library's DFS-code construction.
    """
    groups: dict[str, list[int]] = {}
    for nid, label in g.nodes:
        groups.setdefault(label, []).append(nid)
    labels_sorted = sorted(groups)
    label_tuple = tuple(
        label for label in labels_sorted for _ in groups[label]
    )
    per_class = [itertools.permutations(groups[label]) for label in labels_sorted]
    best = None
    for combo in itertools.product(*per_class):
        order = [nid for perm in combo for nid in perm]
        index = {nid: i for i, nid in enumerate(order)}
        enc = tuple(sorted((index[s], index[d], l) for s, d, l in g.edges))
        if best is None or enc < best:
            best = enc
    return (label_tuple, best)


def frequent_patterns_oracle(
    transactions: list[LabeledGraph], threshold: int
) -> list[tuple[LabeledGraph, int]]:
    """Enumerate-and-bucket frequent connected subgraph mining.

    Buckets all connected subgraphs of every transaction into isomorphism
    classes keyed by the permutation-minimum encoding and counts distinct
    transactions per class. Returns (representative, support) for classes
    at/over threshold.
    """
    classes: dict[tuple, tuple[LabeledGraph, set[int]]] = {}
    for tid, txn in enumerate(transactions):
        for sub in connected_subgraphs_oracle(txn):
            key = permutation_canonical(sub)
            if key in classes:
                classes[key][1].add(tid)
            else:
                classes[key] = (sub, {tid})
    return [
        (rep, len(tids)) for rep, tids in classes.values() if len(tids) >= threshold
    ]


def closed_patterns_oracle(
    transactions: list[LabeledGraph], threshold: int
) -> list[tuple[LabeledGraph, int]]:
    """The closed classes of ``frequent_patterns_oracle``, as (representative,
    support): those that no class one edge larger, containing the
    representative by ``embeddings_oracle``, matches in support."""
    classes = frequent_patterns_oracle(transactions, threshold)
    labels = []
    for g, _ in classes:
        at = dict(g.nodes)
        labels.append(Counter(at.values()) + Counter((at[a], l, at[b]) for a, b, l in g.edges))
    by_support_and_size: dict[tuple[int, int], list[int]] = {}
    for k, (h, t) in enumerate(classes):
        by_support_and_size.setdefault((t, h.n_edges), []).append(k)

    def dominated(k: int) -> bool:
        g, s = classes[k]
        return any(  # label counts first: a cheap necessary condition
            not labels[k] - labels[m] and embeddings_oracle(g, classes[m][0])
            for m in by_support_and_size.get((s, g.n_edges + 1), [])
        )

    return [classes[k] for k in range(len(classes)) if not dominated(k)]


def connected_subtrees_oracle(
    g: LabeledGraph, max_nodes: int
) -> list[LabeledGraph]:
    """Connected acyclic subgraphs (|E| = |V| - 1) up to a node budget."""
    return [
        s
        for s in connected_subgraphs_oracle(g)
        if s.n_nodes <= max_nodes and s.n_edges == s.n_nodes - 1
    ]


def random_labeled_graph(rng, n_nodes, n_labels, edge_prob, edge_labels=("x", "y")):
    """Random digraph helper shared by several oracle-comparison tests."""
    node_labels = [f"L{rng.randrange(n_labels)}" for _ in range(n_nodes)]
    nodes = list(enumerate(node_labels))
    edges = []
    for s in range(n_nodes):
        for d in range(n_nodes):
            if s != d and rng.random() < edge_prob:
                edges.append((s, d, rng.choice(edge_labels)))
    return LabeledGraph.of(nodes, edges)


def random_connected_graph(rng, n_nodes, n_labels, extra_edge_prob=0.25, edge_labels=("x", "y")):
    """Random connected digraph: a random spanning tree plus extra edges."""
    nodes = [(i, f"L{rng.randrange(n_labels)}") for i in range(n_nodes)]
    edges = set()
    for i in range(1, n_nodes):
        parent = rng.randrange(i)
        pair = (i, parent) if rng.random() < 0.5 else (parent, i)
        edges.add((pair[0], pair[1], rng.choice(edge_labels)))
    for s in range(n_nodes):
        for d in range(n_nodes):
            if s != d and rng.random() < extra_edge_prob:
                edges.add((s, d, rng.choice(edge_labels)))
    return LabeledGraph.of(nodes, edges)


def random_multi_digraph(rng, n_nodes):
    """Connected labelled digraph with antiparallel and parallel edge pairs."""
    nodes = [(i, rng.choice("AB")) for i in range(n_nodes)]
    edges = set()
    for v in range(1, n_nodes):
        u = rng.randrange(v)
        edges.add((u, v, rng.choice("xy")) if rng.random() < 0.5 else (v, u, rng.choice("xy")))
    for _ in range(rng.randint(2, n_nodes // 2 + 2)):
        s, d, label = rng.choice(sorted(edges))
        kind = rng.random()
        if kind < 0.35:
            edges.add((d, s, rng.choice("xy")))  # antiparallel
        elif kind < 0.7:
            edges.add((s, d, "y" if label == "x" else "x"))  # parallel, other label
        else:
            a, b = rng.sample(range(n_nodes), 2)
            edges.add((a, b, rng.choice("xy")))
    return LabeledGraph.of(nodes, edges)


def _dfs_entry_key(entry) -> tuple:
    """The documented order of code entries: backward before forward,
    backward by target index, forward by deeper source index first, then
    direction flag, edge label and target label."""
    i, j, dflag, _, edge_label, to_label = entry
    if j < i:
        return (0, j, dflag, edge_label)
    return (1, -i, dflag, edge_label, to_label)


def minimal_code_oracle(g: LabeledGraph) -> tuple[str, tuple]:
    """Minimal DFS code of a connected graph as (root label, entries).

    Enumerates every complete sequence of rightmost-path extensions read off
    the edge list, from every root, with no pruning rule and no greedy
    choice, and takes the least by (root label, entry keys). An entry is
    (i, j, dflag, from label, edge label, to label) over discovery indices;
    dflag is 0 when the edge runs from index i to index j.
    """
    labels = dict(g.nodes)
    best = None

    def walk(order, covered, rmpath, code):
        nonlocal best
        if len(covered) == g.n_edges:
            key = (labels[order[0]], [_dfs_entry_key(e) for e in code])
            if best is None or key < best[0]:
                best = (key, (labels[order[0]], tuple(code)))
            return
        index = {v: k for k, v in enumerate(order)}
        r = rmpath[-1]
        for edge in g.edges:
            if edge in covered:
                continue
            s, d, edge_label = edge
            a, b = index.get(s), index.get(d)
            if a is not None and b is not None:
                if r not in (a, b):
                    continue
                j = b if a == r else a
                if j not in rmpath:
                    continue
                entry = (r, j, 0 if a == r else 1, labels[order[r]], edge_label, labels[order[j]])
                walk(order, covered | {edge}, rmpath, code + [entry])
            elif a is not None or b is not None:
                i, w, dflag = (a, d, 0) if b is None else (b, s, 1)
                if i not in rmpath:
                    continue
                n = len(order)
                entry = (i, n, dflag, labels[order[i]], edge_label, labels[w])
                path = rmpath[: rmpath.index(i) + 1] + [n]
                walk(order + [w], covered | {edge}, path, code + [entry])

    for root, _ in g.nodes:
        walk([root], frozenset(), [0], [])
    return best[1]


def difference_graph_oracle(old, new):
    """The whole difference graph of two model versions, built element by
    element and checked by ``ChangeGraph.of``: elements correspond when uid
    and type are equal, references when both ends correspond and the
    reference is in both versions. Node ids: the preserved elements by
    sorted uid, then the deleted in old order, then the created in new
    order."""
    old_types, new_types = dict(old.elements), dict(new.elements)
    kept = {uid for uid, typ in old.elements if new_types.get(uid) == typ}
    new_refs = set(new.references)
    kept_refs = {
        ref for ref in old.references if ref in new_refs and ref[0] in kept and ref[1] in kept
    }
    nodes, provenance, old_ids, new_ids = [], {}, {}, {}
    rows = [(uid, old_types[uid], "preserved_", "both") for uid in sorted(kept)]
    rows += [(uid, typ, "delete_", "old") for uid, typ in old.elements if uid not in kept]
    rows += [(uid, typ, "create_", "new") for uid, typ in new.elements if uid not in kept]
    for nid, (uid, typ, prefix, origin) in enumerate(rows):
        nodes.append((nid, prefix + typ))
        provenance[nid] = (uid, origin)
        if origin != "new":
            old_ids[uid] = nid
        if origin != "old":
            new_ids[uid] = nid
    edges = [
        (old_ids[s], old_ids[t], ("preserved_" if (s, t, e) in kept_refs else "delete_") + e)
        for s, t, e in old.references
    ]
    edges += [(new_ids[s], new_ids[t], "create_" + e)
              for s, t, e in new.references if (s, t, e) not in kept_refs]
    return ChangeGraph.of(LabeledGraph.of(nodes, edges), provenance)


def scg_oracle(dg):
    """The simple change graph as the checked full difference graph ``dg``
    restricted to its changed part: every create_/delete_ node and edge, plus
    the preserved nodes a changed edge touches, with their difference-graph
    ids and provenance."""
    g = dg.graph
    changed_nodes = {n for n, label in g.nodes if not label.startswith("preserved_")}
    changed_edges = [e for e in g.edges if not e[2].startswith("preserved_")]
    keep = changed_nodes | {n for s, d, _ in changed_edges for n in (s, d)}
    labels = dict(g.nodes)
    return dg.restrict(LabeledGraph.of([(n, labels[n]) for n in keep], changed_edges))


def conformance_oracle(model, metamodel) -> None:
    """Raise ModelError unless the whole ``model`` conforms to ``metamodel``.

    Every element type first, in element order; then each reference in order:
    a known type, endpoint types, at most one containment parent for its
    target; last, from each contained element, a walk up its containment
    parents that must end within as many hops as there are contained
    elements. The messages are ``WorkingModel``'s, so its check of a start
    model raises the same one.
    """
    types = dict(model.elements)
    for uid, typ in model.elements:
        if typ not in metamodel.node_types:
            raise ModelError(f"element {uid}: unknown type {typ!r}")
    edge_types = {et.name: et for et in metamodel.edge_types}
    parent: dict[str, str] = {}
    for src, tgt, etype in model.references:
        et = edge_types.get(etype)
        if et is None:
            raise ModelError(f"reference type {etype!r} not in meta-model")
        if types[src] != et.src or types[tgt] != et.tgt:
            raise ModelError(
                f"reference ({src},{tgt},{etype}) violates endpoint types {et.src}->{et.tgt}"
            )
        if et.containment:
            if tgt in parent:
                raise ModelError(f"element {tgt} has two containment parents")
            parent[tgt] = src
    for uid in parent:
        hops, cur = 0, uid
        while cur in parent:
            cur = parent[cur]
            hops += 1
            if hops > len(parent):
                raise ModelError("containment cycle detected")
