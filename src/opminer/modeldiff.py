"""Model versions, difference graphs and simple change graphs.

Two successive versions of a typed model are compared on persistent element
ids and types. Their difference graph, whose labels carry
preserved_/create_/delete_ prefixes, is held as what changed between them,
and reduced to the simple change graph (SCG): all changed elements plus the
minimal preserved nodes needed to complete dangling changed edges. The SCG
is built from the changes alone; the whole difference graph is never built.
SCG connected components are the transactions the miner consumes.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .graphcore import LabeledGraph, connected_components

PRESERVED = "preserved_"
CREATE = "create_"
DELETE = "delete_"
PREFIXES = (PRESERVED, CREATE, DELETE)
_CLASH = {CREATE: DELETE, DELETE: CREATE}  # an edge's prefix -> the node prefix it must not touch


class ModelError(ValueError):
    """Malformed model, meta-model, or a conformance violation."""


@lru_cache(maxsize=1024)
def split_prefix(label: str) -> tuple[str, str]:
    """Split a change-graph label into (prefix, type name); error if unprefixed."""
    for prefix in PREFIXES:
        if label.startswith(prefix):
            return prefix, label[len(prefix):]
    raise ModelError(f"label {label!r} carries no change prefix")


@dataclass(frozen=True)
class EdgeType:
    name: str
    src: str
    tgt: str
    containment: bool = False


@dataclass(frozen=True)
class MetaModel:
    """Type vocabulary: node types plus typed, optionally containment, edge types."""

    node_types: frozenset[str]
    edge_types: tuple[EdgeType, ...]

    def __post_init__(self) -> None:
        names = [et.name for et in self.edge_types]
        if len(names) != len(set(names)):
            raise ModelError("duplicate edge type names")
        for et in self.edge_types:
            if et.src not in self.node_types or et.tgt not in self.node_types:
                raise ModelError(f"edge type {et.name!r} references undeclared node type")

    @cached_property
    def edge_type_map(self) -> dict[str, EdgeType]:
        return {et.name: et for et in self.edge_types}

    @cached_property
    def containment_names(self) -> frozenset[str]:
        return frozenset(et.name for et in self.edge_types if et.containment)

    def to_json(self) -> dict:
        return {
            "nodeTypes": sorted(self.node_types),
            "edgeTypes": [
                {"name": et.name, "src": et.src, "tgt": et.tgt, "containment": et.containment}
                for et in self.edge_types
            ],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "MetaModel":
        """Parse a meta-model document. ModelError unless ``nodeTypes`` is a list
        of strings and every edge type has string ``name``, ``src`` and
        ``tgt`` and, if present, a JSON boolean ``containment``."""
        doc = doc if isinstance(doc, Mapping) else {}
        node_types, edge_docs = doc.get("nodeTypes"), doc.get("edgeTypes")
        if not isinstance(node_types, list) or not all(isinstance(t, str) for t in node_types):
            raise ModelError("invalid meta-model document: nodeTypes must be a list of strings")
        if not isinstance(edge_docs, list):
            raise ModelError("invalid meta-model document: edgeTypes must be a list")
        edge_types = []
        for e in edge_docs:
            fields = [e.get(k) for k in ("name", "src", "tgt")] if isinstance(e, Mapping) else []
            if len(fields) != 3 or not all(isinstance(f, str) for f in fields):
                raise ModelError(f"invalid meta-model document: edge type {e!r} needs "
                                 "string name, src and tgt")
            containment = e.get("containment", False)
            if type(containment) is not bool:
                raise ModelError(f"invalid meta-model document: edge type {fields[0]!r}: "
                                 f"containment must be true or false, not {containment!r}")
            edge_types.append(EdgeType(*fields, containment))
        return cls(frozenset(node_types), tuple(edge_types))


@dataclass(frozen=True)
class ModelVersion:
    """One model snapshot: (uid, type) elements and (src, tgt, type) references.

    ``of`` checks that every uid, type and reference end is a string, that
    uids are unique and that every reference joins two distinct declared
    elements and occurs once, then sorts both; ``from_json`` and
    ``load_model`` build through ``of``. The constructor trusts its caller to
    pass sorted tuples that pass those checks, as ``WorkingModel.snapshot``
    does. It caches only ``type_map``, for ``validate_against``;
    ``difference_graph`` builds the reference sets it compares for the call.
    """

    elements: tuple[tuple[str, str], ...]
    references: tuple[tuple[str, str, str], ...]

    @classmethod
    def of(
        cls,
        elements: Iterable[tuple[str, str]] | Mapping[str, str],
        references: Iterable[tuple[str, str, str]] = (),
    ) -> "ModelVersion":
        if isinstance(elements, Mapping):
            elements = elements.items()
        elements, references = tuple(elements), tuple(references)
        cls._validate(elements, references)
        return cls(tuple(sorted(elements)), tuple(sorted(references)))

    @staticmethod
    def _validate(
        elements: tuple[tuple[str, str], ...], references: tuple[tuple[str, str, str], ...]
    ) -> None:
        declared = set()
        for uid, typ in elements:
            if not (isinstance(uid, str) and isinstance(typ, str)):
                raise ModelError(f"element ({uid!r}, {typ!r}): uid and type must be strings")
            declared.add(uid)
        if len(declared) != len(elements):
            raise ModelError("duplicate element uid")
        try:
            for src, tgt, etype in references:
                # Every declared uid is a string, so a declared end is one too.
                if src not in declared or tgt not in declared:
                    raise ModelError(f"reference ({src},{tgt},{etype}) touches unknown element")
                if not isinstance(etype, str):
                    raise ModelError(f"reference ({src},{tgt},{etype!r}): type must be a string")
                if src == tgt:
                    raise ModelError(f"self-reference on {src} is not supported")
        except TypeError as exc:  # an unhashable end, or no triple at all
            raise ModelError(f"a reference must be a triple of strings: {exc}") from exc
        if len(set(references)) != len(references):
            src, tgt, etype = next(r for r, n in Counter(references).items() if n > 1)
            raise ModelError(f"duplicate reference ({src},{tgt},{etype})")

    @cached_property
    def type_map(self) -> dict[str, str]:
        return dict(self.elements)

    def validate_against(self, metamodel: MetaModel) -> None:
        """Raise ModelError unless types conform and containment forms a forest."""
        for uid, typ in self.elements:
            if typ not in metamodel.node_types:
                raise ModelError(f"element {uid}: unknown type {typ!r}")
        parent: dict[str, str] = {}
        for src, tgt, etype in self.references:
            et = metamodel.edge_type_map.get(etype)
            if et is None:
                raise ModelError(f"reference type {etype!r} not in meta-model")
            if self.type_map[src] != et.src or self.type_map[tgt] != et.tgt:
                raise ModelError(
                    f"reference ({src},{tgt},{etype}) violates endpoint types "
                    f"{et.src}->{et.tgt}"
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

    def to_json(self) -> dict:
        return {
            "elements": [{"uid": u, "type": t} for u, t in self.elements],
            "references": [{"src": s, "tgt": t, "type": y} for s, t, y in self.references],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "ModelVersion":
        try:
            return cls.of(
                [(e["uid"], e["type"]) for e in doc["elements"]],
                [(r["src"], r["tgt"], r["type"]) for r in doc["references"]],
            )
        except (KeyError, TypeError) as exc:
            raise ModelError(f"invalid model document: {exc}") from exc


class WorkingModel:
    """A mutable model that changes by deltas and keeps its indexes current.

    It holds what rule matching reads: ``type_map``; ``by_type``, each type's
    uids in sorted order (random site choice depends on that order); the
    ``references`` set; ``out_index`` and ``in_index`` from (uid, edge type)
    to the uids at the other end; ``incident`` references per element; and,
    under a meta-model, the containment ``parent`` of each contained element.
    Each delta is checked only where it touches the model, for everything
    ``ModelVersion.of`` and ``validate_against`` check on a whole model; the
    start model is one delta on the empty model, so it is checked whole.
    """

    def __init__(self, model: ModelVersion, metamodel: MetaModel | None = None) -> None:
        self.metamodel = metamodel
        self.type_map: dict[str, str] = {}
        self.by_type: dict[str, list[str]] = {}
        self.references: set[tuple[str, str, str]] = set()
        self.out_index: dict[tuple[str, str], set[str]] = {}
        self.in_index: dict[tuple[str, str], set[str]] = {}
        self.incident: dict[str, set[tuple[str, str, str]]] = {}
        self.parent: dict[str, str] = {}
        self.apply(added_elements=model.elements, added_references=model.references)

    def _containment(self, etype: str) -> bool:
        return self.metamodel is not None and etype in self.metamodel.containment_names

    def _add_reference(self, ref: tuple[str, str, str]) -> None:
        src, tgt, etype = ref
        self.references.add(ref)
        self.out_index.setdefault((src, etype), set()).add(tgt)
        self.in_index.setdefault((tgt, etype), set()).add(src)
        self.incident[src].add(ref)
        self.incident[tgt].add(ref)
        if self._containment(etype):
            self.parent[tgt] = src

    def _remove_reference(self, ref: tuple[str, str, str]) -> None:
        src, tgt, etype = ref
        self.references.remove(ref)
        self.out_index[(src, etype)].remove(tgt)
        self.in_index[(tgt, etype)].remove(src)
        self.incident[src].remove(ref)
        self.incident[tgt].remove(ref)
        if self._containment(etype):
            del self.parent[tgt]

    def apply(
        self,
        removed_elements: Iterable[str] = (),
        removed_references: Iterable[tuple[str, str, str]] = (),
        added_elements: Iterable[tuple[str, str]] = (),
        added_references: Iterable[tuple[str, str, str]] = (),
    ) -> None:
        """Remove, then add; raise ModelError, changing nothing, if the result
        would not be a valid (and, under the meta-model, conformant) model."""
        gone = set(removed_elements)
        cut = set(removed_references)
        new_elements = list(added_elements)
        added = dict(new_elements)
        if len(added) != len(new_elements):
            raise ModelError("duplicate element uid")
        new_refs = list(added_references)
        self._check(gone, cut, added, new_refs)
        for ref in cut:
            self._remove_reference(ref)
        for uid in gone:
            uids = self.by_type[self.type_map.pop(uid)]
            del uids[bisect_left(uids, uid)]
            del self.incident[uid]
        for uid, typ in added.items():
            insort(self.by_type.setdefault(typ, []), uid)
            self.type_map[uid] = typ
            self.incident[uid] = set()
        for ref in new_refs:
            self._add_reference(ref)

    def _check(
        self,
        gone: set[str],
        cut: set[tuple[str, str, str]],
        added: dict[str, str],
        new_refs: list[tuple[str, str, str]],
    ) -> None:
        mm = self.metamodel
        if not cut <= self.references:
            raise ModelError(f"cannot remove absent references {sorted(cut - self.references)}")
        for uid in gone:
            if uid not in self.type_map:
                raise ModelError(f"cannot remove unknown element {uid}")
            if not self.incident[uid] <= cut:
                raise ModelError(f"removing {uid} leaves a dangling reference")
        for uid, typ in added.items():
            if uid in self.type_map and uid not in gone:
                raise ModelError("duplicate element uid")
            if mm is not None and typ not in mm.node_types:
                raise ModelError(f"element {uid}: unknown type {typ!r}")

        def type_of(uid: str) -> str | None:
            if uid in added:
                return added[uid]
            return None if uid in gone else self.type_map.get(uid)

        freed = {tgt for _, tgt, etype in cut if self._containment(etype)}

        def parent_of(uid: str) -> str | None:
            if uid in new_parent:
                return new_parent[uid]
            return None if uid in freed else self.parent.get(uid)

        seen: set[tuple[str, str, str]] = set()
        new_parent: dict[str, str] = {}
        for ref in new_refs:
            src, tgt, etype = ref
            if type_of(src) is None or type_of(tgt) is None:
                raise ModelError(f"reference ({src},{tgt},{etype}) touches unknown element")
            if src == tgt:
                raise ModelError(f"self-reference on {src} is not supported")
            if ref in seen or (ref in self.references and ref not in cut):
                raise ModelError(f"duplicate reference ({src},{tgt},{etype})")
            seen.add(ref)
            if mm is None:
                continue
            et = mm.edge_type_map.get(etype)
            if et is None:
                raise ModelError(f"reference type {etype!r} not in meta-model")
            if type_of(src) != et.src or type_of(tgt) != et.tgt:
                raise ModelError(
                    f"reference ({src},{tgt},{etype}) violates endpoint types "
                    f"{et.src}->{et.tgt}"
                )
            if et.containment:
                if parent_of(tgt) is not None:
                    raise ModelError(f"element {tgt} has two containment parents")
                new_parent[tgt] = src

        # Only a new containment edge can close a cycle: walk up from its source.
        for tgt, src in new_parent.items():
            visited, cur = {tgt}, src
            while cur is not None:
                if cur in visited:
                    raise ModelError("containment cycle detected")
                visited.add(cur)
                cur = parent_of(cur)

    def snapshot(self) -> ModelVersion:
        """The current model as a ``ModelVersion``. Trusted: every delta that
        built it passed the checks of ``ModelVersion.of`` and, under the
        meta-model, ``validate_against``, so they are not run again."""
        return ModelVersion(tuple(sorted(self.type_map.items())), tuple(sorted(self.references)))


_quote = json.encoder.encode_basestring_ascii


class _Lines(dict):
    """The encoded text of each element or reference seen, made on first lookup
    from a line template whose keys are in sorted order."""

    def __init__(self, encode) -> None:
        super().__init__()
        self.encode = encode

    def __missing__(self, item):
        line = self[item] = self.encode(*map(_quote, item))
        return line


def _element_line(uid: str, typ: str) -> str:
    return f'    {{\n      "type": {typ},\n      "uid": {uid}\n    }}'


def _reference_line(src: str, tgt: str, typ: str) -> str:
    return f'    {{\n      "src": {src},\n      "tgt": {tgt},\n      "type": {typ}\n    }}'


def _block(key: str, items: tuple, lines: _Lines) -> str:
    if not items:
        return f'  "{key}": []'
    return f'  "{key}": [\n' + ",\n".join(map(lines.__getitem__, items)) + "\n  ]"


def save_models(files: Iterable[tuple[ModelVersion, object]]) -> None:
    """Write each ``(model, path)`` of ``files`` as ``json.dumps(model.to_json(),
    indent=2, sort_keys=True)`` and a newline, byte for byte.

    The program's one hand-built JSON writer: ``json.dump`` (``save_json``)
    encodes token by token in Python under ``indent``, over ten times slower
    on a bundle. Each file is two blocks of lines from two fixed templates.
    Every model field is a string (``ModelVersion.of`` checks it), quoted by
    the C ``encode_basestring_ascii`` as ``json.dumps`` quotes it by default.
    Each element or reference is encoded once per call, since the versions of
    one history share most of them; the lines live only as long as the call.
    """
    elements, references = _Lines(_element_line), _Lines(_reference_line)
    for model, path in files:
        text = (
            "{\n"
            + _block("elements", model.elements, elements)
            + ",\n"
            + _block("references", model.references, references)
            + "\n}\n"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_model(path) -> ModelVersion:
    with open(path, "r", encoding="utf-8") as fh:
        return ModelVersion.from_json(json.load(fh))


@dataclass(frozen=True)
class ChangeGraph:
    """A change graph (an SCG or one of its components) plus provenance back
    to concrete elements.

    Node labels are <prefix><NodeType>, edge labels <prefix><EdgeType>.
    Provenance maps node id to (uid, origin) with origin in {old, new, both}.

    ``of`` checks that every label carries a change prefix, that every node
    has provenance, and that no create_ edge touches a delete_ node nor a
    delete_ edge a create_ node; it splits each node label once. Each check
    reads one node, or one edge and its two endpoints, and a subgraph keeps
    those with the same labels and provenance, so every subgraph of a checked
    change graph passes: ``restrict`` takes subgraphs without checking again.
    """

    graph: LabeledGraph
    provenance: tuple[tuple[int, tuple[str, str]], ...]

    @classmethod
    def of(cls, graph: LabeledGraph, provenance: Mapping[int, tuple[str, str]]) -> "ChangeGraph":
        cg = cls(graph, tuple(sorted(provenance.items())))
        cg._validate()
        return cg

    def restrict(self, graph: LabeledGraph) -> "ChangeGraph":
        """The change graph on ``graph``, a subgraph of this one's graph (same
        node ids and labels), with provenance taken from this one. Trusted: a
        subgraph of a checked change graph passes every check of ``of``."""
        provenance = dict(self.provenance)
        return ChangeGraph(graph, tuple((nid, provenance[nid]) for nid, _ in graph.nodes))

    def _validate(self) -> None:
        provenance = dict(self.provenance)
        node_prefix = {}
        for nid, label in self.graph.nodes:
            node_prefix[nid], _ = split_prefix(label)
            if nid not in provenance:
                raise ModelError(f"node {nid} has no provenance entry")
        for src, dst, label in self.graph.edges:
            prefix, _ = split_prefix(label)
            clash = _CLASH.get(prefix)
            for endpoint in (src, dst):
                if node_prefix[endpoint] == clash:
                    raise ModelError(
                        f"{prefix.rstrip('_')} edge ({src},{dst}) touches a {clash}node"
                    )

    def min_uid(self) -> str:
        return min((uid for _, (uid, _) in self.provenance), default="")


@dataclass(frozen=True)
class DifferenceGraph:
    """The unified difference graph of two versions, held as the old version
    and what changed between them: the elements and references of each
    version that correspond to none of the other. Elements correspond when
    uid and type are equal, references when they are in both versions and
    both their ends correspond.

    Node ids follow one rule: the preserved elements first, by sorted uid,
    then the deleted elements in old order, then the created elements in new
    order (model elements are sorted by uid, so both orders are uid order).
    ``simple_change_graph`` numbers the nodes it takes by that rule; the
    whole graph, preserved part included, is never built.
    """

    old: ModelVersion
    deleted: tuple[tuple[str, str], ...]  # in old order
    created: tuple[tuple[str, str], ...]  # in new order
    deleted_references: frozenset[tuple[str, str, str]]
    created_references: frozenset[tuple[str, str, str]]


def difference_graph(old: ModelVersion, new: ModelVersion) -> DifferenceGraph:
    """Unified graph over both versions with preserved_/create_/delete_ labels.

    Corresponding elements appear once; every element of either version
    appears exactly once. Node ids follow the rule of ``DifferenceGraph``.
    Only what changed is found here, by set differences of the two versions'
    elements and references, built for the call and not kept on either
    version; a reference of both versions with a retyped end is deleted and
    re-created with it.
    """
    old_elements, new_elements = frozenset(old.elements), frozenset(new.elements)
    deleted = tuple(sorted(old_elements - new_elements))
    created = tuple(sorted(new_elements - old_elements))
    old_refs, new_refs = frozenset(old.references), frozenset(new.references)
    deleted_references = old_refs - new_refs
    created_references = new_refs - old_refs
    retyped = {uid for uid, _ in deleted}.intersection(uid for uid, _ in created)
    if retyped:
        moved = frozenset(
            ref for ref in old_refs & new_refs if ref[0] in retyped or ref[1] in retyped
        )
        deleted_references |= moved
        created_references |= moved
    return DifferenceGraph(old, deleted, created, deleted_references, created_references)


def simple_change_graph(dg: DifferenceGraph) -> ChangeGraph:
    """Boundary graph of the changed elements of a difference graph.

    Keeps all create_/delete_ nodes and edges, plus exactly the preserved
    nodes needed so no changed edge dangles. Preserved edges never appear.

    Built from what changed alone: the deleted and created elements and
    references, and the preserved ends of those references. Each node keeps
    its difference-graph id: with P preserved and D deleted elements, a
    preserved element's id is its rank among the preserved uids (its index
    in the sorted old elements less the deleted uids before it), the k-th
    deleted element's is P + k and the k-th created element's P + D + k.
    Trusted, as ``ChangeGraph.restrict`` is: the result is a subgraph of the
    whole difference graph, which passes every check of ``ChangeGraph.of``,
    so it is not checked.
    """
    old = dg.old
    gone = [uid for uid, _ in dg.deleted]
    preserved = len(old.elements) - len(gone)
    old_ids = {uid: preserved + k for k, uid in enumerate(gone)}
    new_ids = {uid: len(old.elements) + k for k, (uid, _) in enumerate(dg.created)}
    boundary = {uid for ref in dg.deleted_references for uid in ref[:2] if uid not in old_ids}
    boundary.update(uid for ref in dg.created_references for uid in ref[:2] if uid not in new_ids)

    nodes: list[tuple[int, str]] = []
    provenance: list[tuple[int, tuple[str, str]]] = []
    for uid in sorted(boundary):
        at = bisect_left(old.elements, (uid,))
        nid = old_ids[uid] = new_ids[uid] = at - bisect_left(gone, uid)
        nodes.append((nid, PRESERVED + old.elements[at][1]))
        provenance.append((nid, (uid, "both")))
    for ids, elements, prefix, origin in (
        (old_ids, dg.deleted, DELETE, "old"), (new_ids, dg.created, CREATE, "new")
    ):
        for uid, typ in elements:
            nodes.append((ids[uid], prefix + typ))
            provenance.append((ids[uid], (uid, origin)))
    edges = [(old_ids[s], old_ids[t], DELETE + etype) for s, t, etype in dg.deleted_references]
    edges += [(new_ids[s], new_ids[t], CREATE + etype) for s, t, etype in dg.created_references]
    return ChangeGraph(LabeledGraph(tuple(nodes), tuple(sorted(edges))), tuple(provenance))


def change_components(cg: ChangeGraph) -> list[ChangeGraph]:
    """Connected components of a change graph, ordered by smallest provenance uid."""
    comps = [cg.restrict(comp) for comp in connected_components(cg.graph)]
    return sorted(comps, key=lambda c: c.min_uid())


def change_counts(cg: ChangeGraph) -> dict[str, int]:
    """Created/deleted/preserved element counts (nodes and edges together)."""
    counts = {"created": 0, "deleted": 0, "preserved": 0}
    for *_, label in cg.graph.nodes + cg.graph.edges:
        prefix, _ = split_prefix(label)
        counts[{PRESERVED: "preserved", CREATE: "created", DELETE: "deleted"}[prefix]] += 1
    return counts
