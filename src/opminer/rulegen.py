"""Edit rules: declarative context/create/delete operations on models.

A mined change pattern converts directly into a rule: preserved_ nodes become
context, create_/delete_ elements become the created/deleted parts. Applying
a rule binds context and deleted nodes injectively to model elements, removes
the deleted part and adds fresh elements for the created part, as one delta on
a ``WorkingModel``. Application is also the engine the history simulator
drives.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Iterator, Mapping

from .graphcore import LabeledGraph, save_json
from .modeldiff import (
    CREATE,
    DELETE,
    PRESERVED,
    ModelError,
    WorkingModel,
    split_prefix,
)


class RuleError(ValueError):
    """Malformed rule or labels that cannot be interpreted as a rule."""


class NoMatchError(RuleError):
    """No valid binding of the rule into the model."""


class ConformanceError(RuleError):
    """Rule application would leave an invalid or non-conformant model."""


@dataclass(frozen=True)
class EditRule:
    """Context, created and deleted node/edge parts over rule-local node ids."""

    name: str
    context_nodes: tuple[tuple[int, str], ...]
    created_nodes: tuple[tuple[int, str], ...] = ()
    deleted_nodes: tuple[tuple[int, str], ...] = ()
    created_edges: tuple[tuple[int, int, str], ...] = ()
    deleted_edges: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        ids = [n for n, _ in self.context_nodes + self.created_nodes + self.deleted_nodes]
        if len(ids) != len(set(ids)):
            raise RuleError(f"rule {self.name!r}: duplicate rule node id")
        context = {n for n, _ in self.context_nodes}
        created = {n for n, _ in self.created_nodes}
        deleted = {n for n, _ in self.deleted_nodes}
        for src, dst, etype in self.created_edges:
            if not {src, dst} <= context | created:
                raise RuleError(
                    f"rule {self.name!r}: created edge ({src},{dst},{etype}) must "
                    "reference context or created nodes only"
                )
        for src, dst, etype in self.deleted_edges:
            if not {src, dst} <= context | deleted:
                raise RuleError(
                    f"rule {self.name!r}: deleted edge ({src},{dst},{etype}) must "
                    "reference context or deleted nodes only"
                )

    def to_json(self) -> dict:
        def nodes(part):
            return [{"id": n, "type": t} for n, t in part]

        def edges(part):
            return [{"src": s, "tgt": t, "type": y} for s, t, y in part]

        return {
            "name": self.name,
            "contextNodes": nodes(self.context_nodes),
            "createdNodes": nodes(self.created_nodes),
            "deletedNodes": nodes(self.deleted_nodes),
            "createdEdges": edges(self.created_edges),
            "deletedEdges": edges(self.deleted_edges),
        }


def save_rule(rule: EditRule, path) -> None:
    save_json(rule.to_json(), path)


def pattern_to_rule(graph: LabeledGraph, name: str = "mined") -> EditRule:
    """Interpret a change-prefixed pattern graph as an edit rule.

    preserved_ nodes become context, create_/delete_ parts the created and
    deleted sets; node and edge sets map bijectively. Labels without a prefix
    raise an error naming the offending element. Preserved edges have no rule
    representation and are rejected.
    """
    context, created, deleted = [], [], []
    for nid, label in graph.nodes:
        try:
            prefix, typ = split_prefix(label)
        except ModelError as exc:
            raise RuleError(f"node {nid}: {exc}") from exc
        {PRESERVED: context, CREATE: created, DELETE: deleted}[prefix].append((nid, typ))
    created_edges, deleted_edges = [], []
    for src, dst, label in graph.edges:
        try:
            prefix, etype = split_prefix(label)
        except ModelError as exc:
            raise RuleError(f"edge ({src},{dst}): {exc}") from exc
        if prefix == PRESERVED:
            raise RuleError(
                f"edge ({src},{dst},{etype}): preserved edges have no rule encoding"
            )
        (created_edges if prefix == CREATE else deleted_edges).append((src, dst, etype))
    return EditRule(
        name=name,
        context_nodes=tuple(context),
        created_nodes=tuple(created),
        deleted_nodes=tuple(deleted),
        created_edges=tuple(created_edges),
        deleted_edges=tuple(deleted_edges),
    )


def rule_to_pattern_graph(rule: EditRule) -> LabeledGraph:
    """Re-encode a rule as a change-prefixed labeled graph (the inverse map)."""
    nodes = (
        [(n, PRESERVED + t) for n, t in rule.context_nodes]
        + [(n, CREATE + t) for n, t in rule.created_nodes]
        + [(n, DELETE + t) for n, t in rule.deleted_nodes]
    )
    edges = [(s, d, CREATE + t) for s, d, t in rule.created_edges] + [
        (s, d, DELETE + t) for s, d, t in rule.deleted_edges
    ]
    return LabeledGraph.of(nodes, edges)


# --- application ------------------------------------------------------------


def _binding_nodes(rule: EditRule) -> tuple[tuple[int, str], ...]:
    return rule.context_nodes + rule.deleted_nodes


def _deleted_edge_uids(rule: EditRule, binding: Mapping[int, str]):
    return {(binding[s], binding[d], t) for s, d, t in rule.deleted_edges}


def _binding_valid(rule: EditRule, model: WorkingModel, binding: Mapping[int, str]) -> bool:
    """Equal types, injectivity, deleted edges present, no dangling deletions,
    and no created edge that would duplicate an existing reference."""
    values = list(binding.values())
    if len(set(values)) != len(values):
        return False
    for rid, typ in _binding_nodes(rule):
        uid = binding.get(rid)
        if uid is None or model.type_map.get(uid) != typ:
            return False
    refs = model.references
    if rule.deleted_nodes or rule.deleted_edges:
        to_delete = _deleted_edge_uids(rule, binding)
        if not to_delete <= refs:
            return False
        for rid, _ in rule.deleted_nodes:
            if not model.incident[binding[rid]] <= to_delete:
                return False  # deletion would leave a dangling reference
    context_ids = {n for n, _ in rule.context_nodes}
    for src, dst, etype in rule.created_edges:
        if src in context_ids and dst in context_ids:
            if (binding[src], binding[dst], etype) in refs:
                return False  # created edge already exists
    return True


def find_bindings(
    rule: EditRule, model: WorkingModel, fixed: Mapping[int, str] | None = None
) -> Iterator[dict[int, str]]:
    """Enumerate all valid bindings, in a deterministic order.

    Slots are ordered most-constrained-first along deleted-edge adjacency, and
    candidates for a slot adjacent to a placed one are read off the working
    model's reference indexes, so edge-constrained rules stay cheap on large
    models. The model must not change while the bindings are consumed.
    ``fixed`` pre-binds some slots, restricting the enumeration to their
    completions.
    """
    slots = dict(_binding_nodes(rule))
    by_type = model.by_type

    adjacency: dict[int, list[tuple[int, str, bool]]] = {rid: [] for rid in slots}
    for src, dst, etype in rule.deleted_edges:
        adjacency[src].append((dst, etype, True))   # edge leaves src
        adjacency[dst].append((src, etype, False))

    binding: dict[int, str] = dict(fixed or {})
    used: set[str] = set(binding.values())
    order: list[int] = []
    placed: set[int] = set(binding)
    remaining = set(slots) - placed
    while remaining:
        linked = [r for r in remaining if any(o in placed for o, _, _ in adjacency[r])]
        pool = linked or list(remaining)
        pick = min(pool, key=lambda r: (len(by_type.get(slots[r], ())), r))
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)

    def candidates(rid: int) -> list[str]:
        narrowed: set[str] | None = None
        for other, etype, outgoing in adjacency[rid]:
            if other not in binding:
                continue
            index = model.in_index if outgoing else model.out_index
            via = index.get((binding[other], etype), set())
            narrowed = via if narrowed is None else narrowed & via
        if narrowed is None:
            return by_type.get(slots[rid], [])  # sorted, without repeats
        typ = slots[rid]
        return sorted(u for u in narrowed if model.type_map.get(u) == typ)

    def backtrack(pos: int) -> Iterator[dict[int, str]]:
        if pos == len(order):
            if _binding_valid(rule, model, binding):
                yield dict(binding)
            return
        rid = order[pos]
        for uid in candidates(rid):
            if uid in used:
                continue
            binding[rid] = uid
            used.add(uid)
            yield from backtrack(pos + 1)
            del binding[rid]
            used.remove(uid)

    yield from backtrack(0)


#: proposals ``_sample_binding`` rejects before it enumerates every binding
_MAX_TRIES = 400


def _sample_binding(rule: EditRule, model: WorkingModel, rng) -> dict[int, str] | None:
    """Uniform random valid binding, or None when none exists.

    Rejection sampling from the uniform proposal over per-slot candidates is
    exactly uniform over the valid set; exhaustive enumeration decides the
    empty case after ``_MAX_TRIES`` rejections.
    """
    slots = _binding_nodes(rule)
    candidates = []
    for _, typ in slots:
        pool = model.by_type.get(typ)
        if not pool:
            return None
        candidates.append(pool)
    for _ in range(_MAX_TRIES):
        binding = {rid: rng.choice(pool) for (rid, _), pool in zip(slots, candidates)}
        if _binding_valid(rule, model, binding):
            return binding
    all_bindings = list(find_bindings(rule, model))
    if not all_bindings:
        return None
    return rng.choice(all_bindings)


@dataclass(frozen=True)
class ApplicationRecord:
    """What one application did: the binding, fresh uids and removals."""

    rule: str
    seed: int
    binding: tuple[tuple[int, str], ...]
    created: tuple[tuple[int, str], ...]
    deleted: tuple[str, ...]

    @property
    def touched(self) -> frozenset[str]:
        return frozenset(u for _, u in self.binding) | frozenset(u for _, u in self.created)


def apply_in_place(
    rule: EditRule,
    model: WorkingModel,
    site: Mapping[int, str] | str = "random",
    seed: int = 0,
) -> ApplicationRecord:
    """Apply a rule to a working model as one delta and report what happened.

    ``site`` is either an explicit binding (rule node id -> uid) or
    "random", which picks uniformly over all valid bindings under ``seed``.
    Fresh uids are ``<rulename>-<counter>-<seed>``, deterministic per seed.
    Raises NoMatchError when there is no valid binding and ConformanceError
    when the result would not be a valid model conforming to the working
    model's meta-model; either way the model is left unchanged.
    """
    if isinstance(site, str):
        if site != "random":
            raise RuleError(f"site must be a binding or 'random', got {site!r}")
        binding = _sample_binding(rule, model, _random.Random(seed))
        if binding is None:
            raise NoMatchError(f"rule {rule.name!r}: no valid binding in model")
    else:
        wanted = {rid for rid, _ in _binding_nodes(rule)}
        binding = {rid: uid for rid, uid in site.items() if rid in wanted}
        if not _binding_valid(rule, model, binding):
            raise NoMatchError(f"rule {rule.name!r}: supplied binding is not valid")

    deleted_uids = {binding[n] for n, _ in rule.deleted_nodes}
    fresh: dict[int, str] = {}
    for counter, (rid, _typ) in enumerate(rule.created_nodes):
        uid = f"{rule.name}-{counter}-{seed}"
        if uid in model.type_map:
            raise RuleError(f"fresh uid {uid!r} collides; use a distinct seed")
        fresh[rid] = uid

    def resolve(rid: int) -> str:
        return fresh[rid] if rid in fresh else binding[rid]

    try:
        model.apply(
            removed_elements=deleted_uids,
            removed_references=_deleted_edge_uids(rule, binding),
            added_elements=[(fresh[rid], typ) for rid, typ in rule.created_nodes],
            added_references=[(resolve(s), resolve(d), t) for s, d, t in rule.created_edges],
        )
    except ModelError as exc:
        raise ConformanceError(f"rule {rule.name!r}: {exc}") from exc
    return ApplicationRecord(
        rule=rule.name,
        seed=seed,
        binding=tuple(sorted(binding.items())),
        created=tuple(sorted(fresh.items())),
        deleted=tuple(sorted(deleted_uids)),
    )


def to_dot(rule: EditRule) -> str:
    """Graphviz dump for human review: parts colored by role."""
    colors = {"context": "black", "created": "darkgreen", "deleted": "red3"}
    lines = [f'digraph "{rule.name}" {{', "  node [shape=box];"]
    for part, nodes in (
        ("context", rule.context_nodes),
        ("created", rule.created_nodes),
        ("deleted", rule.deleted_nodes),
    ):
        for nid, typ in nodes:
            lines.append(f'  n{nid} [label="{typ}" color="{colors[part]}"];')
    for part, edges in (("created", rule.created_edges), ("deleted", rule.deleted_edges)):
        for src, dst, etype in edges:
            lines.append(f'  n{src} -> n{dst} [label="{etype}" color="{colors[part]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
