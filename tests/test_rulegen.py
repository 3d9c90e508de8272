import math
import random

import pytest

from opminer.graphcore import LabeledGraph, canonical_code, is_subgraph_isomorphic
from opminer.modeldiff import (
    ModelError,
    ModelVersion,
    WorkingModel,
    difference_graph,
    simple_change_graph,
)
from opminer.rulegen import (
    ConformanceError,
    EditRule,
    NoMatchError,
    RuleError,
    apply_in_place,
    find_bindings,
    pattern_to_rule,
    rule_to_pattern_graph,
    to_dot,
)
from opminer.simgen import build_initial, default_metamodel
from fixtures import (
    FIXTURE_METAMODEL,
    NESTING_METAMODEL,
    SMALL_COUNTS,
    fig_pair,
    working_view,
)
from oracles import conformance_oracle


def fig_rule() -> EditRule:
    """The two-component interface rule: 2 context, 4 created, 7 created edges."""
    return EditRule(
        name="connect_components",
        context_nodes=((0, "Component"), (1, "Component")),
        created_nodes=((2, "Port"), (3, "Port"), (4, "Connector"), (5, "Requirement")),
        created_edges=(
            (0, 2, "port"),
            (1, 3, "port"),
            (4, 2, "end"),
            (4, 3, "end"),
            (4, 0, "part"),
            (4, 1, "part"),
            (5, 4, "satisfies"),
        ),
    )


class TestEditRule:
    def test_created_edge_must_reference_known_parts(self):
        with pytest.raises(RuleError):
            EditRule(
                name="bad",
                context_nodes=((0, "A"),),
                created_edges=((0, 9, "x"),),
            )

    def test_deleted_edge_cannot_touch_created_node(self):
        with pytest.raises(RuleError):
            EditRule(
                name="bad",
                context_nodes=((0, "A"),),
                created_nodes=((1, "B"),),
                deleted_edges=((0, 1, "x"),),
            )

    def test_json_round_trip(self):
        """The rule document holds every part of the rule, in its order."""
        assert fig_rule().to_json() == {
            "name": "connect_components",
            "contextNodes": [{"id": 0, "type": "Component"}, {"id": 1, "type": "Component"}],
            "createdNodes": [
                {"id": 2, "type": "Port"},
                {"id": 3, "type": "Port"},
                {"id": 4, "type": "Connector"},
                {"id": 5, "type": "Requirement"},
            ],
            "deletedNodes": [],
            "createdEdges": [
                {"src": 0, "tgt": 2, "type": "port"},
                {"src": 1, "tgt": 3, "type": "port"},
                {"src": 4, "tgt": 2, "type": "end"},
                {"src": 4, "tgt": 3, "type": "end"},
                {"src": 4, "tgt": 0, "type": "part"},
                {"src": 4, "tgt": 1, "type": "part"},
                {"src": 5, "tgt": 4, "type": "satisfies"},
            ],
            "deletedEdges": [],
        }


class TestPatternToRule:
    def test_fig_pattern(self):
        old, new = fig_pair()
        scg = simple_change_graph(difference_graph(old, new))
        rule = pattern_to_rule(scg.graph, name="mined")
        assert len(rule.context_nodes) == 2
        assert len(rule.created_nodes) == 4
        assert len(rule.created_edges) == 7
        assert not rule.deleted_nodes and not rule.deleted_edges

    def test_all_preserved_pattern_gives_identity_rule(self):
        g = LabeledGraph.of([(0, "preserved_Component")])
        rule = pattern_to_rule(g)
        assert rule.context_nodes == ((0, "Component"),)
        assert not rule.created_nodes and not rule.deleted_nodes

    def test_missing_prefix_names_element(self):
        g = LabeledGraph.of([(0, "Component")])
        with pytest.raises(RuleError, match="node 0"):
            pattern_to_rule(g)

    def test_preserved_edge_rejected(self):
        g = LabeledGraph.of(
            [(0, "preserved_A"), (1, "preserved_B")], [(0, 1, "preserved_x")]
        )
        with pytest.raises(RuleError, match="preserved edges"):
            pattern_to_rule(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        nodes, edges = [], []
        prefixes = ["preserved_", "create_"]
        for i in range(rng.randint(1, 6)):
            nodes.append((i, rng.choice(prefixes) + rng.choice("ABC")))
        for i in range(1, len(nodes)):
            j = rng.randrange(i)
            edges.append((i, j, "create_x"))
        g = LabeledGraph.of(nodes, edges)
        rule = pattern_to_rule(g)
        assert rule_to_pattern_graph(rule) == g


class TestApply:
    """Rules applied to a ``WorkingModel`` in place, read back by ``snapshot``."""

    def test_identity_rule(self):
        _, model = fig_pair()
        working = WorkingModel(model)
        rule = EditRule(name="noop", context_nodes=((0, "Component"),))
        apply_in_place(rule, working, site={0: "c1"}, seed=1)
        assert working.snapshot() == model

    def test_fig_rule_round_trip(self):
        old, _ = fig_pair()
        rule = fig_rule()
        working = WorkingModel(old)
        apply_in_place(rule, working, site="random", seed=5)
        out = working.snapshot()
        assert len(out.elements) == len(old.elements) + 4
        assert len(out.references) == len(old.references) + 7
        scg = simple_change_graph(difference_graph(old, out))
        from opminer.graphcore import connected_components

        assert len(connected_components(scg.graph)) == 1
        assert canonical_code(scg.graph) == canonical_code(rule_to_pattern_graph(rule))

    def test_no_match_error(self):
        working = WorkingModel(ModelVersion.of([("x", "Package")]))
        with pytest.raises(NoMatchError):
            apply_in_place(fig_rule(), working, seed=1)

    def test_deletion_requires_exact_incident_edges(self):
        working = WorkingModel(ModelVersion.of(
            [("p", "Package"), ("r", "Requirement"), ("k", "Connector")],
            [("p", "r", "contains_requirement"), ("r", "k", "satisfies")],
        ))
        # rule deletes the requirement with only its containment edge: the
        # satisfies edge would dangle, so no valid binding exists
        partial = EditRule(
            name="drop_req",
            context_nodes=((0, "Package"),),
            deleted_nodes=((1, "Requirement"),),
            deleted_edges=((0, 1, "contains_requirement"),),
        )
        with pytest.raises(NoMatchError):
            apply_in_place(partial, working, seed=1)
        full = EditRule(
            name="drop_req_full",
            context_nodes=((0, "Package"), (2, "Connector")),
            deleted_nodes=((1, "Requirement"),),
            deleted_edges=((0, 1, "contains_requirement"), (1, 2, "satisfies")),
        )
        apply_in_place(full, working, seed=1)
        assert working.snapshot() == ModelVersion.of([("p", "Package"), ("k", "Connector")])

    def test_duplicate_created_edge_rejected_as_site(self):
        working = WorkingModel(ModelVersion.of(
            [("a", "Connector"), ("b", "Component")], [("a", "b", "part")]
        ))
        rule = EditRule(
            name="add_part",
            context_nodes=((0, "Connector"), (1, "Component")),
            created_edges=((0, 1, "part"),),
        )
        with pytest.raises(NoMatchError):
            apply_in_place(rule, working, seed=1)

    def test_conformance_check(self):
        model = ModelVersion.of([("a", "Component"), ("b", "Component")])
        working = WorkingModel(model, FIXTURE_METAMODEL)
        rule = EditRule(
            name="bad_edge",
            context_nodes=((0, "Component"), (1, "Component")),
            created_edges=((0, 1, "end"),),  # end is Connector->Port
        )
        with pytest.raises(ConformanceError, match="violates endpoint types Connector->Port"):
            apply_in_place(rule, working, seed=1)
        assert working.snapshot() == model

    def test_deterministic_per_seed(self):
        old, _ = fig_pair()
        a, b = WorkingModel(old), WorkingModel(old)
        assert apply_in_place(fig_rule(), a, seed=7) == apply_in_place(fig_rule(), b, seed=7)
        assert a.snapshot() == b.snapshot()

    def test_fresh_uid_scheme(self):
        old, _ = fig_pair()
        rec = apply_in_place(fig_rule(), WorkingModel(old), seed=9)
        for _, uid in rec.created:
            assert uid.startswith("connect_components-")
            assert uid.endswith("-9")


class TestFindBindings:
    def test_enumerates_injective_typed_bindings(self):
        model = ModelVersion.of(
            [("c1", "Component"), ("c2", "Component"), ("c3", "Component")]
        )
        rule = EditRule(
            name="pair",
            context_nodes=((0, "Component"), (1, "Component")),
        )
        bindings = list(find_bindings(rule, WorkingModel(model)))
        assert len(bindings) == 6  # ordered injective pairs of 3 elements

    def test_edge_constrained_bindings(self):
        model = ModelVersion.of(
            [("p1", "Package"), ("p2", "Package"), ("r", "Requirement"), ("k", "Connector")],
            [("p1", "r", "contains_requirement"), ("r", "k", "satisfies")],
        )
        rule = EditRule(
            name="drop",
            context_nodes=((0, "Package"), (2, "Connector")),
            deleted_nodes=((1, "Requirement"),),
            deleted_edges=((0, 1, "contains_requirement"), (1, 2, "satisfies")),
        )
        bindings = list(find_bindings(rule, WorkingModel(model)))
        assert bindings == [{0: "p1", 1: "r", 2: "k"}]

    def test_uniform_site_choice(self):
        # 4 Components -> 12 ordered injective pairs; frequencies within 3 sigma
        model = ModelVersion.of([(f"c{i}", "Component") for i in range(4)])
        rule = EditRule(
            name="pair", context_nodes=((0, "Component"), (1, "Component")),
            created_nodes=((2, "Port"),), created_edges=((0, 2, "port"),),
        )
        counts: dict[tuple, int] = {}
        n = 3000
        for seed in range(n):
            rec = apply_in_place(rule, WorkingModel(model), site="random", seed=seed)
            counts[rec.binding] = counts.get(rec.binding, 0) + 1
        assert len(counts) == 12
        expected = n / 12
        sigma = math.sqrt(n * (1 / 12) * (11 / 12))
        for got in counts.values():
            assert abs(got - expected) <= 3 * sigma


def random_site_rule(rng: random.Random, model: ModelVersion, name: str):
    """A random rule around random elements of ``model``, with those elements
    as its binding.

    Sometimes one bound element is deleted with its references (now and then
    missing one, so the site is invalid), or the containment reference into a
    context element is deleted. Created nodes get random types; created edges
    join context and created nodes, usually with an edge type that fits their
    types, so some give an element two containment parents or close a
    containment cycle, as ``random_creation_rule``-style rules do.
    """
    types = NESTING_METAMODEL.node_types
    edge_types = NESTING_METAMODEL.edge_types
    type_map = dict(model.elements)
    pool = sorted(type_map)
    if rng.random() < 0.3:  # Packages alone, so subpackage edges can close cycles
        pool = [uid for uid in pool if type_map[uid] == "Package"]
    binding = dict(enumerate(rng.sample(pool, min(len(pool), rng.randint(1, 3)))))
    ids = {uid: rid for rid, uid in binding.items()}

    def bind(uid: str) -> int:
        if uid not in ids:
            ids[uid] = len(binding)
            binding[ids[uid]] = uid
        return ids[uid]

    victim = rng.choice(sorted(binding)) if rng.random() < 0.4 else None
    deleted_edges = []
    for src, tgt, etype in model.references:
        if victim is not None and binding[victim] in (src, tgt):
            if rng.random() < 0.95:
                deleted_edges.append((bind(src), bind(tgt), etype))
    if rng.random() < 0.3:
        freed = rng.choice(sorted(binding))
        for src, tgt, etype in model.references:
            if tgt == binding[freed] and etype in NESTING_METAMODEL.containment_names:
                if (bind(src), freed, etype) not in deleted_edges:
                    deleted_edges.append((ids[src], freed, etype))
    context = [rid for rid in binding if rid != victim]
    created = list(range(len(binding), len(binding) + rng.randint(0, 3)))
    created_types = {rid: rng.choice(sorted(types)) for rid in created}
    type_of = {**{rid: type_map[uid] for rid, uid in binding.items()}, **created_types}
    created_edges = []
    nodes = context + created
    for _ in range(rng.randint(0, 4) if nodes else 0):
        src = rng.choice(nodes)
        fitting = [
            (tgt, et.name) for tgt in nodes for et in edge_types
            if tgt != src and (et.src, et.tgt) == (type_of[src], type_of[tgt])
        ]
        if fitting and rng.random() < 0.85:
            tgt, etype = rng.choice(fitting)
        else:
            tgt, etype = rng.choice(nodes), rng.choice(edge_types).name
        created_edges.append((src, tgt, etype))
    rule = EditRule(
        name=name,
        context_nodes=tuple((rid, type_of[rid]) for rid in context),
        created_nodes=tuple(sorted(created_types.items())),
        deleted_nodes=((victim, type_of[victim]),) if victim is not None else (),
        created_edges=tuple(created_edges),
        deleted_edges=tuple(deleted_edges),
    )
    return rule, binding


def rebuilt(rule: EditRule, model: ModelVersion, binding, seed: int) -> ModelVersion:
    """The applied model built whole and checked whole by ``conformance_oracle``:
    the reference the delta application is checked against. Raises ModelError
    when invalid."""
    fresh = {rid: f"{rule.name}-{i}-{seed}" for i, (rid, _) in enumerate(rule.created_nodes)}
    uid = {**binding, **fresh}
    deleted = {binding[rid] for rid, _ in rule.deleted_nodes}
    removed = {(binding[s], binding[d], t) for s, d, t in rule.deleted_edges}
    result = ModelVersion.of(
        [e for e in model.elements if e[0] not in deleted]
        + [(fresh[rid], typ) for rid, typ in rule.created_nodes],
        [r for r in model.references if r not in removed]
        + [(uid[s], uid[d], t) for s, d, t in rule.created_edges],
    )
    conformance_oracle(result, NESTING_METAMODEL)
    return result


def test_delta_application_matches_whole_model_validation():
    """Rules applied in sequence to one working model: ConformanceError exactly
    when the rebuilt model fails validation, else the same model and indexes."""
    outcomes = {"accepted": 0, "rejected": 0, "no match": 0}
    for seed in range(40):
        rng = random.Random(seed)
        model = build_initial(default_metamodel(), SMALL_COUNTS, seed)
        working = WorkingModel(model, NESTING_METAMODEL)
        for step in range(15):
            rule, binding = random_site_rule(rng, model, f"r{step}")
            try:
                expected = rebuilt(rule, model, binding, step)
            except ModelError:
                expected = None
            try:
                apply_in_place(rule, working, binding, seed=step)
            except NoMatchError:
                outcomes["no match"] += 1
            except ConformanceError:
                assert expected is None, (seed, step, rule)
                outcomes["rejected"] += 1
            else:
                assert expected is not None, (seed, step, rule)
                assert working.snapshot() == expected
                model = expected
                outcomes["accepted"] += 1
            assert working_view(working) == working_view(WorkingModel(model, NESTING_METAMODEL))
    assert min(outcomes.values()) >= 50, outcomes


class TestDot:
    def test_dot_contains_parts(self):
        text = to_dot(fig_rule())
        assert "digraph" in text and "Connector" in text and "->" in text
