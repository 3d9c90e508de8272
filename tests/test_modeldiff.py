import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opminer.graphcore import LabeledGraph, connected_components
from opminer.modeldiff import (
    CREATE,
    DELETE,
    PRESERVED,
    ChangeGraph,
    MetaModel,
    ModelError,
    ModelVersion,
    WorkingModel,
    change_components,
    change_counts,
    difference_graph,
    save_model,
    save_models,
    simple_change_graph,
    split_prefix,
)
from opminer.simgen import build_initial, default_metamodel
from fixtures import (
    FIXTURE_METAMODEL,
    NESTING_METAMODEL,
    SMALL_COUNTS,
    fig_pair,
    working_view,
)
from oracles import components_oracle, difference_graph_oracle, induced, scg_oracle
from test_graphcore import JSON_TEXT, stdlib_json


def labels_of(cg: ChangeGraph):
    return [l for _, l in cg.graph.nodes] + [l for _, _, l in cg.graph.edges]


def corresponding(dg):
    """The uids and references a difference graph preserves: the old
    version's, less the deleted ones."""
    gone = {uid for uid, _ in dg.deleted}
    uids = {uid for uid, _ in dg.old.elements if uid not in gone}
    return uids, dg.old.reference_set - dg.deleted_references


def delta_labels(dg):
    """The change labels of a difference graph's delete_ and create_ parts."""
    return Counter(
        [DELETE + t for _, t in dg.deleted] + [CREATE + t for _, t in dg.created]
        + [DELETE + r[2] for r in dg.deleted_references]
        + [CREATE + r[2] for r in dg.created_references]
    )


def oracle_delta(reference: ChangeGraph):
    """The deleted and created elements, each in id order, and the deleted and
    created references of a whole difference graph, by uid."""
    provenance = dict(reference.provenance)
    elements = {DELETE: [], CREATE: []}
    references = {DELETE: set(), CREATE: set()}
    for nid, label in reference.graph.nodes:
        prefix, typ = split_prefix(label)
        if prefix != PRESERVED:
            elements[prefix].append((provenance[nid][0], typ))
    for src, dst, label in reference.graph.edges:
        prefix, etype = split_prefix(label)
        if prefix != PRESERVED:
            references[prefix].add((provenance[src][0], provenance[dst][0], etype))
    return (tuple(elements[DELETE]), tuple(elements[CREATE]),
            references[DELETE], references[CREATE])


class TestModelVersion:
    def test_duplicate_uid_rejected(self):
        with pytest.raises(ModelError):
            ModelVersion.of([("a", "T"), ("a", "T")])

    def test_dangling_reference_rejected(self):
        with pytest.raises(ModelError):
            ModelVersion.of([("a", "T")], [("a", "b", "r")])

    def test_conformance(self):
        old, new = fig_pair()
        new.validate_against(FIXTURE_METAMODEL)
        bad = ModelVersion.of([("a", "Component"), ("b", "Component")], [("a", "b", "end")])
        with pytest.raises(ModelError):
            bad.validate_against(FIXTURE_METAMODEL)

    def test_containment_is_a_forest(self):
        two_parents = ModelVersion.of(
            [("p", "Package"), ("q", "Package"), ("c", "Component")],
            [("p", "c", "contains_component"), ("q", "c", "contains_component")],
        )
        with pytest.raises(ModelError, match="two containment parents"):
            two_parents.validate_against(FIXTURE_METAMODEL)

    def test_json_round_trip(self):
        _, new = fig_pair()
        assert ModelVersion.from_json(new.to_json()) == new

    @pytest.mark.parametrize("elements, references", [
        ([("a", 5)], []),
        ([(1, "T")], []),
        ([("a", "T"), ("b", "T")], [("a", "b", 7)]),
        ([("a", None)], []),
        ([("a", "T"), ("b", "T")], [("a", ["b"], "r")]),
    ])
    def test_fields_must_be_strings(self, elements, references):
        with pytest.raises(ModelError, match="must be"):
            ModelVersion.of(elements, references)

    def test_duplicate_reference_rejected(self):
        with pytest.raises(ModelError, match=r"duplicate reference \(a,b,r\)"):
            ModelVersion.of([("a", "T"), ("b", "T")], [("a", "b", "r"), ("a", "b", "r")])


@st.composite
def histories(draw):
    """Versions that share elements and references: each keeps some of the
    elements of one drawn model and some references among those."""
    elements = draw(st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=6))
    uids = sorted(elements)
    ends = st.sampled_from(uids)
    refs = draw(st.sets(st.tuples(ends, ends, JSON_TEXT), max_size=8)) if uids else set()
    refs = [r for r in refs if r[0] != r[1]]
    versions = []
    for _ in range(draw(st.integers(1, 4))):
        kept = {u: t for u, t in elements.items() if draw(st.booleans())}
        versions.append(ModelVersion.of(
            kept, [r for r in refs if r[0] in kept and r[1] in kept and draw(st.booleans())]
        ))
    return versions


class TestSaveModels:
    """The model writer writes exactly what the stdlib writes with
    ``indent=2`` and ``sort_keys=True``, plus a newline, whether a version is
    written alone or with others in one call."""

    @given(histories())
    @example([ModelVersion.of([]), ModelVersion.of([("a", "T")]), ModelVersion.of([])])
    @example([  # parallel references: lines differ only in their type
        ModelVersion.of({"a": "T", "b": "U"}, [("a", "b", "r"), ("a", "b", "s")]),
        ModelVersion.of({"a": "T", "b": "U"}, [("a", "b", "s")]),
    ])
    @settings(max_examples=200, deadline=None)
    def test_writes_what_json_dumps_writes(self, tmp_path_factory, versions):
        out = tmp_path_factory.mktemp("models")
        save_models((v, out / f"m{i}.json") for i, v in enumerate(versions))
        for i, version in enumerate(versions):
            expected = stdlib_json(version.to_json())
            assert (out / f"m{i}.json").read_bytes() == expected
            save_model(version, out / "alone.json")
            assert (out / "alone.json").read_bytes() == expected


class TestMatch:
    """Elements correspond when uid and type are equal: what a difference
    graph preserves is the plain intersection of the versions' (uid, type)
    pairs."""

    def test_identical_versions(self):
        _, new = fig_pair()
        uids, references = corresponding(difference_graph(new, new))
        assert uids == {u for u, _ in new.elements}
        assert references == set(new.references)

    def test_disjoint_uids(self):
        a = ModelVersion.of([("x", "T")])
        b = ModelVersion.of([("y", "T")])
        assert corresponding(difference_graph(a, b)) == (set(), frozenset())

    def test_one_renamed_uid_among_ten(self):
        elems = [(f"e{i}", "Component") for i in range(10)]
        old = ModelVersion.of(elems)
        new = ModelVersion.of([("renamed", "Component")] + elems[1:])
        # oracle: plain set intersection on (uid, type) pairs
        expected = {u for u, t in set(old.elements) & set(new.elements)}
        assert corresponding(difference_graph(old, new))[0] == expected
        assert len(expected) == 9

    def test_retyped_element_not_matched(self):
        old = ModelVersion.of([("a", "Component")])
        new = ModelVersion.of([("a", "Package")])
        assert corresponding(difference_graph(old, new))[0] == set()


class TestDifferenceGraph:
    """Each case is checked on the delta ``difference_graph`` holds and on the
    whole graph ``difference_graph_oracle`` builds."""

    def test_fig_scenario(self):
        old, new = fig_pair()
        by_label = Counter(labels_of(difference_graph_oracle(old, new)))
        assert by_label["preserved_Component"] == 2
        assert by_label["create_Port"] == 2
        assert by_label["create_Connector"] == 1
        assert by_label["create_Requirement"] == 1
        assert sum(v for k, v in by_label.items() if k.startswith("create_")) == 11
        changed = delta_labels(difference_graph(old, new))
        assert changed == Counter({k: v for k, v in by_label.items() if k.startswith(CREATE)})

    def test_identity_diff_all_preserved(self):
        _, new = fig_pair()
        assert all(l.startswith(PRESERVED) for l in labels_of(difference_graph_oracle(new, new)))
        assert not delta_labels(difference_graph(new, new))

    def test_empty_old_all_created(self):
        _, new = fig_pair()
        empty = ModelVersion.of([])
        assert all(l.startswith(CREATE) for l in labels_of(difference_graph_oracle(empty, new)))
        dg = difference_graph(empty, new)
        assert dg.deleted == () and not dg.deleted_references
        assert dg.created == new.elements and dg.created_references == new.reference_set

    def test_each_element_exactly_once(self):
        old, new = fig_pair()
        expected = sorted({u for u, _ in old.elements} | {u for u, _ in new.elements})
        uids = [uid for _, (uid, _) in difference_graph_oracle(old, new).provenance]
        assert sorted(uids) == expected
        dg = difference_graph(old, new)
        uids = list(corresponding(dg)[0]) + [u for u, _ in dg.deleted + dg.created]
        assert sorted(uids) == expected

    def test_retyped_element_split_into_delete_and_create(self):
        old = ModelVersion.of([("a", "Component")])
        new = ModelVersion.of([("a", "Package")])
        reference = difference_graph_oracle(old, new)
        assert sorted(labels_of(reference)) == ["create_Package", "delete_Component"]
        dg = difference_graph(old, new)
        assert (dg.deleted, dg.created) == ((("a", "Component"),), (("a", "Package"),))


class TestSimpleChangeGraph:
    def test_fig_scenario_boundary(self):
        old, new = fig_pair()
        scg = simple_change_graph(difference_graph(old, new))
        counts = change_counts(scg)
        assert counts == {"created": 11, "deleted": 0, "preserved": 2}
        assert len(connected_components(scg.graph)) == 1

    def test_no_changes_empty_scg(self):
        _, new = fig_pair()
        scg = simple_change_graph(difference_graph(new, new))
        assert scg.graph.n_nodes == 0 and scg.graph.n_edges == 0

    def test_two_separate_additions_two_components(self):
        old = ModelVersion.of([("c1", "Component"), ("c2", "Component")])
        new = ModelVersion.of(
            [("c1", "Component"), ("c2", "Component"), ("p1", "Port"), ("p2", "Port")],
            [("c1", "p1", "port"), ("c2", "p2", "port")],
        )
        scg = simple_change_graph(difference_graph(old, new))
        comps = change_components(scg)
        assert len(comps) == 2
        # verified against the independent union-find oracle
        assert len(components_oracle(scg.graph)) == 2

    def test_never_contains_preserved_edges(self):
        old, new = fig_pair()
        scg = simple_change_graph(difference_graph(old, new))
        assert not any(l.startswith(PRESERVED) for _, _, l in scg.graph.edges)

    def test_minimality_of_boundary(self):
        old, new = fig_pair()
        scg = simple_change_graph(difference_graph(old, new))
        preserved = [n for n, l in scg.graph.nodes if l.startswith(PRESERVED)]
        for n in preserved:
            assert any(n in (s, d) for s, d, _ in scg.graph.edges)

    def test_deletion_scenario(self):
        old, new = fig_pair()
        scg = simple_change_graph(difference_graph(new, old))
        counts = change_counts(scg)
        assert counts == {"created": 0, "deleted": 11, "preserved": 2}


def random_model(rng: random.Random, n: int) -> ModelVersion:
    elems = [(f"e{i}", rng.choice(["Component", "Package"])) for i in range(n)]
    refs = set()
    for _ in range(n):
        a, b = rng.sample(range(n), 2) if n >= 2 else (None, None)
        if a is None:
            break
        if elems[a][1] == "Package" and elems[b][1] == "Component":
            refs.add((elems[a][0], elems[b][0], "contains_component"))
    return ModelVersion.of(elems, refs)


class TestProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_self_diff_has_no_changes(self, seed, n):
        m = random_model(random.Random(seed), n)
        counts = change_counts(difference_graph_oracle(m, m))
        assert counts["created"] == 0 and counts["deleted"] == 0
        assert not delta_labels(difference_graph(m, m))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_change_preservation_and_subgraph(self, seed):
        rng = random.Random(seed)
        old = random_model(rng, rng.randint(0, 10))
        new = random_model(rng, rng.randint(0, 10))
        dg = difference_graph_oracle(old, new)
        scg = simple_change_graph(difference_graph(old, new))
        dg_changed = {
            l for l in labels_of(dg) if not l.startswith(PRESERVED)
        }
        scg_labels = set(labels_of(scg))
        assert dg_changed <= scg_labels | {l for l in scg_labels}
        # SCG is a subgraph of the difference graph (same ids, labels keep)
        assert set(scg.graph.nodes) <= set(dg.graph.nodes)
        assert set(scg.graph.edges) <= set(dg.graph.edges)
        # every changed node/edge of dg is in the SCG
        changed_nodes_dg = {n for n, l in dg.graph.nodes if not l.startswith(PRESERVED)}
        assert changed_nodes_dg <= {n for n, _ in scg.graph.nodes}
        changed_edges_dg = {e for e in dg.graph.edges if not e[2].startswith(PRESERVED)}
        assert changed_edges_dg <= set(scg.graph.edges)


def random_model_pair(rng: random.Random) -> tuple[ModelVersion, ModelVersion]:
    """Two versions over a small uid pool: elements kept, deleted, created and
    retyped (same uid, new type), references kept, removed and added, between
    preserved elements too, and kept references whose end was retyped."""
    pool = [f"u{i}" for i in range(rng.randint(0, 8))]
    old_types = {uid: rng.choice("AB") for uid in pool if rng.random() < 0.7}
    new_types = {}
    for uid in pool:
        if uid in old_types:
            if rng.random() < 0.8:
                same = rng.random() < 0.8
                new_types[uid] = old_types[uid] if same else "B" if old_types[uid] == "A" else "A"
        elif rng.random() < 0.5:
            new_types[uid] = rng.choice("AB")

    def some_references(types):
        return {
            (src, tgt, rng.choice("rs"))
            for src in types for tgt in types if src != tgt and rng.random() < 0.2
        }

    old_refs = some_references(old_types)
    kept = {ref for ref in old_refs if {ref[0], ref[1]} <= new_types.keys() and rng.random() < 0.7}
    new_refs = kept | some_references(new_types)
    return ModelVersion.of(old_types, old_refs), ModelVersion.of(new_types, new_refs)


class TestDeltaSimpleChangeGraph:
    def test_matches_restricted_full_graph(self):
        """On random model pairs, the delta ``difference_graph`` holds is the
        delete_ and create_ part of the full difference graph, built element
        by element; the SCG built from the delta equals that graph restricted
        to its changed part; and the components are the union-find oracle's.
        Each case the delta must handle occurs."""
        seen = Counter()
        for seed in range(400):
            old, new = random_model_pair(random.Random(seed))
            dg = difference_graph(old, new)
            reference = difference_graph_oracle(old, new)
            assert dg.old == old
            assert (dg.deleted, dg.created, dg.deleted_references,
                    dg.created_references) == oracle_delta(reference)
            scg = simple_change_graph(dg)
            assert scg == scg_oracle(reference)
            components = change_components(scg)
            got = sorted((frozenset(n for n, _ in c.graph.nodes) for c in components), key=min)
            assert got == components_oracle(scg.graph)
            for comp in components:
                ids = {n for n, _ in comp.graph.nodes}
                assert comp.graph == LabeledGraph.of(
                    [n for n in scg.graph.nodes if n[0] in ids],
                    [e for e in scg.graph.edges if e[0] in ids],
                )
                assert comp == scg.restrict(comp.graph)
            kept = {uid for _, (uid, origin) in reference.provenance if origin == "both"}
            seen["empty"] += not old.elements or not new.elements
            seen["retyped"] += any(new.type_map.get(u, t) != t for u, t in old.elements)
            shared = old.reference_set & new.reference_set
            seen["retyped end"] += any(not {r[0], r[1]} <= kept for r in shared)
            changed = old.reference_set ^ new.reference_set
            seen["preserved ends"] += any({r[0], r[1]} <= kept for r in changed)
        cases = ("empty", "retyped", "retyped end", "preserved ends")
        assert all(seen[case] >= 10 for case in cases), seen


# (case, nodes, edges, provenance, message of the ModelError ``ChangeGraph.of`` raises)
INVALID_CHANGE_GRAPHS = [
    ("delete edge touching a create node",
     [(0, "preserved_Component"), (1, "create_Port")], [(0, 1, "delete_port")],
     {0: ("a", "both"), 1: ("b", "new")}, "delete edge (0,1) touches a create_node"),
    ("unprefixed node label",
     [(0, "Component")], [], {0: ("a", "both")}, "label 'Component' carries no change prefix"),
    ("unprefixed edge label",
     [(0, "create_Component"), (1, "create_Port")], [(0, 1, "port")],
     {0: ("a", "new"), 1: ("b", "new")}, "label 'port' carries no change prefix"),
    ("node without provenance",
     [(0, "create_Component"), (1, "create_Port")], [(0, 1, "create_port")],
     {0: ("a", "new")}, "node 1 has no provenance entry"),
]


class TestChangeGraphInvariants:
    @pytest.mark.parametrize(
        "nodes, edges, provenance, message", [row[1:] for row in INVALID_CHANGE_GRAPHS],
        ids=[row[0] for row in INVALID_CHANGE_GRAPHS],
    )
    def test_invalid_change_graph_rejected(self, nodes, edges, provenance, message):
        from opminer.graphcore import LabeledGraph

        with pytest.raises(ModelError) as exc_info:
            ChangeGraph.of(LabeledGraph.of(nodes, edges), provenance)
        assert str(exc_info.value) == message

    def test_create_edge_touching_delete_node_rejected(self):
        from opminer.graphcore import LabeledGraph

        g = LabeledGraph.of(
            [(0, "delete_Component"), (1, "create_Port")], [(0, 1, "create_port")]
        )
        with pytest.raises(ModelError):
            ChangeGraph.of(g, {0: ("a", "old"), 1: ("b", "new")})

    @pytest.mark.parametrize("seed", range(4))
    def test_restrict_equals_checked_construction(self, seed):
        """``restrict`` builds the components of simulated histories' SCGs,
        forward and reversed (so deletions too), exactly as ``ChangeGraph.of``
        does from the parent's provenance; so it does induced subgraphs of the
        whole difference graph, and the SCG built from the delta is that
        graph's checked subgraph."""
        from opminer.simgen import SimConfig, default_catalogs, simulate

        core, pert = default_catalogs(both_core_rules=True)
        bundle = simulate(SimConfig(
            d=3, e=4, p=0.5, seed=seed, core_rules=core, perturbations=pert,
            initial_counts=SMALL_COUNTS,
        ))
        rng = random.Random(seed)
        versions = bundle.versions
        pairs = list(zip(versions, versions[1:])) + list(zip(versions[1:], versions))

        def checked(parent, graph):
            provenance = dict(parent.provenance)
            return ChangeGraph.of(graph, {n: provenance[n] for n, _ in graph.nodes})

        prefixes = set()
        for old, new in pairs:
            dg = difference_graph_oracle(old, new)
            scg = simple_change_graph(difference_graph(old, new))
            assert scg == checked(dg, scg.graph)
            components = change_components(scg)
            assert components and all(comp == checked(scg, comp.graph) for comp in components)
            sub = induced(dg.graph, (n for n, _ in dg.graph.nodes if rng.random() < 0.5))
            assert dg.restrict(sub) == checked(dg, sub)
            prefixes |= {split_prefix(label)[0] for label in labels_of(scg)}
        assert prefixes == {CREATE, DELETE, PRESERVED}

    def test_split_prefix(self):
        assert split_prefix("create_Port") == (CREATE, "Port")
        assert split_prefix("preserved_X") == (PRESERVED, "X")
        assert split_prefix("delete_Y") == (DELETE, "Y")
        with pytest.raises(ModelError):
            split_prefix("Port")


class TestMetaModelJson:
    def test_round_trip(self):
        doc = FIXTURE_METAMODEL.to_json()
        assert MetaModel.from_json(doc) == FIXTURE_METAMODEL

    def test_invalid_document(self):
        with pytest.raises(ModelError):
            MetaModel.from_json({"nodeTypes": ["A"]})

    @pytest.mark.parametrize("doc, message", [
        ([], "nodeTypes must be a list of strings"),
        ({"nodeTypes": "AB", "edgeTypes": []}, "nodeTypes must be a list of strings"),
        ({"nodeTypes": ["A", 1], "edgeTypes": []}, "nodeTypes must be a list of strings"),
        ({"nodeTypes": ["A"], "edgeTypes": {}}, "edgeTypes must be a list"),
        ({"nodeTypes": ["A"], "edgeTypes": ["r"]}, "needs string name, src and tgt"),
        ({"nodeTypes": ["A"], "edgeTypes": [{"name": 5, "src": "A", "tgt": "A"}]},
         "needs string name, src and tgt"),
        ({"nodeTypes": ["A"], "edgeTypes": [{"name": "r", "src": "A"}]},
         "needs string name, src and tgt"),
        ({"nodeTypes": ["A"], "edgeTypes": [{"name": "r", "src": "A", "tgt": "A",
                                             "containment": "false"}]},
         "'r': containment must be true or false, not 'false'"),
        ({"nodeTypes": ["A"], "edgeTypes": [{"name": "r", "src": "A", "tgt": "A",
                                             "containment": 1}]},
         "'r': containment must be true or false, not 1"),
    ])
    def test_fields_are_not_coerced(self, doc, message):
        with pytest.raises(ModelError, match=message):
            MetaModel.from_json(doc)

    def test_absent_containment_is_false(self):
        edge = {"name": "r", "src": "A", "tgt": "A"}
        mm = MetaModel.from_json({"nodeTypes": ["A"], "edgeTypes": [edge]})
        assert mm.containment_names == frozenset()


def random_delta(rng: random.Random, model: ModelVersion, step: int):
    """Removals and additions of any kind: absent, dangling, duplicate,
    self-referencing, mistyped, unknown, re-parenting and cycle-closing ones."""
    uids = sorted(model.type_map)
    refs = sorted(model.references)
    gone = set(rng.sample(uids, rng.choice([0, 0, 1, 2])))
    cut = {r for r in refs if r[0] in gone or r[1] in gone}
    if cut and rng.random() < 0.1:
        cut.remove(rng.choice(sorted(cut)))  # leaves a dangling reference
    cut |= {r for r in refs if rng.random() < 0.05}
    if rng.random() < 0.05:
        gone.add("ghost")
    if rng.random() < 0.05:
        cut.add(("ghost", uids[0], "port"))
    types = sorted(NESTING_METAMODEL.node_types)
    added = [(f"n{step}-{i}", rng.choice(types)) for i in range(rng.randint(0, 3))]
    if rng.random() < 0.05:
        added.append((rng.choice(uids), rng.choice(types)))  # reused uid
    if rng.random() < 0.05:
        added.append((f"w{step}", "Widget"))
    ends = [u for u in uids if u not in gone] + [u for u, _ in added]
    if rng.random() < 0.05:
        ends.append("ghost")
    type_of = {**model.type_map, **dict(added)}
    new_refs = []
    for _ in range(rng.randint(0, 4)):
        et = rng.choice(NESTING_METAMODEL.edge_types)
        fitting = [u for u in ends if type_of.get(u) == et.src]
        src = rng.choice(fitting or ends)
        fitting = [u for u in ends if type_of.get(u) == et.tgt]
        tgt = rng.choice(fitting if fitting and rng.random() < 0.9 else ends)
        new_refs.append((src, tgt, et.name if rng.random() < 0.95 else "bogus"))
    packages = [u for u in ends if type_of.get(u) == "Package"]
    if len(packages) >= 2 and rng.random() < 0.3:  # a chain of nested packages, maybe closed
        chain = rng.sample(packages, rng.randint(2, min(3, len(packages))))
        ring = chain[1:] + chain[:1] if rng.random() < 0.5 else chain[1:]
        new_refs += [(a, b, "subpackage") for a, b in zip(chain, ring)]
    if refs and rng.random() < 0.1:
        new_refs.append(rng.choice(refs))  # present unless cut in the same delta
    if new_refs and rng.random() < 0.05:
        new_refs.append(new_refs[0])
    return gone, cut, added, new_refs


class TestWorkingModel:
    def test_deltas_match_whole_model_validation(self):
        """A delta raises ModelError exactly when its removals are absent or the
        rebuilt model fails ``ModelVersion`` or ``validate_against``; otherwise
        the working model and its indexes equal those built from the result."""
        accepted = rejected = 0
        for seed in range(30):
            rng = random.Random(seed)
            model = build_initial(default_metamodel(), SMALL_COUNTS, seed)
            working = WorkingModel(model, NESTING_METAMODEL)
            for step in range(20):
                gone, cut, added, new_refs = random_delta(rng, model, step)
                try:
                    if not (gone <= set(model.type_map) and cut <= model.reference_set):
                        raise ModelError("removes what is absent")
                    expected = ModelVersion.of(
                        [e for e in model.elements if e[0] not in gone] + added,
                        [r for r in model.references if r not in cut] + new_refs,
                    )
                    expected.validate_against(NESTING_METAMODEL)
                except ModelError:
                    expected = None
                try:
                    working.apply(gone, cut, added, new_refs)
                except ModelError:
                    assert expected is None, (seed, step)
                    rejected += 1
                else:
                    assert expected is not None, (seed, step)
                    assert working.snapshot() == expected
                    model = expected
                    accepted += 1
                fresh = WorkingModel(model, NESTING_METAMODEL)
                assert working_view(working) == working_view(fresh)
        assert accepted >= 100 and rejected >= 100, (accepted, rejected)

    def test_start_model_must_conform(self):
        model = ModelVersion.of(
            [("a", "Component"), ("b", "Component")], [("a", "b", "port")]
        )
        WorkingModel(model)
        with pytest.raises(ModelError):
            WorkingModel(model, FIXTURE_METAMODEL)
