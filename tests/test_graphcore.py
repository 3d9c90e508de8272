import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opminer.graphcore import (
    CanonicalCode,
    GraphError,
    LabeledGraph,
    canonical_code,
    connected_components,
    dumps_transactions,
    find_embeddings,
    incidence,
    is_subgraph_isomorphic,
    loads_transactions,
    save_json,
)
from oracles import (
    components_oracle,
    embeddings_oracle,
    induced,
    isomorphic_oracle,
    minimal_code_oracle,
    random_connected_graph,
    random_labeled_graph,
    random_multi_digraph,
    relabel_ids,
)


def g_of(nodes, edges=()):
    return LabeledGraph.of(nodes, edges)


class TestLabeledGraph:
    def test_validation(self):
        with pytest.raises(GraphError):
            g_of([(0, "A"), (0, "B")])
        with pytest.raises(GraphError):
            g_of([(0, "A")], [(0, 1, "x")])
        with pytest.raises(GraphError):
            g_of([(0, "A")], [(0, 0, "x")])
        with pytest.raises(GraphError):
            LabeledGraph.of(((0, "A"), (1, "B")), ((0, 1, "x"), (0, 1, "x")))

    def test_parallel_edges_with_distinct_labels_allowed(self):
        g = g_of([(0, "A"), (1, "B")], [(0, 1, "x"), (0, 1, "y"), (1, 0, "x")])
        assert g.n_edges == 3

    def test_induced_keeps_internal_edges_only(self):
        g = g_of([(0, "A"), (1, "B"), (2, "C")], [(0, 1, "x"), (1, 2, "y")])
        sub = induced(g, [0, 1])
        assert sub.nodes == ((0, "A"), (1, "B"))
        assert sub.edges == ((0, 1, "x"),)


class TestConnectedComponents:
    def test_two_components(self):
        g = g_of([(1, "A"), (2, "B"), (3, "C")], [(1, 2, "x")])
        comps = connected_components(g)
        assert [{n for n, _ in c.nodes} for c in comps] == [{1, 2}, {3}]

    def test_empty_graph(self):
        assert connected_components(g_of([])) == []

    def test_direction_ignored(self):
        g = g_of([(0, "A"), (1, "B"), (2, "C")], [(1, 0, "x"), (1, 2, "x")])
        assert len(connected_components(g)) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_union_find_oracle(self, seed):
        rng = random.Random(seed)
        g = random_labeled_graph(rng, n_nodes=10, n_labels=3, edge_prob=0.12)
        comps = connected_components(g)
        assert [frozenset(n for n, _ in c.nodes) for c in comps] == components_oracle(g)
        for comp, ids in zip(comps, components_oracle(g)):  # each a checked induced subgraph
            assert comp == LabeledGraph.of(
                [n for n in g.nodes if n[0] in ids], [e for e in g.edges if e[0] in ids]
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_partition(self, seed):
        rng = random.Random(100 + seed)
        g = random_labeled_graph(rng, n_nodes=12, n_labels=2, edge_prob=0.1)
        comps = connected_components(g)
        all_nodes = [n for c in comps for n, _ in c.nodes]
        assert sorted(all_nodes) == sorted(n for n, _ in g.nodes)
        assert len(set(all_nodes)) == len(all_nodes)


class TestIsConnected:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_union_find_oracle_with_each_edge_left_out(self, seed):
        # sparse to dense graphs with parallel and antiparallel edges, so
        # leaving one edge out sometimes splits the graph and sometimes not
        rng = random.Random(300 + seed)
        n_nodes, edge_prob = rng.randint(1, 7), 0.08 * (seed % 5 + 1)
        g = random_labeled_graph(rng, n_nodes=n_nodes, n_labels=2, edge_prob=edge_prob)
        assert len(connected_components(g)) == len(components_oracle(g))
        for drop in g.edges:
            rest = g_of(g.nodes, [e for e in g.edges if e != drop])
            assert len(connected_components(rest)) == len(components_oracle(rest)), drop


def all_connected_graphs(n_nodes, node_labels, edge_labels):
    """All connected labeled digraphs on exactly n_nodes nodes (no parallels)."""
    import itertools

    for labels in itertools.product(node_labels, repeat=n_nodes):
        nodes = list(enumerate(labels))
        pairs = [(s, d) for s in range(n_nodes) for d in range(n_nodes) if s != d]
        for flags in itertools.product([None] + list(edge_labels), repeat=len(pairs)):
            edges = [(s, d, l) for (s, d), l in zip(pairs, flags) if l is not None]
            g = LabeledGraph.of(nodes, edges)
            if len(connected_components(g)) == 1:
                yield g


class TestCanonicalCode:
    def test_single_node(self):
        code = canonical_code(g_of([(7, "A")]))
        assert code == CanonicalCode("A", ())
        assert code.text == "A"

    def test_relabelled_copy_same_code(self):
        a = g_of([(0, "A"), (1, "B")], [(0, 1, "x")])
        b = g_of([(5, "B"), (9, "A")], [(9, 5, "x")])
        assert canonical_code(a) == canonical_code(b)

    def test_direction_distinguishes(self):
        fwd = g_of([(0, "A"), (1, "B")], [(0, 1, "x")])
        rev = g_of([(0, "A"), (1, "B")], [(1, 0, "x")])
        assert canonical_code(fwd) != canonical_code(rev)

    def test_disconnected_rejected(self):
        # the canonical walk starts at every smallest-label node and ends
        # short of the node count on each of these
        disconnected = [
            g_of([(0, "A"), (1, "B")]),
            # the smallest label in two components
            g_of([(0, "A"), (1, "B"), (2, "A"), (3, "B")], [(0, 1, "x"), (2, 3, "x")]),
            g_of([(0, "A"), (1, "A"), (2, "B")], [(0, 2, "x")]),
            # a lone smallest-label node beside a connected part
            g_of([(0, "A"), (1, "B"), (2, "C")], [(1, 2, "x"), (2, 1, "y")]),
            # two components that share no label
            g_of([(0, "A"), (1, "B"), (2, "C"), (3, "D")], [(0, 1, "x"), (2, 3, "x")]),
            g_of([(0, "C"), (1, "D"), (2, "A"), (3, "B"), (4, "B")],
                 [(0, 1, "x"), (1, 0, "x"), (2, 3, "y"), (3, 4, "y"), (4, 2, "z")]),
        ]
        for g in [*disconnected, g_of([])]:
            with pytest.raises(GraphError):
                canonical_code(g)

    def test_leaves_the_graph_unchanged(self):
        # labels no other test uses, so the cache cannot already hold the graph
        g = g_of([(0, "fresh_A"), (1, "fresh_B"), (2, "fresh_A")],
                 [(0, 1, "x"), (1, 2, "y"), (2, 0, "z")])
        before = dict(vars(g))
        canonical_code(g)
        assert vars(g) == before  # no incidence or label map left behind

    def test_antiparallel_pair(self):
        g = g_of([(0, "A"), (1, "A")], [(0, 1, "x"), (1, 0, "x")])
        h = relabel_ids(g, {0: 3, 1: 2})
        assert canonical_code(g) == canonical_code(h)

    @pytest.mark.parametrize("seed", range(25))
    def test_invariant_under_id_permutation(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n_nodes=rng.randint(2, 7), n_labels=3)
        ids = [n for n, _ in g.nodes]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        h = relabel_ids(g, dict(zip(ids, shuffled)))
        assert canonical_code(g) == canonical_code(h)

    def test_equality_matches_isomorphism_oracle_exhaustive(self):
        # All connected 3-node digraphs over 2 node labels and 1 edge label:
        # code equality must coincide with brute-force isomorphism.
        graphs = list(all_connected_graphs(3, ["A", "B"], ["x"]))
        codes = [canonical_code(g) for g in graphs]
        rng = random.Random(0)
        for _ in range(400):
            i = rng.randrange(len(graphs))
            j = rng.randrange(len(graphs))
            assert (codes[i] == codes[j]) == isomorphic_oracle(graphs[i], graphs[j]), (
                graphs[i],
                graphs[j],
            )

    @pytest.mark.parametrize("seed", range(30))
    def test_equality_matches_isomorphism_oracle_random_4node(self, seed):
        rng = random.Random(1000 + seed)
        a = random_connected_graph(rng, 4, n_labels=2, edge_labels=("x",))
        b = random_connected_graph(rng, 4, n_labels=2, edge_labels=("x",))
        assert (canonical_code(a) == canonical_code(b)) == isomorphic_oracle(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_code_is_minimal_over_every_dfs_enumeration(self, seed):
        # 60 graphs per seed, half random connected graphs, half multi-digraphs
        # with parallel and antiparallel edges; at most 5 nodes and 8 edges
        # keep the exhaustive enumeration small.
        rng = random.Random(4200 + seed)
        checked = 0
        while checked < 60:
            if checked % 2:
                g = random_multi_digraph(rng, rng.randint(2, 5))
            else:
                g = random_connected_graph(
                    rng, rng.randint(1, 5), rng.randint(1, 3), extra_edge_prob=0.3
                )
            if g.n_edges > 8:
                continue
            code = canonical_code(g)
            assert (code.root_label, code.entries) == minimal_code_oracle(g), g
            checked += 1

    def test_total_order_is_deterministic(self):
        a = canonical_code(g_of([(0, "A")]))
        b = canonical_code(g_of([(0, "A"), (1, "B")], [(0, 1, "x")]))
        assert (a < b) != (b < a)


class TestSubgraphIsomorphism:
    def test_single_node_needle(self):
        needle = g_of([(0, "preserved_Component")])
        hay = g_of([(0, "preserved_Component"), (1, "create_Port")], [(0, 1, "create_port")])
        ok, emb = is_subgraph_isomorphic(needle, hay)
        assert ok and emb == {0: 0}

    def test_absent_label(self):
        needle = g_of([(0, "Z")])
        hay = g_of([(0, "A"), (1, "B")], [(0, 1, "x")])
        ok, emb = is_subgraph_isomorphic(needle, hay)
        assert not ok and emb is None

    def test_direction_respected(self):
        needle = g_of([(0, "A"), (1, "B")], [(1, 0, "x")])
        hay = g_of([(0, "A"), (1, "B")], [(0, 1, "x")])
        assert is_subgraph_isomorphic(needle, hay) == (False, None)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_bruteforce_oracle(self, seed):
        rng = random.Random(2000 + seed)
        needle = random_labeled_graph(rng, rng.randint(1, 6), 2, 0.3)
        hay = random_labeled_graph(rng, rng.randint(1, 10), 2, 0.3)
        expected = embeddings_oracle(needle, hay)
        got = list(find_embeddings(needle, hay))
        assert sorted(map(sorted, (e.items() for e in got))) == sorted(
            map(sorted, (e.items() for e in expected))
        )
        ok, emb = is_subgraph_isomorphic(needle, hay)
        assert ok == bool(expected)
        if ok:
            assert emb in expected

    @pytest.mark.parametrize("seed", range(15))
    def test_random_deletion_stays_embeddable(self, seed):
        rng = random.Random(3000 + seed)
        g = random_connected_graph(rng, 8, n_labels=3)
        keep_edges = [e for e in g.edges if rng.random() < 0.7]
        keep_nodes = {n for e in keep_edges for n in (e[0], e[1])} or {g.nodes[0][0]}
        labels = dict(g.nodes)
        sub = LabeledGraph.of([(n, labels[n]) for n in keep_nodes], keep_edges)
        ok, _ = is_subgraph_isomorphic(sub, g)
        assert ok


class TestTransactionFormat:
    def test_round_trip_bit_exact(self):
        graphs = [
            g_of([(0, "A"), (1, "B")], [(0, 1, "x"), (1, 0, "y")]),
            g_of([(0, "C")]),
        ]
        text = dumps_transactions(graphs)
        parsed = loads_transactions(text)
        assert parsed == graphs
        assert dumps_transactions(parsed) == text

    def test_format_shape(self):
        text = dumps_transactions([g_of([(0, "A"), (2, "B")], [(0, 2, "ref")])])
        assert text == "t # 0\nv 0 A\nv 2 B\ne 0 2 ref\n"

    def test_parse_errors_name_lines(self):
        with pytest.raises(GraphError, match="line 1"):
            loads_transactions("v 0 A\n")
        with pytest.raises(GraphError, match="line 2"):
            loads_transactions("t # 0\nv x A\n")
        with pytest.raises(GraphError, match="line 3"):
            loads_transactions("t # 0\nv 0 A\nq 1 2\n")
        with pytest.raises(GraphError, match="line 1"):
            loads_transactions("t # 0\nv 0 A\ne 0 1 x\n")

    def test_whitespace_labels_rejected_on_write(self):
        with pytest.raises(GraphError):
            dumps_transactions([g_of([(0, "a b")])])

    @pytest.mark.parametrize(
        "graph",
        [g_of([(0, "")]), g_of([(0, "A"), (1, "B")], [(0, 1, "")])],
        ids=["node label", "edge label"],
    )
    def test_empty_labels_rejected_on_write(self, graph):
        # an empty edge label would be written as "e 0 1 ", which the
        # reader rejects for its missing field
        with pytest.raises(GraphError, match="not representable"):
            dumps_transactions([graph])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        graphs = [
            random_labeled_graph(rng, rng.randint(1, 6), 3, 0.3)
            for _ in range(rng.randint(1, 4))
        ]
        assert loads_transactions(dumps_transactions(graphs)) == graphs


def stdlib_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


# strings with non-ASCII, control and lone surrogate characters
JSON_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from("\x00\x1f\x7f\n\t\"\\/\u00e9\u2028\ud800\U0001f600"),
))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), JSON_TEXT,
    st.sampled_from([-0.0, 1e-7, math.nan, math.inf, -math.inf]),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=30,
)


class TestSaveJson:
    """``save_json`` writes exactly what the stdlib writes with ``indent=2``
    and ``sort_keys=True``, plus a newline, and refuses what it refuses."""

    @given(JSON_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_writes_what_json_dumps_writes(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        save_json(doc, path)
        assert path.read_bytes() == stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        {1: "a", 10: "b", 2: "c"}, {2.5: 1, -1.0: 2, math.inf: 3}, {True: 1, False: 2}, {None: 1},
        {"a": [], "b": {}, "c": ()}, [[[]]], "", -0.0,
    ])
    def test_edge_documents(self, tmp_path, doc):
        save_json(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_bytes() == stdlib_json(doc)

    def test_documents_longer_than_one_chunk(self, tmp_path):
        doc = {
            "elements": [{"uid": f"u{i}", "type": "Port"} for i in range(3000)],
            "nested": [[i, [str(i), None, i / 7]] for i in range(3000)],
        }
        save_json(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_bytes() == stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        {1}, object(), b"bytes", 1j, [1, {"a": {2}}], {(1, 2): "tuple key"},
        {1: "int key", "a": "str key"},
    ], ids=["set", "object", "bytes", "complex", "nested set", "tuple key", "mixed keys"])
    def test_refuses_what_json_dump_refuses(self, tmp_path, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            save_json(doc, tmp_path / "doc.json")


def mutate_once(rng, g):
    """Copy differing in one node label, one edge label or one edge direction."""
    nodes, edges = dict(g.nodes), set(g.edges)
    kind = rng.randrange(3)
    if kind == 0:
        nid = rng.choice(sorted(nodes))
        nodes[nid] = "B" if nodes[nid] == "A" else "A"
    else:
        s, d, label = rng.choice(sorted(edges))
        edges.discard((s, d, label))
        edges.add((s, d, "y" if label == "x" else "x") if kind == 1 else (d, s, label))
    return LabeledGraph.of(nodes, edges)


def shuffled_ids(rng, g):
    ids = [n for n, _ in g.nodes]
    fresh = [100 + i for i in range(len(ids))]
    rng.shuffle(fresh)
    return relabel_ids(g, dict(zip(ids, fresh)))


def as_nx(g):
    """A networkx DiGraph with a node label and, per ordered pair, the set of
    edge labels (parallel edges differ by label)."""
    import networkx as nx

    h = nx.DiGraph()
    h.add_nodes_from((n, {"label": label}) for n, label in g.nodes)
    for s, d, label in g.edges:
        if h.has_edge(s, d):
            h[s][d]["labels"] |= {label}
        else:
            h.add_edge(s, d, labels=frozenset({label}))
    return h


def same_label(x, y):
    return x["label"] == y["label"]


def networkx_isomorphic(a, b):
    import networkx as nx

    return nx.is_isomorphic(
        as_nx(a), as_nx(b),
        node_match=same_label,
        edge_match=lambda x, y: x["labels"] == y["labels"],
    )


def networkx_embeddings(needle, hay):
    """Every embedding as VF2 subgraph monomorphisms (not induced) of needle
    into hay, each needle edge label present between the image nodes."""
    from networkx.algorithms.isomorphism import DiGraphMatcher

    matcher = DiGraphMatcher(
        as_nx(hay), as_nx(needle),
        node_match=same_label,
        edge_match=lambda h, n: n["labels"] <= h["labels"],
    )
    return [{n: h for h, n in m.items()} for m in matcher.subgraph_monomorphisms_iter()]


def random_piece(rng, g, n_nodes, extra_prob):
    """A connected subgraph of g: the spanning edges of a random growth to up
    to ``n_nodes`` nodes plus each other edge among them with ``extra_prob``."""
    start = rng.choice([n for n, _ in g.nodes])
    keep, spanning = {start}, set()
    incident = incidence(g)
    while len(keep) < n_nodes:
        frontier = [
            (v, (v, w, el) if dflag == 0 else (w, v, el))
            for v in sorted(keep)
            for w, dflag, el, _ in incident[v]
            if w not in keep
        ]
        if not frontier:
            break
        v, edge = rng.choice(frontier)
        keep.add(edge[1] if edge[0] == v else edge[0])
        spanning.add(edge)
    edges = spanning | {
        e for e in g.edges if e[0] in keep and e[1] in keep and rng.random() < extra_prob
    }
    labels = dict(g.nodes)
    return LabeledGraph.of([(n, labels[n]) for n in keep], edges)


class TestCanonicalCodeAgainstNetworkx:
    """VF2 isomorphism as a second oracle, on graphs beyond brute force."""

    @pytest.mark.parametrize("seed", range(40))
    def test_code_equality_iff_vf2_isomorphic(self, seed):
        rng = random.Random(7000 + seed)
        a = random_multi_digraph(rng, rng.randint(7, 12))
        copy = shuffled_ids(rng, a)
        assert networkx_isomorphic(a, copy)
        assert canonical_code(a) == canonical_code(copy)
        for b in (shuffled_ids(rng, mutate_once(rng, a)), random_multi_digraph(rng, a.n_nodes)):
            assert (canonical_code(a) == canonical_code(b)) == networkx_isomorphic(a, b)


class TestFindEmbeddingsAgainstNetworkx:
    """VF2 subgraph monomorphism as a second oracle for ``find_embeddings``,
    on hosts of 10 to 16 nodes, past what the permutation oracle reaches."""

    @pytest.mark.parametrize("seed", range(30))
    def test_embeddings_equal_vf2_monomorphisms(self, seed):
        rng = random.Random(8000 + seed)
        hay = random_multi_digraph(rng, rng.randint(10, 16))
        piece = shuffled_ids(rng, random_piece(rng, hay, rng.randint(3, 7), 0.5))
        tree = shuffled_ids(rng, random_piece(rng, hay, rng.randint(2, 4), 0.0))
        needles = [piece, mutate_once(rng, piece), tree, random_multi_digraph(rng, 3)]
        for needle in needles:
            got = sorted(sorted(m.items()) for m in find_embeddings(needle, hay))
            expected = sorted(sorted(m.items()) for m in networkx_embeddings(needle, hay))
            assert got == expected, needle
        assert next(find_embeddings(piece, hay), None) is not None
        assert next(find_embeddings(tree, hay), None) is not None
