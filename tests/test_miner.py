import collections
import hashlib
import itertools
import json
import pickle
import random
import types
from pathlib import Path

import pytest

from opminer import miner
from opminer.graphcore import CanonicalCode, LabeledGraph, canonical_code, is_subgraph_isomorphic
from opminer.miner import (
    CalibrationConfig,
    MinerError,
    MiningBudgetExceeded,
    TransactionDB,
    calibrate_threshold,
    mine,
    size_at_threshold,
)
from oracles import (
    closed_patterns_oracle,
    connected_subgraphs_oracle,
    connected_subtrees_oracle,
    embeddings_oracle,
    frequent_patterns_oracle,
    isomorphic_oracle,
    random_connected_graph,
    random_multi_digraph,
    relabel_ids,
)


def edge_graph():
    return LabeledGraph.of([(0, "A"), (1, "B")], [(0, 1, "x")])


def mined_as_pairs(patterns):
    return sorted((p.code.text, p.support) for p in patterns)


def oracle_as_pairs(pairs):
    return sorted((canonical_code(g).text, s) for g, s in pairs)


class TestTransactionDB:
    def test_rejects_disconnected_transaction(self):
        g = LabeledGraph.of([(0, "A"), (1, "B")])
        with pytest.raises(MinerError):
            TransactionDB.of([g])

    def test_rejects_empty_transaction(self):
        with pytest.raises(MinerError):
            TransactionDB.of([LabeledGraph.of([])])

    def test_tags_default_empty(self):
        db = TransactionDB.of([edge_graph()])
        assert db.tags == ("",)


class TestMineBasics:
    def test_three_copies_of_one_edge(self):
        db = TransactionDB.of([edge_graph() for _ in range(3)])
        patterns = mine(db, 2)
        assert mined_as_pairs(patterns) == oracle_as_pairs(
            [
                (LabeledGraph.of([(0, "A")]), 3),
                (LabeledGraph.of([(0, "B")]), 3),
                (edge_graph(), 3),
            ]
        )

    def test_threshold_above_db_size(self):
        db = TransactionDB.of([edge_graph()])
        assert mine(db, 2) == []

    def test_threshold_must_be_positive(self):
        db = TransactionDB.of([edge_graph()])
        with pytest.raises(MinerError):
            mine(db, 0)

    def test_single_transaction_threshold_one_returns_all_connected_subgraphs(self):
        rng = random.Random(7)
        txn = random_connected_graph(rng, 5, n_labels=2)
        db = TransactionDB.of([txn])
        patterns = mine(db, 1)
        oracle = frequent_patterns_oracle([txn], 1)
        assert mined_as_pairs(patterns) == oracle_as_pairs(oracle)

    def test_disjoint_embeddings_count_once(self):
        # one transaction holding two disjoint copies of A->x->B, connected
        # through an unrelated bridge node
        g = LabeledGraph.of(
            [(0, "A"), (1, "B"), (2, "A"), (3, "B"), (4, "C")],
            [(0, 1, "x"), (2, 3, "x"), (4, 0, "y"), (4, 2, "y")],
        )
        db = TransactionDB.of([g])
        by_text = {p.code.text: p.support for p in mine(db, 1)}
        assert by_text[canonical_code(edge_graph()).text] == 1

    def test_determinism(self):
        rng = random.Random(11)
        txns = [random_connected_graph(rng, 5, 2) for _ in range(4)]
        db = TransactionDB.of(txns)
        a = mine(db, 2)
        b = mine(db, 2)
        assert [(p.code, p.support, p.children, p.parents) for p in a] == [
            (p.code, p.support, p.children, p.parents) for p in b
        ]


class TestMineOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bruteforce_enumeration(self, seed):
        rng = random.Random(500 + seed)
        txns = [
            random_connected_graph(rng, rng.randint(1, 5), n_labels=2)
            for _ in range(rng.randint(2, 6))
        ]
        db = TransactionDB.of(txns)
        all_classes = frequent_patterns_oracle(txns, 1)
        for threshold in range(1, len(txns) + 1):
            oracle = [(g, s) for g, s in all_classes if s >= threshold]
            got = mine(db, threshold)
            assert mined_as_pairs(got) == oracle_as_pairs(oracle), (seed, threshold)

    @pytest.mark.parametrize("seed", range(6))
    def test_downward_closure(self, seed):
        rng = random.Random(900 + seed)
        txns = [random_connected_graph(rng, rng.randint(2, 5), 2) for _ in range(5)]
        patterns = mine(TransactionDB.of(txns), 2)
        by_code = {p.code: p for p in patterns}
        for p in patterns:
            for child_code in p.children:
                assert by_code[child_code].support >= p.support


class TestLattice:
    def test_links_present_for_direct_relations(self):
        db = TransactionDB.of([edge_graph() for _ in range(2)])
        patterns = mine(db, 2)
        by_text = {p.code.text: p for p in patterns}
        edge_pat = by_text[canonical_code(edge_graph()).text]
        assert len(edge_pat.children) == 2  # both single-node subgraphs
        singles = [p for p in patterns if p.graph.n_edges == 0]
        for s in singles:
            assert edge_pat.code in s.parents

    def test_lattice_reachability_covers_strict_subgraphs(self):
        rng = random.Random(42)
        txns = [random_connected_graph(rng, 5, 2) for _ in range(4)]
        patterns = mine(TransactionDB.of(txns), 2)
        by_code = {p.code: p for p in patterns}

        def reachable_up(p):
            seen, stack = set(), list(p.parents)
            while stack:
                c = stack.pop()
                if c in seen:
                    continue
                seen.add(c)
                stack.extend(by_code[c].parents)
            return seen

        from opminer.graphcore import is_subgraph_isomorphic

        for p in patterns:
            ups = reachable_up(p)
            for q in patterns:
                if q.code == p.code:
                    continue
                is_strict_super = (
                    q.graph.size > p.graph.size
                    and is_subgraph_isomorphic(p.graph, q.graph)[0]
                )
                assert (q.code in ups) == is_strict_super, (p.code.text, q.code.text)

    def test_links_survive_pickling(self):
        rng = random.Random(5)
        patterns = mine(TransactionDB.of([random_connected_graph(rng, 4, 2) for _ in range(3)]), 2)

        def links(ps):
            return [(p.code, p.support, p.closed, p.children, p.parents) for p in ps]

        expected = links(patterns)  # built before pickling, so the pickle holds them
        assert patterns and links(pickle.loads(pickle.dumps(patterns))) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_links_match_direct_subgraph_oracle(self, seed):
        # dense little graphs: parallel and antiparallel edges, bridges that
        # strand a leaf or split the graph, and single-edge patterns
        rng = random.Random(1300 + seed)
        txns = [
            random_connected_graph(rng, rng.randint(2, 5), 2, extra_edge_prob=0.4)
            for _ in range(rng.randint(3, 4))
        ]
        patterns = mine(TransactionDB.of(txns), 2)
        for p in patterns:
            direct = {
                q.code
                for q in patterns
                if q.graph.n_edges == p.graph.n_edges - 1
                and embeddings_oracle(q.graph, p.graph)
            }
            assert set(p.children) == direct, p.code.text
            assert len(p.children) == len(direct)
        for q in patterns:
            assert set(q.parents) == {p.code for p in patterns if q.code in p.children}
            assert len(set(q.parents)) == len(q.parents)


def random_db(rng, multi):
    """Two to four small transactions: multi-digraphs with parallel and
    antiparallel edges, or random connected graphs."""
    if multi:
        return [random_multi_digraph(rng, rng.randint(3, 5)) for _ in range(rng.randint(2, 4))]
    return [random_connected_graph(rng, rng.randint(1, 4), 2) for _ in range(rng.randint(2, 4))]


class TestClosedness:
    @pytest.mark.parametrize("multi", [False, True], ids=["graphs", "multi"])
    @pytest.mark.parametrize("seed", range(12))
    def test_closed_flags_match_oracle(self, seed, multi):
        # a supergraph of equal support is as frequent as the pattern, so
        # closedness does not depend on the threshold
        rng = random.Random(7100 + seed)
        txns = random_db(rng, multi)
        db = TransactionDB.of(txns)
        closed = closed_patterns_oracle(txns, 1)
        for threshold in range(1, len(txns) + 1):
            got = sorted(p.code.text for p in mine(db, threshold) if p.closed)
            expected = sorted(canonical_code(g).text for g, s in closed if s >= threshold)
            assert got == expected, (seed, threshold)

    @pytest.mark.parametrize("seed", range(12))
    def test_repeated_transactions_multiply_supports(self, seed):
        # each transaction k times under fresh node ids, in a shuffled order:
        # one isomorphism class per distinct transaction, the same codes,
        # flags and links, and k times the supports at k times the threshold
        rng = random.Random(7200 + seed)
        txns = random_db(rng, seed % 2 == 1)
        k = rng.randint(2, 3)
        copies = []
        for g in txns * k:
            ids = [n for n, _ in g.nodes]
            fresh = rng.sample(range(100), len(ids))
            copies.append(relabel_ids(g, dict(zip(ids, fresh))))
        rng.shuffle(copies)
        db = TransactionDB.of(copies)
        classes: dict[int, int] = {}
        for tid, g in enumerate(copies):
            rep = next((r for r in classes if isomorphic_oracle(copies[r], g)), tid)
            classes[rep] = classes.get(rep, 0) + 1
        assert db.multiplicity == classes
        assert len(db) == len(copies) and db.transactions == tuple(copies)
        for threshold in range(1, len(txns) + 1):
            once = mine(TransactionDB.of(txns), threshold)
            many = mine(db, k * threshold)
            assert [(p.code, k * p.support, p.closed, p.children, p.parents) for p in once] == [
                (p.code, p.support, p.closed, p.children, p.parents) for p in many
            ]


def rightmost_extensions(db, node, backward, forward):
    """Every code entry that extends a growth node by one transaction edge on
    its rightmost path, read off the transactions' edge lists, no rule applied;
    backward entries only when ``backward``, forward ones only when ``forward``."""
    graph, code, rmpath, projections = node
    labels, n, r = dict(graph.nodes), graph.n_nodes, rmpath[-1]
    entries = set()
    for tid, embs in projections.items():
        txn = db.transactions[tid]
        txn_labels = dict(txn.nodes)
        for emb in embs:
            index = {v: k for k, v in enumerate(emb)}
            for s, d, el in txn.edges:
                a, b = index.get(s), index.get(d)
                if a is not None and b is not None:
                    if not backward or r not in (a, b) or (a, b, el) in graph.edges:
                        continue
                    j = b if a == r else a
                    if j in rmpath:
                        entries.add((r, j, 0 if a == r else 1, labels[r], el, labels[j]))
                elif (a if b is None else b) in rmpath and forward:
                    i, w, dflag = (a, d, 0) if b is None else (b, s, 1)
                    entries.add((i, n, dflag, labels[i], el, txn_labels[w]))
    return entries


def child_graph(graph, entry):
    i, j, dflag, _, el, to_label = entry
    nodes = graph.nodes if j < i else graph.nodes + ((j, to_label),)
    edge = (i, j, el) if dflag == 0 else (j, i, el)
    return LabeledGraph.of(nodes, graph.edges + (edge,))


def named_rule(code, rmpath, entry):
    """The gSpan rule that rejects ``entry`` as an extension of ``code``, or None."""
    i, j, dflag, _, el, to_label = entry
    successor = dict(zip(rmpath, rmpath[1:]))
    path_key = {e[1]: (e[2], e[4], e[5]) for e in code.entries if e[1] > e[0]}
    if j < i:
        return "backward" if (1 - dflag, el, entry[3]) < path_key[successor[j]] else None
    if to_label < code.root_label:
        return "root"
    if i in successor and (dflag, el, to_label) < path_key[successor[i]]:
        return "leaf"
    return None


class TestGrowthRules:
    """``_extensions``, through ``graphcore.rightmost_extensions``, drops exactly
    the extensions that step's three rules name, before collecting their
    projections, and each of them has a non-minimal code. The same step grows
    ``canonical_code``, whose minimality ``test_graphcore`` checks against an
    exhaustive enumeration."""

    @pytest.mark.parametrize("trees_only", [False, True], ids=["graphs", "trees"])
    @pytest.mark.parametrize("seed", range(12))
    def test_rejected_extensions_are_not_minimal(self, seed, trees_only, monkeypatch):
        # Threshold 1 makes every extension frequent, so ``_frequent_minimal``
        # asks ``canonical_code`` about each one the rules let through; the
        # rest were rejected by a rule. Trees are grown as calibration grows
        # them: no backward edges, no forward ones at 5 nodes.
        rng = random.Random(9100 + seed)
        db = TransactionDB.of([random_multi_digraph(rng, rng.randint(4, 6)) for _ in range(3)])
        asked = set()
        monkeypatch.setattr(miner, "canonical_code", lambda g: asked.add(g) or canonical_code(g))
        rejected = collections.Counter()
        stack = miner._seeds(db, 1)
        while stack:
            node = stack.pop()
            graph, code, rmpath, _ = node
            asked.clear()
            backward, forward = not trees_only, not trees_only or graph.n_nodes < 5
            ext = miner._extensions(db, node, backward, forward, lambda: None)
            children = miner._frequent_minimal(db, node, ext, 1)
            for entry in rightmost_extensions(db, node, backward, forward):
                child = child_graph(graph, entry)
                rule = named_rule(code, rmpath, entry)
                assert (child not in asked) == (rule is not None), (code.text, entry)
                if rule is not None:
                    extended = CanonicalCode(code.root_label, code.entries + (entry,))
                    assert canonical_code(child) != extended, (code.text, entry)
                    rejected[rule] += 1
            stack.extend(children)
        assert {"root", "leaf"} | (set() if trees_only else {"backward"}) <= set(rejected)


GOLDEN_MINE = Path(__file__).parent / "data" / "mine_golden.json"


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN_MINE.read_text())["cases"], ids=lambda case: case["name"]
)
def test_golden_pattern_documents(case):
    from opminer.cli import patterns_to_doc
    from opminer.evalharness import bundle_to_db
    from opminer.simgen import SimConfig, default_catalogs, simulate

    core, pert = default_catalogs(both_core_rules=case["rules"] == "experiment2")
    config = SimConfig(
        d=case["d"], e=case["e"], p=case["p"], seed=case["seed"],
        core_rules=core, perturbations=pert,
    )
    db = bundle_to_db(simulate(config))
    threshold = calibrate_threshold(db)
    assert threshold == case["threshold"]
    doc = patterns_to_doc(mine(db, threshold), threshold, False)
    assert len(doc["patterns"]) == case["patterns"]
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


def test_only_transactions_keep_derived_indexes():
    """Growth scans the incidence maps the transaction database keeps, one
    per isomorphism class; every graph, pattern or transaction, stays its
    nodes and edges, even once links are read and patterns are embedded in
    one another."""
    from opminer.evalharness import bundle_to_db
    from opminer.simgen import SimConfig, default_catalogs, simulate

    core, pert = default_catalogs()
    db = bundle_to_db(
        simulate(SimConfig(d=4, e=6, p=0.2, seed=7, core_rules=core, perturbations=pert))
    )
    patterns = mine(db, calibrate_threshold(db))
    assert any(p.graph.n_edges > 1 for p in patterns)
    assert sum(len(p.parents) + len(p.children) for p in patterns) > 0
    by_code = {p.code: p for p in patterns}
    for p in patterns:
        for q in p.parents:
            assert is_subgraph_isomorphic(p.graph, by_code[q].graph)[0]
    for g in [p.graph for p in patterns] + list(db.transactions):
        assert vars(g).keys() == {"nodes", "edges"}
    assert db.incident.keys() == db.multiplicity.keys()


def test_reading_links_leaves_pattern_graphs_without_indexes():
    """The lattice's bridge test reads incidence maps built for the call, so
    reading links caches none on the pattern graphs."""
    from opminer.evalharness import bundle_to_db
    from opminer.simgen import SimConfig, default_catalogs, simulate

    core, pert = default_catalogs()
    db = bundle_to_db(
        simulate(SimConfig(d=4, e=6, p=0.2, seed=7, core_rules=core, perturbations=pert))
    )
    patterns = mine(db, calibrate_threshold(db))
    assert sum(len(p.parents) for p in patterns) > 0
    assert not [p.code.text for p in patterns if "incident" in vars(p.graph)]


class TestBudgetAndCaps:
    def test_budget_exceeded_carries_partials(self):
        rng = random.Random(3)
        txns = [random_connected_graph(rng, 7, 2, extra_edge_prob=0.3) for _ in range(3)]
        db = TransactionDB.of(txns)
        with pytest.raises(MiningBudgetExceeded) as exc_info:
            mine(db, 1, time_budget_s=0.02)
        assert isinstance(exc_info.value.partial, list)

    @pytest.mark.parametrize("ticks", [3, 20, 80])
    def test_partial_patterns_are_exact(self, ticks, monkeypatch):
        # depth-first growth stops mid-lattice, so partial results are not
        # whole levels; every pattern they hold must still be exact, and its
        # links are its full links among the partial set. A clock that
        # advances one second per reading makes the stop deterministic.
        rng = random.Random(11)
        txns = [random_connected_graph(rng, 5, 2) for _ in range(4)]
        db = TransactionDB.of(txns)
        full = {p.code: p for p in mine(db, 2)}
        clock = itertools.count()
        fake_time = types.SimpleNamespace(monotonic=lambda: float(next(clock)))
        monkeypatch.setattr(miner, "time", fake_time)
        with pytest.raises(MiningBudgetExceeded) as exc_info:
            mine(db, 2, time_budget_s=ticks)
        partial = exc_info.value.partial
        assert 0 < len(partial) < len(full)
        kept = {p.code for p in partial}
        for p in partial:
            assert full[p.code].support == p.support
            assert p.children == tuple(c for c in full[p.code].children if c in kept)
            assert p.parents == tuple(c for c in full[p.code].parents if c in kept)


    def test_mine_stops_at_the_first_check_past_its_deadline(self, monkeypatch):
        # a clock that only work moves: each canonical_code call takes one
        # second. Growth reads it at every budget check; past the deadline
        # the first check raises, and no canonical_code runs after it (the
        # partial result builds no lattice).
        rng = random.Random(11)
        db = TransactionDB.of([random_connected_graph(rng, 6, 2) for _ in range(4)])
        now, readings = [0.0], []

        def work(g):
            now[0] += 1
            return canonical_code(g)

        def monotonic():
            readings.append(now[0])
            return now[0]

        monkeypatch.setattr(miner, "canonical_code", work)
        monkeypatch.setattr(miner, "time", types.SimpleNamespace(monotonic=monotonic))
        budget = 10
        with pytest.raises(MiningBudgetExceeded) as exc_info:
            mine(db, 1, time_budget_s=budget)
        assert [t for t in readings if t > budget] == [readings[-1]]
        assert now[0] == readings[-1]
        assert exc_info.value.partial


def frequent_subtrees(db, threshold, max_nodes):
    """(graph, code, support) of every subtree of at most ``max_nodes`` nodes
    in at least ``threshold`` transactions, grown depth-first by the miner's
    own steps without backward edges, as calibration grows them."""
    found, stack = [], miner._seeds(db, threshold)
    while stack:
        node = stack.pop()
        graph, code, _, projections = node
        found.append((graph, code, db.support(projections)))
        ext = miner._extensions(db, node, False, graph.n_nodes < max_nodes, lambda: None)
        stack.extend(miner._frequent_minimal(db, node, ext, threshold))
    return found


class TestCalibration:
    def five_node_tree(self):
        return LabeledGraph.of(
            [(0, "A"), (1, "B"), (2, "C"), (3, "D"), (4, "E")],
            [(0, 1, "x"), (0, 2, "x"), (2, 3, "x"), (2, 4, "x")],
        )

    def test_identical_tree_transactions(self):
        txn = self.five_node_tree()
        db = TransactionDB.of([txn] * 4)
        # oracle: distinct subtrees with 2..5 nodes of the single shape
        subtree_count = len(
            {
                canonical_code(s).text
                for s in connected_subtrees_oracle(txn, 5)
                if s.n_nodes >= 2
            }
        )
        cfg = CalibrationConfig(t_min=2, size_range=(2, 5), budget=10)
        expected = 2 if subtree_count <= 10 else 4
        assert calibrate_threshold(db, cfg) == expected

    def test_single_transaction_returns_t_min(self):
        db = TransactionDB.of([self.five_node_tree()])
        assert calibrate_threshold(TransactionDB.of(db.transactions), CalibrationConfig()) == 2

    def test_budget_zero_returns_t_max(self):
        db = TransactionDB.of([self.five_node_tree()] * 3)
        cfg = CalibrationConfig(t_min=1, size_range=(1, 5), budget=0)
        assert calibrate_threshold(db, cfg) == 3

    def test_tree_counts_match_oracle(self):
        rng = random.Random(21)
        txns = [random_connected_graph(rng, 5, 2) for _ in range(4)]
        db = TransactionDB.of(txns)
        got = sorted((c.text, s) for g, c, s in frequent_subtrees(db, 2, 4) if g.n_nodes >= 2)
        # oracle: bucket subtrees per transaction by isomorphism class
        classes: list[tuple[LabeledGraph, set[int]]] = []
        for tid, txn in enumerate(txns):
            for sub in connected_subtrees_oracle(txn, 4):
                if sub.n_nodes < 2:
                    continue
                for rep, tids in classes:
                    if isomorphic_oracle(sub, rep):
                        tids.add(tid)
                        break
                else:
                    classes.append((sub, {tid}))
        expected = sorted(
            (canonical_code(rep).text, len(tids))
            for rep, tids in classes
            if len(tids) >= 2
        )
        assert got == expected

    def test_empty_db_rejected(self):
        with pytest.raises(MinerError):
            calibrate_threshold(TransactionDB.of([]))

    def test_golden_experiment_style_db(self):
        import json
        from pathlib import Path

        from opminer.evalharness import bundle_to_db
        from opminer.simgen import SimConfig, default_catalogs, simulate

        golden = json.loads(
            (Path(__file__).parent / "data" / "calibrate_golden.json").read_text()
        )
        core, pert = default_catalogs()
        cfg = SimConfig(
            d=golden["d"], e=golden["e"], p=golden["p"], seed=golden["seed"],
            core_rules=core, perturbations=pert,
        )
        db = bundle_to_db(simulate(cfg))
        assert len(db) == golden["transactions"]
        assert calibrate_threshold(db, CalibrationConfig()) == golden["threshold"]


def calibrated_by_definition(supports, config, n_transactions):
    """Smallest t in [t_min, t_max] keeping at most ``budget`` in-range
    subtree classes at support >= t, scanned upward; ``supports`` holds the
    support of every in-range class."""
    t_max = n_transactions if config.t_max is None else config.t_max
    if t_max < config.t_min:
        return config.t_min
    for t in range(config.t_min, t_max + 1):
        if sum(1 for s in supports if s >= t) <= config.budget:
            return t
    return t_max


def calibration_configs(rng, n_transactions):
    """Fixed edge cases (budget 0, t_min 1, t_max below the answer, size_range
    lower bounds 1 to 3) plus random configs."""
    configs = [
        CalibrationConfig(t_min=1, size_range=(1, 5), budget=0),
        CalibrationConfig(t_min=1, size_range=(1, 3), budget=0, t_max=1),
        CalibrationConfig(t_min=2, size_range=(2, 4), budget=3),
        CalibrationConfig(t_min=1, size_range=(3, 5), budget=1),
        CalibrationConfig(t_min=3, size_range=(1, 2), budget=2, t_max=2),
    ]
    for _ in range(6):
        lo = rng.randint(1, 3)
        configs.append(
            CalibrationConfig(
                t_min=rng.randint(1, 3),
                t_max=rng.choice([None, rng.randint(1, n_transactions)]),
                size_range=(lo, rng.randint(lo, 5)),
                budget=rng.randint(0, 8),
            )
        )
    return configs


class TestCalibrationSearch:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_subtree_oracle(self, seed):
        rng = random.Random(3000 + seed)
        txns = [
            random_connected_graph(rng, rng.randint(1, 5), n_labels=2)
            for _ in range(rng.randint(1, 6))
        ]
        db = TransactionDB.of(txns)
        # oracle: every subtree class up to 5 nodes with its transactions,
        # bucketed by label multisets so that only candidates are compared
        buckets: dict[tuple, list[tuple[LabeledGraph, set[int]]]] = {}
        for tid, txn in enumerate(txns):
            for sub in connected_subtrees_oracle(txn, 5):
                key = (
                    tuple(sorted(l for _, l in sub.nodes)),
                    tuple(sorted(l for *_, l in sub.edges)),
                )
                classes = buckets.setdefault(key, [])
                for rep, tids in classes:
                    if isomorphic_oracle(sub, rep):
                        tids.add(tid)
                        break
                else:
                    classes.append((sub, {tid}))
        for cfg in calibration_configs(rng, len(txns)):
            lo, hi = cfg.size_range
            supports = [
                len(tids)
                for classes in buckets.values()
                for rep, tids in classes
                if lo <= rep.n_nodes <= hi
            ]
            expected = calibrated_by_definition(supports, cfg, len(txns))
            assert calibrate_threshold(db, cfg) == expected, cfg

    @pytest.mark.parametrize("both_core_rules", [False, True], ids=["exp1", "exp2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_exhaustive_scan_on_histories(self, seed, both_core_rules):
        from opminer.evalharness import bundle_to_db
        from opminer.simgen import SimConfig, default_catalogs, simulate

        core, pert = default_catalogs(both_core_rules=both_core_rules)
        db = bundle_to_db(
            simulate(SimConfig(d=3, e=4, p=0.2, seed=seed, core_rules=core, perturbations=pert))
        )
        rng = random.Random(seed)
        for cfg in [CalibrationConfig(), *calibration_configs(rng, len(db))]:
            lo, hi = cfg.size_range
            supports = [s for g, _, s in frequent_subtrees(db, cfg.t_min, hi) if lo <= g.n_nodes]
            expected = calibrated_by_definition(supports, cfg, len(db))
            assert calibrate_threshold(db, cfg) == expected, cfg

    @pytest.mark.parametrize("ticks", [3, 20, 80])
    def test_budget_exceeded_returns_nothing(self, ticks, monkeypatch):
        # a clock that advances one second per reading stops the search after
        # a fixed number of budget checks; nothing is assembled past that
        rng = random.Random(11)
        txns = [random_connected_graph(rng, 6, 2) for _ in range(5)]
        db = TransactionDB.of(txns)
        cfg = CalibrationConfig(
            t_min=1, size_range=(1, 6), budget=1000, time_budget_s=ticks
        )
        clock = itertools.count()
        fake_time = types.SimpleNamespace(monotonic=lambda: float(next(clock)))
        monkeypatch.setattr(miner, "time", fake_time)
        with pytest.raises(MiningBudgetExceeded) as exc_info:
            calibrate_threshold(db, cfg)
        assert exc_info.value.partial == []

    @pytest.mark.parametrize(
        "fields",
        [{"t_min": 0}, {"budget": -1}, {"size_range": (0, 3)}, {"size_range": (4, 3)}],
        ids=["t_min below 1", "negative budget", "size_range below 1", "size_range reversed"],
    )
    def test_rejects_invalid_config(self, fields):
        with pytest.raises(MinerError):
            CalibrationConfig(**fields)


class TestSizeAtThreshold:
    def make_db(self, sizes):
        txns = []
        for s in sizes:
            nodes = [(i, "N") for i in range(s)]
            edges = [(i, i + 1, "x") for i in range(s - 1)]
            txns.append(LabeledGraph.of(nodes, edges))
        return TransactionDB.of(txns)

    def test_order_statistic(self):
        db = self.make_db([10, 8, 3])
        assert size_at_threshold(db, 2) == 8

    def test_all_equal(self):
        db = self.make_db([5, 5, 5])
        assert size_at_threshold(db, 3) == 5

    def test_out_of_range(self):
        db = self.make_db([3])
        with pytest.raises(MinerError):
            size_at_threshold(db, 0)
        with pytest.raises(MinerError):
            size_at_threshold(db, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sort_oracle(self, seed):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 20))]
        db = self.make_db(sizes)
        for t in range(1, len(sizes) + 1):
            assert size_at_threshold(db, t) == sorted(sizes, reverse=True)[t - 1]
