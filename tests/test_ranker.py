import random

import pytest

from opminer.graphcore import LabeledGraph, canonical_code, is_subgraph_isomorphic
from opminer.miner import Pattern, TransactionDB, mine
from opminer.ranker import RankError, compression, prune, rank
from oracles import random_connected_graph


def make_pattern(n_nodes, n_edges, support, label="N"):
    assert n_edges <= n_nodes - 1
    nodes = [(i, f"{label}{i}") for i in range(n_nodes)]
    edges = [(i, i + 1, "x") for i in range(n_edges)]
    g = LabeledGraph.of(nodes, edges)
    return Pattern(g, canonical_code(g), support, True)


def sg_minus_oracle(patterns):
    """Quadratic scan applying the dominated-pattern rule with iso checks."""
    removed = set()
    for i, g in enumerate(patterns):
        cg = (g.support - 1) * g.graph.size
        for j, h in enumerate(patterns):
            if i == j or g.support != h.support:
                continue
            ch = (h.support - 1) * h.graph.size
            if cg > ch or h.graph.size <= g.graph.size:
                continue
            if is_subgraph_isomorphic(g.graph, h.graph)[0]:
                removed.add(i)
                break
    return [p for i, p in enumerate(patterns) if i not in removed]


class TestCompression:
    def test_paper_values(self):
        assert compression(make_pattern(7, 6, 15)) == 14 * 13  # size 13 variant
        # the documented fixtures: 7 nodes + 7 edges at support 15 -> 196
        g = LabeledGraph.of(
            [(i, f"T{i}") for i in range(7)],
            [(i, i + 1, "x") for i in range(6)] + [(6, 0, "y")],
        )
        assert compression(Pattern(g, canonical_code(g), 15, True)) == 196

    def test_support_one_is_zero(self):
        assert compression(make_pattern(4, 3, 1)) == 0
        assert compression(make_pattern(6, 5, 1)) == 0

    def test_small_fixture(self):
        g = LabeledGraph.of(
            [(0, "A"), (1, "B"), (2, "C")], [(0, 1, "x"), (1, 2, "y")]
        )
        assert compression(Pattern(g, canonical_code(g), 30, True)) == 145

    def test_nonnegative(self):
        for support in (1, 2, 5):
            assert compression(make_pattern(3, 2, support)) >= 0


def chain_patterns():
    """g1 c g2 c g3 nested patterns with controlled supports, marked closed
    as a miner would mark them: g2 has g3's support, so it is not closed."""
    g1 = LabeledGraph.of([(0, "A"), (1, "B")], [(0, 1, "x")])
    g2 = LabeledGraph.of([(0, "A"), (1, "B"), (2, "C")], [(0, 1, "x"), (1, 2, "x")])
    g3 = LabeledGraph.of(
        [(0, "A"), (1, "B"), (2, "C"), (3, "D")],
        [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")],
    )
    return (
        Pattern(g1, canonical_code(g1), 30, True),
        Pattern(g2, canonical_code(g2), 15, False),
        Pattern(g3, canonical_code(g3), 15, True),
    )


class TestPrune:
    def test_running_example_prunes_middle(self):
        p1, p2, p3 = chain_patterns()
        kept = prune([p1, p2, p3])
        assert [p.code for p in kept] == [p1.code, p3.code]

    def test_higher_support_child_survives(self):
        p1, p2, p3 = chain_patterns()
        # p1 has strictly larger support than its supergraphs: never pruned
        assert p1 in prune([p1, p2, p3])

    def test_equal_chain_nothing_removed_without_domination(self):
        g1 = LabeledGraph.of([(0, "A"), (1, "B")], [(0, 1, "x")])
        p = Pattern(g1, canonical_code(g1), 5, True)
        assert prune([p]) == [p]

    def test_reads_no_links(self):
        # hand-built patterns have no lattice, so they have no links to read
        p1, p2, p3 = chain_patterns()
        with pytest.raises(ValueError, match="no lattice"):
            p2.parents
        assert prune([p3, p2, p1]) == [p3, p1]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_quadratic_oracle_on_mined_sets(self, seed):
        rng = random.Random(4000 + seed)
        txns = [
            random_connected_graph(rng, rng.randint(2, 4), 2)
            for _ in range(rng.randint(2, 5))
        ]
        patterns = mine(TransactionDB.of(txns), 2)
        kept = prune(patterns)
        expected = sg_minus_oracle(patterns)
        assert [p.code for p in kept] == [p.code for p in expected]

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        rng = random.Random(5000 + seed)
        txns = [random_connected_graph(rng, rng.randint(2, 5), 2) for _ in range(4)]
        patterns = mine(TransactionDB.of(txns), 2)
        once = prune(patterns)
        assert prune(once) == once

    def test_no_survivor_dominated(self):
        rng = random.Random(123)
        txns = [random_connected_graph(rng, 5, 2) for _ in range(5)]
        kept = prune(mine(TransactionDB.of(txns), 2))
        again = sg_minus_oracle(kept)
        assert kept == again


class TestRank:
    def test_compression_mode_running_example(self):
        g3 = make_pattern(7, 6, 15, label="G3")  # adjust to size 14 via extra edge
        g3 = Pattern(
            LabeledGraph.of(
                [(i, f"T{i}") for i in range(7)],
                [(i, i + 1, "x") for i in range(6)] + [(6, 0, "y")],
            ),
            canonical_code(
                LabeledGraph.of(
                    [(i, f"T{i}") for i in range(7)],
                    [(i, i + 1, "x") for i in range(6)] + [(6, 0, "y")],
                )
            ),
            15,
            True,
        )
        g1 = Pattern(
            LabeledGraph.of([(0, "A"), (1, "B"), (2, "C")], [(0, 1, "x"), (1, 2, "y")]),
            canonical_code(
                LabeledGraph.of([(0, "A"), (1, "B"), (2, "C")], [(0, 1, "x"), (1, 2, "y")])
            ),
            30,
            True,
        )
        ranked = rank([g1, g3], "compression")
        assert [i.compression for i in ranked.items] == [196, 145]
        assert ranked.items[0].pattern.code == g3.code

        by_freq = rank([g1, g3], "frequency")
        assert [i.support for i in by_freq.items] == [30, 15]
        assert by_freq.items[0].pattern.code == g1.code

    def test_rank_is_permutation_of_input(self):
        rng = random.Random(321)
        txns = [random_connected_graph(rng, 4, 2) for _ in range(4)]
        kept = prune(mine(TransactionDB.of(txns), 2))
        ranked = rank(kept, "compression")
        assert sorted(i.pattern.code.text for i in ranked.items) == sorted(
            p.code.text for p in kept
        )
        assert [i.rank for i in ranked.items] == list(range(1, len(kept) + 1))

    def test_tie_break_deterministic(self):
        # a true tie: two distinct graphs, same support, same size
        ga = LabeledGraph.of([(0, "A"), (1, "A")], [(0, 1, "x")])
        gb = LabeledGraph.of([(0, "B"), (1, "B")], [(0, 1, "x")])
        pa = Pattern(ga, canonical_code(ga), 4, True)
        pb = Pattern(gb, canonical_code(gb), 4, True)
        r1 = rank([pa, pb], "compression")
        r2 = rank([pb, pa], "compression")
        assert [i.pattern.code for i in r1.items] == [i.pattern.code for i in r2.items]
        # canonical code ascending on full tie
        assert r1.items[0].pattern.code < r1.items[1].pattern.code

    def test_unknown_mode_rejected(self):
        with pytest.raises(RankError):
            rank([], "support")
