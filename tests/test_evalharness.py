import math
import random

import pytest

from opminer.evalharness import (
    EvalError,
    GridResult,
    GridSpec,
    ThresholdSpec,
    ap_at_k,
    bundle_to_db,
    evaluate_dataset,
    locate_truth,
    read_report_csv,
    run_grid,
    spearman,
    write_report_csv,
)
from opminer.graphcore import LabeledGraph, canonical_code
from opminer import miner
from opminer.miner import Pattern, TransactionDB
from opminer.ranker import RankedItem, RankedList
from opminer.simgen import default_catalogs, simulate, SimConfig
from oracles import relabel_ids


def ranked_of(graphs, mode="compression"):
    items = []
    for i, (g, supp) in enumerate(graphs, start=1):
        p = Pattern(g, canonical_code(g), supp, True)
        items.append(RankedItem(i, p, supp, (supp - 1) * g.size))
    return RankedList(mode, tuple(items))


def g(label):
    return LabeledGraph.of([(0, label)])


class TestLocateTruth:
    def test_truth_at_head(self):
        ranked = ranked_of([(g("create_A"), 3), (g("create_B"), 2)])
        assert locate_truth(ranked, {"t": g("create_A")}) == {"t": 1}

    def test_truth_absent(self):
        ranked = ranked_of([(g("create_A"), 3)])
        assert locate_truth(ranked, {"t": g("create_Z")}) == {"t": None}

    def test_permuted_copy_same_rank(self):
        base = LabeledGraph.of(
            [(0, "create_A"), (1, "create_B")], [(0, 1, "create_x")]
        )
        permuted = relabel_ids(base, {0: 7, 1: 3})
        ranked = ranked_of([(g("create_C"), 5), (base, 4)])
        assert locate_truth(ranked, {"t": permuted}) == {"t": 2}


class TestApAtK:
    def test_single_relevant_rank_one(self):
        assert ap_at_k([1], 5, 1) == 1.0

    def test_reciprocal_rank(self):
        assert ap_at_k([2], None, 1) == 0.5

    def test_two_relevant(self):
        assert ap_at_k([1, 3], 3, 2) == pytest.approx((1 + 2 / 3) / 2)

    def test_absent_contributes_zero(self):
        assert ap_at_k([None], 5, 1) == 0.0
        assert ap_at_k([None, 2], None, 2) == pytest.approx(0.25)

    def test_cutoff(self):
        assert ap_at_k([4], 3, 1) == 0.0
        assert ap_at_k([4], 4, 1) == 0.25

    def test_zero_relevant_rejected(self):
        with pytest.raises(EvalError):
            ap_at_k([1], 5, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_in_k(self, seed):
        rng = random.Random(seed)
        ranks = sorted(rng.sample(range(1, 40), rng.randint(1, 5)))
        total = len(ranks)
        values = [ap_at_k(ranks, k, total) for k in range(1, 45)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(ap_at_k(ranks, None, total))


class TestSpearman:
    def test_perfect_and_reverse(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_five_point_fixture(self):
        # hand computation: d = (0,1,-1,1,-1,0) pattern -> 1 - 6*4/120 = 0.8
        assert spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8)

    def test_ties_fixture(self):
        # tied xs get average rank 2.5; pearson over ranks = 4.5/sqrt(4.5*5)
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
            4.5 / math.sqrt(4.5 * 5)
        )

    def test_constant_input(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            spearman([1], [1, 2])


class TestThresholdSpec:
    def db_of(self, n):
        return TransactionDB.of(
            [LabeledGraph.of([(0, "A"), (1, "B")], [(0, 1, "x")]) for _ in range(n)]
        )

    def test_fixed(self):
        from opminer.miner import CalibrationConfig

        assert ThresholdSpec("fixed", 3).resolve(self.db_of(5), CalibrationConfig()) == 3

    def test_relative_ceil(self):
        from opminer.miner import CalibrationConfig

        spec = ThresholdSpec("relative", 0.4)
        assert spec.resolve(self.db_of(20), CalibrationConfig()) == 8
        assert spec.resolve(self.db_of(21), CalibrationConfig()) == 9  # ceil

    def test_calibrate_small_db(self):
        from opminer.miner import CalibrationConfig

        got = ThresholdSpec("calibrate").resolve(self.db_of(4), CalibrationConfig())
        assert got == 2

    def test_invalid(self):
        from opminer.miner import CalibrationConfig

        with pytest.raises(EvalError):
            ThresholdSpec("fixed", 0.5).resolve(self.db_of(3), CalibrationConfig())
        with pytest.raises(EvalError):
            ThresholdSpec("relative", 1.5).resolve(self.db_of(3), CalibrationConfig())
        with pytest.raises(EvalError):
            ThresholdSpec("nope").resolve(self.db_of(3), CalibrationConfig())


def tiny_counts():
    return {
        "Package": 6,
        "Component": 8,
        "SwImplementation": 4,
        "Port": 10,
        "Connector": 5,
        "Requirement": 7,
    }


class TestPipeline:
    def test_degenerate_noiseless_cell_perfect_map(self):
        core, pert = default_catalogs()
        bundle = simulate(
            SimConfig(
                d=2, e=1, p=0.0, seed=1,
                core_rules=core, perturbations=pert,
                initial_counts=tiny_counts(),
            )
        )
        rows = evaluate_dataset(bundle, ThresholdSpec("fixed", 2), ks=(1, 5))
        compression_row = next(r for r in rows if r["mode"] == "compression")
        assert compression_row["rank_truth_1"] == 1
        assert compression_row["ap@1"] == 1.0
        assert compression_row["ap@inf"] == 1.0

    def test_builds_no_lattice(self, monkeypatch):
        # mine marks closedness while it grows, so pruning and ranking read
        # no lattice links
        def no_lattice(patterns):
            raise AssertionError("lattice links built")

        monkeypatch.setattr(miner, "_link", no_lattice)
        core, pert = default_catalogs()
        bundle = simulate(
            SimConfig(d=4, e=3, p=0.2, seed=3, core_rules=core, perturbations=pert)
        )
        rows = evaluate_dataset(bundle, ThresholdSpec("calibrate"), ks=(1,))
        assert [r["rank_truth_1"] for r in rows] == [1, 1]

    def test_bundle_to_db_tags(self):
        core, pert = default_catalogs()
        bundle = simulate(
            SimConfig(
                d=2, e=2, p=0.0, seed=2,
                core_rules=core, perturbations=pert,
                initial_counts=tiny_counts(),
            )
        )
        db = bundle_to_db(bundle)
        assert set(db.tags) <= {"0->1", "1->2"}
        assert len(db) >= 2

    def test_run_grid_and_csv_round_trip(self, tmp_path):
        spec = GridSpec(
            d_values=(2,), e_values=(1,), p_values=(0.0,), seeds=(1, 2),
            threshold=ThresholdSpec("fixed", 2), ks=(1, 5),
            initial_counts=tiny_counts(),
        )
        result = run_grid(spec)
        assert not result.errors
        assert len(result.rows) == 4  # 2 cells x 2 modes
        table = result.map_table()
        assert table["compression"]["MAP@1"] == 1.0
        path = tmp_path / "report.csv"
        write_report_csv(result.rows, path, ks=(1, 5))
        back = read_report_csv(path)
        assert len(back) == 4
        assert back[0]["mode"] in ("compression", "frequency")
        again = GridResult(back, {}).map_table()
        assert again["compression"]["MAP@1"] == 1.0

    def test_run_grid_leaves_canonical_code_cache_empty(self):
        """Each cell's pattern graphs leave the cache when the cell ends."""
        spec = GridSpec(
            d_values=(2,), e_values=(1,), p_values=(0.0,), seeds=(1, 2),
            threshold=ThresholdSpec("fixed", 2), initial_counts=tiny_counts(),
        )
        result = run_grid(spec)
        assert not result.errors and result.rows
        assert canonical_code.cache_info().currsize == 0

    def test_grid_spec_json_round_trip(self):
        spec = GridSpec(
            d_values=(2, 3), e_values=(1,), p_values=(0.0, 0.5), seeds=(1,),
            rules="experiment2", threshold=ThresholdSpec("relative", 0.4),
            ks=(1, 2), jobs=2,
        )
        back = GridSpec.from_json(spec.to_json())
        assert back == spec

    def test_seed_count_shorthand(self):
        spec = GridSpec.from_json(
            {"d": [2], "e": [1], "p": [0.0], "seeds": 3}
        )
        assert spec.seeds == (0, 1, 2)

    def test_aggregation_order_independent(self):
        rows = [
            {"mode": "compression", "ap@1": 1.0, "d": 1, "e": 1, "p": 0, "seed": 1},
            {"mode": "compression", "ap@1": 0.0, "d": 1, "e": 1, "p": 0, "seed": 2},
        ]
        a = GridResult(rows, {}).map_table()
        b = GridResult(rows[::-1], {}).map_table()
        assert a == b == {"compression": {"MAP@1": 0.5}}
