"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the
per-criterion lines as they complete. The two reduced experiment grids are
module-scoped fixtures shared across criteria.
"""

import json
import random
import time
from pathlib import Path

import pytest

from opminer.evalharness import (
    GridSpec,
    ThresholdSpec,
    ap_at_k,
    evaluate_dataset,
    run_grid,
    spearman,
)
from opminer.graphcore import LabeledGraph, canonical_code, connected_components
from opminer.miner import Pattern, TransactionDB, mine
from opminer.modeldiff import difference_graph, simple_change_graph
from opminer.ranker import compression, prune, rank
from opminer.rulegen import EditRule, rule_to_pattern_graph
from opminer.simgen import SimConfig, default_catalogs, default_metamodel, simulate
from oracles import frequent_patterns_oracle, random_connected_graph

GRIDS = Path(__file__).resolve().parents[1] / "grids"


def reduced_grid(experiment: str) -> GridSpec:
    """The reduced grid of ``experiment`` as ``grids/`` specifies it."""
    return GridSpec.from_json(json.loads((GRIDS / f"{experiment}-reduced.json").read_text()))


def report(criterion: int, name: str, ok: bool, details: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{name}]: {status} ({details})")


@pytest.fixture(scope="module")
def exp1():
    t0 = time.perf_counter()
    result = run_grid(reduced_grid("experiment1"))
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="module")
def exp2():
    return run_grid(reduced_grid("experiment2"))


def test_criterion_1_reduced_experiment_1(exp1):
    result, elapsed = exp1
    assert not result.errors, result.errors
    table = result.map_table()
    map1 = table["compression"]["MAP@1"]
    mapinf_c = table["compression"]["MAP@inf"]
    mapinf_f = table["frequency"]["MAP@inf"]
    gap = mapinf_c - mapinf_f
    ok = map1 >= 0.90 and mapinf_c >= 0.93 and gap >= 0.30 and elapsed <= 900
    report(
        1,
        "reduced experiment 1",
        ok,
        f"MAP@1={map1:.3f} (>=0.90), MAP@inf={mapinf_c:.3f} (>=0.93), "
        f"gap={gap:.3f} (>=0.30), runtime={elapsed:.0f}s (<=900s)",
    )
    assert map1 >= 0.90
    assert mapinf_c >= 0.93
    assert gap >= 0.30
    assert elapsed <= 900


def test_criterion_2_reduced_experiment_2(exp2):
    result = exp2
    assert not result.errors, result.errors
    table = result.map_table()
    map2 = table["compression"]["MAP@2"]
    comp_rows = [r for r in result.rows if r["mode"] == "compression"]
    both = sum(
        1 for r in comp_rows if r["rank_truth_1"] is not None and r["rank_truth_2"] is not None
    )
    located = both / len(comp_rows)
    ok = map2 >= 0.90 and located >= 0.90
    report(
        2,
        "reduced experiment 2",
        ok,
        f"MAP@2={map2:.3f} (>=0.90), both truths located in {located:.0%} "
        f"of {len(comp_rows)} datasets (>=90%)",
    )
    assert map2 >= 0.90
    assert located >= 0.90


def test_criterion_3_miner_oracle_equivalence():
    discrepancies = 0
    checked = 0
    for i in range(50):
        rng = random.Random(10_000 + i)
        txns = [
            random_connected_graph(rng, rng.randint(1, 6), rng.randint(2, 4))
            for _ in range(rng.randint(2, 8))
        ]
        coded = sorted((canonical_code(g).text, s) for g, s in frequent_patterns_oracle(txns, 1))
        db = TransactionDB.of(txns)
        for threshold in range(1, len(txns) + 1):
            checked += 1
            expected = [(code, s) for code, s in coded if s >= threshold]
            got = sorted((p.code.text, p.support) for p in mine(db, threshold))
            if got != expected:
                discrepancies += 1
    ok = discrepancies == 0
    report(
        3,
        "miner oracle equivalence",
        ok,
        f"50 random databases, {checked} (db, threshold) runs, "
        f"{discrepancies} discrepancies (=0)",
    )
    assert discrepancies == 0


def sg_minus_oracle(patterns):
    from opminer.graphcore import is_subgraph_isomorphic

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


def test_criterion_4_pruning_correctness():
    mismatches = 0
    idempotence_failures = 0
    for i in range(100):
        rng = random.Random(20_000 + i)
        txns = [
            random_connected_graph(rng, rng.randint(2, 5), rng.randint(2, 3))
            for _ in range(rng.randint(2, 5))
        ]
        patterns = mine(TransactionDB.of(txns), 2)
        kept = prune(patterns)
        if [p.code for p in kept] != [p.code for p in sg_minus_oracle(patterns)]:
            mismatches += 1
        if prune(kept) != kept:
            idempotence_failures += 1
    ok = mismatches == 0 and idempotence_failures == 0
    report(
        4,
        "pruning correctness",
        ok,
        f"100 random lattices, {mismatches} oracle mismatches (=0), "
        f"{idempotence_failures} idempotence failures (=0)",
    )
    assert mismatches == 0
    assert idempotence_failures == 0


def random_creation_rule(rng: random.Random) -> EditRule:
    """Random deletion-free rule grown over the default meta-model types.

    Only rules that keep containment a forest on a ``build_initial`` instance
    are grown: there every non-Package element already has its one container
    (and a Package is never contained), so no containment edge may target the
    context node, and no created node may take a second container. Any other
    rule is refused by ``simulate`` with ``ConformanceError`` at every site.
    An option that would break this is skipped after the shuffle, so the
    skip takes no ``rng`` draw of its own.
    """
    mm = default_metamodel()
    edge_types = list(mm.edge_types)
    context_type = rng.choice(sorted(mm.node_types))
    nodes = [(0, context_type)]
    edges = []
    contained = {0}
    n_created = rng.randint(1, 4)
    for new_id in range(1, n_created + 1):
        anchors = nodes[:]
        rng.shuffle(anchors)
        grown = False
        for anchor_id, anchor_type in anchors:
            options = [
                et for et in edge_types if et.src == anchor_type or et.tgt == anchor_type
            ]
            rng.shuffle(options)
            for et in options:
                if et.src == anchor_type:
                    src, tgt, new_type = anchor_id, new_id, et.tgt
                else:
                    src, tgt, new_type = new_id, anchor_id, et.src
                if et.containment:
                    if tgt in contained:
                        continue
                    contained.add(tgt)
                nodes.append((new_id, new_type))
                edges.append((src, tgt, et.name))
                grown = True
                break
            if grown:
                break
        if not grown:
            break
    context = (nodes[0],)
    created = tuple(nodes[1:])
    return EditRule(
        name=f"generated_{rng.randrange(10**6)}",
        context_nodes=context,
        created_nodes=created,
        created_edges=tuple(edges),
    )


def test_criterion_5_round_trip():
    core_failures = []
    counts = {
        "Package": 10, "Component": 10, "SwImplementation": 6,
        "Port": 12, "Connector": 6, "Requirement": 8,
    }
    pert = default_catalogs()[1]
    produced = 0
    i = 0
    while produced < 20:
        rng = random.Random(30_000 + i)
        i += 1
        rule = random_creation_rule(rng)
        if not rule.created_nodes:
            continue
        produced += 1
        cfg = SimConfig(
            d=2, e=1, p=0.0, seed=i, core_rules=(rule,), perturbations=pert,
            initial_counts=counts,
        )
        bundle = simulate(cfg)
        if bundle.skipped_applications:
            core_failures.append((rule.name, "no site"))
            continue
        truth_code = canonical_code(rule_to_pattern_graph(rule))
        txns = []
        ok_components = True
        for old, new in zip(bundle.versions, bundle.versions[1:]):
            scg = simple_change_graph(difference_graph(old, new))
            comps = connected_components(scg.graph)
            if len(comps) != 1 or canonical_code(comps[0]) != truth_code:
                ok_components = False
            txns.extend(comps)
        if not ok_components:
            core_failures.append((rule.name, "scg mismatch"))
            continue
        patterns = mine(TransactionDB.of(txns), 2)
        ranked = rank(prune(patterns), "compression")
        if not ranked.items or ranked.items[0].pattern.code != truth_code:
            core_failures.append((rule.name, "rank-1 mismatch"))
    ok = produced == 20 and not core_failures
    report(
        5,
        "rule round trip",
        ok,
        f"20 generated deletion-free rules, {len(core_failures)} failures (=0)",
    )
    assert produced == 20
    assert not core_failures


def test_criterion_6_formula_fixtures():
    cycle = LabeledGraph.of(
        [(i, f"T{i}") for i in range(7)],
        [(i, i + 1, "x") for i in range(6)] + [(6, 0, "y")],
    )
    c196 = compression(Pattern(cycle, canonical_code(cycle), 15, True))
    single = LabeledGraph.of([(0, "A"), (1, "B")], [(0, 1, "x")])
    c0 = compression(Pattern(single, canonical_code(single), 1, True))
    ap_half = ap_at_k([2], None, 1)

    monotone_failures = 0
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        total = rng.randint(1, 5)
        ranks = sorted(rng.sample(range(1, 60), total))
        values = [ap_at_k(ranks, k, total) for k in range(1, 70)]
        if any(a > b + 1e-12 for a, b in zip(values, values[1:])):
            monotone_failures += 1

    ok = c196 == 196 and c0 == 0 and ap_half == 0.5 and monotone_failures == 0
    report(
        6,
        "formula fixtures",
        ok,
        f"compression(15,7n,7e)={c196} (=196), compression(supp=1)={c0} (=0), "
        f"AP@inf(rank 2)={ap_half} (=0.5), MAP-monotonic failures={monotone_failures}/200 (=0)",
    )
    assert c196 == 196
    assert c0 == 0
    assert ap_half == 0.5
    assert monotone_failures == 0


def test_criterion_7_noiseless_endpoint_and_drivers(exp1):
    rank_one = 0
    seeds = range(1, 11)
    for seed in seeds:
        core, pert = default_catalogs()
        cfg = SimConfig(d=5, e=4, p=0.0, seed=seed, core_rules=core, perturbations=pert)
        bundle = simulate(cfg)
        rows = evaluate_dataset(bundle, ThresholdSpec("relative", 0.4), ks=(1,))
        comp = next(r for r in rows if r["mode"] == "compression")
        if comp["rank_truth_1"] == 1:
            rank_one += 1

    result, _ = exp1
    comp_rows = [r for r in result.rows if r["mode"] == "compression"]
    aps = [r["ap@inf"] for r in comp_rows]
    rho_p = spearman(aps, [r["p"] for r in comp_rows])
    rho_e = spearman(aps, [r["e"] for r in comp_rows])
    ok = rank_one == len(seeds) and rho_p <= 0 and rho_e <= 0
    report(
        7,
        "noiseless endpoint and drivers",
        ok,
        f"rank-1 in {rank_one}/10 noiseless runs (=10), "
        f"spearman(AP,p)={rho_p:.3f} (<=0), spearman(AP,e)={rho_e:.3f} (<=0)",
    )
    assert rank_one == len(seeds)
    assert rho_p <= 0
    assert rho_e <= 0
