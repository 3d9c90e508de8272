import hashlib
import json
import random
from pathlib import Path

import pytest

from opminer.graphcore import canonical_code, connected_components, loads_transactions
from opminer.modeldiff import difference_graph, load_model, simple_change_graph
from opminer.rulegen import ConformanceError, EditRule, RuleError, rule_to_pattern_graph
from opminer.simgen import (
    DEFAULT_INSTANCE_COUNTS,
    RepoBundle,
    SimConfig,
    SimError,
    build_initial,
    core_rule_component,
    core_rule_interface,
    default_catalogs,
    default_metamodel,
    perturbation_rules,
    replay,
    save_bundle,
    simulate,
)
from oracles import conformance_oracle

MM = default_metamodel()


def small_counts():
    return {
        "Package": 6,
        "Component": 8,
        "SwImplementation": 4,
        "Port": 10,
        "Connector": 5,
        "Requirement": 7,
    }


def small_config(**kw):
    core, pert = default_catalogs()
    defaults = dict(
        d=2,
        e=2,
        p=0.0,
        seed=1,
        core_rules=core,
        perturbations=pert,
        metamodel=MM,
        initial_counts=small_counts(),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestDefaultCatalogs:
    def test_core_rule_sizes(self):
        g1 = rule_to_pattern_graph(core_rule_interface())
        assert (g1.n_nodes, g1.n_edges) == (7, 7)
        g2 = rule_to_pattern_graph(core_rule_component())
        assert (g2.n_nodes, g2.n_edges) == (4, 5)

    def test_perturbation_catalog_size(self):
        assert len(perturbation_rules()) == 4

    def test_rule_patterns_connected(self):
        for rule in (core_rule_interface(), core_rule_component()) + perturbation_rules():
            g = rule_to_pattern_graph(rule)
            assert len(connected_components(g)) == 1, rule.name

    def test_catalog_selection(self):
        core, pert = default_catalogs()
        assert [r.name for r in core] == ["add_component_interface"]
        core2, _ = default_catalogs(both_core_rules=True)
        assert len(core2) == 2


class TestBuildInitial:
    def test_paper_counts(self):
        m = build_initial(MM, DEFAULT_INSTANCE_COUNTS, seed=42)
        by_type: dict[str, int] = {}
        for _, typ in m.elements:
            by_type[typ] = by_type.get(typ, 0) + 1
        assert by_type == DEFAULT_INSTANCE_COUNTS
        conformance_oracle(m, MM)

    def test_all_zero_spec(self):
        m = build_initial(MM, {}, seed=1)
        assert m.elements == () and m.references == ()

    def test_deterministic_per_seed(self):
        a = build_initial(MM, small_counts(), seed=9)
        b = build_initial(MM, small_counts(), seed=9)
        c = build_initial(MM, small_counts(), seed=10)
        assert a == b
        assert a != c  # same counts, different wiring
        assert sorted(t for _, t in a.elements) == sorted(t for _, t in c.elements)

    def test_unsatisfiable_spec(self):
        with pytest.raises(SimError):
            build_initial(MM, {"Port": 3}, seed=1)  # ports need components
        with pytest.raises(SimError):
            build_initial(MM, {"Package": 1, "Connector": 1, "Port": 1}, seed=1)

    def test_unknown_type_rejected(self):
        with pytest.raises(SimError):
            build_initial(MM, {"Widget": 1}, seed=1)


class TestSimulate:
    def test_noiseless_components_isomorphic_to_rule(self):
        cfg = small_config(d=2, e=1, p=0.0)
        bundle = simulate(cfg)
        assert len(bundle.versions) == 3
        truth_code = canonical_code(bundle.truth["add_component_interface"])
        for old, new in zip(bundle.versions, bundle.versions[1:]):
            scg = simple_change_graph(difference_graph(old, new))
            comps = connected_components(scg.graph)
            assert len(comps) == 1
            assert canonical_code(comps[0]) == truth_code

    def test_p_one_every_application_perturbed(self):
        cfg = small_config(d=1, e=3, p=1.0, seed=3)
        bundle = simulate(cfg)
        entries = [e for rev in bundle.logs for e in rev]
        assert entries, "no applications recorded"
        for entry in entries:
            assert entry.perturbed or entry.skipped_perturbation

    def test_perturbation_overlaps_application(self):
        cfg = small_config(d=1, e=2, p=1.0, seed=5)
        bundle = simulate(cfg)
        for rev in bundle.logs:
            for entry in rev:
                if entry.perturbed:
                    core_touched = set(u for _, u in entry.record.binding) | set(
                        u for _, u in entry.record.created
                    )
                    pert_bound = set(u for _, u in entry.perturbation.binding)
                    assert core_touched & pert_bound

    def test_e_zero_rejected(self):
        with pytest.raises(SimError):
            small_config(e=0)

    def test_invalid_p_rejected(self):
        with pytest.raises(SimError):
            small_config(p=1.5)

    def test_deterministic(self):
        a = simulate(small_config(d=2, e=2, p=0.5, seed=11))
        b = simulate(small_config(d=2, e=2, p=0.5, seed=11))
        assert a.versions == b.versions

    def test_replay_reproduces_versions(self):
        bundle = simulate(small_config(d=2, e=2, p=0.6, seed=13))
        assert replay(bundle) == bundle.versions

    def test_expected_perturbation_count(self):
        # binomial: mean p*e*d, check within 3 sigma over several seeds pooled
        import math

        p, e, d, runs = 0.4, 3, 2, 12
        total = 0
        trials = 0
        for seed in range(runs):
            bundle = simulate(small_config(d=d, e=e, p=p, seed=seed))
            entries = [x for rev in bundle.logs for x in rev]
            total += sum(1 for x in entries if x.perturbed or x.skipped_perturbation)
            trials += len(entries)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(total - trials * p) <= 3 * sigma

    @pytest.mark.parametrize(
        "rule",
        [
            EditRule(
                name="contain_context_swimpl",
                context_nodes=((0, "SwImplementation"),),
                created_nodes=((1, "Package"),),
                created_edges=((1, 0, "contains_swimpl"),),
            ),
            EditRule(
                name="port_of_two_components",
                context_nodes=((0, "Component"), (1, "Component")),
                created_nodes=((2, "Port"),),
                created_edges=((0, 2, "port"), (1, 2, "port")),
            ),
        ],
        ids=lambda rule: rule.name,
    )
    def test_second_container_raises_conformance_error(self, rule):
        # no site admits either rule: every SwImplementation of the initial
        # model already has its container, and the created Port would get
        # two; ``opminer simulate`` maps a RuleError to exit 2
        with pytest.raises(ConformanceError, match="two containment parents") as info:
            simulate(small_config(d=1, e=1, p=0.0, core_rules=(rule,)))
        assert isinstance(info.value, RuleError)

    def test_both_rules_mode(self):
        core, pert = default_catalogs(both_core_rules=True)
        cfg = small_config(d=2, e=4, p=0.0, seed=21, core_rules=core)
        bundle = simulate(cfg)
        names = {e.record.rule for rev in bundle.logs for e in rev}
        assert names <= {"add_component_interface", "add_component_with_impl"}
        assert len(bundle.truth) == 2


class TestBundleIO:
    def test_save_load_round_trip(self, tmp_path):
        """Every file of a saved bundle reads back as what was saved."""
        bundle = simulate(small_config(d=2, e=2, p=0.5, seed=17))
        out = tmp_path / "b"
        save_bundle(bundle, out)
        for i, version in enumerate(bundle.versions):
            assert load_model(out / f"m{i}.json") == version
        truth = {}
        for path in (out / "truth").glob("*.txt"):
            (truth[path.stem],) = loads_transactions(path.read_text(encoding="utf-8"))
        assert truth == bundle.truth
        assert json.loads((out / "config.json").read_text()) == bundle.config.to_json()
        assert json.loads((out / "log.json").read_text()) == {
            "skippedApplications": bundle.skipped_applications,
            "revisions": [[entry.to_json() for entry in rev] for rev in bundle.logs],
        }

    def test_bundle_layout(self, tmp_path):
        bundle = simulate(small_config(d=2, e=1, p=0.0, seed=19))
        save_bundle(bundle, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names == ["config.json", "log.json", "m0.json", "m1.json", "m2.json", "truth"]
        truths = sorted(p.name for p in (tmp_path / "b" / "truth").iterdir())
        assert truths == ["add_component_interface.txt"]


GOLDEN = Path(__file__).parent / "data" / "simulate_golden.json"


def golden_config(case) -> SimConfig:
    core, pert = default_catalogs(both_core_rules=case["rules"] == "experiment2")
    return SimConfig(
        d=case["d"], e=case["e"], p=case["p"], seed=case["seed"],
        core_rules=core, perturbations=pert, metamodel=MM,
        initial_counts=case.get("counts", DEFAULT_INSTANCE_COUNTS),
    )


def bundle_hashes(bundle, out_dir: Path) -> dict[str, str]:
    """sha256 of every file ``save_bundle`` writes, keyed by relative path."""
    save_bundle(bundle, out_dir)
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text())["cases"], ids=lambda case: case["name"]
)
def test_golden_bundles(tmp_path, case):
    bundle = simulate(golden_config(case))
    assert bundle_hashes(bundle, tmp_path / "bundle") == case["sha256"]
    assert replay(bundle) == bundle.versions
