"""Synthetic model histories: seeded initial instance, rule applications,
overlapping perturbations, and bundle files.

A simulation config fixes d revisions of e core-rule applications each; every
application is independently followed, with probability p, by one
perturbation rule applied at a site sharing at least one element with it.
Bundles carry the versions, the application log, and the ground truth
patterns of the core rules. ``save_bundle`` writes a bundle as files; this
package reads none back. ``replay`` re-applies the log of an in-memory bundle.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Mapping, Sequence

from .graphcore import LabeledGraph, save_json, save_transactions
from .modeldiff import (
    EdgeType,
    MetaModel,
    ModelError,
    ModelVersion,
    WorkingModel,
    save_models,
)
from .rulegen import (
    ApplicationRecord,
    EditRule,
    NoMatchError,
    _binding_nodes,
    apply_in_place,
    find_bindings,
    rule_to_pattern_graph,
)

log = logging.getLogger(__name__)


class SimError(ValueError):
    """Invalid simulation configuration or unsatisfiable instance spec."""


def default_metamodel() -> MetaModel:
    """The simple component meta-model driving the controlled experiments."""
    return MetaModel(
        frozenset(
            ["Package", "Component", "SwImplementation", "Port", "Connector", "Requirement"]
        ),
        (
            EdgeType("contains_component", "Package", "Component", containment=True),
            EdgeType("contains_swimpl", "Package", "SwImplementation", containment=True),
            EdgeType("contains_connector", "Package", "Connector", containment=True),
            EdgeType("contains_requirement", "Package", "Requirement", containment=True),
            EdgeType("port", "Component", "Port", containment=True),
            EdgeType("end", "Connector", "Port"),
            EdgeType("part", "Connector", "Component"),
            EdgeType("implementation", "Component", "SwImplementation"),
            EdgeType("satisfies", "Requirement", "Connector"),
            EdgeType("traces", "Requirement", "Component"),
        ),
    )


#: per-type element counts of the default initial instance
DEFAULT_INSTANCE_COUNTS: dict[str, int] = {
    "Package": 87,
    "Component": 85,
    "SwImplementation": 85,
    "Port": 172,
    "Connector": 86,
    "Requirement": 171,
}


def core_rule_interface() -> EditRule:
    """Wire two Components inside a Package: 7-node / 7-edge pattern.

    Context: a Package and two Components. Created: two Ports, a Connector
    and a Requirement, with containment into the package, one port per
    component, both connector ends and the satisfaction link.
    """
    return EditRule(
        name="add_component_interface",
        context_nodes=((0, "Package"), (1, "Component"), (2, "Component")),
        created_nodes=((3, "Port"), (4, "Port"), (5, "Connector"), (6, "Requirement")),
        created_edges=(
            (0, 5, "contains_connector"),
            (0, 6, "contains_requirement"),
            (1, 3, "port"),
            (2, 4, "port"),
            (5, 3, "end"),
            (5, 4, "end"),
            (6, 5, "satisfies"),
        ),
    )


def core_rule_component() -> EditRule:
    """Add a Component with its SwImplementation and a Requirement to a
    Package: 4-node / 5-edge pattern."""
    return EditRule(
        name="add_component_with_impl",
        context_nodes=((0, "Package"),),
        created_nodes=((1, "Component"), (2, "SwImplementation"), (3, "Requirement")),
        created_edges=(
            (0, 1, "contains_component"),
            (0, 2, "contains_swimpl"),
            (0, 3, "contains_requirement"),
            (1, 2, "implementation"),
            (3, 1, "traces"),
        ),
    )


def perturbation_rules() -> tuple[EditRule, ...]:
    """Four authored perturbation operations (fixtures, non-normative)."""
    return (
        EditRule(
            name="add_requirement_to_connector",
            context_nodes=((0, "Package"), (1, "Connector")),
            created_nodes=((2, "Requirement"),),
            created_edges=((0, 2, "contains_requirement"), (2, 1, "satisfies")),
        ),
        EditRule(
            name="add_port_to_component",
            context_nodes=((0, "Component"),),
            created_nodes=((1, "Port"),),
            created_edges=((0, 1, "port"),),
        ),
        EditRule(
            name="delete_requirement",
            context_nodes=((0, "Package"), (2, "Connector")),
            deleted_nodes=((1, "Requirement"),),
            deleted_edges=((0, 1, "contains_requirement"), (1, 2, "satisfies")),
        ),
        EditRule(
            name="add_swimplementation",
            context_nodes=((0, "Package"), (1, "Component")),
            created_nodes=((2, "SwImplementation"),),
            created_edges=((0, 2, "contains_swimpl"), (1, 2, "implementation")),
        ),
    )


def default_catalogs(both_core_rules: bool = False) -> tuple[tuple[EditRule, ...], tuple[EditRule, ...]]:
    """(core rules, perturbation rules) for the controlled experiments."""
    core = (core_rule_interface(), core_rule_component()) if both_core_rules else (
        core_rule_interface(),
    )
    return core, perturbation_rules()


def check_counts(metamodel: MetaModel, counts: Mapping[str, int]) -> None:
    """Raise SimError unless ``counts`` maps type names of ``metamodel`` to
    non-negative integers."""
    if not isinstance(counts, Mapping):
        raise SimError("instance spec must map type names to counts")
    for typ, count in counts.items():
        if typ not in metamodel.node_types:
            raise SimError(f"instance spec names unknown type {typ!r}")
        if not isinstance(count, int) or isinstance(count, bool):
            raise SimError(f"count for {typ!r} is not an integer: {count!r}")
        if count < 0:
            raise SimError(f"negative count for {typ!r}")


def build_initial(
    metamodel: MetaModel, counts: Mapping[str, int], seed: int
) -> ModelVersion:
    """Conformant random instance with exact per-type counts, seeded.

    Wiring policy: every non-Package element gets one containment parent
    chosen uniformly; Connectors reference two distinct Ports via end edges;
    each SwImplementation is implemented by a random Component; each
    Requirement satisfies a random Connector. Unknown types only receive a
    containment parent (first matching containment edge type). ``counts``
    must map type names to non-negative integers.
    """
    rng = Random(seed)
    check_counts(metamodel, counts)

    uids: dict[str, list[str]] = {
        typ: [f"{typ}-{i}" for i in range(counts.get(typ, 0))]
        for typ in sorted(metamodel.node_types)
    }
    elements = [(uid, typ) for typ in sorted(uids) for uid in uids[typ]]
    references: list[tuple[str, str, str]] = []

    containment_of: dict[str, list[EdgeType]] = {}
    for et in metamodel.edge_types:
        if et.containment:
            containment_of.setdefault(et.tgt, []).append(et)

    for typ in sorted(uids):
        for uid in uids[typ]:
            cands = containment_of.get(typ, [])
            if not cands:
                continue  # root type
            et = cands[0]
            parents = uids.get(et.src, [])
            if not parents:
                raise SimError(
                    f"cannot contain {typ!r}: no {et.src!r} instances in spec"
                )
            references.append((rng.choice(parents), uid, et.name))

    def wire(src_type, tgt_type, etype, pick_two=False):
        sources, targets = uids.get(src_type, []), uids.get(tgt_type, [])
        if not sources:
            return
        if not targets or (pick_two and len(targets) < 2):
            raise SimError(f"cannot wire {etype!r}: not enough {tgt_type!r} instances")
        for src in sources:
            chosen = rng.sample(targets, 2) if pick_two else [rng.choice(targets)]
            for tgt in chosen:
                references.append((src, tgt, etype))

    known = {et.name for et in metamodel.edge_types}
    if "end" in known:
        wire("Connector", "Port", "end", pick_two=True)
    if "implementation" in known:
        wire("SwImplementation", "Component", "implementation")
    if "satisfies" in known:
        wire("Requirement", "Connector", "satisfies")

    # implementation edges run Component -> SwImplementation; fix direction
    references = [
        (tgt, src, et) if et == "implementation" else (src, tgt, et)
        for src, tgt, et in references
    ]
    model = ModelVersion.of(elements, set(references))
    try:
        model.validate_against(metamodel)
    except ModelError as exc:
        raise SimError(f"generated instance does not conform: {exc}") from exc
    return model


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one simulated repository."""

    d: int
    e: int
    p: float
    seed: int
    core_rules: tuple[EditRule, ...]
    perturbations: tuple[EditRule, ...]
    metamodel: MetaModel = field(default_factory=default_metamodel)
    initial_counts: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_INSTANCE_COUNTS)
    )
    core_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise SimError("d must be at least 1")
        if self.e < 1:
            raise SimError("e must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise SimError("p must lie in [0, 1]")
        if not self.core_rules:
            raise SimError("at least one core rule required")
        if self.p > 0 and not self.perturbations:
            raise SimError("perturbation catalog empty but p > 0")
        if self.core_weights is not None and len(self.core_weights) != len(self.core_rules):
            raise SimError("one weight per core rule required")

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "e": self.e,
            "p": self.p,
            "seed": self.seed,
            "coreRules": [r.to_json() for r in self.core_rules],
            "perturbations": [r.to_json() for r in self.perturbations],
            "metamodel": self.metamodel.to_json(),
            "initialCounts": dict(self.initial_counts),
            "coreWeights": list(self.core_weights) if self.core_weights else None,
        }


@dataclass(frozen=True)
class LoggedApplication:
    """One core application plus its optional perturbation, replayable."""

    record: ApplicationRecord
    perturbed: bool = False
    perturbation: ApplicationRecord | None = None
    skipped_perturbation: bool = False

    def to_json(self) -> dict:
        def rec(r: ApplicationRecord | None):
            if r is None:
                return None
            return {
                "rule": r.rule,
                "seed": r.seed,
                "binding": {str(k): v for k, v in r.binding},
                "created": {str(k): v for k, v in r.created},
                "deleted": list(r.deleted),
            }

        return {
            "application": rec(self.record),
            "perturbed": self.perturbed,
            "perturbation": rec(self.perturbation),
            "skippedPerturbation": self.skipped_perturbation,
        }


@dataclass
class RepoBundle:
    """A simulated history: versions, logs, ground truth and the config."""

    config: SimConfig
    versions: list[ModelVersion]
    logs: list[list[LoggedApplication]]
    truth: dict[str, LabeledGraph]
    skipped_applications: int = 0


def _weighted_choice(rng: Random, rules: Sequence[EditRule], weights) -> EditRule:
    if weights is None:
        return rules[rng.randrange(len(rules))]
    return rng.choices(rules, weights=weights, k=1)[0]


def _overlapping_binding(
    rule: EditRule, model: WorkingModel, touched: frozenset[str], rng: Random
) -> dict[int, str] | None:
    """Uniform choice among valid bindings sharing >= 1 element with ``touched``.

    Enumerated by anchoring each binding slot at each touched element of
    matching type, so only completions of overlapping sites are visited. A
    binding is listed from the first slot it binds to a touched element
    only; the later anchors that yield it skip it.
    """
    overlapping: list[dict[int, str]] = []
    slots = _binding_nodes(rule)
    for k, (rid, typ) in enumerate(slots):
        for uid in sorted(touched):
            if model.type_map.get(uid) != typ:
                continue
            for binding in find_bindings(rule, model, fixed={rid: uid}):
                if all(binding[earlier] not in touched for earlier, _ in slots[:k]):
                    overlapping.append(binding)
    if not overlapping:
        return None
    return overlapping[rng.randrange(len(overlapping))]


def simulate(config: SimConfig) -> RepoBundle:
    """Generate a model history m0..md per the simulation protocol.

    Every application changes one ``WorkingModel`` in place, checked for
    conformance where it touches the model; each revision's version is a
    snapshot of it, trusted without a second check of the whole model (see
    ``WorkingModel.snapshot``). Site exhaustion never fails the run:
    the application is recorded as skipped with a warning. A rule that would
    break conformance raises ConformanceError. Replaying the logs from m0
    reproduces every version exactly.
    """
    rng = Random(config.seed)
    initial = build_initial(config.metamodel, config.initial_counts, config.seed)
    versions = [initial]
    logs: list[list[LoggedApplication]] = []
    skipped = 0
    app_counter = itertools.count()

    model = WorkingModel(initial, config.metamodel)
    for _rev in range(config.d):
        rev_log: list[LoggedApplication] = []
        for _app in range(config.e):
            rule = _weighted_choice(rng, config.core_rules, config.core_weights)
            app_seed = config.seed * 1_000_003 + next(app_counter)
            perturb = rng.random() < config.p
            try:
                record = apply_in_place(rule, model, site="random", seed=app_seed)
            except NoMatchError:
                skipped += 1
                log.warning("skipping %s: no valid site", rule.name)
                continue
            entry = LoggedApplication(record)
            if perturb:
                pert_seed = config.seed * 1_000_003 + next(app_counter)
                order = list(config.perturbations)
                rng.shuffle(order)
                chosen = None
                for pert_rule in order:
                    binding = _overlapping_binding(
                        pert_rule, model, record.touched, Random(pert_seed)
                    )
                    if binding is not None:
                        chosen = (pert_rule, binding)
                        break
                if chosen is None:
                    entry = LoggedApplication(record, perturbed=False, skipped_perturbation=True)
                    log.warning("no overlapping perturbation site after %s", rule.name)
                else:
                    pert_rule, binding = chosen
                    pert_record = apply_in_place(pert_rule, model, site=binding, seed=pert_seed)
                    entry = LoggedApplication(record, perturbed=True, perturbation=pert_record)
            rev_log.append(entry)
        versions.append(model.snapshot())
        logs.append(rev_log)

    truth = {r.name: rule_to_pattern_graph(r) for r in config.core_rules}
    return RepoBundle(config, versions, logs, truth, skipped_applications=skipped)


def replay(bundle: RepoBundle) -> list[ModelVersion]:
    """Re-apply the logged applications from m0; must reproduce all versions.

    Like ``simulate``, applies every logged rule to one ``WorkingModel`` and
    snapshots it at the end of each revision.
    """
    model = WorkingModel(bundle.versions[0], bundle.config.metamodel)
    out = [bundle.versions[0]]
    for rev_log in bundle.logs:
        for entry in rev_log:
            records = [entry.record]
            if entry.perturbed and entry.perturbation is not None:
                records.append(entry.perturbation)
            for record in records:
                apply_in_place(
                    _rule_by_name(bundle.config, record.rule),
                    model,
                    site=dict(record.binding),
                    seed=record.seed,
                )
        out.append(model.snapshot())
    return out


def _rule_by_name(config: SimConfig, name: str) -> EditRule:
    for rule in config.core_rules + config.perturbations:
        if rule.name == name:
            return rule
    raise SimError(f"log references unknown rule {name!r}")


def save_bundle(bundle: RepoBundle, out_dir) -> None:
    """Bundle layout: m0.json..m<d>.json, log.json, config.json, truth/."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_models((version, out / f"m{i}.json") for i, version in enumerate(bundle.versions))
    save_json(
        {
            "skippedApplications": bundle.skipped_applications,
            "revisions": [[entry.to_json() for entry in rev_log] for rev_log in bundle.logs],
        },
        out / "log.json",
    )
    save_json(bundle.config.to_json(), out / "config.json")
    truth_dir = out / "truth"
    truth_dir.mkdir(exist_ok=True)
    for name in sorted(bundle.truth):
        save_transactions([bundle.truth[name]], truth_dir / f"{name}.txt")
