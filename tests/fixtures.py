"""Shared test fixtures: the two-component interface-addition scenario.

``fig_pair()`` returns (old, new) model versions where the new version wires
two existing Components together: two Ports, a Connector with two end edges
and two part edges, and a Requirement satisfying the Connector. The change
amounts to 4 created nodes and 7 created edges with the two Components as
boundary, which several pipeline tests assert against.

``NESTING_METAMODEL`` adds Package-in-Package containment, so containment
cycles can be built; ``working_view`` is what the working-model tests compare.
"""

from opminer.modeldiff import EdgeType, MetaModel, ModelVersion

FIXTURE_METAMODEL = MetaModel(
    frozenset(["Package", "Component", "SwImplementation", "Port", "Connector", "Requirement"]),
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


def fig_pair() -> tuple[ModelVersion, ModelVersion]:
    old = ModelVersion.of([("c1", "Component"), ("c2", "Component")])
    new = ModelVersion.of(
        [
            ("c1", "Component"),
            ("c2", "Component"),
            ("p1", "Port"),
            ("p2", "Port"),
            ("k1", "Connector"),
            ("r1", "Requirement"),
        ],
        [
            ("c1", "p1", "port"),
            ("c2", "p2", "port"),
            ("k1", "p1", "end"),
            ("k1", "p2", "end"),
            ("k1", "c1", "part"),
            ("k1", "c2", "part"),
            ("r1", "k1", "satisfies"),
        ],
    )
    return old, new


NESTING_METAMODEL = MetaModel(
    FIXTURE_METAMODEL.node_types,
    FIXTURE_METAMODEL.edge_types + (EdgeType("subpackage", "Package", "Package", containment=True),),
)

#: small per-type counts for ``simgen.build_initial``
SMALL_COUNTS = {
    "Package": 4, "Component": 5, "SwImplementation": 3,
    "Port": 6, "Connector": 3, "Requirement": 4,
}


def working_view(model) -> dict:
    """A working model's contents and indexes, empty index entries dropped, so
    one changed by deltas compares equal to one built from its snapshot."""
    return {
        name: {k: v for k, v in value.items() if v} if isinstance(value, dict) else value
        for name, value in vars(model).items()
    }
