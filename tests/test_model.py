from __future__ import annotations

import random

import pytest

from prodplan import build_routing_graph, validate_model
from prodplan.errors import ProdplanError, ShuttleOffStation
from prodplan.model import (
    PU_CONNECTION,
    REACH_CONNECTION,
    SHUTTLE_CONNECTION,
    TRACK_CONNECTION,
    Duration,
    Equipment,
    EquipmentClass,
    EquipmentClassProperty,
    EquipmentProperty,
    MaterialLot,
    ProcessSegment,
    ProductionModel,
    ResourceNetwork,
    ResourceNetworkConnection,
)


def _classes():
    return (
        EquipmentClass(id="PositioningUnit", properties=(EquipmentClassProperty(id="PositioningUnitOccupied", tags=("pddl:implicit",)),)),
        EquipmentClass(id="Shuttle"),
        EquipmentClass(id="TrackElement"),
    )


def _topology_model(track_edges, pus_on, shuttles_at):
    """Build a model from an abstract topology description.

    track_edges: iterable of (from_element, to_element) indices.
    pus_on: element index -> number of PUs on it, ordered along the element.
    shuttles_at: list of (element, slot) placements for shuttles.

    Element i gets its entry point at (10*i, 0, 0); the k-th PU on it sits
    k+1 units further along x, so entry distances are unambiguous.
    """
    equipment = []
    connections = []
    pu_names = {}
    for elem in sorted(pus_on):
        equipment.append(Equipment(id=f"T{elem}", class_ids=("TrackElement",)))
    for a, b in track_edges:
        connections.append(
            ResourceNetworkConnection(TRACK_CONNECTION, f"T{a}", f"T{b}", (10.0 * b, 0.0, 0.0))
        )
    serial = 0
    for elem in sorted(pus_on):
        for slot in range(pus_on[elem]):
            serial += 1
            name = f"P{serial}"
            pu_names[(elem, slot)] = name
            equipment.append(
                Equipment(
                    id=name,
                    class_ids=("PositioningUnit",),
                    properties=(EquipmentProperty(f"ep-{name}", "PositioningUnitOccupied", False),),
                )
            )
            connections.append(
                ResourceNetworkConnection(
                    PU_CONNECTION, name, f"T{elem}", (10.0 * elem + slot + 1, 0.0, 0.0)
                )
            )
    for i, (elem, slot) in enumerate(shuttles_at, start=1):
        equipment.append(Equipment(id=f"S{i}", class_ids=("Shuttle",)))
        connections.append(
            ResourceNetworkConnection(
                SHUTTLE_CONNECTION, f"S{i}", f"T{elem}", (10.0 * elem + slot + 1, 0.0, 0.0)
            )
        )
    model = ProductionModel(
        equipment_classes=_classes(),
        equipment=tuple(equipment),
        resource_networks=(ResourceNetwork(id="net", connections=tuple(connections)),),
    )
    return model, pu_names


def _expected_edges(track_edges, pus_on, pu_names):
    """The documented collapse rule, reimplemented independently: within an
    element consecutive PUs connect; from the last PU, search PU-free
    elements breadth-first for the first PU of each PU-bearing element."""
    succ = {}
    for a, b in track_edges:
        succ.setdefault(a, []).append(b)
    edges = set()
    for elem, count in pus_on.items():
        if count == 0:
            continue
        for slot in range(count - 1):
            edges.add((pu_names[(elem, slot)], pu_names[(elem, slot + 1)]))
        last = pu_names[(elem, count - 1)]
        seen = {elem}
        frontier = list(succ.get(elem, []))
        while frontier:
            nxt = frontier.pop(0)
            if pus_on.get(nxt, 0) > 0:
                first = pu_names[(nxt, 0)]
                if first != last:
                    edges.add((last, first))
                continue
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(succ.get(nxt, []))
    return edges


def test_demo_routing_graph(demo_model):
    graph = build_routing_graph(demo_model)
    assert set(graph.nodes) == {f"PositioningUnit-0{i}" for i in range(1, 6)}
    assert set(graph.edges) == {
        ("PositioningUnit-01", "PositioningUnit-03"),
        ("PositioningUnit-03", "PositioningUnit-05"),
        ("PositioningUnit-05", "PositioningUnit-02"),
        ("PositioningUnit-03", "PositioningUnit-02"),
        ("PositioningUnit-02", "PositioningUnit-04"),
        ("PositioningUnit-04", "PositioningUnit-01"),
    }
    assert graph.shuttle_at == {
        "Shuttle-01": "PositioningUnit-03",
        "Shuttle-02": "PositioningUnit-01",
        "Shuttle-03": "PositioningUnit-04",
        "Shuttle-04": "PositioningUnit-02",
    }


def test_collapse_skips_pu_free_elements():
    track_edges = [(0, 1), (1, 2)]
    pus_on = {0: 1, 1: 0, 2: 1}
    model, names = _topology_model(track_edges, pus_on, [])
    graph = build_routing_graph(model)
    assert set(graph.edges) == {(names[(0, 0)], names[(2, 0)])}


def test_collapse_orders_pus_along_element():
    pus_on = {0: 3, 1: 1}
    model, names = _topology_model([(1, 0)], pus_on, [])
    graph = build_routing_graph(model)
    assert set(graph.edges) == {
        (names[(0, 0)], names[(0, 1)]),
        (names[(0, 1)], names[(0, 2)]),
        (names[(1, 0)], names[(0, 0)]),
    }


def test_collapse_matches_reference_on_random_topologies():
    rng = random.Random(20240211)
    for _ in range(60):
        n_elem = rng.randint(2, 7)
        ring = rng.random() < 0.5
        track_edges = [(i, (i + 1) % n_elem) for i in range(n_elem if ring else n_elem - 1)]
        extra = rng.randint(0, 2)
        for _ in range(extra):
            a, b = rng.randrange(n_elem), rng.randrange(n_elem)
            if a != b and (a, b) not in track_edges:
                track_edges.append((a, b))
        pus_on = {i: rng.randint(0, 2) for i in range(n_elem)}
        if not ring:
            # the chain head has no incoming edge, so no entry point exists
            # to order several PUs on it
            pus_on[0] = min(pus_on[0], 1)
        if sum(pus_on.values()) == 0:
            pus_on[0] = 1
        model, names = _topology_model(track_edges, pus_on, [])
        graph = build_routing_graph(model)
        assert set(graph.edges) == _expected_edges(track_edges, pus_on, names)
        assert set(graph.nodes) == set(names.values())


def test_shuttle_matched_to_pu_by_coordinates():
    pus_on = {0: 2}
    model, names = _topology_model([(1, 0)], {0: 2, 1: 0}, [(0, 1)])
    graph = build_routing_graph(model)
    assert graph.shuttle_at == {"S1": names[(0, 1)]}


def test_shuttle_off_station_raises():
    model, _ = _topology_model([(0, 1)], {0: 1, 1: 1}, [(1, 5)])
    with pytest.raises(ShuttleOffStation):
        build_routing_graph(model)


def test_two_shuttles_on_one_pu_raise():
    model, _ = _topology_model([(0, 1)], {0: 1, 1: 1}, [(0, 0), (0, 0)])
    with pytest.raises(ProdplanError):
        build_routing_graph(model)


def test_equidistant_pus_raise():
    # two PUs at the same distance from the element entry cannot be ordered
    model, _ = _topology_model([(1, 0)], {0: 2, 1: 0}, [])
    connections = list(model.resource_networks[0].connections)
    fixed = []
    for conn in connections:
        if conn.connection_type == PU_CONNECTION and conn.from_id == "P2":
            conn = ResourceNetworkConnection(
                PU_CONNECTION, conn.from_id, conn.to_id, (1.0, 0.0, 0.0)
            )
        fixed.append(conn)
    clashed = ProductionModel(
        equipment_classes=model.equipment_classes,
        equipment=model.equipment,
        resource_networks=(ResourceNetwork(id="net", connections=tuple(fixed)),),
    )
    with pytest.raises(ProdplanError):
        build_routing_graph(clashed)


def _valid_base():
    return dict(
        equipment_classes=_classes(),
        equipment=(
            Equipment(id="P1", class_ids=("PositioningUnit",)),
            Equipment(id="S1", class_ids=("Shuttle",)),
        ),
    )


def test_validate_accepts_demo(demo_model):
    assert validate_model(demo_model) == []


def test_validate_reports_duplicate_ids():
    base = _valid_base()
    model = ProductionModel(
        equipment_classes=base["equipment_classes"],
        equipment=base["equipment"] + (Equipment(id="p1", class_ids=("Shuttle",)),),
    )
    rules = [d.rule for d in validate_model(model)]
    assert "duplicate-id" in rules


def test_validate_reports_dangling_class():
    model = ProductionModel(
        equipment_classes=_classes(),
        equipment=(Equipment(id="X", class_ids=("NoSuchClass",)),),
    )
    rules = [d.rule for d in validate_model(model)]
    assert "dangling-reference" in rules


def test_validate_reports_non_boolean_property():
    classes = (
        EquipmentClass(
            id="C", properties=(EquipmentClassProperty(id="Speed", value_kind="integer"),)
        ),
    )
    model = ProductionModel(
        equipment_classes=classes, equipment=(Equipment(id="E", class_ids=("C",)),)
    )
    rules = [d.rule for d in validate_model(model)]
    assert "non-boolean-property" in rules


def test_validate_reports_bad_mount_and_duration():
    base = _valid_base()
    model = ProductionModel(
        equipment_classes=base["equipment_classes"],
        equipment=base["equipment"],
        material_lots=(MaterialLot(id="B1", mounted_on_equipment_id="P1"),),
        process_segments=(
            ProcessSegment(id="Seg", duration=Duration(-1.0, "fortnights")),
        ),
    )
    rules = {d.rule for d in validate_model(model)}
    assert "bad-mount" in rules
    assert "bad-duration" in rules


def test_validate_reports_bad_connection_endpoints():
    base = _valid_base()
    model = ProductionModel(
        equipment_classes=base["equipment_classes"],
        equipment=base["equipment"],
        resource_networks=(
            ResourceNetwork(
                id="net",
                connections=(
                    ResourceNetworkConnection(TRACK_CONNECTION, "P1", "S1"),
                    ResourceNetworkConnection("Wormhole-Connection", "P1", "S1"),
                    ResourceNetworkConnection(PU_CONNECTION, "P1", "ghost"),
                ),
            ),
        ),
    )
    rules = [d.rule for d in validate_model(model)]
    assert rules.count("bad-endpoint") >= 2
    assert "unknown-connection-type" in rules
    assert "dangling-reference" in rules


_AT = (1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "connection,expected",
    [
        (
            ResourceNetworkConnection(PU_CONNECTION, "S1", "T1", _AT),
            "[bad-endpoint] S1->T1: S1 is not a PU",
        ),
        (
            ResourceNetworkConnection(PU_CONNECTION, "P1", "S1", _AT),
            "[bad-endpoint] P1->S1: S1 is not a track element",
        ),
        (
            ResourceNetworkConnection(PU_CONNECTION, "P1", "T1"),
            "[missing-coordinates] P1->T1: PU connection needs (x, y, z)",
        ),
        (
            ResourceNetworkConnection(SHUTTLE_CONNECTION, "P1", "T1", _AT),
            "[bad-endpoint] P1->T1: P1 is not a shuttle",
        ),
        (
            ResourceNetworkConnection(SHUTTLE_CONNECTION, "S1", "P1", _AT),
            "[bad-endpoint] S1->P1: P1 is not a track element",
        ),
        (
            ResourceNetworkConnection(SHUTTLE_CONNECTION, "S1", "T1"),
            "[missing-coordinates] S1->T1: shuttle connection needs (x, y, z)",
        ),
        (
            ResourceNetworkConnection(REACH_CONNECTION, "S1", "T1"),
            "[bad-endpoint] S1->T1: T1 is not a PU",
        ),
    ],
)
def test_validate_names_each_connection_rule(connection, expected):
    base = _valid_base()
    model = ProductionModel(
        equipment_classes=base["equipment_classes"],
        equipment=base["equipment"] + (Equipment(id="T1", class_ids=("TrackElement",)),),
        resource_networks=(ResourceNetwork(id="net", connections=(connection,)),),
    )
    assert [str(d) for d in validate_model(model)] == [expected]


def test_empty_model_flagged():
    diags = validate_model(ProductionModel())
    assert any(d.rule == "no-equipment" for d in diags)
