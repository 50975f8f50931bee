from __future__ import annotations

import hashlib
import json

import pytest

from prodplan import (
    GoalSpec,
    build_demo_model,
    build_routing_graph,
    demo_goal_2341,
    derive_domain,
    derive_problem,
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
    ground,
    load_goal_model,
    load_production_model,
    save_goal_model,
    save_production_model,
    solve,
    validate_model,
)
from prodplan.errors import InvalidParameter, ParseError, ValidationError
from prodplan.model_io import (
    IntegratedModel,
    Operation,
    OperationsRecord,
    check_goal,
    dumps_canonical,
    goal_from_dict,
    goal_to_dict,
    integrated_from_dict,
    integrated_to_dict,
    model_from_dict,
    model_to_dict,
    permutation_label,
    record_from_dict,
    record_to_dict,
    shuttle_count_for,
)
from prodplan.operations import merge, plan_to_operations, unsolvable_record


def test_model_round_trip(demo_model, tmp_path):
    path = tmp_path / "model.json"
    save_production_model(demo_model, path)
    loaded = load_production_model(path)
    assert loaded == demo_model
    # stable re-serialization
    save_production_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_goal_round_trip(tmp_path, demo_model):
    goal = GoalSpec(
        id="g1",
        shuttle_locations=(("Shuttle-01", "PositioningUnit-02"),),
        properties_true=(("PositioningUnit-01", "PositioningUnitOccupied"),),
    )
    path = tmp_path / "goal.json"
    save_goal_model(goal, path)
    assert load_goal_model(path, demo_model) == goal


def test_goal_check_names_a_pu_that_several_shuttles_target(tmp_path):
    model = generate_ring_layout(9, 0.65)
    (first, pu), (second, _), *rest = generate_reverse_goal(model).shuttle_locations
    goal = GoalSpec(id="crowded", shuttle_locations=((first, pu), (second, pu), *rest))
    assert check_goal(goal, model) == [f"2 shuttles target {pu!r}: {first!r}, {second!r}"]
    path = tmp_path / "goal.json"
    save_goal_model(goal, path)
    with pytest.raises(ValidationError):
        load_goal_model(path, model)


def test_generated_goals_pass_the_goal_check(demo_model):
    drilling = generate_ring_layout(7, 0.65, with_robot_and_boards=True)
    ring = generate_ring_layout(9, 0.65)
    cases = [(demo_model, g) for g in generate_permutation_goals(demo_model)]
    cases += [(ring, generate_reverse_goal(ring)), (drilling, generate_reverse_goal(drilling))]
    cases += [(drilling, generate_drill_goal(drilling))]
    small = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    cases += [(small, g) for g in generate_permutation_goals(small)]
    for model, goal in cases:
        assert check_goal(goal, model) == []


def test_goal_check_rejects_unknown_ids(tmp_path, demo_model):
    goal = GoalSpec(id="bad", shuttle_locations=(("Shuttle-99", "PositioningUnit-01"),))
    path = tmp_path / "goal.json"
    save_goal_model(goal, path)
    with pytest.raises(ValidationError):
        load_goal_model(path, demo_model)


def test_model_from_dict_type_errors():
    with pytest.raises(ParseError):
        model_from_dict([])
    with pytest.raises(ParseError):
        model_from_dict({"equipment": [{"id": 7}]})
    with pytest.raises(ParseError):
        model_from_dict({"equipment": [{"id": "E", "classIds": [3]}]})


@pytest.mark.parametrize("entry", [[1, 2], ["Board-01", None]])
def test_goal_pairs_must_be_string_ids(entry):
    data = {"id": "g", "materialPropertiesTrue": [entry]}
    with pytest.raises(
        ParseError, match=r"^g: materialPropertiesTrue entries must be \[id, id\] pairs$"
    ):
        goal_from_dict(data)


def test_tags_parsed_from_description():
    data = {
        "equipmentClasses": [
            {
                "id": "C",
                "properties": [
                    {"id": "P", "description": "pddl:implicit, pddl:pre"}
                ],
            }
        ],
        "equipment": [{"id": "E", "classIds": ["C"]}],
    }
    model = model_from_dict(data)
    assert model.equipment_classes[0].properties[0].tags == ("pddl:implicit", "pddl:pre")
    # description round-trips through the tag list
    assert model_to_dict(model)["equipmentClasses"][0]["properties"][0][
        "description"
    ] == "pddl:implicit, pddl:pre"


@pytest.mark.parametrize("gid", ["", ".", "..", "../../escaped", "a/b", "a\\b", "/abs"])
def test_goal_id_that_cannot_name_a_file_is_refused(gid):
    with pytest.raises(ParseError, match="cannot name a file"):
        goal_from_dict({"id": gid})


def test_generated_goal_ids_load(demo_model):
    drilling = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    ten_shuttles = permutation_label(tuple(range(8)) + (9, 8))
    assert ten_shuttles == "1-2-3-4-5-6-7-8-10-9"
    goals = [
        *generate_permutation_goals(demo_model),
        generate_reverse_goal(drilling),
        generate_drill_goal(drilling),
        GoalSpec(id=f"goal-{ten_shuttles}"),
        GoalSpec(id="ring9-reverse"),
    ]
    for goal in goals:
        assert goal_from_dict(goal_to_dict(goal)) == goal


def test_goal_dict_round_trip():
    goal = GoalSpec(
        id="g",
        shuttle_locations=(("S1", "P1"), ("S2", "P2")),
        properties_true=(("P1", "Occ"),),
        properties_false=(("P2", "Occ"),),
        material_properties_true=(("B1", "HasHole"),),
    )
    assert goal_from_dict(goal_to_dict(goal)) == goal


@pytest.mark.parametrize(
    "n_pus,load,expected",
    [(15, 0.65, 10), (5, 0.65, 3), (13, 0.65, 8), (11, 0.65, 7), (7, 0.65, 5), (9, 0.65, 6), (10, 0.65, 7)],
)
def test_shuttle_count_half_up(n_pus, load, expected):
    assert shuttle_count_for(n_pus, load) == expected


def test_ring_layout_counts():
    model = generate_ring_layout(15, 0.65)
    assert len(model.equipment_of_class("PositioningUnit")) == 15
    assert len(model.equipment_of_class("Shuttle")) == 10
    assert validate_model(model) == []


def test_ring_layout_routing_shape():
    # a directed main loop of n-1 PUs plus one siding bridging two of them
    model = generate_ring_layout(7, 0.65)
    graph = build_routing_graph(model)
    assert len(graph.nodes) == 7
    out = {n: 0 for n in graph.nodes}
    inc = {n: 0 for n in graph.nodes}
    for a, b in graph.edges:
        out[a] += 1
        inc[b] += 1
    siding = [n for n in graph.nodes if out[n] == 1 and inc[n] == 1]
    forks = [n for n in graph.nodes if out[n] == 2]
    joins = [n for n in graph.nodes if inc[n] == 2]
    assert len(graph.edges) == 8  # 6 loop edges + 2 siding edges
    assert len(siding) >= 1 and len(forks) == 1 and len(joins) == 1


def test_ring_layout_parameter_errors():
    with pytest.raises(InvalidParameter):
        generate_ring_layout(2, 0.65)
    with pytest.raises(InvalidParameter):
        generate_ring_layout(9, 0.0)
    with pytest.raises(InvalidParameter):
        generate_ring_layout(9, 1.0)
    with pytest.raises(InvalidParameter):
        generate_ring_layout(3, 0.99)  # 3 shuttles do not fit on 2 loop PUs


def test_drilling_layout_adds_robot_and_boards(tmp_path):
    model = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    assert len(model.equipment_of_class("DrillingRobot")) == 1
    shuttles = model.equipment_of_class("Shuttle")
    assert len(model.material_lots) == len(shuttles)
    mounted = {m.mounted_on_equipment_id for m in model.material_lots}
    assert mounted == {s.id for s in shuttles}
    assert validate_model(model) == []
    # generated models survive the file round trip
    save_production_model(model, tmp_path / "m.json")
    assert load_production_model(tmp_path / "m.json") == model


def test_permutation_goals_cover_non_identity(demo_model):
    goals = generate_permutation_goals(demo_model)
    assert len(goals) == 23
    assert len({g.id for g in goals}) == 23
    placements = {tuple(sorted(g.shuttle_locations)) for g in goals}
    assert len(placements) == 23
    graph = build_routing_graph(demo_model)
    identity = tuple(sorted(graph.shuttle_at.items()))
    assert identity not in placements


def test_reverse_goal_reverses_slots():
    model = generate_ring_layout(5, 0.65)
    goal = generate_reverse_goal(model)
    graph = build_routing_graph(model)
    start = dict(graph.shuttle_at)
    target = dict(goal.shuttle_locations)
    shuttles = sorted(start)
    slots = [start[s] for s in shuttles]
    assert [target[s] for s in shuttles] == list(reversed(slots))
    # middle shuttle of 3 stays put
    assert target[shuttles[1]] == start[shuttles[1]]


def test_drill_goal_targets_every_board():
    model = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    goal = generate_drill_goal(model)
    assert not goal.shuttle_locations
    lots = {m.id for m in model.material_lots}
    assert {m for m, _ in goal.material_properties_true} == lots


def test_load_rejects_invalid_model(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"equipment": [{"id": "E", "classIds": ["Nope"]}]}))
    with pytest.raises(ValidationError) as err:
        load_production_model(path)
    assert any("dangling" in str(d) for d in err.value.diagnostics)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_production_model(path)


def _json_indent_2(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def test_canonical_text_is_json_dumps_indent_2(demo_model):
    models = [demo_model] + [
        generate_ring_layout(n, 0.65, with_robot_and_boards=boards)
        for n in (5, 9)
        for boards in (False, True)
    ]
    for model in models:
        data = model_to_dict(model)
        assert dumps_canonical(data) == _json_indent_2(data)
    goals = [demo_goal_2341(), *generate_permutation_goals(demo_model)]
    for goal in goals:
        data = goal_to_dict(goal)
        assert dumps_canonical(data) == _json_indent_2(data)

    domain, report = derive_domain(demo_model)
    records = []
    for goal in generate_permutation_goals(demo_model):
        result = solve(ground(domain, derive_problem(demo_model, goal, report)))
        records.append(plan_to_operations(result.plan, report, goal.id))
    data = integrated_to_dict(merge(demo_model, records))
    assert len(data["operationsDefinitions"]) == 23
    assert dumps_canonical(data) == _json_indent_2(data)


def test_canonical_text_of_awkward_values_is_json_dumps_indent_2():
    data = {
        "caf\u00e9 \u2603 \U0001f600": "\u00fcber \"quoted\" back\\slash \x00\x1f\t\n\r\x7f",
        "\"": ["\\", "\b\f", "/"],
        "floats": [-0.0, 0.0, 1e-7, 1e16, 0.1, 1.5, -2.25e300, float("nan"), float("inf"), -float("inf")],
        "ints": [0, -1, 2**70, True, False, None],
        "tuple": (1, ("a", ()), [{}]),
        "empty": {"list": [], "dict": {}, "nested": [[], [{}], {"x": []}]},
        1: "int key",
        2.5: "float key",
        True: "bool key",
        None: "null key",
    }
    assert dumps_canonical(data) == _json_indent_2(data)
    assert dumps_canonical({}) == _json_indent_2({})


@pytest.mark.parametrize("data", [{"s": {1, 2}}, {"s": [b"bytes"]}, {("a", "b"): 1}])
def test_canonical_text_rejects_what_json_rejects(data):
    with pytest.raises(TypeError) as ours:
        dumps_canonical(data)
    with pytest.raises(TypeError) as theirs:
        json.dumps(data, indent=2)
    assert str(ours.value) == str(theirs.value)


# SHA-256 of the canonical JSON of each generated plant, as first written:
# the builders may change, the plants they write may not.
@pytest.mark.parametrize(
    "build,digest",
    [
        (lambda: build_demo_model(), "f8e80eaa7fed34365f68e36e4bfde59a1d29373c40183c5e0f0e6df3db253a68"),
        (lambda: build_demo_model(with_switchable_property=True), "fa2b7021350658c6c88213ea685466404bf6fcfbf97edb826f0a385b177c36b2"),
        (lambda: generate_ring_layout(3, 0.65), "a0e0e2954a679a21dabecd9438c4612dbbdd2710edcd162a0e6bf5814cebad40"),
        (lambda: generate_ring_layout(3, 0.65, True), "555215d038f9eb63c6d5159ca64cf14ea4d0bf510988b253279645a236c48b8f"),
        (lambda: generate_ring_layout(5, 0.65), "a765d6cb757759120c78d46b6b292076c04f482a9c3a7ee03542b28772aadc7b"),
        (lambda: generate_ring_layout(5, 0.65, True), "abbee2ee477650ee2200157df0d995f72bea2c572c7e78bc1700144f2536a20d"),
        (lambda: generate_ring_layout(9, 0.65), "d7b7b3acf5584a240c579c72fbba8ba74e3fd130002eaf52196e88edff80993e"),
        (lambda: generate_ring_layout(9, 0.65, True), "395cea484f544dd30b4a2eb780719e9fffe8b97c36dc58444810198f69eb7574"),
        (lambda: generate_ring_layout(15, 0.65), "f4ded1c1e37e673cecec131c2b633ea2cdcc5bc59287760d2dfc9d6d46a22a4d"),
        (lambda: generate_ring_layout(15, 0.65, True), "8f6251a5134cabb86beece29fd3c7f9f62e5f885552e835e84e85bb0c6cbe631"),
        (lambda: generate_ring_layout(9, 0.3), "f486d379f08d06dd0a0734f7a5bb23f4b525797e2f43e65a040622f0843c65b9"),
        (lambda: generate_ring_layout(9, 0.9), "42e9af9dd872f373a4c5c6e4e32b5d25d6d8c0ca194f9dede61a890e02cc3332"),
    ],
    ids=[
        "demo",
        "demo-beacon",
        "ring3",
        "ring3-drilling",
        "ring5",
        "ring5-drilling",
        "ring9",
        "ring9-drilling",
        "ring15",
        "ring15-drilling",
        "ring9-load0.3",
        "ring9-load0.9",
    ],
)
def test_generated_plants_are_pinned(build, digest):
    text = dumps_canonical(model_to_dict(build()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_demo_goal_is_the_generated_rotation(demo_model):
    goals = {g.id: g for g in generate_permutation_goals(demo_model)}
    assert demo_goal_2341() == goals["goal-2341"] == GoalSpec(
        id="goal-2341",
        shuttle_locations=(
            ("Shuttle-02", "PositioningUnit-03"),
            ("Shuttle-03", "PositioningUnit-01"),
            ("Shuttle-04", "PositioningUnit-04"),
            ("Shuttle-01", "PositioningUnit-02"),
        ),
    )


def _solved_record(model, goal):
    domain, report = derive_domain(model)
    result = solve(ground(domain, derive_problem(model, goal, report)))
    return plan_to_operations(result.plan, report, goal.id)


def _documents():
    """(name, to_dict, from_dict, value) for every kind of document."""
    demo = build_demo_model()
    drilling = generate_ring_layout(7, 0.65, with_robot_and_boards=True)
    solved = _solved_record(demo, demo_goal_2341())
    unsolvable = unsolvable_record("goal-none")
    model = (model_to_dict, model_from_dict)
    goal = (goal_to_dict, goal_from_dict)
    record = (record_to_dict, record_from_dict)
    integrated = (integrated_to_dict, integrated_from_dict)
    goals = [
        *generate_permutation_goals(demo),
        generate_reverse_goal(generate_ring_layout(9, 0.65)),
        generate_drill_goal(drilling),
    ]
    return [
        ("demo", *model, demo),
        ("demo-beacon", *model, build_demo_model(with_switchable_property=True)),
        ("drilling-ring7", *model, drilling),
        *((g.id, *goal, g) for g in goals),
        ("record-solved", *record, solved),
        ("record-unsolvable", *record, unsolvable),
        ("integrated", *integrated, merge(demo, [solved, unsolvable])),
    ]


_DOCUMENTS = _documents()


@pytest.mark.parametrize(
    "to_dict,from_dict,value", [d[1:] for d in _DOCUMENTS], ids=[d[0] for d in _DOCUMENTS]
)
def test_every_document_kind_round_trips(to_dict, from_dict, value):
    data = to_dict(value)
    assert from_dict(data) == value
    assert from_dict(json.loads(dumps_canonical(data))) == value


# The reader's messages, one malformed document per row: the document kind,
# the path of the edited value in a valid document (an empty path replaces
# the whole document), the new value (or _DELETE) and the exact message of
# the ParseError it raises.
_DELETE = object()
_MALFORMED = [
    ('model', (), [], 'model document must be a JSON object'),
    ('goal', (), 'goal', 'goal document must be a JSON object'),
    ('integrated', (), 7, 'integrated document must be a JSON object'),
    ('record', (), ['g'], 'operationsRecord: expected a JSON object'),
    ('model', ('equipment',), {}, "model: key 'equipment' must be list"),
    ('model', ('resourceNetworks',), 'x', "model: key 'resourceNetworks' must be list"),
    ('model', ('equipmentClasses', 0, 'id'), _DELETE, "equipmentClasses: missing key 'id'"),
    ('model', ('equipment', 0, 'id'), 7, "equipment: key 'id' must be str"),
    ('model', ('materialLots', 0), 7, 'materialLots: expected a JSON object'),
    ('model', ('processSegments', 0, 'id'), _DELETE, "processSegments: missing key 'id'"),
    ('model', ('resourceNetworks', 0, 'id'), None, "resourceNetworks: key 'id' must be str"),
    ('model', ('equipmentClasses', 0, 'properties'), {}, "PositioningUnit: key 'properties' must be list"),
    ('model', ('equipmentClasses', 0, 'properties', 0), 'p', 'PositioningUnit: expected a JSON object'),
    ('model', ('equipmentClasses', 0, 'properties', 0, 'id'), _DELETE, "PositioningUnit: missing key 'id'"),
    ('model', ('equipmentClasses', 0, 'properties', 0, 'valueKind'), 7, "PositioningUnit: key 'valueKind' must be str"),
    ('model', ('equipmentClasses', 0, 'properties', 0, 'description'), ['pddl:implicit'], "PositioningUnit: key 'description' must be str"),
    ('model', ('equipment', 0, 'properties', 0, 'implementsClassPropertyId'), _DELETE, "PositioningUnit-01: missing key 'implementsClassPropertyId'"),
    ('model', ('equipment', 0, 'properties', 0, 'value'), 'true', "PositioningUnit-01: key 'value' must be bool"),
    ('model', ('equipment', 0, 'properties', 0, 'value'), 1, "PositioningUnit-01: key 'value' must be bool"),
    ('model', ('equipment', 0, 'classIds'), 'PositioningUnit', "PositioningUnit-01: key 'classIds' must be list"),
    ('model', ('equipment', 0, 'classIds'), [3], 'PositioningUnit-01: classIds must be strings'),
    ('model', ('equipment', 0, 'classIds'), ['PositioningUnit', None], 'PositioningUnit-01: classIds must be strings'),
    ('model', ('materialLots', 0, 'mountedOnEquipmentId'), None, "Board-01: key 'mountedOnEquipmentId' must be str"),
    ('model', ('materialLots', 0, 'properties', 0, 'value'), _DELETE, "Board-01: missing key 'value'"),
    ('model', ('materialLots', 0, 'properties', 0, 'id'), 7, "Board-01: key 'id' must be str"),
    ('model', ('processSegments', 0, 'duration'), 10, "MoveShuttle: key 'duration' must be dict"),
    ('model', ('processSegments', 0, 'duration', 'value'), '10', "MoveShuttle: key 'value' must be float"),
    ('model', ('processSegments', 0, 'duration', 'value'), True, "MoveShuttle: key 'value' must be float"),
    ('model', ('processSegments', 0, 'duration', 'value'), _DELETE, "MoveShuttle: missing key 'value'"),
    ('model', ('processSegments', 0, 'duration', 'unit'), 1, "MoveShuttle: key 'unit' must be str"),
    ('model', ('processSegments', 0, 'parameters', 0, 'value'), [], "MoveShuttle: key 'value' must be str/bool/int/float"),
    ('model', ('processSegments', 0, 'parameters', 0, 'value'), None, "MoveShuttle: key 'value' must be str/bool/int/float"),
    ('model', ('processSegments', 0, 'parameters', 0, 'id'), _DELETE, "MoveShuttle: missing key 'id'"),
    ('model', ('processSegments', 0, 'equipmentSpecs', 0, 'id'), 7, "MoveShuttle: key 'id' must be str"),
    ('model', ('processSegments', 0, 'equipmentSpecs', 0, 'equipmentClassId'), _DELETE, "SHUTTLE: missing key 'equipmentClassId'"),
    ('model', ('processSegments', 0, 'equipmentSpecs', 1, 'propertyConstraints', 0, 'tag'), 7, "FROM: key 'tag' must be str"),
    ('model', ('processSegments', 0, 'equipmentSpecs', 1, 'propertyConstraints', 0, 'value'), 'false', "FROM: key 'value' must be bool"),
    ('model', ('processSegments', 0, 'equipmentSpecs', 2, 'propertyConstraints', 1, 'classPropertyId'), _DELETE, "TO: missing key 'classPropertyId'"),
    ('model', ('processSegments', 1, 'materialSpecs', 0, 'id'), _DELETE, "DrillBoard: missing key 'id'"),
    ('model', ('processSegments', 1, 'materialSpecs', 0, 'propertyConstraints', 0, 'materialPropertyId'), [], "BOARD: key 'materialPropertyId' must be str"),
    ('model', ('resourceNetworks', 0, 'connections', 0, 'fromId'), _DELETE, "TransportNetwork: missing key 'fromId'"),
    ('model', ('resourceNetworks', 0, 'connections', 0, 'connectionType'), False, "TransportNetwork: key 'connectionType' must be str"),
    ('model', ('resourceNetworks', 0, 'connections', 0, 'coordinates'), [1, 2], 'TransportNetwork: coordinates must be a [x, y, z] list'),
    ('model', ('resourceNetworks', 0, 'connections', 0, 'coordinates'), {'x': 1}, 'TransportNetwork: coordinates must be a [x, y, z] list'),
    ('model', ('resourceNetworks', 0, 'connections', 0, 'coordinates'), [1, 'a', 2], 'TransportNetwork: coordinates must be numbers'),
    ('model', ('resourceNetworks', 0, 'connections', 0, 'coordinates'), [1, None, 2], 'TransportNetwork: coordinates must be numbers'),
    ('goal', ('id',), _DELETE, "goal: missing key 'id'"),
    ('goal', ('id',), 7, "goal: key 'id' must be str"),
    ('goal', ('id',), '..', "goal id '..' cannot name a file"),
    ('goal', ('shuttleLocations',), [['Shuttle-01', 'PositioningUnit-02']], "goal-2341: key 'shuttleLocations' must be dict"),
    ('goal', ('shuttleLocations', 'Shuttle-01'), 2, 'goal-2341: shuttleLocations values must be PU ids'),
    ('goal', ('propertiesTrue',), [['PositioningUnit-01']], 'goal-2341: propertiesTrue entries must be [id, id] pairs'),
    ('goal', ('propertiesFalse',), [[1, 2]], 'goal-2341: propertiesFalse entries must be [id, id] pairs'),
    ('goal', ('materialPropertiesTrue',), [['Board-01', None]], 'goal-2341: materialPropertiesTrue entries must be [id, id] pairs'),
    ('goal', ('propertiesTrue',), 'x', "goal-2341: key 'propertiesTrue' must be list"),
    ('record', ('goalId',), _DELETE, "operationsRecord: missing key 'goalId'"),
    ('record', ('goalId',), 7, "operationsRecord: key 'goalId' must be str"),
    ('record', ('solvable',), 'yes', "goal-2341: key 'solvable' must be bool"),
    ('record', ('operations',), {}, "goal-2341: key 'operations' must be list"),
    ('record', ('operations', 0), 7, 'goal-2341: expected a JSON object'),
    ('record', ('operations', 0, 'sequenceIndex'), 0.5, "goal-2341: key 'sequenceIndex' must be int"),
    ('record', ('operations', 0, 'cost'), True, "goal-2341: key 'cost' must be int"),
    ('record', ('operations', 0, 'segmentId'), _DELETE, "goal-2341: missing key 'segmentId'"),
    ('record', ('operations', 0, 'bindings'), [['SHUTTLE', 'Shuttle-01']], "goal-2341: key 'bindings' must be dict"),
    ('record', ('operations', 0, 'bindings', 'SHUTTLE'), 1, 'goal-2341: binding values must be element ids'),
    ('record', ('totalCost',), _DELETE, "goal-2341: missing key 'totalCost'"),
    ('record', ('totalCost',), 50.0, "goal-2341: key 'totalCost' must be int"),
    ('integrated', ('model',), _DELETE, "integrated: missing key 'model'"),
    ('integrated', ('model',), [], "integrated: key 'model' must be dict"),
    ('integrated', ('operationsDefinitions',), {}, "integrated: key 'operationsDefinitions' must be list"),
    ('integrated', ('operationsDefinitions', 0), 7, 'operationsRecord: expected a JSON object'),
    ('integrated', ('operationsDefinitions', 0, 'goalId'), _DELETE, "operationsRecord: missing key 'goalId'"),
    ('integrated', ('operationsDefinitions', 0, 'operations', 0, 'bindings', 'FROM'), None, 'goal-2341: binding values must be element ids'),
    ('integrated', ('model', 'equipment', 0, 'id'), 7, "equipment: key 'id' must be str"),
    ('integrated', ('model', 'equipment', 0, 'classIds'), [7], 'PositioningUnit-01: classIds must be strings'),
    ('integrated', ('model', 'processSegments', 0, 'duration', 'value'), 'x', "MoveShuttle: key 'value' must be float"),
    ('integrated', ('model', 'resourceNetworks', 0, 'connections', 0, 'coordinates'), 'here', 'TransportNetwork: coordinates must be a [x, y, z] list'),
]


def _valid_documents() -> dict:
    model = generate_ring_layout(3, 0.65, with_robot_and_boards=True)
    bindings = (("SHUTTLE", "Shuttle-01"), ("FROM", "PositioningUnit-03"), ("TO", "PositioningUnit-05"))
    record = OperationsRecord("goal-2341", True, (Operation(0, "MoveShuttle", bindings, 10),), 10)
    return {
        "model": (model_to_dict(model), model_from_dict),
        "goal": (goal_to_dict(demo_goal_2341()), goal_from_dict),
        "record": (record_to_dict(record), record_from_dict),
        "integrated": (integrated_to_dict(IntegratedModel(model, (record,))), integrated_from_dict),
    }


@pytest.mark.parametrize("kind,path,value,message", _MALFORMED)
def test_reader_messages_are_pinned(kind, path, value, message):
    data, from_dict = _valid_documents()[kind]
    if not path:
        data = value
    else:
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with pytest.raises(ParseError) as err:
        from_dict(data)
    assert type(err.value) is ParseError
    assert str(err.value) == message
