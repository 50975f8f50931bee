from __future__ import annotations

import copy
import dataclasses
import hashlib

import pytest

from prodplan import transform
from prodplan.demo import build_demo_model, demo_goal_2341
from prodplan.errors import (
    DanglingReference,
    MissingRole,
    NonBooleanProperty,
    ShuttleOffStation,
    TransformError,
)
from prodplan.model import build_routing_graph
from prodplan.model_io import (
    DRILL_DURATION_S,
    GoalSpec,
    generate_drill_goal,
    generate_permutation_goals,
    generate_reverse_goal,
    generate_ring_layout,
    model_from_dict,
    model_to_dict,
)
from prodplan.pddl import (
    And,
    Atom,
    Exists,
    Forall,
    Increase,
    Not,
    TypedName,
    When,
    parse_domain,
    parse_problem,
    write_domain,
    write_problem,
)
from prodplan.pddl.ast import NumericInit
from prodplan.planner.search import plan
from prodplan.transform import (
    derive_domain,
    derive_problem,
    derive_reverse_problem,
)

REQUIREMENTS_ALL = (
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":existential-preconditions",
    ":universal-preconditions",
    ":conditional-effects",
    ":action-costs",
)


def _action(domain, name):
    return next(a for a in domain.actions if a.name == name)


def test_demo_domain_shape(demo_domain):
    domain, report = demo_domain
    assert domain.name == "production-system"
    assert domain.requirements == REQUIREMENTS_ALL
    assert [t.name for t in domain.types] == [
        "EquipmentClass",
        "Equipment",
        "EquipmentClassProperty",
        "EquipmentProperty",
    ]
    assert [c.name for c in domain.constants] == [
        "EC_PositioningUnit",
        "EC_Shuttle",
        "EC_TrackElement",
        "ECP_PositioningUnitOccupied",
    ]
    assert {p.name: len(p.parameters) for p in domain.predicates} == {
        "EquipmentClassed": 2,
        "EquipmentPropertyImplementsClassProperty": 2,
        "EquipmentHasProperty": 2,
        "EquipmentPropertyTrue": 1,
        "PositioningUnitConnection": 2,
        "ShuttleLocation": 2,
    }
    assert domain.functions == ("total-cost",)
    assert [a.name for a in domain.actions] == [
        "SetEquipmentPropertyTrue",
        "SetEquipmentPropertyFalse",
        "MoveShuttle",
    ]
    assert report.movement_used and not report.drilling_used
    assert report.cost_by_segment == {"MoveShuttle": 10}
    assert report.spec_ids_by_segment == {"MoveShuttle": ("SHUTTLE", "FROM", "TO")}


def test_set_actions_guard_implicit_properties(demo_domain):
    domain, _ = demo_domain
    guard = Not(
        Atom(
            "EquipmentPropertyImplementsClassProperty",
            ("?EP", "ECP_PositioningUnitOccupied"),
        )
    )
    truth = Atom("EquipmentPropertyTrue", ("?EP",))
    set_true = _action(domain, "SetEquipmentPropertyTrue")
    set_false = _action(domain, "SetEquipmentPropertyFalse")
    assert set_true.precondition == And((Not(truth), guard))
    assert set_true.effect == truth
    assert set_false.precondition == And((truth, guard))
    assert set_false.effect == Not(truth)


def test_move_action_structure(demo_domain):
    domain, _ = demo_domain
    move = _action(domain, "MoveShuttle")
    assert move.parameters == (
        TypedName("?SHUTTLE", "Equipment"),
        TypedName("?FROM", "Equipment"),
        TypedName("?TO", "Equipment"),
    )
    pre = move.precondition.items
    assert pre[:3] == (
        Atom("EquipmentClassed", ("?SHUTTLE", "EC_Shuttle")),
        Atom("EquipmentClassed", ("?FROM", "EC_PositioningUnit")),
        Atom("EquipmentClassed", ("?TO", "EC_PositioningUnit")),
    )
    # FROM must be occupied, TO must be free: one exists per constraint
    exists = [i for i in pre if isinstance(i, Exists)]
    assert len(exists) == 2
    for node in exists:
        assert node.variables == (TypedName("?P", "EquipmentProperty"),)
        literal, implements, has = node.condition.items
        assert implements.args[1] == "ECP_PositioningUnitOccupied"
    occupied = {
        node.condition.items[2].args[0]: isinstance(node.condition.items[0], Atom)
        for node in exists
    }
    assert occupied == {"?FROM": True, "?TO": False}
    assert pre[-3:] == (
        Atom("PositioningUnitConnection", ("?FROM", "?TO")),
        Atom("ShuttleLocation", ("?SHUTTLE", "?FROM")),
        Not(Atom("ShuttleLocation", ("?SHUTTLE", "?TO"))),
    )
    eff = move.effect.items
    foralls = [i for i in eff if isinstance(i, Forall)]
    assert len(foralls) == 2
    flips = {}
    for node in foralls:
        assert isinstance(node.body, When)
        target = node.body.condition.items[1].args[0]
        flips[target] = isinstance(node.body.effect, Atom)
    assert flips == {"?TO": True, "?FROM": False}
    assert eff[-3:] == (
        Not(Atom("ShuttleLocation", ("?SHUTTLE", "?FROM"))),
        Atom("ShuttleLocation", ("?SHUTTLE", "?TO")),
        Increase("total-cost", 10),
    )


def test_drilling_domain_adds_material_vocabulary():
    model = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    domain, report = derive_domain(model)
    assert report.drilling_used
    assert [t.name for t in domain.types][-2:] == ["MaterialLot", "MaterialProperty"]
    names = {p.name for p in domain.predicates}
    assert {
        "MaterialPropertyTrue",
        "MaterialMountedOnEquipment",
        "PositioningUnitWithinReach",
    } <= names
    drill = _action(domain, "DrillBoard")
    assert drill.parameters[-1].type == "MaterialLot"
    pre = drill.precondition.items
    lot = drill.parameters[-1].name
    robot, shuttle, unit = (p.name for p in drill.parameters[:3])
    assert Atom("PositioningUnitWithinReach", (robot, unit)) in pre
    assert Atom("ShuttleLocation", (shuttle, unit)) in pre
    assert Atom("MaterialMountedOnEquipment", (lot, shuttle)) in pre
    eff = drill.effect.items
    assert eff[0].predicate == "MaterialPropertyTrue" and eff[0].args[0] == lot
    assert eff[-1] == Increase("total-cost", 30)


def test_requirements_shrink_without_quantified_constraints():
    data = {
        "equipmentClasses": [{"id": "Box", "properties": []}],
        "equipment": [{"id": "B1", "classIds": ["Box"]}],
    }
    domain, _ = derive_domain(model_from_dict(data))
    # Set actions still bring negation; nothing quantifies or branches
    assert domain.requirements == (
        ":strips",
        ":typing",
        ":negative-preconditions",
        ":action-costs",
    )


def test_demo_problem_init(demo_model, demo_domain):
    domain, report = demo_domain
    problem = derive_problem(demo_model, demo_goal_2341(), report)
    assert problem.name == "problem-goal-2341"
    assert problem.domain_name == domain.name
    assert problem.minimize == "total-cost"
    assert problem.init[-1] == NumericInit("total-cost", 0)

    by_pred = {}
    for atom in problem.init[:-1]:
        by_pred.setdefault(atom.predicate, []).append(atom.args)
    equipment = demo_model.equipment
    assert len(by_pred["EquipmentClassed"]) == sum(len(e.class_ids) for e in equipment)
    n_props = sum(len(e.properties) for e in equipment)
    assert len(by_pred["EquipmentHasProperty"]) == n_props
    assert len(by_pred["EquipmentPropertyImplementsClassProperty"]) == n_props
    # exactly the occupied units hold their property at the start
    true_props = {a[0] for a in by_pred["EquipmentPropertyTrue"]}
    occupied = {
        f"EP_{p.id}"
        for e in equipment
        for p in e.properties
        if p.value
    }
    assert true_props == occupied
    assert sorted(by_pred["ShuttleLocation"]) == [
        ("E_Shuttle-01", "E_PositioningUnit-03"),
        ("E_Shuttle-02", "E_PositioningUnit-01"),
        ("E_Shuttle-03", "E_PositioningUnit-04"),
        ("E_Shuttle-04", "E_PositioningUnit-02"),
    ]
    assert set(by_pred["PositioningUnitConnection"]) == {
        ("E_PositioningUnit-01", "E_PositioningUnit-03"),
        ("E_PositioningUnit-03", "E_PositioningUnit-05"),
        ("E_PositioningUnit-05", "E_PositioningUnit-02"),
        ("E_PositioningUnit-03", "E_PositioningUnit-02"),
        ("E_PositioningUnit-02", "E_PositioningUnit-04"),
        ("E_PositioningUnit-04", "E_PositioningUnit-01"),
    }
    assert problem.goal == And(
        (
            Atom("ShuttleLocation", ("E_Shuttle-02", "E_PositioningUnit-03")),
            Atom("ShuttleLocation", ("E_Shuttle-03", "E_PositioningUnit-01")),
            Atom("ShuttleLocation", ("E_Shuttle-04", "E_PositioningUnit-04")),
            Atom("ShuttleLocation", ("E_Shuttle-01", "E_PositioningUnit-02")),
        )
    )


def test_property_goal_compiles_to_property_atoms(demo_model, demo_domain):
    _, report = demo_domain
    goal = GoalSpec(
        id="props",
        properties_true=(("PositioningUnit-05", "PositioningUnitOccupied"),),
        properties_false=(("PositioningUnit-01", "PositioningUnitOccupied"),),
    )
    problem = derive_problem(demo_model, goal, report)
    assert problem.goal == And(
        (
            Atom("EquipmentPropertyTrue", ("EP_PositioningUnitOccupied-05",)),
            Not(Atom("EquipmentPropertyTrue", ("EP_PositioningUnitOccupied-01",))),
        )
    )


def test_problem_derivation_only_reads_the_report(demo_model):
    _, report = derive_domain(demo_model)
    before = copy.deepcopy(report)
    goal = demo_goal_2341()
    derive_problem(demo_model, goal, report)
    assert report == before
    assert derive_reverse_problem(demo_model, goal, report) is not None
    assert report == before
    assert report.object_by_element["Shuttle-01"] == "E_Shuttle-01"
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.movement_used = False


def test_transform_error_cases(demo_model):
    data = model_to_dict(demo_model)

    # movement without a TO spec
    broken = model_to_dict(demo_model)
    specs = broken["processSegments"][0]["equipmentSpecs"]
    broken["processSegments"][0]["equipmentSpecs"] = [
        s for s in specs if s["id"] != "TO"
    ]
    with pytest.raises(MissingRole):
        derive_domain(model_from_dict(broken))

    # constraint against an unknown class property
    broken = model_to_dict(demo_model)
    broken["processSegments"][0]["equipmentSpecs"][1]["propertyConstraints"][0][
        "classPropertyId"
    ] = "Nope"
    with pytest.raises(DanglingReference):
        derive_domain(model_from_dict(broken))

    # constraint against a non-boolean property
    broken = model_to_dict(demo_model)
    broken["equipmentClasses"][0]["properties"][0]["valueKind"] = "string"
    with pytest.raises(NonBooleanProperty):
        derive_domain(model_from_dict(broken))

    # ids must survive name mangling
    broken = model_to_dict(demo_model)
    broken["equipmentClasses"][2]["id"] = "bad id"
    with pytest.raises(TransformError):
        derive_domain(model_from_dict(broken))
    # object names too: the domain's report names every problem object
    boxed = {
        "equipmentClasses": [{"id": "Box", "properties": []}],
        "equipment": [{"id": "bad id", "classIds": ["Box"]}],
    }
    with pytest.raises(TransformError):
        derive_domain(model_from_dict(boxed))

    # shuttle goals need a movement segment
    still = model_to_dict(demo_model)
    still["processSegments"] = []
    model = model_from_dict(still)
    _, report = derive_domain(model)
    with pytest.raises(TransformError):
        derive_problem(model, demo_goal_2341(), report)

    # goals must name known equipment
    _, report = derive_domain(demo_model)
    with pytest.raises(DanglingReference):
        derive_problem(
            demo_model,
            GoalSpec(id="g", properties_true=(("Ghost", "PositioningUnitOccupied"),)),
            report,
        )


def test_reverse_problem_flips_graph_and_goal(demo_model, demo_domain):
    _, report = demo_domain
    goal = demo_goal_2341()
    forward = derive_problem(demo_model, goal, report)
    reverse = derive_reverse_problem(demo_model, goal, report)
    assert reverse is not None
    assert reverse.name == "problem-goal-2341-reverse"
    assert reverse.objects == forward.objects

    def split(problem):
        static, location, edges, true = set(), set(), set(), set()
        for item in problem.init:
            if isinstance(item, NumericInit):
                continue
            if item.predicate == "ShuttleLocation":
                location.add(item.args)
            elif item.predicate == "PositioningUnitConnection":
                edges.add(item.args)
            elif item.predicate == "EquipmentPropertyTrue":
                true.add(item.args[0])
            else:
                static.add(item)
        return static, location, edges, true

    f_static, f_loc, f_edges, f_true = split(forward)
    r_static, r_loc, r_edges, r_true = split(reverse)
    assert f_static == r_static
    assert r_edges == {(b, a) for a, b in f_edges}
    assert r_loc == {
        (f"E_{s}", f"E_{u}") for s, u in goal.shuttle_locations
    }
    # occupancy flags follow the goal placements
    assert r_true == {f"EP_PositioningUnitOccupied-{u[-2:]}" for _, u in goal.shuttle_locations}
    # reverse goal asks for the forward start placements
    assert set(reverse.goal.items) == {
        Atom("ShuttleLocation", args) for args in f_loc
    }


def test_reverse_problem_eligibility(demo_model, demo_domain):
    _, report = demo_domain
    partial = GoalSpec(
        id="partial", shuttle_locations=(("Shuttle-01", "PositioningUnit-02"),)
    )
    assert derive_reverse_problem(demo_model, partial, report) is None

    mixed = GoalSpec(
        id="mixed",
        shuttle_locations=demo_goal_2341().shuttle_locations,
        properties_true=(("PositioningUnit-05", "PositioningUnitOccupied"),),
    )
    assert derive_reverse_problem(demo_model, mixed, report) is None

    doubled = GoalSpec(
        id="doubled",
        shuttle_locations=(
            ("Shuttle-01", "PositioningUnit-02"),
            ("Shuttle-02", "PositioningUnit-02"),
            ("Shuttle-03", "PositioningUnit-01"),
            ("Shuttle-04", "PositioningUnit-04"),
        ),
    )
    assert derive_reverse_problem(demo_model, doubled, report) is None

    # material lots block the reverse derivation outright
    drilling = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    d_domain, d_report = derive_domain(drilling)
    graph = build_routing_graph(drilling)
    full = GoalSpec(
        id="full",
        shuttle_locations=tuple(graph.shuttle_at.items()),
    )
    assert derive_reverse_problem(drilling, full, d_report) is None


def test_reverse_problem_rejects_segments_with_extra_state():
    data = model_to_dict(build_demo_model())
    seg = data["processSegments"][0]
    shuttle_spec = next(s for s in seg["equipmentSpecs"] if s["id"] == "SHUTTLE")
    shuttle_spec["propertyConstraints"] = [
        {
            "classPropertyId": "PositioningUnitOccupied",
            "value": True,
            "tag": "pddl:post",
        }
    ]
    model = model_from_dict(data)
    _, report = derive_domain(model)
    assert derive_reverse_problem(model, demo_goal_2341(), report) is None


def test_reverse_problem_on_generated_ring():
    model = generate_ring_layout(9, 0.65)
    _, report = derive_domain(model)
    goal = generate_reverse_goal(model)
    forward = derive_problem(model, goal, report)
    reverse = derive_reverse_problem(model, goal, report)
    assert reverse is not None
    # same fluent vocabulary, so the searches can share one index space
    preds_f = {i.predicate for i in forward.init if isinstance(i, Atom)}
    preds_r = {i.predicate for i in reverse.init if isinstance(i, Atom)}
    assert preds_f == preds_r
    assert len(forward.init) == len(reverse.init)


def test_forward_problems_share_the_reports_objects_and_init(demo_model, demo_domain):
    _, report = demo_domain
    for goal in generate_permutation_goals(demo_model):
        problem = derive_problem(demo_model, goal, report)
        assert problem.objects is report.objects
        assert problem.init is report.init


@pytest.mark.parametrize(
    "build",
    [build_demo_model, lambda: generate_ring_layout(5, 0.65, with_robot_and_boards=True)],
    ids=["movement", "drilling"],
)
def test_routing_graph_is_built_once_per_domain(monkeypatch, build):
    calls = []

    def counted(model):
        calls.append(model)
        return build_routing_graph(model)

    monkeypatch.setattr(transform, "build_routing_graph", counted)
    model = build()
    _, report = derive_domain(model)
    assert len(calls) == 1
    for goal in generate_permutation_goals(model)[:6]:
        derive_problem(model, goal, report)
        derive_reverse_problem(model, goal, report)
    assert len(calls) == 1


def test_shuttle_off_station_fails_the_domain():
    data = model_to_dict(build_demo_model())
    connections = data["resourceNetworks"][0]["connections"]
    parked = next(c for c in connections if c["fromId"] == "Shuttle-01")
    parked["coordinates"] = [11.0, 0.0, 0.0]  # between two PUs
    with pytest.raises(ShuttleOffStation):
        derive_domain(model_from_dict(data))


def _derived_pddl_digest(model) -> str:
    """SHA-256 over the domain text and every forward and reverse problem
    text for the plant's permutation, reverse and drill goals. Only the
    first 24 permutation goals count, and none past 6 shuttles (ring 15
    has 10! - 1)."""
    domain, report = derive_domain(model)
    goals = []
    if len(model.equipment_of_class("Shuttle")) <= 6:
        goals = generate_permutation_goals(model)[:24]
    goals.append(generate_reverse_goal(model))
    if model.material_lots:
        goals.append(generate_drill_goal(model))
    digest = hashlib.sha256(write_domain(domain).encode("utf-8"))
    for goal in goals:
        digest.update(write_problem(derive_problem(model, goal, report)).encode("utf-8"))
        reverse = derive_reverse_problem(model, goal, report)
        digest.update(b"none" if reverse is None else write_problem(reverse).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "build,digest",
    [
        (lambda: build_demo_model(), "b03fc24bcd186bc3102a740fa2a227c0db6459df501bd19a7e07c832fd79bec0"),
        (lambda: build_demo_model(with_switchable_property=True), "3c85aa04c2733d31cdbe7762cc604a8188c73c73f036b183f876ad04216948e0"),
        (lambda: generate_ring_layout(3, 0.65), "cf5b556591b2ab0163dc0c61d794b05b667a7d7a9f13bfc46012524a93835f62"),
        (lambda: generate_ring_layout(3, 0.65, True), "f3566153ce3063cf7fc02a64cb97d52fe88ce58307dad3cda73a735440348d06"),
        (lambda: generate_ring_layout(5, 0.65), "313bddd0a62139bd8ec3782b82e67fe51fa01fef250b80384420ca50a222b42c"),
        (lambda: generate_ring_layout(5, 0.65, True), "a4ed6788e6e0ddf88b62af30fa24f3ade60cbf95a629c19c06e861ed60cb4a21"),
        (lambda: generate_ring_layout(9, 0.65), "0bcca48c2ac19b7cd84dbcb0d2cc9d0e2b4423e171dd90421d81007dfa936d02"),
        (lambda: generate_ring_layout(9, 0.65, True), "be4abbaa42c1957972027b6a718034cf415d950077d4854be4f7e2478360f7ba"),
        (lambda: generate_ring_layout(15, 0.65), "17b663100362dab04e621bcf2b974fd5ef6856108d83029ede141773aab396dd"),
        (lambda: generate_ring_layout(15, 0.65, True), "0a9d77bb18a4a2846f99dad2e0aaa0f3795ca2c13dcde628d8ca340ea1394b3e"),
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
    ],
)
def test_derived_pddl_is_pinned(build, digest):
    assert _derived_pddl_digest(build()) == digest


def test_a_drilling_model_that_never_moves_plans():
    # the routing graph still places the shuttles, but without a move
    # segment no connection atom may reach the initial state
    model = generate_ring_layout(5, 0.65, with_robot_and_boards=True)
    model = dataclasses.replace(
        model,
        process_segments=tuple(s for s in model.process_segments if s.id != "MoveShuttle"),
    )
    domain, report = derive_domain(model)
    assert (report.movement_used, report.drilling_used) == (False, True)
    # the robot reaches PU 2, where Shuttle-02 and its board are parked
    goal = GoalSpec(id="drill-02", material_properties_true=(("Board-02", "HasHole"),))
    problem = derive_problem(model, goal, report)
    assert not any(
        isinstance(a, Atom) and a.predicate == "PositioningUnitConnection" for a in problem.init
    )
    texts = parse_domain(write_domain(domain)), parse_problem(write_problem(problem))
    for pddl in ((domain, problem), texts):
        result = plan(*pddl)
        assert (result.status, result.cost) == ("solved", DRILL_DURATION_S)
        assert [step.action for step in result.plan.steps] == ["drillboard"]
