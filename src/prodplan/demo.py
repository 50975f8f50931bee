"""The five-PU monorail demo system.

Four shuttles sit on a loop of four positioning units (visiting order
PU-01, PU-03, PU-02, PU-04) with a siding over PU-05 that bridges PU-03
and PU-02. The loop closes through a curve element that carries no PU,
so route building has to step across it. One spare PU leaves just enough
room to reorder the shuttles.
"""

from __future__ import annotations

from .model import ProductionModel
from .model_io import GoalSpec, generate_permutation_goals, track_layout

SWITCHABLE_PROPERTY = "BeaconOn"

# Coordinates of PU-01 .. PU-05; PU-i is attached to TrackElement-i.
_PU_COORDS = (
    (0.0, 0.0, 0.0),
    (20.0, 0.0, 0.0),
    (10.0, 0.0, 0.0),
    (30.0, 0.0, 0.0),
    (15.0, 3.0, 0.0),
)

# Directed track segments between the PUs' elements and the curve C1,
# which carries no PU; they collapse to the PU routing edges 1->3, 3->5,
# 5->2, 3->2, 2->4 and 4->1 (through the curve).
_TRACKS = ((1, 3), (3, 5), (5, 2), (3, 2), (2, 4), (4, "C1"), ("C1", 1))

# The PU of Shuttle-01 .. Shuttle-04. Reading them in shuttle-id order gives
# the slot sequence PU-03, PU-01, PU-04, PU-02, i.e. the arrangement "1234".
_SHUTTLE_PUS = (3, 1, 4, 2)


def build_demo_model(with_switchable_property: bool = False) -> ProductionModel:
    """The demo system; optionally each shuttle gets a switchable beacon."""
    return track_layout(
        _PU_COORDS,
        _TRACKS,
        _SHUTTLE_PUS,
        curves=("C1",),
        shuttle_property=SWITCHABLE_PROPERTY if with_switchable_property else None,
    )


def demo_goal_2341() -> GoalSpec:
    """Rotate the arrangement 1234 to 2341."""
    goals = generate_permutation_goals(build_demo_model())
    return next(goal for goal in goals if goal.id == "goal-2341")
