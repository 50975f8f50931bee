"""Plan checks that share no code with prodplan.

Everything here works on the JSON documents the benchmark writes and
reads (the model, the goals and the saved integrated model), with the
standard library only. The positioning-unit (PU) graph is derived from
the track connections again, the operations records are replayed
against it, and reference costs come from a uniform-cost search over
shuttle placements (and the set of drilled boards).

Only the vocabulary of the benchmark's own models is understood: the
``MoveShuttle`` and ``DrillBoard`` segments with their spec ids, and the
``HasHole`` material property.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque

MOVE_S = 10
DRILL_S = 30
HOLE = "HasHole"

PU_LINK = "Positioning-Unit-Connection"
TRACK_LINK = "Track-Connection"
SHUTTLE_LINK = "Shuttle-Connection"
REACH_LINK = "Reach-Connection"

# Above this many states the exhaustive reference search is skipped and
# only the shortest-path lower bound is checked (ring 11 has 1.7M).
REFERENCE_STATE_LIMIT = 200_000


class CheckFailed(Exception):
    """A plan or record that does not hold up on the plant."""


class Plant:
    """PU graph, shuttle start, robot reach and boards of one model document."""

    def __init__(self, model: dict):
        links = [c for net in model["resourceNetworks"] for c in net["connections"]]
        pu_at = {}  # track element -> PU attached to it
        track = defaultdict(list)
        for c in links:
            if c["connectionType"] == PU_LINK:
                pu_at[c["toId"]] = c["fromId"]
            elif c["connectionType"] == TRACK_LINK:
                track[c["fromId"]].append(c["toId"])
        self.edges: dict[str, set[str]] = {pu: set() for pu in pu_at.values()}
        for te, pu in pu_at.items():
            # walk the track, stepping across elements that carry no PU
            seen = {te}
            todo = list(track[te])
            while todo:
                nxt = todo.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                if nxt in pu_at:
                    if pu_at[nxt] != pu:
                        self.edges[pu].add(pu_at[nxt])
                else:
                    todo.extend(track[nxt])
        self.start = {
            c["fromId"]: pu_at[c["toId"]]
            for c in links
            if c["connectionType"] == SHUTTLE_LINK
        }
        self.reach: dict[str, set[str]] = defaultdict(set)
        for c in links:
            if c["connectionType"] == REACH_LINK:
                self.reach[c["fromId"]].add(c["toId"])
        self.board_on = {}
        self.drilled = set()
        for lot in model.get("materialLots", []):
            if lot.get("mountedOnEquipmentId"):
                self.board_on[lot["id"]] = lot["mountedOnEquipmentId"]
            if any(p["id"] == HOLE and p["value"] for p in lot.get("properties", [])):
                self.drilled.add(lot["id"])
        self.shuttles = tuple(sorted(self.start))
        self.pus = tuple(sorted(self.edges))

    def distances_from(self, pu: str) -> dict[str, int]:
        """Moves from ``pu`` to every PU, ignoring other shuttles."""
        dist = {pu: 0}
        todo = deque([pu])
        while todo:
            here = todo.popleft()
            for nxt in self.edges[here]:
                if nxt not in dist:
                    dist[nxt] = dist[here] + 1
                    todo.append(nxt)
        return dist


def _goal_parts(goal: dict) -> tuple[dict[str, str], set[str]]:
    if goal.get("propertiesTrue") or goal.get("propertiesFalse"):
        raise CheckFailed(f"{goal['id']}: equipment property goals are not checked here")
    holes = set()
    for lot, prop in goal.get("materialPropertiesTrue", []):
        if prop != HOLE:
            raise CheckFailed(f"{goal['id']}: material property {prop!r} is not checked here")
        holes.add(lot)
    return dict(goal.get("shuttleLocations", {})), holes


def replay(plant: Plant, goal: dict, record: dict) -> int:
    """Replay one operations record; returns its cost in production seconds.

    Raises CheckFailed at the first operation that cannot happen on the
    plant, when the final state misses the goal, or when a stated cost
    disagrees with 10 s per move plus 30 s per drill.
    """
    where = record.get("goalId")
    if where != goal["id"] or record.get("solvable") is not True:
        raise CheckFailed(f"{goal['id']}: record {where!r} is not a solved record for it")
    at = dict(plant.start)
    occupied = set(at.values())
    drilled = set(plant.drilled)
    total = 0
    for index, op in enumerate(record["operations"]):
        step = f"{where} step {index}"
        if op.get("sequenceIndex") != index:
            raise CheckFailed(f"{step}: sequence index {op.get('sequenceIndex')}")
        b = op["bindings"]
        if op["segmentId"] == "MoveShuttle":
            shuttle, source, target = b["SHUTTLE"], b["FROM"], b["TO"]
            if at.get(shuttle) != source:
                raise CheckFailed(f"{step}: {shuttle} is not at {source}")
            if target not in plant.edges.get(source, ()):
                raise CheckFailed(f"{step}: no track from {source} to {target}")
            if target in occupied:
                raise CheckFailed(f"{step}: {target} is occupied")
            occupied.remove(source)
            occupied.add(target)
            at[shuttle] = target
            cost = MOVE_S
        elif op["segmentId"] == "DrillBoard":
            robot, shuttle, unit, board = b["ROBOT"], b["SHUTTLE"], b["PU"], b["BOARD"]
            if plant.board_on.get(board) != shuttle:
                raise CheckFailed(f"{step}: {board} is not on {shuttle}")
            if at.get(shuttle) != unit or unit not in plant.reach.get(robot, ()):
                raise CheckFailed(f"{step}: {shuttle} is not at the reach of {robot}")
            if board in drilled:
                raise CheckFailed(f"{step}: {board} is already drilled")
            drilled.add(board)
            cost = DRILL_S
        else:
            raise CheckFailed(f"{step}: unknown segment {op['segmentId']!r}")
        if op.get("cost") != cost:
            raise CheckFailed(f"{step}: operation cost {op.get('cost')}, expected {cost}")
        total += cost
    places, holes = _goal_parts(goal)
    for shuttle, pu in places.items():
        if at.get(shuttle) != pu:
            raise CheckFailed(f"{where}: {shuttle} ends at {at.get(shuttle)}, goal {pu}")
    if not holes <= drilled:
        raise CheckFailed(f"{where}: boards {sorted(holes - drilled)} not drilled")
    if record.get("totalCost") != total:
        raise CheckFailed(f"{where}: record says cost {record.get('totalCost')}, replay {total}")
    return total


def lower_bound(plant: Plant, goal: dict) -> int:
    """Per-shuttle shortest paths, each shuttle alone on the track."""
    places, holes = _goal_parts(goal)
    total = 0
    for shuttle, pu in places.items():
        dist = plant.distances_from(plant.start[shuttle]).get(pu)
        if dist is None:
            raise CheckFailed(f"{goal['id']}: {pu} is unreachable for {shuttle}")
        total += MOVE_S * dist
    return total + DRILL_S * len(holes - plant.drilled)


def state_count(plant: Plant) -> int:
    """Placements of the shuttles on the PUs times the drilled subsets."""
    n, k = len(plant.pus), len(plant.shuttles)
    return math.perm(n, k) * 2 ** len(plant.board_on)


class Reference:
    """Uniform-cost search over the whole state space of one plant.

    A state is the PU of each shuttle (in shuttle-id order) plus the set
    of drilled boards. One exploration serves every goal on the plant.
    """

    def __init__(self, plant: Plant):
        self.plant = plant
        shuttles = plant.shuttles
        reach = set().union(*plant.reach.values()) if plant.reach else set()
        boards_of = defaultdict(list)
        for board, shuttle in plant.board_on.items():
            boards_of[shuttle].append(board)
        start = (tuple(plant.start[s] for s in shuttles), frozenset(plant.drilled))
        self.cost = {start: 0}
        self.parent = {start: None}
        heap = [(0, 0, start)]
        tie = 0
        done = set()
        while heap:
            cost, _, state = heapq.heappop(heap)
            if state in done:
                continue
            done.add(state)
            places, drilled = state
            occupied = set(places)
            successors = []
            for i, here in enumerate(places):
                for nxt in plant.edges[here]:
                    if nxt not in occupied:
                        moved = places[:i] + (nxt,) + places[i + 1 :]
                        op = ("MoveShuttle", shuttles[i], here, nxt)
                        successors.append(((moved, drilled), MOVE_S, op))
                if here in reach:
                    for board in boards_of[shuttles[i]]:
                        if board not in drilled:
                            op = ("DrillBoard", shuttles[i], here, board)
                            successors.append(((places, drilled | {board}), DRILL_S, op))
            for nxt, step, op in successors:
                new = cost + step
                if new < self.cost.get(nxt, math.inf):
                    self.cost[nxt] = new
                    self.parent[nxt] = (state, op)
                    tie += 1
                    heapq.heappush(heap, (new, tie, nxt))

    def _goal_states(self, goal: dict):
        places, holes = _goal_parts(goal)
        index = {s: i for i, s in enumerate(self.plant.shuttles)}
        want = [(index[s], pu) for s, pu in places.items()]
        for state in self.cost:
            if all(state[0][i] == pu for i, pu in want) and holes <= state[1]:
                yield state

    def optimum(self, goal: dict) -> int:
        costs = [self.cost[s] for s in self._goal_states(goal)]
        if not costs:
            raise CheckFailed(f"{goal['id']}: no reachable state meets the goal")
        return min(costs)

    def plan(self, goal: dict) -> list[tuple]:
        """One optimal operation sequence, as (segment, shuttle, pu, other)."""
        state = min(self._goal_states(goal), key=self.cost.__getitem__)
        ops = []
        while self.parent[state] is not None:
            state, op = self.parent[state]
            ops.append(op)
        return ops[::-1]

