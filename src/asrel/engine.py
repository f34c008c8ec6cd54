"""Two-phase relationship inference over a path corpus, relative to a core.

Phase 1 walks every path that touches the core. Relative to the core the
walk is first uphill (customer to provider votes), flat while it stays
inside the core (peer votes, unless the core edge carries a preassigned
label), and downhill afterwards (provider to customer votes). A path that
turns back up into the core after descending contradicts valley-free
routing: the offending edge receives an invalid vote and the rest of the
path is ignored.

Phase 2 walks the remaining paths, which never touch the core, and
propagates from edges already classified. Within a path, edges with no
classification votes that precede a c2p-classified edge must themselves be
c2p (they sit in the uphill segment); edges with no votes after the first
p2c-classified edge must be p2c. Rounds repeat against a snapshot frozen
at the start of each round until no new votes appear, so the outcome does
not depend on path order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import CoreGraph
from .errors import ConfigurationError
from .graph import (
    METHOD_CORE_PREASSIGNED,
    METHOD_DETERMINISTIC_P1,
    METHOD_DETERMINISTIC_P2,
    METHOD_UNCLASSIFIED,
    AsGraph,
    AsPath,
    Classification,
    EdgeKey,
    RelType,
    VoteTally,
    oriented,
    total_weight,
)

ANCHOR_THRESHOLD = "threshold"
ANCHOR_PLURALITY = "plurality"

REASON_CORE_HOP_LIMIT = "core-hop-limit"


@dataclass
class InferenceConfig:
    """Inference parameters.

    threshold is the vote share an edge must reach to be classified; it
    must exceed 0.5 so at most one relationship can win. max_core_hops
    bounds how many consecutive core vertices a path may cross before it
    is considered invalid. phase2_anchor selects how phase 2 decides that
    an edge counts as already classified: by the same share threshold
    (default) or by strict plurality of votes.
    """

    threshold: float = 0.8
    max_core_hops: int = 3
    phase2_anchor: str = ANCHOR_THRESHOLD

    def __post_init__(self):
        if not 0.5 < self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0.5, 1.0], got {self.threshold}"
            )
        if self.max_core_hops < 1:
            raise ConfigurationError(
                f"max_core_hops must be >= 1, got {self.max_core_hops}"
            )
        if self.phase2_anchor not in (ANCHOR_THRESHOLD, ANCHOR_PLURALITY):
            raise ConfigurationError(
                f"unknown phase2_anchor {self.phase2_anchor!r}"
            )


@dataclass
class PathPartition:
    """Paths split by how they relate to the core."""

    through_core: list[AsPath] = field(default_factory=list)
    periphery: list[AsPath] = field(default_factory=list)
    invalid: list[tuple[AsPath, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Observations in all three classes: each path counts its weight."""
        return (
            total_weight(self.through_core)
            + total_weight(self.periphery)
            + total_weight(path for path, _ in self.invalid)
        )


def partition_paths(
    paths: Iterable[AsPath], core: CoreGraph, max_core_hops: int = 3
) -> PathPartition:
    """Split paths into core-traversing, periphery, and invalid.

    A path traverses the core if any hop is a core vertex. A path whose
    longest run of consecutive core vertices exceeds max_core_hops is set
    aside as invalid and never votes.
    """
    partition = PathPartition()
    core_vertices = core.vertices
    for path in paths:
        longest = run = 0
        touches = False
        for h in path.hops:
            if h in core_vertices:
                touches = True
                run += 1
                if run > longest:
                    longest = run
            else:
                run = 0
        if not touches:
            partition.periphery.append(path)
        elif longest > max_core_hops:
            partition.invalid.append((path, REASON_CORE_HOP_LIMIT))
        else:
            partition.through_core.append(path)
    return partition


@dataclass
class Phase1Result:
    """Edges phase 1 voted on; valley_paths sums the weights of paths that
    drew an invalid vote."""

    voted_edges: set[EdgeKey] = field(default_factory=set)
    valley_paths: int = 0


_UPHILL = 0
_IN_CORE = 1
_DOWNHILL = 2


def phase1(
    graph: AsGraph,
    through_core: Iterable[AsPath],
    core: CoreGraph,
    config: InferenceConfig | None = None,
) -> Phase1Result:
    """Cast votes from every core-traversing path.

    Core edges with a preassigned label are not re-voted, but their
    direction still drives the walk state: descending over a preassigned
    p2c core edge puts the walk downhill, and any later move back up to a
    core vertex draws an invalid vote. An invalid vote always ends the
    path's contribution.
    """
    result = Phase1Result()
    core_vertices = core.vertices
    core_edges = core.edges
    preassigned = core.preassigned
    for path in through_core:
        state = _UPHILL
        weight = path.weight
        for u, v in path.edges():
            key = (u, v) if u < v else (v, u)
            if key in core_edges:
                pre = preassigned.get(key)
                pre_dir = oriented(pre, u, v) if pre is not None else None
                if state == _DOWNHILL and pre_dir is not RelType.P2C:
                    graph.vote_invalid(u, v, weight)
                    result.valley_paths += weight
                    break
                if pre_dir is RelType.P2C:
                    state = _DOWNHILL
                elif pre_dir is not None:
                    state = _IN_CORE
                else:
                    state = _IN_CORE
                    graph.vote(u, v, RelType.P2P, weight)
                    result.voted_edges.add(key)
            elif u in core_vertices and v not in core_vertices:
                state = _DOWNHILL
                graph.vote(u, v, RelType.P2C, weight)
                result.voted_edges.add(key)
            elif state == _DOWNHILL and v in core_vertices:
                graph.vote_invalid(u, v, weight)
                result.valley_paths += weight
                break
            else:
                if state == _UPHILL:
                    graph.vote(u, v, RelType.C2P, weight)
                elif state == _IN_CORE:
                    graph.vote(u, v, RelType.P2P, weight)
                else:
                    graph.vote(u, v, RelType.P2C, weight)
                result.voted_edges.add(key)
    return result


@dataclass
class Phase2Result:
    voted_edges: set[EdgeKey] = field(default_factory=set)
    rounds: int = 0


def _label(tally: VoteTally, threshold: float) -> RelType:
    """The relationship whose vote share reaches the threshold, else
    UNCLASSIFIED. The threshold exceeds 0.5, so at most one share can."""
    total = tally.low_customer + tally.high_customer + tally.p2p
    if total:
        if tally.low_customer / total >= threshold:
            return RelType.C2P
        if tally.high_customer / total >= threshold:
            return RelType.P2C
        if tally.p2p / total >= threshold:
            return RelType.P2P
    return RelType.UNCLASSIFIED


def _snapshot(
    graph: AsGraph, config: InferenceConfig
) -> tuple[dict[EdgeKey, RelType], set[EdgeKey]]:
    """Classification snapshot: directional anchors and vote-less edges.

    An anchor is an edge whose tally already decides c2p or p2c under the
    configured rule. Edges with no classification votes at all are the
    candidates phase 2 may vote on.
    """
    threshold = config.threshold
    plurality = config.phase2_anchor == ANCHOR_PLURALITY
    anchors: dict[EdgeKey, RelType] = {}
    unvoted: set[EdgeKey] = set()
    for key in graph.edges:
        tally = graph.tally(key)
        low_c = tally.low_customer
        high_c = tally.high_customer
        p2p = tally.p2p
        if low_c + high_c + p2p == 0:
            unvoted.add(key)
        elif plurality:
            if low_c > high_c and low_c > p2p:
                anchors[key] = RelType.C2P
            elif high_c > low_c and high_c > p2p:
                anchors[key] = RelType.P2C
        else:
            rel = _label(tally, threshold)
            if rel is RelType.C2P or rel is RelType.P2C:
                anchors[key] = rel
    return anchors, unvoted


def phase2(
    graph: AsGraph,
    periphery: Iterable[AsPath],
    config: InferenceConfig,
) -> Phase2Result:
    """Fixpoint vote propagation over paths that never touch the core.

    Votes only fill edges that had none, so the set of unvoted edges only
    shrinks, and a path with no unvoted edge in one round can never vote
    again. Each round therefore walks only the paths that still had an
    unvoted edge in the round before.
    """
    periphery = list(periphery)
    result = Phase2Result()
    while True:
        result.rounds += 1
        anchors, unvoted = _snapshot(graph, config)
        pending: list[tuple[int, int, RelType, int]] = []
        still_open: list[AsPath] = []
        for path in periphery:
            weight = path.weight
            suspects_up: list[tuple[int, int]] = []
            suspects_down: list[tuple[int, int]] = []
            passed_p2c = False
            is_open = False
            for u, v in path.edges():
                key = (u, v) if u < v else (v, u)
                anchor = anchors.get(key)
                rel = oriented(anchor, u, v) if anchor is not None else None
                if rel is RelType.C2P and suspects_up:
                    for su, sv in suspects_up:
                        pending.append((su, sv, RelType.C2P, weight))
                    suspects_up = []
                elif rel is RelType.P2C:
                    suspects_up = []
                    passed_p2c = True
                if key in unvoted:
                    is_open = True
                    if passed_p2c:
                        suspects_down.append((u, v))
                    else:
                        suspects_up.append((u, v))
            if is_open:
                still_open.append(path)
            for su, sv in suspects_down:
                pending.append((su, sv, RelType.P2C, weight))
        if not pending:
            break
        periphery = still_open
        for u, v, rel, weight in pending:
            graph.vote(u, v, rel, weight)
            result.voted_edges.add((u, v) if u < v else (v, u))
    return result


def finalize(
    graph: AsGraph,
    config: InferenceConfig,
    core: CoreGraph,
    phase1_voted: set[EdgeKey] | None = None,
) -> dict[EdgeKey, Classification]:
    """Turn tallies into one Classification per edge.

    Core preassignments win outright. Otherwise an edge is classified when
    one share reaches the threshold, tagged by whether any phase 1 vote
    contributed; everything else stays unclassified for the heuristics to
    look at.
    """
    phase1_voted = phase1_voted or set()
    threshold = config.threshold
    out: dict[EdgeKey, Classification] = {}
    for key in graph.edges:
        tally = graph.tally(key)
        rel = core.preassigned.get(key)
        if rel is not None:
            method = METHOD_CORE_PREASSIGNED
        else:
            rel = _label(tally, threshold)
            if rel is RelType.UNCLASSIFIED:
                method = METHOD_UNCLASSIFIED
            elif key in phase1_voted:
                method = METHOD_DETERMINISTIC_P1
            else:
                method = METHOD_DETERMINISTIC_P2
        out[key] = Classification(
            key,
            rel,
            method,
            *tally.shares(),
            tally.classification_votes(),
            tally.invalid,
        )
    return out
