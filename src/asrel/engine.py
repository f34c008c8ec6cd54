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

Every stage works on a Corpus, the paths compiled once into arc ids, and
on the graph's flat per-edge counters. Arc a is edge a >> 1 walked from
its lower-numbered endpoint when a is even, from its higher one when odd.
A vote that makes the walk's tail the customer goes to slot a of the
customer counts and one that makes its head the customer to slot a ^ 1;
slot 2e is edge e's low-customer count and slot 2e + 1 its high-customer
count. No walk compares AS numbers.

Phase 1 runs the walk as a finite automaton driven by transition tables
(Aho et al., Compilers, 2nd ed., 3.6-3.8): one row per state, uphill, in
the core, downhill and a sink, each indexed by arc, whose entry gives the
slot the hop votes into and the next state's row. A valley vote sends the
walk to the sink, whose entries all vote into a dummy slot, so the loop
has no branch and each valley path casts exactly one invalid vote. Only
the arcs with an endpoint in the core depend on the core: each run builds
the rows for a walk away from the core with array slice operations and
patches only those arcs.

A path's votes depend only on the labels of its own edges, so phase 2
re-walks, after its first round, only the paths through an edge voted in
the round before (semi-naive evaluation): every other path would cast the
votes it cast before, none. It reads one label byte per arc, in the
encoding the gap pass reads (graph.ARC_LABELS): open for an edge without
votes, up or down for an anchor, an edge whose share reaches the
threshold for c2p or p2c, and other for any other voted edge.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from operator import ne

from .core import CoreGraph
from .errors import ConfigurationError
from .graph import (
    ARC_DOWN,
    ARC_LABELS,
    ARC_OPEN,
    ARC_UP,
    METHOD_CORE_PREASSIGNED,
    METHOD_DETERMINISTIC_P1,
    METHOD_DETERMINISTIC_P2,
    METHOD_UNCLASSIFIED,
    AsGraph,
    Classification,
    Corpus,
    EdgeKey,
    RelType,
    vote_shares,
)


@dataclass
class InferenceConfig:
    """Inference parameters.

    threshold is the vote share an edge must reach to be classified; it
    must exceed 0.5 so at most one relationship can win. Phase 2 takes an
    edge as classified by the same rule. max_core_hops bounds how many
    consecutive core vertices a path may cross before it is considered
    invalid.
    """

    threshold: float = 0.8
    max_core_hops: int = 3

    def __post_init__(self):
        if not 0.5 < self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0.5, 1.0], got {self.threshold}"
            )
        if self.max_core_hops < 1:
            raise ConfigurationError(
                f"max_core_hops must be >= 1, got {self.max_core_hops}"
            )


@dataclass
class PathPartition:
    """Paths split by how they relate to the core. The invalid paths are
    those whose run of consecutive core vertices exceeds the hop limit."""

    through_core: Corpus
    periphery: Corpus
    invalid: Corpus


def partition_paths(paths: Corpus, core: CoreGraph, max_core_hops: int) -> PathPartition:
    """Split paths into core-traversing, periphery, and invalid.

    A path traverses the core if any hop is a core vertex. A path whose
    longest run of consecutive core vertices exceeds max_core_hops is set
    aside as invalid and never votes.
    """
    core_vertices = core.vertices
    classes = (array("i"), array("i"), array("i"))
    through_core, periphery, invalid = classes
    all_paths = paths.paths
    for p in paths.members:
        hops = all_paths[p].hops
        if core_vertices.isdisjoint(hops):
            periphery.append(p)
            continue
        run = 0
        for h in hops:
            if h in core_vertices:
                run += 1
                if run > max_core_hops:
                    invalid.append(p)
                    break
            else:
                run = 0
        else:
            through_core.append(p)
    return PathPartition(*(paths.subset(members) for members in classes))


@dataclass
class Phase1Result:
    """Edges phase 1 voted on; valley_paths sums the weights of paths that
    drew an invalid vote."""

    voted_edges: set[EdgeKey] = field(default_factory=set)
    valley_paths: int = 0


# Phase 1 walk states, in the order of their rows in the transition tables.
_UPHILL, _IN_CORE, _DOWNHILL, _SINK = range(4)


def _phase1_rows(graph: AsGraph, core: CoreGraph) -> tuple[array, array]:
    """Phase 1's transition tables for graph, relative to core.

    Both tables hold one row of 2 * n_edges entries per walk state. Entry a
    of a row is for arc a: slots gives the vote slot it adds the path's
    weight to, moves the start of the next state's row. Slot a is the
    tail-customer vote of arc a, slot a ^ 1 its head-customer vote; slot
    2 * n_edges + e counts edge e's p2p votes, slot 3 * n_edges + e its
    invalid votes, and the last slot takes the votes of paths gone to the
    sink.

    Away from the core the walk keeps its state: uphill the tail is the
    customer, downhill the head, and in the core the edge is a peering.
    These default rows are built with slice operations; then only the arcs
    with an endpoint in core are patched. An arc leaving the core moves
    every live state downhill with a head-customer vote. Downhill, an arc
    entering the core, or joining two core members over an edge that is not
    a core edge, casts an invalid vote and sends the walk to the sink. A
    core edge follows its preassigned label: walked in its p2c direction it
    moves the walk downhill, otherwise it keeps the walk in the core, voting
    p2p only when no label is preassigned; downhill, anything but its p2c
    direction is invalid.
    """
    n_edges = graph.n_edges
    n = 2 * n_edges
    states = (_UPHILL, _IN_CORE, _DOWNHILL, _SINK)
    up, in_core, down, sink = (state * n for state in states)
    p2p, invalid, dummy = n, 3 * n_edges, 4 * n_edges
    arcs = array("i", range(n))
    slots = array("i", [dummy]) * (4 * n)
    slots[up : up + n] = arcs
    peers = array("i", range(p2p, p2p + n_edges))
    slots[in_core : in_core + n : 2] = slots[in_core + 1 : in_core + n : 2] = peers
    slots[down : down + n : 2] = arcs[1::2]
    slots[down + 1 : down + n : 2] = arcs[::2]
    moves = array("i", [0]) * (4 * n)
    for row in (up, in_core, down, sink):
        moves[row : row + n] = array("i", [row]) * n

    def patch(rows, b, slot, move):
        for row in rows:
            slots[row + b] = slot
            moves[row + b] = move

    index = graph.edge_index
    vertices = core.vertices
    for c in vertices & graph.vertices:
        for v in graph.neighbors(c):
            key = (c, v) if c < v else (v, c)
            e = index[key]
            a = 2 * e + (c > v)
            if v not in vertices:
                # a leaves the core, a ^ 1 enters it.
                patch((up, in_core, down), a, a ^ 1, down)
                patch((down,), a ^ 1, invalid + e, sink)
            elif c > v:
                continue  # each edge inside the core once, from its low end
            elif key not in core.edges:
                for b in (a, a ^ 1):
                    patch((down,), b, invalid + e, sink)
            else:
                pre = core.preassigned.get(key)
                vote = p2p + e if pre is None else dummy
                flipped = None if pre is None else pre.flipped()
                for b, rel in ((a, pre), (a ^ 1, flipped)):
                    if rel is RelType.P2C:
                        patch((up, in_core, down), b, dummy, down)
                    else:
                        patch((up, in_core), b, vote, in_core)
                        patch((down,), b, invalid + e, sink)
    return slots, moves


def phase1(
    graph: AsGraph,
    through_core: Corpus,
    core: CoreGraph,
    config: InferenceConfig | None = None,
) -> Phase1Result:
    """Cast votes from every core-traversing path, on a graph without votes.

    Core edges with a preassigned label are not re-voted, but their
    direction still drives the walk state: descending over a preassigned
    p2c core edge puts the walk downhill, and any later move back up to a
    core vertex draws an invalid vote. An invalid vote always ends the
    path's contribution: the walk goes to the sink. So each valley path
    casts one invalid vote, and valley_paths is their sum.
    """
    weights, arcs = through_core.weights, through_core.arcs
    offsets = through_core.offsets
    slots, moves = _phase1_rows(graph, core)
    n_edges = graph.n_edges
    n = 2 * n_edges
    votes = [0] * (4 * n_edges + 1)
    for p in through_core.members:
        weight = weights[p]
        row = _UPHILL * n
        for a in arcs[offsets[p] : offsets[p + 1]]:
            i = row + a
            votes[slots[i]] += weight
            row = moves[i]
    low, high, p2p, invalid = graph.counters
    low[:] = votes[0:n:2]
    high[:] = votes[1:n:2]
    p2p[:] = votes[n : n + n_edges]
    invalid[:] = votes[n + n_edges : 2 * n]
    # Every phase-1 vote has weight >= 1 and the graph had none before, so
    # the voted edges are those with a nonzero count.
    voted = {
        key
        for key, lc, hc, pp in zip(graph.edge_keys, low, high, p2p)
        if lc or hc or pp
    }
    return Phase1Result(voted, sum(invalid))


@dataclass
class Phase2Result:
    rounds: int = 0


def _label(shares: tuple[float, float, float], threshold: float) -> RelType:
    """The relationship whose vote share reaches the threshold, else
    UNCLASSIFIED. The threshold exceeds 0.5, so at most one share can."""
    c2p, p2c, p2p = shares
    if c2p >= threshold:
        return RelType.C2P
    if p2c >= threshold:
        return RelType.P2C
    if p2p >= threshold:
        return RelType.P2P
    return RelType.UNCLASSIFIED


def _arc_labels(low: int, high: int, p2p: int, threshold: float) -> bytes:
    """The labels phase 2 reads on arcs 2e and 2e + 1 of an edge e with
    these counts: open without votes, the edge's c2p or p2c labels for an
    anchor, and other for any other voted edge. Phase 2 votes only on open
    edges."""
    if low + high + p2p == 0:
        return ARC_LABELS[RelType.UNCLASSIFIED]
    rel = _label(vote_shares(low, high, p2p), threshold)
    return ARC_LABELS[RelType.P2P if rel is RelType.UNCLASSIFIED else rel]


def phase2(graph: AsGraph, periphery: Corpus, config: InferenceConfig) -> Phase2Result:
    """Fixpoint vote propagation over paths that never touch the core.

    Each round reads the arc labels frozen at its start; its votes land
    in the counters at once but change the labels only when the round
    ends. The first round walks the periphery paths through an open edge,
    and round r + 1 only those through an edge voted in round r.
    """
    weights, arcs, offsets = periphery.weights, periphery.arcs, periphery.offsets
    path_starts, path_ids = periphery.incidence
    low, high, p2p = graph.low_customer, graph.high_customer, graph.p2p
    n = 2 * graph.n_edges
    # The customer counts by slot: edge e's low one in 2e, its high one in
    # 2e + 1.
    customer = [0] * n
    customer[0::2] = low
    customer[1::2] = high
    threshold = config.threshold
    labels = bytearray().join(
        _arc_labels(*counts, threshold) for counts in zip(low, high, p2p)
    )
    # 1 marks a periphery path, 2 one already on the round's worklist.
    marks = bytearray(len(periphery.paths))
    for p in periphery.members:
        marks[p] = 1
    # Votes fill only open edges, so the first round needs only the paths
    # through one.
    changed = [e for e in range(graph.n_edges) if labels[2 * e] == ARC_OPEN]
    rounds = 0
    while True:
        # Path ids as 4-byte ints: a round can hold nearly every path.
        worklist = array("i")
        for e in changed:
            for p in path_ids[path_starts[e] : path_starts[e + 1]]:
                if marks[p] == 1:
                    marks[p] = 2
                    worklist.append(p)
        for p in worklist:
            marks[p] = 1
        rounds += 1
        before = customer[:]
        for p in worklist:
            weight = weights[p]
            suspects_up: list[int] = []
            passed_p2c = False
            for a in arcs[offsets[p] : offsets[p + 1]]:
                s = labels[a]
                if s == ARC_OPEN:
                    # Downhill an open hop is p2c in walk order, so its head
                    # is the customer; uphill it would be c2p, its tail.
                    if passed_p2c:
                        customer[a ^ 1] += weight
                    else:
                        suspects_up.append(a)
                elif s == ARC_UP:
                    for x in suspects_up:
                        customer[x] += weight
                    suspects_up = []
                elif s == ARC_DOWN:
                    suspects_up = []
                    passed_p2c = True
        # Every vote has weight >= 1, so the edges voted in this round are
        # those with a customer count that differs from its value before.
        changed = {a >> 1 for a in compress(range(n), map(ne, customer, before))}
        if not changed:
            low[:] = customer[0::2]
            high[:] = customer[1::2]
            return Phase2Result(rounds)
        for e in changed:
            labels[2 * e : 2 * e + 2] = _arc_labels(
                customer[2 * e], customer[2 * e + 1], p2p[e], threshold
            )


def finalize(
    graph: AsGraph,
    config: InferenceConfig,
    core: CoreGraph,
    phase1_voted: set[EdgeKey] | None = None,
) -> dict[EdgeKey, Classification]:
    """Turn the counters into one Classification per edge.

    Core preassignments win outright. Otherwise an edge is classified when
    one share reaches the threshold, tagged by whether any phase 1 vote
    contributed; everything else stays unclassified for the heuristics to
    look at. The votes stay in graph's counters.
    """
    phase1_voted = phase1_voted or set()
    threshold = config.threshold
    out: dict[EdgeKey, Classification] = {}
    for key, low, high, p2p, _invalid in zip(graph.edge_keys, *graph.counters):
        rel = core.preassigned.get(key)
        if rel is not None:
            method = METHOD_CORE_PREASSIGNED
        else:
            rel = _label(vote_shares(low, high, p2p), threshold)
            if rel is RelType.UNCLASSIFIED:
                method = METHOD_UNCLASSIFIED
            elif key in phase1_voted:
                method = METHOD_DETERMINISTIC_P1
            else:
                method = METHOD_DETERMINISTIC_P2
        out[key] = Classification(key, rel, method)
    return out
