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
p2c-classified edge must be p2c. Each round reads the labels as they stood
at its start, and rounds repeat until one casts no vote, so the outcome
does not depend on path order.

Every stage works on a Corpus, the paths compiled once into arc ids, and
on the graph's flat counters (see AsGraph). A hop over arc a that makes
its tail the customer votes into customer[a], one that makes its head the
customer into customer[a ^ 1]. No walk compares AS numbers.

Phase 1 runs the walk as a finite automaton driven by transition tables
(Aho et al., Compilers, 2nd ed., 3.6-3.8): one row per state, uphill, in
the core, downhill and a sink, each indexed by arc, whose entry gives the
slot the hop votes into and the next state's row. A valley vote sends the
walk to the sink, whose entries all vote into a dummy slot, so the loop
has no branch and each valley path casts exactly one invalid vote. Only
the arcs with an endpoint in the core depend on the core: each run builds
the rows for a walk away from the core with array slice operations and
patches only those arcs, found by one scan of the edge keys by id.

The partition tests no path: from the corpus's edge-to-path index it
marks, one flag byte per path, the paths through an edge with a core
endpoint, and counts each path's hops between two core vertices. k core
vertices in a row are k - 1 consecutive such hops, so only a path with
max_core_hops of them is walked, over its arcs. Each class's member mask
is one translate of the flags.

A path's votes depend only on the labels of its own edges, and it votes
only on an open one. Every vote weighs at least 1, so a round's voted
edges are the open edges that now have votes, and a round with none ends
phase 2. Each later round re-walks only the paths through an edge voted
in the last round (semi-naive evaluation, Bancilhon and Ramakrishnan,
SIGMOD 1986) or only the paths through an edge still open, whichever set
the index lists fewer paths for: a path outside either set would cast no
vote. Corpus.through selects each round's paths. Phase 2 reads one label
byte per arc, as the gap pass does: the edge's label code read along the
arc (graph.arc_labels), so c2p or p2c in walk order. An edge without
votes reads as unclassified, an edge whose share reaches the threshold as
its c2p or p2c label, and any other voted edge as p2p.

finalize turns the counters into an EdgeLabels: a label code and a method
code per edge id, in two bytearrays, which the heuristics, the metrics
and the CSV writer read without building one record per edge. Phase 1
reports the edges it voted on by id, and finalize marks them by id.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

from .core import CoreGraph
from .errors import ConfigurationError
from .graph import (
    FLIPPED,
    LABEL_C2P,
    LABEL_P2C,
    LABEL_P2P,
    LABEL_RELS,
    LABEL_UNCLASSIFIED,
    METHOD_CODES,
    METHOD_CORE_PREASSIGNED,
    METHOD_DETERMINISTIC_P1,
    METHOD_DETERMINISTIC_P2,
    METHOD_UNCLASSIFIED,
    AsGraph,
    Corpus,
    EdgeLabels,
    arc_labels,
)

# bytes.translate table from a label code to finalize's method code ahead
# of the phase-1 and core marks: unclassified, or else deterministic-p2.
_METHOD_OF_LABEL = bytes(
    METHOD_CODES[METHOD_UNCLASSIFIED]
    if code == LABEL_UNCLASSIFIED
    else METHOD_CODES[METHOD_DETERMINISTIC_P2]
    for code in range(256)
)


@dataclass
class InferenceConfig:
    """Inference parameters.

    threshold is the vote share an edge must reach to be classified; it
    must exceed 0.5 so at most one relationship can win. Phase 2 takes an
    edge as classified by the same rule. max_core_hops bounds how many
    consecutive core vertices a path may cross; one that crosses more is
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


# A path's flags in partition_paths: a member of the corpus partitioned, a
# path with a core vertex, and one with too long a run of them.
_MEMBER, _THROUGH_CORE, _TOO_LONG = 1, 2, 4
# bytes.translate tables from flags to 1 for a member of each class, in
# PathPartition's order: through the core, periphery, invalid.
_CLASS_MASKS = [
    bytes(flags == member for flags in range(256))
    for member in (_MEMBER | _THROUGH_CORE, _MEMBER, _MEMBER | _THROUGH_CORE | _TOO_LONG)
]


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
    aside as invalid and never votes. The paths are classed from the
    edge-to-path index, one flag byte per path: each path it lists under
    an edge with a core endpoint traverses the core, and each one it lists
    under an edge between two core vertices, a path once per traversal,
    counts a core hop. k core vertices in a row are k - 1 consecutive core
    hops, so a path is too long once such a run reaches max_core_hops; only
    a path with that many core hops is walked, over its arcs. Each class is
    a subset of paths whose member mask is one translate of the flags.
    """
    core_vertices = core.vertices
    # A count at the cap means "maybe too long"; a byte holds up to 255.
    cap = min(max_core_hops, 255)
    flags = bytearray(paths.member_mask)
    core_hops = bytearray(len(flags))
    # One byte per edge: 1 for an edge between two core vertices.
    core_edge = bytearray(len(paths.edge_keys))
    at_cap = []
    path_starts, path_ids = paths.incidence
    for e, (u, v) in enumerate(paths.edge_keys):
        low, high = u in core_vertices, v in core_vertices
        if low or high:
            listed = path_ids[path_starts[e] : path_starts[e + 1]]
            for p in listed:
                flags[p] |= _THROUGH_CORE
            if low and high:
                core_edge[e] = 1
                for p in listed:
                    if core_hops[p] < cap:
                        core_hops[p] += 1
                        if core_hops[p] == cap:
                            at_cap.append(p)
    arcs, offsets = paths.arcs, paths.offsets
    for p in at_cap:
        run = 0
        for a in arcs[offsets[p] : offsets[p + 1]]:
            if core_edge[a >> 1]:
                run += 1
                if run >= max_core_hops:
                    flags[p] |= _TOO_LONG
                    break
            else:
                run = 0
    flags = bytes(flags)
    return PathPartition(*(paths.subset(flags.translate(t)) for t in _CLASS_MASKS))


@dataclass
class Phase1Result:
    """The ids of the edges phase 1 voted on, in increasing order;
    valley_paths sums the weights of paths that drew an invalid vote."""

    voted_edges: list[int] = field(default_factory=list)
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
    core edge follows its preassigned label code, read along each arc
    through FLIPPED: an arc that reads p2c moves the walk downhill, any
    other keeps the walk in the core, voting p2p only when no label is
    preassigned; downhill, any arc that does not read p2c is invalid.
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

    vertices = core.vertices
    for e, key in enumerate(graph.edge_keys):
        low, high = key[0] in vertices, key[1] in vertices
        if low != high:
            # Arc 2e walks low -> high, so the arc a that leaves the core is
            # 2e when only the low end is a core vertex and 2e + 1 when only
            # the high end is; a ^ 1 enters it.
            a = 2 * e + high
            patch((up, in_core, down), a, a ^ 1, down)
            patch((down,), a ^ 1, invalid + e, sink)
        elif low and key not in core.edges:
            for b in (2 * e, 2 * e + 1):
                patch((down,), b, invalid + e, sink)
        elif low:
            pre = core.preassigned.get(key)
            vote = p2p + e if pre is None else dummy
            code = LABEL_UNCLASSIFIED if pre is None else LABEL_RELS.index(pre)
            for b, label in ((2 * e, code), (2 * e + 1, FLIPPED[code])):
                if label == LABEL_P2C:
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
    customer, p2p, invalid = graph.customer, graph.p2p, graph.invalid
    customer[:] = votes[:n]
    p2p[:] = votes[n : n + n_edges]
    invalid[:] = votes[n + n_edges : 2 * n]
    # Every phase-1 vote has weight >= 1 and the graph started without
    # votes, so the voted edges are those with a nonzero count.
    voted = list(
        compress(range(n_edges), map(any, zip(customer[0::2], customer[1::2], p2p)))
    )
    return Phase1Result(voted, sum(invalid))


@dataclass
class Phase2Result:
    rounds: int = 0


def _label_codes(
    counts: Iterable[tuple[int, int, int]], threshold: float, below: int
) -> bytearray:
    """The label code of each edge with these (low, high, p2p) counts:
    unclassified without votes, c2p, p2c or p2p when that share reaches
    the threshold, else below. The threshold exceeds 0.5, so at most one
    share can; the shares are vote_shares's."""
    return bytearray(
        LABEL_UNCLASSIFIED
        if not (total := low + high + p2p)
        else LABEL_C2P
        if low / total >= threshold
        else LABEL_P2C
        if high / total >= threshold
        else LABEL_P2P
        if p2p / total >= threshold
        else below
        for low, high, p2p in counts
    )


def phase2(graph: AsGraph, periphery: Corpus, config: InferenceConfig) -> Phase2Result:
    """Fixpoint vote propagation over paths that never touch the core.

    Each round reads the arc labels frozen at its start; its votes land
    in the counters at once but change the labels only when the round
    ends. A path votes only on an open edge, with a weight of at least 1,
    so the edges a round voted are the open edges that now have votes; a
    round that voted none ends phase 2. The first round walks the
    periphery paths through an open edge. A path votes anew only when an
    edge on it was voted in the last round, so each later round walks the
    periphery paths through whichever of the voted and the still open
    edges the index lists fewer paths for. periphery.through selects them.
    """
    weights, arcs, offsets = periphery.weights, periphery.arcs, periphery.offsets
    path_starts = periphery.incidence[0]
    customer, p2p = graph.customer, graph.p2p
    threshold = config.threshold
    # A voted edge with no share at the threshold reads as p2p.
    codes = _label_codes(zip(customer[0::2], customer[1::2], p2p), threshold, LABEL_P2P)
    labels = arc_labels(codes)
    open_edges = [e for e in range(graph.n_edges) if codes[e] == LABEL_UNCLASSIFIED]
    edges = open_edges
    rounds = 0
    while True:
        rounds += 1
        for p in periphery.through(edges):
            weight = weights[p]
            suspects_up: list[int] = []
            passed_p2c = False
            for a in arcs[offsets[p] : offsets[p + 1]]:
                s = labels[a]
                if s == LABEL_UNCLASSIFIED:
                    # Downhill an open hop is p2c in walk order, so its head
                    # is the customer; uphill it would be c2p, its tail.
                    if passed_p2c:
                        customer[a ^ 1] += weight
                    else:
                        suspects_up.append(a)
                elif s == LABEL_C2P:
                    for x in suspects_up:
                        customer[x] += weight
                    suspects_up = []
                elif s == LABEL_P2C:
                    suspects_up = []
                    passed_p2c = True
        # Read the open edges' counters: those with votes now were voted.
        codes = _label_codes(
            ((customer[2 * e], customer[2 * e + 1], p2p[e]) for e in open_edges),
            threshold,
            LABEL_P2P,
        )
        voted, still_open = [], []
        for e, code in zip(open_edges, codes):
            if code == LABEL_UNCLASSIFIED:
                still_open.append(e)
            else:
                voted.append(e)
                labels[2 * e : 2 * e + 2] = (code, FLIPPED[code])
        if not voted:
            return Phase2Result(rounds)
        open_edges = still_open
        voted_load = sum(path_starts[e + 1] - path_starts[e] for e in voted)
        open_load = sum(path_starts[e + 1] - path_starts[e] for e in open_edges)
        edges = voted if voted_load <= open_load else open_edges


def finalize(
    graph: AsGraph,
    config: InferenceConfig,
    core: CoreGraph,
    phase1_voted: Iterable[int] = (),
) -> EdgeLabels:
    """The label of every edge from the counters.

    Core preassignments win outright. Otherwise an edge is classified when
    one share reaches the threshold, tagged by whether any phase 1 vote
    contributed: phase1_voted holds the ids of the edges phase 1 voted on.
    Everything else stays unclassified for the heuristics to look at. The
    votes stay in graph's counters.
    """
    customer = graph.customer
    rels = _label_codes(
        zip(customer[0::2], customer[1::2], graph.p2p),
        config.threshold,
        LABEL_UNCLASSIFIED,
    )
    methods = rels.translate(_METHOD_OF_LABEL)
    p1 = METHOD_CODES[METHOD_DETERMINISTIC_P1]
    for e in phase1_voted:
        if rels[e] != LABEL_UNCLASSIFIED:
            methods[e] = p1
    method = METHOD_CODES[METHOD_CORE_PREASSIGNED]
    index = graph.edge_index
    for key, rel in core.preassigned.items():
        e = index.get(key)
        if e is not None:
            rels[e] = LABEL_RELS.index(rel)
            methods[e] = method
    return EdgeLabels(graph, rels, methods)
