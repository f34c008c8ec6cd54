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

Every stage works on a Corpus, the paths compiled once into edge ids, and
on the graph's flat per-edge counters. A path's votes depend only on the
labels of its own edges, so phase 2 re-walks, after its first round, only
the paths through an edge voted in the round before (semi-naive
evaluation): every other path would cast the votes it cast before, none.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .core import CoreGraph
from .errors import ConfigurationError
from .graph import (
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

ANCHOR_THRESHOLD = "threshold"
ANCHOR_PLURALITY = "plurality"

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
    """Paths split by how they relate to the core. The invalid paths are
    those whose run of consecutive core vertices exceeds the hop limit."""

    through_core: Corpus
    periphery: Corpus
    invalid: Corpus

    @property
    def total(self) -> int:
        """Observations in all three classes: each path counts its weight."""
        return self.through_core.weight + self.periphery.weight + self.invalid.weight


def partition_paths(
    paths: Corpus, core: CoreGraph, max_core_hops: int = 3
) -> PathPartition:
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


_UPHILL = 0
_IN_CORE = 1
_DOWNHILL = 2


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
    path's contribution.
    """
    paths, weights = through_core.paths, through_core.weights
    edge_ids, offsets = through_core.edge_ids, through_core.offsets
    low, high, p2p, invalid = graph.counters
    core_vertices = core.vertices
    # Core edge id -> its preassigned label (low->high), or None.
    core_edges = {
        graph.edge_index[key]: core.preassigned.get(key)
        for key in core.edges
        if key in graph.edge_index
    }
    valley_paths = 0
    for p in through_core.members:
        hops = paths[p].hops
        weight = weights[p]
        state = _UPHILL
        for e, u, v in zip(edge_ids[offsets[p] : offsets[p + 1]], hops, hops[1:]):
            # A c2p vote in walk order makes u the customer, a p2c vote v.
            if e in core_edges:
                pre = core_edges[e]
                descends = pre is (RelType.P2C if u < v else RelType.C2P)
                if state == _DOWNHILL and not descends:
                    invalid[e] += weight
                    valley_paths += weight
                    break
                if descends:
                    state = _DOWNHILL
                else:
                    state = _IN_CORE
                    if pre is None:
                        p2p[e] += weight
            elif u in core_vertices and v not in core_vertices:
                state = _DOWNHILL
                if u < v:
                    high[e] += weight
                else:
                    low[e] += weight
            elif state == _DOWNHILL and v in core_vertices:
                invalid[e] += weight
                valley_paths += weight
                break
            elif state == _IN_CORE:
                p2p[e] += weight
            elif (state == _UPHILL) == (u < v):
                low[e] += weight
            else:
                high[e] += weight
    # Every phase-1 vote has weight >= 1 and the graph had none before, so
    # the voted edges are those with a nonzero count.
    voted = {
        key
        for key, lc, hc, pp in zip(graph.edge_keys, low, high, p2p)
        if lc or hc or pp
    }
    return Phase1Result(voted, valley_paths)


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


# What phase 2 knows of an edge: voted without a direction, an anchor with
# the low or the high endpoint as the customer, or not voted at all.
_VOTED = 0
_LOW_CUSTOMER = 1
_HIGH_CUSTOMER = 2
_UNVOTED = 3


def _status(low: int, high: int, p2p: int, config: InferenceConfig) -> int:
    """An anchor is an edge whose counts already decide c2p or p2c under
    the configured rule; phase 2 votes only on unvoted edges."""
    if low + high + p2p == 0:
        return _UNVOTED
    if config.phase2_anchor == ANCHOR_PLURALITY:
        if low > high and low > p2p:
            return _LOW_CUSTOMER
        if high > low and high > p2p:
            return _HIGH_CUSTOMER
        return _VOTED
    rel = _label(vote_shares(low, high, p2p), config.threshold)
    if rel is RelType.C2P:
        return _LOW_CUSTOMER
    if rel is RelType.P2C:
        return _HIGH_CUSTOMER
    return _VOTED


def phase2(graph: AsGraph, periphery: Corpus, config: InferenceConfig) -> Phase2Result:
    """Fixpoint vote propagation over paths that never touch the core.

    Each round reads the edge statuses frozen at its start and sums its
    votes per edge; they land when the round ends. The first round walks
    the periphery paths through an unvoted edge, and round r + 1 only those
    through an edge voted in round r.
    """
    paths, weights = periphery.paths, periphery.weights
    edge_ids, offsets = periphery.edge_ids, periphery.offsets
    path_starts, path_ids = periphery.incidence
    low, high, p2p = graph.low_customer, graph.high_customer, graph.p2p
    status = bytearray(_status(*counts, config) for counts in zip(low, high, p2p))
    # 1 marks a periphery path, 2 one already on the round's worklist.
    marks = bytearray(len(paths))
    for p in periphery.members:
        marks[p] = 1
    # Votes fill only unvoted edges, so the first round needs only the paths
    # through one.
    changed = [e for e, s in enumerate(status) if s == _UNVOTED]
    rounds = 0
    while True:
        worklist = []
        for e in changed:
            for p in path_ids[path_starts[e] : path_starts[e + 1]]:
                if marks[p] == 1:
                    marks[p] = 2
                    worklist.append(p)
        for p in worklist:
            marks[p] = 1
        rounds += 1
        # Votes summed per edge: under e when they make the low endpoint the
        # customer, under ~e when they make the high one.
        pending: dict[int, int] = {}
        for p in worklist:
            hops = paths[p].hops
            weight = weights[p]
            cast: list[int] = []
            suspects_up: list[int] = []
            passed_p2c = False
            for e, u, v in zip(edge_ids[offsets[p] : offsets[p + 1]], hops, hops[1:]):
                s = status[e]
                if s == _UNVOTED:
                    # Downhill an unvoted edge is p2c in walk order, so v is
                    # the customer; uphill it would be c2p, making u one.
                    if passed_p2c:
                        cast.append(e if v < u else ~e)
                    else:
                        suspects_up.append(e if u < v else ~e)
                elif s == _VOTED:
                    continue
                elif (s == _LOW_CUSTOMER) == (u < v):
                    # A c2p anchor in walk order.
                    cast += suspects_up
                    suspects_up = []
                else:
                    suspects_up = []
                    passed_p2c = True
            for x in cast:
                pending[x] = pending.get(x, 0) + weight
        if not pending:
            return Phase2Result(rounds)
        for x, weight in pending.items():
            if x >= 0:
                low[x] += weight
            else:
                high[~x] += weight
        changed = {x if x >= 0 else ~x for x in pending}
        for e in changed:
            status[e] = _status(low[e], high[e], p2p[e], config)


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
    for key, low, high, p2p, invalid in zip(graph.edge_keys, *graph.counters):
        shares = vote_shares(low, high, p2p)
        rel = core.preassigned.get(key)
        if rel is not None:
            method = METHOD_CORE_PREASSIGNED
        else:
            rel = _label(shares, threshold)
            if rel is RelType.UNCLASSIFIED:
                method = METHOD_UNCLASSIFIED
            elif key in phase1_voted:
                method = METHOD_DETERMINISTIC_P1
            else:
                method = METHOD_DETERMINISTIC_P2
        out[key] = Classification(key, rel, method, *shares, low + high + p2p, invalid)
    return out
