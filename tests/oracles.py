"""Independent brute-force oracles used to validate the library.

Everything here is written against the problem statement alone, with the
slowest most obvious algorithm available, so a disagreement with the
library points at the library. The exceptions are the reference engine
(partition_paths through infer_gap_p2p, and run_engine): the engine as it
was before it was compiled to edge ids, walking AsPath objects with tuple
keys and casting one vote at a time, kept to check the compiled engine;
filter_single_agent_edges, the two-agent filter as it was with a BGP
edge set and a set of agents per edge, kept to check ingest_paths's filter;
load_reference with parse_relationship, the reference parser as it
was before its one-regex fast path, checking every record field by field;
and stability, the mapping loop it was before it read label arrays.
edge_labels builds the EdgeLabels a test passes to the library.
"""

from __future__ import annotations

import graphlib
import random
import re
from dataclasses import replace
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from asrel.core import CoreGraph
from asrel.engine import InferenceConfig
from asrel.errors import CorruptionInfeasibleError, ParameterError, UnknownEdgeError
from asrel.graph import (
    LABEL_RELS,
    METHOD_CODES,
    METHOD_CORE_PREASSIGNED,
    METHOD_DETERMINISTIC_P1,
    METHOD_DETERMINISTIC_P2,
    METHOD_GAP_P2P,
    METHOD_UNCLASSIFIED,
    AsGraph,
    AsPath,
    Classification,
    EdgeKey,
    EdgeLabels,
    RelType,
    edge_key,
    oriented,
)
from asrel.ingest import REFERENCE_CODES, SiblingSet, parse_pair, read_records, set_label
from asrel.metrics import ReferenceSet

Adjacency = dict[int, set[int]]


def adjacency_from_edges(edges: list[tuple[int, int]]) -> Adjacency:
    adj: Adjacency = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def components(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Every AS named in pairs, mapped to the smallest AS it reaches by a
    breadth-first search over the pairs."""
    adj = adjacency_from_edges(pairs)
    result: dict[int, int] = {}
    for start in adj:
        seen = {start}
        frontier = [start]
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in seen]
            seen.update(frontier)
        result[start] = min(seen)
    return result


def brute_force_core_numbers(adj: Adjacency) -> dict[int, int]:
    """Core number per vertex by repeated subgraph pruning.

    For k = 0, 1, 2, ... delete vertices of degree < k until stable; a
    vertex's core number is the largest k whose surviving subgraph still
    contains it.
    """
    result = {v: 0 for v in adj}
    k = 1
    alive = set(adj)
    while alive:
        changed = True
        while changed:
            changed = False
            for v in sorted(alive):
                degree = len(adj[v] & alive)
                if degree < k:
                    alive.discard(v)
                    changed = True
        for v in alive:
            result[v] = k
        k += 1
    return result


def is_clique(adj: Adjacency, members: set[int]) -> bool:
    return all(b in adj.get(a, set()) for a, b in combinations(sorted(members), 2))


def brute_force_max_clique(adj: Adjacency) -> int:
    """Maximum clique size by bitmask subset enumeration (vertices <= ~20)."""
    vertices = sorted(adj)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    masks = [0] * n
    for v in vertices:
        for w in adj[v]:
            masks[index[v]] |= 1 << index[w]
    best = 0
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        ok = True
        remaining = subset
        while remaining:
            i = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            if (subset & ~(masks[i] | (1 << i))) != 0:
                ok = False
                break
        if ok:
            best = size
    return best


_VALLEY_RE = re.compile(r"^u*f?d*$")


def valley_free_by_regex(rel_letters: str) -> bool:
    """Valley-free check on a path spelled as letters: u=c2p, f=p2p, d=p2c."""
    return _VALLEY_RE.fullmatch(rel_letters) is not None


def digraph_is_acyclic(edges: list[tuple[int, int]]) -> bool:
    sorter = graphlib.TopologicalSorter()
    for a, b in edges:
        sorter.add(b, a)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True


def corrupted_vertices(
    core: CoreGraph, graph: AsGraph, count: int, seed: int
) -> set[int]:
    """The vertices of core.corrupt_core(core, graph, count, seed), found by
    rescanning every outside vertex before each insertion."""
    rng = random.Random(seed)
    removed = set(rng.sample(sorted(core.vertices), count))
    current = set(core.vertices) - removed
    candidates = sorted(v for v in graph.vertices if v not in core.vertices)
    chosen: set[int] = set()
    for _ in range(count):
        eligible = [
            c
            for c in candidates
            if c not in chosen
            and (not current or not graph.neighbors(c).isdisjoint(current))
        ]
        if not eligible:
            raise CorruptionInfeasibleError("no outside vertex is adjacent")
        pick = rng.choice(eligible)
        chosen.add(pick)
        current.add(pick)
    return current


def vote(graph: AsGraph, a: int, b: int, rel: RelType, weight: int = 1) -> None:
    """Cast a relationship vote for the edge (a, b) in traversal order.

    A C2P vote makes a the customer, a P2C vote makes b the customer,
    and P2P is orientation free. The vote lands on the counter matching
    the canonical orientation of the edge.
    """
    key = edge_key(a, b)
    e = graph.edge_index.get(key)
    if e is None:
        raise UnknownEdgeError(f"edge {key} not in graph")
    if rel is RelType.P2P:
        graph.p2p[e] += weight
        return
    if rel is RelType.C2P:
        customer = a
    elif rel is RelType.P2C:
        customer = b
    else:
        raise ParameterError(f"cannot vote {rel} on an edge")
    graph.customer[2 * e + (customer != key[0])] += weight


def vote_invalid(graph: AsGraph, a: int, b: int, weight: int = 1) -> None:
    key = edge_key(a, b)
    e = graph.edge_index.get(key)
    if e is None:
        raise UnknownEdgeError(f"edge {key} not in graph")
    graph.invalid[e] += weight


class Tally(NamedTuple):
    """The four counters of one edge (see AsGraph), c2p and p2c in
    low->high order."""

    c2p: int
    p2c: int
    p2p: int
    invalid: int

    def votes(self) -> int:
        """Classification votes: all but the invalid ones."""
        return self.c2p + self.p2c + self.p2p


def tally(graph: AsGraph, key: EdgeKey) -> Tally:
    """The counters of the edge key, read from graph's lists."""
    e = graph.edge_index[key]
    customer = graph.customer
    return Tally(customer[2 * e], customer[2 * e + 1], graph.p2p[e], graph.invalid[e])


def core_relationship(core: CoreGraph, key: EdgeKey) -> RelType:
    """Effective relationship of a core edge; p2p unless preassigned."""
    return core.preassigned.get(key, RelType.P2P)


def label_sequence(
    hops: Sequence[int], labels: Mapping[EdgeKey, RelType]
) -> list[RelType]:
    """Per-hop relationship sequence in traversal order.

    Consecutive duplicate hops (prepending artifacts) are skipped since
    they name no edge. Raises KeyError for edges without a label.
    """
    collapsed = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
    out = []
    for u, v in zip(collapsed, collapsed[1:]):
        out.append(oriented(labels[edge_key(u, v)], u, v))
    return out


def is_valley_free(rels: Iterable[RelType]) -> bool:
    """Check the up, at most one across, down grammar.

    Sibling edges are transparent: they extend whatever segment the path
    is in. An unclassified edge fails the check.
    """
    state = 0  # 0 uphill, 1 crossed the top, 2 downhill
    for rel in rels:
        if rel is RelType.S2S:
            continue
        if rel is RelType.C2P:
            if state != 0:
                return False
        elif rel is RelType.P2P:
            if state != 0:
                return False
            state = 1
        elif rel is RelType.P2C:
            state = 2
        else:
            return False
    return True


def path_is_valley_free(
    hops: Sequence[int], labels: Mapping[EdgeKey, RelType]
) -> bool:
    return is_valley_free(label_sequence(hops, labels))


def partition_paths(
    paths: Iterable[AsPath], core: CoreGraph, max_core_hops: int = 3
) -> tuple[list[AsPath], list[AsPath], list[AsPath]]:
    """(through_core, periphery, invalid): a path touching the core whose
    longest run of consecutive core vertices exceeds max_core_hops is
    invalid."""
    through_core, periphery, invalid = [], [], []
    for path in paths:
        longest = run = 0
        touches = False
        for h in path.hops:
            if h in core.vertices:
                touches = True
                run += 1
                longest = max(longest, run)
            else:
                run = 0
        if not touches:
            periphery.append(path)
        elif longest > max_core_hops:
            invalid.append(path)
        else:
            through_core.append(path)
    return through_core, periphery, invalid


_UPHILL, _IN_CORE, _DOWNHILL = 0, 1, 2


def phase1(
    graph: AsGraph, through_core: Iterable[AsPath], core: CoreGraph
) -> tuple[set[EdgeKey], int]:
    """Phase-1 votes, one vote() call per hop. Returns the voted edges and
    the weight of the paths that drew an invalid vote."""
    voted: set[EdgeKey] = set()
    valley_paths = 0
    for path in through_core:
        state = _UPHILL
        weight = path.weight
        for u, v in zip(path.hops, path.hops[1:]):
            key = edge_key(u, v)
            if key in core.edges:
                pre = core.preassigned.get(key)
                pre_dir = oriented(pre, u, v) if pre is not None else None
                if state == _DOWNHILL and pre_dir is not RelType.P2C:
                    vote_invalid(graph, u, v, weight)
                    valley_paths += weight
                    break
                if pre_dir is RelType.P2C:
                    state = _DOWNHILL
                elif pre_dir is not None:
                    state = _IN_CORE
                else:
                    state = _IN_CORE
                    vote(graph, u, v, RelType.P2P, weight)
                    voted.add(key)
            elif u in core.vertices and v not in core.vertices:
                state = _DOWNHILL
                vote(graph, u, v, RelType.P2C, weight)
                voted.add(key)
            elif state == _DOWNHILL and v in core.vertices:
                vote_invalid(graph, u, v, weight)
                valley_paths += weight
                break
            else:
                rel = (RelType.C2P, RelType.P2P, RelType.P2C)[state]
                vote(graph, u, v, rel, weight)
                voted.add(key)
    return voted, valley_paths


def label(tally: Tally, threshold: float) -> RelType:
    total = tally.votes()
    if total:
        if tally.c2p / total >= threshold:
            return RelType.C2P
        if tally.p2c / total >= threshold:
            return RelType.P2C
        if tally.p2p / total >= threshold:
            return RelType.P2P
    return RelType.UNCLASSIFIED


def snapshot(
    graph: AsGraph, config: InferenceConfig
) -> tuple[dict[EdgeKey, RelType], set[EdgeKey]]:
    """Directional anchors (edges whose tally decides c2p or p2c) and
    unvoted edges."""
    anchors: dict[EdgeKey, RelType] = {}
    unvoted: set[EdgeKey] = set()
    for key in graph.edge_keys:
        counts = tally(graph, key)
        if counts.votes() == 0:
            unvoted.add(key)
        else:
            rel = label(counts, config.threshold)
            if rel is RelType.C2P or rel is RelType.P2C:
                anchors[key] = rel
    return anchors, unvoted


def phase2_unpruned(
    graph: AsGraph, periphery: list[AsPath], config: InferenceConfig
) -> tuple[set[EdgeKey], int]:
    """Phase 2 walking every periphery path in every round.

    Returns the voted edges and the round count. engine.phase2 walks only
    the paths that can still vote and must cast exactly the same votes.
    """
    voted: set[EdgeKey] = set()
    rounds = 0
    while True:
        rounds += 1
        anchors, unvoted = snapshot(graph, config)
        pending: list[tuple[int, int, RelType, int]] = []
        for path in periphery:
            suspects_up: list[tuple[int, int]] = []
            suspects_down: list[tuple[int, int]] = []
            passed_p2c = False
            for u, v in zip(path.hops, path.hops[1:]):
                key = (u, v) if u < v else (v, u)
                anchor = anchors.get(key)
                rel = oriented(anchor, u, v) if anchor is not None else None
                if rel is RelType.C2P and suspects_up:
                    for su, sv in suspects_up:
                        pending.append((su, sv, RelType.C2P, path.weight))
                    suspects_up = []
                elif rel is RelType.P2C:
                    suspects_up = []
                    passed_p2c = True
                if key in unvoted:
                    if passed_p2c:
                        suspects_down.append((u, v))
                    else:
                        suspects_up.append((u, v))
            for su, sv in suspects_down:
                pending.append((su, sv, RelType.P2C, path.weight))
        if not pending:
            return voted, rounds
        for u, v, rel, weight in pending:
            vote(graph, u, v, rel, weight)
            voted.add((u, v) if u < v else (v, u))


def finalize(
    graph: AsGraph,
    config: InferenceConfig,
    core: CoreGraph,
    phase1_voted: set[EdgeKey],
) -> dict[EdgeKey, Classification]:
    out: dict[EdgeKey, Classification] = {}
    for key in graph.edge_keys:
        rel = core.preassigned.get(key)
        if rel is not None:
            method = METHOD_CORE_PREASSIGNED
        else:
            rel = label(tally(graph, key), config.threshold)
            if rel is RelType.UNCLASSIFIED:
                method = METHOD_UNCLASSIFIED
            elif key in phase1_voted:
                method = METHOD_DETERMINISTIC_P1
            else:
                method = METHOD_DETERMINISTIC_P2
        out[key] = Classification(key, rel, method)
    return out


def infer_gap_p2p(
    periphery: Iterable[AsPath], classifications: Mapping[EdgeKey, Classification]
) -> dict[EdgeKey, Classification]:
    """Every periphery path with exactly one open edge, not at either end,
    entered by a c2p edge and left by a p2c edge (in walk order) makes that
    edge p2p."""
    updates: dict[EdgeKey, Classification] = {}
    for path in periphery:
        keys: list[EdgeKey] = []
        rels: list[RelType | None] = []
        for u, v in zip(path.hops, path.hops[1:]):
            key = edge_key(u, v)
            cls = classifications.get(key)
            if cls is None or cls.rel is RelType.UNCLASSIFIED:
                rels.append(None)
            else:
                rels.append(oriented(cls.rel, u, v))
            keys.append(key)
        gaps = [i for i, r in enumerate(rels) if r is None]
        if len(gaps) != 1:
            continue
        i = gaps[0]
        if i == 0 or i == len(rels) - 1:
            continue
        if rels[i - 1] is RelType.C2P and rels[i + 1] is RelType.P2C:
            key = keys[i]
            base = classifications.get(key)
            if base is not None and key not in updates:
                updates[key] = replace(base, rel=RelType.P2P, method=METHOD_GAP_P2P)
    return updates


def run_engine(
    graph: AsGraph, paths: list[AsPath], core: CoreGraph, config: InferenceConfig
) -> tuple[dict[EdgeKey, Classification], int, int, set[EdgeKey]]:
    """The reference engine end to end on a copy of graph: classifications
    after the gap pass, phase-2 rounds, valley paths and phase-1 edges."""
    work = graph.copy_unvoted()
    through_core, periphery, _invalid = partition_paths(paths, core, config.max_core_hops)
    voted, valley_paths = phase1(work, through_core, core)
    _, rounds = phase2_unpruned(work, periphery, config)
    classifications = finalize(work, config, core, voted)
    classifications.update(infer_gap_p2p(periphery, classifications))
    return classifications, rounds, valley_paths, voted


def tiebreak(rank_low: int, rank_high: int, mode: str) -> RelType:
    """The tie-break of an edge whose low and high endpoints have these
    ranks: degree mode peers degrees within a 4:5 band, k-shell mode peers
    equal shells, and otherwise the higher-ranked endpoint is the
    provider."""
    if mode == "kshell":
        peer = rank_low == rank_high
    else:
        peer = 5 * min(rank_low, rank_high) >= 4 * max(rank_low, rank_high)
    if peer:
        return RelType.P2P
    return RelType.P2C if rank_low > rank_high else RelType.C2P


def stability(
    a: Mapping[EdgeKey, Classification], b: Mapping[EdgeKey, Classification]
) -> tuple[float | None, int]:
    """Agreement on the edges classified in both of two runs'
    classifications, and their number; None when none overlap."""
    shared = agree = 0
    for key, cls in a.items():
        other = b.get(key)
        if (
            other is not None
            and cls.rel is not RelType.UNCLASSIFIED
            and other.rel is not RelType.UNCLASSIFIED
        ):
            shared += 1
            agree += cls.rel is other.rel
    if not shared:
        return None, 0
    return agree / shared, shared


def edge_labels(
    records: Iterable[Classification], graph: AsGraph | None = None
) -> EdgeLabels:
    """Edge labels holding records, over graph's edge ids, or over a new
    graph of the records' edges when graph is None; an edge without a
    record is unclassified."""
    records = list(records)
    if graph is None:
        graph = AsGraph(record.edge for record in records)
    n = graph.n_edges
    labels = EdgeLabels(
        graph,
        bytearray([LABEL_RELS.index(RelType.UNCLASSIFIED)]) * n,
        bytearray([METHOD_CODES[METHOD_UNCLASSIFIED]]) * n,
    )
    labels.update(
        {
            graph.edge_index[record.edge]: (
                LABEL_RELS.index(record.rel),
                METHOD_CODES[record.method],
            )
            for record in records
        }
    )
    return labels


def filter_single_agent_edges(
    paths: Iterable[AsPath]
) -> tuple[list[AsPath], int, int]:
    """Drop traceroute-only edges observed by fewer than two agents.

    An edge survives if at least two distinct agents reported it or if it
    appears in any BGP path. Traceroute paths containing a removed
    edge are split at the removed edges into maximal sub-paths of at least
    two hops; BGP paths pass through untouched. Returns the kept paths, the
    number of edges removed and the weight of the paths split.
    """
    paths = list(paths)
    if all(path.source == "bgp" for path in paths):
        return paths, 0, 0
    # AsPath has no repeated consecutive hop, so an inline canonical key
    # needs no self-loop check.
    bgp_edges: set[EdgeKey] = set()
    agents: dict[EdgeKey, set[str]] = {}
    for path in paths:
        if path.source == "bgp":
            for u, v in zip(path.hops, path.hops[1:]):
                bgp_edges.add((u, v) if u < v else (v, u))
        else:
            agent = path.agent
            for u, v in zip(path.hops, path.hops[1:]):
                key = (u, v) if u < v else (v, u)
                seen_by = agents.get(key)
                if seen_by is None:
                    agents[key] = {agent}
                else:
                    seen_by.add(agent)

    removed = {
        key
        for key, seen_by in agents.items()
        if len(seen_by) < 2 and key not in bgp_edges
    }

    if not removed:
        return paths, 0, 0

    kept: list[AsPath] = []
    paths_split = 0
    for path in paths:
        if path.source == "bgp":
            kept.append(path)
            continue
        cut = [
            i
            for i, (u, v) in enumerate(zip(path.hops, path.hops[1:]))
            if ((u, v) if u < v else (v, u)) in removed
        ]
        if not cut:
            kept.append(path)
            continue
        paths_split += path.weight
        segment_start = 0
        for i in cut:
            segment = path.hops[segment_start : i + 1]
            if len(segment) >= 2:
                kept.append(
                    AsPath(segment, path.source, path.agent, path.weight)
                )
            segment_start = i + 1
        tail = path.hops[segment_start:]
        if len(tail) >= 2:
            kept.append(AsPath(tail, path.source, path.agent, path.weight))
    return kept, len(removed), paths_split


def parse_relationship(line: str) -> tuple[int, int, int]:
    """(A, B, code) of one ``A|B|code`` record, checked field by field; the
    code field is exactly ``-1``, ``0`` or ``1``."""
    fields = line.split("|")
    if len(fields) != 3:
        raise ValueError(f"expected A|B|code, got {line!r}")
    a, b = parse_pair(fields[:2])
    if fields[2] not in ("-1", "0", "1"):
        raise ValueError(f"not a relationship code: {fields[2]!r}")
    return a, b, int(fields[2])


def load_reference(
    lines: Iterable[str], siblings: SiblingSet | None = None, source: str = "<reference>"
) -> ReferenceSet:
    rels: ReferenceSet = {}
    flat = siblings.mapping() if siblings is not None else {}

    def parse(line: str) -> None:
        a, b, code = parse_relationship(line)
        a = flat.get(a, a)
        b = flat.get(b, b)
        if a == b:
            return
        set_label(rels, edge_key(a, b), oriented(REFERENCE_CODES[code], a, b))

    read_records(lines, source, parse)
    return rels
