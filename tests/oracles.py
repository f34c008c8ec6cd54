"""Independent brute-force oracles used to validate the library.

Everything here is written against the problem statement alone, with the
slowest most obvious algorithm available, so a disagreement with the
library points at the library. The one exception is phase2_unpruned, the
straightforward form of an optimized library loop, kept as its reference.
"""

from __future__ import annotations

import graphlib
import re
from itertools import combinations

from asrel.engine import InferenceConfig, _snapshot
from asrel.graph import AsGraph, AsPath, EdgeKey, RelType, oriented

Adjacency = dict[int, set[int]]


def adjacency_from_edges(edges: list[tuple[int, int]]) -> Adjacency:
    adj: Adjacency = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


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


def phase2_unpruned(
    graph: AsGraph, periphery: list[AsPath], config: InferenceConfig
) -> tuple[set[EdgeKey], int]:
    """Phase 2 walking every periphery path in every round.

    Returns the voted edges and the round count. engine.phase2 skips paths
    that can no longer vote and must cast exactly the same votes.
    """
    voted: set[EdgeKey] = set()
    rounds = 0
    while True:
        rounds += 1
        anchors, unvoted = _snapshot(graph, config)
        pending: list[tuple[int, int, RelType, int]] = []
        for path in periphery:
            suspects_up: list[tuple[int, int]] = []
            suspects_down: list[tuple[int, int]] = []
            passed_p2c = False
            for u, v in path.edges():
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
            graph.vote(u, v, rel, weight)
            voted.add((u, v) if u < v else (v, u))
