"""Core construction: the set of top-level ASes the inference is anchored to.

Three families of cores are supported: a greedy maximal clique over the
degree ordering, the maximum k-shell (the innermost k-core), and an
externally supplied peer edge list reduced to its largest connected
component. Cores can also be grown to a target size or deliberately
corrupted for robustness experiments.

Core file format (``#`` starts a comment):

    v ASN
    e ASN ASN [rel]

``rel`` is one of p2p, c2p, p2c read in the written vertex order and marks
a preassigned relationship; without it the edge is an ordinary core edge
that defaults to peering during inference.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .errors import (
    CorruptionInfeasibleError,
    EmptyCoreError,
    ParameterError,
    ParseError,
)
from .graph import AsGraph, EdgeKey, RelType, edge_key, oriented
from .ingest import parse_asn


@dataclass
class CoreGraph:
    """A core: vertex set, core-internal edges, optional preassigned labels.

    preassigned maps edge keys to a relationship in canonical low->high
    order; only c2p, p2c, and p2p are meaningful here. Core edges without a
    preassignment behave as p2p by default during inference.
    """

    vertices: set[int] = field(default_factory=set)
    edges: set[EdgeKey] = field(default_factory=set)
    preassigned: dict[EdgeKey, RelType] = field(default_factory=dict)

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise ParameterError(f"core edge ({a}, {b}) has endpoint outside core")
        for key, rel in self.preassigned.items():
            if key not in self.edges:
                raise ParameterError(f"preassigned edge {key} not a core edge")
            if rel not in (RelType.C2P, RelType.P2C, RelType.P2P):
                raise ParameterError(f"cannot preassign {rel} to core edge {key}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        n = len(self.vertices)
        if n < 2:
            return 0.0
        return len(self.edges) / (n * (n - 1) / 2)


def _induced_edges(graph: AsGraph, members: set[int]) -> set[EdgeKey]:
    """Graph edges between members. A member the graph does not contain, as
    a core file may name, contributes none."""
    edges = set()
    for v in members & graph.vertices:
        for w in graph.neighbors(v):
            if v < w and w in members:
                edges.add((v, w))
    return edges


def greedy_max_clique(graph: AsGraph) -> CoreGraph:
    """Greedy clique over vertices in non-increasing degree order.

    Ties are broken by ascending AS number. A vertex joins only if it is
    adjacent to every vertex already admitted, so the result is always a
    clique, though not necessarily a maximum one.
    """
    if graph.n_vertices == 0:
        raise EmptyCoreError("cannot build a clique core from an empty graph")
    order = sorted(graph.vertices, key=lambda v: (-graph.degree(v), v))
    members: set[int] = set()
    for v in order:
        if members <= graph.neighbors(v):
            members.add(v)
    return CoreGraph(members, _induced_edges(graph, members))


def k_shell_decompose(graph: AsGraph) -> dict[int, int]:
    """Shell number of every vertex.

    shell(v) is the largest k such that v survives iterated pruning of
    vertices with degree below k. Isolated vertices get shell 0.
    """
    degree = {v: graph.degree(v) for v in graph.vertices}
    remaining = set(graph.vertices)
    shell: dict[int, int] = {}
    k = 1
    while remaining:
        peel = deque(v for v in remaining if degree[v] < k)
        while peel:
            v = peel.popleft()
            if v not in remaining:
                continue
            remaining.discard(v)
            shell[v] = k - 1
            for w in graph.neighbors(v):
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] < k:
                        peel.append(w)
        k += 1
    return shell


def k_max_core(graph: AsGraph, index: dict[int, int] | None = None) -> CoreGraph:
    """The innermost k-core: all vertices whose shell equals the maximum."""
    if graph.n_vertices == 0:
        raise EmptyCoreError("cannot build a k-core from an empty graph")
    if index is None:
        index = k_shell_decompose(graph)
    k = max(index.values(), default=0)
    members = {v for v, s in index.items() if s == k}
    return CoreGraph(members, _induced_edges(graph, members))


def load_external_core(
    lines: Iterable[str], graph: AsGraph, source: str = "<peers>"
) -> CoreGraph:
    """Build a core from an external peering edge list.

    Accepted line shapes: ``ASN ASN`` or ``ASN|ASN|0``. Pipe-format lines
    whose relationship code is not 0 are skipped, which lets a full
    relationship dump double as a peer list. Edges absent from the graph
    are dropped, the largest connected component of what remains becomes
    the core (ties: most edges, then smallest contained ASN), and every
    retained edge is preassigned p2p.
    """
    candidate: set[EdgeKey] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "|" in line:
                fields = line.split("|")
                if len(fields) != 3:
                    raise ValueError(f"expected ASN|ASN|code, got {line!r}")
                a, b = parse_asn(fields[0]), parse_asn(fields[1])
                if int(fields[2]) != 0:
                    continue
            else:
                tokens = line.split()
                if len(tokens) != 2:
                    raise ValueError(f"expected two AS numbers, got {line!r}")
                a, b = parse_asn(tokens[0]), parse_asn(tokens[1])
            if a == b:
                raise ValueError(f"self-loop peer edge on AS {a}")
            key = edge_key(a, b)
        except ValueError as exc:
            raise ParseError(str(exc), source, lineno) from None
        if graph.has_edge(*key):
            candidate.add(key)

    if not candidate:
        raise EmptyCoreError("no usable peer edges after intersecting with the graph")

    adjacency: dict[int, set[int]] = {}
    for a, b in candidate:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    seen: set[int] = set()
    components: list[set[int]] = []
    for start in adjacency:
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in component:
                    component.add(w)
                    queue.append(w)
        seen |= component
        components.append(component)

    def component_edges(component: set[int]) -> set[EdgeKey]:
        return {k for k in candidate if k[0] in component}

    best = min(
        components,
        key=lambda c: (-len(c), -len(component_edges(c)), min(c)),
    )
    edges = component_edges(best)
    return CoreGraph(set(best), edges, {k: RelType.P2P for k in edges})


def grow_core(
    graph: AsGraph,
    strategy: str,
    size: int,
    index: dict[int, int] | None = None,
) -> CoreGraph:
    """Take the first ``size`` vertices of a ranking as the core.

    strategy "degree" ranks by descending degree; "kshell" by descending
    shell, then descending degree. Both break remaining ties by ascending
    AS number. Edges are induced from the graph.
    """
    if not 4 <= size <= graph.n_vertices:
        raise ParameterError(
            f"core size must be between 4 and {graph.n_vertices}, got {size}"
        )
    if strategy == "degree":
        order = sorted(graph.vertices, key=lambda v: (-graph.degree(v), v))
    elif strategy == "kshell":
        if index is None:
            index = k_shell_decompose(graph)
        order = sorted(
            graph.vertices, key=lambda v: (-index[v], -graph.degree(v), v)
        )
    else:
        raise ParameterError(f"unknown growth strategy {strategy!r}")
    members = set(order[:size])
    return CoreGraph(members, _induced_edges(graph, members))


def corrupt_core(
    core: CoreGraph, graph: AsGraph, replace: int, seed: int
) -> CoreGraph:
    """Randomly swap ``replace`` core vertices for outside vertices.

    Removed vertices are chosen uniformly. Each inserted vertex is chosen
    uniformly among non-core vertices adjacent to the evolving core (the
    surviving originals plus insertions made so far); when the evolving
    core is empty the first insertion is unconstrained. Edges are re-induced
    from the graph and preassignments are kept only for surviving edges.
    Deterministic for a given seed.
    """
    if not 0 <= replace <= len(core.vertices):
        raise ParameterError(
            f"replace must be between 0 and {len(core.vertices)}, got {replace}"
        )
    rng = random.Random(seed)
    original = sorted(core.vertices)
    removed = set(rng.sample(original, replace))
    current = set(core.vertices) - removed

    candidates = sorted(v for v in graph.vertices if v not in core.vertices)
    chosen: set[int] = set()
    for _ in range(replace):
        if current:
            eligible = [
                c
                for c in candidates
                if c not in chosen
                and not graph.neighbors(c).isdisjoint(current)
            ]
        else:
            eligible = [c for c in candidates if c not in chosen]
        if not eligible:
            raise CorruptionInfeasibleError(
                "no outside vertex is adjacent to the remaining core"
            )
        pick = rng.choice(eligible)
        chosen.add(pick)
        current.add(pick)

    edges = _induced_edges(graph, current)
    preassigned = {k: rel for k, rel in core.preassigned.items() if k in edges}
    return CoreGraph(current, edges, preassigned)


_REL_TOKENS = {
    "p2p": RelType.P2P,
    "c2p": RelType.C2P,
    "p2c": RelType.P2C,
}


def write_core_file(core: CoreGraph, stream: TextIO) -> None:
    for v in sorted(core.vertices):
        stream.write(f"v {v}\n")
    for a, b in sorted(core.edges):
        rel = core.preassigned.get((a, b))
        if rel is None:
            stream.write(f"e {a} {b}\n")
        else:
            stream.write(f"e {a} {b} {rel.value}\n")


def read_core_file(
    lines: Iterable[str], graph: AsGraph | None = None, source: str = "<core>"
) -> CoreGraph:
    """Parse a core file.

    When a graph is given, core edges that do not exist in it are dropped
    so that the core never references unobserved links; vertices are kept
    either way, but at least one of them must be in the graph.
    """
    vertices: set[int] = set()
    edges: set[EdgeKey] = set()
    preassigned: dict[EdgeKey, RelType] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] == "v" and len(tokens) == 2:
                vertices.add(parse_asn(tokens[1]))
            elif tokens[0] == "e" and len(tokens) in (3, 4):
                a, b = parse_asn(tokens[1]), parse_asn(tokens[2])
                if a == b:
                    raise ValueError(f"self-loop core edge on AS {a}")
                key = edge_key(a, b)
                rel = None
                if len(tokens) == 4:
                    if tokens[3] not in _REL_TOKENS:
                        raise ValueError(f"unknown relationship {tokens[3]!r}")
                    # The file stores the relationship in written (a, b)
                    # order; oriented() is its own inverse, so it also
                    # canonicalizes back to low->high.
                    rel = oriented(_REL_TOKENS[tokens[3]], a, b)
                vertices.add(a)
                vertices.add(b)
                edges.add(key)
                if rel is not None:
                    preassigned[key] = rel
            else:
                raise ValueError(f"unrecognized core line {line!r}")
        except ValueError as exc:
            raise ParseError(str(exc), source, lineno) from None

    if not vertices:
        raise EmptyCoreError("core file contains no vertices")
    if graph is not None:
        if not any(v in graph.vertices for v in vertices):
            raise EmptyCoreError("no core vertex appears in the observed graph")
        kept = {k for k in edges if graph.has_edge(*k)}
        preassigned = {k: r for k, r in preassigned.items() if k in kept}
        edges = kept
    return CoreGraph(vertices, edges, preassigned)

