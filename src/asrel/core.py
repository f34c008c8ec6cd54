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
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .errors import CorruptionInfeasibleError, EmptyCoreError, ParameterError
from .graph import AsGraph, EdgeKey, RelType, edge_key, oriented
from .ingest import (
    SiblingSet,
    components,
    parse_asn,
    parse_pair,
    parse_relationship,
    read_records,
    set_label,
)


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
    vertices with degree below k. The index is computed once per graph and
    kept as graph.shells.
    """
    if graph.shells is not None:
        return graph.shells
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
    graph.shells = shell
    return shell


def k_max_core(graph: AsGraph) -> CoreGraph:
    """The innermost k-core: all vertices whose shell equals the maximum."""
    if graph.n_vertices == 0:
        raise EmptyCoreError("cannot build a k-core from an empty graph")
    index = k_shell_decompose(graph)
    k = max(index.values(), default=0)
    members = {v for v, s in index.items() if s == k}
    return CoreGraph(members, _induced_edges(graph, members))


def load_external_core(
    lines: Iterable[str],
    graph: AsGraph,
    source: str = "<peers>",
    siblings: SiblingSet | None = None,
) -> CoreGraph:
    """Build a core from an external peering edge list.

    Accepted line shapes: ``ASN ASN`` or ``ASN|ASN|code``, whose code is
    one of -1, 0 and 1 as in a reference file. Pipe-format lines whose
    code is not 0 are skipped, which lets a full relationship dump double
    as a peer list. Every AS is read as its sibling representative, and a
    pair that collapses onto one AS is skipped. Edges absent from the
    graph are dropped, the largest connected component of what remains
    (ingest.components) becomes the core (ties: most edges, then smallest
    contained ASN), and every retained edge is preassigned p2p.
    """
    candidate: set[EdgeKey] = set()
    flat = siblings.mapping() if siblings is not None else {}

    def parse(line: str) -> None:
        if "|" in line:
            a, b, code = parse_relationship(line)
            if code != 0:
                return
        else:
            a, b = parse_pair(line.split())
        a, b = flat.get(a, a), flat.get(b, b)
        if a != b and graph.has_edge(a, b):
            candidate.add(edge_key(a, b))

    read_records(lines, source, parse)
    if not candidate:
        raise EmptyCoreError("no usable peer edges after intersecting with the graph")

    # Each component is named by its smallest ASN.
    rep = components(candidate)
    n_vertices = Counter(rep.values())
    n_edges = Counter(rep[a] for a, _ in candidate)
    best = min(n_edges, key=lambda r: (-n_vertices[r], -n_edges[r], r))
    edges = {key for key in candidate if rep[key[0]] == best}
    return CoreGraph(
        {v for key in edges for v in key}, edges, {k: RelType.P2P for k in edges}
    )


def check_core_size(graph: AsGraph, size: int) -> None:
    """ParameterError unless grow_core can grow a core of size on graph."""
    if graph.n_vertices < 4:
        raise ParameterError(
            f"a grown core needs at least 4 vertices; the graph has only "
            f"{graph.n_vertices}"
        )
    if not 4 <= size <= graph.n_vertices:
        raise ParameterError(
            f"core size must be between 4 and {graph.n_vertices}, got {size}"
        )


def grow_core(graph: AsGraph, strategy: str, size: int) -> CoreGraph:
    """Take the first ``size`` vertices of a ranking as the core.

    strategy "degree" ranks by descending degree; "kshell" by descending
    shell, then descending degree. Both break remaining ties by ascending
    AS number. Edges are induced from the graph.
    """
    check_core_size(graph, size)
    if strategy == "degree":
        order = sorted(graph.vertices, key=lambda v: (-graph.degree(v), v))
    elif strategy == "kshell":
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

    outside = graph.vertices - core.vertices
    # Non-core vertices adjacent to the evolving core, less those chosen.
    frontier = outside & set().union(
        *[graph.neighbors(v) for v in current & graph.vertices]
    )
    for _ in range(replace):
        eligible = sorted(frontier if current else outside)
        if not eligible:
            raise CorruptionInfeasibleError(
                "no outside vertex is adjacent to the remaining core"
            )
        pick = rng.choice(eligible)
        current.add(pick)
        frontier |= graph.neighbors(pick) & outside
        frontier -= current

    edges = _induced_edges(graph, current)
    preassigned = {k: rel for k, rel in core.preassigned.items() if k in edges}
    return CoreGraph(current, edges, preassigned)


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
    lines: Iterable[str],
    graph: AsGraph,
    source: str = "<core>",
    siblings: SiblingSet | None = None,
) -> CoreGraph:
    """Parse a core file against the graph it anchors.

    Two ``e`` lines that give one edge different relationships are an
    error; an ``e`` line without one leaves an edge's relationship as is.
    Every AS is read as its sibling representative: an ``e`` line whose
    two ASes collapse onto one names that AS as a member and no edge.
    Core edges that do not exist in the graph are dropped so that the core
    never references unobserved links; vertices are kept either way, but
    at least one of them must be in the graph.
    """
    vertices: set[int] = set()
    edges: set[EdgeKey] = set()
    preassigned: dict[EdgeKey, RelType] = {}
    flat = siblings.mapping() if siblings is not None else {}

    def parse(line: str) -> None:
        kind, *tokens = line.split()
        if kind == "v" and len(tokens) == 1:
            a = parse_asn(tokens[0])
            vertices.add(flat.get(a, a))
        elif kind == "e" and len(tokens) in (2, 3):
            a, b = parse_pair(tokens[:2])
            a, b = flat.get(a, a), flat.get(b, b)
            vertices.update((a, b))
            if len(tokens) == 3 and tokens[2] not in ("c2p", "p2c", "p2p"):
                raise ValueError(f"unknown relationship {tokens[2]!r}")
            if a == b:
                return
            key = edge_key(a, b)
            edges.add(key)
            if len(tokens) == 3:
                rel = RelType(tokens[2])
                # The file stores the relationship in written (a, b) order;
                # oriented() is its own inverse, so it also canonicalizes
                # back to low->high.
                set_label(preassigned, key, oriented(rel, a, b))
        else:
            raise ValueError(f"unrecognized core line {line!r}")

    read_records(lines, source, parse)
    if not vertices:
        raise EmptyCoreError("core file contains no vertices")
    if not any(v in graph.vertices for v in vertices):
        raise EmptyCoreError("no core vertex appears in the observed graph")
    kept = {k for k in edges if graph.has_edge(*k)}
    preassigned = {k: r for k, r in preassigned.items() if k in kept}
    return CoreGraph(vertices, kept, preassigned)

