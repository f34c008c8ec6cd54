"""Graph model for AS-level topologies with per-edge relationship voting.

Edges are undirected and stored once under a canonical (low, high) key.
Relationship semantics are directional, expressed relative to a vertex
order, so votes cast while traversing a path are mapped through the
canonical orientation before they are tallied. Each edge has a dense id,
and a path corpus is compiled once into arc ids, an edge id with the
direction of the hop (Corpus), so that the engine works on flat arrays
and counters rather than on tuple keys.
"""

from __future__ import annotations

from array import array
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import ne
from typing import Iterable, Iterator

from .errors import ParameterError, SelfLoopError, UnknownEdgeError

MAX_ASN = 2**32 - 1
# The largest path weight: a Corpus stores weights as 8-byte signed ints.
MAX_WEIGHT = 2**63 - 1

EdgeKey = tuple[int, int]


class RelType(Enum):
    """Relationship of a to b for a vertex pair read in (a, b) order.

    C2P means a is a customer of b; P2C means a is a provider of b.
    Reversing the pair swaps C2P and P2C and leaves the symmetric types
    unchanged.
    """

    C2P = "c2p"
    P2C = "p2c"
    P2P = "p2p"
    S2S = "s2s"
    UNCLASSIFIED = "unclassified"

    def flipped(self) -> "RelType":
        """The same relationship read in (b, a) order."""
        if self is RelType.C2P:
            return RelType.P2C
        if self is RelType.P2C:
            return RelType.C2P
        return self


def edge_key(a: int, b: int) -> EdgeKey:
    """Canonical undirected key for the vertex pair (a, b)."""
    if a == b:
        raise SelfLoopError(f"self-loop on AS {a}")
    return (a, b) if a < b else (b, a)


def oriented(rel: RelType, a: int, b: int) -> RelType:
    """Translate a canonical low->high relationship into (a, b) order.

    The mapping is its own inverse, so it also converts a relationship
    observed while walking a -> b back to the canonical orientation.
    """
    return rel if a < b else rel.flipped()


def vote_shares(low: int, high: int, p2p: int) -> tuple[float, float, float]:
    """(share_c2p, share_p2c, share_p2p) of an edge's counts, in low->high
    order; all zeros when it has no classification votes."""
    total = low + high + p2p
    if total:
        return (low / total, high / total, p2p / total)
    return (0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class AsPath:
    """One observed AS-level path.

    hops are AS numbers after any normalization; consecutive duplicates are
    not allowed. weight carries the observation multiplicity of the path.
    """

    hops: tuple[int, ...]
    source: str = "bgp"
    agent: str = ""
    weight: int = 1

    def __post_init__(self):
        if len(self.hops) < 2:
            raise ParameterError(f"path needs at least 2 hops, got {self.hops!r}")
        if self.source not in ("bgp", "trace"):
            raise ParameterError(f"unknown path source {self.source!r}")
        if not 1 <= self.weight <= MAX_WEIGHT:
            raise ParameterError(f"path weight out of range: {self.weight}")
        hops = self.hops
        if min(hops) < 1 or max(hops) > MAX_ASN:
            bad = next(h for h in hops if not 1 <= h <= MAX_ASN)
            raise ParameterError(f"AS number out of range: {bad}")
        if not all(map(ne, hops, hops[1:])):
            dup = next(u for u, v in zip(hops, hops[1:]) if u == v)
            raise ParameterError(f"consecutive duplicate hop {dup} in {hops!r}")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Consecutive hop pairs in traversal order."""
        return zip(self.hops, self.hops[1:])


METHOD_DETERMINISTIC_P1 = "deterministic-p1"
METHOD_DETERMINISTIC_P2 = "deterministic-p2"
METHOD_GAP_P2P = "gap-p2p"
METHOD_DEGREE_TIEBREAK = "degree-tiebreak"
METHOD_KSHELL_TIEBREAK = "kshell-tiebreak"
METHOD_SIBLING_DB = "sibling-db"
METHOD_CORE_PREASSIGNED = "core-preassigned"
METHOD_UNCLASSIFIED = "unclassified"

HEURISTIC_METHODS = frozenset(
    {METHOD_GAP_P2P, METHOD_DEGREE_TIEBREAK, METHOD_KSHELL_TIEBREAK}
)
DETERMINISTIC_METHODS = frozenset(
    {METHOD_DETERMINISTIC_P1, METHOD_DETERMINISTIC_P2, METHOD_CORE_PREASSIGNED}
)


@dataclass(frozen=True, slots=True)
class Classification:
    """Final label for one edge, read in canonical low->high order.

    The edge's votes stay in the run graph's counters.
    """

    edge: EdgeKey
    rel: RelType
    method: str

    @property
    def classified(self) -> bool:
        return self.rel is not RelType.UNCLASSIFIED


class AsGraph:
    """Undirected AS graph with four vote counters per edge.

    Each edge gets a dense id, in insertion order: edge_index maps an edge
    key to its id and edge_keys lists the keys by id. The counters
    low_customer, high_customer, p2p and invalid are lists indexed by edge
    id, keyed to the canonical orientation: low_customer counts votes that
    make the lower-numbered endpoint the customer (a c2p vote in low->high
    order), high_customer the opposite, and p2p peering votes. invalid
    counts votes cast when a path contradicted valley-free routing at the
    edge; they never contribute to the shares (vote_shares).
    """

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self.edge_index: dict[EdgeKey, int] = {}
        self.edge_keys: list[EdgeKey] = []
        # The paths the graph was built from, compiled (see build_graph).
        self.corpus: Corpus | None = None
        # The k-shell index, kept by core.k_shell_decompose on first use.
        self.shells: dict[int, int] | None = None
        self._zero_counters()

    def _zero_counters(self) -> None:
        n = len(self.edge_keys)
        self.low_customer = [0] * n
        self.high_customer = [0] * n
        self.p2p = [0] * n
        self.invalid = [0] * n

    @property
    def counters(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """(low_customer, high_customer, p2p, invalid)"""
        return self.low_customer, self.high_customer, self.p2p, self.invalid

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def edges(self):
        return self.edge_index.keys()

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return len(self.edge_keys)

    def add_vertex(self, v: int) -> None:
        if not (0 <= v <= MAX_ASN):
            raise ParameterError(f"AS number out of range: {v}")
        if v not in self._adj:
            self._adj[v] = set()
            self.shells = None

    def add_edge(self, a: int, b: int) -> EdgeKey:
        """Insert the undirected edge (a, b); a no-op if it already exists."""
        key = edge_key(a, b)
        if key not in self.edge_index:
            self.add_vertex(a)
            self.add_vertex(b)
            self.shells = None
            self._adj[a].add(b)
            self._adj[b].add(a)
            self.edge_index[key] = len(self.edge_keys)
            self.edge_keys.append(key)
            for counter in self.counters:
                counter.append(0)
        return key

    def has_edge(self, a: int, b: int) -> bool:
        try:
            return edge_key(a, b) in self.edge_index
        except SelfLoopError:
            return False

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        adj = self._adj.get(v)
        return 0 if adj is None else len(adj)

    def copy_unvoted(self) -> "AsGraph":
        """A graph with the same vertices, edges and edge ids, and zero counters.

        The copy shares this graph's adjacency, edge index and k-shell
        index instead of copying them, so neither graph may gain edges
        afterwards.
        """
        fresh = copy(self)
        fresh._zero_counters()
        return fresh


# An edge's label read along one of its arcs (see Corpus), one byte per
# arc: c2p in walk order, so the walk goes up; p2c, so it goes down; any
# other label; or no label yet, open.
ARC_UP, ARC_DOWN, ARC_OTHER, ARC_OPEN = range(4)
# An edge's label in low->high order -> the labels of its arcs 2e and 2e + 1.
ARC_LABELS = {
    RelType.C2P: bytes((ARC_UP, ARC_DOWN)),
    RelType.P2C: bytes((ARC_DOWN, ARC_UP)),
    RelType.P2P: bytes((ARC_OTHER, ARC_OTHER)),
    RelType.S2S: bytes((ARC_OTHER, ARC_OTHER)),
    RelType.UNCLASSIFIED: bytes((ARC_OPEN, ARC_OPEN)),
}


class Corpus:
    """Paths compiled against one graph's edge ids; the graph must not gain
    edges afterwards.

    paths is the AsPath list it was built from and weights their weights.
    arcs holds the arc id of every hop of every path in one 4-byte array:
    path p's hops are arcs[offsets[p]:offsets[p + 1]]. The hop u -> v over
    edge e is the arc 2 * e + (u > v), so a >> 1 is the edge and a & 1 the
    direction: 0 when the walk goes from the lower-numbered endpoint to the
    higher, 1 the other way. a ^ 1 is the same edge walked backwards.
    n_edges is the graph's edge count once the paths were compiled.

    A corpus stands for the paths whose ids are in members: all of them,
    unless it came from subset(). It iterates as those AsPath objects.
    """

    def __init__(self, graph: AsGraph, paths: Iterable[AsPath], grow: bool = False):
        """Walk paths once, recording each hop's arc id. An edge missing
        from graph is an UnknownEdgeError, or with grow, is added to graph
        as add_edge would."""
        self.paths = list(paths)
        self.members = range(len(self.paths))
        self.weights = array("q", [path.weight for path in self.paths])
        self.edge_index = index = graph.edge_index
        self.edge_keys = graph.edge_keys
        self.arcs = arcs = array("i")
        self.offsets = offsets = array("i", [0])
        for path in self.paths:
            hops = path.hops
            for u, v in zip(hops, hops[1:]):
                key = (u, v) if u < v else (v, u)
                e = index.get(key)
                if e is None:
                    if not grow:
                        raise UnknownEdgeError(f"edge {key} not in graph")
                    e = index[graph.add_edge(u, v)]
                arcs.append(2 * e + (u > v))
            offsets.append(len(arcs))
        self.n_edges = len(self.edge_keys)

    @cached_property
    def incidence(self) -> tuple[array, array]:
        """The edge-to-path index in CSR form, (path_starts, path_ids): the
        paths through edge e are path_ids[path_starts[e]:path_starts[e + 1]],
        a path once per traversal. Built on first use."""
        arcs, offsets = self.arcs, self.offsets
        counts = array("i", [0]) * len(self.edge_keys)
        for a in arcs:
            counts[a >> 1] += 1
        path_starts = array("i", accumulate(counts, initial=0))
        path_ids = array("i", [0]) * len(arcs)
        fill = path_starts[:-1]
        for p in range(len(self.paths)):
            for a in arcs[offsets[p] : offsets[p + 1]]:
                e = a >> 1
                path_ids[fill[e]] = p
                fill[e] += 1
        return path_starts, path_ids

    def subset(self, members: Iterable[int]) -> "Corpus":
        """This compiled corpus, standing for the paths in members."""
        view = copy(self)
        view.members = members
        return view

    def __iter__(self) -> Iterator[AsPath]:
        paths = self.paths
        return (paths[p] for p in self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def weight(self) -> int:
        """Number of observations behind the paths: the sum of their weights."""
        return sum(map(self.weights.__getitem__, self.members))


def compile_corpus(graph: AsGraph, paths: Iterable[AsPath]) -> Corpus:
    """paths compiled against graph's edge ids, with the edge-to-path index.

    A corpus already compiled against them, or against a copy_unvoted of
    the graph, is returned as is. So is the corpus build_graph compiled,
    when paths equal the paths the graph was built from and the graph has
    gained no edge since.
    """
    corpus = paths
    if not (isinstance(corpus, Corpus) and corpus.edge_index is graph.edge_index):
        corpus = graph.corpus
        if corpus is None or corpus.n_edges != graph.n_edges or corpus.paths != paths:
            corpus = Corpus(graph, paths)
    # Built before any subset() is taken, so that the subsets share it.
    corpus.incidence
    return corpus
