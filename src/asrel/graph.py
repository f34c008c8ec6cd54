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
from collections import deque
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import rshift, sub
from typing import Iterable, Iterator, Mapping

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
    """One AS-level path, from the parsed line to the compiled corpus.

    hops are AS numbers, source is "bgp" or "trace", and weight counts the
    observations behind the path. The record checks nothing: ingest and
    Corpus check each field once, where it enters.
    """

    hops: tuple[int, ...]
    source: str = "bgp"
    agent: str = ""
    weight: int = 1


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


class AsGraph:
    """Undirected AS graph with four vote counters per edge.

    Each edge gets a dense id, in insertion order: edge_index maps an edge
    key to its id and edge_keys lists the keys by id. customer holds two
    counts per edge, indexed by arc id (see Corpus): customer[a] counts the
    votes that make the tail of arc a the customer, so customer[2e] is edge
    e's c2p count in low->high order and customer[2e + 1] its p2c count.
    p2p and invalid are indexed by edge id: p2p counts peering votes, and
    invalid the votes cast when a path contradicted valley-free routing at
    the edge, which never contribute to the shares (vote_shares).
    """

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        """The graph of edges, (a, b) pairs in either orientation, built
        once: it never changes afterwards. A pair given twice is one edge,
        and edge ids follow first appearance. Each AS must be an int in
        1..MAX_ASN (a ParameterError otherwise), and a pair of one AS is a
        SelfLoopError. A (low, high) tuple is kept as the edge's key."""
        self._adj: dict[int, set[int]] = {}
        self.edge_index: dict[EdgeKey, int] = {}
        self.edge_keys: list[EdgeKey] = []
        # The corpus last compiled against the graph: build_graph's, or
        # compile_corpus's.
        self.corpus: Corpus | None = None
        # The k-shell index, kept by core.k_shell_decompose on first use.
        self.shells: dict[int, int] | None = None
        index = self.edge_index
        try:
            for pair in edges:
                a, b = key = tuple(pair)
                if b < a:
                    key = (b, a)
                if key not in index:
                    self._new_edge(key)
        except TypeError:
            raise ParameterError(f"AS numbers that are not ints: {pair!r}") from None
        self._zero_counters()

    def _new_edge(self, key: EdgeKey) -> int:
        """Give key, a (low, high) pair that is not yet an edge, the next
        edge id, and return it."""
        low, high = key
        if low == high:
            raise SelfLoopError(f"self-loop on AS {low}")
        adj = self._adj
        for v in key:
            if type(v) is not int:
                raise ParameterError(f"AS number is not an int: {v!r}")
            if not (1 <= v <= MAX_ASN):
                raise ParameterError(f"AS number out of range: {v}")
            if v not in adj:
                adj[v] = set()
        adj[low].add(high)
        adj[high].add(low)
        e = self.edge_index[key] = len(self.edge_keys)
        self.edge_keys.append(key)
        return e

    def _zero_counters(self) -> None:
        n = len(self.edge_keys)
        self.customer = [0] * (2 * n)
        self.p2p = [0] * n
        self.invalid = [0] * n

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return len(self.edge_keys)

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        adj = self._adj.get(v)
        return 0 if adj is None else len(adj)

    def copy_unvoted(self) -> "AsGraph":
        """A graph with the same vertices, edges and edge ids, and zero
        counters; it shares this graph's adjacency, edge index and k-shell
        index instead of copying them."""
        fresh = copy(self)
        fresh._zero_counters()
        return fresh


# The label codes of the relationships a run gives an edge: a code indexes
# LABEL_RELS, its relationship in low->high order. Edge e's code is also
# its label read along arc 2e, and FLIPPED[code] along arc 2e + 1.
LABEL_C2P, LABEL_P2C, LABEL_P2P, LABEL_UNCLASSIFIED = range(4)
LABEL_RELS = (RelType.C2P, RelType.P2C, RelType.P2P, RelType.UNCLASSIFIED)
# bytes.translate table: a label code read the other way along its edge.
FLIPPED = bytes(
    LABEL_P2C if code == LABEL_C2P else LABEL_C2P if code == LABEL_P2C else code
    for code in range(256)
)


def arc_labels(codes: bytes) -> bytearray:
    """Each label code in codes read along both of its edge's arcs: when
    codes holds every edge's code in id order, byte a is arc a's label."""
    labels = bytearray(2 * len(codes))
    labels[0::2] = codes
    labels[1::2] = codes.translate(FLIPPED)
    return labels


# The methods a run labels an edge by; a method code indexes METHODS.
METHODS = (
    METHOD_DETERMINISTIC_P1,
    METHOD_DETERMINISTIC_P2,
    METHOD_CORE_PREASSIGNED,
    METHOD_GAP_P2P,
    METHOD_DEGREE_TIEBREAK,
    METHOD_KSHELL_TIEBREAK,
    METHOD_UNCLASSIFIED,
)
METHOD_CODES = {method: code for code, method in enumerate(METHODS)}
# bytes.translate table: 1 for the unclassified label code, else 0.
_IS_UNCLASSIFIED = bytes(code == LABEL_UNCLASSIFIED for code in range(256))


class EdgeLabels(Mapping[EdgeKey, Classification]):
    """A run's label for every edge of a graph, kept as two bytearrays over
    its edge ids: rels[e] is edge e's label code (LABEL_RELS) and
    methods[e] its method code (METHODS).

    It reads as a mapping from edge key to Classification, in edge-id
    order, and builds a record only when one is read; update() copies
    (label code, method code) pairs by edge id, as the heuristics return
    them. Two label records over the same edge ids compare by their
    arrays, others as mappings.
    """

    def __init__(self, graph: AsGraph, rels: bytearray, methods: bytearray):
        self.edge_keys = graph.edge_keys
        self.edge_index = graph.edge_index
        self.rels = rels
        self.methods = methods

    def __getitem__(self, key: EdgeKey) -> Classification:
        e = self.edge_index[key]
        return Classification(key, LABEL_RELS[self.rels[e]], METHODS[self.methods[e]])

    def __iter__(self) -> Iterator[EdgeKey]:
        return iter(self.edge_keys)

    def __len__(self) -> int:
        return len(self.edge_keys)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeLabels) and self.edge_keys == other.edge_keys:
            return self.rels == other.rels and self.methods == other.methods
        return super().__eq__(other)

    def update(self, codes: Mapping[int, tuple[int, int]]) -> None:
        """Give each edge id in codes its (label code, method code) pair."""
        rels, methods = self.rels, self.methods
        for e, (rel, method) in codes.items():
            rels[e] = rel
            methods[e] = method

    def unclassified(self) -> list[int]:
        """The ids of the unclassified edges, in increasing order."""
        rels = self.rels
        return list(compress(range(len(rels)), rels.translate(_IS_UNCLASSIFIED)))


class Corpus:
    """Paths compiled against one graph's edge ids.

    paths is the AsPath list it was built from and weights their weights.
    arcs holds the arc id of every hop of every path in one 4-byte array:
    path p's hops are arcs[offsets[p]:offsets[p + 1]]. The hop u -> v over
    edge e is the arc 2 * e + (u > v), so a >> 1 is the edge and a & 1 the
    direction: 0 when the walk goes from the lower-numbered endpoint to the
    higher, 1 the other way. a ^ 1 is the same edge walked backwards.

    A corpus stands for its member paths: all of them, unless it came from
    subset(). member_mask holds one byte per path, 1 for a member. It
    iterates as those AsPath objects, and through() and listed() select
    those that cross given edges.
    """

    def __init__(self, graph: AsGraph, paths: Iterable[AsPath], grow: bool = False):
        """Walk paths once, recording each hop's arc id. An edge missing
        from graph is an UnknownEdgeError, or with grow, is added to graph
        with the checks of AsGraph, which reject a repeated hop or an AS
        that is not an int in range; graph's counters are then sized for
        its edges. Every path passes here before the engine, so
        here a path of fewer than two hops, a hop that does not compare
        with an int, or a weight that is not an int in 1..MAX_WEIGHT is a
        ParameterError. A hop equal to an AS of a known edge, such as True
        for AS 1, stands for that AS: the walk checks no hop's type."""
        self.paths = list(paths)
        self.member_mask = b"\x01" * len(self.paths)
        weights = [path.weight for path in self.paths]
        if not (
            set(map(type, weights)) <= {int}
            and 1 <= min(weights, default=1) <= max(weights, default=1) <= MAX_WEIGHT
        ):
            bad = next(
                w for w in weights if type(w) is not int or not 1 <= w <= MAX_WEIGHT
            )
            raise ParameterError(f"path weight out of range: {bad!r}")
        self.weights = array("q", weights)
        index = graph.edge_index
        self.edge_keys = graph.edge_keys
        self.arcs = arcs = array("i")
        self.offsets = offsets = array("i", [0])
        try:
            for path in self.paths:
                hops = path.hops
                if len(hops) < 2:
                    raise ParameterError(f"path needs at least 2 hops, got {hops!r}")
                for u, v in zip(hops, hops[1:]):
                    key = (u, v) if u < v else (v, u)
                    e = index.get(key)
                    if e is None:
                        if not grow:
                            raise UnknownEdgeError(f"edge {key} not in graph")
                        e = graph._new_edge(key)
                    arcs.append(2 * e + (u > v))
                offsets.append(len(arcs))
        except TypeError:
            raise ParameterError(f"hops that are not AS numbers: {hops!r}") from None
        if grow:
            graph._zero_counters()

    @cached_property
    def incidence(self) -> tuple[array, array]:
        """The edge-to-path index in CSR form, (path_starts, path_ids): the
        paths through edge e are path_ids[path_starts[e]:path_starts[e + 1]],
        a path once per traversal. Built on first use, in one pass over the
        hops that appends each hop's path id to its edge's bucket; the
        buckets, in edge order, are path_ids."""
        offsets = self.offsets
        buckets = [array("i") for _ in self.edge_keys]
        hop_paths = chain.from_iterable(
            map(repeat, range(len(self.paths)), map(sub, offsets[1:], offsets))
        )
        hop_buckets = map(buckets.__getitem__, map(rshift, self.arcs, repeat(1)))
        deque(map(array.append, hop_buckets, hop_paths), maxlen=0)
        path_ids = array("i")
        deque(map(path_ids.extend, buckets), maxlen=0)
        return array("i", accumulate(map(len, buckets), initial=0)), path_ids

    def through(self, edges: Iterable[int]) -> array:
        """The ids of this corpus's member paths that go through any of
        edges, each once, in the order the edge-to-path index first lists
        them."""
        path_starts, path_ids = self.incidence
        unseen = bytearray(self.member_mask)
        # Path ids as 4-byte ints: a selection can hold nearly every path.
        selected = array("i")
        for e in edges:
            for p in path_ids[path_starts[e] : path_starts[e + 1]]:
                if unseen[p]:
                    unseen[p] = 0
                    selected.append(p)
        return selected

    def listed(self, e: int) -> Iterator[int]:
        """The ids of this corpus's member paths that go through edge e, in
        the edge-to-path index's order: a path once per traversal."""
        path_starts, path_ids = self.incidence
        ids = path_ids[path_starts[e] : path_starts[e + 1]]
        return compress(ids, map(self.member_mask.__getitem__, ids))

    def subset(self, mask: bytes) -> "Corpus":
        """This compiled corpus, standing for the paths whose byte in mask,
        one byte per path, is 1."""
        view = copy(self)
        view.member_mask = mask
        return view

    @property
    def members(self) -> Iterator[int]:
        """The ids of the member paths, in increasing order."""
        return compress(range(len(self.paths)), self.member_mask)

    def __iter__(self) -> Iterator[AsPath]:
        return map(self.paths.__getitem__, self.members)

    def __len__(self) -> int:
        return self.member_mask.count(1)

    @property
    def weight(self) -> int:
        """Number of observations behind the paths: the sum of their weights."""
        return sum(compress(self.weights, self.member_mask))


def compile_corpus(graph: AsGraph, paths: Iterable[AsPath]) -> Corpus:
    """paths compiled against graph's edge ids.

    graph.corpus is returned as is when paths is that corpus or equals its
    path list. Otherwise paths are compiled, and the result is kept as
    graph.corpus, so a sweep compiles its paths once for all its runs. The
    edge-to-path index is built on first use, by partition_paths before it
    takes any subset(), so the subsets share it.
    """
    corpus = graph.corpus
    if corpus is None or (paths is not corpus and paths != corpus.paths):
        corpus = graph.corpus = Corpus(graph, paths)
    return corpus
