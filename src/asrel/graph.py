"""Graph model for AS-level topologies with per-edge relationship voting.

Edges are undirected and stored once under a canonical (low, high) key.
Relationship semantics are directional, expressed relative to a vertex
order, so votes cast while traversing a path are mapped through the
canonical orientation before they are tallied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import ParameterError, SelfLoopError, UnknownEdgeError

MAX_ASN = 2**32 - 1

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


@dataclass
class VoteTally:
    """Vote counters for one edge, keyed to the canonical orientation.

    low_customer counts votes that make the lower-numbered endpoint the
    customer (a c2p vote in low->high order), high_customer the opposite.
    invalid counts votes cast when a path contradicted valley-free routing
    at this edge; they never contribute to classification shares.
    """

    low_customer: int = 0
    high_customer: int = 0
    p2p: int = 0
    invalid: int = 0

    def classification_votes(self) -> int:
        return self.low_customer + self.high_customer + self.p2p

    def shares(self) -> tuple[float, float, float]:
        """(share_c2p, share_p2c, share_p2p) in low->high order.

        All zeros when the edge has no classification votes.
        """
        total = self.low_customer + self.high_customer + self.p2p
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (
            self.low_customer / total,
            self.high_customer / total,
            self.p2p / total,
        )


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
        if self.weight < 1:
            raise ParameterError(f"path weight must be >= 1, got {self.weight}")
        for h in self.hops:
            if not (1 <= h <= MAX_ASN):
                raise ParameterError(f"AS number out of range: {h}")
        for u, v in zip(self.hops, self.hops[1:]):
            if u == v:
                raise ParameterError(f"consecutive duplicate hop {u} in {self.hops!r}")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Consecutive hop pairs in traversal order."""
        return zip(self.hops, self.hops[1:])


def total_weight(paths: Iterable[AsPath]) -> int:
    """Number of observations behind the paths: the sum of their weights."""
    return sum(path.weight for path in paths)


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
    """Final label for one edge, read in canonical low->high order."""

    edge: EdgeKey
    rel: RelType
    method: str
    share_c2p: float = 0.0
    share_p2c: float = 0.0
    share_p2p: float = 0.0
    votes: int = 0
    invalid_votes: int = 0

    @property
    def classified(self) -> bool:
        return self.rel is not RelType.UNCLASSIFIED

    @property
    def valley_only(self) -> bool:
        """True when the edge was only ever seen contradicting valley-freeness."""
        return self.votes == 0 and self.invalid_votes > 0


class AsGraph:
    """Undirected AS graph; one VoteTally per vertex pair."""

    def __init__(self):
        self._adj: dict[int, set[int]] = {}
        self._tallies: dict[EdgeKey, VoteTally] = {}

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def edges(self):
        return self._tallies.keys()

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return len(self._tallies)

    def add_vertex(self, v: int) -> None:
        if not (0 <= v <= MAX_ASN):
            raise ParameterError(f"AS number out of range: {v}")
        self._adj.setdefault(v, set())

    def add_edge(self, a: int, b: int) -> EdgeKey:
        """Insert the undirected edge (a, b); a no-op if it already exists."""
        key = edge_key(a, b)
        if key not in self._tallies:
            self.add_vertex(a)
            self.add_vertex(b)
            self._adj[a].add(b)
            self._adj[b].add(a)
            self._tallies[key] = VoteTally()
        return key

    def has_edge(self, a: int, b: int) -> bool:
        try:
            return edge_key(a, b) in self._tallies
        except SelfLoopError:
            return False

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        adj = self._adj.get(v)
        return 0 if adj is None else len(adj)

    def tally(self, key: EdgeKey) -> VoteTally:
        try:
            return self._tallies[key]
        except KeyError:
            raise UnknownEdgeError(f"edge {key} not in graph") from None

    def add_path_edges(self, path: AsPath) -> None:
        for u, v in path.edges():
            self.add_edge(u, v)

    def vote(self, a: int, b: int, rel: RelType, weight: int = 1) -> None:
        """Cast a relationship vote for the edge (a, b) in traversal order.

        A C2P vote makes a the customer, a P2C vote makes b the customer,
        and P2P is orientation free. The vote lands on the counter matching
        the canonical orientation of the edge.
        """
        key = edge_key(a, b)
        tally = self._tallies.get(key)
        if tally is None:
            raise UnknownEdgeError(f"edge {key} not in graph")
        if rel is RelType.P2P:
            tally.p2p += weight
            return
        if rel is RelType.C2P:
            customer = a
        elif rel is RelType.P2C:
            customer = b
        else:
            raise ParameterError(f"cannot vote {rel} on an edge")
        if customer == key[0]:
            tally.low_customer += weight
        else:
            tally.high_customer += weight

    def vote_invalid(self, a: int, b: int, weight: int = 1) -> None:
        key = edge_key(a, b)
        tally = self._tallies.get(key)
        if tally is None:
            raise UnknownEdgeError(f"edge {key} not in graph")
        tally.invalid += weight

    def copy_unvoted(self) -> "AsGraph":
        """Structural copy of the graph with all tallies reset to zero."""
        fresh = AsGraph()
        for v, nbrs in self._adj.items():
            fresh._adj[v] = set(nbrs)
        for key in self._tallies:
            fresh._tallies[key] = VoteTally()
        return fresh
