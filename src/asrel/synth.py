"""Synthetic tiered topologies with known relationships, and path sampling.

The generator builds a strict hierarchy: tier 1 is a clique of peers, and
every vertex below tier 1 buys transit from at least one vertex in the
tier directly above. Peering also occurs inside lower tiers, thinning out
with depth. The provider-to-customer digraph is acyclic by construction.

The sampler emits valley-free paths (up some provider links, optionally
across one peer link, down some customer links) and can inject three kinds
of measurement noise: routing loops, valley violations, and AS prepending.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TextIO

from .core import CoreGraph, _induced_edges
from .errors import ParameterError
from .graph import AsGraph, AsPath, EdgeKey, RelType, edge_key, oriented
from .metrics import REFERENCE_CODES

# The sampler's walk: the chance to climb one more provider hop, to cross
# one peer link at the top, and to descend one more customer hop.
ASCEND_PROB = 0.85
PEER_CROSS_PROB = 0.5
DESCEND_PROB = 0.85


@dataclass
class NoiseConfig:
    loop_prob: float = 0.0
    valley_prob: float = 0.0
    prepend_prob: float = 0.0

    def __post_init__(self):
        for name in ("loop_prob", "valley_prob", "prepend_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {p}")


@dataclass
class GenConfig:
    """Ground truth and sampling parameters.

    tier_sizes[0] is the top tier and must hold at least 4 vertices so the
    top clique is non-trivial. multihome is the mean provider count per
    non-top vertex (minimum one). peer_prob drives intra-tier peering: a
    tier at depth i >= 2 receives about peer_prob * size / 2**(i-1) peer
    edges, so peering thins out with depth. paths is the number of sampled
    paths; agents the size of the synthetic measurement agent pool.
    """

    tier_sizes: tuple[int, ...]
    peer_prob: float = 0.3
    multihome: float = 2.0
    paths: int = 10000
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0
    agents: int = 10

    def __post_init__(self):
        if not self.tier_sizes:
            raise ParameterError("tier_sizes must not be empty")
        if self.tier_sizes[0] < 4:
            raise ParameterError(
                f"top tier needs at least 4 vertices, got {self.tier_sizes[0]}"
            )
        if any(n < 0 for n in self.tier_sizes):
            raise ParameterError("tier sizes must be non-negative")
        if not 0.0 <= self.peer_prob <= 1.0:
            raise ParameterError(f"peer_prob must be in [0, 1], got {self.peer_prob}")
        if self.multihome < 1.0:
            raise ParameterError(f"multihome must be >= 1, got {self.multihome}")
        if self.paths < 0:
            raise ParameterError(f"paths must be >= 0, got {self.paths}")
        if self.agents < 1:
            raise ParameterError(f"agents must be >= 1, got {self.agents}")


@dataclass
class GroundTruth:
    """A generated topology with its true relationship labels."""

    graph: AsGraph
    labels: dict[EdgeKey, RelType]
    tiers: dict[int, int]
    providers: dict[int, list[int]]
    customers: dict[int, list[int]]
    peers: dict[int, list[int]]

    def tier_members(self, tier: int) -> list[int]:
        return sorted(v for v, t in self.tiers.items() if t == tier)

    def label(self, a: int, b: int) -> RelType:
        """True relationship of a to b in (a, b) order."""
        return oriented(self.labels[edge_key(a, b)], a, b)

    def true_core(self) -> CoreGraph:
        """The top-tier clique as a core, without preassignments."""
        members = set(self.tier_members(1))
        return CoreGraph(members, _induced_edges(self.graph, members))


def _stage_rng(seed: int, stage: str) -> random.Random:
    """Independent generator per pipeline stage, derived from one seed."""
    return random.Random(f"{seed}:{stage}")


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def generate(config: GenConfig) -> GroundTruth:
    """Build a tiered topology with known labels, deterministic per seed."""
    rng = _stage_rng(config.seed, "generate")
    graph = AsGraph()
    labels: dict[EdgeKey, RelType] = {}
    tiers: dict[int, int] = {}
    providers: dict[int, list[int]] = {}
    customers: dict[int, list[int]] = {}
    peers: dict[int, list[int]] = {}

    tier_vertices: list[list[int]] = []
    next_asn = 1
    for size in config.tier_sizes:
        tier_vertices.append(list(range(next_asn, next_asn + size)))
        next_asn += size

    def add(u: int, v: int, rel: RelType) -> None:
        # rel is read in (u, v) order
        key = graph.add_edge(u, v)
        labels[key] = oriented(rel, u, v)

    for depth, members in enumerate(tier_vertices, start=1):
        for v in members:
            tiers[v] = depth
            providers[v] = []
            customers[v] = []
            peers[v] = []
            graph.add_vertex(v)

    top = tier_vertices[0]
    for i, u in enumerate(top):
        for v in top[i + 1 :]:
            add(u, v, RelType.P2P)
            peers[u].append(v)
            peers[v].append(u)

    for depth in range(2, len(tier_vertices) + 1):
        members = tier_vertices[depth - 1]
        above = tier_vertices[depth - 2]
        if members and not above:
            raise ParameterError(
                f"tier {depth} has vertices but tier {depth - 1} is empty"
            )
        for v in members:
            want = 1 + _poisson(rng, config.multihome - 1.0)
            want = min(want, len(above))
            for p in rng.sample(above, want):
                add(v, p, RelType.C2P)
                providers[v].append(p)
                customers[p].append(v)

        if len(members) >= 2:
            target = int(config.peer_prob * len(members) / 2 ** (depth - 1))
            chosen: set[EdgeKey] = set()
            attempts = 0
            while len(chosen) < target and attempts < 50 * target + 50:
                attempts += 1
                a, b = rng.sample(members, 2)
                key = edge_key(a, b)
                if key in chosen or key in labels:
                    continue
                chosen.add(key)
                add(a, b, RelType.P2P)
                peers[a].append(b)
                peers[b].append(a)

    return GroundTruth(graph, labels, tiers, providers, customers, peers)


def _sample_clean(
    truth: GroundTruth, rng: random.Random, vertices: Sequence[int]
) -> list[int]:
    for _ in range(64):
        v = rng.choice(vertices)
        hops = [v]
        while truth.providers[v] and rng.random() < ASCEND_PROB:
            v = rng.choice(truth.providers[v])
            hops.append(v)
        if truth.peers[v] and rng.random() < PEER_CROSS_PROB:
            v = rng.choice(truth.peers[v])
            hops.append(v)
        while truth.customers[v] and rng.random() < DESCEND_PROB:
            v = rng.choice(truth.customers[v])
            hops.append(v)
        # Reject walks that revisit a vertex: clean corpora are loop-free,
        # so repeats should only ever come from injected noise.
        if len(hops) >= 2 and len(set(hops)) == len(hops):
            return hops
    # After 64 walks that all stopped at their first vertex or looped,
    # the path is one hop from the last walk's start.
    v = hops[0]
    nbrs = sorted(truth.graph.neighbors(v))
    return [v, rng.choice(nbrs)]


def _inject_valley(
    truth: GroundTruth, hops: list[int], rng: random.Random
) -> list[int]:
    """Extend the path so it violates valley-free routing under the truth.

    Preference order keeps the injected hops from repeating earlier ones,
    because a repeat would be cut at ingest; every branch still guarantees
    the labeled hop sequence breaks the up, across, down grammar.
    """
    prev, last = hops[-2], hops[-1]
    rel = truth.label(prev, last)

    def pick(cands: list[int]) -> int | None:
        fresh = [c for c in cands if c not in hops]
        pool = fresh or cands
        return rng.choice(pool) if pool else None

    if rel is RelType.P2C:
        # Downhill tail: one move up or across breaks the grammar.
        up = [x for x in truth.providers[last] + truth.peers[last] if x != prev]
        choice = pick(up)
        return hops + [choice if choice is not None else prev]

    extended = list(hops)
    cur = last
    if rel is RelType.P2P and truth.providers[cur]:
        # Up after across already breaks the grammar.
        choice = pick(truth.providers[cur])
        return extended + [choice]
    # Climb to the top tier, then take two peer steps; a second peer edge
    # (or a peer edge after the climb, when the path already crossed one)
    # breaks the grammar. The top clique has >= 4 members, so two distinct
    # peers always exist.
    while truth.tiers[cur] != 1:
        choice = pick(truth.providers[cur])
        extended.append(choice)
        cur = choice
    first = pick([x for x in truth.peers[cur] if x != extended[-2]])
    extended.append(first)
    second = pick([x for x in truth.peers[first] if x != cur and x != first])
    extended.append(second)
    return extended


def _inject_loop(hops: list[int], rng: random.Random) -> list[int]:
    """Duplicate one adjacent hop pair, producing a back-and-forth loop.

    Every edge of the result exists in the topology, and the repeated AS
    is non-consecutive, so ingest will recognize and trim it.
    """
    i = rng.randrange(len(hops) - 1)
    return hops[: i + 2] + hops[i:]


def _inject_prepend(hops: list[int], rng: random.Random) -> list[int]:
    i = rng.randrange(len(hops))
    return hops[: i + 1] + [hops[i]] + hops[i + 1 :]


def sample_paths(
    truth: GroundTruth, config: GenConfig, seed: int | None = None
) -> list[AsPath]:
    """Sample config.paths raw paths, valley-free except for injected noise.

    The result models an uncleaned corpus: loop and prepend noise leave
    repeated ASes in place, so these AsPath records, as read_path_file
    gives them, must round-trip through ingest before inference. Paths are
    traceroute observations with an agent drawn from the configured pool.
    A separate seed may be supplied to draw several independent corpora
    from one topology.
    """
    rng = _stage_rng(config.seed if seed is None else seed, "sample")
    vertices = sorted(truth.graph.vertices)
    if not vertices or truth.graph.n_edges == 0:
        raise ParameterError("cannot sample paths from an edgeless topology")
    noise = config.noise
    paths: list[AsPath] = []
    for _ in range(config.paths):
        hops = _sample_clean(truth, rng, vertices)
        if noise.valley_prob and rng.random() < noise.valley_prob:
            hops = _inject_valley(truth, hops, rng)
        if noise.loop_prob and rng.random() < noise.loop_prob:
            hops = _inject_loop(hops, rng)
        if noise.prepend_prob and rng.random() < noise.prepend_prob:
            hops = _inject_prepend(hops, rng)
        agent = f"agent-{rng.randrange(config.agents)}"
        paths.append(AsPath(tuple(hops), "trace", agent, 1))
    return paths


def write_paths_file(paths: Iterable[AsPath], stream: TextIO) -> None:
    """Write paths as read_path_file reads them back, if no two share a
    line; only traceroute paths get agent prefixes, so keep one kind per file."""
    for path in paths:
        hops = " ".join(str(h) for h in path.hops)
        weight = f" weight={path.weight}" if path.weight != 1 else ""
        if path.source == "trace":
            stream.write(f"{path.agent}|{hops}{weight}\n")
        else:
            stream.write(f"{hops}{weight}\n")


def write_reference_file(
    labels: Mapping[EdgeKey, RelType], stream: TextIO
) -> None:
    """Write labels as ``A|B|code`` lines, by metrics.REFERENCE_CODES: -1
    provider first, 0 peer, 1 sibling."""
    codes = {rel: code for code, rel in REFERENCE_CODES.items()}
    for (low, high), rel in sorted(labels.items()):
        # A c2p label is written provider first, as p2c in (high, low) order.
        a, b = (high, low) if rel is RelType.C2P else (low, high)
        code = codes.get(oriented(rel, a, b))
        if code is None:
            raise ParameterError(f"cannot serialize label {rel} for ({low}, {high})")
        stream.write(f"{a}|{b}|{code}\n")
