"""Bounded heuristics for edges the deterministic phases left open. Each
returns {edge id: (label code, method code)}, the form EdgeLabels.update
copies, so labels stay codes from finalize to the CSV writer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigurationError
from .graph import (
    LABEL_C2P,
    LABEL_P2C,
    LABEL_P2P,
    LABEL_UNCLASSIFIED,
    METHOD_CODES,
    METHOD_DEGREE_TIEBREAK,
    METHOD_GAP_P2P,
    METHOD_KSHELL_TIEBREAK,
    AsGraph,
    Corpus,
    EdgeLabels,
    arc_labels,
)

TIEBREAK_DEGREE = "degree"
TIEBREAK_KSHELL = "kshell"

# The degree tie-break peers two ASes when the smaller degree is at least
# this share of the larger one.
PEER_DEGREE_RATIO = 0.8

# An open hop between a c2p hop and a p2c hop, in walk order.
_WEDGE = bytes((LABEL_C2P, LABEL_UNCLASSIFIED, LABEL_P2C))


@dataclass
class HeuristicConfig:
    """Tie-break selector.

    tiebreak None leaves sub-threshold edges unclassified; "degree" and
    "kshell" pick a winner for every remaining edge that is not valley
    flagged.
    """

    tiebreak: str | None = None

    def __post_init__(self):
        if self.tiebreak not in (None, TIEBREAK_DEGREE, TIEBREAK_KSHELL):
            raise ConfigurationError(f"unknown tiebreak {self.tiebreak!r}")


def infer_gap_p2p(periphery: Corpus, labels: EdgeLabels) -> dict[int, tuple[int, int]]:
    """Label single unclassified edges wedged between uphill and downhill.

    A path with exactly one unclassified edge whose immediate predecessor
    is c2p and immediate successor is p2c (in traversal order) pins that
    edge at the top of the path, where the only consistent reading is a
    peering. Edges at the path boundary have no such context and are left
    alone, as are paths with two or more open edges. Existing labels are
    never overwritten. labels are over the periphery's edge ids. For each
    unclassified edge, in id order, the pass walks the periphery paths
    the edge-to-path index lists for it (periphery.listed) and stops at
    the first such witness: a path with one open hop is listed under that
    hop's edge, and one witness is enough.
    """
    arcs, offsets = periphery.arcs, periphery.offsets
    label_of = arc_labels(labels.rels).__getitem__
    gap = (LABEL_P2P, METHOD_CODES[METHOD_GAP_P2P])
    updates: dict[int, tuple[int, int]] = {}
    for e in labels.unclassified():
        for p in periphery.listed(e):
            walk = bytes(map(label_of, arcs[offsets[p] : offsets[p + 1]]))
            # e is open, so a path with one open hop has it there, and the
            # wedge can only be around it.
            if walk.count(LABEL_UNCLASSIFIED) == 1 and _WEDGE in walk:
                updates[e] = gap
                break
    return updates


def apply_tiebreaks(
    graph: AsGraph,
    labels: EdgeLabels,
    config: HeuristicConfig,
    kshell: Mapping[int, int] | None = None,
) -> dict[int, tuple[int, int]]:
    """Tie-break every unclassified edge except valley-flagged ones, from
    structural rank alone.

    graph is the run graph, whose counters hold the votes, and labels are
    over its edge ids. Valley-flagged edges (invalid votes and no other)
    were never seen behaving like a normal link, so guessing a
    relationship for them would be noise, not inference. An edge is a
    peering when the smaller endpoint rank is at least the peer ratio of
    the larger one, else the higher-ranked endpoint is the provider.
    Degree mode ranks by degree with ratio PEER_DEGREE_RATIO; k-shell mode
    ranks by kshell with ratio 1.0, so it peers equal shells (an edge
    endpoint's rank is >= 1 in both). The rule is symmetric in the
    endpoints and labels in low->high order, so it cannot depend on AS
    numbering. A k-shell mode without kshell, or no mode, raises
    ConfigurationError even when no edge is open.
    """
    if config.tiebreak == TIEBREAK_KSHELL:
        if kshell is None:
            raise ConfigurationError("kshell tiebreak requested without a shell index")
        rank, ratio, method = kshell.__getitem__, 1.0, METHOD_KSHELL_TIEBREAK
    elif config.tiebreak == TIEBREAK_DEGREE:
        rank, ratio, method = graph.degree, PEER_DEGREE_RATIO, METHOD_DEGREE_TIEBREAK
    else:
        raise ConfigurationError("no tiebreak strategy configured")
    method = METHOD_CODES[method]
    edge_keys = graph.edge_keys
    customer, p2p, invalid = graph.customer, graph.p2p, graph.invalid
    updates: dict[int, tuple[int, int]] = {}
    for e in labels.unclassified():
        if invalid[e] and not (customer[2 * e] or customer[2 * e + 1] or p2p[e]):
            continue
        rank_low, rank_high = map(rank, edge_keys[e])
        if min(rank_low, rank_high) / max(rank_low, rank_high) >= ratio:
            rel = LABEL_P2P
        else:
            rel = LABEL_P2C if rank_low > rank_high else LABEL_C2P
        updates[e] = (rel, method)
    return updates
