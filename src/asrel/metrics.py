"""Run metrics, reference comparison and the stability of two runs.

Reference files use one record per line, ``A|B|code``, where code -1 means
A is a provider of B, 0 means peering, and 1 means the pair are siblings.

The edge metrics (compare, stability, summarize_classifications) take a
run's edge records only: declared sibling pairs are not edges, and
pipeline.summarize counts their records apart. A record holds an edge's
label; write_classifications_csv reads its vote shares from the run
graph's counters.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence, TextIO

from .graph import (
    DETERMINISTIC_METHODS,
    HEURISTIC_METHODS,
    AsGraph,
    Classification,
    EdgeKey,
    RelType,
    edge_key,
    oriented,
    vote_shares,
)
from .ingest import SiblingSet, parse_relationship, read_records, set_label

HISTOGRAM_BINS = 20
# Bin i is [edge i, edge i + 1); the last bin also holds 1.0. Edge i is
# i * (1 / 20), not i / 20: edge 3 is 0.15000000000000002, so a share of
# exactly 3/20 lands in bin 2.
_HISTOGRAM_EDGES = [i * (1.0 / HISTOGRAM_BINS) for i in range(HISTOGRAM_BINS)] + [1.0]


# External relationship labels in canonical low->high order.
ReferenceSet = dict[EdgeKey, RelType]

# A reference code's relationship of A to B, read in (A, B) order.
REFERENCE_CODES = {-1: RelType.P2C, 0: RelType.P2P, 1: RelType.S2S}


def load_reference(
    lines: Iterable[str],
    siblings: SiblingSet | None = None,
    source: str = "<reference>",
) -> ReferenceSet:
    """Parse a reference file, mapping ASes through the sibling merge.

    Records that collapse onto a single AS after merging are skipped. Two
    records that disagree about the same pair make the file unusable and
    raise a parse error.
    """
    rels: ReferenceSet = {}
    flat = siblings.mapping() if siblings is not None else {}

    def parse(line: str) -> None:
        a, b, code = parse_relationship(line)
        a = flat.get(a, a)
        b = flat.get(b, b)
        if a == b:
            return
        rel = REFERENCE_CODES.get(code)
        if rel is None:
            raise ValueError(f"unknown relationship code {code}")
        set_label(rels, edge_key(a, b), oriented(rel, a, b))

    read_records(lines, source, parse)
    return rels


@dataclass
class CompareResult:
    """Agreement between a run's labels and a reference.

    Denominators: pct_match_overall divides matches by every edge of the
    inferred graph; pct_match_both divides by the edges both sides
    classified. An edge whose reference label is s2s (a sibling pair the
    run did not merge) never counts toward agreement.
    """

    edges_total: int = 0
    both_classified: int = 0
    matches: int = 0

    @property
    def pct_match_overall(self) -> float:
        return 100.0 * self.matches / self.edges_total if self.edges_total else 0.0

    @property
    def pct_match_both(self) -> float | None:
        if self.both_classified == 0:
            return None
        return 100.0 * self.matches / self.both_classified


def compare(
    classifications: Iterable[Classification], reference: ReferenceSet
) -> CompareResult:
    """Agreement of a run's edge records with reference."""
    result = CompareResult()
    for cls in classifications:
        result.edges_total += 1
        ref = reference.get(cls.edge)
        if ref is None or ref is RelType.S2S or not cls.classified:
            continue
        result.both_classified += 1
        if cls.rel is ref:
            result.matches += 1
    return result


def stability(
    a: Mapping[EdgeKey, Classification], b: Mapping[EdgeKey, Classification]
) -> tuple[float | None, int]:
    """Agreement on the edges classified in both of two runs'
    classifications, and their number; None when none overlap."""
    shared = agree = 0
    for key, cls in a.items():
        other = b.get(key)
        if other is not None and cls.classified and other.classified:
            shared += 1
            agree += cls.rel is other.rel
    if not shared:
        return None, 0
    return agree / shared, shared


def vote_share_histogram(graph: AsGraph) -> list[tuple[float, float, int]]:
    """Histogram of per-edge p2c vote shares (low->high reading).

    Only edges with at least one classification vote are counted, so the
    bin counts sum to the number of voted edges. A clean corpus is bimodal:
    everything lands in the bins containing 0 and 1.
    """
    edges = _HISTOGRAM_EDGES
    counts = [0] * HISTOGRAM_BINS
    for low, high, p2p in zip(graph.low_customer, graph.high_customer, graph.p2p):
        total = low + high + p2p
        if total:
            i = bisect.bisect_right(edges, high / total) - 1
            counts[min(i, HISTOGRAM_BINS - 1)] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(HISTOGRAM_BINS)]


@dataclass
class RunMetrics:
    """Headline numbers for one inference run.

    Percentages over edges use the inferred graph's edge count as the
    denominator; percentages over paths use the partition total (valid,
    periphery, and invalid paths together). pct_invalid_paths counts both
    paths over the core hop limit and paths that drew an invalid vote.
    Every path count counts observations: a path of weight k, from repeated
    lines or a ``weight=k`` token, counts k times.
    """

    edges: int = 0
    paths_total: int = 0
    pct_through_core: float = 0.0
    pct_invalid_paths: float = 0.0
    pct_classified: float = 0.0
    pct_deterministic: float = 0.0
    pct_heuristic: float = 0.0
    pct_match_reference_overall: float | None = None
    pct_match_reference_both: float | None = None
    method_counts: dict[str, int] = field(default_factory=dict)

    def row(self) -> dict[str, object]:
        """The metrics.csv row: every field but method_counts, in order,
        rounded to 4 places, None as empty; then one column per method."""
        row: dict[str, object] = {
            f.name: "" if (value := getattr(self, f.name)) is None else round(value, 4)
            for f in fields(self)
            if f.name != "method_counts"
        }
        for method in sorted(self.method_counts):
            row[f"method_{method.replace('-', '_')}"] = self.method_counts[method]
        return row


def summarize_classifications(
    classifications: Iterable[Classification],
) -> tuple[int, dict[str, int], float, float, float]:
    """Edge count, per-method counts, and classified shares in percent, of
    a run's edge records."""
    counts: dict[str, int] = {}
    edges = 0
    classified = deterministic = heuristic = 0
    for cls in classifications:
        edges += 1
        counts[cls.method] = counts.get(cls.method, 0) + 1
        if cls.classified:
            classified += 1
        if cls.method in DETERMINISTIC_METHODS:
            deterministic += 1
        elif cls.method in HEURISTIC_METHODS:
            heuristic += 1
    if edges == 0:
        return 0, counts, 0.0, 0.0, 0.0
    return (
        edges,
        counts,
        100.0 * classified / edges,
        100.0 * deterministic / edges,
        100.0 * heuristic / edges,
    )


def write_metrics_csv(
    rows: Sequence[Mapping[str, object]], stream: TextIO
) -> None:
    """Write rows with a fixed, order-stable header union."""
    if not rows:
        return
    header: list[str] = []
    for row in rows:
        for name in row:
            if name not in header:
                header.append(name)
    writer = csv.DictWriter(stream, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({name: row.get(name, "") for name in header})


def write_histogram_csv(
    histogram: Sequence[tuple[float, float, int]], stream: TextIO
) -> None:
    stream.write("bin_lo,bin_hi,count\n")
    for lo, hi, count in histogram:
        stream.write(f"{lo:.2f},{hi:.2f},{count}\n")


CLASSIFICATION_HEADER = (
    "low,high,rel,method,share_c2p,share_p2c,share_p2p,votes_invalid"
)


def write_classifications_csv(
    records: Iterable[Classification], graph: AsGraph, stream: TextIO
) -> None:
    """Write classification records, each with its edge's vote shares and
    invalid votes from graph's counters; byte-stable for identical runs.
    A pair that is not an edge of graph, a declared sibling pair, has no
    votes, so its row holds zeros."""
    edge_index = graph.edge_index
    low_customer, high_customer, p2p, invalid = graph.counters
    stream.write(CLASSIFICATION_HEADER + "\n")
    for cls in records:
        e = edge_index.get(cls.edge)
        if e is None:
            shares, n_invalid = (0.0, 0.0, 0.0), 0
        else:
            shares = vote_shares(low_customer[e], high_customer[e], p2p[e])
            n_invalid = invalid[e]
        stream.write(
            f"{cls.edge[0]},{cls.edge[1]},{cls.rel.value},{cls.method},"
            f"{shares[0]:.6f},{shares[1]:.6f},{shares[2]:.6f},{n_invalid}\n"
        )
