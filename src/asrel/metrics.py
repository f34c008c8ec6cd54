"""Run metrics, reference comparison and the stability of two runs.

Reference files use one record per line, ``A|B|code``, where code -1 means
A is a provider of B, 0 means peering, and 1 means the pair are siblings.

The edge metrics (compare, stability, summarize_classifications) take a
run's edge labels only: declared sibling pairs are not edges, and
pipeline.summarize counts their records apart. A label holds an edge's
relationship and method; write_classifications_csv reads its vote shares
from the run graph's counters.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field, fields
from operator import is_
from typing import Iterable, Mapping, Sequence, TextIO

from .graph import (
    DETERMINISTIC_METHODS,
    HEURISTIC_METHODS,
    LABEL_RELS,
    LABEL_UNCLASSIFIED,
    METHODS,
    AsGraph,
    Classification,
    EdgeKey,
    EdgeLabels,
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


def compare(
    labels: EdgeLabels, reference: ReferenceSet
) -> tuple[float, float | None]:
    """Agreement of a run's edge labels with reference, whose labels are
    c2p, p2c, p2p or s2s: (pct_match_overall, pct_match_both) in percent.

    pct_match_overall divides the matches by every edge of the inferred
    graph, and is 0.0 when it has none; pct_match_both divides them by the
    edges both sides classified, and is None when there are none. An edge
    whose reference label is s2s (a sibling pair the run did not merge)
    never counts toward agreement.
    """
    refs = list(map(reference.get, labels.edge_keys))
    unscored = refs.count(None) + refs.count(RelType.S2S)
    open_refs = list(map(refs.__getitem__, labels.unclassified()))
    open_scored = len(open_refs) - open_refs.count(None) - open_refs.count(RelType.S2S)
    both = len(refs) - unscored - open_scored
    matches = sum(map(is_, map(LABEL_RELS.__getitem__, labels.rels), refs))
    return (
        100.0 * matches / len(refs) if refs else 0.0,
        100.0 * matches / both if both else None,
    )


def stability(a: EdgeLabels, b: EdgeLabels) -> tuple[float | None, int]:
    """Agreement on the edges classified in both of two runs' edge labels,
    and their number; None when none overlap."""
    index, rels = b.edge_index, b.rels
    shared = agree = 0
    for key, rel in zip(a.edge_keys, a.rels):
        e = index.get(key)
        other = LABEL_UNCLASSIFIED if e is None else rels[e]
        if LABEL_UNCLASSIFIED not in (rel, other):
            shared += 1
            agree += rel == other
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
    customer = graph.customer
    for low, high, p2p in zip(customer[0::2], customer[1::2], graph.p2p):
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


def summarize_classifications(labels: EdgeLabels) -> RunMetrics:
    """The metrics of a run's edge labels: the edge count, per-method
    counts, and classified shares in percent. The path shares, the
    reference agreement and any sibling count are the caller's to fill."""
    methods = labels.methods
    edges = len(methods)
    counts = {
        method: n for code, method in enumerate(METHODS) if (n := methods.count(code))
    }
    if edges == 0:
        return RunMetrics(method_counts=counts)
    classified = edges - labels.rels.count(LABEL_UNCLASSIFIED)
    deterministic = sum(counts.get(method, 0) for method in DETERMINISTIC_METHODS)
    heuristic = sum(counts.get(method, 0) for method in HEURISTIC_METHODS)
    return RunMetrics(
        edges=edges,
        pct_classified=100.0 * classified / edges,
        pct_deterministic=100.0 * deterministic / edges,
        pct_heuristic=100.0 * heuristic / edges,
        method_counts=counts,
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
    labels: EdgeLabels,
    sibling_records: Iterable[Classification],
    graph: AsGraph,
    stream: TextIO,
) -> None:
    """Write one row per edge label, in edge order, then the sibling
    records; byte-stable for identical runs. labels are over graph's edge
    ids, and each row takes its edge's vote shares and invalid votes from
    graph's counters. A sibling pair that is not an edge of graph has no
    votes, so its row holds zeros."""
    customer, p2p, invalid = graph.customer, graph.p2p, graph.invalid

    def row(key: EdgeKey, rel: str, method: str, e: int | None) -> str:
        if e is None:
            shares, n_invalid = (0.0, 0.0, 0.0), 0
        else:
            shares = vote_shares(customer[2 * e], customer[2 * e + 1], p2p[e])
            n_invalid = invalid[e]
        return (
            f"{key[0]},{key[1]},{rel},{method},"
            f"{shares[0]:.6f},{shares[1]:.6f},{shares[2]:.6f},{n_invalid}\n"
        )

    keys, rels, methods = labels.edge_keys, labels.rels, labels.methods
    rel_values = [rel.value for rel in LABEL_RELS]
    stream.write(CLASSIFICATION_HEADER + "\n")
    stream.writelines(
        row(keys[e], rel_values[rels[e]], METHODS[methods[e]], e)
        for e in sorted(range(len(keys)), key=keys.__getitem__)
    )
    edge_index = graph.edge_index
    stream.writelines(
        row(cls.edge, cls.rel.value, cls.method, edge_index.get(cls.edge))
        for cls in sibling_records
    )
