"""Path corpus loading: parsing, sibling merging, cleanup, noise filtering.

Input conventions:

* BGP path files: one path per line, space separated AS numbers, optional
  trailing ``weight=K`` token, ``#`` starts a comment line.
* Traceroute path files: same, but each line is prefixed ``agent_id|``.
* Sibling files: two AS numbers per line; each line declares the pair to
  belong to one organisation. The connected components of the pairs are
  the sibling groups, each named by its smallest AS (SiblingSet, built
  once from the pairs by components).

Sibling, core, peer and reference files are line files of one kind: blank
lines and ``#`` lines are skipped, every other line is one record, and a
malformed record is a ParseError at its file and line (read_records). A
record that names an AS pair names two distinct ASes (parse_pair), an
``A|B|code`` record's code is exactly -1, 0 or 1 (parse_relationship),
and two records that give one pair different labels are an error
(set_label).
Bytes that are not UTF-8 are a ParseError whose source is the file, read
``cannot read NAME: not UTF-8 text``, from read_records or read_path_file.

Paths are normalized before use: sibling ASes are collapsed onto one
representative, consecutive duplicate hops (prepending artifacts) are
merged, and a path that revisits an AS is cut just before the hop that
closes the loop. Traceroute-only edges reported by fewer than two
measurement agents are dropped and the affected paths are split around
them.

Repeated observations are merged rather than replayed: identical lines of
one source, in one file or across several, become one path whose weight
counts them, and paths that normalize to the same hops, source and agent
become one path whose weight is the sum of theirs. The segments a split
leaves merge the same way, so each cleaned path is one record. Every path
count is a count of observations, so a path of weight k counts as k paths
everywhere.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ParameterError, ParseError
from .graph import (
    MAX_ASN, MAX_WEIGHT, AsGraph, AsPath, Corpus, EdgeKey, RelType, edge_key
)


def components(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Every AS named in pairs, mapped to the smallest AS of its connected
    component: a union-find with path halving whose roots are minima."""
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while (up := parent.setdefault(a, a)) != a:
            # parent[a] is assigned before a: halve a's path, then step.
            parent[a] = a = parent[up]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {asn: find(asn) for asn in parent}


class SiblingSet:
    """The sibling groups that a list of declared pairs makes: each group
    is a connected component of the pairs, and its representative is its
    smallest AS. An AS that no pair names is its own representative.

    The value is built once from its pairs and never changes.
    """

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self._pairs = tuple(sorted({edge_key(a, b) for a, b in pairs}))
        self._mapping = {
            asn: rep for asn, rep in components(self._pairs).items() if asn != rep
        }

    def mapping(self) -> dict[int, int]:
        """Every AS that is not its own representative, mapped to it.

        Hops are mapped with one dict lookup each: ``map(flat.get, hops,
        hops)``, and a path none of whose hops is a key maps to itself.
        """
        return self._mapping

    def pairs(self) -> list[EdgeKey]:
        """Declared sibling pairs, deduplicated, in sorted order."""
        return list(self._pairs)


def read_records(
    lines: Iterable[str], source: str, parse: Callable[[str], None]
) -> None:
    """Call parse on every record line, stripped, skipping blank and ``#``
    lines. A ValueError from parse is a ParseError at source and the line's
    1-based number; bytes that are not UTF-8, a ParseError naming source."""
    try:
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    parse(line)
                except ValueError as exc:
                    raise ParseError(str(exc), source, lineno) from None
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", source) from None


def parse_asn(token: str) -> int:
    """The AS number a token of ASCII digits names; ValueError for any
    other token, such as ``+7``, ``1_0`` or non-ASCII digits."""
    if not (token.isdigit() and token.isascii()):
        raise ValueError(f"not an AS number: {token!r}")
    value = int(token)
    # AS 0 is reserved and never routes, so it marks a malformed line.
    if not (1 <= value <= MAX_ASN):
        raise ValueError(f"AS number out of range: {token}")
    return value


def parse_pair(tokens: Sequence[str]) -> tuple[int, int]:
    """The two distinct AS numbers that two tokens name, in written order.

    ValueError for any other number of tokens, a token that is not an AS
    number, or a pair that names one AS twice: such a pair carries no
    relationship and usually marks a malformed file.
    """
    if len(tokens) != 2:
        raise ValueError(f"expected two AS numbers, got {' '.join(tokens)!r}")
    a, b = parse_asn(tokens[0]), parse_asn(tokens[1])
    if a == b:
        raise ValueError(f"AS {a} paired with itself")
    return a, b


# A relationship code's relationship of A to B, read in (A, B) order: -1
# means A is a provider of B, 0 peering, and 1 that the pair are siblings.
REFERENCE_CODES = {-1: RelType.P2C, 0: RelType.P2P, 1: RelType.S2S}

# A well-formed ``A|B|code`` record, but for its AS numbers' range and
# that they differ.
_RELATIONSHIP = re.compile(r"([0-9]+)\|([0-9]+)\|(-1|0|1)")


def parse_relationship(line: str) -> tuple[int, int, int]:
    """(A, B, code) of one ``A|B|code`` record, the relationship format of
    reference and peer files. The code field is exactly ``-1``, ``0`` or
    ``1`` (REFERENCE_CODES). Any other line is a ValueError that names the
    field at fault."""
    match = _RELATIONSHIP.fullmatch(line)
    if match is not None:
        a, b = int(match[1]), int(match[2])
        if 1 <= a <= MAX_ASN and 1 <= b <= MAX_ASN and a != b:
            return a, b, int(match[3])
    fields = line.split("|")
    if len(fields) != 3:
        raise ValueError(f"expected A|B|code, got {line!r}")
    parse_pair(fields[:2])
    raise ValueError(f"not a relationship code: {fields[2]!r}")


def set_label(labels: dict[EdgeKey, RelType], key: EdgeKey, rel: RelType) -> None:
    """labels[key] = rel; ValueError if key already has another label."""
    existing = labels.setdefault(key, rel)
    if existing is not rel:
        raise ValueError(
            f"conflicting records for pair {key}: {existing.value} vs {rel.value}"
        )


def load_sibling_pairs(lines: Iterable[str], source: str = "<siblings>") -> SiblingSet:
    """Parse a sibling file, one ``ASN ASN`` pair per line, into a SiblingSet."""
    pairs: list[tuple[int, int]] = []
    read_records(lines, source, lambda line: pairs.append(parse_pair(line.split())))
    return SiblingSet(pairs)


def normalize_path(
    raw_hops: Sequence[int], siblings: SiblingSet | None = None
) -> tuple[tuple[int, ...] | None, bool]:
    """Normalize a raw hop sequence into (hops, truncated).

    Steps, in order: map every hop to its sibling representative, merge
    consecutive duplicates, and if a hop closes a loop keep only the strict
    prefix before it. Results with fewer than two hops are dropped: hops is
    None. truncated says a loop was cut; a cut keeps at least two hops, so
    a dropped path was too short to begin with.
    A tuple that none of these steps changes is returned as is, not copied.
    """
    mapped = tuple(raw_hops)
    if siblings is not None:
        flat = siblings.mapping()
        if not flat.keys().isdisjoint(mapped):
            mapped = tuple(map(flat.get, mapped, mapped))

    if len(set(mapped)) == len(mapped):
        # No AS repeats, so there is nothing to collapse or truncate.
        return (mapped if len(mapped) >= 2 else None), False

    hops: list[int] = []
    for h in mapped:
        if hops and h == hops[-1]:
            continue
        if h in hops:
            return tuple(hops), True
        hops.append(h)
    return (tuple(hops) if len(hops) >= 2 else None), False


@dataclass
class IngestReport:
    """Counters describing what ingestion kept, trimmed, and discarded.

    Path counters count observations: a path of weight k, from a repeated
    line or a ``weight=k`` token, adds k. edges_filtered_single_agent
    counts edges.
    """

    paths_read: int = 0
    paths_dropped_short: int = 0
    paths_truncated_loop: int = 0
    edges_filtered_single_agent: int = 0
    paths_split: int = 0


# A parsed line is an AsPath too; perfbench/inputs.py imports this name.
RawPath = AsPath


def parse_path_line(
    line: str, source: str, asns: dict[str, int] | None = None, count: int = 1
) -> AsPath | None:
    """The AsPath of one line of a path file; None for blanks and comments.

    asns maps each token already parsed to its AS number, so that equal
    tokens on many lines share one int, and equal agent ids share one str.
    count is how many times the line occurs; it multiplies the weight.
    Raises ValueError on malformed content, such as an AS out of range, or
    a weight times count above MAX_WEIGHT; callers add file/line context.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None

    agent = ""
    body = stripped
    if source == "trace":
        if "|" not in stripped:
            raise ValueError("traceroute line is missing the agent_id| prefix")
        agent, body = stripped.split("|", 1)
        agent = sys.intern(agent.strip())
        if not agent:
            raise ValueError("empty agent id")
    if "|" in body:
        raise ValueError("unexpected '|' in path hops")

    tokens = body.split()
    weight = 1
    if tokens and tokens[-1].startswith("weight="):
        digits = tokens[-1][len("weight="):]
        if not (digits.isdigit() and digits.isascii()):
            raise ValueError(f"bad weight token {tokens[-1]!r}")
        weight = int(digits)
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        tokens = tokens[:-1]
    if not tokens:
        raise ValueError("no hops on line")
    weight *= count
    if weight > MAX_WEIGHT:
        raise ValueError(f"weight exceeds {MAX_WEIGHT}")

    asns = {} if asns is None else asns
    for token in tokens:
        if token not in asns:
            asns[token] = parse_asn(token)
    return AsPath(tuple([asns[t] for t in tokens]), source, agent, weight)


def read_path_file(
    streams: Iterable[tuple[str, Iterable[str]]], source: str
) -> list[AsPath]:
    """One checked AsPath per distinct line of one source's files, in
    order of first occurrence; its hops are not yet normalized.

    streams are (name, line iterable) pairs, read in order. Lines are
    counted across all of them before any is parsed, so a line that occurs
    n times, in one file or several, is parsed once and its weight
    multiplied by n. A malformed line is reported at the name and line
    number of its first occurrence. Equal AS numbers share one int object.
    """
    counts: dict[str, int] = {}
    # firsts holds (distinct lines seen before the stream, its name);
    # linenos[j] is the line number of distinct line j's first occurrence.
    firsts: list[tuple[int, str]] = []
    linenos = array("q")
    for name, stream in streams:
        firsts.append((len(counts), name))
        try:
            for lineno, line in enumerate(stream, 1):
                n = counts.get(line)
                if n is None:
                    counts[line] = 1
                    linenos.append(lineno)
                else:
                    counts[line] = n + 1
        except UnicodeDecodeError:
            raise ParseError("not UTF-8 text", name) from None

    asns: dict[str, int] = {}
    raws: list[AsPath] = []
    for j, (line, n) in enumerate(counts.items()):
        try:
            raw = parse_path_line(line, source, asns, n)
        except ValueError as exc:
            name = next(name for start, name in reversed(firsts) if start <= j)
            raise ParseError(str(exc), name, linenos[j]) from None
        if raw is not None:
            raws.append(raw)
    return raws


def _weight_error(hops: tuple[int, ...]) -> ParseError:
    """The error for a merged path whose summed weight is above MAX_WEIGHT."""
    path = " ".join(map(str, hops))
    return ParseError(f"path {path}: weight exceeds {MAX_WEIGHT}")


def _agent_filter(merged: dict) -> tuple[int, int]:
    """Drop, from ingest_paths's merge dict, the traceroute-only edges that
    fewer than two agents reported; returns the number of edges removed and
    the weight of the paths split.

    An edge survives if two distinct agents reported it or if it appears
    in any BGP path. A traceroute path with a removed edge loses its key,
    and each maximal sub-path of at least two hops between its removed
    edges is merged back into the dict like any other path. BGP paths,
    whose edges are never removed, stay as they are.
    """
    # Edge -> its only reporting agent, or None once a BGP path or a second
    # agent reports it.
    reporter: dict[EdgeKey, str | None] = {}
    for hops, source, agent in merged:
        agent = None if source == "bgp" else agent
        for u, v in zip(hops, hops[1:]):
            key = (u, v) if u < v else (v, u)
            if reporter.setdefault(key, agent) != agent:
                reporter[key] = None
    edges_removed = sum(agent is not None for agent in reporter.values())
    if not edges_removed:
        return 0, 0

    paths_split = 0
    for path, weight in list(merged.items()):
        hops, source, agent = path
        cuts = [
            i
            for i, (u, v) in enumerate(zip(hops, hops[1:]), 1)
            if reporter[(u, v) if u < v else (v, u)] is not None
        ]
        if not cuts:
            continue
        paths_split += weight
        del merged[path]
        for start, end in zip([0, *cuts], [*cuts, len(hops)]):
            if end - start >= 2:
                key = (hops[start:end], source, agent)
                total = weight + merged.get(key, 0)
                if total > MAX_WEIGHT:
                    raise _weight_error(key[0])
                merged[key] = total
    return edges_removed, paths_split


def ingest_paths(
    raw_paths: Iterable[AsPath],
    siblings: SiblingSet | None = None,
) -> tuple[list[AsPath], IngestReport]:
    """Normalize raw paths, merge repeats and apply the multi-agent edge filter.

    Paths that normalize to the same hops, source and agent become one
    AsPath, at the place of the first, whose weight is the sum of theirs.
    The segments the filter splits a path into merge the same way, a new
    one after the rest, so no two returned paths share hops, source and
    agent. A sum above MAX_WEIGHT is a ParseError naming the path, and a
    source other than "bgp" or "trace" a ParameterError; the compile
    (Corpus) checks the rest.
    """
    report = IngestReport()
    merged: dict[tuple[tuple[int, ...], str, str], int] = {}
    for raw in raw_paths:
        weight = raw.weight
        report.paths_read += weight
        hops, truncated = normalize_path(raw.hops, siblings)
        if truncated:
            report.paths_truncated_loop += weight
        if hops is None:
            report.paths_dropped_short += weight
            continue
        key = (hops, raw.source, raw.agent)
        weight += merged.get(key, 0)
        if weight > MAX_WEIGHT:
            raise _weight_error(hops)
        merged[key] = weight

    sources = {source for _, source, _ in merged}
    if not sources <= {"bgp", "trace"}:
        bad = next(s for _, s, _ in merged if s not in ("bgp", "trace"))
        raise ParameterError(f"unknown path source {bad!r}")
    if "trace" in sources:
        report.edges_filtered_single_agent, report.paths_split = _agent_filter(merged)
    return [
        AsPath(hops, source, agent, weight)
        for (hops, source, agent), weight in merged.items()
    ], report


def load_corpus(
    bgp_streams: Sequence[tuple[str, Iterable[str]]] = (),
    trace_streams: Sequence[tuple[str, Iterable[str]]] = (),
    siblings: SiblingSet | None = None,
) -> tuple[list[AsPath], IngestReport]:
    """Read, normalize, and filter a whole corpus.

    Streams are given as (name, line iterable) pairs; the name is only used
    in parse error messages. The lines of each source are merged across
    its streams before parsing (see read_path_file).
    """
    raws = read_path_file(bgp_streams, "bgp") + read_path_file(trace_streams, "trace")
    return ingest_paths(raws, siblings)


def build_graph(paths: Iterable[AsPath]) -> AsGraph:
    """Union of all path edges, with zeroed vote counters.

    One walk over the hops adds the edges and compiles the paths against
    their ids; the graph keeps that corpus for compile_corpus to reuse.
    """
    graph = AsGraph()
    graph.corpus = Corpus(graph, paths, grow=True)
    return graph
