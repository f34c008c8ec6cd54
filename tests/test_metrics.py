import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrel.errors import ParseError
from asrel.graph import (
    DETERMINISTIC_METHODS,
    HEURISTIC_METHODS,
    METHOD_UNCLASSIFIED,
    METHODS,
    AsGraph,
    Classification,
    RelType,
)
from asrel.ingest import SiblingSet, parse_relationship
from asrel.metrics import (
    CLASSIFICATION_HEADER,
    ReferenceSet,
    RunMetrics,
    compare,
    load_reference,
    stability,
    summarize_classifications,
    vote_share_histogram,
    write_classifications_csv,
    write_histogram_csv,
    write_metrics_csv,
)

from oracles import edge_labels
from oracles import load_reference as reference_load_reference
from oracles import parse_relationship as reference_parse_relationship
from oracles import stability as reference_stability
from oracles import vote, vote_invalid


def cls(key, rel, method="deterministic-p1"):
    if rel is RelType.UNCLASSIFIED:
        method = "unclassified"
    return Classification(key, rel, method)


record_lines = st.one_of(
    # Well-formed records, with AS numbers and codes in and out of range.
    st.builds(
        "{}|{}|{}".format,
        st.sampled_from(["1", "2", "3", "007", "0", "4294967295", "4294967296"]),
        st.sampled_from(["1", "2", "3", "20", "21", "99999999999"]),
        st.sampled_from(["-1", "0", "1", "-0", "01", "2", "-7"]),
    ),
    # Anything close to one.
    st.text(alphabet="0123456789|-+ #x_\t\u0663", max_size=12),
)


class TestLoadReference:
    def test_code_convention(self):
        ref = load_reference(["1|2|-1\n", "3|4|0\n", "5|6|1\n"])
        assert ref.get((1, 2)) is RelType.P2C      # 1 is the provider
        assert ref.get((3, 4)) is RelType.P2P
        assert ref.get((5, 6)) is RelType.S2S

    def test_provider_direction_canonicalized(self):
        ref = load_reference(["9|2|-1\n"])          # 9 is the provider
        assert ref.get((2, 9)) is RelType.C2P

    def test_sibling_mapping_applied(self):
        siblings = SiblingSet([(20, 21)])
        ref = load_reference(["21|5|0\n"], siblings)
        assert ref.get((5, 20)) is RelType.P2P

    def test_self_pair_rejected(self):
        with pytest.raises(ParseError) as err:
            load_reference(["1|2|0\n", "5|5|0\n"], source="ref.txt")
        assert "ref.txt:2" in str(err.value)

    def test_pair_collapsing_to_one_as_skipped(self):
        siblings = SiblingSet([(20, 21)])
        ref = load_reference(["20|21|1\n"], siblings)
        assert len(ref) == 0

    def test_conflicting_records_rejected(self):
        with pytest.raises(ParseError):
            load_reference(["1|2|0\n", "1|2|-1\n"])

    def test_duplicate_consistent_records_allowed(self):
        ref = load_reference(["1|2|0\n", "2|1|0\n"])
        assert len(ref) == 1

    def test_unknown_code_rejected(self):
        with pytest.raises(ParseError):
            load_reference(["1|2|7\n"])

    def test_code_checked_before_the_sibling_collapse(self):
        # 1 and 2 are siblings, so the record names one AS; its code is
        # still read, as it is without siblings.
        with pytest.raises(ParseError) as err:
            load_reference(["1|2|7\n"], SiblingSet([(1, 2)]), "ref.txt")
        assert "ref.txt:1" in str(err.value)
        assert "not a relationship code: '7'" in str(err.value)

    @given(st.lists(record_lines, max_size=8), st.booleans())
    def test_matches_a_parse_of_every_record(self, lines, merge):
        siblings = SiblingSet([(20, 21)] if merge else [])
        lines = [line + "\n" for line in lines]
        try:
            expected = reference_load_reference(lines, siblings, "ref.txt")
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_reference(lines, siblings, "ref.txt")
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
        else:
            assert load_reference(lines, siblings, "ref.txt") == expected

    @given(record_lines)
    def test_record_parse_matches_a_field_by_field_parse(self, line):
        try:
            expected = reference_parse_relationship(line)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                parse_relationship(line)
            assert str(err.value) == str(exc)
        else:
            assert parse_relationship(line) == expected

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_reference(["1|2|0\n", "nope\n"], source="ref.txt")
        assert "ref.txt:2" in str(err.value)


class TestCompare:
    def test_eight_of_ten_with_one_reference_gap(self):
        # 8 agree, 1 disagrees, 1 edge missing from the reference:
        # overall 8/10, both-classified 8/9.
        records = [cls((i, i + 100), RelType.P2P) for i in range(1, 9)]
        records.append(cls((9, 109), RelType.C2P))      # disagrees
        records.append(cls((10, 110), RelType.P2P))     # not in reference
        ref = ReferenceSet(
            {(i, i + 100): RelType.P2P for i in range(1, 9)}
            | {(9, 109): RelType.P2C}
        )
        overall, both = compare(edge_labels(records), ref)
        assert overall == pytest.approx(80.0)
        assert both == pytest.approx(100 * 8 / 9)

    def test_empty_reference(self):
        result = compare(edge_labels([cls((1, 2), RelType.P2P)]), ReferenceSet())
        assert result == (0.0, None)

    def test_direction_flip_is_disagreement(self):
        ours = [cls((1, 2), RelType.C2P)]       # 1 is the customer
        ref = load_reference(["1|2|-1\n"])       # 1 is the provider
        assert compare(edge_labels(ours), ref) == (0.0, 0.0)

    def test_unclassified_edges_not_counted_as_both(self):
        ours = [cls((1, 2), RelType.UNCLASSIFIED)]
        ref = ReferenceSet({(1, 2): RelType.P2P})
        assert compare(edge_labels(ours), ref) == (0.0, None)

    def test_s2s_reference_records_counted_not_scored(self):
        ours = [cls((1, 2), RelType.P2P)]
        ref = ReferenceSet({(1, 2): RelType.S2S})
        assert compare(edge_labels(ours), ref) == (0.0, None)

    @given(
        st.dictionaries(
            st.tuples(st.integers(1, 6), st.integers(7, 12)),
            st.sampled_from([RelType.C2P, RelType.P2C, RelType.P2P, RelType.UNCLASSIFIED]),
            max_size=12,
        ),
        st.dictionaries(
            st.tuples(st.integers(1, 6), st.integers(7, 12)),
            st.sampled_from([RelType.C2P, RelType.P2C, RelType.P2P, RelType.S2S]),
            max_size=12,
        ),
    )
    def test_counting_invariants(self, ours, theirs):
        # A brute-force recount: n edges, b classified on both sides (an
        # s2s or missing reference never scores), m of those agreeing.
        n = len(ours)
        b = m = 0
        for key, rel in ours.items():
            ref = theirs.get(key)
            if rel is RelType.UNCLASSIFIED or ref is None or ref is RelType.S2S:
                continue
            b += 1
            m += rel is ref
        records = [cls(k, rel) for k, rel in ours.items()]
        result = compare(edge_labels(records), ReferenceSet(theirs))
        assert result == (
            100 * m / n if n else 0.0,
            100 * m / b if b else None,
        )


class TestStability:
    def test_identical_runs(self):
        records = [cls((1, 2), RelType.P2P), cls((3, 4), RelType.C2P)]
        value, shared = stability(edge_labels(records), edge_labels(records))
        assert value == 1.0
        assert shared == 2

    def test_one_flip_among_hundred(self):
        a = edge_labels(cls((i, i + 500), RelType.P2P) for i in range(1, 101))
        b = edge_labels(
            [cls((i, i + 500), RelType.P2P) for i in range(1, 100)]
            + [cls((100, 600), RelType.C2P)]
        )
        value, shared = stability(a, b)
        assert shared == 100
        assert value == pytest.approx(0.99)

    def test_disjoint_runs_undefined(self):
        value, shared = stability(
            edge_labels([cls((1, 2), RelType.P2P)]),
            edge_labels([cls((3, 4), RelType.P2P)]),
        )
        assert value is None
        assert shared == 0

    def test_unclassified_edges_not_shared(self):
        a = edge_labels([cls((1, 2), RelType.P2P), cls((3, 4), RelType.UNCLASSIFIED)])
        b = edge_labels([cls((1, 2), RelType.P2P), cls((3, 4), RelType.C2P)])
        value, shared = stability(a, b)
        assert shared == 1
        assert value == 1.0

    run_labels = st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(5, 8)),
        st.sampled_from([RelType.C2P, RelType.P2C, RelType.P2P, RelType.UNCLASSIFIED]),
        max_size=12,
    )

    @given(run_labels, run_labels)
    def test_symmetric_and_one_with_itself(self, ours, theirs):
        # The two runs list their shared edges in different id orders.
        a = edge_labels(cls(key, rel) for key, rel in ours.items())
        b = edge_labels(cls(key, rel) for key, rel in reversed(theirs.items()))
        expected = reference_stability(dict(a), dict(b))
        assert stability(a, b) == stability(b, a) == expected
        classified = len(ours) - list(ours.values()).count(RelType.UNCLASSIFIED)
        assert stability(a, a) == ((1.0, classified) if classified else (None, 0))


class TestHistogram:
    def test_counts_sum_to_voted_edges(self):
        g = AsGraph([(1, 2), (3, 4), (5, 6)])
        vote(g, 1, 2, RelType.C2P)
        vote(g, 3, 4, RelType.P2C)
        vote_invalid(g, 5, 6)
        histogram = vote_share_histogram(g)
        assert len(histogram) == 20
        assert sum(count for _, _, count in histogram) == 2

    def test_unanimous_edges_land_in_outer_bins(self):
        g = AsGraph([(1, 2), (3, 4)])
        for _ in range(5):
            vote(g, 1, 2, RelType.C2P)   # low customer: p2c share 0
            vote(g, 3, 4, RelType.P2C)   # high customer: p2c share 1
        histogram = vote_share_histogram(g)
        assert histogram[0][2] == 1
        assert histogram[-1][2] == 1
        assert sum(count for _, _, count in histogram[1:-1]) == 0

    def test_split_vote_lands_mid_bin(self):
        g = AsGraph([(1, 2)])
        vote(g, 1, 2, RelType.C2P)
        vote(g, 1, 2, RelType.P2C)
        histogram = vote_share_histogram(g)
        mid = [b for b in histogram if b[0] <= 0.5 < b[1]]
        assert mid[0][2] == 1

    @pytest.mark.parametrize(
        "k, expected_bin",
        [(0, 0), (1, 1), (3, 2), (6, 5), (7, 6), (12, 11), (14, 13),
         (17, 16), (19, 18), (20, 19)],
    )
    def test_share_on_a_bin_edge(self, k, expected_bin):
        # Edge i is i * (1 / 20). For k = 3, 6, 7, 12, 14, 17 and 19 that
        # lies just above k / 20, so a share of exactly k / 20 falls in the
        # bin below; a share of 1 falls in the last bin.
        g = AsGraph([(1, 2)])
        vote(g, 1, 2, RelType.P2C, k)
        vote(g, 1, 2, RelType.C2P, 20 - k)
        counts = [count for _, _, count in vote_share_histogram(g)]
        assert counts.index(1) == expected_bin
        assert sum(counts) == 1


def test_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, asrel, asrel.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestSummaries:
    def records(self):
        return [
            cls((1, 2), RelType.C2P, "deterministic-p1"),
            cls((3, 4), RelType.P2C, "deterministic-p2"),
            cls((5, 6), RelType.P2P, "gap-p2p"),
            cls((7, 8), RelType.UNCLASSIFIED),
        ]

    def test_counts_and_shares(self):
        metrics = summarize_classifications(edge_labels(self.records()))
        assert metrics == RunMetrics(
            edges=4,
            pct_classified=75.0,
            pct_deterministic=50.0,
            pct_heuristic=25.0,
            method_counts={
                "deterministic-p1": 1,
                "deterministic-p2": 1,
                "gap-p2p": 1,
                "unclassified": 1,
            },
        )

    def test_empty_input(self):
        assert summarize_classifications(edge_labels([])) == RunMetrics()

    @given(
        st.dictionaries(
            st.tuples(st.integers(1, 6), st.integers(7, 12)),
            st.sampled_from(
                [(RelType.UNCLASSIFIED, METHOD_UNCLASSIFIED)]
                + [(rel, method) for rel in (RelType.C2P, RelType.P2C, RelType.P2P)
                   for method in METHODS if method != METHOD_UNCLASSIFIED]
            ),
            max_size=12,
        )
    )
    def test_agrees_with_a_count_of_methods(self, ours):
        records = edge_labels(
            [Classification(k, rel, method) for k, (rel, method) in ours.items()]
        )
        metrics = summarize_classifications(records)
        counts = Counter(record.method for record in records.values())
        n = len(ours)

        def pct(methods):
            return 100 * sum(counts[method] for method in methods) / n if n else 0.0

        assert metrics == RunMetrics(
            edges=n,
            pct_classified=pct(set(counts) - {METHOD_UNCLASSIFIED}),
            pct_deterministic=pct(DETERMINISTIC_METHODS),
            pct_heuristic=pct(HEURISTIC_METHODS),
            method_counts=dict(counts),
        )


class TestCsvWriters:
    def test_metrics_rows_with_uneven_columns(self):
        buf = io.StringIO()
        write_metrics_csv(
            [{"a": 1, "b": 2}, {"a": 3, "c": 4}], buf
        )
        lines = buf.getvalue().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,2,"
        assert lines[2] == "3,,4"

    def test_no_metrics_rows_write_nothing(self):
        buf = io.StringIO()
        write_metrics_csv([], buf)
        assert buf.getvalue() == ""

    def test_histogram_format(self):
        buf = io.StringIO()
        write_histogram_csv([(0.0, 0.05, 3)], buf)
        assert buf.getvalue() == "bin_lo,bin_hi,count\n0.00,0.05,3\n"

    def test_classifications_format(self):
        buf = io.StringIO()
        g = AsGraph([(3, 7)])
        vote(g, 3, 7, RelType.C2P, weight=5)
        vote_invalid(g, 3, 7)
        records = edge_labels([cls((3, 7), RelType.C2P)], g)
        siblings = [Classification((8, 9), RelType.S2S, "sibling-db")]
        write_classifications_csv(records, siblings, g, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CLASSIFICATION_HEADER
        assert lines[1] == "3,7,c2p,deterministic-p1,1.000000,0.000000,0.000000,1"
        assert lines[2] == "8,9,s2s,sibling-db,0.000000,0.000000,0.000000,0"
