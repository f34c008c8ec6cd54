from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrel.core import load_external_core, read_core_file
from asrel.errors import ParseError
from asrel.graph import MAX_WEIGHT, AsPath
from asrel.ingest import (
    SiblingSet,
    build_graph,
    components,
    ingest_paths,
    load_corpus,
    load_sibling_pairs,
    normalize_path,
    parse_path_line,
    read_path_file,
)
from asrel.metrics import load_reference

from oracles import components as oracle_components
from oracles import filter_single_agent_edges as reference_filter


class TestSiblingSet:
    def test_representative_is_minimum_of_group(self):
        flat = SiblingSet([(30, 10), (10, 20)]).mapping()
        assert flat.get(30, 30) == 10
        assert flat.get(20, 20) == 10
        assert flat.get(10, 10) == 10

    def test_unknown_as_maps_to_itself(self):
        assert SiblingSet([]).mapping().get(42, 42) == 42

    def test_transitive_merge_across_groups(self):
        flat = SiblingSet([(1, 2), (3, 4), (2, 3)]).mapping()
        assert {flat.get(v, v) for v in (1, 2, 3, 4)} == {1}

    def test_pairs_lists_each_merge_once(self):
        assert SiblingSet([(5, 6), (6, 5)]).pairs() == [(5, 6)]

    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), max_size=30))
    def test_representative_idempotent(self, merges):
        flat = SiblingSet([(a, b) for a, b in merges if a != b]).mapping()
        for v in range(1, 51):
            rep = flat.get(v, v)
            assert flat.get(rep, rep) == rep
            assert rep <= v

    @given(
        st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_groups_are_components_named_by_their_minimum(self, pairs, rng):
        pairs = [(a, b) for a, b in pairs if a != b]
        expected = oracle_components(pairs)
        assert components(pairs) == expected
        siblings = SiblingSet(pairs)
        assert siblings.mapping() == {a: r for a, r in expected.items() if a != r}
        assert siblings.pairs() == sorted({(min(p), max(p)) for p in pairs})
        # The order, the orientation and repeats of the pairs change nothing.
        varied = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
        varied += rng.sample(pairs, len(pairs) // 2)
        rng.shuffle(varied)
        assert components(varied) == expected
        assert SiblingSet(varied).mapping() == siblings.mapping()
        assert SiblingSet(varied).pairs() == siblings.pairs()


class TestLoadSiblingPairs:
    def test_basic_file(self):
        s = load_sibling_pairs(["10 20\n", "# comment\n", "\n", "20 30\n"])
        assert s.mapping().get(30, 30) == 10

    def test_self_sibling_rejected(self):
        with pytest.raises(ParseError) as err:
            load_sibling_pairs(["7 7\n"], "sib.txt")
        assert "sib.txt:1" in str(err.value)

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_sibling_pairs(["10 20\n", "banana\n"], "sib.txt")
        assert "sib.txt:2" in str(err.value)


class TestNormalizePath:
    def test_clean_path_unchanged(self):
        hops, truncated = normalize_path([1, 2, 3], None)
        assert hops == (1, 2, 3)
        assert not truncated

    def test_consecutive_duplicates_collapse(self):
        assert normalize_path([1, 1, 2, 2, 2, 3], None)[0] == (1, 2, 3)

    def test_loop_truncates_before_closing_hop(self):
        hops, truncated = normalize_path([1, 2, 3, 2, 4], None)
        assert hops == (1, 2, 3)
        assert truncated

    def test_ping_pong_loop(self):
        hops, truncated = normalize_path([1, 2, 1, 2, 3], None)
        assert hops == (1, 2)
        assert truncated

    def test_too_short_after_cleaning_dropped(self):
        hops, truncated = normalize_path([5, 5, 5], None)
        assert hops is None
        assert not truncated

    def test_single_hop_dropped(self):
        assert normalize_path([9], None)[0] is None

    def test_sibling_merge_collapses_adjacent_group_members(self):
        s = SiblingSet([(20, 21)])
        hops, truncated = normalize_path([1, 20, 21, 3], s)
        assert hops == (1, 20, 3)
        assert not truncated

    def test_sibling_merge_applies_before_loop_check(self):
        # 21 maps onto 20, so the revisit closes a loop that the raw
        # hop values hide.
        s = SiblingSet([(20, 21)])
        hops, truncated = normalize_path([20, 5, 21, 7], s)
        assert hops == (20, 5)
        assert truncated

    def test_clean_tuple_returned_uncopied(self):
        hops = (1, 20, 3)
        assert normalize_path(hops, None)[0] is hops
        s = SiblingSet([(30, 31), (1, 40)])
        # 1 is its group's representative, so no hop changes.
        assert normalize_path(hops, s)[0] is hops
        s = SiblingSet([(30, 31), (1, 40), (20, 2)])
        assert normalize_path(hops, s)[0] == (1, 2, 3)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    def test_output_has_no_adjacent_dups_or_revisits(self, raw):
        hops, _ = normalize_path(raw, None)
        if hops is not None:
            assert len(hops) >= 2
            assert all(a != b for a, b in zip(hops, hops[1:]))
            assert len(set(hops)) == len(hops)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    def test_idempotent(self, raw):
        hops, _ = normalize_path(raw, None)
        if hops is not None:
            again, truncated = normalize_path(list(hops), None)
            assert again == hops
            assert not truncated

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=8),
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=2),
    )
    def test_loop_cut_never_drops_the_path(self, raw, merges):
        # Once consecutive duplicates are merged, the first repeated AS is
        # the third hop or later, so a cut keeps at least two hops.
        siblings = SiblingSet([(a, b) for a, b in merges if a != b])
        hops, truncated = normalize_path(raw, siblings)
        assert hops is not None or not truncated

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=12))
    def test_kept_prefix_is_prefix_of_deduped_input(self, raw):
        hops, _ = normalize_path(raw, None)
        if hops is not None:
            deduped = [h for i, h in enumerate(raw) if i == 0 or h != raw[i - 1]]
            assert list(hops) == deduped[: len(hops)]


class TestParsePathLine:
    def test_bgp_line(self):
        raw = parse_path_line("701 7018 3356\n", "bgp")
        assert raw == AsPath((701, 7018, 3356), "bgp", "", 1)

    def test_trace_line_with_agent(self):
        raw = parse_path_line("probe-7|10 20 30\n", "trace")
        assert raw.agent == "probe-7"
        assert raw.hops == (10, 20, 30)

    def test_weight_suffix(self):
        raw = parse_path_line("10 20 weight=12\n", "bgp")
        assert raw.weight == 12

    def test_blank_and_comment_skipped(self):
        assert parse_path_line("\n", "bgp") is None
        assert parse_path_line("# header\n", "bgp") is None

    def test_trace_requires_agent_prefix(self):
        with pytest.raises(ValueError):
            parse_path_line("10 20 30", "trace")

    def test_bgp_rejects_agent_prefix(self):
        with pytest.raises(ValueError):
            parse_path_line("x|10 20", "bgp")

    def test_garbage_token(self):
        with pytest.raises(ValueError):
            parse_path_line("10 twenty 30", "bgp")

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            parse_path_line("10 20 weight=0", "bgp")

    def test_read_path_file_adds_context(self):
        with pytest.raises(ParseError) as err:
            list(read_path_file([("paths.txt", ["1 2\n", "oops\n"])], "bgp"))
        assert "paths.txt:2" in str(err.value)


class TestReadPathFile:
    def test_identical_lines_merge_into_one_weighted_path(self):
        raws = read_path_file([("p", ["1 2 3\n", "4 5\n", "1 2 3\n"])], "bgp")
        assert raws == [
            AsPath((1, 2, 3), "bgp", "", 2),
            AsPath((4, 5), "bgp", "", 1),
        ]

    def test_repeated_weight_tokens_multiply(self):
        raws = read_path_file([("p", ["1 2 weight=3\n", "1 2 weight=3\n"])], "bgp")
        assert raws == [AsPath((1, 2), "bgp", "", 6)]

    def test_repeated_malformed_line_reported_at_first_occurrence(self):
        with pytest.raises(ParseError) as err:
            read_path_file([("p.txt", ["1 2\n", "oops\n", "3 4\n", "oops\n"])], "bgp")
        assert "p.txt:2" in str(err.value)

    @pytest.mark.parametrize(
        "lines, lineno",
        [
            (["1 2\n", "1 2 weight=99999999999999999999\n"], 2),
            # 2 * 5e18 exceeds MAX_WEIGHT only once the line's two
            # occurrences are counted; the first is reported.
            (["3 4 weight=5000000000000000000\n", "1 2\n"] * 2, 1),
        ],
    )
    def test_oversized_weight_reported_at_its_line(self, lines, lineno):
        with pytest.raises(ParseError) as err:
            read_path_file([("p.txt", lines)], "bgp")
        assert str(err.value) == f"p.txt:{lineno}: weight exceeds {MAX_WEIGHT}"

    def test_lines_merge_across_streams(self):
        raws = read_path_file(
            [("a", ["1 2\n", "3 4\n"]), ("b", ["5 6\n", "1 2\n", "1 2\n"])],
            "bgp",
        )
        assert raws == [
            AsPath((1, 2), "bgp", "", 3),
            AsPath((3, 4), "bgp", "", 1),
            AsPath((5, 6), "bgp", "", 1),
        ]

    def test_malformed_line_reported_in_first_stream_holding_it(self):
        # b adds no new line, so c's lines follow a's in first-seen order.
        streams = [
            ("a", ["1 2\n"]),
            ("b", ["1 2\n"]),
            ("c", ["3 4\n", "oops\n"]),
            ("d", ["oops\n"]),
        ]
        with pytest.raises(ParseError) as err:
            read_path_file(streams, "bgp")
        assert str(err.value).startswith("c:2:")

    def test_equal_asns_share_one_int(self):
        # Ints above 256 are not cached by the interpreter, so two parses
        # of "70000" give two objects unless the reader interns them.
        raws = read_path_file([("p", ["70000 70001\n", "70002 70000\n"])], "bgp")
        assert raws[0].hops[0] is raws[1].hops[1]


def trace(hops, agent):
    return AsPath(tuple(hops), "trace", agent, 1)


def bgp(hops):
    return AsPath(tuple(hops), "bgp", "", 1)


def agent_filter(paths):
    """ingest_paths on paths that normalization leaves as they are: the kept
    paths, the edges the agent filter removed and the weight it split."""
    kept, report = ingest_paths(paths)
    return kept, report.edges_filtered_single_agent, report.paths_split


def merged(paths):
    """paths merged by (hops, source, agent), weights summed, as a dict."""
    weights = {}
    for p in paths:
        key = (p.hops, p.source, p.agent)
        weights[key] = weights.get(key, 0) + p.weight
    return weights


class TestTwoAgentFilter:
    def test_single_agent_trace_edge_removed(self):
        kept, edges_removed, _ = agent_filter([trace([1, 2], "a")])
        assert kept == []
        assert edges_removed == 1

    def test_two_agents_keep_edge(self):
        paths = [trace([1, 2], "a"), trace([1, 2], "b")]
        kept, _, _ = agent_filter(paths)
        assert kept == paths

    def test_bgp_corroboration_keeps_trace_edge(self):
        paths = [bgp([1, 2]), trace([1, 2], "a")]
        kept, edges_removed, _ = agent_filter(paths)
        assert kept == paths
        assert edges_removed == 0

    def test_bgp_paths_never_filtered(self):
        kept, _, _ = agent_filter([bgp([1, 2])])
        assert len(kept) == 1

    def test_removal_splits_path_into_segments(self):
        # (3, 4) is seen only by agent a; both flanks survive.
        paths = [
            trace([1, 2, 3, 4, 5, 6], "a"),
            trace([1, 2, 3], "b"),
            trace([4, 5, 6], "b"),
        ]
        kept, edges_removed, paths_split = agent_filter(paths)
        assert edges_removed == 1
        assert paths_split == 1
        segments = [p.hops for p in kept if p.agent == "a"]
        assert segments == [(1, 2, 3), (4, 5, 6)]

    def test_short_fragment_dropped(self):
        # Cutting (1, 2) strands vertex 1; only (2, 3) remains two hops.
        paths = [trace([1, 2, 3], "a"), trace([2, 3], "b")]
        kept, _, _ = agent_filter(paths)
        assert [p.hops for p in kept if p.agent == "a"] == [(2, 3)]
        assert [p.hops for p in kept if p.agent == "b"] == [(2, 3)]

    def test_segment_merges_with_equal_path(self):
        # Cutting (3, 9) leaves (1, 2, 3) of agent a, which a already
        # reported: one path of the summed weight, at the place of the first.
        paths = [
            trace([1, 2, 3, 9], "a"),
            trace([1, 2, 3], "a"),
            trace([1, 2, 3], "b"),
        ]
        kept, edges_removed, paths_split = agent_filter(paths)
        assert (edges_removed, paths_split) == (1, 1)
        assert kept == [
            AsPath((1, 2, 3), "trace", "a", 2),
            AsPath((1, 2, 3), "trace", "b", 1),
        ]

    def test_segment_merge_over_max_weight_rejected(self):
        paths = [
            AsPath((1, 2, 3, 9), "trace", "a", MAX_WEIGHT),
            trace([1, 2, 3], "a"),
            trace([1, 2, 3], "b"),
        ]
        with pytest.raises(ParseError) as err:
            ingest_paths(paths)
        assert str(err.value) == f"path 1 2 3: weight exceeds {MAX_WEIGHT}"

    def test_kept_edges_all_multiply_observed(self):
        paths = [
            trace([1, 2, 3], "a"),
            trace([2, 3, 4], "b"),
            trace([1, 2], "b"),
            trace([9, 10], "c"),
        ]
        kept, _, _ = agent_filter(paths)
        observers: dict[tuple[int, int], set[str]] = {}
        for p in paths:
            for u, v in zip(p.hops, p.hops[1:]):
                observers.setdefault(tuple(sorted((u, v))), set()).add(p.agent)
        for p in kept:
            for u, v in zip(p.hops, p.hops[1:]):
                assert len(observers[tuple(sorted((u, v)))]) >= 2

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda hops, source, agent, weight: AsPath(
                    tuple(hops), source, agent if source == "trace" else "", weight
                ),
                # No hop repeats, so normalization changes nothing.
                st.lists(st.integers(1, 8), min_size=2, max_size=7, unique=True),
                st.sampled_from(["bgp", "trace", "trace"]),
                st.sampled_from(["", "a", "b", "c"]),
                st.integers(1, 3),
            ),
            max_size=12,
        )
    )
    def test_matches_agent_set_reference(self, paths):
        # The reference filter on the merged paths, merged again.
        kept, edges_removed, paths_split = agent_filter(paths)
        weights = merged(paths)
        expected, *counts = reference_filter(
            AsPath(*key, weight) for key, weight in weights.items()
        )
        assert merged(kept) == merged(expected)
        assert [edges_removed, paths_split] == counts


class TestIngestPipeline:
    def test_report_counts(self):
        raws = [
            AsPath((1, 2, 3), "bgp", "", 1),
            AsPath((4, 4), "bgp", "", 1),          # collapses to 1 hop
            AsPath((1, 2, 3, 2, 5), "bgp", "", 1),  # loop trimmed
            AsPath((7,), "bgp", "", 1),
        ]
        paths, report = ingest_paths(raws)
        assert report.paths_read == 4
        assert report.paths_dropped_short == 2
        assert report.paths_truncated_loop == 1
        assert [(p.hops, p.weight) for p in paths] == [((1, 2, 3), 2)]

    def test_merge_keeps_agents_and_sources_apart(self):
        raws = [
            AsPath((1, 2), "trace", "a", 1),
            AsPath((1, 2), "trace", "b", 1),
            AsPath((1, 2), "bgp", "", 1),
            AsPath((1, 1, 2), "trace", "a", 2),  # normalizes onto the first
        ]
        paths, report = ingest_paths(raws)
        assert [(p.source, p.agent, p.weight) for p in paths] == [
            ("trace", "a", 3),
            ("trace", "b", 1),
            ("bgp", "", 1),
        ]
        assert report.paths_read == 5

    def test_load_corpus_mixes_sources(self):
        paths, report = load_corpus(
            bgp_streams=[("b.txt", ["1 2 3\n"])],
            trace_streams=[("t.txt", ["a1|3 4\n", "a2|3 4\n"])],
        )
        assert report.paths_read == 3
        assert {p.source for p in paths} == {"bgp", "trace"}

    def test_agent_ids_shared_across_lines(self):
        lines = ["probe-7|1 2 3\n", "probe-8|1 2 3\n", "probe-7|2 3\n", "probe-8|2 3\n"]
        paths, _ = load_corpus(trace_streams=[("t", lines)])
        assert [p.agent for p in paths] == ["probe-7", "probe-8"] * 2
        assert paths[0].agent is paths[2].agent
        assert paths[1].agent is paths[3].agent

    def test_build_graph_unions_edges(self):
        paths, _ = load_corpus(bgp_streams=[("b", ["1 2 3\n", "2 3 4\n"])])
        graph = build_graph(paths)
        assert graph.edge_keys == [(1, 2), (2, 3), (3, 4)]

    def test_sibling_rewrite_through_corpus(self):
        siblings = load_sibling_pairs(["20 21\n"])
        paths, _ = load_corpus(
            bgp_streams=[("b", ["1 21 3\n"])], siblings=siblings
        )
        assert paths[0].hops == (1, 20, 3)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 15), min_size=1, max_size=8),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=10,
        )
    )
    def test_ingest_never_emits_singly_observed_trace_edges(self, spec):
        raws = [AsPath(tuple(hops), "trace", agent, 1) for hops, agent in spec]
        paths, _ = ingest_paths(raws)
        observers: dict[tuple[int, int], set[str]] = {}
        for raw in raws:
            hops, _ = normalize_path(list(raw.hops), None)
            if hops is None:
                continue
            for u, v in zip(hops, hops[1:]):
                observers.setdefault(tuple(sorted((u, v))), set()).add(raw.agent)
        for p in paths:
            for u, v in zip(p.hops, p.hops[1:]):
                assert len(observers[tuple(sorted((u, v)))]) >= 2

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 6), min_size=2, max_size=6),
                st.sampled_from(["bgp", "trace", "trace"]),
                st.sampled_from(["a", "b"]),
                st.integers(1, 3),
            ),
            max_size=10,
        )
    )
    def test_ingest_returns_one_path_per_key(self, spec):
        raws = [
            AsPath(tuple(hops), source, agent if source == "trace" else "", weight)
            for hops, source, agent, weight in spec
        ]
        paths, _ = ingest_paths(raws)
        assert len({(p.hops, p.source, p.agent) for p in paths}) == len(paths)


def second_stream(load):
    """A loader of one stream, called on the second of two."""
    return lambda streams: load(streams[1][1], source=streams[1][0])


# The graph the core and peer readers read against.
ONE_EDGE = build_graph([AsPath((1, 2))])

# Each line loader, called on two (name, handle) streams, and the record
# template of its input, formatted with three distinct AS numbers.
LOADERS = {
    "bgp": (lambda streams: load_corpus(bgp_streams=streams), "{} {} {}"),
    "trace": (lambda streams: load_corpus(trace_streams=streams), "a|{} {} {}"),
    "siblings": (second_stream(load_sibling_pairs), "{} {}"),
    "reference": (second_stream(load_reference), "{}|{}|0"),
    "core": (second_stream(partial(read_core_file, graph=ONE_EDGE)), "v {}"),
    "peers": (second_stream(partial(load_external_core, graph=ONE_EDGE)), "{} {}"),
}


class TestUndecodableInput:
    @pytest.mark.parametrize("load, template", LOADERS.values(), ids=LOADERS)
    def test_non_utf8_bytes_are_parse_error_naming_the_file(self, tmp_path, load, template):
        # The bad byte lies past the first 8 KiB block that the text layer
        # decodes, in the second file, so it surfaces mid-read in every loader.
        good = tmp_path / "good.txt"
        good.write_text(template.format(1, 2, 3) + "\n")
        bad = tmp_path / "bad.txt"
        valid = "".join(template.format(i, i + 1, i + 2) + "\n" for i in range(1, 2001))
        assert len(valid) > 8192
        bad.write_bytes(valid.encode() + b"7 \xff 8\n")
        with open(good, encoding="utf-8") as a, open(bad, encoding="utf-8") as b:
            with pytest.raises(ParseError) as err:
                load([(str(good), a), (str(bad), b)])
        assert str(err.value) == f"cannot read {bad}: not UTF-8 text"
        assert err.value.source == str(bad)
        assert err.value.line == 0
