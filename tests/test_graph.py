import io
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrel.errors import ParameterError, SelfLoopError, UnknownEdgeError
from asrel.graph import (
    LABEL_P2P,
    LABEL_RELS,
    LABEL_UNCLASSIFIED,
    MAX_ASN,
    MAX_WEIGHT,
    METHOD_CODES,
    METHODS,
    AsGraph,
    AsPath,
    Classification,
    Corpus,
    RelType,
    arc_labels,
    compile_corpus,
    edge_key,
    oriented,
    vote_shares,
)
from asrel.ingest import build_graph, ingest_paths, read_path_file
from asrel.synth import write_paths_file

from oracles import edge_labels, tally, vote, vote_invalid

asns = st.integers(min_value=1, max_value=MAX_ASN)


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(7, 3) == (3, 7)
        assert edge_key(3, 7) == (3, 7)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            edge_key(5, 5)

    @given(asns, asns)
    def test_symmetric_and_sorted(self, a, b):
        if a == b:
            with pytest.raises(SelfLoopError):
                edge_key(a, b)
        else:
            key = edge_key(a, b)
            assert key == edge_key(b, a)
            assert key[0] < key[1]


class TestOriented:
    def test_low_to_high_is_identity(self):
        assert oriented(RelType.C2P, 3, 7) is RelType.C2P

    def test_high_to_low_flips_direction(self):
        assert oriented(RelType.C2P, 7, 3) is RelType.P2C
        assert oriented(RelType.P2C, 7, 3) is RelType.C2P

    def test_symmetric_types_unchanged(self):
        for rel in (RelType.P2P, RelType.S2S, RelType.UNCLASSIFIED):
            assert oriented(rel, 7, 3) is rel
            assert oriented(rel, 3, 7) is rel

    @given(st.sampled_from(list(RelType)), asns, asns)
    def test_involution(self, rel, a, b):
        if a != b:
            assert oriented(oriented(rel, a, b), a, b) is rel


class TestRelType:
    def test_flip_pairs(self):
        assert RelType.C2P.flipped() is RelType.P2C
        assert RelType.P2C.flipped() is RelType.C2P
        assert RelType.P2P.flipped() is RelType.P2P
        assert RelType.S2S.flipped() is RelType.S2S

    def test_serialized_values(self):
        assert RelType.C2P.value == "c2p"
        assert RelType.UNCLASSIFIED.value == "unclassified"


class TestVoteTally:
    def test_shares_sum_to_one_when_voted(self):
        c2p, p2c, p2p = vote_shares(3, 1, 1)
        assert c2p == pytest.approx(0.6)
        assert p2c == pytest.approx(0.2)
        assert p2p == pytest.approx(0.2)
        assert c2p + p2c + p2p == pytest.approx(1.0)

    def test_invalid_votes_excluded_from_shares(self):
        g = AsGraph([(1, 2)])
        vote(g, 1, 2, RelType.C2P, weight=4)
        vote_invalid(g, 1, 2, weight=100)
        c2p, p2c, p2p, invalid = tally(g, (1, 2))
        assert invalid == 100
        assert vote_shares(c2p, p2c, p2p) == (1.0, 0.0, 0.0)

    def test_unvoted_tally_gives_zero_shares(self):
        assert vote_shares(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_classification_votes(self):
        # The shares divide by the classification votes, low + high + p2p.
        assert vote_shares(2, 1, 3) == (2 / 6, 1 / 6, 3 / 6)


# Each fault a hand-built path can carry: the path, the error and message
# of build_graph, which adds the path's edges, and the error of
# compile_corpus against a graph that lacks them.
PATH_FAULTS = {
    "one-hop": (AsPath((1,)), ParameterError, "at least 2 hops", ParameterError),
    "repeated-hop": (
        AsPath((1, 2, 2, 3)), SelfLoopError, "self-loop on AS 2", UnknownEdgeError
    ),
    "asn-0": (AsPath((0, 2)), ParameterError, "out of range: 0", UnknownEdgeError),
    "asn-over-max": (
        AsPath((1, MAX_ASN + 1)), ParameterError, f"out of range: {MAX_ASN + 1}",
        UnknownEdgeError,
    ),
    "weight-0": (
        AsPath((1, 2), weight=0), ParameterError, "weight out of range: 0", ParameterError
    ),
    "weight-over-max": (
        AsPath((1, 2), weight=MAX_WEIGHT + 1), ParameterError,
        f"weight out of range: {MAX_WEIGHT + 1}", ParameterError,
    ),
}

# Hops and weights of a type the compile must refuse, with its message.
TYPE_FAULTS = {
    "float-hop": (AsPath((1.5, 2, 3)), "AS number is not an int: 1.5"),
    "bool-hop": (AsPath((True, 2, 3)), "AS number is not an int: True"),
    "str-hop": (AsPath(("2", 3)), "hops that are not AS numbers: ('2', 3)"),
    "bool-weight": (AsPath((1, 2), weight=True), "path weight out of range: True"),
    "float-weight": (AsPath((1, 2), weight=1.5), "path weight out of range: 1.5"),
    "str-weight": (AsPath((1, 2), weight="1"), "path weight out of range: '1'"),
}


class TestAsPath:
    good = [AsPath((1, 2, 3)), AsPath((2, 3, 4), weight=2)]

    def test_nonconsecutive_revisit_allowed(self):
        # Loop trimming is ingest's job; the container stays permissive.
        AsPath((1, 2, 1), "trace", "a", 1)

    @pytest.mark.parametrize(
        "bad, built, message, compiled", PATH_FAULTS.values(), ids=PATH_FAULTS
    )
    def test_fault_rejected_at_compile(self, bad, built, message, compiled):
        # The record takes any fields; the compile, which every path passes
        # before the engine, rejects the fault, and a rejected path list
        # leaves the graph's corpus as it was.
        with pytest.raises(built, match=message) as raised:
            build_graph([*self.good, bad])
        assert raised.type is built
        g = build_graph(self.good)
        kept = g.corpus
        with pytest.raises(compiled) as raised:
            compile_corpus(g, [*self.good, bad])
        assert raised.type is compiled
        assert g.corpus is kept
        assert compile_corpus(g, self.good) is kept

    @pytest.mark.parametrize("bad, message", TYPE_FAULTS.values(), ids=TYPE_FAULTS)
    def test_non_int_rejected_at_compile(self, bad, message):
        with pytest.raises(ParameterError) as raised:
            build_graph([bad])
        assert raised.type is ParameterError
        assert str(raised.value) == message

    def test_graph_holds_only_int_vertices(self):
        # True equals AS 1, so on a known edge it stands for AS 1; it never
        # becomes a vertex of its own.
        g = build_graph([AsPath((1, 2)), AsPath((True, 2, 3))])
        assert g.edge_keys == [(1, 2), (2, 3)]
        assert {type(v) for v in g.vertices} == {int}

    def test_max_weight_accepted(self):
        # A Corpus stores weights as 8-byte signed ints.
        g = build_graph([AsPath((1, 2), weight=MAX_WEIGHT)])
        assert list(g.corpus.weights) == [MAX_WEIGHT]
        assert g.corpus.weight == MAX_WEIGHT

    def test_bad_source_rejected_by_the_filter(self):
        # The agent filter is the only reader of the source, so ingest_paths
        # checks it, once, over its merged paths.
        paths = [AsPath((1, 2)), AsPath((2, 3), "carrier-pigeon")]
        with pytest.raises(ParameterError, match="unknown path source 'carrier-pigeon'"):
            ingest_paths(paths)

    def test_repeated_hop_not_split_away(self):
        # A hand-built path with a repeated hop that skips ingest is
        # rejected by the compile, not split away.
        paths = [AsPath((1, 2, 2, 3), "trace", "a"), AsPath((1, 2), "trace", "b")]
        with pytest.raises(SelfLoopError):
            build_graph(paths)

    @given(
        bgp=st.lists(
            st.tuples(
                st.lists(st.integers(1, 12), min_size=2, max_size=5, unique=True).map(tuple),
                st.integers(1, MAX_WEIGHT),
            ),
            max_size=6,
            unique_by=lambda drawn: drawn[0],
        ),
        trace=st.lists(
            st.tuples(
                st.lists(st.integers(1, MAX_ASN), min_size=2, max_size=5, unique=True).map(tuple),
                st.sampled_from(["a", "b", "agent-7"]),
                st.integers(1, 3),
            ),
            max_size=6,
            unique_by=lambda drawn: drawn[:2],
        ),
    )
    def test_file_and_hand_built_records_are_one_type(self, bgp, trace):
        # A path written with write_paths_file and read back with
        # read_path_file is the hand-built AsPath, and compiles the same.
        built = [AsPath(hops, "bgp", "", weight) for hops, weight in bgp]
        built += [AsPath(hops, "trace", agent, weight) for hops, agent, weight in trace]
        read = []
        for source in ("bgp", "trace"):
            stream = io.StringIO()
            write_paths_file([p for p in built if p.source == source], stream)
            read += read_path_file([("f", stream.getvalue().splitlines())], source)
        assert read == built
        assert all(type(path) is AsPath for path in read)
        assert corpus_fields(build_graph(read).corpus) == corpus_fields(
            build_graph(built).corpus
        )


class TestAsGraph:
    def build(self):
        return AsGraph([(1, 2), (2, 3)])

    def test_edges_register_vertices(self):
        g = self.build()
        assert g.vertices == {1, 2, 3}
        assert g.n_edges == 2
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 3)
        assert g.has_edge(1, 1) is False

    def test_degree_and_neighbors(self):
        g = self.build()
        assert g.degree(2) == 2
        assert g.neighbors(2) == {1, 3}
        assert g.degree(99) == 0

    def test_edge_given_twice_is_one_edge(self):
        # In either orientation; edge ids follow first appearance.
        g = AsGraph([(3, 2), (1, 2), (2, 3), (2, 1)])
        assert g.edge_keys == [(2, 3), (1, 2)]
        assert g.edge_index == {(2, 3): 0, (1, 2): 1}
        assert g.customer == [0] * 4 and g.p2p == g.invalid == [0, 0]

    def test_low_high_pairs_kept_as_keys(self):
        pairs = [(1, 2), (4, 3)]
        g = AsGraph(pairs)
        assert g.edge_keys[0] is pairs[0]
        assert g.edge_keys[1] == (3, 4)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match="self-loop on AS 4"):
            AsGraph([(1, 2), (4, 4)])

    def test_as_zero_rejected(self):
        # AS 0 is reserved, as AsPath and the input parsers hold.
        with pytest.raises(ParameterError, match="AS number out of range: 0"):
            AsGraph([(0, 1)])

    @pytest.mark.parametrize(
        "pair, message",
        [
            ((1, MAX_ASN + 1), f"AS number out of range: {MAX_ASN + 1}"),
            ((True, 3), "AS number is not an int: True"),
            ((2, 1.5), "AS number is not an int: 1.5"),
            (("7", 1), "AS numbers that are not ints: ('7', 1)"),
        ],
    )
    def test_bad_vertex_rejected(self, pair, message):
        with pytest.raises(ParameterError) as raised:
            AsGraph([(5, 6), pair])
        assert raised.type is ParameterError
        assert str(raised.value) == message

    def test_bool_stands_for_as_1_only_on_a_known_edge(self):
        # True equals AS 1, so (True, 2) is the edge (1, 2) given twice;
        # a new edge with True is refused even when AS 1 is a vertex.
        g = AsGraph([(1, 2), (True, 2)])
        assert g.edge_keys == [(1, 2)]
        assert {type(v) for v in g.vertices} == {int}
        with pytest.raises(ParameterError, match="not an int: True"):
            AsGraph([(1, 2), (True, 3)])

    def test_vote_maps_direction_to_canonical_counters(self):
        g = self.build()
        # 2 is the customer in c2p(2, 1): high endpoint of (1, 2).
        vote(g, 2, 1, RelType.C2P)
        counts = tally(g, (1, 2))
        assert counts.p2c == 1 and counts.c2p == 0
        vote(g, 1, 2, RelType.C2P)
        assert tally(g, (1, 2)).c2p == 1

    def test_vote_p2c_mirrors_c2p(self):
        g = self.build()
        vote(g, 1, 2, RelType.P2C)  # 2 is the customer
        vote(g, 2, 1, RelType.C2P)  # same claim from the other direction
        counts = tally(g, (1, 2))
        assert counts.p2c == 2

    def test_vote_weight_multiplies(self):
        g = self.build()
        vote(g, 1, 2, RelType.P2P, weight=5)
        assert tally(g, (1, 2)).p2p == 5

    def test_vote_unknown_edge_rejected(self):
        with pytest.raises(UnknownEdgeError):
            vote(self.build(), 1, 3, RelType.P2P)

    def test_invalid_vote_kept_separate(self):
        g = self.build()
        vote_invalid(g, 1, 2)
        counts = tally(g, (1, 2))
        assert counts.invalid == 1
        assert counts.votes() == 0

    def test_copy_unvoted_shares_structure_not_tallies(self):
        g = self.build()
        vote(g, 1, 2, RelType.P2P)
        clone = g.copy_unvoted()
        assert clone.edge_index is g.edge_index
        assert clone.edge_keys is g.edge_keys
        assert tally(clone, (1, 2)).votes() == 0
        vote(clone, 2, 3, RelType.C2P)
        assert tally(g, (2, 3)).votes() == 0
        assert tally(g, (1, 2)).p2p == 1

    @given(
        st.lists(
            st.lists(st.integers(1, 12), min_size=2, max_size=8)
            .map(lambda h: tuple(x for i, x in enumerate(h) if i == 0 or x != h[i - 1]))
            .filter(lambda hops: len(hops) >= 2),
            max_size=10,
        )
    )
    def test_build_graph_matches_graph_of_hop_pairs(self, hop_lists):
        paths = [AsPath(hops) for hops in hop_lists]
        expected = AsGraph(
            pair for path in paths for pair in zip(path.hops, path.hops[1:])
        )
        built = build_graph(paths)
        assert list(built.vertices) == list(expected.vertices)
        assert built.edge_keys == expected.edge_keys
        assert built.edge_index == expected.edge_index
        assert all(built.neighbors(v) == expected.neighbors(v) for v in expected.vertices)
        assert built.customer == expected.customer
        assert built.p2p == expected.p2p and built.invalid == expected.invalid
        hops = [(u, v) for path in paths for u, v in zip(path.hops, path.hops[1:])]
        arcs = built.corpus.arcs
        assert len(arcs) == len(hops)
        for a, (u, v) in zip(arcs, hops):
            # The edge the constructor gave the hop, and whether it runs
            # high to low.
            assert a >> 1 == expected.edge_index[edge_key(u, v)]
            assert a & 1 == (u > v)


def corpus_fields(corpus):
    return (
        corpus.paths,
        list(corpus.members),
        corpus.weights,
        corpus.arcs,
        corpus.offsets,
        corpus.incidence,
    )


class TestCompileCorpus:
    paths = [AsPath((1, 2, 3)), AsPath((4, 2, 3), weight=2), AsPath((3, 5))]

    def test_corpus_of_build_graph_reused(self):
        g = build_graph(self.paths)
        assert compile_corpus(g, self.paths) is compile_corpus(g, self.paths)
        assert compile_corpus(g, list(self.paths)) is g.corpus
        assert compile_corpus(g.copy_unvoted(), self.paths) is g.corpus
        assert corpus_fields(g.corpus) == corpus_fields(Corpus(g, self.paths))

    @pytest.mark.parametrize("cut", [slice(None, None, -1), slice(1, None)])
    def test_other_paths_compiled_fresh(self, cut):
        # The graph keeps the corpus last compiled against it, so the build
        # list is compiled again once other paths have been.
        g = build_graph(self.paths)
        built = g.corpus
        other = self.paths[cut]
        corpus = compile_corpus(g, other)
        assert corpus_fields(corpus) == corpus_fields(Corpus(g, other))
        assert corpus is g.corpus is not built
        assert compile_corpus(g, other) is corpus
        again = compile_corpus(g, self.paths)
        assert again is g.corpus and again is not built
        assert corpus_fields(again) == corpus_fields(built)

    def test_path_off_the_graph_rejected(self):
        g = build_graph(self.paths)
        with pytest.raises(UnknownEdgeError):
            compile_corpus(g, [AsPath((1, 5))])


def brute_through(corpus, members, edges):
    """The member paths whose hops cross any of edges, each once, in the
    order of edges and then of path id, found from the hop tuples."""
    members = sorted(set(members))
    selected = []
    for e in edges:
        key = corpus.edge_keys[e]
        for p in members:
            hops = corpus.paths[p].hops
            crosses = any(edge_key(u, v) == key for u, v in zip(hops, hops[1:]))
            if crosses and p not in selected:
                selected.append(p)
    return selected


class TestThrough:
    def test_a_path_crossing_an_edge_twice_is_selected_once(self):
        paths = [AsPath((1, 2, 1)), AsPath((2, 3)), AsPath((3, 2, 1))]
        g = build_graph(paths)
        corpus = compile_corpus(g, paths)
        e12, e23 = g.edge_index[(1, 2)], g.edge_index[(2, 3)]
        assert list(corpus.through([e12])) == [0, 2]
        assert list(corpus.through([e23, e12, e23])) == [1, 2, 0]
        assert list(corpus.through([])) == []
        assert list(corpus.subset(b"\x01\x01\x00").through([e23, e12])) == [1, 0]

    @given(
        st.lists(
            st.lists(st.integers(1, 6), min_size=2, max_size=7), min_size=1, max_size=12
        ),
        st.data(),
    )
    def test_matches_brute_force_on_the_corpus_and_its_partition(self, hop_lists, data):
        from asrel.core import CoreGraph
        from asrel.engine import partition_paths

        paths = []
        for hops in hop_lists:
            hops = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
            if len(hops) >= 2:
                paths.append(AsPath(tuple(hops)))
        if not paths:
            return
        g = build_graph(paths)
        corpus = compile_corpus(g, paths)
        edges = data.draw(st.lists(st.integers(0, g.n_edges - 1), max_size=6))
        # The full corpus first, so that a view taken afterwards could
        # inherit anything it keeps.
        assert list(corpus.through(edges)) == brute_through(corpus, corpus.members, edges)
        core = CoreGraph(data.draw(st.sets(st.sampled_from(sorted(g.vertices)))))
        max_core_hops = data.draw(st.integers(1, 3))
        for part in vars(partition_paths(corpus, core, max_core_hops)).values():
            assert list(part.through(edges)) == brute_through(corpus, part.members, edges)
        members = data.draw(st.sets(st.sampled_from(range(len(paths)))))
        view = corpus.subset(bytes(p in members for p in range(len(paths))))
        assert list(view.through(edges)) == brute_through(corpus, members, edges)


class TestClassification:
    def test_fields_are_the_label_only(self):
        assert [f.name for f in fields(Classification)] == ["edge", "rel", "method"]


class TestEdgeLabels:
    def run(self):
        from asrel.core import CoreGraph
        from asrel.pipeline import run_inference

        paths = [AsPath((1, 2, 3, 4, 5)), AsPath((6, 3, 7)), AsPath((8, 9))]
        graph = build_graph(paths)
        return run_inference(graph, paths, CoreGraph({3, 4}, {(3, 4)})).classifications

    def test_same_labels_over_other_edge_ids_compare_as_mappings(self):
        a = self.run()
        graph = AsGraph(reversed(a.edge_keys))
        b = edge_labels([], graph)
        for key, e in a.edge_index.items():
            b.update({graph.edge_index[key]: (a.rels[e], a.methods[e])})
        assert b.edge_keys != a.edge_keys
        assert a == b and dict(a) == dict(b)
        b.update({graph.edge_index[(8, 9)]: (LABEL_P2P, METHOD_CODES["gap-p2p"])})
        assert a != b

    def test_identical_runs_equal_and_one_label_apart_unequal(self):
        a, b = self.run(), self.run()
        assert a == b and not a != b
        key = (8, 9)
        assert a[key].rel is RelType.UNCLASSIFIED
        e = a.edge_index[key]
        b.update({e: (LABEL_P2P, METHOD_CODES["gap-p2p"])})
        assert a != b and not a == b
        c = self.run()
        c.update({e: (LABEL_UNCLASSIFIED, METHOD_CODES["degree-tiebreak"])})
        assert a != c

    @given(
        st.sets(
            st.tuples(st.integers(1, 8), st.integers(9, 16)), min_size=1, max_size=12
        ),
        st.data(),
    )
    def test_reads_and_update_match_a_dict(self, keys, data):
        graph = AsGraph(sorted(keys, key=str))
        labels = edge_labels([], graph)
        expected = {
            key: Classification(key, RelType.UNCLASSIFIED, "unclassified")
            for key in graph.edge_keys
        }
        for _ in range(data.draw(st.integers(0, 3))):
            batch = data.draw(
                st.dictionaries(
                    st.integers(0, graph.n_edges - 1),
                    st.tuples(
                        st.integers(0, len(LABEL_RELS) - 1),
                        st.integers(0, len(METHODS) - 1),
                    ),
                )
            )
            labels.update(batch)
            for e, (rel, method) in batch.items():
                key = graph.edge_keys[e]
                expected[key] = Classification(key, LABEL_RELS[rel], METHODS[method])
        assert list(labels.items()) == list(expected.items())
        assert labels == expected and not labels != expected
        assert len(labels) == len(expected)
        assert all(key in labels for key in expected)
        missing = (20, 21)
        assert missing not in labels and labels.get(missing) is None
        with pytest.raises(KeyError):
            labels[missing]
        assert labels.unclassified() == [
            e
            for e, key in enumerate(graph.edge_keys)
            if expected[key].rel is RelType.UNCLASSIFIED
        ]


@given(st.lists(st.integers(0, len(LABEL_RELS) - 1), max_size=64).map(bytes))
def test_arc_labels_read_each_code_along_both_arcs(codes):
    labels = arc_labels(codes)
    assert len(labels) == 2 * len(codes)
    for e, code in enumerate(codes):
        assert labels[2 * e] == code
        assert labels[2 * e + 1] == LABEL_RELS.index(LABEL_RELS[code].flipped())
