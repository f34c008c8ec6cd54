from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrel.errors import ParameterError, SelfLoopError, UnknownEdgeError
from asrel.graph import (
    MAX_ASN,
    MAX_WEIGHT,
    AsGraph,
    AsPath,
    Classification,
    Corpus,
    RelType,
    compile_corpus,
    edge_key,
    oriented,
    vote_shares,
)
from asrel.ingest import build_graph

from oracles import tally, vote, vote_invalid

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
        g = AsGraph()
        g.add_edge(1, 2)
        vote(g, 1, 2, RelType.C2P, weight=4)
        vote_invalid(g, 1, 2, weight=100)
        low, high, p2p, invalid = (counter[0] for counter in g.counters)
        assert invalid == 100
        assert vote_shares(low, high, p2p) == (1.0, 0.0, 0.0)

    def test_unvoted_tally_gives_zero_shares(self):
        assert vote_shares(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_classification_votes(self):
        # The shares divide by the classification votes, low + high + p2p.
        assert vote_shares(2, 1, 3) == (2 / 6, 1 / 6, 3 / 6)


class TestAsPath:
    def test_edges_in_traversal_order(self):
        path = AsPath((1, 2, 3), "bgp", "", 1)
        assert list(path.edges()) == [(1, 2), (2, 3)]

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            AsPath((1,), "bgp", "", 1)

    def test_consecutive_duplicate_rejected(self):
        with pytest.raises(ParameterError):
            AsPath((1, 2, 2, 3), "bgp", "", 1)

    def test_nonconsecutive_revisit_allowed(self):
        # Loop trimming is ingest's job; the container stays permissive.
        AsPath((1, 2, 1), "trace", "a", 1)

    def test_bad_source_rejected(self):
        with pytest.raises(ParameterError):
            AsPath((1, 2), "carrier-pigeon", "", 1)

    def test_weight_must_be_positive(self):
        with pytest.raises(ParameterError):
            AsPath((1, 2), "bgp", "", 0)

    def test_weight_bound(self):
        # A Corpus stores weights as 8-byte signed ints.
        assert AsPath((1, 2), "bgp", "", MAX_WEIGHT).weight == MAX_WEIGHT
        with pytest.raises(ParameterError):
            AsPath((1, 2), "bgp", "", MAX_WEIGHT + 1)

    def test_asn_out_of_range(self):
        with pytest.raises(ParameterError):
            AsPath((0, 2), "bgp", "", 1)
        with pytest.raises(ParameterError):
            AsPath((1, MAX_ASN + 1), "bgp", "", 1)


class TestAsGraph:
    def build(self):
        g = AsGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        return g

    def test_add_edge_registers_vertices(self):
        g = self.build()
        assert g.vertices == {1, 2, 3}
        assert g.n_edges == 2
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_degree_and_neighbors(self):
        g = self.build()
        assert g.degree(2) == 2
        assert g.neighbors(2) == {1, 3}
        assert g.degree(99) == 0

    def test_add_edge_idempotent(self):
        g = self.build()
        vote(g, 1, 2, RelType.C2P)
        g.add_edge(1, 2)
        assert g.n_edges == 2
        assert tally(g, (1, 2)).votes() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            self.build().add_edge(4, 4)

    def test_vote_maps_direction_to_canonical_counters(self):
        g = self.build()
        # 2 is the customer in c2p(2, 1): high endpoint of (1, 2).
        vote(g, 2, 1, RelType.C2P)
        counts = tally(g, (1, 2))
        assert counts.high_customer == 1 and counts.low_customer == 0
        vote(g, 1, 2, RelType.C2P)
        assert tally(g, (1, 2)).low_customer == 1

    def test_vote_p2c_mirrors_c2p(self):
        g = self.build()
        vote(g, 1, 2, RelType.P2C)  # 2 is the customer
        vote(g, 2, 1, RelType.C2P)  # same claim from the other direction
        counts = tally(g, (1, 2))
        assert counts.high_customer == 2

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
        assert clone.edges == g.edges
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
    def test_build_graph_matches_add_edge_per_hop(self, hop_lists):
        paths = [AsPath(hops) for hops in hop_lists]
        expected = AsGraph()
        for path in paths:
            for u, v in path.edges():
                expected.add_edge(u, v)
        built = build_graph(paths)
        assert list(built.vertices) == list(expected.vertices)
        assert built.edge_keys == expected.edge_keys
        assert built.edge_index == expected.edge_index
        assert all(built.neighbors(v) == expected.neighbors(v) for v in expected.vertices)
        assert built.counters == expected.counters
        hops = [(u, v) for path in paths for u, v in path.edges()]
        arcs = built.corpus.arcs
        assert len(arcs) == len(hops)
        for a, (u, v) in zip(arcs, hops):
            # The edge add_edge gave the hop, and whether it runs high to low.
            assert a >> 1 == expected.edge_index[edge_key(u, v)]
            assert a & 1 == (u > v)


def corpus_fields(corpus):
    return (
        corpus.paths,
        list(corpus.members),
        corpus.weights,
        corpus.arcs,
        corpus.offsets,
        corpus.n_edges,
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
        g = build_graph(self.paths)
        other = self.paths[cut]
        corpus = compile_corpus(g, other)
        assert corpus is not g.corpus
        assert corpus_fields(corpus) == corpus_fields(Corpus(g, other))

    def test_graph_that_gained_an_edge_compiles_fresh(self):
        g = build_graph(self.paths)
        g.add_edge(5, 6)
        corpus = compile_corpus(g, self.paths)
        assert corpus is not g.corpus
        assert corpus.n_edges == 5
        assert corpus_fields(corpus) == corpus_fields(Corpus(g, self.paths))
        assert len(corpus.incidence[0]) == 6

    def test_path_off_the_graph_rejected(self):
        g = build_graph(self.paths)
        with pytest.raises(UnknownEdgeError):
            compile_corpus(g, [AsPath((1, 5))])


class TestClassification:
    def test_classified_flag(self):
        cls = Classification((1, 2), RelType.C2P, "deterministic-p1")
        assert cls.classified
        un = Classification((1, 2), RelType.UNCLASSIFIED, "unclassified")
        assert not un.classified

    def test_fields_are_the_label_only(self):
        assert [f.name for f in fields(Classification)] == ["edge", "rel", "method"]
