import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrel.errors import ConfigurationError
from asrel.graph import (
    LABEL_P2P,
    LABEL_RELS,
    METHOD_CODES,
    AsGraph,
    AsPath,
    Classification,
    RelType,
    compile_corpus,
    edge_key,
)
from asrel.heuristics import HeuristicConfig, apply_tiebreaks, infer_gap_p2p
from asrel.ingest import build_graph

from oracles import edge_labels
from oracles import infer_gap_p2p as reference_gap_p2p
from oracles import tiebreak as reference_tiebreak
from oracles import vote, vote_invalid


def trace(*hops):
    return AsPath(tuple(hops), "trace", "a", 1)


def cls(key, rel, method="deterministic-p1"):
    if rel is RelType.UNCLASSIFIED:
        method = "unclassified"
    return Classification(key, rel, method)


def labeled(labels, updates):
    """The records of the edges a heuristic's updates label, read back
    from labels after labels.update(updates)."""
    labels.update(updates)
    return {key: labels[key] for key in map(labels.edge_keys.__getitem__, updates)}


def gap_p2p(paths, classifications):
    graph = build_graph(paths)
    labels = edge_labels(classifications.values(), graph)
    return labeled(labels, infer_gap_p2p(compile_corpus(graph, paths), labels))


def table(*entries):
    return {c.edge: c for c in entries}


class TestHeuristicConfig:
    def test_defaults(self):
        config = HeuristicConfig()
        assert config.tiebreak is None

    def test_unknown_tiebreak(self):
        with pytest.raises(ConfigurationError):
            HeuristicConfig(tiebreak="coin-flip")


class TestGapP2P:
    def test_single_gap_between_up_and_down(self):
        path = trace(1, 2, 3, 4)
        classifications = table(
            cls((1, 2), RelType.C2P),
            cls((2, 3), RelType.UNCLASSIFIED),
            cls((3, 4), RelType.P2C),
        )
        updates = gap_p2p([path], classifications)
        assert set(updates) == {(2, 3)}
        assert updates[(2, 3)].rel is RelType.P2P
        assert updates[(2, 3)].method == "gap-p2p"

    def test_direction_read_along_traversal(self):
        # The same labels walked from the other end still bracket the gap
        # as uphill then downhill.
        path = trace(4, 3, 2, 1)
        classifications = table(
            cls((3, 4), RelType.C2P),   # 4 -> 3 is c2p
            cls((2, 3), RelType.UNCLASSIFIED),
            cls((1, 2), RelType.P2C),   # 2 -> 1 is p2c
        )
        assert set(gap_p2p([path], classifications)) == set()
        flipped = table(
            cls((3, 4), RelType.P2C),   # 4 -> 3 is c2p in traversal order
            cls((2, 3), RelType.UNCLASSIFIED),
            cls((1, 2), RelType.C2P),   # 2 -> 1 is p2c in traversal order
        )
        updates = gap_p2p([path], flipped)
        assert set(updates) == {(2, 3)}

    def test_boundary_gap_ignored(self):
        path = trace(1, 2, 3)
        classifications = table(
            cls((1, 2), RelType.UNCLASSIFIED),
            cls((2, 3), RelType.P2C),
        )
        assert gap_p2p([path], classifications) == {}

    def test_two_gaps_ignored(self):
        path = trace(1, 2, 3, 4, 5)
        classifications = table(
            cls((1, 2), RelType.C2P),
            cls((2, 3), RelType.UNCLASSIFIED),
            cls((3, 4), RelType.UNCLASSIFIED),
            cls((4, 5), RelType.P2C),
        )
        assert gap_p2p([path], classifications) == {}

    def test_wrong_context_ignored(self):
        path = trace(1, 2, 3, 4)
        classifications = table(
            cls((1, 2), RelType.P2P),
            cls((2, 3), RelType.UNCLASSIFIED),
            cls((3, 4), RelType.P2C),
        )
        assert gap_p2p([path], classifications) == {}

    def test_never_relabels_classified_edges(self):
        path = trace(1, 2, 3, 4)
        classifications = table(
            cls((1, 2), RelType.C2P),
            cls((2, 3), RelType.C2P),
            cls((3, 4), RelType.P2C),
        )
        assert gap_p2p([path], classifications) == {}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(1, 6), min_size=2, max_size=8), min_size=1, max_size=14
        ),
        st.data(),
    )
    def test_periphery_subset_matches_reference(self, hop_lists, data):
        # Two member paths wedge (21, 22), so the pass must stop at the
        # first; a non-member path wedges (31, 32), which must stay open.
        gadget = [trace(20, 21, 22, 23), trace(24, 21, 22, 25), trace(30, 31, 32, 33)]
        fixed = {
            (20, 21): RelType.C2P,
            (21, 24): RelType.P2C,  # 24 -> 21 is c2p in walk order
            (21, 22): RelType.UNCLASSIFIED,
            (22, 23): RelType.P2C,
            (22, 25): RelType.P2C,
            (30, 31): RelType.C2P,
            (31, 32): RelType.UNCLASSIFIED,
            (32, 33): RelType.P2C,
        }
        drawn = []
        for hops in hop_lists:
            hops = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
            if len(hops) >= 2:
                drawn.append(trace(*hops))
        paths = gadget + drawn
        members = [True, True, False] + data.draw(
            st.lists(st.booleans(), min_size=len(drawn), max_size=len(drawn))
        )
        graph = build_graph(paths)
        # Few ASes, so many paths share an edge: a random label per edge.
        rels = {key: data.draw(st.sampled_from(LABEL_RELS)) for key in graph.edge_keys}
        rels.update(fixed)
        # Every non-member path crosses an unclassified edge.
        for path, member in zip(drawn, members[len(gadget) :]):
            if not member:
                i = data.draw(st.integers(0, len(path.hops) - 2))
                rels[edge_key(*path.hops[i : i + 2])] = RelType.UNCLASSIFIED
        labels = edge_labels((cls(key, rel) for key, rel in rels.items()), graph)
        periphery = compile_corpus(graph, paths).subset(bytes(members))
        expected = reference_gap_p2p(
            [path for path, member in zip(paths, members) if member], dict(labels)
        )
        assert (21, 22) in expected and (31, 32) not in expected
        assert labeled(labels, infer_gap_p2p(periphery, labels)) == expected


MODES = ["degree", "kshell"]


def tiebroken(graph, key, mode, kshell=None):
    """The (rel, method) that apply_tiebreaks gives graph's edge key when
    no edge is classified, checked against the reference rule."""
    labels = edge_labels([], graph)
    updates = apply_tiebreaks(graph, labels, HeuristicConfig(mode), kshell)
    record = labeled(labels, updates)[key]
    rank = graph.degree if kshell is None else kshell.__getitem__
    assert record.rel is reference_tiebreak(rank(key[0]), rank(key[1]), mode)
    return record.rel, record.method


def single_edge():
    g = AsGraph()
    g.add_edge(1, 2)
    return g


class TestTiebreak:
    def degree_graph(self):
        # deg(1) = 5, deg(2) = 2, deg(3) = 2, deg(4) = 2.
        g = AsGraph()
        for w in (2, 30, 31, 32, 33):
            g.add_edge(1, w)
        g.add_edge(2, 40)
        g.add_edge(3, 4)
        g.add_edge(3, 41)
        g.add_edge(4, 42)
        return g

    def test_degree_band_means_peering(self):
        rel, method = tiebroken(self.degree_graph(), (3, 4), "degree")
        assert rel is RelType.P2P
        assert method == "degree-tiebreak"

    def test_higher_degree_endpoint_is_provider(self):
        rel, _ = tiebroken(self.degree_graph(), (1, 2), "degree")
        assert rel is RelType.P2C

    @pytest.mark.parametrize("deg_1, deg_2", [(4, 5), (5, 4)])
    def test_band_is_closed(self, deg_1, deg_2):
        # A 4:5 degree ratio sits exactly on the band edge, whichever
        # endpoint has the lower AS number.
        g = AsGraph()
        g.add_edge(1, 2)
        for w in range(10, 9 + deg_1):
            g.add_edge(1, w)
        for w in range(20, 19 + deg_2):
            g.add_edge(2, w)
        assert (g.degree(1), g.degree(2)) == (deg_1, deg_2)
        rel, _ = tiebroken(g, (1, 2), "degree")
        assert rel is RelType.P2P

    def test_kshell_equal_shells_peer(self):
        rel, method = tiebroken(single_edge(), (1, 2), "kshell", {1: 3, 2: 3})
        assert rel is RelType.P2P
        assert method == "kshell-tiebreak"

    def test_kshell_higher_shell_is_provider(self):
        rel, _ = tiebroken(single_edge(), (1, 2), "kshell", {1: 5, 2: 2})
        assert rel is RelType.P2C
        rel, _ = tiebroken(single_edge(), (1, 2), "kshell", {1: 2, 2: 5})
        assert rel is RelType.C2P

    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from(MODES))
    def test_one_rule_gives_each_mode_its_own(self, rank_low, rank_high, mode):
        # Degree mode peers within PEER_DEGREE_RATIO, k-shell mode peers
        # equal shells; otherwise the higher-ranked endpoint is the provider.
        # Leaves give 1 and 2 their degrees; every other AS has shell 1.
        g = single_edge()
        for w in range(100, 99 + rank_low):
            g.add_edge(1, w)
        for w in range(200, 199 + rank_high):
            g.add_edge(2, w)
        kshell = None
        if mode == "kshell":
            kshell = dict.fromkeys(g.vertices, 1) | {1: rank_low, 2: rank_high}
        _, method = tiebroken(g, (1, 2), mode, kshell)
        assert method == f"{mode}-tiebreak"

    def test_kshell_requires_index(self):
        g = single_edge()
        with pytest.raises(ConfigurationError):
            apply_tiebreaks(g, edge_labels([], g), HeuristicConfig(tiebreak="kshell"))

    def test_no_strategy_configured(self):
        g = single_edge()
        with pytest.raises(ConfigurationError):
            apply_tiebreaks(g, edge_labels([], g), HeuristicConfig())

    @pytest.mark.parametrize("mode", [None, "kshell"])
    def test_misconfigured_fails_with_no_open_edge(self, mode):
        g = single_edge()
        labels = edge_labels([cls((1, 2), RelType.C2P)], g)
        assert labels.unclassified() == []
        with pytest.raises(ConfigurationError):
            apply_tiebreaks(g, labels, HeuristicConfig(mode))


class TestApplyTiebreaks:
    def test_only_unclassified_non_valley_edges_touched(self):
        g = AsGraph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        g.add_edge(5, 6)
        g.add_edge(7, 8)
        vote_invalid(g, 5, 6, weight=2)
        # Split votes and an invalid one: unclassified, but not valley-only.
        vote(g, 7, 8, RelType.C2P)
        vote(g, 7, 8, RelType.P2C)
        vote_invalid(g, 7, 8)
        classifications = table(
            cls((1, 2), RelType.C2P),
            cls((3, 4), RelType.UNCLASSIFIED),
            cls((5, 6), RelType.UNCLASSIFIED),
            cls((7, 8), RelType.UNCLASSIFIED),
        )
        labels = edge_labels(classifications.values(), g)
        updates = apply_tiebreaks(g, labels, HeuristicConfig(tiebreak="degree"))
        index = g.edge_index
        assert set(updates) == {index[(3, 4)], index[(7, 8)]}
        assert updates[index[(3, 4)]] == (LABEL_P2P, METHOD_CODES["degree-tiebreak"])
