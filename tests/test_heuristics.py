import pytest

from asrel.errors import ConfigurationError
from asrel.graph import AsGraph, AsPath, Classification, RelType, compile_corpus
from asrel.heuristics import (
    HeuristicConfig,
    apply_tiebreaks,
    infer_gap_p2p,
    tiebreak,
)
from asrel.ingest import build_graph


def trace(*hops):
    return AsPath(tuple(hops), "trace", "a", 1)


def cls(key, rel, method="deterministic-p1", votes=1, invalid=0):
    shares = {
        RelType.C2P: (1.0, 0.0, 0.0),
        RelType.P2C: (0.0, 1.0, 0.0),
        RelType.P2P: (0.0, 0.0, 1.0),
        RelType.UNCLASSIFIED: (0.0, 0.0, 0.0),
    }[rel]
    if rel is RelType.UNCLASSIFIED:
        method = "unclassified"
    return Classification(key, rel, method, *shares, votes, invalid)


def gap_p2p(paths, classifications):
    return infer_gap_p2p(compile_corpus(build_graph(paths), paths), classifications)


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
            cls((2, 3), RelType.UNCLASSIFIED, votes=0),
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
            cls((2, 3), RelType.UNCLASSIFIED, votes=0),
            cls((1, 2), RelType.P2C),   # 2 -> 1 is p2c
        )
        assert set(gap_p2p([path], classifications)) == set()
        flipped = table(
            cls((3, 4), RelType.P2C),   # 4 -> 3 is c2p in traversal order
            cls((2, 3), RelType.UNCLASSIFIED, votes=0),
            cls((1, 2), RelType.C2P),   # 2 -> 1 is p2c in traversal order
        )
        updates = gap_p2p([path], flipped)
        assert set(updates) == {(2, 3)}

    def test_boundary_gap_ignored(self):
        path = trace(1, 2, 3)
        classifications = table(
            cls((1, 2), RelType.UNCLASSIFIED, votes=0),
            cls((2, 3), RelType.P2C),
        )
        assert gap_p2p([path], classifications) == {}

    def test_two_gaps_ignored(self):
        path = trace(1, 2, 3, 4, 5)
        classifications = table(
            cls((1, 2), RelType.C2P),
            cls((2, 3), RelType.UNCLASSIFIED, votes=0),
            cls((3, 4), RelType.UNCLASSIFIED, votes=0),
            cls((4, 5), RelType.P2C),
        )
        assert gap_p2p([path], classifications) == {}

    def test_wrong_context_ignored(self):
        path = trace(1, 2, 3, 4)
        classifications = table(
            cls((1, 2), RelType.P2P),
            cls((2, 3), RelType.UNCLASSIFIED, votes=0),
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

    def test_shares_carried_from_base_record(self):
        base = Classification(
            (2, 3), RelType.UNCLASSIFIED, "unclassified", 0.5, 0.25, 0.25, 4, 1
        )
        classifications = table(
            cls((1, 2), RelType.C2P), base, cls((3, 4), RelType.P2C)
        )
        updates = gap_p2p([trace(1, 2, 3, 4)], classifications)
        updated = updates[(2, 3)]
        assert updated.share_c2p == 0.5
        assert updated.votes == 4
        assert updated.invalid_votes == 1


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
        g = self.degree_graph()
        rel, method = tiebreak((3, 4), g, HeuristicConfig(tiebreak="degree"))
        assert rel is RelType.P2P
        assert method == "degree-tiebreak"

    def test_higher_degree_endpoint_is_provider(self):
        g = self.degree_graph()
        rel, _ = tiebreak((1, 2), g, HeuristicConfig(tiebreak="degree"))
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
        rel, _ = tiebreak((1, 2), g, HeuristicConfig(tiebreak="degree"))
        assert rel is RelType.P2P

    def test_kshell_equal_shells_peer(self):
        index = {1: 3, 2: 3}
        rel, method = tiebreak(
            (1, 2), AsGraph(), HeuristicConfig(tiebreak="kshell"), index
        )
        assert rel is RelType.P2P
        assert method == "kshell-tiebreak"

    def test_kshell_higher_shell_is_provider(self):
        index = {1: 5, 2: 2}
        rel, _ = tiebreak((1, 2), AsGraph(), HeuristicConfig(tiebreak="kshell"), index)
        assert rel is RelType.P2C
        rel, _ = tiebreak(
            (1, 2), AsGraph(), HeuristicConfig(tiebreak="kshell"),
            {1: 2, 2: 5},
        )
        assert rel is RelType.C2P

    def test_kshell_requires_index(self):
        with pytest.raises(ConfigurationError):
            tiebreak((1, 2), AsGraph(), HeuristicConfig(tiebreak="kshell"))

    def test_no_strategy_configured(self):
        with pytest.raises(ConfigurationError):
            tiebreak((1, 2), AsGraph(), HeuristicConfig())


class TestApplyTiebreaks:
    def test_only_unclassified_non_valley_edges_touched(self):
        g = AsGraph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        g.add_edge(5, 6)
        classifications = table(
            cls((1, 2), RelType.C2P),
            cls((3, 4), RelType.UNCLASSIFIED, votes=0),
            Classification(
                (5, 6), RelType.UNCLASSIFIED, "unclassified",
                0.0, 0.0, 0.0, 0, 2,
            ),
        )
        updates = apply_tiebreaks(
            g, classifications, HeuristicConfig(tiebreak="degree")
        )
        assert set(updates) == {(3, 4)}
        assert updates[(3, 4)].rel is RelType.P2P
