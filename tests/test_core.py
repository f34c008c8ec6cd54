import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrel.core import (
    CoreGraph,
    corrupt_core,
    greedy_max_clique,
    grow_core,
    k_max_core,
    k_shell_decompose,
    load_external_core,
    read_core_file,
    write_core_file,
)
from asrel.errors import (
    CorruptionInfeasibleError,
    EmptyCoreError,
    ParameterError,
    ParseError,
)
from asrel.graph import AsGraph, RelType, edge_key
from asrel.ingest import SiblingSet

from oracles import (
    adjacency_from_edges,
    brute_force_core_numbers,
    brute_force_max_clique,
    core_relationship,
    corrupted_vertices,
    is_clique,
)


def siblings_of(*pairs):
    return SiblingSet(pairs)


def k4_with_pendant():
    return AsGraph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5)])


random_edge_lists = st.lists(
    st.tuples(st.integers(1, 10), st.integers(1, 10)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=25,
)


class TestCoreGraph:
    def test_edge_endpoints_must_be_members(self):
        with pytest.raises(ParameterError):
            CoreGraph({1, 2}, {(1, 3)})

    def test_preassignment_must_cover_core_edge(self):
        with pytest.raises(ParameterError):
            CoreGraph({1, 2}, set(), {(1, 2): RelType.P2P})

    def test_preassignment_cannot_be_sibling(self):
        with pytest.raises(ParameterError):
            CoreGraph({1, 2}, {(1, 2)}, {(1, 2): RelType.S2S})

    def test_default_relationship_is_p2p(self):
        core = CoreGraph({1, 2, 3}, {(1, 2), (2, 3)}, {(2, 3): RelType.C2P})
        assert core_relationship(core, (1, 2)) is RelType.P2P
        assert core_relationship(core, (2, 3)) is RelType.C2P

    def test_density(self):
        assert CoreGraph({1, 2, 3}, {(1, 2), (2, 3)}).density() == pytest.approx(2 / 3)
        assert CoreGraph({1}).density() == 0.0


class TestGreedyMaxClique:
    def test_triangle_with_two_tails(self):
        # Degrees 1:3 2:3 3:2 4:2; vertex 4 misses the 3-4 edge.
        g = AsGraph([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        core = greedy_max_clique(g)
        assert core.vertices == {1, 2, 3}
        assert core.edges == {(1, 2), (1, 3), (2, 3)}

    def test_star_gives_center_and_first_leaf(self):
        g = AsGraph([(1, 2), (1, 3), (1, 4), (1, 5)])
        core = greedy_max_clique(g)
        assert core.vertices == {1, 2}

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyCoreError):
            greedy_max_clique(AsGraph())

    @given(random_edge_lists)
    @settings(max_examples=150)
    def test_always_a_clique_no_larger_than_optimum(self, edges):
        g = AsGraph(edges)
        core = greedy_max_clique(g)
        adj = adjacency_from_edges(edges)
        assert is_clique(adj, core.vertices)
        assert core.n_vertices <= brute_force_max_clique(adj)
        # Greedy over the full order always yields a maximal clique, so at
        # least an edge's worth of vertices exists.
        assert core.n_vertices >= 2


class TestKShell:
    def test_k4_with_pendant(self):
        index = k_shell_decompose(k4_with_pendant())
        assert index == {1: 3, 2: 3, 3: 3, 4: 3, 5: 1}

    def test_cycle_is_uniform_shell_two(self):
        g = AsGraph([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        index = k_shell_decompose(g)
        assert set(index.values()) == {2}

    def test_path_graph_shell_one(self):
        index = k_shell_decompose(AsGraph([(1, 2), (2, 3)]))
        assert set(index.values()) == {1}

    def test_index_is_computed_once_per_graph(self):
        g = k4_with_pendant()
        index = k_shell_decompose(g)
        assert g.shells is index
        assert k_shell_decompose(g) is index
        assert k_shell_decompose(g.copy_unvoted()) is index

    def test_k_max_core_of_k4_with_pendant(self):
        core = k_max_core(k4_with_pendant())
        assert core.vertices == {1, 2, 3, 4}
        assert core.n_edges == 6

    def test_k_max_core_empty_graph_rejected(self):
        with pytest.raises(EmptyCoreError):
            k_max_core(AsGraph())

    @given(random_edge_lists)
    @settings(max_examples=150)
    def test_matches_brute_force_oracle(self, edges):
        g = AsGraph(edges)
        index = k_shell_decompose(g)
        assert index == brute_force_core_numbers(adjacency_from_edges(edges))


class TestGrowCore:
    def hub_graph(self):
        # K4 on 1-4 plus a high-degree low-shell hub 10.
        return AsGraph(
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 10)]
            + [(10, leaf) for leaf in (5, 6, 7, 8, 9)]
        )

    def test_degree_strategy_prefers_the_hub(self):
        core = grow_core(self.hub_graph(), "degree", 4)
        assert core.vertices == {10, 1, 2, 3}

    def test_kshell_strategy_prefers_the_clique(self):
        core = grow_core(self.hub_graph(), "kshell", 4)
        assert core.vertices == {1, 2, 3, 4}
        assert core.n_edges == 6

    def test_size_bounds_enforced(self):
        g = self.hub_graph()
        with pytest.raises(ParameterError):
            grow_core(g, "degree", 3)
        with pytest.raises(ParameterError):
            grow_core(g, "degree", g.n_vertices + 1)

    def test_unknown_strategy(self):
        with pytest.raises(ParameterError):
            grow_core(self.hub_graph(), "pagerank", 4)

    def test_full_size_is_whole_graph(self):
        g = self.hub_graph()
        core = grow_core(g, "degree", g.n_vertices)
        assert core.vertices == g.vertices


class TestEdgeOrder:
    @given(random_edge_lists, st.data())
    def test_cores_follow_from_the_edges_not_their_order(self, edges, data):
        # The same edges, shuffled, some pairs flipped and some given twice.
        extra = data.draw(st.lists(st.sampled_from(edges), max_size=5))
        given_again = data.draw(st.permutations(edges + extra))
        n = len(given_again)
        flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        given_again = [
            (b, a) if flip else (a, b) for (a, b), flip in zip(given_again, flips)
        ]
        g, h = AsGraph(edges), AsGraph(given_again)
        # Edge ids follow first appearance.
        first_seen = list(dict.fromkeys(edge_key(a, b) for a, b in given_again))
        assert h.edge_keys == first_seen
        assert h.edge_index == {key: e for e, key in enumerate(first_seen)}
        assert sorted(g.edge_keys) == sorted(h.edge_keys)
        assert k_shell_decompose(g) == k_shell_decompose(h)
        assert greedy_max_clique(g) == greedy_max_clique(h)
        assert k_max_core(g) == k_max_core(h)
        for strategy in ("degree", "kshell"):
            for size in range(4, g.n_vertices + 1):
                assert grow_core(g, strategy, size) == grow_core(h, strategy, size)


class TestExternalCore:
    def graph(self):
        return AsGraph([(1, 2), (8, 9), (9, 10), (10, 8), (50, 51)])

    def test_largest_component_wins(self):
        core = load_external_core(["1 2\n", "8 9\n", "9 10\n"], self.graph())
        assert core.vertices == {8, 9, 10}
        assert core.preassigned == {
            (8, 9): RelType.P2P,
            (9, 10): RelType.P2P,
        }

    def test_size_tie_broken_by_edge_count(self):
        # {8, 9, 10} has three edges, the triangle beats the two-vertex pairs.
        core = load_external_core(
            ["1 2\n", "8 9\n", "9 10\n", "8 10\n"], self.graph()
        )
        assert core.vertices == {8, 9, 10}
        assert core.n_edges == 3

    def test_full_tie_broken_by_smallest_asn(self):
        core = load_external_core(["50 51\n", "1 2\n"], self.graph())
        assert core.vertices == {1, 2}

    def test_pipe_format_skips_non_peer_codes(self):
        lines = ["8|9|-1\n", "9|10|0\n", "1|2|1\n"]
        core = load_external_core(lines, self.graph())
        assert core.vertices == {9, 10}

    def test_code_outside_the_rule_is_an_error(self):
        # Codes other than -1, 0 and 1 are not skipped like -1 and 1 are.
        with pytest.raises(ParseError) as err:
            load_external_core(["9|10|0\n", "8|9|2\n", "1|2|1\n"], self.graph(), "p.txt")
        assert "p.txt:2" in str(err.value)

    def test_edges_not_in_graph_dropped(self):
        core = load_external_core(["1 2\n", "700 701\n"], self.graph())
        assert core.vertices == {1, 2}

    def test_nothing_usable_raises(self):
        with pytest.raises(EmptyCoreError):
            load_external_core(["700 701\n"], self.graph())

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_external_core(["1 2\n", "1 2 3 4\n"], self.graph(), "peers.txt")
        assert "peers.txt:2" in str(err.value)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            load_external_core(["7 7\n"], self.graph())

    def test_pair_collapsed_by_siblings_skipped(self):
        # With 1 and 2 siblings, "1|2|0" names one AS and no peering, and
        # "2 3" is the edge (1, 3).
        graph, siblings = AsGraph([(1, 3)]), siblings_of((1, 2))
        core = load_external_core(["1|2|0\n", "2 3\n"], graph, siblings=siblings)
        assert core.preassigned == {(1, 3): RelType.P2P}
        with pytest.raises(EmptyCoreError):
            load_external_core(["1|2|0\n"], graph, siblings=siblings)

    @given(random_edge_lists, random_edge_lists, st.booleans())
    @settings(max_examples=150)
    def test_choice_matches_brute_force(self, edges, peers, pipes):
        # The graph holds edges; the peer list names peers, some of which
        # the graph lacks, and some more than once.
        graph = AsGraph(edges)
        candidate = {(min(e), max(e)) for e in peers if graph.has_edge(*e)}
        lines = [f"{a}|{b}|0" if pipes else f"{a} {b}" for a, b in peers]
        if not candidate:
            with pytest.raises(EmptyCoreError):
                load_external_core(lines, graph)
            return
        adj = adjacency_from_edges(sorted(candidate))
        components = []
        for v in adj:
            reach = {v}
            while True:
                grown = reach.union(*(adj[w] for w in reach))
                if grown == reach:
                    break
                reach = grown
            if reach not in components:
                components.append(reach)

        def n_edges(c):
            return sum(1 for a, _ in candidate if a in c)

        best = min(components, key=lambda c: (-len(c), -n_edges(c), min(c)))
        core = load_external_core(lines, graph)
        assert core.vertices == best
        assert core.edges == {k for k in candidate if k[0] in best}
        assert core.preassigned == {k: RelType.P2P for k in core.edges}


class TestCorruptCore:
    def graph(self):
        # Core triangle 1-2-3 with an outside fringe 4, 5, 6 hanging off it.
        return AsGraph(
            [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (4, 5), (5, 6)]
        )

    def core(self):
        return CoreGraph(
            {1, 2, 3},
            {(1, 2), (1, 3), (2, 3)},
            {(1, 2): RelType.P2P},
        )

    def test_replace_zero_is_identity(self):
        corrupted = corrupt_core(self.core(), self.graph(), 0, seed=1)
        assert corrupted.vertices == {1, 2, 3}
        assert corrupted.preassigned == {(1, 2): RelType.P2P}

    def test_replacement_changes_membership_but_not_size(self):
        core = self.core()
        corrupted = corrupt_core(core, self.graph(), 2, seed=3)
        assert corrupted.n_vertices == 3
        assert len(corrupted.vertices - core.vertices) == 2

    def test_inserted_vertices_touch_the_evolving_core(self):
        g = self.graph()
        for seed in range(20):
            corrupted = corrupt_core(self.core(), g, 1, seed=seed)
            new = corrupted.vertices - {1, 2, 3}
            for v in new:
                assert not g.neighbors(v).isdisjoint(corrupted.vertices - new)

    def test_deterministic_per_seed(self):
        a = corrupt_core(self.core(), self.graph(), 2, seed=9)
        b = corrupt_core(self.core(), self.graph(), 2, seed=9)
        assert a.vertices == b.vertices and a.edges == b.edges

    def test_preassignments_survive_only_on_surviving_edges(self):
        g = self.graph()
        seen_kept = seen_dropped = False
        for seed in range(30):
            corrupted = corrupt_core(self.core(), g, 1, seed=seed)
            if (1, 2) in corrupted.edges:
                assert corrupted.preassigned.get((1, 2)) is RelType.P2P
                seen_kept = True
            else:
                assert (1, 2) not in corrupted.preassigned
                seen_dropped = True
        assert seen_kept and seen_dropped

    def test_full_replacement_allowed(self):
        corrupted = corrupt_core(self.core(), self.graph(), 3, seed=5)
        assert corrupted.n_vertices == 3
        assert corrupted.vertices.isdisjoint({1, 2, 3})

    def test_no_adjacent_candidate_raises(self):
        g = AsGraph([(1, 2), (30, 31)])
        core = CoreGraph({1, 2}, {(1, 2)})
        with pytest.raises(CorruptionInfeasibleError):
            corrupt_core(core, g, 1, seed=0)

    def test_replace_out_of_range(self):
        with pytest.raises(ParameterError):
            corrupt_core(self.core(), self.graph(), 4, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        ),
        st.sets(st.integers(1, 14), min_size=1, max_size=6),
        st.data(),
        st.integers(0, 2**32),
    )
    def test_matches_rescanning_reference(self, edges, members, data, seed):
        # Members 13 and 14 are never graph vertices: a core file may name such ASes.
        g = AsGraph(edges)
        core = CoreGraph(members)
        # A full replacement leaves no surviving core to be adjacent to.
        replace = data.draw(
            st.one_of(st.just(len(members)), st.integers(0, len(members)))
        )
        try:
            expected = corrupted_vertices(core, g, replace, seed)
        except CorruptionInfeasibleError:
            with pytest.raises(CorruptionInfeasibleError):
                corrupt_core(core, g, replace, seed)
            return
        assert corrupt_core(core, g, replace, seed).vertices == expected


class TestCoreFiles:
    def test_round_trip_preserves_everything(self):
        core = CoreGraph(
            {3, 7, 9},
            {(3, 7), (7, 9)},
            {(3, 7): RelType.C2P},
        )
        buf = io.StringIO()
        write_core_file(core, buf)
        again = read_core_file(buf.getvalue().splitlines(), AsGraph(core.edges))
        assert again.vertices == core.vertices
        assert again.edges == core.edges
        assert again.preassigned == core.preassigned

    def test_relationship_read_in_written_order(self):
        # c2p on the line "e 7 3" means 7 is the customer, which is p2c
        # in canonical (3, 7) order.
        core = read_core_file(["e 7 3 c2p\n"], AsGraph([(3, 7)]))
        assert core.preassigned == {(3, 7): RelType.P2C}

    def test_vertex_only_core(self):
        core = read_core_file(["v 8\n"], AsGraph([(8, 9)]))
        assert core.vertices == {8} and core.n_edges == 0

    def test_graph_intersection_drops_unknown_edges(self):
        g = AsGraph([(1, 2)])
        core = read_core_file(["e 1 2\n", "e 1 9\n"], g)
        assert core.edges == {(1, 2)}
        assert core.vertices == {1, 2, 9}

    def test_unknown_rel_token(self):
        with pytest.raises(ParseError):
            read_core_file(["e 1 2 friend\n"], AsGraph([(1, 2)]))

    def test_conflicting_labels_rejected(self):
        # Read in written order, "e 1 2 c2p" makes 1 the customer and
        # "e 2 1 c2p" makes 2 the customer.
        with pytest.raises(ParseError) as err:
            read_core_file(
                ["e 1 2 c2p\n", "e 2 1 c2p\n"], AsGraph([(1, 2)]), "core.txt"
            )
        assert "core.txt:2" in str(err.value)

    def test_repeated_label_and_unlabeled_line_agree(self):
        lines = ["e 1 2 c2p\n", "e 2 1 p2c\n", "e 1 2\n", "e 3 4\n", "e 4 3 p2p\n"]
        core = read_core_file(lines, AsGraph([(1, 2), (3, 4)]))
        assert core.preassigned == {(1, 2): RelType.C2P, (3, 4): RelType.P2P}

    def test_pair_collapsed_by_siblings_names_a_member(self):
        # With 1 and 2 siblings, "e 1 2 c2p" names AS 1 and no edge, and
        # "e 2 3 p2c" is the edge (1, 3) read in written order.
        lines = ["e 1 2 c2p\n", "e 2 3 p2c\n", "v 4\n"]
        graph = AsGraph([(1, 3), (3, 4)])
        core = read_core_file(lines, graph, siblings=siblings_of((1, 2), (4, 5)))
        assert core.vertices == {1, 3, 4}
        assert core.edges == {(1, 3)}
        assert core.preassigned == {(1, 3): RelType.P2C}

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyCoreError):
            read_core_file(["# just a comment\n"], AsGraph([(1, 2)]))
