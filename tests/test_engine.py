import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asrel.core import CoreGraph, corrupt_core
from asrel.engine import (
    InferenceConfig,
    finalize,
    partition_paths,
    phase1,
    phase2,
)
from asrel.errors import ConfigurationError
from asrel.graph import AsPath, RelType, compile_corpus, edge_key
from asrel.ingest import build_graph, ingest_paths
from asrel.pipeline import run_inference
from asrel.synth import GenConfig, NoiseConfig, generate, sample_paths
from oracles import partition_paths as reference_partition
from oracles import phase1 as reference_phase1
from oracles import phase2_unpruned, run_engine, tally, vote, vote_invalid


def trace(*hops):
    return AsPath(tuple(hops), "trace", "a", 1)


def noedge_core(*vertices):
    return CoreGraph(set(vertices))


def corpus_of(*paths):
    return build_graph(paths).corpus


def phase2_votes(g, paths, config):
    """phase2's result and the edges whose tallies it changed."""
    before = {key: tally(g, key) for key in g.edge_keys}
    result = phase2(g, compile_corpus(g, paths), config)
    return result, {key for key in g.edge_keys if tally(g, key) != before[key]}


class TestInferenceConfig:
    def test_defaults(self):
        config = InferenceConfig()
        assert config.threshold == 0.8
        assert config.max_core_hops == 3

    @pytest.mark.parametrize("threshold", [0.5, 0.3, 1.1])
    def test_threshold_range(self, threshold):
        with pytest.raises(ConfigurationError):
            InferenceConfig(threshold=threshold)

    def test_threshold_boundary_values(self):
        InferenceConfig(threshold=1.0)
        InferenceConfig(threshold=0.51)

    def test_hop_limit_positive(self):
        with pytest.raises(ConfigurationError):
            InferenceConfig(max_core_hops=0)


class TestPartition:
    def test_split_by_core_membership(self):
        core = noedge_core(10)
        through = trace(1, 10, 2)
        outside = trace(3, 4, 5)
        partition = partition_paths(corpus_of(through, outside), core, 3)
        assert list(partition.through_core) == [through]
        assert list(partition.periphery) == [outside]
        parts = (partition.through_core, partition.periphery, partition.invalid)
        assert sum(part.weight for part in parts) == 2

    def test_long_core_run_is_invalid(self):
        core = noedge_core(10, 11, 12, 13)
        path = trace(1, 10, 11, 12, 13, 2)
        partition = partition_paths(corpus_of(path), core, max_core_hops=3)
        assert list(partition.invalid) == [path]

    def test_run_at_limit_is_kept(self):
        core = noedge_core(10, 11, 12)
        path = trace(1, 10, 11, 12, 2)
        partition = partition_paths(corpus_of(path), core, max_core_hops=3)
        assert list(partition.through_core) == [path]

    def test_separate_runs_not_summed(self):
        # Two separate two-hop visits are fine under a limit of 3.
        core = noedge_core(10, 11, 20, 21)
        path = trace(1, 10, 11, 2, 20, 21, 3)
        partition = partition_paths(corpus_of(path), core, max_core_hops=3)
        assert list(partition.through_core) == [path]

    def test_revisited_core_edge_counts_each_traversal(self):
        # One core edge crossed twice is a run of three core vertices.
        path = trace(1, 2, 1)
        core = noedge_core(1, 2)
        partition = partition_paths(corpus_of(path), core, max_core_hops=2)
        assert list(partition.invalid) == [path]

    @pytest.mark.parametrize("n_hops, invalid", [(255, False), (256, True)])
    def test_core_run_beyond_a_byte(self, n_hops, invalid):
        # n_hops hops between two core vertices are a run of n_hops + 1.
        path = trace(*[1 + i % 2 for i in range(n_hops + 1)])
        core = noedge_core(1, 2)
        partition = partition_paths(corpus_of(path), core, max_core_hops=256)
        assert list(partition.invalid if invalid else partition.through_core) == [path]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(1, 6), min_size=2, max_size=10), min_size=1, max_size=12
        ),
        st.sets(st.integers(1, 6), max_size=4),
        st.integers(1, 4),
    )
    @example([[1, 2, 1]], {1, 2}, 2)
    def test_matches_reference(self, spec, core_vertices, max_core_hops):
        # Few ASes, so paths revisit core vertices and cross core edges
        # more than once.
        paths = []
        for hops in spec:
            hops = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
            if len(hops) >= 2:
                paths.append(trace(*hops))
        if not paths:
            return
        core = noedge_core(*core_vertices)
        partition = partition_paths(corpus_of(*paths), core, max_core_hops)
        expected = reference_partition(paths, core, max_core_hops)
        parts = (partition.through_core, partition.periphery, partition.invalid)
        assert [sorted(part.members) for part in parts] == [
            sorted(i for i, path in enumerate(paths) if any(path is q for q in part))
            for part in expected
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 6), min_size=2, max_size=10),
                st.integers(1, 3),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sets(st.integers(1, 6), max_size=4),
        st.integers(1, 4),
    )
    def test_subset_matches_reference(self, spec, core_vertices, max_core_hops):
        # Each path has a weight and is a member of the subset or not.
        paths, members = [], []
        for hops, weight, member in spec:
            hops = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
            if len(hops) >= 2:
                paths.append(AsPath(tuple(hops), "trace", "a", weight))
                members.append(member)
        if not paths:
            return
        core = noedge_core(*core_vertices)
        subset = corpus_of(*paths).subset(bytes(members))
        partition = partition_paths(subset, core, max_core_hops)
        expected = reference_partition(
            [path for path, member in zip(paths, members) if member], core, max_core_hops
        )
        index = {id(path): p for p, path in enumerate(paths)}
        parts = (partition.through_core, partition.periphery, partition.invalid)
        for part, want in zip(parts, expected):
            ids = sorted(index[id(path)] for path in want)
            assert list(part.members) == ids
            # The class's mask, as a member-by-member build would set it.
            mask = bytearray(len(paths))
            for p in ids:
                mask[p] = 1
            assert part.member_mask == mask
            assert part.weight == sum(path.weight for path in want)


class TestPhase1:
    def test_uphill_core_downhill(self):
        # Climb to a two-vertex core, cross it, descend.
        path = trace(1, 2, 3, 4, 5, 6, 7)
        g = build_graph([path])
        core = CoreGraph({4, 5}, {(4, 5)})
        result = phase1(g, compile_corpus(g, [path]), core)
        assert result.valley_paths == 0
        assert tally(g, (1, 2)).c2p == 1
        assert tally(g, (3, 4)).c2p == 1
        assert tally(g, (4, 5)).p2p == 1
        assert tally(g, (5, 6)).c2p == 0
        assert tally(g, (5, 6)).p2c == 1
        assert tally(g, (6, 7)).p2c == 1

    def test_vertex_only_core_splits_at_the_member(self):
        path = trace(2, 3, 8, 5, 6)
        g = build_graph([path])
        result = phase1(g, compile_corpus(g, [path]), noedge_core(8))
        voted = {g.edge_keys[e] for e in result.voted_edges}
        assert voted == {(2, 3), (3, 8), (5, 8), (5, 6)}
        assert tally(g, (2, 3)).c2p == 1        # c2p
        assert tally(g, (3, 8)).c2p == 1        # c2p into the core
        assert tally(g, (5, 8)).c2p == 1        # p2c leaving the core
        assert tally(g, (5, 6)).p2c == 1       # p2c

    def test_reentering_core_after_descent_is_invalid(self):
        path = trace(1, 10, 2, 11)
        g = build_graph([path])
        result = phase1(g, compile_corpus(g, [path]), noedge_core(10, 11))
        assert result.valley_paths == 1
        counts = tally(g, (2, 11))
        assert counts.invalid == 1
        assert counts.votes() == 0
        # The walk stops at the violation; nothing after it is voted.
        assert {g.edge_keys[e] for e in result.voted_edges} == {(1, 10), (2, 10)}

    def test_preassigned_core_edge_not_revoted(self):
        path = trace(1, 4, 5, 2)
        g = build_graph([path])
        core = CoreGraph({4, 5}, {(4, 5)}, {(4, 5): RelType.P2P})
        result = phase1(g, compile_corpus(g, [path]), core)
        assert tally(g, (4, 5)).votes() == 0
        assert g.edge_index[(4, 5)] not in result.voted_edges

    def test_preassigned_p2c_descends_then_up_is_invalid(self):
        # (4, 5) is preassigned provider-to-customer, so the walk is
        # downhill at 5; the climb back up over c2p-preassigned (5, 6)
        # violates valley-freeness.
        path = trace(4, 5, 6)
        g = build_graph([path])
        core = CoreGraph(
            {4, 5, 6},
            {(4, 5), (5, 6)},
            {(4, 5): RelType.P2C, (5, 6): RelType.C2P},
        )
        result = phase1(g, compile_corpus(g, [path]), core)
        assert result.valley_paths == 1
        assert tally(g, (5, 6)).invalid == 1

    def test_preassigned_p2c_then_leaving_core_stays_downhill(self):
        path = trace(4, 5, 9)
        g = build_graph([path])
        core = CoreGraph({4, 5}, {(4, 5)}, {(4, 5): RelType.P2C})
        phase1(g, compile_corpus(g, [path]), core)
        assert tally(g, (5, 9)).c2p == 0
        assert tally(g, (5, 9)).p2c == 1       # p2c away from the core

    def test_weight_scales_votes(self):
        path = AsPath((1, 10), "bgp", "", 4)
        g = build_graph([path])
        phase1(g, compile_corpus(g, [path]), noedge_core(10))
        assert tally(g, (1, 10)).c2p == 4

    def test_no_state_kept_between_cores(self):
        # Each run patches the transition tables for its own core. Cores
        # A, B, then A again on one graph must each vote as the reference
        # phase 1 does on a fresh graph given that core alone.
        config = GenConfig(
            tier_sizes=(4, 12, 40), paths=400, seed=3,
            noise=NoiseConfig(valley_prob=0.2),
        )
        truth = generate(config)
        paths, _ = ingest_paths(sample_paths(truth, config))
        graph = build_graph(paths)
        corpus = compile_corpus(graph, paths)
        true_core = truth.true_core()
        a = CoreGraph(
            true_core.vertices,
            true_core.edges,
            {key: RelType.P2C for key in sorted(true_core.edges)[::2]},
        )
        b = corrupt_core(true_core, graph, 3, seed=1)
        assert a.vertices != b.vertices
        for core in (a, b, a):
            work = graph.copy_unvoted()
            result = phase1(work, partition_paths(corpus, core, 3).through_core, core)
            fresh = build_graph(paths)
            through_core, _, _ = reference_partition(paths, core, 3)
            voted, valley_paths = reference_phase1(fresh, through_core, core)
            assert work.customer == fresh.customer
            assert work.p2p == fresh.p2p and work.invalid == fresh.invalid
            assert {work.edge_keys[e] for e in result.voted_edges} == voted
            assert result.valley_paths == valley_paths > 0


class TestPhase2:
    def config(self):
        return InferenceConfig()

    def seed_anchor(self, g, a, b, rel):
        vote(g, a, b, rel)

    def test_uphill_suspects_adopt_following_c2p(self):
        p = trace(1, 2, 3)
        g = build_graph([p])
        self.seed_anchor(g, 2, 3, RelType.C2P)
        result, voted = phase2_votes(g, [p], self.config())
        assert (1, 2) in voted
        assert tally(g, (1, 2)).c2p == 1

    def test_downhill_suspects_after_first_p2c(self):
        p = trace(1, 2, 3)
        g = build_graph([p])
        self.seed_anchor(g, 1, 2, RelType.P2C)
        result, voted = phase2_votes(g, [p], self.config())
        assert tally(g, (2, 3)).c2p == 0
        assert tally(g, (2, 3)).p2c == 1

    def test_suspects_between_anchors_of_opposite_sense_stay_unvoted(self):
        # c2p ... gap ... p2c brackets the summit; the gap edge could be
        # either side of it, so phase 2 must not guess.
        p = trace(1, 2, 3, 4, 5)
        g = build_graph([p])
        self.seed_anchor(g, 1, 2, RelType.C2P)
        self.seed_anchor(g, 4, 5, RelType.P2C)
        result, voted = phase2_votes(g, [p], self.config())
        assert voted == set()
        assert tally(g, (2, 3)).votes() == 0
        assert tally(g, (3, 4)).votes() == 0

    def test_gap_between_two_c2p_anchors_votes_c2p(self):
        p = trace(1, 2, 3, 4)
        g = build_graph([p])
        self.seed_anchor(g, 1, 2, RelType.C2P)
        self.seed_anchor(g, 3, 4, RelType.C2P)
        result, voted = phase2_votes(g, [p], self.config())
        assert voted == {(2, 3)}
        assert tally(g, (2, 3)).c2p == 1

    def test_trailing_suspects_without_anchor_stay_unvoted(self):
        p = trace(1, 2, 3)
        g = build_graph([p])
        self.seed_anchor(g, 1, 2, RelType.C2P)
        result, voted = phase2_votes(g, [p], self.config())
        assert voted == set()

    def test_propagation_chains_across_rounds(self):
        # (2, 3) is anchored from the start; (1, 2) adopts it in round
        # one, (5, 1) adopts (1, 2) in round two, round three is empty.
        chain = trace(5, 1, 2)
        inner = trace(1, 2, 3)
        g = build_graph([chain, inner])
        self.seed_anchor(g, 2, 3, RelType.C2P)
        result, voted = phase2_votes(g, [chain, inner], self.config())
        assert result.rounds == 3
        assert tally(g, (1, 2)).c2p == 1
        assert tally(g, (1, 5)).p2c == 1       # 5 is 1's customer

    def test_round_count_order_independent(self):
        for order in ([0, 1], [1, 0]):
            paths = [trace(5, 1, 2), trace(1, 2, 3)]
            g = build_graph(paths)
            self.seed_anchor(g, 2, 3, RelType.C2P)
            result, voted = phase2_votes(g, [paths[i] for i in order], self.config())
            assert result.rounds == 3
            assert tally(g, (1, 5)).p2c == 1

    def test_below_threshold_edge_is_not_an_anchor(self):
        p = trace(1, 2, 3)
        g = build_graph([p])
        # (2, 3) votes 3:1 c2p = 75%, below the 0.8 anchor bar.
        for _ in range(3):
            vote(g, 2, 3, RelType.C2P)
        vote(g, 2, 3, RelType.P2P)
        result, voted = phase2_votes(g, [p], self.config())
        assert voted == set()

    def test_no_periphery_paths_single_empty_round(self):
        g = build_graph([trace(1, 2)])
        result, voted = phase2_votes(g, [], self.config())
        assert result.rounds == 1
        assert voted == set()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 9), min_size=2, max_size=7),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=12,
        ),
        st.data(),
        st.sampled_from([0.6, 0.8, 1.0]),
    )
    def test_matches_unpruned_reference(self, spec, data, threshold):
        # Few ASes, so paths share edges and anchors chain across rounds.
        paths = []
        for hops, weight in spec:
            hops = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
            if len(hops) >= 2:
                paths.append(AsPath(tuple(hops), "trace", "a", weight))
        if not paths:
            return
        config = InferenceConfig(threshold=threshold)
        fast, slow = build_graph(paths), build_graph(paths)
        edges = sorted(fast.edge_keys)
        seeds = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(edges),
                    st.booleans(),
                    st.sampled_from([RelType.C2P, RelType.P2C, RelType.P2P]),
                    st.integers(1, 4),
                ),
                max_size=len(edges),
            )
        )
        for (a, b), flip, rel, weight in seeds:
            if flip:
                a, b = b, a
            vote(fast, a, b, rel, weight)
            vote(slow, a, b, rel, weight)

        result, voted = phase2_votes(fast, paths, config)
        expected_voted, rounds = phase2_unpruned(slow, paths, config)
        assert voted == expected_voted
        assert result.rounds == rounds
        assert all(tally(fast, k) == tally(slow, k) for k in edges)


class TestFinalize:
    def test_threshold_met_classifies(self):
        g = build_graph([trace(1, 2)])
        for _ in range(4):
            vote(g, 1, 2, RelType.C2P)
        vote(g, 1, 2, RelType.P2P)
        out = finalize(g, InferenceConfig(), noedge_core(99), [g.edge_index[(1, 2)]])
        cls = out[(1, 2)]
        assert cls.rel is RelType.C2P
        assert cls.method == "deterministic-p1"

    def test_threshold_missed_stays_unclassified(self):
        g = build_graph([trace(1, 2)])
        for _ in range(3):
            vote(g, 1, 2, RelType.C2P)
        vote(g, 1, 2, RelType.P2P)
        out = finalize(g, InferenceConfig(), noedge_core(99))
        cls = out[(1, 2)]
        assert cls.rel is RelType.UNCLASSIFIED
        assert cls.method == "unclassified"

    def test_phase2_votes_tagged_p2(self):
        g = build_graph([trace(1, 2)])
        vote(g, 1, 2, RelType.P2C)
        out = finalize(g, InferenceConfig(), noedge_core(99), phase1_voted=set())
        assert out[(1, 2)].method == "deterministic-p2"
        assert out[(1, 2)].rel is RelType.P2C

    def test_preassignment_overrides_votes(self):
        g = build_graph([trace(4, 5)])
        vote(g, 4, 5, RelType.C2P)
        core = CoreGraph({4, 5}, {(4, 5)}, {(4, 5): RelType.P2P})
        out = finalize(g, InferenceConfig(), core)
        assert out[(4, 5)].rel is RelType.P2P
        assert out[(4, 5)].method == "core-preassigned"

    def test_preassigned_edge_outside_graph_ignored(self):
        # A core read without a graph may preassign an edge no path shows.
        g = build_graph([trace(4, 5)])
        core = CoreGraph({4, 5, 6}, {(4, 5), (5, 6)}, {(5, 6): RelType.P2P})
        out = finalize(g, InferenceConfig(), core)
        assert set(out) == {(4, 5)}
        assert out[(4, 5)].method == "unclassified"

    def test_valley_only_edge_recorded(self):
        g = build_graph([trace(1, 2)])
        vote_invalid(g, 1, 2)
        out = finalize(g, InferenceConfig(), noedge_core(99))
        cls = out[(1, 2)]
        assert cls.rel is RelType.UNCLASSIFIED
        assert cls.method == "unclassified"

    def test_every_graph_edge_gets_a_record(self):
        g = build_graph([trace(1, 2, 3), trace(7, 8)])
        out = finalize(g, InferenceConfig(), noedge_core(99))
        assert set(out) == {(1, 2), (2, 3), (7, 8)}


class TestWorkedCorpora:
    """End-to-end phase behavior on the three worked micro-examples."""

    def run(self, paths, core, heuristics=False):
        from asrel.pipeline import run_inference

        g = build_graph(paths)
        return run_inference(g, paths, core).classifications

    def test_single_path_through_core_edge(self):
        paths = [trace(1, 2, 3, 4, 5, 6, 7)]
        core = CoreGraph({4, 5}, {(4, 5)})
        out = self.run(paths, core)
        rels = {key: cls.rel for key, cls in out.items()}
        assert rels == {
            (1, 2): RelType.C2P,
            (2, 3): RelType.C2P,
            (3, 4): RelType.C2P,
            (4, 5): RelType.P2P,
            (5, 6): RelType.P2C,
            (6, 7): RelType.P2C,
        }

    def test_two_paths_with_vertex_core_leave_summit_open(self):
        paths = [trace(1, 2, 3, 4, 5, 6, 7), trace(2, 3, 8, 5, 6)]
        out = self.run(paths, noedge_core(8))
        rels = {key: cls.rel for key, cls in out.items()}
        assert rels[(1, 2)] is RelType.C2P
        assert rels[(6, 7)] is RelType.P2C
        assert rels[(3, 4)] is RelType.UNCLASSIFIED
        assert rels[(4, 5)] is RelType.UNCLASSIFIED

    def test_gap_edge_classified_p2p_by_heuristic(self):
        paths = [
            trace(1, 2, 3, 4, 5, 6),
            trace(1, 2, 3, 9),
            trace(9, 4, 5, 6),
        ]
        out = self.run(paths, noedge_core(9))
        assert out[(3, 4)].rel is RelType.P2P
        assert out[(3, 4)].method == "gap-p2p"


class TestAgainstReference:
    """The compiled engine against the reference engine in oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 10), min_size=2, max_size=8),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=16,
        ),
        st.data(),
        st.integers(1, 4),
        st.sampled_from([0.6, 0.8, 1.0]),
    )
    def test_same_labels_rounds_and_valleys(
        self, spec, data, max_core_hops, threshold
    ):
        # Few ASes, so paths share edges, revisit ASes and cross the core
        # in every way; weights make the tallies uneven.
        paths = []
        for hops, weight in spec:
            hops = [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]
            if len(hops) >= 2:
                paths.append(AsPath(tuple(hops), "trace", "a", weight))
        if not paths:
            return
        graph = build_graph(paths)
        vertices = sorted(graph.vertices)
        members = data.draw(st.sets(st.sampled_from(vertices), max_size=5))
        pairs = sorted(
            edge_key(a, b) for a in members for b in members if a < b
        )
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        preassigned = {}
        for key in sorted(edges):
            rel = data.draw(
                st.sampled_from([None, RelType.C2P, RelType.P2C, RelType.P2P])
            )
            if rel is not None:
                preassigned[key] = rel
        core = CoreGraph(set(members), set(edges), preassigned)
        config = InferenceConfig(threshold=threshold, max_core_hops=max_core_hops)

        result = run_inference(graph, paths, core, config)
        classifications, rounds, valley_paths, voted = run_engine(
            graph, paths, core, config
        )
        assert result.classifications == classifications
        assert result.phase2_rounds == rounds
        assert result.valley_paths == valley_paths
        assert {result.graph.edge_keys[e] for e in result.phase1_voted} == voted
        # A valley path casts exactly one invalid vote, and only phase 1
        # casts them.
        assert result.valley_paths == sum(result.graph.invalid)
