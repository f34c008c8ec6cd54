import io
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrel.errors import ParameterError
from asrel.graph import MAX_ASN, RelType, edge_key
from asrel.ingest import ingest_paths, load_corpus
from asrel.metrics import load_reference
from asrel.synth import (
    GenConfig,
    NoiseConfig,
    generate,
    sample_paths,
    write_paths_file,
    write_reference_file,
)

from oracles import (
    digraph_is_acyclic,
    is_valley_free,
    label_sequence,
    path_is_valley_free,
    valley_free_by_regex,
)


def config(**kwargs):
    kwargs.setdefault("tier_sizes", (4, 10, 30))
    kwargs.setdefault("paths", 300)
    kwargs.setdefault("seed", 11)
    return GenConfig(**kwargs)


class TestGenConfig:
    def test_top_tier_minimum(self):
        with pytest.raises(ParameterError):
            GenConfig(tier_sizes=(3,))

    def test_empty_tiers_rejected(self):
        with pytest.raises(ParameterError):
            GenConfig(tier_sizes=())

    def test_probability_bounds(self):
        with pytest.raises(ParameterError):
            GenConfig(tier_sizes=(4,), peer_prob=1.5)
        with pytest.raises(ParameterError):
            NoiseConfig(loop_prob=-0.1)

    def test_multihome_minimum(self):
        with pytest.raises(ParameterError):
            GenConfig(tier_sizes=(4,), multihome=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tier_sizes": (4, -1)}, {"tier_sizes": (4,), "paths": -1},
         {"tier_sizes": (4,), "agents": 0}],
        ids=["negative-tier", "negative-paths", "no-agents"],
    )
    def test_out_of_range_field(self, kwargs):
        with pytest.raises(ParameterError):
            GenConfig(**kwargs)


class TestGenerate:
    def test_lone_top_tier_is_a_peer_clique(self):
        truth = generate(GenConfig(tier_sizes=(4,), peer_prob=1.0))
        assert truth.graph.vertices == {1, 2, 3, 4}
        assert truth.graph.n_edges == 6
        assert set(truth.labels.values()) == {RelType.P2P}

    def test_single_homed_tree_below_clique(self):
        truth = generate(
            GenConfig(tier_sizes=(4, 10), multihome=1.0, peer_prob=0.0)
        )
        for v in truth.tier_members(2):
            assert len(truth.providers[v]) == 1
            assert truth.tiers[truth.providers[v][0]] == 1
        c2p_edges = [k for k, rel in truth.labels.items() if rel is not RelType.P2P]
        assert len(c2p_edges) == 10

    def test_asns_assigned_tier_by_tier(self):
        truth = generate(config())
        assert truth.tier_members(1) == [1, 2, 3, 4]
        assert truth.tier_members(2) == list(range(5, 15))
        assert truth.tier_members(3) == list(range(15, 45))

    def test_every_lower_vertex_has_a_provider_above(self):
        truth = generate(config())
        for v, tier in truth.tiers.items():
            if tier == 1:
                assert truth.providers[v] == []
            else:
                assert truth.providers[v]
                assert all(truth.tiers[p] == tier - 1 for p in truth.providers[v])

    def test_provider_customer_digraph_is_acyclic(self):
        truth = generate(config(seed=3))
        arcs = [
            (v, p) for v, provs in truth.providers.items() for p in provs
        ]
        assert digraph_is_acyclic(arcs)

    def test_peers_share_a_tier(self):
        truth = generate(config(peer_prob=0.8))
        for v, ps in truth.peers.items():
            for w in ps:
                assert truth.tiers[v] == truth.tiers[w]

    def test_labels_cover_every_edge(self):
        truth = generate(config())
        assert set(truth.labels) == truth.graph.edges

    def test_deterministic_per_seed(self):
        a = generate(config(seed=42))
        b = generate(config(seed=42))
        assert a.labels == b.labels
        assert a.tiers == b.tiers
        c = generate(config(seed=43))
        assert c.labels != a.labels

    def test_true_core_is_the_top_clique(self):
        truth = generate(config())
        core = truth.true_core()
        assert core.vertices == {1, 2, 3, 4}
        assert core.edges == {
            edge_key(a, b) for a, b in combinations([1, 2, 3, 4], 2)
        }
        assert core.preassigned == {}

    def test_gap_in_tier_sizes_rejected(self):
        with pytest.raises(ParameterError):
            generate(GenConfig(tier_sizes=(4, 0, 5)))

    def test_trailing_empty_tiers_allowed(self):
        truth = generate(GenConfig(tier_sizes=(4, 0, 0)))
        assert truth.graph.n_vertices == 4


class TestGroundTruthLabels:
    def test_label_respects_direction(self):
        truth = generate(config())
        v = truth.tier_members(2)[0]
        p = truth.providers[v][0]
        assert truth.label(v, p) is RelType.C2P
        assert truth.label(p, v) is RelType.P2C


class TestSamplePaths:
    def test_zero_noise_paths_are_valley_free(self):
        truth = generate(config())
        for raw in sample_paths(truth, config()):
            assert path_is_valley_free(raw.hops, truth.labels)

    def test_zero_noise_paths_are_simple(self):
        truth = generate(config())
        for raw in sample_paths(truth, config()):
            assert len(set(raw.hops)) == len(raw.hops)
            assert len(raw.hops) >= 2

    def test_full_valley_noise_all_fail_checker(self):
        cfg = config(noise=NoiseConfig(valley_prob=1.0))
        truth = generate(cfg)
        for raw in sample_paths(truth, cfg):
            assert not path_is_valley_free(raw.hops, truth.labels)

    def test_full_prepend_noise_removed_by_ingest(self):
        cfg = config(noise=NoiseConfig(prepend_prob=1.0))
        truth = generate(cfg)
        raws = sample_paths(truth, cfg)
        for raw in raws:
            assert any(a == b for a, b in zip(raw.hops, raw.hops[1:]))
        paths, report = ingest_paths(raws)
        assert report.paths_dropped_short == 0
        for p in paths:
            assert all(a != b for a, b in zip(p.hops, p.hops[1:]))

    def test_loop_noise_leaves_real_edges_only(self):
        cfg = config(noise=NoiseConfig(loop_prob=1.0))
        truth = generate(cfg)
        for raw in sample_paths(truth, cfg):
            for u, v in zip(raw.hops, raw.hops[1:]):
                assert edge_key(u, v) in truth.labels

    def test_agents_drawn_from_pool(self):
        cfg = config(agents=3)
        truth = generate(cfg)
        agents = {raw.agent for raw in sample_paths(truth, cfg)}
        assert agents <= {"agent-0", "agent-1", "agent-2"}
        assert len(agents) == 3

    def test_seed_override_gives_independent_corpus(self):
        cfg = config()
        truth = generate(cfg)
        a = sample_paths(truth, cfg)
        b = sample_paths(truth, cfg, seed=999)
        again = sample_paths(truth, cfg)
        assert [p.hops for p in a] == [p.hops for p in again]
        assert [p.hops for p in a] != [p.hops for p in b]

    def test_top_clique_exists_even_without_peer_prob(self):
        # peer_prob only thins lower tiers; the top clique is structural.
        truth = generate(GenConfig(tier_sizes=(4,), peer_prob=0.0))
        assert truth.graph.n_edges == 6

    def test_edgeless_topology_rejected(self):
        from asrel.graph import AsGraph
        from asrel.synth import GroundTruth

        bare = GroundTruth(AsGraph(), {}, {}, {}, {}, {})
        with pytest.raises(ParameterError):
            sample_paths(bare, config())


class TestValleyChecker:
    def letters(self, rels):
        return "".join(
            {"c2p": "u", "p2p": "f", "p2c": "d"}[r.value] for r in rels
        )

    @pytest.mark.parametrize(
        "rels",
        [
            [],
            [RelType.C2P],
            [RelType.C2P, RelType.P2P, RelType.P2C],
            [RelType.C2P, RelType.C2P, RelType.P2C, RelType.P2C],
            [RelType.P2P],
            [RelType.P2C, RelType.P2C],
        ],
    )
    def test_valid_shapes(self, rels):
        assert is_valley_free(rels)
        assert valley_free_by_regex(self.letters(rels))

    @pytest.mark.parametrize(
        "rels",
        [
            [RelType.P2C, RelType.C2P],
            [RelType.P2P, RelType.P2P],
            [RelType.P2P, RelType.C2P],
            [RelType.P2C, RelType.P2P],
            [RelType.C2P, RelType.P2P, RelType.C2P],
        ],
    )
    def test_invalid_shapes(self, rels):
        assert not is_valley_free(rels)
        assert not valley_free_by_regex(self.letters(rels))

    def test_sibling_edges_are_transparent(self):
        assert is_valley_free([RelType.C2P, RelType.S2S, RelType.P2C])

    def test_unclassified_fails(self):
        assert not is_valley_free([RelType.UNCLASSIFIED])

    def test_label_sequence_collapses_prepends(self):
        labels = {(1, 2): RelType.C2P}
        assert label_sequence([1, 1, 2], labels) == [RelType.C2P]
        assert label_sequence([2, 1], labels) == [RelType.P2C]


class TestFileRoundTrips:
    def test_paths_file_round_trip(self):
        cfg = config(paths=50)
        truth = generate(cfg)
        raws = sample_paths(truth, cfg)
        buf = io.StringIO()
        write_paths_file(raws, buf)
        parsed, _ = load_corpus(
            trace_streams=[("synth", buf.getvalue().splitlines())]
        )
        direct, _ = ingest_paths(raws)
        assert [p.hops for p in parsed] == [p.hops for p in direct]
        assert [p.agent for p in parsed] == [p.agent for p in direct]

    def test_reference_file_codes(self):
        labels = {
            (1, 2): RelType.P2P,
            (3, 4): RelType.C2P,
            (5, 6): RelType.P2C,
            (7, 8): RelType.S2S,
        }
        buf = io.StringIO()
        write_reference_file(labels, buf)
        lines = buf.getvalue().splitlines()
        assert "1|2|0" in lines
        assert "4|3|-1" in lines       # provider first for the c2p pair
        assert "5|6|-1" in lines
        assert "7|8|1" in lines

    @given(
        st.dictionaries(
            st.lists(st.integers(1, MAX_ASN), min_size=2, max_size=2, unique=True).map(
                lambda pair: tuple(sorted(pair))
            ),
            st.sampled_from([RelType.C2P, RelType.P2C, RelType.P2P, RelType.S2S]),
        )
    )
    def test_reference_file_round_trip(self, labels):
        buf = io.StringIO()
        write_reference_file(labels, buf)
        assert load_reference(buf.getvalue().splitlines()) == labels

    def test_unclassified_label_is_not_written(self):
        with pytest.raises(ParameterError):
            write_reference_file({(1, 2): RelType.UNCLASSIFIED}, io.StringIO())
