import csv
import functools
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from asrel import cli
from asrel import core as core_module
from asrel import graph as graph_module
from asrel import metrics as metrics_module
from asrel import pipeline as pipeline_module
from asrel.core import CoreGraph, corrupt_core
from asrel.engine import InferenceConfig
from asrel.errors import CorruptionInfeasibleError
from asrel.graph import AsPath, RelType, edge_key, vote_shares
from asrel.heuristics import HeuristicConfig
from asrel.ingest import SiblingSet, build_graph, ingest_paths
from asrel.metrics import (
    CLASSIFICATION_HEADER,
    ReferenceSet,
    vote_share_histogram,
    write_classifications_csv,
)
from asrel.pipeline import (
    core_size_sweep,
    corruption_sweep,
    run_inference,
    summarize,
)
from asrel.synth import GenConfig, NoiseConfig, generate, sample_paths, write_paths_file

from oracles import tally


def trace(*hops):
    return AsPath(tuple(hops), "trace", "a", 1)


def tiny_run(**kwargs):
    paths = [trace(1, 2, 3, 4, 5)]
    graph = build_graph(paths)
    core = CoreGraph({3})
    return run_inference(graph, paths, core, **kwargs), graph


class TestRunInference:
    def test_input_graph_never_mutated(self):
        result, graph = tiny_run()
        assert tally(graph, (1, 2)).votes() == 0
        assert result.graph is not graph
        assert tally(result.graph, (1, 2)).votes() == 1

    def test_every_edge_classified_or_reported(self):
        result, graph = tiny_run()
        assert set(result.classifications) == set(graph.edge_keys)

    def test_tiebreak_classifies_leftovers(self):
        # Off-summit core: the two summit edges get no usable votes.
        paths = [trace(1, 2, 3, 4, 5, 6, 7), trace(2, 3, 8, 5, 6)]
        graph = build_graph(paths)
        core = CoreGraph({8})
        bare = run_inference(graph, paths, core)
        open_edges = [
            k for k, c in bare.classifications.items()
            if c.rel is RelType.UNCLASSIFIED
        ]
        assert open_edges
        broken = run_inference(
            graph, paths, core,
            heuristic_config=HeuristicConfig(tiebreak="degree"),
        )
        for key in open_edges:
            assert broken.classifications[key].rel is not RelType.UNCLASSIFIED
            assert broken.classifications[key].method == "degree-tiebreak"

    def test_kshell_tiebreak_builds_index_on_demand(self):
        paths = [trace(1, 2, 3, 4, 5, 6, 7), trace(2, 3, 8, 5, 6)]
        graph = build_graph(paths)
        result = run_inference(
            graph, paths, CoreGraph({8}),
            heuristic_config=HeuristicConfig(tiebreak="kshell"),
        )
        methods = {c.method for c in result.classifications.values()}
        assert "kshell-tiebreak" in methods

    def test_valley_paths_counted(self):
        paths = [trace(1, 10, 2, 11)]
        graph = build_graph(paths)
        result = run_inference(graph, paths, CoreGraph({10, 11}))
        assert result.valley_paths == 1


class TestSummarize:
    def test_path_percentages(self):
        core = CoreGraph({10, 11, 12, 13})
        paths = [
            trace(1, 10, 2),                    # through core
            trace(3, 4, 5),                     # periphery
            trace(1, 10, 11, 12, 13, 2),        # over the hop limit
        ]
        graph = build_graph(paths)
        result = run_inference(graph, paths, core)
        metrics = summarize(result)
        assert metrics.paths_total == 3
        assert metrics.pct_through_core == pytest.approx(100 / 3)
        assert metrics.pct_invalid_paths == pytest.approx(100 / 3)

    def test_valley_votes_add_to_invalid_percentage(self):
        paths = [trace(1, 10, 2, 11)]
        graph = build_graph(paths)
        metrics = summarize(run_inference(graph, paths, CoreGraph({10, 11})))
        assert metrics.pct_invalid_paths == pytest.approx(100.0)

    def test_reference_agreement_wired_through(self):
        result, _ = tiny_run()
        reference = ReferenceSet(
            {(1, 2): RelType.C2P, (2, 3): RelType.C2P}
        )
        metrics = summarize(result, reference)
        assert metrics.pct_match_reference_overall == pytest.approx(50.0)
        assert metrics.pct_match_reference_both == pytest.approx(100.0)

    def test_sibling_pairs_counted_apart_from_edges(self):
        # Declared sibling pairs are not edges: they count only under their
        # own method, never in the edge count, shares or agreement.
        siblings = SiblingSet([(100, 200), (300, 400)])
        paths = [trace(1, 2, 3, 4, 5)]
        graph = build_graph(paths)
        result = run_inference(graph, paths, CoreGraph({3}), siblings=siblings)
        reference = ReferenceSet({(1, 2): RelType.C2P, (100, 200): RelType.S2S})
        metrics = summarize(result, reference)
        assert metrics.edges == graph.n_edges == 4
        assert metrics.method_counts["sibling-db"] == 2
        assert sum(metrics.method_counts.values()) == 4 + 2
        assert metrics.pct_classified == pytest.approx(100.0)
        assert metrics.pct_match_reference_overall == pytest.approx(25.0)
        assert metrics.pct_match_reference_both == pytest.approx(100.0)

    def test_histogram_populated(self):
        result, _ = tiny_run()
        assert len(metrics_hist := vote_share_histogram(result.graph)) == 20
        assert sum(c for _, _, c in metrics_hist) == 4


@pytest.fixture(scope="module")
def corpus():
    config = GenConfig(tier_sizes=(4, 12, 40), paths=1500, seed=5)
    truth = generate(config)
    paths, _ = ingest_paths(sample_paths(truth, config))
    graph = build_graph(paths)
    return truth, graph, paths


class TestWork:
    """Exact work counts, the same on any host: a change that walks more
    periphery paths or hops fails here."""

    # Per core: phase-2 rounds, the paths each round walks, the hops of
    # those paths, and the paths and hops the gap pass walks.
    PINNED = {
        "true": (1, [33], 59, 19, 22),
        "replaced": (2, [100, 17], 334, 54, 152),
        "off-centre": (3, [1189, 168, 28], 4823, 63, 217),
    }

    def test_periphery_walks_are_pinned(self, corpus, monkeypatch):
        truth, graph, paths = corpus
        true_core = truth.true_core()
        cores = {
            "true": true_core,
            "replaced": corrupt_core(true_core, graph, 4, seed=1),
            "off-centre": CoreGraph({18}),
        }
        selections = []
        gap = [0, 0]
        real_through = graph_module.Corpus.through
        real_listed = graph_module.Corpus.listed

        def counting(self, edges):
            selected = real_through(self, edges)
            hops = sum(self.offsets[p + 1] - self.offsets[p] for p in selected)
            selections.append((len(selected), hops))
            return selected

        def walked(self, e):
            # Counts only the paths the gap pass takes before it stops.
            for p in real_listed(self, e):
                gap[0] += 1
                gap[1] += self.offsets[p + 1] - self.offsets[p]
                yield p

        monkeypatch.setattr(graph_module.Corpus, "through", counting)
        monkeypatch.setattr(graph_module.Corpus, "listed", walked)
        work = {}
        for name, core in cores.items():
            selections.clear()
            gap[:] = [0, 0]
            rounds = run_inference(graph, paths, core).phase2_rounds
            # One selection per phase-2 round; the gap pass uses listed.
            assert len(selections) == rounds
            work[name] = (
                rounds,
                [n for n, _ in selections],
                sum(hops for _, hops in selections),
                *gap,
            )
        assert work == self.PINNED


class TestSweeps:
    def test_corruption_fraction_zero_equals_plain_run(self, corpus):
        truth, graph, paths = corpus
        core = truth.true_core()
        rows = corruption_sweep(graph, paths, core, [0.0], seeds=[1, 2])
        plain = summarize(run_inference(graph, paths, core)).row()
        for row in rows:
            for name, value in plain.items():
                assert row[name] == value

    def test_corruption_rows_cover_grid(self, corpus):
        truth, graph, paths = corpus
        rows = corruption_sweep(
            graph, paths, truth.true_core(), [0.0, 0.5], seeds=[1, 2, 3]
        )
        assert len(rows) == 6
        assert {(r["fraction"], r["seed"]) for r in rows} == {
            (f, s) for f in (0.0, 0.5) for s in (1, 2, 3)
        }
        half = [r for r in rows if r["fraction"] == 0.5]
        assert all(r["replaced"] == 2 for r in half)

    def test_reversed_fractions_give_the_same_cells(self, corpus):
        # Every cell starts from the same tables and a fresh copy of the
        # graph, so no cell may see what the one before it patched.
        truth, graph, paths = corpus
        fractions = [0.0, 0.25, 0.5, 1.0]
        forward = corruption_sweep(
            graph, paths, truth.true_core(), fractions, seeds=[1, 2]
        )
        backward = corruption_sweep(
            graph, paths, truth.true_core(), fractions[::-1], seeds=[1, 2]
        )
        cell = lambda row: (row["fraction"], row["seed"])
        assert len(forward) == 8
        assert sorted(forward, key=cell) == sorted(backward, key=cell)

    def test_unreplaced_fraction_runs_once(self, corpus, monkeypatch):
        # Replacing nothing gives the same core for every seed.
        truth, graph, paths = corpus
        calls = []
        real = pipeline_module.run_inference

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "run_inference", counting)
        rows = corruption_sweep(
            graph, paths, truth.true_core(), [0.0, 0.5], seeds=[1, 2]
        )
        assert len(calls) == 3
        assert [(r["fraction"], r["seed"]) for r in rows] == [
            (0.0, 1), (0.0, 2), (0.5, 1), (0.5, 2)
        ]
        assert {**rows[1], "seed": 1} == rows[0]

    def test_graph_and_both_sweeps_compile_one_corpus(self, monkeypatch):
        # build_graph compiles the corpus while it adds the edges, and both
        # sweeps reuse it when given the same plain path list. Given another
        # list, the first sweep compiles it once, keeps it as graph.corpus,
        # and every later cell reuses it.
        config = GenConfig(tier_sizes=(4, 12, 40), paths=200, seed=5)
        truth = generate(config)
        paths, _ = ingest_paths(sample_paths(truth, config))
        built = []
        real = graph_module.Corpus.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(graph_module.Corpus, "__init__", counting)
        graph = build_graph(paths)
        corruption_sweep(graph, paths, truth.true_core(), [0.0, 0.5], seeds=[1])
        core_size_sweep(graph, paths, "degree", [4, 8])
        assert len(built) == 1
        assert built[0] is graph.corpus
        other = paths[::-1]
        corruption_sweep(graph, other, truth.true_core(), [0.0, 0.5], seeds=[1, 2])
        core_size_sweep(graph, other, "degree", [4, 8])
        assert len(built) == 2
        assert built[1] is graph.corpus and built[1].paths == other

    @pytest.fixture
    def histogram_builds(self, monkeypatch):
        """The graphs whose vote-share histogram was built."""
        builds = []
        real = metrics_module.vote_share_histogram

        def counting(graph):
            builds.append(graph)
            return real(graph)

        for module in (metrics_module, pipeline_module, cli):
            monkeypatch.setattr(module, "vote_share_histogram", counting, raising=False)
        return builds

    def test_sweeps_build_no_histogram(self, corpus, histogram_builds):
        # No experiment.csv column reads the histogram.
        truth, graph, paths = corpus
        corruption_sweep(graph, paths, truth.true_core(), [0.0, 0.5], seeds=[1])
        core_size_sweep(graph, paths, "degree", [4, 8])
        assert histogram_builds == []

    def test_infer_builds_one_histogram(self, tmp_path, histogram_builds):
        paths = tmp_path / "p.txt"
        paths.write_text("2 1 3\n2 3 4\n2 4 1\n5 1 2\n", encoding="utf-8")
        argv = ["infer", "--paths-bgp", str(paths), "--core-method", "clique"]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert len(histogram_builds) == 1

    @pytest.fixture
    def index_builds(self, monkeypatch):
        """The corpora whose edge-to-path index was built."""
        builds = []
        real = graph_module.Corpus.incidence.func

        def counting(corpus):
            builds.append(corpus)
            return real(corpus)

        incidence = functools.cached_property(counting)
        incidence.__set_name__(graph_module.Corpus, "incidence")
        monkeypatch.setattr(graph_module.Corpus, "incidence", incidence)
        return builds

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["build-core", "--core-method", "kcore"], 0),
            (["infer", "--core-method", "clique"], 1),
            # Every cell replaces part of the core, so each runs inference.
            (["experiment", "corruption", "--core-method", "clique",
              "--fractions", "0.25,0.5", "--corruption-seeds", "2"], 1),
            (["experiment", "core-sweep", "--sweep-sizes", "4,6"], 1),
        ],
        ids=["build-core", "infer", "corruption", "core-sweep"],
    )
    def test_cli_builds_index_per_corpus(self, tmp_path, index_builds, argv, builds):
        config = GenConfig(tier_sizes=(4, 8, 20), paths=300, seed=3)
        truth = generate(config)
        paths = tmp_path / "p.txt"
        with open(paths, "w", encoding="utf-8") as fh:
            write_paths_file(sample_paths(truth, config), fh)
        argv = [*argv, "--paths-trace", str(paths), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        assert len(index_builds) == builds

    def test_core_size_sweep_rows(self, corpus):
        _, graph, paths = corpus
        rows = core_size_sweep(graph, paths, "degree", [4, 8])
        assert [r["size"] for r in rows] == [4, 8]
        assert all(r["core_vertices"] == r["size"] for r in rows)
        assert all(r["strategy"] == "degree" for r in rows)

    @pytest.fixture
    def kshell_calls(self, corpus, monkeypatch):
        """The graphs whose k-shell index was computed: the calls to
        k_shell_decompose that found graph.shells unset."""
        # The module's graph may keep the index an earlier test computed.
        monkeypatch.setattr(corpus[1], "shells", None)
        calls = []
        real = core_module.k_shell_decompose

        def counting(graph):
            if graph.shells is None:
                calls.append(graph)
            return real(graph)

        monkeypatch.setattr(core_module, "k_shell_decompose", counting)
        monkeypatch.setattr(pipeline_module, "k_shell_decompose", counting)
        return calls

    def test_kshell_sweep_uses_shared_index(self, corpus, kshell_calls):
        _, graph, paths = corpus
        rows = core_size_sweep(
            graph, paths, "kshell", [4, 6],
            heuristic_config=HeuristicConfig(tiebreak="kshell"),
        )
        assert len(rows) == 2
        assert len(kshell_calls) == 1

    def test_corruption_sweep_uses_shared_index(self, corpus, kshell_calls):
        truth, graph, paths = corpus
        rows = corruption_sweep(
            graph, paths, truth.true_core(), [0.0, 0.5], seeds=[1, 2],
            heuristic_config=HeuristicConfig(tiebreak="kshell"),
        )
        assert len(rows) == 4
        assert len(kshell_calls) == 1

    @pytest.mark.parametrize(
        "core, tiebreak, calls",
        [
            (["--core-method", "kcore"], "kshell", 1),
            (["--core-method", "grow", "--core-size", "4", "--grow-strategy", "kshell"],
             "kshell", 1),
            (["--core-method", "kcore"], "degree", 1),
            (["--core-method", "clique"], "kshell", 1),
            (["--core-method", "clique"], "degree", 0),
        ],
    )
    def test_cli_window_computes_index_once(
        self, tmp_path, kshell_calls, core, tiebreak, calls
    ):
        paths = tmp_path / "p.txt"
        paths.write_text("2 1 3\n2 3 4\n2 4 1\n5 1 2\n", encoding="utf-8")
        argv = ["infer", "--paths-bgp", str(paths), *core, "--tiebreak", tiebreak]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert len(kshell_calls) == calls

    @pytest.mark.parametrize(
        "core",
        [
            ["--core-method", "kcore"],
            ["--core-method", "grow", "--core-size", "4", "--grow-strategy", "kshell"],
        ],
    )
    def test_cli_corruption_computes_index_once(self, tmp_path, kshell_calls, core):
        paths = tmp_path / "p.txt"
        paths.write_text("2 1 3\n2 3 4\n2 4 1\n5 1 2\n", encoding="utf-8")
        argv = [
            "experiment", "corruption", "--paths-bgp", str(paths), *core,
            "--tiebreak", "kshell", "--fractions", "0,0.25", "--corruption-seeds", "2",
        ]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert len(kshell_calls) == 1


NOISY = NoiseConfig(loop_prob=0.1, valley_prob=0.1, prepend_prob=0.1)


def full_run(raws, truth, replace, tiebreak, siblings=None):
    """Ingest, graph, a corrupted true core, inference and its metrics."""
    paths, report = ingest_paths(raws, siblings)
    graph = build_graph(paths)
    try:
        core = corrupt_core(truth.true_core(), graph, replace, seed=1)
    except CorruptionInfeasibleError:
        reject()
    result = run_inference(
        graph, paths, core, InferenceConfig(), HeuristicConfig(tiebreak),
        siblings=siblings,
    )
    return result, summarize(result), report


def classification_rows(result):
    """The classifications.csv rows of a run, as lists of fields."""
    buf = io.StringIO()
    write_classifications_csv(
        result.classifications, result.sibling_records, result.graph, buf
    )
    return list(csv.reader(io.StringIO(buf.getvalue())))


class TestMetamorphic:
    """Labels follow from the corpus, not from its order or batching."""

    runs = st.fixed_dictionaries(
        {
            "replace": st.integers(0, 4),
            "tiebreak": st.sampled_from([None, "degree", "kshell"]),
        }
    )

    @staticmethod
    def corpus(seed):
        config = GenConfig(
            tier_sizes=(4, 8, 20), paths=60, noise=NOISY, seed=seed, agents=3
        )
        truth = generate(config)
        return truth, sample_paths(truth, config)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.randoms(use_true_random=False), runs)
    def test_shuffling_paths_changes_nothing(self, seed, rng, run):
        truth, raws = self.corpus(seed)
        shuffled = list(raws)
        rng.shuffle(shuffled)
        a, metrics_a, _ = full_run(raws, truth, **run)
        b, metrics_b, _ = full_run(shuffled, truth, **run)
        assert a.classifications == b.classifications
        assert a.sibling_records == b.sibling_records
        assert classification_rows(a) == classification_rows(b)
        assert a.phase2_rounds == b.phase2_rounds
        assert metrics_a.row() == metrics_b.row()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(1, 4), min_size=60, max_size=60),
        runs,
    )
    def test_weight_k_equals_k_copies(self, seed, weights, run):
        truth, raws = self.corpus(seed)
        weighted = [
            AsPath(raw.hops, raw.source, raw.agent, k)
            for raw, k in zip(raws, weights)
        ]
        copies = list(raws) + [
            raw for raw, k in zip(raws, weights) for _ in range(k - 1)
        ]
        a, metrics_a, report_a = full_run(weighted, truth, **run)
        b, metrics_b, report_b = full_run(copies, truth, **run)
        assert a.classifications == b.classifications
        assert a.sibling_records == b.sibling_records
        assert classification_rows(a) == classification_rows(b)
        assert metrics_a.row() == metrics_b.row()
        assert vote_share_histogram(a.graph) == vote_share_histogram(b.graph)
        assert report_a == report_b

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.data(), runs)
    def test_rows_read_the_run_graph_counters(self, seed, data, run):
        # Records hold labels only; each classifications.csv row takes its
        # shares and invalid votes from the run graph's counters, and a
        # declared sibling pair, which is not an edge, gets zeros.
        truth, raws = self.corpus(seed)
        core = truth.true_core().vertices
        ases = sorted({h for raw in raws for h in raw.hops} - core)
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(ases), st.sampled_from(ases)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                max_size=6,
            )
        )
        siblings = SiblingSet(pairs)
        result, _, _ = full_run(raws, truth, **run, siblings=siblings)
        work = result.graph
        header, *rows = classification_rows(result)
        assert ",".join(header) == CLASSIFICATION_HEADER
        assert len(rows) == work.n_edges + len(siblings.pairs())
        for low, high, rel, method, *shares, invalid in rows:
            key = (int(low), int(high))
            assert (method == "unclassified") == (rel == "unclassified")
            e = work.edge_index.get(key)
            if e is None:
                assert (rel, method) == ("s2s", "sibling-db")
                assert key in siblings.pairs()
                assert shares == ["0.000000"] * 3 and invalid == "0"
                continue
            c2p, p2c, p2p = work.customer[2 * e], work.customer[2 * e + 1], work.p2p[e]
            assert shares == [f"{share:.6f}" for share in vote_shares(c2p, p2c, p2p)]
            assert int(invalid) == work.invalid[e]

    @staticmethod
    def infer_outputs(root, files, siblings=None, flag="--paths-bgp", core=None):
        """Bytes of the order-stable outputs of ``asrel infer`` run on the
        given files, each a list of lines, passed as flag in order, on the
        sibling file whose lines are siblings, if given, and on the core
        file whose lines are core, or on the greedy clique."""
        run = Path(tempfile.mkdtemp(dir=root))
        names = []
        for i, lines in enumerate(files):
            path = run / f"paths{i}.txt"
            path.write_text("".join(lines), encoding="utf-8")
            names.append(str(path))
        out = run / "out"
        argv = ["infer", flag, *names, "--tiebreak", "kshell", "--out", str(out)]
        if core is None:
            argv += ["--core-method", "clique"]
        for option, lines in (("--siblings", siblings), ("--core", core)):
            if lines is not None:
                path = run / f"{option[2:]}.txt"
                path.write_text("".join(lines), encoding="utf-8")
                argv += [option, str(path)]
        assert cli.main(argv) == 0
        return {
            name: (out / name).read_bytes()
            for name in (
                "classifications.csv", "metrics.csv", "histogram.csv",
                "ingest_report.json",
            )
        }

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_batching_into_files_changes_nothing(self, seed, data):
        # Lines are merged across the files of a source before parsing, so
        # how they are split into files, and whether a line repeats or
        # carries a weight, must not show in any output.
        _, raws = self.corpus(seed)
        pool = [" ".join(map(str, raw.hops)) + "\n" for raw in raws]
        lines = pool + data.draw(st.lists(st.sampled_from(pool), max_size=40))
        other = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        cut = data.draw(st.integers(0, len(lines)))
        k = data.draw(st.integers(2, 4))
        weighted = [line[:-1] + f" weight={k}\n" for line in lines]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            one = self.infer_outputs(root, [lines])
            assert self.infer_outputs(root, [lines[:cut], lines[cut:]]) == one
            assert self.infer_outputs(root, [lines, other]) == self.infer_outputs(
                root, [lines + other]
            )
            assert self.infer_outputs(root, [lines * k]) == self.infer_outputs(
                root, [weighted]
            )

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(
            st.text("abxyz019-_.", min_size=1, max_size=8),
            min_size=3, max_size=3, unique=True,
        ),
    )
    def test_renaming_agents_changes_nothing(self, seed, names):
        # With three agents the two-agent filter splits paths; which paths
        # share an agent may matter, never what the agent is called.
        _, raws = self.corpus(seed)
        assert ingest_paths(raws)[1].paths_split
        rename = dict(zip(sorted({raw.agent for raw in raws}), names))
        hops = [" ".join(map(str, raw.hops)) for raw in raws]
        lines = [f"{raw.agent}|{h}\n" for raw, h in zip(raws, hops)]
        renamed = [f"{rename[raw.agent]}|{h}\n" for raw, h in zip(raws, hops)]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            assert self.infer_outputs(
                root, [lines], flag="--paths-trace"
            ) == self.infer_outputs(root, [renamed], flag="--paths-trace")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_siblings_merged_in_input_or_by_file_agree(self, seed, data):
        # Mapping each sibling onto its group's smallest member in the
        # input lines must give what --siblings gives, apart from the
        # sibling-db records that only the file declares.
        _, raws = self.corpus(seed)
        ases = sorted({h for raw in raws for h in raw.hops})
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(ases), st.sampled_from(ases)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                min_size=1,
                max_size=6,
            )
        )
        merged = SiblingSet(pairs)
        flat = merged.mapping()
        lines = [" ".join(map(str, raw.hops)) + "\n" for raw in raws]
        premerged = [
            " ".join(str(flat.get(h, h)) for h in raw.hops) + "\n" for raw in raws
        ]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            by_file = self.infer_outputs(
                root, [lines], [f"{a} {b}\n" for a, b in pairs]
            )
            in_input = self.infer_outputs(root, [premerged])
        for name in ("histogram.csv", "ingest_report.json"):
            assert by_file[name] == in_input[name]
        records = by_file["classifications.csv"].decode().splitlines()
        assert [r for r in records if "sibling-db" not in r] == (
            in_input["classifications.csv"].decode().splitlines()
        )
        assert sum("sibling-db" in r for r in records) == len(merged.pairs())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_core_named_by_any_sibling_agrees(self, seed, data):
        # A core file is read through the sibling merge: naming each core
        # AS by any member of its group, and a merged pair by two of its
        # members, must give what naming the representatives gives.
        truth, raws = self.corpus(seed)
        core = truth.true_core()
        ases = sorted({h for raw in raws for h in raw.hops})
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(sorted(core.vertices)), st.sampled_from(ases))
                .filter(lambda pair: pair[0] != pair[1]),
                min_size=1,
                max_size=4,
            )
        )
        flat = SiblingSet(pairs).mapping()

        def rep(asn):
            return flat.get(asn, asn)

        groups = {}
        for asn in sorted({asn for pair in pairs for asn in pair}):
            groups.setdefault(rep(asn), []).append(asn)
        edges = {edge_key(rep(a), rep(b)) for a, b in core.edges if rep(a) != rep(b)}
        labels = st.sampled_from(["", " c2p", " p2c", " p2p"])
        by_rep = [f"v {rep(v)}\n" for v in sorted(core.vertices)]
        by_rep += [f"e {a} {b}{data.draw(labels)}\n" for a, b in sorted(edges)]

        def member(token):
            asn = int(token[0])
            return str(data.draw(st.sampled_from(groups.get(asn, [asn]))))

        by_member = [re.sub(r"\b\d+\b", member, line) for line in by_rep]
        by_member += [f"e {a} {b}\n" for a, b in pairs]
        lines = [" ".join(map(str, raw.hops)) + "\n" for raw in raws]
        siblings = [f"{a} {b}\n" for a, b in pairs]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            expected = self.infer_outputs(root, [lines], siblings, core=by_rep)
            assert self.infer_outputs(root, [lines], siblings, core=by_member) == expected

    @staticmethod
    def labelled_core(seed, run, data):
        """The corpus's paths and graph, and its true core with run's
        replacements and preassigned labels drawn for its edges."""
        truth, raws = TestMetamorphic.corpus(seed)
        paths, _ = ingest_paths(raws)
        graph = build_graph(paths)
        try:
            core = corrupt_core(truth.true_core(), graph, run["replace"], seed=1)
        except CorruptionInfeasibleError:
            reject()
        preassigned = {}
        for key in sorted(core.edges):
            rel = data.draw(
                st.sampled_from([None, RelType.C2P, RelType.P2C, RelType.P2P])
            )
            if rel is not None:
                preassigned[key] = rel
        return paths, graph, CoreGraph(core.vertices, core.edges, preassigned)

    @staticmethod
    def assert_renumbering_only_flips(paths, graph, core, run, number):
        """Renumber every AS a as number[a] and rerun: an edge is read from
        its other end exactly when its endpoints change order, so its c2p
        and p2c swap then, and nothing else may change."""

        def renumbered(key):
            a, b = number[key[0]], number[key[1]]
            return edge_key(a, b), a > b

        def relabel(key, rel):
            new_key, flips = renumbered(key)
            return new_key, rel.flipped() if flips else rel

        new_paths = [
            AsPath(tuple(number[h] for h in p.hops), p.source, p.agent, p.weight)
            for p in paths
        ]
        new_core = CoreGraph(
            {number[v] for v in core.vertices},
            {renumbered(key)[0] for key in core.edges},
            dict(relabel(key, rel) for key, rel in core.preassigned.items()),
        )
        configs = (InferenceConfig(), HeuristicConfig(run["tiebreak"]))
        a = run_inference(graph, paths, core, *configs)
        b = run_inference(build_graph(new_paths), new_paths, new_core, *configs)
        assert a.phase2_rounds == b.phase2_rounds
        assert a.valley_paths == b.valley_paths
        assert len(a.classifications) == len(b.classifications)
        for key, cls in a.classifications.items():
            new_key, flips = renumbered(key)
            other = b.classifications[new_key]
            assert other.rel is relabel(key, cls.rel)[1]
            assert other.method == cls.method
            low, high, p2p, invalid = tally(a.graph, key)
            if flips:
                low, high = high, low
            assert tally(b.graph, new_key) == (low, high, p2p, invalid)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), runs, st.data())
    def test_relabel_swaps_c2p_and_p2c(self, seed, run, data):
        # a -> M - a reverses the order of every pair of ASes, so each edge
        # is read from its other end: c2p and p2c swap and nothing else may
        # change. Preassigned core labels make the walk follow them.
        paths, graph, core = self.labelled_core(seed, run, data)
        m = 10_000
        mirror = {a: m - a for a in graph.vertices | core.vertices}
        self.assert_renumbering_only_flips(paths, graph, core, run, mirror)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), runs, st.data())
    def test_any_renumbering_flips_exactly_the_reordered_edges(self, seed, run, data):
        # An arbitrary injective renumbering keeps the order of some pairs
        # of ASes and reverses others, so it checks every hop's direction
        # bit on its own, in both directions, with core labels preassigned.
        paths, graph, core = self.labelled_core(seed, run, data)
        ases = sorted(graph.vertices | core.vertices)
        images = data.draw(st.permutations(range(1, 3 * len(ases) + 1)))
        number = dict(zip(ases, images))
        self.assert_renumbering_only_flips(paths, graph, core, run, number)
