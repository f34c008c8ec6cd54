"""Spans around the calls into each asrel layer, for the traced benchmark run.

The tracer wraps public functions of the asrel modules from the outside:
every module attribute bound to a traced function is replaced by a wrapper
that opens a span, so a call made by ``asrel.cli.main`` or by a sweep in
``asrel.pipeline`` is recorded without changing the package. Spans stay in
memory and are written once, when the job ends.

``run_inference`` is not wrapped but replaced by :func:`Tracer.replay`, which
calls the same stages in the same order with a span around each. Selected
replayed calls are checked afterwards against the real ``run_inference`` so
that a change to the pipeline cannot silently make the trace measure a
different program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) -> span name. The span name's first part is the layer.
TRACED = {
    ("asrel.cli", "main"): "cli.main",
    ("asrel.ingest", "load_corpus"): "ingest.load_corpus",
    ("asrel.ingest", "read_path_file"): "ingest.read",
    ("asrel.ingest", "ingest_paths"): "ingest.clean",
    ("asrel.ingest", "load_sibling_pairs"): "ingest.siblings",
    ("asrel.ingest", "build_graph"): "graph.build",
    ("asrel.core", "read_core_file"): "core.read",
    ("asrel.core", "greedy_max_clique"): "core.clique",
    ("asrel.core", "k_shell_decompose"): "core.kshell",
    ("asrel.core", "corrupt_core"): "core.corrupt",
    ("asrel.core", "grow_core"): "core.grow",
    ("asrel.metrics", "load_reference"): "metrics.reference",
    ("asrel.metrics", "summarize_classifications"): "metrics.summarize",
    ("asrel.metrics", "vote_share_histogram"): "metrics.summarize",
    ("asrel.metrics", "compare"): "metrics.summarize",
    ("asrel.metrics", "write_classifications_csv"): "metrics.write",
    ("asrel.metrics", "write_metrics_csv"): "metrics.write",
    ("asrel.metrics", "write_histogram_csv"): "metrics.write",
    ("asrel.pipeline", "summarize"): "pipeline.summarize",
    ("asrel.pipeline", "corruption_sweep"): "pipeline.sweep",
    ("asrel.pipeline", "core_size_sweep"): "pipeline.sweep",
}

MODULES = (
    "asrel",
    "asrel.cli",
    "asrel.core",
    "asrel.engine",
    "asrel.graph",
    "asrel.heuristics",
    "asrel.ingest",
    "asrel.metrics",
    "asrel.pipeline",
)


def _ingest_counts(result, counts: Counter) -> None:
    paths, report = result
    counts["ingest.lines"] += report.paths_read
    counts["ingest.paths_kept"] += len(paths)
    counts["ingest.truncated_loop"] += report.paths_truncated_loop
    counts["ingest.edges_filtered"] += report.edges_filtered_single_agent
    counts["ingest.paths_split"] += report.paths_split


def _graph_counts(graph, counts: Counter) -> None:
    counts["graph.vertices"] += graph.n_vertices
    counts["graph.edges"] += graph.n_edges


def _core_counts(core, counts: Counter) -> None:
    counts["core.vertices"] += core.n_vertices
    counts["core.edges"] += core.n_edges


def _sweep_counts(rows, counts: Counter) -> None:
    counts["pipeline.cells"] += len(rows)


COUNTERS = {
    "ingest.clean": _ingest_counts,
    "graph.build": _graph_counts,
    "core.read": _core_counts,
    "core.clique": _core_counts,
    "core.corrupt": _core_counts,
    "core.grow": _core_counts,
    "pipeline.sweep": _sweep_counts,
}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of
    the enclosing span (None at top level). Counts are totals over every
    call the job made.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.calls: list[dict] = []
        self._checked: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._run_inference = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in the asrel modules."""
        import asrel.cli  # noqa: F401  (imports every traced module)
        from asrel import pipeline

        modules = [sys.modules[name] for name in MODULES]
        replacements = {}
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[module], attr)
            replacements[id(original)] = (original, self._wrap(name, original))
        self._run_inference = pipeline.run_inference
        replacements[id(pipeline.run_inference)] = (pipeline.run_inference, self.replay)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def replay(
        self,
        graph,
        paths,
        core,
        engine_config=None,
        heuristic_config=None,
        kshell=None,
        siblings=None,
    ):
        """``pipeline.run_inference``, stage by stage, with a span per stage.

        Mirrors the pipeline's stage order: copy, partition, phase 1,
        phase 2, finalize, gap p2p, then tie-breaks when configured.
        """
        from asrel import core as core_mod
        from asrel import engine, heuristics, pipeline
        from asrel.graph import METHOD_SIBLING_DB, Classification, RelType

        args = (graph, paths, core, engine_config, heuristic_config, kshell, siblings)
        with self.span("pipeline.run_inference"):
            engine_config = engine_config or engine.InferenceConfig()
            heuristic_config = heuristic_config or heuristics.HeuristicConfig()
            with self.span("graph.copy"):
                work = graph.copy_unvoted()
            with self.span("engine.partition"):
                partition = engine.partition_paths(
                    paths, core, engine_config.max_core_hops
                )
            with self.span("engine.phase1"):
                p1 = engine.phase1(work, partition.through_core, core, engine_config)
            with self.span("engine.phase2"):
                p2 = engine.phase2(work, partition.periphery, engine_config)
            with self.span("engine.finalize"):
                classifications = engine.finalize(
                    work, engine_config, core, p1.voted_edges
                )
            with self.span("heuristics.gap"):
                gap = heuristics.infer_gap_p2p(partition.periphery, classifications)
            classifications.update(gap)
            tiebreaks = {}
            if heuristic_config.tiebreak is not None:
                if heuristic_config.tiebreak == "kshell" and kshell is None:
                    kshell = core_mod.k_shell_decompose(graph)
                with self.span("heuristics.tiebreak"):
                    tiebreaks = heuristics.apply_tiebreaks(
                        work, classifications, heuristic_config, kshell
                    )
                classifications.update(tiebreaks)
            sibling_records = []
            if siblings is not None:
                sibling_records = [
                    Classification(pair, RelType.S2S, METHOD_SIBLING_DB)
                    for pair in siblings.pairs()
                ]
            result = pipeline.RunResult(
                graph=work,
                core=core,
                partition=partition,
                classifications=classifications,
                sibling_records=sibling_records,
                phase1_voted=p1.voted_edges,
                phase2_rounds=p2.rounds,
                valley_paths=p1.valley_paths,
            )
        self._record(args, result, len(gap), len(tiebreaks))
        return result

    def _record(self, args, result, gap_labels: int, tiebreak_labels: int) -> None:
        """Keep one replayed call's counts, and its arguments and result if
        it is one that :meth:`verify_replay` checks: the first call and, if
        a later call has more phase-2 rounds, the one with the most. Other
        results are dropped so the traced job holds no more memory than the
        untraced one."""
        part = result.partition
        self.calls.append(
            {
                "partition": (part.through_core, part.periphery, len(part.invalid)),
                "phase2_rounds": result.phase2_rounds,
                "valley_paths": result.valley_paths,
                "gap_labels": gap_labels,
                "tiebreak_labels": tiebreak_labels,
            }
        )
        if len(self.calls) == 1:
            self._checked["first"] = (args, result)
        elif result.phase2_rounds > max(r.phase2_rounds for _, r in self._checked.values()):
            self._checked["most_rounds"] = (args, result)

    def verify_replay(self) -> list[str]:
        """Re-run the real ``run_inference`` on the kept calls and report
        any difference from the replay."""
        if not self._checked:
            return ["no run_inference call was traced"]
        problems = []
        for which, (args, replayed) in self._checked.items():
            real = self._run_inference(*args)
            if (
                real.classifications != replayed.classifications
                or real.sibling_records != replayed.sibling_records
                or real.phase2_rounds != replayed.phase2_rounds
                or real.valley_paths != replayed.valley_paths
            ):
                problems.append(
                    f"replayed run_inference ({which} call) differs from run_inference"
                )
        return problems

    def engine_counts(self) -> tuple[dict[str, float], list[dict]]:
        """Engine and heuristic counts over all replayed calls, and the
        periphery share and phase-2 rounds of each call (sweep cell)."""
        counts: Counter = Counter()
        cells = []
        for call in self.calls:
            through_core, periphery, invalid = call["partition"]
            total = len(through_core) + len(periphery) + invalid
            rounds = call["phase2_rounds"]
            counts["engine.paths_through_core"] += len(through_core)
            counts["engine.paths_periphery"] += len(periphery)
            counts["engine.paths_invalid"] += invalid
            counts["engine.valley_paths"] += call["valley_paths"]
            counts["engine.phase2_rounds"] += rounds
            # Phase 2 stops at the first round that casts no vote, so every
            # round before the last one voted.
            counts["engine.phase2_useful_rounds"] += max(rounds - 1, 0)
            counts["engine.phase1_hops"] += sum(len(p.hops) - 1 for p in through_core)
            counts["engine.phase2_hops"] += rounds * sum(len(p.hops) - 1 for p in periphery)
            counts["heuristics.gap_labels"] += call["gap_labels"]
            counts["heuristics.tiebreak_labels"] += call["tiebreak_labels"]
            cells.append(
                {
                    "periphery_share": len(periphery) / total if total else 0.0,
                    "phase2_rounds": rounds,
                }
            )
        total = (
            counts["engine.paths_through_core"]
            + counts["engine.paths_periphery"]
            + counts["engine.paths_invalid"]
        )
        rounds = counts["engine.phase2_rounds"]
        periphery = counts["engine.paths_periphery"]
        counts["engine.periphery_share"] = periphery / total if total else 0.0
        counts["engine.phase2_useful_ratio"] = (
            counts["engine.phase2_useful_rounds"] / rounds if rounds else 0.0
        )
        return dict(counts), cells

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run_id": self.run_id}
            for name, start, end, parent in self.spans
        ]


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Total time per span name (``<name>_s``) and self time per layer
    (``<layer>.self_s``), plus the pipeline spans' own self times.

    A span's self time is its duration minus its direct children's; spans
    run one at a time, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        own = duration - child_time[i]
        layer = name.split(".", 1)[0]
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + duration
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        if layer == "pipeline":
            out[f"{name}_self_s"] = out.get(f"{name}_self_s", 0.0) + own
    return out
