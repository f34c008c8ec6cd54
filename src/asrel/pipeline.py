"""End-to-end orchestration: one entry point for a full inference run.

The command line layer and the experiment sweeps both go through
run_inference so that every run applies the same stages in the same
order: partition, core-relative voting, periphery propagation,
thresholding, then heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import CoreGraph, check_core_size, corrupt_core, grow_core, k_shell_decompose
from .engine import (
    InferenceConfig,
    PathPartition,
    finalize,
    partition_paths,
    phase1,
    phase2,
)
from .graph import (
    METHOD_SIBLING_DB,
    AsGraph,
    AsPath,
    Classification,
    EdgeKey,
    RelType,
    compile_corpus,
)
from .heuristics import TIEBREAK_KSHELL, HeuristicConfig, apply_tiebreaks, infer_gap_p2p
from .ingest import SiblingSet
from .metrics import ReferenceSet, RunMetrics, compare, summarize_classifications


@dataclass
class RunResult:
    """Everything a single inference run produced."""

    graph: AsGraph
    core: CoreGraph
    partition: PathPartition
    classifications: dict[EdgeKey, Classification]
    sibling_records: list[Classification] = field(default_factory=list)
    phase1_voted: set[EdgeKey] = field(default_factory=set)
    phase2_rounds: int = 0
    valley_paths: int = 0

    def all_records(self) -> list[Classification]:
        """Edge classifications plus sibling records, in stable order."""
        records = [self.classifications[key] for key in sorted(self.classifications)]
        records.extend(self.sibling_records)
        return records


def run_inference(
    graph: AsGraph,
    paths: Iterable[AsPath],
    core: CoreGraph,
    engine_config: InferenceConfig | None = None,
    heuristic_config: HeuristicConfig | None = None,
    kshell: dict[int, int] | None = None,
    siblings: SiblingSet | None = None,
) -> RunResult:
    """Run the full pipeline without mutating the input graph.

    Votes accumulate on a copy with its own counters, so repeated runs over
    the same graph (as in the sweeps) stay independent. paths are compiled
    by compile_corpus, which reuses a Corpus compiled against graph and the
    corpus build_graph compiled from the same path list. The k-shell
    tie-break ranks by kshell when it is given, else by the graph's index.
    """
    engine_config = engine_config or InferenceConfig()
    heuristic_config = heuristic_config or HeuristicConfig()
    if kshell is None and heuristic_config.tiebreak == TIEBREAK_KSHELL:
        kshell = k_shell_decompose(graph)

    paths = compile_corpus(graph, paths)
    work = graph.copy_unvoted()
    partition = partition_paths(paths, core, engine_config.max_core_hops)
    p1 = phase1(work, partition.through_core, core, engine_config)
    p2 = phase2(work, partition.periphery, engine_config)
    classifications = finalize(work, engine_config, core, p1.voted_edges)

    classifications.update(infer_gap_p2p(partition.periphery, classifications))

    if heuristic_config.tiebreak is not None:
        classifications.update(
            apply_tiebreaks(work, classifications, heuristic_config, kshell)
        )

    sibling_records = []
    if siblings is not None:
        for pair in siblings.pairs():
            sibling_records.append(
                Classification(pair, RelType.S2S, METHOD_SIBLING_DB)
            )

    return RunResult(
        graph=work,
        core=core,
        partition=partition,
        classifications=classifications,
        sibling_records=sibling_records,
        phase1_voted=p1.voted_edges,
        phase2_rounds=p2.rounds,
        valley_paths=p1.valley_paths,
    )


def summarize(result: RunResult, reference: ReferenceSet | None = None) -> RunMetrics:
    """The run's metrics. Declared sibling pairs are not edges: they count
    only under their own method, and the edge metrics see only the edge
    records."""
    records = result.classifications.values()
    edges, counts, pct_classified, pct_deterministic, pct_heuristic = (
        summarize_classifications(records)
    )
    if result.sibling_records:
        counts[METHOD_SIBLING_DB] = len(result.sibling_records)
    partition = result.partition
    through_core = partition.through_core.weight
    invalid = partition.invalid.weight
    total_paths = through_core + partition.periphery.weight + invalid
    metrics = RunMetrics(
        edges=edges,
        paths_total=total_paths,
        pct_classified=pct_classified,
        pct_deterministic=pct_deterministic,
        pct_heuristic=pct_heuristic,
        method_counts=counts,
    )
    if total_paths:
        metrics.pct_through_core = 100.0 * through_core / total_paths
        metrics.pct_invalid_paths = (
            100.0 * (invalid + result.valley_paths) / total_paths
        )
    if reference is not None:
        cmp = compare(records, reference)
        metrics.pct_match_reference_overall = cmp.pct_match_overall
        metrics.pct_match_reference_both = cmp.pct_match_both
    return metrics


def corruption_sweep(
    graph: AsGraph,
    paths: Iterable[AsPath],
    core: CoreGraph,
    fractions: Sequence[float],
    seeds: Sequence[int],
    engine_config: InferenceConfig | None = None,
    heuristic_config: HeuristicConfig | None = None,
    reference: ReferenceSet | None = None,
) -> list[dict[str, object]]:
    """Re-run inference with progressively randomized cores.

    Each row holds one (fraction, seed) cell. A fraction that replaces no
    vertex gives the same core for every seed, so it runs once, for the
    first seed, and its row equals the uncorrupted run; the other seeds get
    a copy.
    """
    paths = compile_corpus(graph, paths)
    rows: list[dict[str, object]] = []
    for fraction in fractions:
        replace = round(fraction * len(core.vertices))
        row: dict[str, object] | None = None
        for seed in seeds:
            if row is not None and replace == 0:
                row = {**row, "seed": seed}
            else:
                corrupted = corrupt_core(core, graph, replace, seed)
                result = run_inference(
                    graph, paths, corrupted, engine_config, heuristic_config
                )
                row = {"fraction": fraction, "seed": seed, "replaced": replace}
                row.update(summarize(result, reference).row())
            rows.append(row)
    return rows


def core_size_sweep(
    graph: AsGraph,
    paths: Iterable[AsPath],
    strategy: str,
    sizes: Sequence[int],
    engine_config: InferenceConfig | None = None,
    heuristic_config: HeuristicConfig | None = None,
    reference: ReferenceSet | None = None,
) -> list[dict[str, object]]:
    """Grow cores of increasing size and record how the run responds.

    Every size is checked before any cell runs. The check stops at the
    first bad size, so a range climbing past the graph costs at most
    graph.n_vertices steps, whatever its end.
    """
    for size in sizes:
        check_core_size(graph, size)
    paths = compile_corpus(graph, paths)
    rows: list[dict[str, object]] = []
    for size in sizes:
        core = grow_core(graph, strategy, size)
        result = run_inference(graph, paths, core, engine_config, heuristic_config)
        metrics = summarize(result, reference)
        row: dict[str, object] = {
            "size": size,
            "strategy": strategy,
            "core_vertices": core.n_vertices,
            "core_edges": core.n_edges,
        }
        row.update(metrics.row())
        rows.append(row)
    return rows
