"""Command line interface.

Subcommands: ``infer`` runs the full pipeline and writes classification
and metric files, ``build-core`` constructs and saves a core, and
``experiment`` drives the robustness studies (core-sweep, corruption,
window-stability).

Exit codes: 0 success, otherwise the ``exit_code`` of the error raised: 1
input error, 2 configuration error, 3 requested construction infeasible
(for example an empty core). See :mod:`asrel.errors`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence, TextIO

from .core import (
    CoreGraph,
    greedy_max_clique,
    grow_core,
    k_max_core,
    load_external_core,
    read_core_file,
    write_core_file,
)
from .engine import InferenceConfig
from .errors import AsrelError, ConfigurationError, ParseError
from .graph import AsGraph, Corpus, compile_corpus
from .heuristics import HeuristicConfig
from .ingest import IngestReport, SiblingSet, build_graph, load_corpus, load_sibling_pairs
from .metrics import (
    ReferenceSet,
    load_reference,
    stability,
    write_classifications_csv,
    write_histogram_csv,
    write_metrics_csv,
)
from .pipeline import core_size_sweep, corruption_sweep, run_inference, summarize

CORE_METHODS = ("clique", "kcore", "external", "grow")


def _add_corpus_flags(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    flag = lambda name: f"--{name}{suffix}"
    parser.add_argument(
        flag("paths-bgp"), action="extend", nargs="+", default=[], metavar="FILE",
        help="BGP path file(s): space separated AS numbers per line",
    )
    parser.add_argument(
        flag("paths-trace"), action="extend", nargs="+", default=[], metavar="FILE",
        help="traceroute path file(s): agent_id| prefix before the AS numbers",
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    _add_corpus_flags(parser)
    parser.add_argument("--siblings", metavar="FILE", help="sibling AS pairs")
    parser.add_argument("--core", metavar="FILE", help="use a prebuilt core file")
    parser.add_argument(
        "--core-method", choices=CORE_METHODS,
        help="construct the core from the ingested graph",
    )
    parser.add_argument(
        "--core-size", type=int, metavar="N",
        help="target size for --core-method grow",
    )
    parser.add_argument(
        "--grow-strategy", choices=("degree", "kshell"), default="degree",
        help="vertex ranking used by --core-method grow (default degree)",
    )
    parser.add_argument(
        "--peer-edges", metavar="FILE",
        help="external peer edge list for --core-method external",
    )
    parser.add_argument("--threshold", type=float, default=0.8, metavar="F")
    parser.add_argument("--max-core-hops", type=int, default=3, metavar="N")
    parser.add_argument(
        "--tiebreak", choices=("degree", "kshell"),
        help="classify leftover edges by structural rank (off by default)",
    )
    parser.add_argument(
        "--phase2-anchor", choices=("threshold", "plurality"), default="threshold",
        help="how propagation decides an edge already has a winner",
    )
    parser.add_argument("--reference", metavar="FILE", help="labels to compare against")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--out", metavar="DIR", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asrel",
        description="Infer commercial relationships between ASes from path corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="run inference over a path corpus")
    _add_common_flags(p_infer)
    p_infer.set_defaults(func=cmd_infer)

    p_core = sub.add_parser("build-core", help="construct a core and save it")
    _add_common_flags(p_core)
    p_core.set_defaults(func=cmd_build_core)

    p_exp = sub.add_parser("experiment", help="robustness experiments")
    p_exp.add_argument(
        "kind", choices=("core-sweep", "corruption", "window-stability")
    )
    _add_common_flags(p_exp)
    _add_corpus_flags(p_exp, suffix="-b")
    p_exp.add_argument(
        "--sweep-sizes", default="", metavar="SPEC",
        help="core sizes: comma list (4,8,12) or range lo:hi[:step]",
    )
    p_exp.add_argument(
        "--fractions", default="0,0.5,1.0", metavar="LIST",
        help="corruption fractions of the core to replace",
    )
    p_exp.add_argument(
        "--corruption-seeds", type=int, default=5, metavar="N",
        help="number of seeds per corruption fraction",
    )
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def _manifest(args: argparse.Namespace) -> dict[str, object]:
    skip = {"func"}
    out: dict[str, object] = {}
    for name, value in sorted(vars(args).items()):
        if name in skip:
            continue
        out[name] = value
    return out


@contextmanager
def _reading(*names: str) -> Iterator[list[tuple[str, Iterator[str]]]]:
    """Open every named file, then yield one (name, lines) pair per file.

    All files are open before any line is read, so a missing or unreadable
    file is reported before a malformed line of another. Lines are read as
    they are consumed; bytes that are not UTF-8 end the read with a
    ParseError naming the file.
    """
    with ExitStack() as stack:
        streams = []
        for name in names:
            try:
                handle = stack.enter_context(open(name, "r", encoding="utf-8"))
            except OSError as exc:
                raise ParseError(f"cannot read {name}: {exc.strerror}") from None
            streams.append((name, _lines(name, handle)))
        yield streams


def _lines(name: str, handle: TextIO) -> Iterator[str]:
    try:
        yield from handle
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {name}: not UTF-8 text") from None


def _load_graph(
    args, suffix: str = ""
) -> tuple[SiblingSet | None, Corpus, IngestReport, AsGraph]:
    """Siblings, cleaned paths compiled against the graph, ingest report
    and graph of one corpus.

    ``suffix`` selects the corpus flags: "" for the main corpus, "_b" for
    the second window of window-stability.
    """
    siblings = None
    if args.siblings:
        with _reading(args.siblings) as [(name, lines)]:
            siblings = load_sibling_pairs(lines, name)
    bgp_files = getattr(args, f"paths_bgp{suffix}")
    trace_files = getattr(args, f"paths_trace{suffix}")
    with _reading(*bgp_files, *trace_files) as streams:
        n_bgp = len(bgp_files)
        paths, report = load_corpus(streams[:n_bgp], streams[n_bgp:], siblings)
    if not paths:
        raise ParseError("no usable paths in the input corpus")
    graph = build_graph(paths)
    return siblings, compile_corpus(graph, paths), report, graph


def _build_core(args, graph: AsGraph) -> CoreGraph:
    if args.core and args.core_method:
        raise ConfigurationError("--core and --core-method are mutually exclusive")
    if args.core:
        with _reading(args.core) as [(name, lines)]:
            return read_core_file(lines, graph, name)
    method = args.core_method
    if method is None:
        raise ConfigurationError("one of --core or --core-method is required")
    if method == "clique":
        return greedy_max_clique(graph)
    if method == "kcore":
        return k_max_core(graph)
    if method == "external":
        if not args.peer_edges:
            raise ConfigurationError("--core-method external needs --peer-edges")
        with _reading(args.peer_edges) as [(name, lines)]:
            return load_external_core(lines, graph, name)
    if args.core_size is None:
        raise ConfigurationError("--core-method grow needs --core-size")
    return grow_core(graph, args.grow_strategy, args.core_size)


def _configs(args) -> tuple[InferenceConfig, HeuristicConfig]:
    engine = InferenceConfig(
        threshold=args.threshold,
        max_core_hops=args.max_core_hops,
        phase2_anchor=args.phase2_anchor,
    )
    heuristics = HeuristicConfig(tiebreak=args.tiebreak)
    return engine, heuristics


def _load_reference(args, siblings) -> ReferenceSet | None:
    if not args.reference:
        return None
    with _reading(args.reference) as [(name, lines)]:
        return load_reference(lines, siblings, name)


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_window(args, suffix: str = ""):
    siblings, paths, report, graph = _load_graph(args, suffix)
    core = _build_core(args, graph)
    engine_config, heuristic_config = _configs(args)
    result = run_inference(
        graph, paths, core, engine_config, heuristic_config, siblings=siblings
    )
    return result, report, siblings


def cmd_infer(args) -> int:
    out = _ensure_out(args)
    result, report, siblings = _run_window(args)
    reference = _load_reference(args, siblings)
    metrics = summarize(result, reference)

    with open(os.path.join(out, "classifications.csv"), "w", encoding="utf-8") as fh:
        write_classifications_csv(result.all_records(), fh)
    with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as fh:
        write_metrics_csv([metrics.row()], fh)
    with open(os.path.join(out, "histogram.csv"), "w", encoding="utf-8") as fh:
        write_histogram_csv(metrics.histogram, fh)
    _write_json(report.as_dict(), os.path.join(out, "ingest_report.json"))
    _write_json(_manifest(args), os.path.join(out, "manifest.json"))

    print(
        f"classified {metrics.pct_classified:.1f}% of {metrics.edges} edges "
        f"({metrics.pct_deterministic:.1f}% deterministic), "
        f"{metrics.pct_invalid_paths:.2f}% invalid paths"
    )
    return 0


def cmd_build_core(args) -> int:
    out = _ensure_out(args)
    _siblings, _paths, _report, graph = _load_graph(args)
    core = _build_core(args, graph)

    core_path = os.path.join(out, "core.txt")
    with open(core_path, "w", encoding="utf-8") as fh:
        write_core_file(core, fh)
    _write_json(_manifest(args), os.path.join(out, "manifest.json"))

    print(
        f"core vertices={core.n_vertices} edges={core.n_edges} "
        f"density={core.density():.4f}"
    )
    return 0


def _parse_sizes(spec: str) -> list[int]:
    spec = spec.strip()
    if not spec:
        raise ConfigurationError("core-sweep needs --sweep-sizes")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(f"bad --sweep-sizes {spec!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ConfigurationError(f"bad --sweep-sizes {spec!r}") from None
        if step < 1 or hi < lo:
            raise ConfigurationError(f"bad --sweep-sizes {spec!r}")
        return list(range(lo, hi + 1, step))
    try:
        sizes = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"bad --sweep-sizes {spec!r}") from None
    if not sizes:
        raise ConfigurationError(f"--sweep-sizes {spec!r} names no size")
    return sizes


def _parse_fractions(spec: str) -> list[float]:
    try:
        fractions = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"bad --fractions {spec!r}") from None
    if not fractions or any(not 0.0 <= f <= 1.0 for f in fractions):
        raise ConfigurationError(f"fractions must lie in [0, 1], got {spec!r}")
    return fractions


def cmd_experiment(args) -> int:
    out = _ensure_out(args)
    rows: list[dict[str, object]]

    if args.kind == "window-stability":
        result_a, _, siblings = _run_window(args)
        if not (args.paths_bgp_b or args.paths_trace_b):
            raise ConfigurationError(
                "window-stability needs --paths-bgp-b or --paths-trace-b"
            )
        result_b, _, _ = _run_window(args, suffix="_b")
        value, shared = stability(result_a.all_records(), result_b.all_records())
        rows = [
            {
                "stability": "" if value is None else round(value, 6),
                "shared_edges": shared,
                "edges_a": result_a.graph.n_edges,
                "edges_b": result_b.graph.n_edges,
            }
        ]
    else:
        siblings, paths, _report, graph = _load_graph(args)
        engine_config, heuristic_config = _configs(args)
        reference = _load_reference(args, siblings)
        if args.kind == "core-sweep":
            sizes = _parse_sizes(args.sweep_sizes)
            rows = core_size_sweep(
                graph, paths, args.grow_strategy, sizes,
                engine_config, heuristic_config, reference,
            )
        else:
            core = _build_core(args, graph)
            fractions = _parse_fractions(args.fractions)
            if args.corruption_seeds < 1:
                raise ConfigurationError("--corruption-seeds must be >= 1")
            seeds = [args.seed + i for i in range(args.corruption_seeds)]
            rows = corruption_sweep(
                graph, paths, core, fractions, seeds,
                engine_config, heuristic_config, reference,
            )

    with open(os.path.join(out, "experiment.csv"), "w", encoding="utf-8") as fh:
        write_metrics_csv(rows, fh)
    _write_json(_manifest(args), os.path.join(out, "manifest.json"))
    print(f"wrote {len(rows)} rows to {os.path.join(out, 'experiment.csv')}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AsrelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
