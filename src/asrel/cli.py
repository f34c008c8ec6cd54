"""Command line interface.

Subcommands: ``infer`` runs the full pipeline and writes classification
and metric files, ``build-core`` constructs and saves a core, and
``experiment`` drives the robustness studies (core-sweep, corruption,
window-stability).

Exit codes: 0 success, otherwise the ``exit_code`` of the error raised: 1
input error, 2 configuration error, 3 requested construction infeasible
(for example an empty core). See :mod:`asrel.errors`. A run whose standard
output is closed before the summary line is printed exits 1, and one
interrupted by Ctrl-C exits 130. Every command checks its flags before it
opens an input file, so a bad flag exits 2 even when an input is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import asdict
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
from .graph import AsGraph
from .heuristics import HeuristicConfig
from .ingest import IngestReport, SiblingSet, build_graph, load_corpus, load_sibling_pairs
from .metrics import (
    ReferenceSet,
    load_reference,
    stability,
    vote_share_histogram,
    write_classifications_csv,
    write_histogram_csv,
    write_metrics_csv,
)
from .pipeline import core_size_sweep, corruption_sweep, run_inference, summarize

CORE_METHODS = ("clique", "kcore", "external", "grow")

_PATH_FILES = dict(action="extend", nargs="+", default=[], metavar="FILE")

# Every flag, by name. A subcommand adds only the flags it reads, so a flag
# it would ignore is an argparse error (exit 2) instead of a silent no-op.
FLAGS: dict[str, dict] = {
    "--paths-bgp": dict(
        _PATH_FILES, help="BGP path file(s): space separated AS numbers per line"
    ),
    "--paths-trace": dict(
        _PATH_FILES,
        help="traceroute path file(s): agent_id| prefix before the AS numbers",
    ),
    "--siblings": dict(metavar="FILE", help="sibling AS pairs"),
    "--core": dict(metavar="FILE", help="use a prebuilt core file"),
    "--core-method": dict(
        choices=CORE_METHODS, help="construct the core from the ingested graph"
    ),
    "--core-size": dict(type=int, metavar="N", help="target size for --core-method grow"),
    "--grow-strategy": dict(
        choices=("degree", "kshell"), default="degree",
        help="vertex ranking used to grow a core (default degree)",
    ),
    "--peer-edges": dict(
        metavar="FILE", help="external peer edge list for --core-method external"
    ),
    "--threshold": dict(type=float, default=InferenceConfig.threshold, metavar="F"),
    "--max-core-hops": dict(type=int, default=InferenceConfig.max_core_hops, metavar="N"),
    "--tiebreak": dict(
        choices=("degree", "kshell"),
        help="classify leftover edges by structural rank (off by default)",
    ),
    "--reference": dict(metavar="FILE", help="labels to compare against"),
    "--seed": dict(type=int, default=0, metavar="N", help="first corruption seed"),
    "--sweep-sizes": dict(
        default="", metavar="SPEC",
        help="core sizes: comma list (4,8,12) or range lo:hi[:step]",
    ),
    "--fractions": dict(
        default="0,0.5,1.0", metavar="LIST",
        help="corruption fractions of the core to replace",
    ),
    "--corruption-seeds": dict(
        type=int, default=5, metavar="N", help="number of seeds per corruption fraction"
    ),
    "--out": dict(metavar="DIR", required=True, help="output directory"),
}
CORPUS = ("--paths-bgp", "--paths-trace")
FLAGS.update({f"{flag}-b": FLAGS[flag] for flag in CORPUS})
CORE = ("--core", "--core-method", "--core-size", "--grow-strategy", "--peer-edges")
INFERENCE = ("--threshold", "--max-core-hops", "--tiebreak")


def _add_command(subparsers, name: str, help_text: str, func, flags) -> None:
    parser = subparsers.add_parser(name, help=help_text)
    for flag in (*flags, "--out"):
        parser.add_argument(flag, **FLAGS[flag])
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asrel",
        description="Infer commercial relationships between ASes from path corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(
        sub, "infer", "run inference over a path corpus", cmd_infer,
        (*CORPUS, "--siblings", *CORE, *INFERENCE, "--reference"),
    )
    _add_command(
        sub, "build-core", "construct a core and save it", cmd_build_core,
        (*CORPUS, "--siblings", *CORE),
    )
    kinds = sub.add_parser("experiment", help="robustness experiments").add_subparsers(
        dest="kind", required=True
    )
    _add_command(
        kinds, "core-sweep", "grow cores of several sizes", cmd_core_sweep,
        (*CORPUS, "--siblings", "--grow-strategy", *INFERENCE, "--reference",
         "--sweep-sizes"),
    )
    _add_command(
        kinds, "corruption", "replace part of the core at random", cmd_corruption,
        (*CORPUS, "--siblings", *CORE, *INFERENCE, "--reference", "--seed",
         "--fractions", "--corruption-seeds"),
    )
    _add_command(
        kinds, "window-stability", "compare the labels of two corpora",
        cmd_window_stability,
        (*CORPUS, "--paths-bgp-b", "--paths-trace-b", "--siblings", *CORE, *INFERENCE),
    )
    return parser


@contextmanager
def _reading(*names: str) -> Iterator[list[tuple[str, TextIO]]]:
    """Open every named file, then yield one (name, handle) pair per file.

    All files are open before any line is read, so a missing or unreadable
    file is reported before a fault in the lines of another, which the
    readers in ingest report as they decode and parse them.
    """
    with ExitStack() as stack:
        streams = []
        for name in names:
            try:
                streams.append((name, stack.enter_context(open(name, encoding="utf-8"))))
            except OSError as exc:
                raise ParseError(exc.strerror, name) from None
        yield streams


def _load_graph(
    args, suffix: str = ""
) -> tuple[SiblingSet | None, IngestReport, AsGraph]:
    """Siblings, ingest report and graph of one corpus; the graph keeps the
    cleaned paths, compiled, as graph.corpus.

    ``suffix`` selects the corpus flags: "" for the main corpus, "_b" for
    the second window of window-stability.
    """
    siblings = None
    if args.siblings:
        with _reading(args.siblings) as [(name, handle)]:
            siblings = load_sibling_pairs(handle, name)
    bgp_files = getattr(args, f"paths_bgp{suffix}")
    trace_files = getattr(args, f"paths_trace{suffix}")
    with _reading(*bgp_files, *trace_files) as streams:
        n_bgp = len(bgp_files)
        paths, report = load_corpus(streams[:n_bgp], streams[n_bgp:], siblings)
    if not paths:
        raise ParseError("no usable paths in the input corpus")
    return siblings, report, build_graph(paths)


def _core_source(args) -> str:
    """"file" for --core, else the --core method; ConfigurationError unless
    exactly one source is named and every core flag given is one it reads."""
    if args.core and args.core_method:
        raise ConfigurationError("--core and --core-method are mutually exclusive")
    source = "file" if args.core else args.core_method
    if source is None:
        raise ConfigurationError("one of --core or --core-method is required")
    if args.core_size is not None and source != "grow":
        raise ConfigurationError("--core-size needs --core-method grow")
    if args.peer_edges and source != "external":
        raise ConfigurationError("--peer-edges needs --core-method external")
    if source == "external" and not args.peer_edges:
        raise ConfigurationError("--core-method external needs --peer-edges")
    if source == "grow" and args.core_size is None:
        raise ConfigurationError("--core-method grow needs --core-size")
    return source


def _build_core(args, source: str, graph: AsGraph, siblings) -> CoreGraph:
    """The core that source names, its files read through the sibling merge."""
    if source == "file":
        with _reading(args.core) as [(name, handle)]:
            return read_core_file(handle, graph, name, siblings)
    if source == "clique":
        return greedy_max_clique(graph)
    if source == "kcore":
        return k_max_core(graph)
    if source == "external":
        with _reading(args.peer_edges) as [(name, handle)]:
            return load_external_core(handle, graph, name, siblings)
    return grow_core(graph, args.grow_strategy, args.core_size)


def _configs(args) -> tuple[InferenceConfig, HeuristicConfig]:
    engine = InferenceConfig(args.threshold, args.max_core_hops)
    return engine, HeuristicConfig(tiebreak=args.tiebreak)


def _load_reference(args, siblings) -> ReferenceSet | None:
    if not args.reference:
        return None
    with _reading(args.reference) as [(name, handle)]:
        return load_reference(handle, siblings, name)


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_window(args, source: str, configs, suffix: str = ""):
    siblings, report, graph = _load_graph(args, suffix)
    core = _build_core(args, source, graph, siblings)
    result = run_inference(graph, graph.corpus, core, *configs, siblings=siblings)
    return result, report, siblings


def cmd_infer(args) -> str:
    configs = _configs(args)
    result, report, siblings = _run_window(args, _core_source(args), configs)
    metrics = summarize(result, _load_reference(args, siblings))

    out = args.out
    with open(os.path.join(out, "classifications.csv"), "w", encoding="utf-8") as fh:
        write_classifications_csv(
            result.classifications, result.sibling_records, result.graph, fh
        )
    with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as fh:
        write_metrics_csv([metrics.row()], fh)
    with open(os.path.join(out, "histogram.csv"), "w", encoding="utf-8") as fh:
        write_histogram_csv(vote_share_histogram(result.graph), fh)
    _write_json(asdict(report), os.path.join(out, "ingest_report.json"))
    return (
        f"classified {metrics.pct_classified:.1f}% of {metrics.edges} edges "
        f"({metrics.pct_deterministic:.1f}% deterministic), "
        f"{metrics.pct_invalid_paths:.2f}% invalid paths"
    )


def cmd_build_core(args) -> str:
    source = _core_source(args)
    siblings, _report, graph = _load_graph(args)
    core = _build_core(args, source, graph, siblings)

    with open(os.path.join(args.out, "core.txt"), "w", encoding="utf-8") as fh:
        write_core_file(core, fh)
    return (
        f"core vertices={core.n_vertices} edges={core.n_edges} "
        f"density={core.density():.4f}"
    )


def _parse_sizes(spec: str) -> Sequence[int]:
    """The sizes of a comma list, or the range lo:hi[:step] itself, so that
    a huge hi allocates nothing before core_size_sweep checks the sizes."""
    spec = spec.strip()
    if not spec:
        raise ConfigurationError("core-sweep needs --sweep-sizes")
    try:
        if ":" in spec:
            lo, hi, *rest = map(int, spec.split(":"))
            [step] = rest or [1]
            if step < 1 or hi < lo:
                raise ValueError(spec)
            return range(lo, hi + 1, step)
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


def _write_experiment(args, rows: list[dict[str, object]]) -> str:
    path = os.path.join(args.out, "experiment.csv")
    with open(path, "w", encoding="utf-8") as fh:
        write_metrics_csv(rows, fh)
    return f"wrote {len(rows)} rows to {path}"


def cmd_core_sweep(args) -> str:
    engine_config, heuristic_config = _configs(args)
    sizes = _parse_sizes(args.sweep_sizes)
    siblings, _report, graph = _load_graph(args)
    reference = _load_reference(args, siblings)
    rows = core_size_sweep(
        graph, graph.corpus, args.grow_strategy, sizes,
        engine_config, heuristic_config, reference,
    )
    return _write_experiment(args, rows)


def cmd_corruption(args) -> str:
    engine_config, heuristic_config = _configs(args)
    source = _core_source(args)
    fractions = _parse_fractions(args.fractions)
    if args.corruption_seeds < 1:
        raise ConfigurationError("--corruption-seeds must be >= 1")
    siblings, _report, graph = _load_graph(args)
    reference = _load_reference(args, siblings)
    core = _build_core(args, source, graph, siblings)
    rows = corruption_sweep(
        graph, graph.corpus, core, fractions,
        range(args.seed, args.seed + args.corruption_seeds),
        engine_config, heuristic_config, reference,
    )
    return _write_experiment(args, rows)


def cmd_window_stability(args) -> str:
    if not (args.paths_bgp_b or args.paths_trace_b):
        raise ConfigurationError("window-stability needs --paths-bgp-b or --paths-trace-b")
    configs, source = _configs(args), _core_source(args)
    result_a, _, _ = _run_window(args, source, configs)
    result_b, _, _ = _run_window(args, source, configs, suffix="_b")
    value, shared = stability(result_a.classifications, result_b.classifications)
    row = {
        "stability": "" if value is None else round(value, 6),
        "shared_edges": shared,
        "edges_a": result_a.graph.n_edges,
        "edges_b": result_b.graph.n_edges,
    }
    return _write_experiment(args, [row])


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand. It writes its files under --out and returns a
    summary line; main adds manifest.json, then prints the line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        summary = args.func(args)
        manifest = {name: value for name, value in vars(args).items() if name != "func"}
        _write_json(manifest, os.path.join(args.out, "manifest.json"))
        print(summary, flush=True)
    except AsrelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Standard output was closed. Point its descriptor at devnull so
        # that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
