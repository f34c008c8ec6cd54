"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: ``python3 job.py SPEC.json RESULT.json MODE`` where MODE is
``plain`` (untraced), ``traced`` or ``probe`` (set-up only: the import of
``asrel.cli``, or the sweep's corpus loading). The spec names the input
files and what to run; the result file receives the timings, peak RSS and,
for traced jobs, the spans, counts, the replay check and its duration.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_source(module) -> None:
    if SRC not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"asrel imported from {module.__file__}, not from {SRC}")


def _sweep_setup(spec):
    """Load the corpus, graph, core and reference the sweeps share."""
    from asrel import core, ingest, metrics

    with open(spec["trace"], encoding="utf-8") as fh:
        paths, _report = ingest.load_corpus((), [(spec["trace"], fh)])
    graph = ingest.build_graph(paths)
    with open(spec["core"], encoding="utf-8") as fh:
        core_graph = core.read_core_file(fh, graph, spec["core"])
    with open(spec["reference"], encoding="utf-8") as fh:
        reference = metrics.load_reference(fh, None, spec["reference"])
    return paths, graph, core_graph, reference


def run_cli(spec, tracer) -> dict:
    t0 = time.perf_counter()
    import asrel.cli

    t1 = time.perf_counter()
    _check_source(asrel.cli)
    if tracer is not None:
        tracer.install()
    t2 = time.perf_counter()
    code = asrel.cli.main(spec["argv"])
    t3 = time.perf_counter()
    return {
        "exit_code": code,
        "setup_s": [t1 - t0],
        "job_s": t3 - t0,
        "main_s": t3 - t2,
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_sweep(spec, tracer) -> dict:
    t0 = time.perf_counter()
    from asrel import metrics, pipeline

    _check_source(pipeline)
    if tracer is not None:
        tracer.install()
    t1 = time.perf_counter()
    paths, graph, core_graph, reference = _sweep_setup(spec)
    t2 = time.perf_counter()
    rows = pipeline.corruption_sweep(
        graph, paths, core_graph, spec["fractions"], spec["seeds"],
        reference=reference,
    )
    rows += pipeline.core_size_sweep(
        graph, paths, spec["strategy"], spec["sizes"], reference=reference
    )
    with open(Path(spec["out"]) / "experiment.csv", "w", encoding="utf-8") as fh:
        metrics.write_metrics_csv(rows, fh)
    t3 = time.perf_counter()
    return {
        "exit_code": 0,
        "setup_s": [t2 - t1],
        "job_s": t3 - t0,
        "cells": len(rows),
        "peak_rss_mb": _peak_rss_mb(),
    }


def probe(spec) -> dict:
    """Set-up only: what a job pays before its first inference."""
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        import asrel.cli as module
    else:
        from asrel import pipeline as module
        t0 = time.perf_counter()
        _sweep_setup(spec)
    result = {"setup_s": [time.perf_counter() - t0]}
    _check_source(module)
    return result


def main(argv) -> int:
    spec_path, result_path, mode = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "probe":
        result = probe(spec)
    else:
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer(spec["run_id"])
        runner = run_cli if spec["kind"] == "cli" else run_sweep
        result = runner(spec, tracer)
        if tracer is not None:
            tracer.uninstall()
            counts, cells = tracer.engine_counts()
            counts.update(tracer.counts)
            t0 = time.perf_counter()
            result["replay_problems"] = tracer.verify_replay()
            # The replay check is not tracing cost; run.py subtracts it.
            result["verify_s"] = time.perf_counter() - t0
            result["spans"] = tracer.span_records()
            result["counts"] = counts
            result["cells_detail"] = cells
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
