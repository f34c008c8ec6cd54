"""asrel benchmark: ``asrel infer`` on a RIB corpus and a robustness sweep.

Usage, from the repository root:

    python3 perfbench/run.py --workload infer-rib-M --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Workloads (inputs from ``asrel.synth``, seeded by ``--seed``, written to
files before any timing):

* ``infer-rib-M``: ``asrel.cli.main(["infer", ...])`` on the "M" topology
  (tiers 30/300/3000/20000) written as two RIB-style files, 300k lines
  drawn from about 30k distinct paths, with sibling pairs, a clique core,
  k-shell tie-breaks and a reference file. Ingest is the largest stage and
  most lines repeat, so dedupe or caching gains show here.
* ``sweep-S``: a library run on the "S" topology (tiers 10/50/300/1000,
  50k noisy traceroute paths, nearly all distinct):
  ``pipeline.corruption_sweep`` over fractions 0, 0.5 and 1.0 with 5 seeds
  each, then ``pipeline.core_size_sweep`` over k-shell core sizes. The
  engine runs 20 times; ingest only in set-up.

The loop is closed: one client, one job at a time, each job in a fresh
interpreter (``job.py``), no threads. Jobs run back to back while the next
one is expected to end within ``--seconds``; at least one always runs.
Several jobs per run average over the host's speed drift, which is the
main source of spread between runs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs an
untraced, a traced and another untraced job and prints the per-layer
metrics, whose spans wrap the calls into each asrel module (see
``tracing.py``). Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it holds the detailed record:
input properties, machine facts, output digests and every job's figures.
The record and the result are also saved under ``.perfbench/results/``.
A failed job or output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
WORK = ROOT / ".perfbench"

# Whole-run budget, under the 180 s a run may take.
RUN_BUDGET_S = 170.0
# Set-up probes per untraced run, so set-up time is a median of several.
SETUP_PROBES = {"cli": 6, "sweep": 2}


def _bench_spec() -> tuple[tuple[str, ...], dict[str, str], dict[str, str]]:
    """Workload names and the unit of each metric, from ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in bench[kind]}
             for kind in ("end_to_end", "per_layer")}
    return (tuple(w["name"] for w in bench["workloads"]),
            units["end_to_end"], units["per_layer"])


WORKLOADS, END_TO_END, PER_LAYER = _bench_spec()


def _ensure_source() -> None:
    """Import asrel from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "asrel" / "__init__.py").is_file():
        raise SystemExit(f"error: no asrel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import asrel

    if SRC not in Path(asrel.__file__).resolve().parents:
        raise SystemExit(f"error: asrel imported from {asrel.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_job(spec_path: Path, mode: str, out: Path, deadline: float) -> dict:
    """Run one job in a fresh interpreter; its wall time is measured here,
    from start to exit."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = spec_path.with_name(f"result-{mode}.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(JOB), str(spec_path), str(result_path), mode]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out"}
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.is_file():
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text())
    if result.get("exit_code", 0) != 0:
        return {"ok": False, "error": f"asrel exit {result['exit_code']}: {proc.stderr[-2000:]}"}
    result.update(ok=True, wall_s=wall)
    return result


def _check(prep, job: dict, record: dict) -> int:
    """Check a job's output; returns the number of failed cells."""
    import inputs

    if not job["ok"]:
        record["problems"].append(job["error"])
        return prep.cells
    checked = inputs.check_output(prep)
    record["problems"] += checked.problems + job.get("replay_problems", [])
    job.update(
        classified_pct=checked.classified_pct,
        match_pct=checked.match_pct,
        output_sha256=checked.output_sha256,
    )
    if job.get("replay_problems"):
        return prep.cells
    return checked.failed_cells


def end_to_end(jobs: list[dict], probes: list[float]) -> dict:
    good = [j for j in jobs if j["ok"]]
    setups = probes + [s for j in good for s in j["setup_s"]]
    cells_rate = [
        j.get("cells", 1) / (j["wall_s"] - j["setup_s"][0]) for j in good
    ]
    return {
        "wall_s": statistics.median(j["wall_s"] for j in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in good),
        "cells_per_s": statistics.median(cells_rate),
        "match_pct": statistics.median(j["match_pct"] for j in good),
        "classified_pct": statistics.median(j["classified_pct"] for j in good),
    }


def per_layer(traced: dict, plain: list[dict], prep) -> dict:
    from tracing import layer_times

    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(layer_times(traced["spans"]))
    values.update(traced["counts"])
    cells = values["pipeline.cells"]
    if cells:
        values["pipeline.cell_s"] = values.get("pipeline.sweep_s", 0.0) / cells
        values["pipeline.cell_self_s"] = values.get("pipeline.sweep_self_s", 0.0) / cells
    values["ingest.repeat_share"] = prep.properties["ingest.repeat_share"]
    # The traced job ran between two untraced ones; comparing it with their
    # mean cancels a steady drift in host speed. Its replay check is not
    # tracing cost, so it is left out of the traced wall time.
    untraced = statistics.mean(j["wall_s"] for j in plain)
    values["trace.traced_wall_s"] = traced["wall_s"] - traced["verify_s"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - untraced
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / untraced
    return {name: values[name] for name in PER_LAYER}


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale
) -> tuple[dict, dict]:
    """One run: the detailed record and the one-line summary."""
    import inputs

    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": workload, "scale": scale.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "problems": [], "jobs": []}
    metrics, units = None, {}
    attempted = failed = 0
    try:
        prep = inputs.prepare(workload, seed, scale, workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(prep.spec))
        out = Path(prep.spec["out"])
        record["inputs"] = prep.properties
        record["prepare_s"] = time.perf_counter() - started
        jobs = record["jobs"]

        def job(mode: str) -> dict:
            nonlocal attempted, failed
            result = run_job(spec_path, mode, out, deadline)
            attempted += prep.cells
            failed += _check(prep, result, record)
            jobs.append(result)
            return result

        if trace:
            plain = [job("plain")]
            traced = job("traced") if plain[0]["ok"] else {"ok": False}
            if traced["ok"]:
                plain.append(job("plain"))
            if all(j["ok"] for j in plain) and traced["ok"]:
                metrics = per_layer(traced, plain, prep)
                record["cells_detail"] = traced["cells_detail"]
            units = PER_LAYER
        else:
            probes = []
            for _ in range(SETUP_PROBES[prep.spec["kind"]]):
                probe = run_job(spec_path, "probe", out, deadline)
                if probe["ok"]:
                    probes += probe["setup_s"]
                else:
                    record["problems"].append(f"set-up probe: {probe['error']}")
            window_end = min(time.perf_counter() + seconds, deadline)
            longest = 0.0
            while True:
                result = job("plain")
                if not result["ok"]:
                    break
                longest = max(longest, result["wall_s"])
                if time.perf_counter() + longest > window_end:
                    break
            if any(j["ok"] for j in jobs):
                metrics = end_to_end(jobs, probes)
            units = END_TO_END
            record["setup_probes_s"] = probes
        digests = {j.get("output_sha256") for j in jobs if j.get("ok")}
        if len(digests) > 1:
            record["problems"].append("jobs of one run wrote different outputs")
            failed = attempted
        record["output_sha256"] = sorted(d for d in digests if d)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["run_s"] = time.perf_counter() - started
    correct = metrics is not None and failed == 0 and not record["problems"]
    record["fail_ratio"] = failed / attempted
    record["machine"] = machine_facts()
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in (metrics or {}).items()
        },
    }
    return record, summary


def _save(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{record['scale']}-{record['workload']}"
            f"-seed{record['seed']}-trace{record['trace']}.json")
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload, untraced and traced, at a tiny scale",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running job,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    _ensure_source()
    import inputs

    if args.smoke:
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
        scale, seconds = inputs.SMOKE, 0.0
    else:
        runs = [(args.workload, bool(args.trace))]
        scale, seconds = inputs.FULL, args.seconds
    all_correct = True
    for workload, trace in runs:
        record, summary = run_workload(workload, args.seed, seconds, trace, scale)
        _save({**record, "result": summary})
        all_correct &= summary["correct"]
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(summary))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
