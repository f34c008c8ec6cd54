"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke run exercises both workloads, untraced and traced, at a
tiny scale; the other tests check that output checks catch broken output
and that the benchmark refuses to run without the asrel sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = _results(proc.stdout)
    assert len(results) == 2 * len(run.WORKLOADS)
    assert json.loads(proc.stdout.splitlines()[-1]) == results[-1]
    for i, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = run.PER_LAYER if i % 2 else run.END_TO_END
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    untraced = [r["metrics"] for r in results[::2]]
    assert all(m[name]["value"] > 0 for m in untraced for name in run.END_TO_END)
    traced = results[1::2]
    for workload, result in zip(run.WORKLOADS, traced):
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["engine.phase1_s"] > 0 and metrics["graph.build_s"] > 0
        if workload == "sweep-S":
            assert metrics["pipeline.cells"] == 8 and metrics["core.corrupt_s"] > 0
        else:
            assert metrics["cli.main_s"] > metrics["pipeline.run_inference_s"] > 0
        if workload == "infer-rib-M":
            assert metrics["heuristics.tiebreak_labels"] > 0
            assert metrics["ingest.repeat_share"] > 0.5


@pytest.fixture(scope="module")
def rib_output(tmp_path_factory):
    """One tiny ``asrel infer`` run on the RIB workload's inputs."""
    from asrel.cli import main

    prep = inputs.prepare("infer-rib-M", 3, inputs.SMOKE, tmp_path_factory.mktemp("bench"))
    assert main(prep.spec["argv"]) == 0
    return prep


def _edit_rows(prep, edit) -> inputs.Checked:
    path = Path(prep.spec["out"]) / "classifications.csv"
    original = path.read_text()
    try:
        lines = original.splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
        return inputs.check_output(prep)
    finally:
        path.write_text(original)


def test_output_check_accepts_the_real_output(rib_output):
    checked = inputs.check_output(rib_output)
    assert checked.problems == [] and checked.failed_cells == 0
    assert checked.match_pct > 90 and len(checked.output_sha256) == 64


def _flip_labels(lines):
    return [lines[0]] + [
        line.replace(",c2p,", ",p2c,") if "c2p" in line else line.replace(",p2c,", ",c2p,")
        for line in lines[1:]
    ]


# classifications.csv holds the header, then one record per edge, then the
# sibling-db records.
@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda lines: lines[:1] + lines[2:],         # an edge loses its record
         "1 observed edges without a record, 0 records for unobserved edges"),
        (lambda lines: lines + ["999998,999999,p2p,gap-p2p,0,0,0,0\n"],  # an unseen edge
         "0 observed edges without a record, 1 records for unobserved edges"),
        (lambda lines: lines + lines[1:2],            # an edge gets two records
         "has more than one"),
        (lambda lines: lines[:-1],                    # a sibling pair loses its record
         "sibling records differ from the sibling file"),
        (lambda lines: lines + lines[-1:],            # a sibling pair gets two
         "has more than one sibling-db record"),
        (_flip_labels, "match "),
    ],
    ids=["edge-missing", "edge-extra", "edge-twice", "sibling-missing",
         "sibling-twice", "labels-flipped"],
)
def test_output_check_rejects_broken_output(rib_output, edit, expected):
    checked = _edit_rows(rib_output, edit)
    assert checked.failed_cells == 1
    assert any(expected in problem for problem in checked.problems), checked.problems


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-S",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
