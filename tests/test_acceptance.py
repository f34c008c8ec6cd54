"""End-to-end acceptance checks.

Nine criteria cover exact inference on tiny hand-traceable corpora, soundness
and robustness trends on a large synthetic topology, oracle equivalence for
the core builders, ingest invariants at scale, and byte-level determinism
of the CLI. Each test prints a single PASS/FAIL line carrying the measured
numbers so a verbose run doubles as an acceptance report.

The large corpus (tiers 10/50/300/1000, multihome 2, peer_prob 0.3, 50,000
paths) is generated once per session and shared by criteria 2 and 4-7.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from asrel.cli import main as cli_main
from asrel.core import greedy_max_clique, k_shell_decompose
from asrel.graph import AsGraph, RelType, edge_key
from asrel.ingest import RawPath, SiblingSet, build_graph, ingest_paths, normalize_path
from asrel.metrics import ReferenceSet, stability
from asrel.pipeline import core_size_sweep, corruption_sweep, run_inference, summarize
from asrel.synth import (
    GenConfig,
    NoiseConfig,
    generate,
    sample_paths,
    write_paths_file,
    write_reference_file,
)

from oracles import (
    adjacency_from_edges,
    brute_force_core_numbers,
    brute_force_max_clique,
    is_clique,
    tally,
)

BIG = GenConfig(
    tier_sizes=(10, 50, 300, 1000),
    multihome=2.0,
    peer_prob=0.3,
    paths=50_000,
    seed=42,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def big_truth():
    return generate(BIG)


@pytest.fixture(scope="session")
def big_reference(big_truth):
    return ReferenceSet(dict(big_truth.labels))


@pytest.fixture(scope="session")
def clean_run(big_truth):
    """Zero-noise corpus inferred against the true top clique, timed."""
    start = time.perf_counter()
    raw = sample_paths(big_truth, BIG)
    paths, report = ingest_paths(raw)
    graph = build_graph(paths)
    result = run_inference(graph, paths, big_truth.true_core())
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        graph=graph, paths=paths, report=report, result=result, elapsed=elapsed
    )


def _rel_map(out_dir: Path) -> dict[tuple[int, int], tuple[str, str]]:
    with (out_dir / "classifications.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    return {(int(r["low"]), int(r["high"])): (r["rel"], r["method"]) for r in rows}


def _infer(tmp_path: Path, name: str, path_lines: str, core_lines: str):
    paths_file = tmp_path / f"{name}-paths.txt"
    paths_file.write_text(path_lines)
    core_file = tmp_path / f"{name}-core.txt"
    core_file.write_text(core_lines)
    out = tmp_path / f"{name}-out"
    rc = cli_main(
        [
            "infer",
            "--paths-bgp",
            str(paths_file),
            "--core",
            str(core_file),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return _rel_map(out)


def test_criterion_1_hand_traceable_corpora(tmp_path, capsys):
    """The three hand-traceable corpora reproduce exactly, in under 1 s."""
    start = time.perf_counter()
    ladder = _infer(tmp_path, "ladder", "1 2 3 4 5 6 7\n", "v 4\nv 5\ne 4 5\n")
    summit = _infer(
        tmp_path, "summit", "1 2 3 4 5 6 7\n2 3 8 5 6\n", "v 8\n"
    )
    gap = _infer(
        tmp_path, "gap", "1 2 3 4 5 6\n1 2 3 9\n9 4 5 6\n", "v 9\n"
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    ladder_want = {
        (1, 2): "c2p",
        (2, 3): "c2p",
        (3, 4): "c2p",
        (4, 5): "p2p",
        (5, 6): "p2c",
        (6, 7): "p2c",
    }
    ladder_ok = {k: v[0] for k, v in ladder.items()} == ladder_want
    summit_ok = (
        summit[(1, 2)][0] == "c2p"
        and summit[(6, 7)][0] == "p2c"
        and summit[(3, 4)][0] == "unclassified"
        and summit[(4, 5)][0] == "unclassified"
    )
    gap_ok = gap[(3, 4)] == ("p2p", "gap-p2p")
    ok = ladder_ok and summit_ok and gap_ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"ladder={ladder_ok} summit={summit_ok} gap={gap_ok} in {elapsed:.3f}s",
    )


def test_criterion_2_perfect_core_soundness(clean_run, big_truth, big_reference):
    """With the true clique core every core-path edge is classified right.

    Bounds: 100% of edges on core-traversing paths classified and matching
    ground truth, >= 99% agreement over all classified edges, zero invalid
    paths, under 10 s.
    """
    result = clean_run.result
    covered = set()
    for path in result.partition.through_core:
        for u, v in path.edges():
            covered.add(edge_key(u, v))
    not_classified = sum(
        1 for k in covered if result.classifications[k].rel is RelType.UNCLASSIFIED
    )
    mismatched = sum(
        1
        for k in covered
        if result.classifications[k].rel is not RelType.UNCLASSIFIED
        and result.classifications[k].rel is not big_truth.labels[k]
    )
    metrics = summarize(result, big_reference)
    agree = metrics.pct_match_reference_both
    ok = (
        not_classified == 0
        and mismatched == 0
        and agree is not None
        and agree >= 99.0
        and len(result.partition.invalid) == 0
        and result.valley_paths == 0
        and clean_run.elapsed < 10.0
    )
    _report(
        2,
        ok,
        f"{len(covered)} core-path edges, {not_classified} unclassified, "
        f"{mismatched} mismatched, agreement {agree:.2f}%, "
        f"{len(result.partition.invalid)} invalid paths, {clean_run.elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    """1,000 random graphs: shells match brute force, greedy clique valid."""
    rng = random.Random(9090)
    shell_fail = clique_fail = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        p = rng.uniform(0.05, 0.95)
        vertices = range(1, n + 1)
        edges = [
            (a, b)
            for a in vertices
            for b in vertices
            if a < b and rng.random() < p
        ]
        if not edges:
            edges = [(1, 2)]
        graph = AsGraph()
        for a, b in edges:
            graph.add_edge(a, b)
        adj = adjacency_from_edges(edges)

        shells = k_shell_decompose(graph)
        expected = brute_force_core_numbers(adj)
        if any(shells[v] != expected[v] for v in adj):
            shell_fail += 1

        clique = greedy_max_clique(graph)
        if not is_clique(adj, clique.vertices):
            clique_fail += 1
        elif len(clique.vertices) > brute_force_max_clique(adj):
            clique_fail += 1
    ok = shell_fail == 0 and clique_fail == 0
    _report(
        3,
        ok,
        f"1000 graphs, {shell_fail} shell mismatches, "
        f"{clique_fail} clique violations",
    )


def _share_counts(result) -> tuple[int, int, int]:
    """Voted edges plus how many are unanimous or reach share 0.8."""
    voted = unanimous = strong = 0
    for key in result.graph.edges:
        counts = tally(result.graph, key)
        total = counts.votes()
        if total == 0:
            continue
        voted += 1
        best = max(counts.c2p, counts.p2c, counts.p2p)
        if best == total:
            unanimous += 1
        if best / total >= 0.8:
            strong += 1
    return voted, unanimous, strong


def test_criterion_4_vote_share_distribution(clean_run, big_truth):
    """Vote shares concentrate at unanimity; valleys barely dilute them.

    Bounds: >= 99% of voted edges unanimous with zero noise; >= 95% still
    at share >= 0.8 with valley_prob 0.02.
    """
    voted, unanimous, _ = _share_counts(clean_run.result)
    pct_unanimous = 100.0 * unanimous / voted

    noisy_cfg = replace(BIG, noise=NoiseConfig(valley_prob=0.02))
    raw = sample_paths(big_truth, noisy_cfg)
    paths, _ = ingest_paths(raw)
    graph = build_graph(paths)
    noisy = run_inference(graph, paths, big_truth.true_core())
    nvoted, _, nstrong = _share_counts(noisy)
    pct_strong = 100.0 * nstrong / nvoted

    ok = pct_unanimous >= 99.0 and pct_strong >= 95.0
    _report(
        4,
        ok,
        f"clean unanimity {pct_unanimous:.2f}% of {voted} voted edges, "
        f"valley share>=0.8 {pct_strong:.2f}% of {nvoted}",
    )


def test_criterion_5_corruption_robustness(clean_run, big_truth, big_reference):
    """Randomizing the core grows the non-deterministic share, slowly.

    Bounds: mean heuristic+unclassified share non-decreasing over fractions
    0, 0.5, 1.0 (5 seeds each); classified share at fraction 1.0 >= 75%.
    """
    rows = corruption_sweep(
        clean_run.graph,
        clean_run.paths,
        big_truth.true_core(),
        fractions=(0.0, 0.5, 1.0),
        seeds=(42, 43, 44, 45, 46),
        reference=big_reference,
    )
    leftover = {}
    classified = {}
    for frac in (0.0, 0.5, 1.0):
        batch = [r for r in rows if r["fraction"] == frac]
        leftover[frac] = sum(
            r["pct_heuristic"] + (100.0 - r["pct_classified"]) for r in batch
        ) / len(batch)
        classified[frac] = sum(r["pct_classified"] for r in batch) / len(batch)
    trend_ok = leftover[0.0] <= leftover[0.5] <= leftover[1.0]
    bound_ok = classified[1.0] >= 75.0
    ok = trend_ok and bound_ok
    _report(
        5,
        ok,
        "mean heuristic+unclassified "
        f"{leftover[0.0]:.2f} -> {leftover[0.5]:.2f} -> {leftover[1.0]:.2f}, "
        f"classified at full corruption {classified[1.0]:.2f}%",
    )


def test_criterion_6_core_size_robustness(clean_run, big_truth, big_reference):
    """Agreement stays flat once the core is at least clique-sized.

    Bound: ground-truth agreement spread <= 2 points across grown core
    sizes >= the true clique size.
    """
    sizes = (4, 6, 8, 10, 12, 16, 20, 24, 28, 32)
    rows = core_size_sweep(
        clean_run.graph, clean_run.paths, "degree", sizes, reference=big_reference
    )
    clique_size = len(big_truth.true_core().vertices)
    agree = {
        r["size"]: r["pct_match_reference_both"]
        for r in rows
        if r["size"] >= clique_size
    }
    spread = max(agree.values()) - min(agree.values())
    ok = spread <= 2.0
    _report(
        6,
        ok,
        f"agreement spread {spread:.2f} points over sizes >= {clique_size} "
        f"(range {min(agree.values()):.2f}..{max(agree.values()):.2f})",
    )


def test_criterion_7_window_stability(big_truth):
    """Independent path samples agree with themselves across windows.

    Bounds: stability exactly 1.0 for two zero-noise 50k windows; >= 0.98
    when both windows carry loop_prob = prepend_prob = 0.05.
    """

    def window(seed: int, noise: NoiseConfig | None = None):
        cfg = BIG if noise is None else replace(BIG, noise=noise)
        raw = sample_paths(big_truth, cfg, seed=seed)
        paths, _ = ingest_paths(raw)
        graph = build_graph(paths)
        return run_inference(graph, paths, big_truth.true_core())

    clean_a = window(101)
    clean_b = window(202)
    clean_stab, clean_shared = stability(
        clean_a.classifications, clean_b.classifications
    )

    noise = NoiseConfig(loop_prob=0.05, prepend_prob=0.05)
    noisy_a = window(303, noise)
    noisy_b = window(404, noise)
    noisy_stab, noisy_shared = stability(
        noisy_a.classifications, noisy_b.classifications
    )

    ok = clean_stab == 1.0 and noisy_stab is not None and noisy_stab >= 0.98
    _report(
        7,
        ok,
        f"clean stability {clean_stab} over {clean_shared} shared edges, "
        f"noisy stability {noisy_stab:.4f} over {noisy_shared}",
    )


def _collapse(hops: list[int]) -> list[int]:
    return [h for i, h in enumerate(hops) if i == 0 or h != hops[i - 1]]


def _contiguous_in(needle: tuple[int, ...], hay: tuple[int, ...]) -> bool:
    span = len(needle)
    return any(hay[i : i + span] == needle for i in range(len(hay) - span + 1))


def test_criterion_8_ingest_property_suite():
    """Normalization and filter invariants over 10,000 randomized inputs.

    Checks, per input: idempotence, loop-free output that is a prefix of
    the collapsed sibling-mapped hops, all hops sibling representatives.
    Per batch: the two-agent filter only keeps multiply-observed trace
    edges, splits are contiguous fragments, and bgp paths pass untouched.
    """
    rng = random.Random(18181)
    pool = list(range(1, 40))
    agents = ("amst", "bonn", "cali")
    inputs = 0
    failures: list[str] = []

    def note(condition: bool, label: str) -> None:
        if not condition and len(failures) < 5:
            failures.append(label)

    while inputs < 10_000:
        siblings = SiblingSet()
        for _ in range(rng.randint(0, 4)):
            siblings.merge(*rng.sample(pool, 2))
        batch: list[RawPath] = []
        raw_hops: list[list[int]] = []
        for _ in range(50):
            hops = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            if hops and rng.random() < 0.3:
                hops.insert(rng.randrange(len(hops)), hops[rng.randrange(len(hops))])
            if len(hops) >= 2 and rng.random() < 0.3:
                hops.append(hops[rng.randrange(len(hops))])
            inputs += 1
            raw_hops.append(hops)
            if rng.random() < 0.5:
                batch.append(RawPath(tuple(hops), "bgp", "", 1))
            else:
                batch.append(RawPath(tuple(hops), "trace", rng.choice(agents), 1))

            norm, truncated = normalize_path(hops, siblings)
            collapsed = _collapse([siblings.representative(h) for h in hops])
            if norm is None:
                # A drop is a loop cut short, or a path short to begin with.
                note(truncated or len(collapsed) < 2, "drop without reason")
                continue
            again, _ = normalize_path(norm, siblings)
            note(again == norm, "not idempotent")
            note(len(set(norm)) == len(norm), "revisit kept")
            note(len(norm) >= 2, "short path kept")
            note(
                all(siblings.representative(h) == h for h in norm),
                "non-representative hop",
            )
            note(
                tuple(collapsed[: len(norm)]) == norm,
                "not a prefix of collapsed input",
            )
            note(
                truncated == (len(norm) < len(collapsed)),
                "truncation flag wrong",
            )

        kept, report = ingest_paths(batch, siblings=siblings)
        note(report.paths_read == len(batch), "paths_read miscount")

        bgp_norm: set[tuple[int, ...]] = set()
        trace_agents: dict[tuple[int, int], set[str]] = {}
        trace_norm: dict[str, list[tuple[int, ...]]] = {}
        for raw, hops in zip(batch, raw_hops):
            norm, _ = normalize_path(hops, siblings)
            if norm is None:
                continue
            if raw.source == "bgp":
                bgp_norm.add(norm)
            else:
                trace_norm.setdefault(raw.agent, []).append(norm)
                for u, v in zip(norm, norm[1:]):
                    trace_agents.setdefault(edge_key(u, v), set()).add(raw.agent)
        bgp_edges = {
            edge_key(u, v) for hops in bgp_norm for u, v in zip(hops, hops[1:])
        }

        kept_bgp = {p.hops for p in kept if p.source == "bgp"}
        note(kept_bgp == bgp_norm, "bgp paths altered by filter")
        for path in kept:
            if path.source != "trace":
                continue
            for u, v in path.edges():
                key = edge_key(u, v)
                supported = key in bgp_edges or len(trace_agents.get(key, ())) >= 2
                note(supported, "single-agent trace edge kept")
            note(
                any(
                    _contiguous_in(path.hops, full)
                    for full in trace_norm.get(path.agent, ())
                ),
                "trace fragment not contiguous in any input",
            )

    ok = not failures
    _report(8, ok, f"{inputs} inputs, failures: {failures or 'none'}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    """Running the same manifest twice produces identical CSV bytes."""
    cfg = GenConfig(
        tier_sizes=(4, 10, 30),
        multihome=2.0,
        peer_prob=0.4,
        paths=2000,
        seed=11,
        noise=NoiseConfig(loop_prob=0.05, valley_prob=0.02, prepend_prob=0.05),
    )
    truth = generate(cfg)
    raw = sample_paths(truth, cfg)
    bgp_file = tmp_path / "paths-bgp.txt"
    trace_file = tmp_path / "paths-trace.txt"
    with bgp_file.open("w") as fh:
        write_paths_file([p for p in raw if p.source == "bgp"], fh)
    with trace_file.open("w") as fh:
        write_paths_file([p for p in raw if p.source == "trace"], fh)
    ref_file = tmp_path / "reference.txt"
    with ref_file.open("w") as fh:
        write_reference_file(truth.labels, fh)

    argv_tail = [
        "--paths-bgp",
        str(bgp_file),
        "--paths-trace",
        str(trace_file),
        "--core-method",
        "kcore",
        "--tiebreak",
        "degree",
        "--reference",
        str(ref_file),
    ]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli_main(["infer", *argv_tail, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    same_cls = (outs[0] / "classifications.csv").read_bytes() == (
        outs[1] / "classifications.csv"
    ).read_bytes()
    same_metrics = (outs[0] / "metrics.csv").read_bytes() == (
        outs[1] / "metrics.csv"
    ).read_bytes()
    ok = same_cls and same_metrics
    _report(
        9,
        ok,
        f"classifications identical={same_cls} metrics identical={same_metrics}",
    )
