"""Benchmark inputs, made with ``asrel.synth`` from a seed, and the checks
that a job's outputs are correct.

The checks use the synthetic ground truth, not a pinned digest, so that a
documented bug fix that changes labels can still pass: every observed edge
has exactly one record, sibling pairs are reported, and label agreement and
coverage stay above stated floors. The expected edge set is computed here
from the generated paths, independently of ``asrel.ingest``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from asrel.ingest import RawPath
from asrel.core import write_core_file
from asrel.synth import (
    GenConfig,
    NoiseConfig,
    generate,
    sample_paths,
    write_paths_file,
    write_reference_file,
)

# Loop, valley and prepend noise as in the ROADMAP baseline. RIB paths get
# no loop noise: BGP loop prevention keeps loops out of real RIB dumps.
TRACE_NOISE = NoiseConfig(loop_prob=0.05, valley_prob=0.02, prepend_prob=0.05)
RIB_NOISE = NoiseConfig(valley_prob=0.02, prepend_prob=0.05)
FRACTIONS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Scale:
    name: str
    m_tiers: tuple[int, ...]
    rib_lines: int
    rib_distinct: int
    sibling_pairs: int
    s_tiers: tuple[int, ...]
    s_paths: int
    corruption_seeds: int
    kshell_sizes: tuple[int, ...]
    # Per workload: floors on the share of edges labeled and on agreement
    # with the ground truth over edges both sides label, in percent.
    floors: dict[str, tuple[float, float]]


# The ROADMAP "M" and "S" topologies. Sweeps stay at S: one fully corrupted
# cell at M takes longer than a whole S sweep.
FULL = Scale(
    name="full",
    m_tiers=(30, 300, 3000, 20000),
    rib_lines=300_000,
    rib_distinct=30_000,
    sibling_pairs=500,
    s_tiers=(10, 50, 300, 1000),
    s_paths=50_000,
    corruption_seeds=5,
    kshell_sizes=(6, 10, 16, 24, 32),
    # Twenty seeds sat at least two points above each floor.
    floors={"infer-rib-M": (98.0, 93.0), "sweep-S": (95.0, 90.0)},
)

# A few seconds for both workloads, for the benchmark's own tests.
SMOKE = Scale(
    name="smoke",
    m_tiers=(6, 20, 80, 300),
    rib_lines=6_000,
    rib_distinct=600,
    sibling_pairs=10,
    s_tiers=(6, 20, 80, 300),
    s_paths=4_000,
    corruption_seeds=2,
    kshell_sizes=(6, 10),
    # A 300-stub topology leaves tie-breaks fewer signals: agreement ranged
    # 88.9-95.2% over ten seeds.
    floors={"infer-rib-M": (98.0, 85.0), "sweep-S": (95.0, 90.0)},
)

FLIP = {"c2p": "p2c", "p2c": "c2p", "p2p": "p2p"}


@dataclass
class Prepared:
    """Inputs on disk, the job spec, and what a correct output looks like."""

    workload: str
    spec: dict
    cells: int
    floors: tuple[float, float]
    expected_edges: set
    sibling_pairs: set
    truth: dict
    properties: dict


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write(path: Path, writer, *args) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        writer(*args, fh)
    return str(path)


def _corpus_facts(raw_paths, representative) -> tuple[set, float]:
    """Expected edge set after ingest, and the share of repeated paths.

    Mirrors the documented ingest policy: map siblings, merge prepends, cut
    each path before the hop that closes a loop, and keep traceroute-only
    edges seen by at least two agents.
    """
    bgp_edges: set = set()
    agents: dict = {}
    distinct = set()
    for raw in raw_paths:
        distinct.add(raw.hops)
        hops = [representative.get(h, h) for h in raw.hops] if representative else raw.hops
        if len(set(hops)) != len(hops):
            kept: list[int] = []
            for h in hops:
                if kept and h == kept[-1]:
                    continue
                if h in kept:
                    break
                kept.append(h)
            hops = kept
        keys = [(u, v) if u < v else (v, u) for u, v in zip(hops, hops[1:])]
        if raw.source == "bgp":
            bgp_edges.update(keys)
        else:
            for key in keys:
                agents.setdefault(key, set()).add(raw.agent)
    edges = bgp_edges | {k for k, seen in agents.items() if len(seen) >= 2}
    lines = len(raw_paths)
    return edges, (1.0 - len(distinct) / lines if lines else 0.0)


def _merged_truth(labels, representative) -> dict:
    """Ground-truth labels as strings, read in low->high order after the
    sibling merge."""
    truth = {}
    for (low, high), rel in labels.items():
        a, b = representative.get(low, low), representative.get(high, high)
        if a == b:
            continue
        value = rel.value if a < b else FLIP[rel.value]
        truth[(a, b) if a < b else (b, a)] = value
    return truth


def prepare(workload: str, seed: int, scale: Scale, workdir: Path) -> Prepared:
    """Write the workload's inputs for ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    if workload == "sweep-S":
        tiers, paths, noise = scale.s_tiers, scale.s_paths, TRACE_NOISE
    elif workload == "infer-rib-M":
        tiers, paths, noise = scale.m_tiers, scale.rib_distinct, RIB_NOISE
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = GenConfig(tier_sizes=tiers, paths=paths, noise=noise, seed=seed)
    truth = generate(cfg)
    raw = sample_paths(truth, cfg)
    params = {"gen": dataclasses.asdict(cfg)}
    reference = _write(workdir / "reference.txt", write_reference_file, truth.labels)
    representative: dict = {}
    pairs: set = set()

    if workload == "infer-rib-M":
        rng = random.Random(f"{seed}:rib")
        drawn = [RawPath(rng.choice(raw).hops, "bgp", "", 1) for _ in range(scale.rib_lines)]
        half = len(drawn) // 2
        ribs = [
            _write(workdir / "rib-a.txt", write_paths_file, drawn[:half]),
            _write(workdir / "rib-b.txt", write_paths_file, drawn[half:]),
        ]
        # Disjoint pairs of stubs: merging them never makes two reference
        # records disagree, since a stub is a customer or a peer only.
        last = len(scale.m_tiers)
        stubs = sorted(v for v, t in truth.tiers.items() if t == last and not truth.customers[v])
        members = rng.sample(stubs, 2 * scale.sibling_pairs)
        pairs = {tuple(sorted(p)) for p in zip(members[::2], members[1::2])}
        representative = {high: low for low, high in pairs}
        siblings = workdir / "siblings.txt"
        siblings.write_text("".join(f"{a} {b}\n" for a, b in sorted(pairs)))
        corpus = drawn
        spec = {"kind": "cli", "argv": [
            "infer", "--paths-bgp", *ribs, "--siblings", str(siblings),
            "--core-method", "clique", "--tiebreak", "kshell",
            "--reference", reference, "--out", str(out),
        ]}
        cells = 1
        params.update(rib_lines=scale.rib_lines, sibling_pairs=scale.sibling_pairs)
    else:
        trace = _write(workdir / "trace.txt", write_paths_file, raw)
        core = _write(workdir / "core.txt", write_core_file, truth.true_core())
        corpus = raw
        seeds = [seed + i for i in range(scale.corruption_seeds)]
        spec = {"kind": "sweep", "trace": trace, "core": core,
                "reference": reference, "fractions": list(FRACTIONS),
                "seeds": seeds, "strategy": "kshell",
                "sizes": list(scale.kshell_sizes)}
        cells = len(FRACTIONS) * len(seeds) + len(scale.kshell_sizes)
        params.update(fractions=list(FRACTIONS), corruption_seeds=seeds,
                      kshell_sizes=list(scale.kshell_sizes))

    expected, repeat_share = _corpus_facts(corpus, representative)
    spec["out"] = str(out)
    spec["run_id"] = f"{workload}-seed{seed}"
    properties = {
        "params": params,
        "input_sha256": {p.name: sha256(p) for p in sorted(workdir.glob("*.txt"))},
        "ingest.repeat_share": repeat_share,
        "expected_edges": len(expected),
    }
    return Prepared(
        workload=workload,
        spec=spec,
        cells=cells,
        floors=scale.floors[workload],
        expected_edges=expected,
        sibling_pairs=pairs,
        truth=_merged_truth(truth.labels, representative),
        properties=properties,
    )


@dataclass
class Checked:
    problems: list
    failed_cells: int
    classified_pct: float | None = None
    match_pct: float | None = None
    output_sha256: str | None = None


def check_output(prep: Prepared) -> Checked:
    """Check the files a finished job left in its output directory."""
    out = Path(prep.spec["out"])
    if prep.spec["kind"] == "sweep":
        return _check_sweep(prep, out / "experiment.csv")
    return _check_infer(prep, out / "classifications.csv")


def _check_infer(prep: Prepared, path: Path) -> Checked:
    if not path.is_file():
        return Checked([f"missing {path.name}"], prep.cells)
    problems = []
    seen: set = set()
    siblings: set = set()
    classified = matched = compared = 0
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != "low,high,rel,method,share_c2p,share_p2c,share_p2p,votes_invalid".split(","):
            problems.append(f"unexpected header {header}")
        for row in reader:
            key = (int(row[0]), int(row[1]))
            rel, method = row[2], row[3]
            records = siblings if method == "sibling-db" else seen
            if key in records:
                problems.append(f"pair {key} has more than one {method} record")
            records.add(key)
            if records is siblings:
                continue
            if rel == "unclassified":
                continue
            classified += 1
            expected = prep.truth.get(key)
            if expected is not None:
                compared += 1
                matched += rel == expected
    missing = prep.expected_edges - seen
    extra = seen - prep.expected_edges
    if missing or extra:
        problems.append(
            f"{len(missing)} observed edges without a record, "
            f"{len(extra)} records for unobserved edges"
        )
    if siblings != prep.sibling_pairs:
        problems.append("sibling records differ from the sibling file")
    classified_pct = 100.0 * classified / len(seen) if seen else 0.0
    match_pct = 100.0 * matched / compared if compared else 0.0
    _floors(prep.floors, classified_pct, match_pct, problems)
    return Checked(problems, prep.cells if problems else 0, classified_pct,
                   match_pct, sha256(path))


def _floors(floors, classified_pct: float, match_pct: float, problems: list) -> None:
    min_classified, min_match = floors
    if classified_pct < min_classified:
        problems.append(f"classified {classified_pct:.2f}% < floor {min_classified}%")
    if match_pct < min_match:
        problems.append(f"match {match_pct:.2f}% < floor {min_match}%")


def _check_sweep(prep: Prepared, path: Path) -> Checked:
    if not path.is_file():
        return Checked([f"missing {path.name}"], prep.cells)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != prep.cells:
        return Checked([f"{len(rows)} sweep rows, expected {prep.cells}"], prep.cells)
    problems: list = []
    failed = 0
    classified, matched = [], []
    for i, row in enumerate(rows):
        cell_problems: list = []
        if int(row["edges"]) != len(prep.expected_edges):
            cell_problems.append(
                f"row {i}: {row['edges']} edges, expected {len(prep.expected_edges)}"
            )
        pct_classified = float(row["pct_classified"])
        pct_match = float(row["pct_match_reference_both"] or 0.0)
        _floors(prep.floors, pct_classified, pct_match, cell_problems)
        classified.append(pct_classified)
        matched.append(pct_match)
        failed += bool(cell_problems)
        problems += cell_problems
    return Checked(problems, failed, sum(classified) / len(rows),
                   sum(matched) / len(rows), sha256(path))
