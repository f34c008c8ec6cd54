"""Golden outputs: SHA-256 digests of the CLI's byte-stable files.

Fixed synthetic corpora (about 1.5k paths each) go through ``asrel infer``
and both sweeps of ``asrel experiment``. The digests were taken from the
engine that walked paths with per-edge tally objects, before the compiled
engine replaced it, so a change to the engine's data layout must leave
every byte of classifications.csv, metrics.csv, histogram.csv and
experiment.csv as it was. A change that is meant to alter labels updates
the digests and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from asrel import cli
from asrel.graph import AsPath
from asrel.synth import (
    GenConfig,
    NoiseConfig,
    generate,
    sample_paths,
    write_paths_file,
    write_reference_file,
)

CONFIG = GenConfig(
    tier_sizes=(6, 24, 80, 240),
    paths=1500,
    noise=NoiseConfig(loop_prob=0.05, valley_prob=0.05, prepend_prob=0.05),
    seed=2024,
    agents=4,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """BGP and traceroute files, a reference, and a core file whose edges
    carry preassigned labels in both written orders."""
    root = tmp_path_factory.mktemp("golden")
    truth = generate(CONFIG)
    raws = sample_paths(truth, CONFIG)
    half = len(raws) // 2
    bgp = [AsPath(raw.hops, "bgp", "", raw.weight) for raw in raws[:half]]
    with open(root / "paths.bgp", "w", encoding="utf-8") as fh:
        write_paths_file(bgp, fh)
    with open(root / "paths.trace", "w", encoding="utf-8") as fh:
        write_paths_file(raws[half:], fh)
    with open(root / "reference.txt", "w", encoding="utf-8") as fh:
        write_reference_file(truth.labels, fh)

    core = truth.true_core()
    lines = [f"v {v}\n" for v in sorted(core.vertices)]
    for i, (a, b) in enumerate(sorted(core.edges)):
        suffix = ("", " p2p", " c2p", " p2c")[i % 4]
        # Odd edges are written high endpoint first.
        first, second = (a, b) if i % 2 == 0 else (b, a)
        lines.append(f"e {first} {second}{suffix}\n")
    (root / "core.txt").write_text("".join(lines), encoding="utf-8")
    return root


def corpus_flags(root):
    return [
        "--paths-bgp", str(root / "paths.bgp"),
        "--paths-trace", str(root / "paths.trace"),
    ]


INFER_RUNS = {
    "clique-kshell": ["--core-method", "clique", "--tiebreak", "kshell", "--reference"],
    "core-file-degree": ["--core", "core.txt", "--tiebreak", "degree"],
    "threshold-0.6": ["--core-method", "clique", "--threshold", "0.6"],
    "kcore-one-hop": ["--core-method", "kcore", "--max-core-hops", "1"],
}

EXPERIMENT_RUNS = {
    "core-sweep": [
        "core-sweep", "--sweep-sizes", "4,8,12", "--grow-strategy", "kshell",
        "--tiebreak", "kshell", "--reference",
    ],
    "corruption": [
        "corruption", "--core", "core.txt", "--fractions", "0,0.5,1.0",
        "--corruption-seeds", "2", "--tiebreak", "degree",
    ],
}

GOLDEN = {
    ("clique-kshell", "classifications.csv"): "e2af5a3c28386c80568e6d7666db851b71b303319986bc7d7697842b8f7fc29f",
    ("clique-kshell", "metrics.csv"): "fa732bc8d22e1337257b162db179f6fea65265f02ae52eccf7cc83c5ae0b4487",
    ("clique-kshell", "histogram.csv"): "ed37a36ebe95d884b236f8161f6483d45de2912da8147ac80962a13ebd6d37ce",
    ("core-file-degree", "classifications.csv"): "0b112b0254f29e2106f4d872f9e7c7b849a53a37b84e59ff466d9af6ba55cd67",
    ("core-file-degree", "metrics.csv"): "ad4cd4bdd040c01d08e1e4b7a0536a4f7a1e3483d9832ba99f05275b768131a1",
    ("core-file-degree", "histogram.csv"): "dd6f3b92680d21623e17e414236e8ffea891cf8e8543a475318b8be8d15adb95",
    ("threshold-0.6", "classifications.csv"): "6ce00d7ea42aff317508323c958e19f6f62ee32cebd6615c3eab2d5563135197",
    ("threshold-0.6", "metrics.csv"): "ce378c42c5fdb93392fbffca5fdd03e3e41c51c99c0edbad2208aa89595033ec",
    ("threshold-0.6", "histogram.csv"): "ed37a36ebe95d884b236f8161f6483d45de2912da8147ac80962a13ebd6d37ce",
    ("kcore-one-hop", "classifications.csv"): "fc846652881cf6f34e5b7d958e4b3e405f00800285f091fb5b01acc96e056373",
    ("kcore-one-hop", "metrics.csv"): "0a959b1088154ad87d464edf589943f62dc2f2e50adbf3f3b68b47d270030fe9",
    ("kcore-one-hop", "histogram.csv"): "bb73ff6567be2e40bf5f407d6b61d4167886da430e660ab9b486a15a4dd18f6b",
    ("core-sweep", "experiment.csv"): "276151b5cc42beb2324ed30608eb9cde4d22f3ae367e718d2537b486bfc23e64",
    ("corruption", "experiment.csv"): "26f1013ff4c4441df95c71f45790e57a2b811478ea0fb0ceac8142460ce9e146",
}


def resolve(root, flags):
    """Expand file-name flags to paths under root; --reference gets the
    reference file."""
    out = []
    for flag in flags:
        if flag == "--reference":
            out += ["--reference", str(root / "reference.txt")]
        elif flag.endswith(".txt"):
            out.append(str(root / flag))
        else:
            out.append(flag)
    return out


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(INFER_RUNS))
def test_infer_outputs_match_golden(inputs, tmp_path, run):
    out = tmp_path / run
    argv = ["infer", *corpus_flags(inputs), *resolve(inputs, INFER_RUNS[run])]
    assert cli.main([*argv, "--out", str(out)]) == 0
    for name in ("classifications.csv", "metrics.csv", "histogram.csv"):
        assert digest(out / name) == GOLDEN[(run, name)], name


@pytest.mark.parametrize("run", sorted(EXPERIMENT_RUNS))
def test_experiment_outputs_match_golden(inputs, tmp_path, run):
    out = tmp_path / run
    kind, *flags = EXPERIMENT_RUNS[run]
    argv = ["experiment", kind, *corpus_flags(inputs), *resolve(inputs, flags)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert digest(out / "experiment.csv") == GOLDEN[(run, "experiment.csv")]
