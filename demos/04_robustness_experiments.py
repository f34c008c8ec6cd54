"""Stress the inference: corrupted cores, core sizes, and time windows.

Three experiments on one synthetic topology: replace growing fractions of
the core with random vertices, sweep the grown-core size past the true
clique, and compare two independently sampled path windows. The punchline
is that classification coverage barely moves even when agreement suffers.
Run with python3.
"""

from asrel import (
    GenConfig,
    NoiseConfig,
    ReferenceSet,
    build_graph,
    core_size_sweep,
    corruption_sweep,
    generate,
    ingest_paths,
    run_inference,
    sample_paths,
    stability,
)
from dataclasses import replace

CFG = GenConfig(tier_sizes=(6, 18, 60), multihome=2.0, peer_prob=0.3, paths=5000, seed=7)


def mean(rows, column):
    return sum(r[column] for r in rows) / len(rows)


def main():
    truth = generate(CFG)
    raw = sample_paths(truth, CFG)
    paths, _ = ingest_paths(raw)
    graph = build_graph(paths)
    core = truth.true_core()
    reference = ReferenceSet(dict(truth.labels))

    print("experiment 1: core corruption")
    print("  replace a fraction of the true core with random vertices that")
    print("  keep the core connected, three seeds per fraction.")
    rows = corruption_sweep(
        graph, paths, core, fractions=(0.0, 0.5, 1.0), seeds=(1, 2, 3),
        reference=reference,
    )
    print(f"  {'fraction':>8} {'classified':>10} {'agree':>7} {'invalid paths':>13}")
    for frac in (0.0, 0.5, 1.0):
        batch = [r for r in rows if r["fraction"] == frac]
        print(f"  {frac:>8.1f} {mean(batch, 'pct_classified'):>9.1f}% "
              f"{mean(batch, 'pct_match_reference_both'):>6.2f}% "
              f"{mean(batch, 'pct_invalid_paths'):>12.2f}%")
    print("  coverage holds; agreement decays gracefully as the anchor rots.")

    print("\nexperiment 2: grown core size")
    rows = core_size_sweep(graph, paths, "degree", (4, 6, 8, 10, 14, 18),
                           reference=reference)
    print(f"  {'size':>6} {'core edges':>10} {'classified':>10} {'agree':>7}")
    for r in rows:
        print(f"  {r['size']:>6} {r['core_edges']:>10} "
              f"{r['pct_classified']:>9.1f}% {r['pct_match_reference_both']:>6.2f}%")
    print("  agreement peaks once the summit is covered. On a topology this")
    print("  small, growing further swallows much of the mid-tier and erodes")
    print("  agreement, since intra-core edges default to peering; on large")
    print("  topologies the extra members are a vanishing fraction and the")
    print("  curve flattens instead.")

    print("\nexperiment 3: window stability")

    def window(seed, noise=None):
        cfg = CFG if noise is None else replace(CFG, noise=noise)
        raws = sample_paths(truth, cfg, seed=seed)
        kept, _ = ingest_paths(raws)
        return run_inference(build_graph(kept), kept, core)

    clean_a, clean_b = window(11), window(22)
    value, shared = stability(clean_a.classifications, clean_b.classifications)
    print(f"  two clean windows:  stability {value:.4f} over {shared} shared edges")
    noise = NoiseConfig(loop_prob=0.05, prepend_prob=0.05)
    noisy_a, noisy_b = window(33, noise), window(44, noise)
    value, shared = stability(noisy_a.classifications, noisy_b.classifications)
    print(f"  two noisy windows:  stability {value:.4f} over {shared} shared edges")
    print("  the labels an edge gets are a property of the topology, not of")
    print("  the particular paths that happened to be sampled.")


if __name__ == "__main__":
    main()
