"""Generate a provider hierarchy, sample noisy paths, ingest, infer, score.

This is the whole pipeline in one sitting: a known ground truth, a corpus
with loops, prepending, and routing valleys mixed in, the ingest cleanup
counters, inference against the true top clique, and a ground-truth
scorecard at the end. Run with python3.
"""

from collections import Counter
from dataclasses import asdict

from asrel import (
    GenConfig,
    NoiseConfig,
    ReferenceSet,
    build_graph,
    generate,
    ingest_paths,
    run_inference,
    sample_paths,
    summarize,
)
from asrel.metrics import vote_share_histogram

CFG = GenConfig(
    tier_sizes=(6, 18, 60),
    multihome=2.0,
    peer_prob=0.3,
    paths=5000,
    noise=NoiseConfig(loop_prob=0.05, valley_prob=0.02, prepend_prob=0.05),
    seed=7,
)


def main():
    truth = generate(CFG)
    mix = Counter(rel.value for rel in truth.labels.values())
    print(f"ground truth: {truth.graph.n_vertices} ASes, {truth.graph.n_edges} edges")
    print(f"  label mix: {dict(sorted(mix.items()))}")
    print(f"  tier sizes: {CFG.tier_sizes}, top clique = ASes 1..{CFG.tier_sizes[0]}")

    raw = sample_paths(truth, CFG)
    print(f"\nsampled {len(raw)} traceroute paths with noise "
          f"(loop {CFG.noise.loop_prob}, valley {CFG.noise.valley_prob}, "
          f"prepend {CFG.noise.prepend_prob})")

    paths, report = ingest_paths(raw)
    print("ingest cleanup:")
    for key, value in asdict(report).items():
        print(f"  {key}: {value}")
    print(f"  kept {len(paths)} distinct paths, "
          f"{sum(p.weight for p in paths)} observations")

    graph = build_graph(paths)
    print(f"\nobserved graph: {graph.n_vertices} ASes, {graph.n_edges} edges "
          f"(unseen edges carry no traffic in this sample)")

    result = run_inference(graph, paths, truth.true_core())
    reference = ReferenceSet(dict(truth.labels))
    metrics = summarize(result, reference)

    print("\nscorecard against ground truth:")
    print(f"  paths through core: {metrics.pct_through_core:.1f}%  "
          f"invalid paths: {metrics.pct_invalid_paths:.2f}%")
    print(f"  classified: {metrics.pct_classified:.1f}%  "
          f"deterministic: {metrics.pct_deterministic:.1f}%  "
          f"heuristic: {metrics.pct_heuristic:.1f}%")
    print(f"  agreement over classified edges: "
          f"{metrics.pct_match_reference_both:.2f}%")
    print(f"  methods: {dict(sorted(metrics.method_counts.items()))}")

    print("\nvote-share histogram (per-edge share of p2c votes, low->high):")
    print("  near-unanimous edges pile into the outer bins; anything in the")
    print("  middle had genuinely conflicting evidence. Here the last bin is")
    print("  the hierarchy (lower AS number = higher tier = provider) and the")
    print("  first bin is peering, whose votes are p2p rather than p2c.")
    histogram = vote_share_histogram(result.graph)
    for lo, hi, count in histogram:
        if count:
            bar = "#" * max(1, count * 60 // max(c for _, _, c in histogram))
            print(f"  [{lo:.2f}, {hi:.2f}) {count:5d} {bar}")

    work = result.graph
    customer = work.customer
    valley = [
        e
        for e, (c2p, p2c, p2p, invalid) in enumerate(
            zip(customer[0::2], customer[1::2], work.p2p, work.invalid)
        )
        if invalid and not (c2p or p2c or p2p)
    ]
    print(f"\n{len(valley)} edges were seen only inside invalid path segments")
    print("and are deliberately left unclassified (valley edges).")


if __name__ == "__main__":
    main()
