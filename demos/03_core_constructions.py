"""Build the inference core five different ways and compare the results.

The core anchors everything downstream, so this demo builds it from the
observed graph by greedy clique, by k-shell nucleus, by growing ranked
vertex sets, and by loading an external list, then scores each choice
against ground truth. Run with python3.
"""

import io

from asrel import (
    GenConfig,
    ReferenceSet,
    build_graph,
    generate,
    grow_core,
    greedy_max_clique,
    ingest_paths,
    k_max_core,
    k_shell_decompose,
    load_external_core,
    run_inference,
    sample_paths,
    summarize,
)
from asrel.core import read_core_file, write_core_file

CFG = GenConfig(tier_sizes=(6, 18, 60), multihome=2.0, peer_prob=0.3, paths=5000, seed=7)


def main():
    truth = generate(CFG)
    raw = sample_paths(truth, CFG)
    paths, _ = ingest_paths(raw)
    graph = build_graph(paths)
    true_top = set(truth.true_core().vertices)
    reference = ReferenceSet(dict(truth.labels))
    print(f"observed graph: {graph.n_vertices} ASes, {graph.n_edges} edges")
    print(f"true top clique: {sorted(true_top)}")

    shells = k_shell_decompose(graph)
    k_max = max(shells.values())
    print(f"\nk-shell decomposition: k_max = {k_max}")
    top_shell = sorted(v for v in graph.vertices if shells[v] == k_max)
    print(f"  vertices at k_max: {top_shell}")

    cores = {
        "greedy clique": greedy_max_clique(graph),
        "k-max core": k_max_core(graph),
        "grown by degree, size 6": grow_core(graph, "degree", 6),
        "grown by k-shell, size 10": grow_core(graph, "kshell", 10),
    }

    # Round-trip an external core list through the text format.
    buffer = io.StringIO()
    write_core_file(cores["greedy clique"], buffer)
    print("\ncore file format (first lines):")
    for line in buffer.getvalue().splitlines()[:4]:
        print(f"  {line}")
    buffer.seek(0)
    cores["reloaded from file"] = read_core_file(buffer, graph)

    lines = [f"{a} {b}" for a in sorted(true_top) for b in sorted(true_top) if a < b]
    cores["external pair list"] = load_external_core(lines, graph)

    print(f"\n{'core construction':<26} {'size':>4} {'edges':>5} "
          f"{'=true top?':>10} {'classified':>10} {'agree':>7}")
    for name, core in cores.items():
        result = run_inference(graph, paths, core)
        metrics = summarize(result, reference)
        exact = "yes" if set(core.vertices) == true_top else "no"
        print(f"{name:<26} {len(core.vertices):>4} {len(core.edges):>5} "
              f"{exact:>10} {metrics.pct_classified:>9.1f}% "
              f"{metrics.pct_match_reference_both:>6.2f}%")

    print("\nConstructions that recover the true summit score best. On a")
    print("sample this small the greedy clique can stop at an off-summit")
    print("clique seeded by a high-degree mid-tier hub, while the k-shell")
    print("nucleus recovers the exact top clique. Oversized grown cores pull")
    print("mid-tier ASes in and cost a little agreement, because intra-core")
    print("edges default to peering.")


if __name__ == "__main__":
    main()
