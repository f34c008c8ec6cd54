"""Walk the two-phase voting algorithm through three hand-sized corpora.

Each corpus is small enough to trace by hand: a single path over a known
core, a core placed off the summit so the true peak becomes ambiguous, and
a gap that only the peer-gap heuristic can close. Run with python3.
"""

from asrel import AsPath, CoreGraph, build_graph, edge_key, run_inference


def show(title, paths, core):
    print(f"\n=== {title} ===")
    for p in paths:
        print("  path:", " -> ".join(str(h) for h in p.hops))
    print("  core:", sorted(core.vertices), "core edges:", sorted(core.edges))
    graph = build_graph(paths)
    result = run_inference(graph, paths, core)
    print(f"  phase 2 rounds: {result.phase2_rounds}")
    # The votes stay in the run graph: customer votes by arc, so edge e's
    # c2p and p2c counts (low->high) are customer[2e] and customer[2e + 1],
    # and p2p and invalid votes by edge id.
    work = result.graph
    for key in sorted(graph.edges):
        cls = result.classifications[key]
        e = work.edge_index[key]
        votes = (
            f"votes c2p={work.customer[2 * e]} p2c={work.customer[2 * e + 1]} "
            f"p2p={work.p2p[e]} invalid={work.invalid[e]}"
        )
        print(f"  edge {key}: {cls.rel.value:<12} via {cls.method:<16} {votes}")
    return result


def main():
    print("A c2p edge means the lower-numbered AS is the customer; p2c the")
    print("provider. Votes are counted per path crossing, relative to the core.")

    # One path straight over a two-vertex core: the uphill side votes c2p,
    # the core edge defaults to p2p, the downhill side votes p2c.
    path = AsPath((1, 2, 3, 4, 5, 6, 7))
    show(
        "single path over the core {4, 5}",
        [path],
        CoreGraph({4, 5}, {edge_key(4, 5)}),
    )

    print("\nNow move the core off the summit. The detour path 2-3-8-5-6 tells")
    print("us 8 sits above its neighbors, and those votes anchor (2,3) as c2p")
    print("and (5,6) as p2c. The main path's own summit edges (3,4) and (4,5)")
    print("sit between those anchors with no core crossing of their own; two")
    print("unknowns in a row cannot both be proven, so they receive no votes")
    print("at all and stay unclassified, by design, rather than guessed.")
    show(
        "core {8} beside the true summit",
        [AsPath((1, 2, 3, 4, 5, 6, 7)), AsPath((2, 3, 8, 5, 6))],
        CoreGraph({8}),
    )

    print("\nFinally a corpus where votes never reach edge (3,4) itself, but")
    print("its neighbors are settled: left neighbor c2p, right neighbor p2c.")
    print("A single such gap inside a path is provably peered, and the")
    print("gap-p2p heuristic closes it without touching anything else.")
    result = show(
        "gap closed by the p2p heuristic, core {9}",
        [AsPath((1, 2, 3, 4, 5, 6)), AsPath((1, 2, 3, 9)), AsPath((9, 4, 5, 6))],
        CoreGraph({9}),
    )
    gap = result.classifications[edge_key(3, 4)]
    print(f"\n  the gap edge (3, 4) ended as {gap.rel.value} via {gap.method}")


if __name__ == "__main__":
    main()
