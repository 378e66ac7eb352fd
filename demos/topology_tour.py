"""Topology generation and certification tour.

Three stops: randomized preventive graphs certified at kappa >= 2f+1,
responsive regeneration that routes around attacked links, and the
extension scheme growing a graph one node at a time without losing
connectivity. Writes a DOT rendering of the last graph to
out/topology_tour/.
"""

from pathlib import Path

import numpy as np

from mgnet import (
    Graph,
    extend_graph,
    generate_preventive,
    generate_responsive,
    vertex_connectivity,
)
from mgnet.graph import check_edges

OUT = Path("out/topology_tour")
SEED = 7


def main():
    rng = np.random.default_rng(SEED)

    print("preventive generation: fresh random topology each decision period")
    for n, f in ((6, 1), (9, 1), (9, 2), (12, 2)):
        g = generate_preventive(n, f, rng)
        cert = vertex_connectivity(g)
        print(f"  n={n:>2} f={f}: {len(g.edges):>2} edges, "
              f"certified kappa={cert.kappa} (need >= {2 * f + 1})")

    print("\nresponsive generation: same bar, but attacked links are off limits")
    # the seed clique needs 2f+1 nodes with fully clean links, so three
    # attacked pairs (six tainted nodes) still leave room at n = 12
    attacks = check_edges([(0, 1), (2, 5), (3, 7)])
    g = generate_responsive(12, 2, attacks, rng)
    cert = vertex_connectivity(g)
    used = g.edges & attacks
    print(f"  n=12 f=2 avoiding {sorted(attacks)}: kappa={cert.kappa}, "
          f"attacked links used: {sorted(used) or 'none'}")

    print("\nextension scheme: grow K4 to ten nodes, three links per newcomer")
    g = Graph.complete(4)
    while g.node_count < 10:
        g = extend_graph(g, 3, rng=rng)
        cert = vertex_connectivity(g)
        print(f"  {g.node_count:>2} nodes: kappa={cert.kappa}"
              + ("" if cert.witness_cut is None
                 else f", a minimum cut is {sorted(cert.witness_cut)}"))
        assert cert.kappa >= 3

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "grown.dot").write_text(g.to_dot())
    (OUT / "grown.edges").write_text(g.to_edge_list_text())
    print(f"\nwrote {OUT}/grown.dot (render with: dot -Tpng {OUT}/grown.dot)")


if __name__ == "__main__":
    main()
