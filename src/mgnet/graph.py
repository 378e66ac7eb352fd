"""Undirected communication graphs with certified vertex-connectivity.

Everything the communication agent needs to lay out who-talks-with-whom:
an exact minimum-vertex-cut oracle, the single-node extension step that
preserves m-connectivity, and two topology generators (a randomized one
used before any attack is known, and an attack-aware one that avoids
compromised links) that share one input check.
The oracle's max-flows find augmenting paths by bidirectional BFS, and
it skips each pivot pair the expansion lemma proves unable to improve
the cut, which leaves every certificate as checking every pair gives it.
Convention: the complete graph on n nodes, K_1 included, has connectivity
n - 1. A supplied topology is not generated: the scenario holds it as one
Graph, graph.fixed, for a campaign. check_nodes is the package's one rule
for caller-supplied node ids, check_edges the one for node pairs (a graph's
edges and the attacked links alike), and require_connectivity the one for a
graph's 2f+1 fitness, which the generators and weight synthesis apply.
"""

from __future__ import annotations

import operator
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InfeasibleTopologyError

Edge = tuple[int, int]

_EDGE_LIST_HEADER = re.compile(r"#\s*nodes\s+(\d+)\s*$")


def _norm_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def check_nodes(nodes, n: int | None = None) -> tuple[int, ...]:
    """nodes as a sorted tuple of ints, else ValueError naming the first that is
    not an integer (operator.index: Python and numpy integers pass), is outside
    0..n-1 (any integer passes when n is None) or is repeated."""
    kept: set[int] = set()
    for v in nodes:
        try:
            i = operator.index(v)
        except TypeError:
            raise ValueError(f"node {v!r} is not an integer") from None
        if n is not None and not 0 <= i < n:
            raise ValueError(f"node {v} is outside 0..{n - 1}")
        if i in kept:
            raise ValueError(f"node {v} is repeated")
        kept.add(i)
    return tuple(sorted(kept))


def check_edges(pairs, n: int | None = None) -> frozenset[Edge]:
    """pairs as a set of normalized edges (i, j), i < j, each pair's ends passed
    through check_nodes against n: a self-loop is a repeated node."""
    return frozenset(check_nodes((i, j), n) for i, j in pairs)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..node_count-1.

    Edges are stored normalized as (i, j) with i < j; the value is
    immutable and hashable so periods can share topologies safely. Each
    node's neighbors and sorted closed neighbourhood are derived from the
    edges once, at construction, the certificate once, on first request.
    """

    node_count: int
    edges: frozenset[Edge]
    _neighbors: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _closed: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _certificate: "ConnectivityCertificate | None" = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 1:
            raise ValueError("node_count must be a positive integer")
        adjacent: list[set[int]] = [set() for _ in range(n)]
        for edge in self.edges:
            i, j = edge
            if not (type(i) is int and type(j) is int and 0 <= i < j < n):  # plain ints skip the rule
                i, j = check_nodes(edge, n)
                if (i, j) != edge:
                    raise ValueError(f"edge {edge} is not normalized")
            adjacent[i].add(j)
            adjacent[j].add(i)
        object.__setattr__(self, "_neighbors", tuple(frozenset(a) for a in adjacent))
        object.__setattr__(self, "_closed",
                           tuple(tuple(sorted(a | {i})) for i, a in enumerate(adjacent)))

    @classmethod
    def from_edges(cls, node_count: int, pairs) -> "Graph":
        return cls(node_count, check_edges(pairs, node_count))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset(combinations(range(n), 2)))

    def has_edge(self, i: int, j: int) -> bool:
        return _norm_edge(self._node(i), self._node(j)) in self.edges

    def _node(self, i: int) -> int:
        if not (type(i) is int and 0 <= i < self.node_count):  # a plain int in range skips the call
            (i,) = check_nodes((i,), self.node_count)
        return i

    def neighbors(self, i: int) -> frozenset[int]:
        return self._neighbors[self._node(i)]

    def closed_neighborhood(self, i: int) -> tuple[int, ...]:
        """Node i and its neighbors, sorted: the nodes whose values i sees."""
        return self._closed[self._node(i)]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def certificate(self) -> "ConnectivityCertificate":
        """vertex_connectivity(self), computed on the first call and kept."""
        if self._certificate is None:
            object.__setattr__(self, "_certificate", vertex_connectivity(self))
        return self._certificate

    def is_complete(self) -> bool:
        n = self.node_count
        return len(self.edges) == n * (n - 1) // 2

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        seen = {0}
        frontier = deque([0])
        while frontier:
            v = frontier.popleft()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.node_count

    def to_edge_list_text(self) -> str:
        lines = [f"# nodes {self.node_count}"]
        lines.extend(f"{i} {j}" for i, j in sorted(self.edges))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        node_count = None
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = _EDGE_LIST_HEADER.match(line)
                if header:
                    node_count = int(header.group(1))
                continue
            parts = line.split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ValueError(f"edge list line {lineno}: expected 'i j', got {line!r}")
            pairs.append((int(parts[0]), int(parts[1])))
        if node_count is None:
            node_count = 1 + max((max(p) for p in pairs), default=0)
        return cls.from_edges(node_count, pairs)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        lines.extend(f"  {v};" for v in range(self.node_count))
        lines.extend(f"  {i} -- {j};" for i, j in sorted(self.edges))
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Exact connectivity plus, for incomplete graphs, a minimum cut.

    Removing witness_cut disconnects the graph and no smaller node set
    does; complete graphs carry no cut, by the kappa = n - 1 convention.
    """

    kappa: int
    witness_cut: frozenset[int] | None


def _search_level(arcs: list[list[tuple[int, int]]], cap: list[int], frontier: list[int],
                  seen: list[int | None], other: list[int | None]) -> tuple[list[int], int | None]:
    """The next BFS level of one side of the augmenting-path search, over the
    (arc, vertex) pairs in arcs with residual capacity; seen[vertex] records
    the arc. Stops early at the first vertex the other side has seen."""
    level = []
    for u in frontier:
        for a, v in arcs[u]:
            if cap[a] and seen[v] is None:
                seen[v] = a
                if other[v] is not None:
                    return level, v
                level.append(v)
    return level, None


def _min_cut_between(out_arcs: list[list[tuple[int, int]]], in_arcs: list[list[tuple[int, int]]],
                     head: list[int], cap: list[int], s: int, t: int,
                     stop_at: int) -> frozenset[int] | None:
    """Minimal source-side minimum vertex cut of the non-adjacent pair (s, t),
    or None once stop_at units flow, as the pair cannot then beat the caller.

    cap, a fresh copy of the capacities, is used up as the residual. Each
    one-unit augmenting path comes from a bidirectional BFS, forward from
    s's exit over out_arcs and backward from t's entry over in_arcs, each
    step growing the smaller frontier, spliced at the first vertex both
    sides reach: the only one they share, so the path is simple. With no
    path left, the forward search runs on to its closure, which gives the
    cut; a backward side that ran dry can no longer meet it.
    """
    source, sink = 2 * s + 1, 2 * t
    for _ in range(stop_at):
        into, out_of = [None] * len(out_arcs), [None] * len(out_arcs)
        into[source] = out_of[sink] = -1  # reached, by no arc
        ahead, behind, meet = [source], [sink], None
        while ahead and meet is None:
            if behind and len(behind) < len(ahead):
                behind, meet = _search_level(in_arcs, cap, behind, out_of, into)
            else:
                ahead, meet = _search_level(out_arcs, cap, ahead, into, out_of)
        if meet is None:
            return frozenset(v for v in range(len(out_arcs) // 2)
                             if into[2 * v] is not None and into[2 * v + 1] is None)
        # back from meet to the source over the arcs into each vertex, then on to the sink
        for v, end, seen, step in ((meet, source, into, 1), (meet, sink, out_of, 0)):
            while v != end:
                a = seen[v]
                cap[a], cap[a ^ 1] = cap[a] - 1, cap[a ^ 1] + 1
                v = head[a ^ step]
    return None


def vertex_connectivity(g: Graph) -> ConnectivityCertificate:
    """Exact vertex connectivity with a witness cut for incomplete graphs;
    a complete graph, K_1 included, gets (n - 1, None) with no search.

    Minimizes the (s, t) vertex cut over a dominating family of pairs:
    a minimum-degree pivot against each of its non-neighbors, plus every
    non-adjacent pair of pivot neighbors. Any minimum cut either misses
    the pivot (first family finds it) or contains it, in which case the
    pivot has neighbors in two separated components (second family). The
    first strictly smaller cut wins, and the loop stops at the empty cut:
    a disconnected graph needs no special case, since that cut misses the
    pivot, and an isolated pivot runs no pair at all.

    A pivot pair runs only while its outcome is open (Even 1975; Esfahanian
    and Hakimi 1984). With k = len(best_cut), the nodes joined to the pivot
    by k disjoint paths are its neighbours, each target whose pair has run,
    and (the expansion lemma) each non-neighbour with k joined neighbours:
    a set S of at most k - 1 other nodes misses one, u, which reaches the
    pivot in G - S directly or as kappa(pivot, u) >= k > |S|. k only
    shrinks, so each skipped pair's flow would have returned None at its
    turn; the pairs that run, every neighbour pair among them, keep their
    order, stop_at and cut, so the certificate is the one every pair gives.

    The split network is built once as flat arrays: arc a runs to head[a]
    with capacity cap0[a], its reverse is a ^ 1, and out_arcs[u] and
    in_arcs[u] list the (arc, other end) pairs leaving and entering u.
    Each pair copies only cap0. Node v splits into entry 2v and exit 2v+1
    joined by a unit arc, so saturating it deletes v; edge arcs get a
    capacity no flow can reach. The endpoints' arcs are unit too, which is
    safe: the flow leaves s's exit and ends at t's entry, so no augmenting
    path crosses either arc, and the cut read off the residual (the
    minimal source-side one) is unique, whichever maximum flow found it.
    """
    n = g.node_count
    if g.is_complete():
        return ConnectivityCertificate(n - 1, None)

    pivot = min(range(n), key=g.degree)
    pivot_nbrs = sorted(g.neighbors(pivot))
    best_cut = frozenset(pivot_nbrs)

    # the k-th (tail, head) here is arc 2k, and arc 2k + 1 runs back
    forward = [(2 * v, 2 * v + 1) for v in range(n)]
    forward += [(2 * a + 1, 2 * b) for i, j in g.edges for a, b in ((i, j), (j, i))]
    head = [end for tail, tip in forward for end in (tip, tail)]
    cap0 = [1, 0] * n + [n + 2, 0] * (len(forward) - n)
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    in_arcs: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for a, v in enumerate(head):
        out_arcs[head[a ^ 1]].append((a, v))
        in_arcs[v].append((a, head[a ^ 1]))
    pairs = [(pivot, w) for w in range(n) if w != pivot and not g.has_edge(pivot, w)]
    pairs.extend((x, y) for x, y in combinations(pivot_nbrs, 2) if not g.has_edge(x, y))
    joined, links = set(), [0] * n  # links[u]: how many of u's neighbours are joined

    def join(work: list[int]) -> None:
        """Add work to joined, then every node the expansion lemma adds at len(best_cut)."""
        while work:
            v = work.pop()
            if v not in joined:
                joined.add(v)
                for u in g.neighbors(v):
                    links[u] += 1
                    if links[u] >= len(best_cut):
                        work.append(u)

    join([pivot, *pivot_nbrs])  # no non-neighbour links to the pivot itself
    for s, t in pairs:
        if not best_cut:
            break
        if s == pivot and t in joined:
            continue  # the flow would reach len(best_cut) and return None
        cut = _min_cut_between(out_arcs, in_arcs, head, cap0[:], s, t, len(best_cut))
        if cut is not None:
            best_cut = cut
            join([v for v in range(n) if links[v] >= len(best_cut)])
        join([t])
    return ConnectivityCertificate(len(best_cut), best_cut)


def extend_graph(g: Graph, m: int, targets=None, rng: np.random.Generator | None = None) -> Graph:
    """Add one node joined to m distinct existing nodes.

    Preserves m-connectivity when the caller has certified the input at
    kappa >= m; that precondition stays with the caller. Targets may be
    given explicitly or sampled uniformly from rng.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m > g.node_count:
        raise ValueError(f"cannot pick {m} distinct targets from {g.node_count} nodes")
    if targets is None:
        if rng is None:
            raise ValueError("need explicit targets or an rng to sample them")
        targets = rng.choice(g.node_count, size=m, replace=False)
    chosen = check_nodes(targets, g.node_count)
    if len(chosen) != m:
        raise ValueError(f"targets must be {m} distinct nodes")
    new = g.node_count
    return Graph(new + 1, g.edges | {(v, new) for v in chosen})


def _connectivity_target(n: int, f: int) -> int:
    """2f+1, the connectivity n nodes need for fault bound f, once (n, f) are checked."""
    if f < 0 or n < 1:
        raise ValueError(f"need n >= 1 and fault bound f >= 0, got n={n}, f={f}")
    m = 2 * f + 1
    if n < m:
        raise InfeasibleTopologyError(f"need at least {m} nodes for fault bound {f}, got {n}")
    return m


def require_connectivity(g: Graph, f: int) -> Graph:
    """g, once its certificate shows kappa >= min(2f+1, n - 1); else
    InfeasibleTopologyError naming the cut. Complete graphs, the bare seed
    clique and K_1 among them, pass by the kappa = n - 1 convention."""
    m = 2 * f + 1
    cert = g.certificate()
    if cert.kappa < min(m, g.node_count - 1):
        raise InfeasibleTopologyError(
            f"graph has vertex connectivity {cert.kappa} < 2f+1 = {m}; "
            f"witness cut {sorted(cert.witness_cut)}")
    return g


def _grow(seed: list[int], rest: list[int], m: int, barred: dict[int, set[int]],
          rng: np.random.Generator) -> frozenset[Edge]:
    """Edges of a clique on seed, then each node of rest joined to m random
    present nodes outside its barred partners, in the order given; every
    seed node is such a target, so each step has m to draw from."""
    present = list(seed)
    edges = {_norm_edge(a, b) for a, b in combinations(present, 2)}
    for v in rest:
        off = barred.get(v, ())
        safe = [p for p in present if p not in off]
        picks = rng.choice(len(safe), size=m, replace=False)
        edges.update(_norm_edge(v, safe[int(p)]) for p in picks)
        present.append(v)
    return frozenset(edges)


def generate_preventive(n: int, f: int, rng: np.random.Generator) -> Graph:
    """Randomized topology certified (2f+1)-vertex-connected.

    Builds a complete clique on 2f+1 randomly chosen nodes, repeatedly
    attaches each remaining node to 2f+1 random existing ones, then
    relabels everything with a fresh random permutation. Regenerating
    each decision period is what keeps an attacker from planning around
    a fixed layout.
    """
    m = _connectivity_target(n, f)
    order = [int(v) for v in rng.permutation(n)]
    edges = _grow(order[:m], order[m:], m, {}, rng)
    new = [int(v) for v in rng.permutation(n)]  # each node's final label
    return require_connectivity(Graph(n, frozenset(_norm_edge(new[i], new[j]) for i, j in edges)), f)


def generate_responsive(n: int, f: int, links: frozenset[Edge], rng: np.random.Generator) -> Graph:
    """Attack-aware topology using only uncompromised links, certified (2f+1)-connected.

    links are the attacked node pairs, checked by check_edges against n.
    Seeds a clique on 2f+1 nodes none of whose incident links are
    attacked, then extends one node at a time over safe links only.
    Raises when fewer than 2f+1 nodes touch no attacked link; no later
    step can run short, since every seed node is a safe target for it.
    """
    m = _connectivity_target(n, f)
    barred: dict[int, set[int]] = {}  # each node on an attacked link: its forbidden partners
    for i, j in check_edges(links, n):
        barred.setdefault(i, set()).add(j)
        barred.setdefault(j, set()).add(i)
    clean = [v for v in range(n) if v not in barred]
    if len(clean) < m:
        raise InfeasibleTopologyError(
            f"only {len(clean)} nodes have no attacked links; the seed clique needs {m}")
    seed = [clean[int(p)] for p in rng.choice(len(clean), size=m, replace=False)]
    rest = [int(v) for v in rng.permutation(n) if int(v) not in seed]
    return require_connectivity(Graph(n, _grow(seed, rest, m, barred, rng)), f)
