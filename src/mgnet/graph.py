"""Undirected communication graphs with certified vertex-connectivity.

Everything the communication agent needs to lay out who-talks-with-whom:
an exact minimum-vertex-cut oracle, the single-node extension step that
preserves m-connectivity, and two topology generators (a randomized one
used before any attack is known, and an attack-aware one that avoids
compromised links). Convention: the complete graph on n nodes has
connectivity n - 1, so the (2f+1)-node seed clique certifies at 2f.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InfeasibleTopologyError, InternalInvariantError

Edge = tuple[int, int]

_EDGE_LIST_HEADER = re.compile(r"#\s*nodes\s+(\d+)\s*$")
_DOT_EDGE = re.compile(r"^(\d+)\s*--\s*(\d+)\s*;$")
_DOT_NODE = re.compile(r"^(\d+)\s*;$")


def _norm_edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..node_count-1.

    Edges are stored normalized as (i, j) with i < j; the value is
    immutable and hashable so periods can share topologies safely. Each
    node's neighbor set is derived from the edges once, at construction.
    """

    node_count: int
    edges: frozenset[Edge]
    _neighbors: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be a positive integer")
        adjacent: list[set[int]] = [set() for _ in range(self.node_count)]
        for i, j in self.edges:
            if not (0 <= i < j < self.node_count):
                raise ValueError(f"edge ({i}, {j}) out of range or not normalized")
            adjacent[i].add(j)
            adjacent[j].add(i)
        object.__setattr__(self, "_neighbors", tuple(frozenset(a) for a in adjacent))

    @classmethod
    def from_edges(cls, node_count: int, pairs) -> "Graph":
        return cls(node_count, frozenset(_norm_edge(int(i), int(j)) for i, j in pairs))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset(combinations(range(n), 2)))

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return _norm_edge(i, j) in self.edges

    def neighbors(self, i: int) -> frozenset[int]:
        if not 0 <= i < self.node_count:
            raise ValueError(f"node {i} out of range for {self.node_count} nodes")
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

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

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count), dtype=int)
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1
        return a

    def relabeled(self, perm) -> "Graph":
        """Apply the permutation node i -> perm[i]."""
        perm = [int(p) for p in perm]
        if sorted(perm) != list(range(self.node_count)):
            raise ValueError("perm must be a permutation of the node ids")
        return Graph.from_edges(self.node_count, ((perm[i], perm[j]) for i, j in self.edges))

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

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        lines.extend(f"  {v};" for v in range(self.node_count))
        lines.extend(f"  {i} -- {j};" for i, j in sorted(self.edges))
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dot(cls, text: str) -> "Graph":
        nodes: set[int] = set()
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("graph") or line == "}":
                continue
            edge = _DOT_EDGE.match(line)
            if edge:
                i, j = int(edge.group(1)), int(edge.group(2))
                pairs.append((i, j))
                nodes.update((i, j))
                continue
            node = _DOT_NODE.match(line)
            if node:
                nodes.add(int(node.group(1)))
                continue
            raise ValueError(f"dot line {lineno}: unrecognized statement {line!r}")
        node_count = 1 + max(nodes, default=0)
        return cls.from_edges(node_count, pairs)


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Exact connectivity plus, for incomplete graphs, a minimum cut.

    Removing witness_cut disconnects the graph and no smaller node set
    does; complete graphs carry no cut, by the kappa = n - 1 convention.
    """

    kappa: int
    witness_cut: frozenset[int] | None


def _min_cut_between(n: int, edges: frozenset[Edge], s: int, t: int,
                     stop_at: int | None = None) -> tuple[int, frozenset[int] | None]:
    """Minimum vertex cut separating the non-adjacent pair (s, t).

    Every node v splits into entry 2v and exit 2v+1 joined by a unit
    capacity arc, so saturating that arc models deleting v; endpoint
    splits and edge arcs get a capacity no flow can reach. Augments one
    unit per round (Edmonds-Karp). When the flow reaches stop_at the
    pair cannot improve the caller's best cut and (stop_at, None) is
    returned without extracting a cut.
    """
    big = n + 2
    cap: list[dict[int, int]] = [{} for _ in range(2 * n)]

    def add_arc(u: int, v: int, c: int) -> None:
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for v in range(n):
        add_arc(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for i, j in edges:
        add_arc(2 * i + 1, 2 * j, big)
        add_arc(2 * j + 1, 2 * i, big)

    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while stop_at is None or flow < stop_at:
        parent: dict[int, int | None] = {source: None}
        frontier = deque([source])
        while frontier and sink not in parent:
            u = frontier.popleft()
            for v, residual in cap[u].items():
                if residual > 0 and v not in parent:
                    parent[v] = u
                    frontier.append(v)
        if sink not in parent:
            reach = set(parent)
            cut = frozenset(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)
            return flow, cut
        push = big
        v = sink
        while parent[v] is not None:
            u = parent[v]
            push = min(push, cap[u][v])
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[u][v] -= push
            cap[v][u] += push
            v = u
        flow += push
    return flow, None


def vertex_connectivity(g: Graph) -> ConnectivityCertificate:
    """Exact vertex connectivity with a witness cut for incomplete graphs.

    Minimizes the (s, t) vertex cut over a dominating family of pairs:
    a minimum-degree pivot against each of its non-neighbors, plus every
    non-adjacent pair of pivot neighbors. Any minimum cut either misses
    the pivot (first family finds it) or contains it, in which case the
    pivot has neighbors in two separated components (second family).
    """
    n = g.node_count
    if n < 2:
        raise ValueError("vertex connectivity needs at least 2 nodes")
    if g.is_complete():
        return ConnectivityCertificate(n - 1, None)
    if not g.is_connected():
        return ConnectivityCertificate(0, frozenset())

    pivot = min(range(n), key=g.degree)
    pivot_nbrs = sorted(g.neighbors(pivot))
    best = len(pivot_nbrs)
    best_cut = frozenset(pivot_nbrs)

    pairs = [(pivot, w) for w in range(n) if w != pivot and not g.has_edge(pivot, w)]
    pairs.extend((x, y) for x, y in combinations(pivot_nbrs, 2) if not g.has_edge(x, y))
    for s, t in pairs:
        value, cut = _min_cut_between(n, g.edges, s, t, stop_at=best)
        if cut is not None and value < best:
            best, best_cut = value, cut
    return ConnectivityCertificate(best, best_cut)


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
        targets = [int(v) for v in rng.choice(g.node_count, size=m, replace=False)]
    chosen = {int(v) for v in targets}
    if len(chosen) != len(list(targets)) or len(chosen) != m:
        raise ValueError(f"targets must be {m} distinct nodes")
    for v in chosen:
        if not 0 <= v < g.node_count:
            raise ValueError(f"target node {v} out of range")
    new = g.node_count
    return Graph(new + 1, g.edges | {(v, new) for v in chosen})


@dataclass(frozen=True)
class LinkAttackSet:
    """Communication links an adversary has compromised."""

    forbidden_edges: frozenset[Edge] = frozenset()

    @classmethod
    def from_pairs(cls, pairs) -> "LinkAttackSet":
        return cls(frozenset(_norm_edge(int(i), int(j)) for i, j in pairs))

    def forbids(self, i: int, j: int) -> bool:
        return _norm_edge(i, j) in self.forbidden_edges

    def touches(self, v: int) -> bool:
        return any(v in e for e in self.forbidden_edges)

    def validate_range(self, node_count: int) -> None:
        for i, j in self.forbidden_edges:
            if j >= node_count or i < 0:
                raise ValueError(f"attacked link ({i}, {j}) out of range for {node_count} nodes")


def generate_preventive(n: int, f: int, rng: np.random.Generator) -> Graph:
    """Randomized topology certified (2f+1)-vertex-connected.

    Builds a complete clique on 2f+1 randomly chosen nodes, repeatedly
    attaches each remaining node to 2f+1 random existing ones, then
    relabels everything with a fresh random permutation. Regenerating
    each decision period is what keeps an attacker from planning around
    a fixed layout.
    """
    if f < 0:
        raise ValueError("fault bound f must be non-negative")
    m = 2 * f + 1
    if n < m:
        raise InfeasibleTopologyError(f"need at least {m} nodes for fault bound {f}, got {n}")
    order = [int(v) for v in rng.permutation(n)]
    present = order[:m]
    edges = {_norm_edge(a, b) for a, b in combinations(present, 2)}
    for v in order[m:]:
        picks = rng.choice(len(present), size=m, replace=False)
        edges.update(_norm_edge(v, present[int(p)]) for p in picks)
        present.append(v)
    g = Graph(n, frozenset(edges)).relabeled([int(p) for p in rng.permutation(n)])
    if n >= m + 1:
        cert = vertex_connectivity(g)
        if cert.kappa < m:
            raise InternalInvariantError(
                f"preventive generator produced kappa={cert.kappa} < {m}")
    return g


def generate_responsive(n: int, f: int, attacks: LinkAttackSet, rng: np.random.Generator) -> Graph:
    """Attack-aware topology using only uncompromised links.

    Seeds a clique on 2f+1 nodes none of whose incident links are
    attacked, then extends one node at a time over safe links only.
    Raises when the seed pool is short or an extension step cannot find
    2f+1 safe targets; there is no backtracking over addition order.
    """
    if f < 0:
        raise ValueError("fault bound f must be non-negative")
    m = 2 * f + 1
    if n < m:
        raise InfeasibleTopologyError(f"need at least {m} nodes for fault bound {f}, got {n}")
    attacks.validate_range(n)
    clean = [v for v in range(n) if not attacks.touches(v)]
    if len(clean) < m:
        raise InfeasibleTopologyError(
            f"only {len(clean)} nodes have no attacked links; the seed clique needs {m}")
    picks = rng.choice(len(clean), size=m, replace=False)
    present = [clean[int(p)] for p in picks]
    edges = {_norm_edge(a, b) for a, b in combinations(present, 2)}
    in_graph = set(present)
    remaining = [int(v) for v in rng.permutation(n) if int(v) not in in_graph]
    for step, v in enumerate(remaining):
        safe = [p for p in present if not attacks.forbids(v, p)]
        if len(safe) < m:
            raise InfeasibleTopologyError(
                f"extension step {step}: node {v} has only {len(safe)} safe links "
                f"to the current graph, needs {m}")
        picks = rng.choice(len(safe), size=m, replace=False)
        edges.update(_norm_edge(v, safe[int(p)]) for p in picks)
        present.append(v)
    g = Graph(n, frozenset(edges))
    if any(attacks.forbids(i, j) for i, j in g.edges):
        raise InternalInvariantError("responsive generator used a forbidden link")
    if n >= m + 1:
        cert = vertex_connectivity(g)
        if cert.kappa < m:
            raise InternalInvariantError(
                f"responsive generator produced kappa={cert.kappa} < {m}")
    return g
