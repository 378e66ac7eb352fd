"""Graph model, serialization, the certified connectivity oracle, and the node-id rule."""

import re
from itertools import combinations, permutations

import numpy as np
import pytest

from mgnet import (ConnectivityCertificate, Graph, InfeasibleTopologyError, InjectionSchedule,
                   RoundEngine, build_observability_stack, decode_known_faults, extend_graph,
                   generate_preventive, generate_responsive, load_golden_scenario,
                   metropolis_weights, run_updates, simulator, vertex_connectivity)
from mgnet import graph as graph_module
from mgnet.graph import check_edges, check_nodes, require_connectivity

from conftest import REF_SUPPLIES, bench_workloads, relabeled, survivors_graph
from oracles import brute_force_certificate, brute_force_connectivity, brute_force_pair_cut


def planted_separator(rng, k: int, p: int, q: int) -> Graph:
    """Cliques of p and q nodes (both above k) joined through a k-node clique S,
    then relabelled. Separator node i links port i of each block and maybe
    other ports, so each block's k ports are minimum cuts beside S itself."""
    sep, a, b = range(k), range(k, k + p), range(k + p, k + p + q)
    edges = [*combinations(sep, 2), *combinations(a, 2), *combinations(b, 2)]
    for i in sep:
        edges += [(i, a[j]) for j in range(k) if j == i or rng.random() < 0.3]
        edges += [(i, b[j]) for j in range(k) if j == i or rng.random() < 0.3]
    return relabeled(Graph.from_edges(k + p + q, edges), rng.permutation(k + p + q))


def every_pair_certificate(g: Graph) -> ConnectivityCertificate:
    """vertex_connectivity with no pair skipped: graph._min_cut_between on every
    pair of the dominating family in turn, with the running stop_at."""
    n = g.node_count
    if g.is_complete():
        return ConnectivityCertificate(n - 1, None)
    pivot = min(range(n), key=g.degree)
    nbrs = sorted(g.neighbors(pivot))
    pairs = [(pivot, w) for w in range(n) if w != pivot and w not in nbrs]
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if not g.has_edge(x, y)]
    best = frozenset(nbrs)
    for s, t in pairs:
        if not best:
            break
        cut = graph_module._min_cut_between(g, s, t, len(best))
        if cut is not None:
            best = cut
    return ConnectivityCertificate(len(best), best)


def separated_halves(rng, half: int, f: int, k: int) -> Graph:
    """Two preventive graphs on `half` nodes each (minimum degree 2f+1), ids
    0..half-1 and half..2half-1, joined through k more nodes that each link
    2f+1 random nodes of either half: kappa is k when k <= 2f."""
    a, b = (generate_preventive(half, f, rng) for _ in range(2))
    edges = [*a.edges, *((i + half, j + half) for i, j in b.edges)]
    for s in range(2 * half, 2 * half + k):
        for offset in (0, half):
            edges += [(s, offset + int(v)) for v in rng.choice(half, 2 * f + 1, replace=False)]
    return Graph.from_edges(2 * half + k, edges)


def pendant_pair(rng, n: int, f: int) -> Graph:
    """A preventive graph on n nodes plus two adjacent nodes joined to the same
    2f random nodes, one fewer than the minimum degree, then relabelled: those
    2f nodes are a minimum cut that misses the pivot."""
    g = generate_preventive(n, f, rng)
    port = [int(v) for v in rng.choice(n, 2 * f, replace=False)]
    edges = [*g.edges, (n, n + 1), *((v, w) for v in port for w in (n, n + 1))]
    return relabeled(Graph.from_edges(n + 2, edges), rng.permutation(n + 2))


def pivot_in_cut(rng, half: int, f: int, a: int, x: int) -> Graph:
    """Two preventive graphs on `half` nodes each (minimum degree 2f+1), then a
    node 2half joined to a random nodes of each, then x nodes each joined to
    2f+1 random nodes of each. With 2 <= a <= f and x <= 2a - 2, node 2half
    is the pivot, and it and the x nodes form a cut smaller than any the
    pivot's own pairs find."""
    g = separated_halves(rng, half, f, 0)
    hub = 2 * half
    edges = [*g.edges, *((hub, offset + int(v)) for offset in (0, half)
                         for v in rng.choice(half, a, replace=False))]
    for s in range(hub + 1, hub + 1 + x):
        for offset in (0, half):
            edges += [(s, offset + int(v)) for v in rng.choice(half, 2 * f + 1, replace=False)]
    return Graph.from_edges(hub + 1 + x, edges)


def traced_flows(monkeypatch) -> list:
    """(s, t, stop_at, cut) of every graph._min_cut_between call from now on."""
    flows = []
    real = graph_module._min_cut_between

    def traced(g, s, t, stop_at):
        flows.append((s, t, stop_at, real(g, s, t, stop_at)))
        return flows[-1][-1]

    monkeypatch.setattr(graph_module, "_min_cut_between", traced)
    return flows


def assert_prunes_only_idle_pairs(g: Graph, flows: list) -> list:
    """Assert vertex_connectivity(g) gives every_pair_certificate(g) and runs
    each pair whose cut lowers the bound, as that does; return the pairs run.
    flows is traced_flows' list."""
    flows.clear()
    reference = every_pair_certificate(g)
    gains = [(s, t, stop_at, cut) for s, t, stop_at, cut in flows if cut is not None]
    flows.clear()
    assert vertex_connectivity(g) == reference
    assert [flow for flow in flows if flow[-1] is not None] == gains
    return [(s, t) for s, t, _, _ in flows]


class TestGraphBasics:
    def test_edges_normalize_and_deduplicate(self):
        g = Graph.from_edges(4, [(2, 1), (1, 2), (0, 3)])
        assert g.edges == frozenset({(1, 2), (0, 3)})
        assert g.has_edge(2, 1) and g.has_edge(1, 2)
        assert not g.has_edge(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="node 1 is repeated"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match=r"node 3 is outside 0\.\.2"):
            Graph.from_edges(3, [(0, 3)])

    def test_node_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Graph(0, frozenset())

    def test_neighbors_and_degree(self, ref_graph):
        assert sorted(ref_graph.neighbors(0)) == [1, 2, 3]
        assert ref_graph.degree(1) == 4
        with pytest.raises(ValueError):
            ref_graph.neighbors(6)

    @pytest.mark.parametrize("kind", ["golden", "generated"])
    def test_closed_neighborhood_is_the_selector(self, kind, ref_weights):
        w = ref_weights if kind == "golden" else metropolis_weights(
            generate_preventive(40, 2, np.random.default_rng(8)))
        g, n = w.graph, w.graph.node_count
        for i in range(n):
            assert g.closed_neighborhood(i) == tuple(sorted({i} | g.neighbors(i)))
            assert w.selector(i) == g.closed_neighborhood(i)
        for bad in (-1, n):
            with pytest.raises(ValueError, match=rf"node {bad} is outside 0\.\.{n - 1}"):
                g.closed_neighborhood(bad)
            with pytest.raises(ValueError, match=rf"node {bad} is outside 0\.\.{n - 1}"):
                w.selector(bad)

    def test_complete_and_connected(self):
        assert Graph.complete(5).is_complete()
        assert Graph.complete(1).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()


class TestGraphSerialization:
    def test_edge_list_round_trip(self, ref_graph):
        assert Graph.from_edge_list_text(ref_graph.to_edge_list_text()) == ref_graph

    def test_edge_list_keeps_isolated_trailing_node(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert Graph.from_edge_list_text(g.to_edge_list_text()) == g

    def test_edge_list_without_header_infers_node_count(self):
        g = Graph.from_edge_list_text("0 1\n1 3\n")
        assert g.node_count == 4
        assert g.edges == frozenset({(0, 1), (1, 3)})

    def test_edge_list_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            Graph.from_edge_list_text("0 1\n1 -- 2\n")

    def test_dot_lists_every_node_then_every_edge(self):
        g = Graph.from_edges(3, [(1, 0)])
        assert g.to_dot() == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n}\n"


class TestVertexConnectivity:
    def test_reference_graph_certificate(self, ref_graph):
        cert = vertex_connectivity(ref_graph)
        assert cert.kappa == 3
        assert cert.witness_cut == frozenset({1, 2, 3})

    def test_witness_cut_actually_disconnects(self, ref_graph):
        cert = vertex_connectivity(ref_graph)
        # the remnant holds the survivors only: cut nodes kept as isolated
        # vertices would leave it disconnected whatever the cut
        remnant = survivors_graph(ref_graph, cert.witness_cut)
        assert remnant.node_count == 6 - cert.kappa
        assert not remnant.is_connected()

    def test_complete_graph_convention(self):
        cert = vertex_connectivity(Graph.complete(4))
        assert cert == ConnectivityCertificate(3, None)

    def test_disconnected_graph(self):
        cert = vertex_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert cert.kappa == 0
        assert cert.witness_cut == frozenset()

    def test_path_cycle_star(self):
        assert vertex_connectivity(Graph.from_edges(5, [(i, i + 1) for i in range(4)])).kappa == 1
        cycle = [(i, (i + 1) % 6) for i in range(6)]
        assert vertex_connectivity(Graph.from_edges(6, cycle)).kappa == 2
        star = [(0, i) for i in range(1, 6)]
        cert = vertex_connectivity(Graph.from_edges(6, star))
        assert cert.kappa == 1 and cert.witness_cut == frozenset({0})

    def test_minimum_cut_through_the_pivot(self):
        # node 0, of minimum degree, and node 1 join two K5s and form the only
        # 2-cut; 0 against any non-neighbour is a 3-cut, so only the pairs
        # of 0's neighbours find the cut that contains it
        edges = [*combinations(range(2, 7), 2), *combinations(range(7, 12), 2),
                 (0, 2), (0, 3), (0, 7), (0, 8), *((1, v) for v in (4, 5, 6, 9, 10, 11))]
        cert = vertex_connectivity(Graph.from_edges(12, edges))
        assert cert == ConnectivityCertificate(2, frozenset({0, 1}))

    def test_second_unit_of_flow_reroutes_the_first(self):
        # 0-1-2-7 is the only shortest path from 0 to 7, and the two disjoint
        # paths are 0-1-4-5-7 and 0-3-6-2-7: the second unit must reach 2's entry
        # from 6 and cancel the arc 1 -> 2 back to 1's exit
        g = Graph.from_edges(8, [(0, 1), (0, 3), (1, 2), (2, 7), (1, 4), (4, 5), (5, 7),
                                 (3, 6), (6, 2)])
        assert graph_module._min_cut_between(g, 0, 7, 2) is None
        assert graph_module._min_cut_between(g, 0, 7, 3) == frozenset({1, 3})
        cert = vertex_connectivity(g)
        assert cert == ConnectivityCertificate(2, frozenset({1, 3}))
        assert (cert.kappa, cert.witness_cut) == brute_force_certificate(8, g.edges)

    def test_each_pair_flow_reaches_the_oracle_cut(self):
        # run past the pair's connectivity, a flow reroutes earlier units again and
        # again, and each later search reads the residual those leave
        rng = np.random.default_rng(53)
        for _ in range(100):
            n, p = int(rng.integers(5, 10)), rng.uniform(0.3, 0.7)
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            for s, t in permutations(range(n), 2):
                if not g.has_edge(s, t):
                    cut = brute_force_pair_cut(n, g.edges, s, t)
                    assert graph_module._min_cut_between(g, s, t, n) == cut
                    assert graph_module._min_cut_between(g, s, t, len(cut)) is None

    def test_single_node_is_complete(self):
        # K_1 is complete, so the kappa = n - 1 convention gives 0 and no cut
        assert vertex_connectivity(Graph(1, frozenset())) == ConnectivityCertificate(0, None)

    def test_certificate_is_computed_once_per_graph(self, monkeypatch):
        calls = []
        real = graph_module.vertex_connectivity
        monkeypatch.setattr(graph_module, "vertex_connectivity",
                            lambda g: calls.append(g) or real(g))
        cycle = [(i, (i + 1) % 6) for i in range(6)]
        g = Graph.from_edges(6, cycle)
        assert g.certificate() is g.certificate()
        assert g.certificate() == real(g) == ConnectivityCertificate(2, g.certificate().witness_cut)
        assert len(calls) == 1
        # the memo is no part of the value
        twin = Graph.from_edges(6, cycle)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)

    def test_matches_brute_force_on_random_graphs(self):
        # dual route: max-flow certificate vs exhaustive subset removal
        rng = np.random.default_rng(1813)
        for _ in range(150):
            n = int(rng.integers(4, 8))
            density = float(rng.uniform(0.2, 0.9))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            g = Graph.from_edges(n, pairs)
            cert = vertex_connectivity(g)
            assert cert.kappa == brute_force_connectivity(n, pairs)
            if cert.witness_cut is not None and g.is_connected():
                assert len(cert.witness_cut) == cert.kappa
                assert not survivors_graph(g, cert.witness_cut).is_connected()

    def test_witness_cut_matches_the_oracle_on_random_graphs(self):
        # the oracle walks every pair of the family and finds each pair's cut by subset search
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            density = float(rng.uniform(0.1, 0.95))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            cert = vertex_connectivity(Graph.from_edges(n, pairs))
            assert (cert.kappa, cert.witness_cut) == brute_force_certificate(n, pairs)

    def test_witness_cut_matches_the_oracle_on_planted_separators(self):
        # several minimum cuts each: which one is the witness depends on the pivot,
        # the pair order and, per pair, the minimal source side
        rng = np.random.default_rng(77)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            g = planted_separator(rng, k, int(rng.integers(k + 1, k + 4)),
                                  int(rng.integers(k + 1, k + 4)))
            cert = vertex_connectivity(g)
            assert cert.kappa == k
            assert (cert.kappa, cert.witness_cut) == brute_force_certificate(g.node_count, g.edges)

    def test_pair_loop_stops_at_the_empty_cut(self, monkeypatch):
        half = generate_preventive(30, 2, np.random.default_rng(5))
        flows = traced_flows(monkeypatch)
        # an isolated pivot starts at the empty cut and runs no pair
        assert vertex_connectivity(Graph(31, half.edges)) == ConnectivityCertificate(0, frozenset())
        assert flows == []
        # two disjoint copies: the pivot's first pair across them is the last pair run
        twins = Graph(60, half.edges | {(i + 30, j + 30) for i, j in half.edges})
        assert vertex_connectivity(twins) == ConnectivityCertificate(0, frozenset())
        results = [cut for *_, cut in flows]
        assert results[-1] == frozenset()
        assert frozenset() not in results[:-1]

    def test_pruning_changes_no_certificate_on_generated_graphs(self, monkeypatch):
        rng = np.random.default_rng(23)
        attacks = check_edges([(0, 1), (2, 3), (5, 9), (10, 19), (4, 17)])
        flows = traced_flows(monkeypatch)
        for n in (20, 33, 50, 80, 120):
            for f in (1, 2, 3):
                for g in (generate_preventive(n, f, rng), generate_responsive(n, f, attacks, rng)):
                    assert_prunes_only_idle_pairs(g, flows)

    def test_pruning_changes_no_certificate_on_large_planted_separators(self, monkeypatch):
        rng = np.random.default_rng(41)
        flows = traced_flows(monkeypatch)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            g = planted_separator(rng, k, int(rng.integers(k + 1, k + 25)),
                                  int(rng.integers(k + 1, k + 25)))
            assert_prunes_only_idle_pairs(g, flows)
            assert g.certificate().kappa == k

    def test_pruning_changes_no_certificate_when_kappa_drops_after_the_closure(self, monkeypatch):
        # kappa is below the minimum degree, and on half the graphs or more the pivot's
        # pairs skip a target before the first pair whose cut lowers the bound
        rng = np.random.default_rng(8)
        halves = [separated_halves(rng, half, f, k) for half in (20, 30, 45)
                  for f in (1, 2) for k in range(1, 2 * f + 1)]
        graphs = halves + [relabeled(g, rng.permutation(g.node_count)) for g in halves]
        graphs += [pendant_pair(rng, n, f) for n in (20, 40, 70, 118) for f in (1, 2, 3)
                   for _ in range(2)]
        flows = traced_flows(monkeypatch)
        early = 0
        for g in graphs:
            pivot = min(range(g.node_count), key=g.degree)
            ran = assert_prunes_only_idle_pairs(g, flows)
            drop = next(t for s, t, _, cut in flows if cut is not None)
            assert g.certificate().kappa < g.degree(pivot)
            early += any((pivot, w) not in ran for w in range(drop)
                         if w != pivot and not g.has_edge(pivot, w))
        assert early >= len(graphs) // 2

    def test_pruning_keeps_every_neighbour_pair(self, monkeypatch):
        # the only cuts below the pivot's own pairs' hold the pivot, and only
        # pairs of its neighbours find them
        rng = np.random.default_rng(12)
        flows = traced_flows(monkeypatch)
        for half in (20, 40):
            for f in (2, 3):
                for a in range(2, f + 1):
                    for x in range(2 * a - 1):
                        g = pivot_in_cut(rng, half, f, a, x)
                        hub = 2 * half
                        ran = assert_prunes_only_idle_pairs(g, flows)
                        assert g.certificate() == ConnectivityCertificate(
                            1 + x, frozenset(range(hub, hub + 1 + x)))
                        nbrs = sorted(g.neighbors(hub))
                        assert [(s, t) for s, t in ran if s != hub] == [
                            (s, t) for s, t in combinations(nbrs, 2) if not g.has_edge(s, t)]

    def test_baseline_large_graph_runs_few_max_flows(self, monkeypatch):
        workloads = bench_workloads()
        scenario, agent = workloads.build(workloads.load_specs()["baseline_large"]["inputs"], 1)
        flows = traced_flows(monkeypatch)
        ran = assert_prunes_only_idle_pairs(simulator._topology(scenario, agent, 0), flows)
        # 16 of the pivot's 114 pairs, then its 10 non-adjacent neighbour pairs;
        # checking every pair runs all 124
        assert len(ran) <= 26


class TestRequireConnectivity:
    """require_connectivity takes the fault bound f and forms m = 2f+1 itself."""

    @pytest.mark.parametrize("n, f", [(1, 0), (1, 1), (1, 3), (3, 1), (3, 3), (3, 5), (6, 1),
                                      (6, 3)])
    def test_complete_graphs_pass_by_convention(self, n, f):
        # kappa(K_n) = n - 1 meets min(2f+1, n - 1) whether or not n reaches 2f+1
        g = Graph.complete(n)
        assert require_connectivity(g, f) is g

    def test_an_incomplete_graph_needs_m(self):
        # m = 2f+1: a 5-cycle (kappa 2) is fit for f = 0 and not for f = 1
        cycle = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert require_connectivity(cycle, 0) is cycle
        with pytest.raises(InfeasibleTopologyError, match=r"^graph has vertex connectivity 2 < "
                           r"2f\+1 = 3; witness cut \[\d, \d\]$"):
            require_connectivity(cycle, 1)
        # below n - 1 an incomplete graph can never reach min(2f+1, n - 1)
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InfeasibleTopologyError, match=r"connectivity 1 < 2f\+1 = 5; witness cut \[1\]"):
            require_connectivity(path, 2)


class TestExtendGraph:
    def test_explicit_targets(self):
        for targets in ([0, 2], iter([0, 2]), (v for v in (2, 0))):
            g = extend_graph(Graph.complete(3), 2, targets=targets)
            assert g.node_count == 4
            assert g.has_edge(3, 0) and g.has_edge(3, 2) and not g.has_edge(3, 1)

    def test_m_equal_to_node_count_links_everything(self):
        g = extend_graph(Graph.complete(3), 3, targets=[0, 1, 2])
        assert g == Graph.complete(4)

    def test_m_larger_than_node_count_rejected(self):
        with pytest.raises(ValueError, match="distinct targets"):
            extend_graph(Graph.complete(3), 4, targets=[0, 1, 2, 2])

    def test_duplicate_or_out_of_range_targets(self):
        with pytest.raises(ValueError, match="node 1 is repeated"):
            extend_graph(Graph.complete(3), 2, targets=[1, 1])
        with pytest.raises(ValueError, match=r"node 5 is outside 0\.\.2"):
            extend_graph(Graph.complete(3), 2, targets=[0, 5])

    def test_needs_targets_or_rng(self):
        with pytest.raises(ValueError, match="rng"):
            extend_graph(Graph.complete(3), 2)

    def test_rng_sampling_adds_m_edges(self):
        rng = np.random.default_rng(7)
        g = extend_graph(Graph.complete(4), 3, rng=rng)
        assert g.degree(4) == 3

    def test_preserves_connectivity_at_m(self):
        # kappa >= m in, kappa >= m out, over random certified inputs
        rng = np.random.default_rng(99)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            g = Graph.complete(m + 1)
            for _ in range(int(rng.integers(1, 4))):
                g = extend_graph(g, m, rng=rng)
            assert vertex_connectivity(g).kappa >= m


def _node_entry_points(w) -> dict:
    """Every entry point that takes a node id from its caller, as a call on one
    id v in the six-node reference system. Node 3 is the golden injection's
    node, so v = 3 decodes consistently."""
    schedule = InjectionSchedule.from_values({3: [30.0, -45.0, 60.0]}, 3)
    trajectory = run_updates(w, REF_SUPPLIES, schedule, 3)
    stack = build_observability_stack(w, 0, 3)
    observed = trajectory[:, list(stack.selector)]
    profiles = load_golden_scenario().microgrids
    def injected_at(v):
        return InjectionSchedule((v,), np.zeros((3, 1)), 3)
    return {
        "Graph": lambda v: Graph(6, frozenset({(1, v)})),
        "Graph.from_edges": lambda v: Graph.from_edges(6, [(1, v)]),
        "Graph.neighbors": lambda v: w.graph.neighbors(v),
        "Graph.has_edge": lambda v: w.graph.has_edge(v, 1),
        "check_edges": lambda v: check_edges([(1, v)]),
        "check_edges(n)": lambda v: check_edges([(1, v)], 6),
        "generate_responsive": lambda v: generate_responsive(
            6, 1, frozenset({(1, v)}), np.random.default_rng(1)),
        "extend_graph": lambda v: extend_graph(Graph.complete(6), 2, targets=[0, v]),
        "build_observability_stack": lambda v: build_observability_stack(w, v, 3),
        "ObservabilityStack.m": lambda v: stack.m((v,)),
        "decode_known_faults": lambda v: decode_known_faults(stack, observed, (v,)),
        "InjectionSchedule": injected_at,
        "InjectionSchedule.from_values": lambda v: InjectionSchedule.from_values({v: [1.0]}, 3),
        "RoundEngine": lambda v: RoundEngine(w, profiles, injected_at(v)),
        "run_updates": lambda v: run_updates(w, REF_SUPPLIES, injected_at(v), 3),
    }


NODE_ENTRY_POINTS = [
    "Graph", "Graph.from_edges", "Graph.neighbors", "Graph.has_edge", "check_edges",
    "check_edges(n)", "generate_responsive", "extend_graph",
    "build_observability_stack", "ObservabilityStack.m", "decode_known_faults", "InjectionSchedule",
    "InjectionSchedule.from_values", "RoundEngine", "run_updates"]
# those that know n: a link set and a schedule are checked against a graph only where one is used
RANGED_ENTRY_POINTS = [e for e in NODE_ENTRY_POINTS
                       if e not in ("check_edges", "InjectionSchedule",
                                    "InjectionSchedule.from_values")]


class TestNodeIdRule:
    """check_nodes decides every node id a caller passes: each entry point names
    a non-integer or, where it knows n, an id outside 0..n-1, and takes numpy integers."""

    @pytest.mark.parametrize("entry", NODE_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [2.7, "1"], ids=["float", "str"])
    def test_non_integer_id_rejected(self, entry, bad, ref_weights):
        call = _node_entry_points(ref_weights)[entry]
        with pytest.raises(ValueError, match=re.escape(f"node {bad!r} is not an integer")):
            call(bad)

    @pytest.mark.parametrize("entry", RANGED_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [-1, 6], ids=["negative", "n"])
    def test_id_outside_the_graph_rejected(self, entry, bad, ref_weights):
        call = _node_entry_points(ref_weights)[entry]
        with pytest.raises(ValueError, match=rf"node {bad} is outside 0\.\.5"):
            call(bad)

    @pytest.mark.parametrize("entry", NODE_ENTRY_POINTS)
    def test_numpy_integer_id_accepted(self, entry, ref_weights):
        call = _node_entry_points(ref_weights)[entry]
        call(np.int64(3))

    def test_has_edge_checks_both_ends(self):
        g = Graph.complete(3)
        for ends, message in (((2.7, 1), "node 2.7 is not an integer"),
                              ((1, 99), r"node 99 is outside 0\.\.2"),
                              ((-1, 2), r"node -1 is outside 0\.\.2")):
            with pytest.raises(ValueError, match=message):
                g.has_edge(*ends)
        assert g.has_edge(np.int64(2), 0)

    @pytest.mark.parametrize("edge, message", [
        ((0.5, 1.5), "node 0.5 is not an integer"),
        ((1, 1), "node 1 is repeated"),
        ((1, 0), r"edge \(1, 0\) is not normalized"),
    ], ids=["fraction", "self-loop", "reversed"])
    def test_constructor_applies_the_rule_to_each_edge(self, edge, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, frozenset({edge}))

    def test_constructor_takes_numpy_integer_ends(self):
        g = Graph(3, frozenset({(np.int64(0), np.int32(2))}))
        assert g.has_edge(2, 0) and g.closed_neighborhood(0) == (0, 2)
        assert all(type(v) is int for v in g.closed_neighborhood(0))

    def test_ids_come_back_sorted_as_python_ints(self):
        nodes = check_nodes([np.int64(4), 0, np.int32(2)], 5)
        assert nodes == (0, 2, 4) and all(type(v) is int for v in nodes)
        assert check_nodes([]) == ()

    @pytest.mark.parametrize("nodes, message", [
        ((None,), "node None is not an integer"),
        ((1, 1.5), "node 1.5 is not an integer"),
        ((0, 7, 7), r"node 7 is outside 0\.\.4"),
        ((2, 0, 2), "node 2 is repeated"),
    ])
    def test_first_offending_id_is_named(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            check_nodes(nodes, 5)

    def test_range_is_checked_only_with_a_node_count(self):
        assert check_nodes((-1, 9)) == (-1, 9)
        with pytest.raises(ValueError, match="node 9 is repeated"):
            check_nodes((9, -1, 9))
        assert check_edges([(9, -1)]) == {(-1, 9)}

    def test_edges_come_back_as_a_normalized_frozenset(self):
        edges = check_edges([(3, 1), (0, np.int64(2)), (1, 3)], 4)
        assert type(edges) is frozenset and edges == {(1, 3), (0, 2)}
        assert all(type(v) is int for e in edges for v in e)
        assert (0, 1) not in edges and check_edges([]) == frozenset()
        assert Graph.from_edges(4, [(3, 1), (0, 2)]).edges == edges
        with pytest.raises(ValueError, match="node 1 is repeated"):
            check_edges([(1, 1)])

    def test_a_schedule_with_a_fractional_node_cannot_be_built(self):
        with pytest.raises(ValueError, match="node 1.5 is not an integer"):
            InjectionSchedule((1.5,), np.zeros((3, 1)), 3)

    @pytest.mark.parametrize("node", [-1, 6])
    def test_engine_and_reference_reject_the_same_schedules_before_any_round(
            self, node, ref_weights, monkeypatch):
        # every round of either reads the schedule's injections through at()
        schedule = InjectionSchedule((node,), np.zeros((3, 1)), 3)
        def no_round(*args):
            raise AssertionError("a round ran")
        monkeypatch.setattr(InjectionSchedule, "at", no_round)
        messages = []
        for run in (lambda: RoundEngine(ref_weights, load_golden_scenario().microgrids, schedule).run(),
                    lambda: run_updates(ref_weights, REF_SUPPLIES, schedule, 3)):
            with pytest.raises(ValueError) as caught:
                run()
            messages.append(str(caught.value))
        assert messages == [f"node {node} is outside 0..5"] * 2
