"""Topology generators: certified connectivity and attack avoidance."""

import numpy as np
import pytest

from mgnet import graph as graph_module
from mgnet import (
    ConnectivityCertificate,
    Graph,
    InfeasibleTopologyError,
    generate_preventive,
    generate_responsive,
    vertex_connectivity,
)
from mgnet.graph import check_edges

from conftest import relabeled, survivors_graph
from oracles import brute_force_connectivity


class TestPreventive:
    def test_certified_connectivity_across_sizes(self):
        for f in (0, 1, 2):
            m = 2 * f + 1
            for n in range(m + 1, m + 5):
                rng = np.random.default_rng(1000 * f + n)
                g = generate_preventive(n, f, rng)
                assert g.node_count == n
                assert vertex_connectivity(g).kappa >= m

    def test_connectivity_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            f = int(rng.integers(0, 3))
            n = int(rng.integers(2 * f + 2, 8))
            g = generate_preventive(n, f, rng)
            assert brute_force_connectivity(n, g.edges) >= 2 * f + 1

    def test_seed_clique_size_returns_complete_graph(self):
        g = generate_preventive(3, 1, np.random.default_rng(0))
        assert g == Graph.complete(3)

    def test_too_few_nodes(self):
        with pytest.raises(InfeasibleTopologyError, match="at least 3"):
            generate_preventive(2, 1, np.random.default_rng(0))

    def test_negative_f(self):
        with pytest.raises(ValueError):
            generate_preventive(5, -1, np.random.default_rng(0))

    @pytest.mark.parametrize("n, f", [(0, 0), (-3, 1)])
    def test_non_positive_node_count_is_a_bad_value(self, n, f):
        # a bad value, not an infeasible request; checked before the 2f+1 bound
        with pytest.raises(ValueError, match="n >= 1"):
            generate_preventive(n, f, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n >= 1"):
            generate_responsive(n, f, frozenset(), np.random.default_rng(0))

    def test_same_rng_state_reproduces(self):
        a = generate_preventive(9, 1, np.random.default_rng(123))
        b = generate_preventive(9, 1, np.random.default_rng(123))
        assert a == b

    @pytest.mark.parametrize("n, f", [(9, 1), (40, 2)])
    def test_one_graph_built_per_call(self, n, f, monkeypatch):
        # the grown edges relabelled by the second permutation
        rng = np.random.default_rng(n)
        order = [int(v) for v in rng.permutation(n)]
        grown = Graph(n, graph_module._grow(order[:2 * f + 1], order[2 * f + 1:], 2 * f + 1, {}, rng))
        want = relabeled(grown, rng.permutation(n))
        built, post_init = [], Graph.__post_init__

        def counted(self):
            built.append(self.node_count)
            post_init(self)

        monkeypatch.setattr(Graph, "__post_init__", counted)
        assert generate_preventive(n, f, np.random.default_rng(n)) == want
        assert built == [n]

    def test_layout_varies_with_seed(self):
        graphs = {generate_preventive(9, 1, np.random.default_rng(s)) for s in range(6)}
        assert len(graphs) > 1


class TestResponsive:
    def test_avoids_attacked_links(self):
        rng = np.random.default_rng(7)
        built = 0
        for trial in range(30):
            n = int(rng.integers(6, 11))
            all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            picks = rng.choice(len(all_pairs), size=3, replace=False)
            attacks = check_edges([all_pairs[int(p)] for p in picks])
            try:
                g = generate_responsive(n, 1, attacks, rng)
            except InfeasibleTopologyError:
                # three links can touch six nodes and starve the seed pool
                continue
            built += 1
            assert not g.edges & attacks
            assert vertex_connectivity(g).kappa >= 3
        assert built >= 15

    def test_no_attacks_behaves_like_preventive(self):
        g = generate_responsive(8, 1, frozenset(), np.random.default_rng(3))
        assert vertex_connectivity(g).kappa >= 3

    def test_seed_pool_shortage_is_infeasible(self):
        # every node touched by an attacked link leaves no clean seed pool
        attacks = check_edges([(0, 1), (2, 3), (4, 5)])
        with pytest.raises(InfeasibleTopologyError, match="seed clique"):
            generate_responsive(6, 1, attacks, np.random.default_rng(0))

    def test_infeasibility_always_surfaces_at_the_seed_pool(self):
        # a clean node is a safe target for every extender, so once the
        # seed clique exists no extension step can starve: every failure
        # mode reduces to a short clean pool, the only shortage the
        # generator reports.
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(4, 9))
            all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            k = int(rng.integers(1, len(all_pairs)))
            picks = rng.choice(len(all_pairs), size=k, replace=False)
            attacks = check_edges([all_pairs[int(p)] for p in picks])
            try:
                g = generate_responsive(n, 1, attacks, rng)
            except InfeasibleTopologyError as exc:
                assert "seed clique" in str(exc)
            else:
                assert not g.edges & attacks

    def test_attacked_link_out_of_range(self):
        attacks = check_edges([(0, 9)])
        with pytest.raises(ValueError, match=r"^node 9 is outside 0\.\.5$"):
            generate_responsive(6, 1, attacks, np.random.default_rng(0))

    def test_too_few_nodes(self):
        with pytest.raises(InfeasibleTopologyError):
            generate_responsive(4, 2, frozenset(), np.random.default_rng(0))


@pytest.mark.parametrize("f", range(4))
def test_each_grown_node_adds_exactly_m_edges(f):
    # a seed clique on m = 2f+1 nodes, then each later node joined to m distinct
    # earlier ones: m(m-1)/2 + (n-m)m edges in all, checked with no max-flow
    m = 2 * f + 1
    rng = np.random.default_rng(f)
    for n in (m, m + 1, m + 2, m + 5, 2 * m + 3, 4 * m + 3, 25, 40):
        want = m * (m - 1) // 2 + (n - m) * m
        assert len(generate_preventive(n, f, rng).edges) == want
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for attacked in range(4):
            picks = rng.choice(len(pairs), size=min(attacked, len(pairs)), replace=False)
            links = check_edges([pairs[int(p)] for p in picks])
            try:
                g = generate_responsive(n, f, links, rng)
            except InfeasibleTopologyError as exc:
                # only a short seed pool may refuse, and never with no attacked link
                assert "seed clique" in str(exc) and links
                continue
            assert not g.edges & links
            assert len(g.edges) == want


@pytest.mark.parametrize("generate", [
    lambda rng: generate_preventive(8, 1, rng),
    lambda rng: generate_responsive(8, 1, frozenset(), rng),
], ids=["preventive", "responsive"])
def test_a_certificate_below_two_f_plus_one_is_refused(generate, monkeypatch):
    # the expansion lemma rules this out; a forced certificate shows the rule still reads it
    monkeypatch.setattr(graph_module, "vertex_connectivity",
                        lambda g: ConnectivityCertificate(2, frozenset({4, 1})))
    with pytest.raises(InfeasibleTopologyError,
                       match=r"^graph has vertex connectivity 2 < 2f\+1 = 3; witness cut \[1, 4\]$"):
        generate(np.random.default_rng(0))


class TestWitnessAtScale:
    # sizes the brute-force oracle cannot reach: the witness must still be
    # a minimum cut, so it has kappa nodes and removing it disconnects
    @pytest.mark.parametrize("strategy", ["preventive", "responsive"])
    @pytest.mark.parametrize("f", [1, 2])
    def test_witness_is_a_cut_of_size_kappa(self, strategy, f):
        rng = np.random.default_rng(600 + 10 * f + (strategy == "responsive"))
        for n in (10, 20, 35, 60):
            if strategy == "preventive":
                g = generate_preventive(n, f, rng)
            else:
                all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                picks = rng.choice(len(all_pairs), size=n // 10, replace=False)
                attacks = check_edges([all_pairs[int(p)] for p in picks])
                g = generate_responsive(n, f, attacks, rng)
            cert = vertex_connectivity(g)
            assert cert.kappa >= 2 * f + 1
            assert len(cert.witness_cut) == cert.kappa
            assert not survivors_graph(g, cert.witness_cut).is_connected()

    def test_witness_finds_a_separator_below_the_minimum_degree(self):
        # two 5-connected halves joined only through three separator nodes,
        # each linked to six nodes of either half: the separator is the
        # only 3-cut, while every other node has degree at least 5
        rng = np.random.default_rng(77)
        half = 25
        a = generate_preventive(half, 2, rng)
        b = generate_preventive(half, 2, rng)
        separator = range(2 * half, 2 * half + 3)
        pairs = list(a.edges) + [(i + half, j + half) for i, j in b.edges]
        for s in separator:
            pairs += [(int(v), s) for v in rng.choice(half, size=6, replace=False)]
            pairs += [(int(v) + half, s) for v in rng.choice(half, size=6, replace=False)]
        g = Graph.from_edges(2 * half + 3, pairs)
        cert = vertex_connectivity(g)
        assert min(g.degree(v) for v in range(g.node_count)) >= 5
        assert cert.kappa == 3
        assert cert.witness_cut == frozenset(separator)
        assert not survivors_graph(g, cert.witness_cut).is_connected()
