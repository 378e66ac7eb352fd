"""Weight synthesis, rank verification, the update law, and both decoders."""

import json
from itertools import combinations

import numpy as np
import pytest

from mgnet import consensus
from mgnet import (
    CommunicationAgent,
    ConfigError,
    DecodeFailureError,
    DecodeInconsistencyError,
    Graph,
    InfeasibleTopologyError,
    InjectionSchedule,
    InternalInvariantError,
    ObservationRecord,
    SynthesisError,
    WeightMatrix,
    build_observability_stack,
    decode_known_faults,
    decode_unknown_faults,
    evaluate_criterion,
    generate_preventive,
    load_golden_scenario,
    metropolis_weights,
    run_period,
    run_updates,
    simulator,
    synthesize_weights,
    verify_candidate_uniqueness,
    verify_rank_condition,
)
from mgnet.consensus import (
    AGREEMENT_RTOL,
    RANK_RTOL,
    RESIDUAL_TOL,
    SYNTHESIS_ATTEMPTS,
    WEIGHT_DEAD_ZONE,
    numerical_rank,
)
from mgnet.scenario import scenario_from_dict, scenario_to_dict

from conftest import REF_SUPPLIES, REF_W, bench_workloads
from oracles import (
    aimed_injection,
    brute_force_connectivity,
    eigvalsh_split_bound,
    gf_split_horizon_oracle,
    matrix_iteration_oracle,
    observability_index_oracle,
    plain_split_scan,
    random_field_weights,
    rank_mod_p,
    split_by_definition,
    split_horizon_oracle,
    stacked_operators,
    unscreened_unknown_decode,
)

REF_INJECTION = {3: [30.0, -45.0, 60.0]}


def _synthesized_instance(seed: int, n: int = 5, f: int = 1):
    rng = np.random.default_rng(seed)
    g = generate_preventive(n, f, rng)
    w = synthesize_weights(g, f, rng)
    return g, w


def _random_pattern_weights(g: Graph, rng: np.random.Generator) -> WeightMatrix:
    n = g.node_count
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i] = rng.uniform(-1.0, 1.0)
        for j in g.neighbors(i):
            w[i, j] = rng.uniform(-1.0, 1.0)
    return WeightMatrix(w, g)


class TestWeightMatrix:
    def test_off_pattern_entry_rejected(self):
        # (0, 2) and (2, 0) are both off the pattern; the first in
        # row-major order is the one reported
        g = Graph.from_edges(3, [(0, 1)])
        entries = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [4.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^entry \(0, 2\) is nonzero"):
            WeightMatrix(entries, g)
        entries[0, 2] = 0.0
        with pytest.raises(ValueError, match=r"^entry \(2, 0\) is nonzero"):
            WeightMatrix(entries, g)
        entries[2, 0] = 0.0
        assert WeightMatrix(entries, g).entries[1, 0] == 1.0

    def test_shape_and_finiteness(self):
        g = Graph.complete(3)
        with pytest.raises(ValueError, match="shape"):
            WeightMatrix(np.zeros((2, 2)), g)
        bad = np.full((3, 3), np.inf)
        with pytest.raises(ValueError, match="finite"):
            WeightMatrix(bad, g)

    def test_selector_is_sorted_closed_neighborhood(self, ref_weights):
        assert ref_weights.selector(0) == (0, 1, 2, 3)
        assert ref_weights.selector(2) == (0, 1, 2, 5)
        assert ref_weights.selector(4) == (1, 3, 4, 5)

    def test_from_dense_infers_pattern(self, ref_weights, ref_graph):
        w = WeightMatrix.from_dense(np.array(ref_weights.entries))
        assert w.graph == ref_graph

    def test_csv_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        _, w = _synthesized_instance(31)
        again = WeightMatrix.from_csv_text(w.to_csv_text())
        assert np.array_equal(again.entries, w.entries)
        assert again.graph == w.graph
        del rng

    def test_csv_rejects_bad_input(self):
        with pytest.raises(ValueError, match="line 2"):
            WeightMatrix.from_csv_text("1.0,0.0\nx,1.0\n")
        with pytest.raises(ValueError, match="square"):
            WeightMatrix.from_csv_text("1.0,2.0\n")
        with pytest.raises(ValueError, match="empty"):
            WeightMatrix.from_csv_text("\n\n")


class TestInjectionSchedule:
    def test_from_values_sorts_and_pads(self):
        inj = InjectionSchedule.from_values({4: [1.0], 2: [5.0, 6.0]}, horizon=3)
        assert inj.faulty_nodes == (2, 4)
        assert inj.values.tolist() == [[5.0, 1.0], [6.0, 0.0], [0.0, 0.0]]

    def test_series_longer_than_horizon_rejected(self):
        with pytest.raises(ConfigError, match="node 0 of length 2 exceeds the 1-step horizon"):
            InjectionSchedule.from_values({0: [1.0, 2.0]}, horizon=1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="node 1 is repeated"):
            InjectionSchedule((1, 1), np.zeros((2, 2)), 2)

    def test_empty(self):
        inj = InjectionSchedule.empty(4)
        assert inj.faulty_nodes == () and inj.values.shape == (4, 0)
        assert all(inj.at(node, step) is None for node in range(3) for step in range(4))

    def test_at_reads_a_faulty_nodes_column(self):
        inj = InjectionSchedule.from_values({4: [1.5], 2: [5.0, -6.25]}, horizon=3)
        for node in (0, 1, 3, 5):
            assert all(inj.at(node, step) is None for step in range(3))
        for col, node in enumerate(inj.faulty_nodes):
            for step in range(3):
                u = inj.at(node, step)
                assert type(u) is float and u == inj.values[step, col]
        assert [inj.at(2, k) for k in range(3)] == [5.0, -6.25, 0.0]
        assert [inj.at(4, k) for k in range(3)] == [1.5, 0.0, 0.0]


class TestObservabilityStack:
    def test_one_step_unrolls_the_recursion(self, ref_weights):
        stack = build_observability_stack(ref_weights, 0, 1)
        c = np.eye(6)[[0, 1, 2, 3], :]
        assert np.array_equal(stack.o, np.vstack([c, c @ ref_weights.entries]))

    def test_empty_fault_set_gives_zero_columns(self, ref_weights):
        stack = build_observability_stack(ref_weights, 0, 2)
        assert stack.m(()).shape == (12, 0)

    def test_reference_dimensions(self, ref_weights):
        # observer 0 sees itself plus 3 neighbors: 4 rows per snapshot
        stack = build_observability_stack(ref_weights, 0, 3)
        assert stack.o.shape == (16, 6)
        assert stack.m((3,)).shape == (16, 3)

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(88)
        for seed in (1, 2, 3):
            _, w = _synthesized_instance(seed, n=int(rng.integers(4, 7)))
            observer = int(rng.integers(0, w.n))
            k = int(rng.integers(2, 5))
            faults = tuple(sorted(rng.choice(w.n, size=2, replace=False).tolist()))
            stack = build_observability_stack(w, observer, k)
            o, m = stacked_operators(w.entries, observer, k, faults)
            assert np.allclose(stack.o, o, rtol=0, atol=1e-12)
            assert np.allclose(stack.m(faults), m, rtol=0, atol=1e-12)

    def test_shorter_horizons_are_leading_blocks(self):
        rng = np.random.default_rng(89)
        for seed in (4, 5, 6):
            _, w = _synthesized_instance(seed, n=int(rng.integers(4, 8)))
            observer = int(rng.integers(0, w.n))
            long = build_observability_stack(w, observer, w.n + 2)
            q = len(long.selector)
            for k in range(1, w.n + 2):
                short = build_observability_stack(w, observer, k)
                rows = q * (k + 1)
                assert np.array_equal(long.o[:rows], short.o)
                assert np.array_equal(long.injection[:rows, :w.n * k], short.injection)

    def test_argument_validation(self, ref_weights):
        with pytest.raises(ValueError):
            build_observability_stack(ref_weights, 0, 0)
        with pytest.raises(ValueError):
            build_observability_stack(ref_weights, 9, 2)

    def test_horizon_past_the_cap_rejected(self, ref_weights):
        with pytest.raises(ValueError, match="cap n \\+ 2"):
            build_observability_stack(ref_weights, 0, ref_weights.n + 3)

    def test_stacks_are_read_only_views_of_one_operator(self, ref_graph, operator_builds):
        w = WeightMatrix(np.array(REF_W, dtype=float), ref_graph)
        stacks = [build_observability_stack(w, 2, k) for k in (1, 3, w.n + 2)]
        assert operator_builds == [2]
        for stack in stacks:
            assert np.shares_memory(stack.o, w._operators[2])
            assert np.shares_memory(stack.injection, w._operators[2])
            assert not stack.o.flags.writeable and not stack.injection.flags.writeable


class TestVerifyRankCondition:
    def test_reference_matrix_frozen_outcomes(self, ref_weights):
        # fault-free observability holds immediately; the universal
        # two-hypothesis split never holds for this matrix (one observer
        # pair of hypotheses shares a stacked direction at every horizon,
        # confirmed in exact rational arithmetic), while every single
        # hypothesis is decodable from the first step
        assert verify_rank_condition(ref_weights, 0) == 1
        assert verify_rank_condition(ref_weights, 1) is None
        assert verify_candidate_uniqueness(ref_weights, 1) == 1
        assert verify_candidate_uniqueness(ref_weights, 2) is None

    def test_reference_matrix_deficient_pair(self, ref_weights):
        # the specific structural deficiency: observer 2 vs hypotheses
        # {0, 1}; rank([O M]) stays one short of full split at K = 4
        stack = build_observability_stack(ref_weights, 2, 4)
        m = stack.m((0, 1))
        a = np.hstack([stack.o, m])
        assert numerical_rank(a) == 13
        assert 6 + numerical_rank(m) == 14
        assert not consensus._split_holds(a, 6)

    def test_fault_free_equals_observability_index(self):
        for seed in (11, 12, 13):
            _, w = _synthesized_instance(seed, n=5, f=0)
            smallest = verify_rank_condition(w, 0)
            per_observer = [observability_index_oracle(w.entries, i, w.n + 2) for i in range(w.n)]
            assert smallest == max(per_observer)
            assert smallest <= w.n - 1

    def test_complete_graph_decodes_immediately_at_any_bound(self):
        # complete graphs have no separator: every observer sees the
        # whole state directly, so the split holds at K = 1 whatever f,
        # and from any floor at the floor itself
        g = Graph.complete(3)
        rng = np.random.default_rng(4)
        w = synthesize_weights(g, 0, rng)
        for f in (1, 3):
            assert [verify_rank_condition(w, f, floor=k) for k in range(1, 6)] == [1, 2, 3, 4, 5]

    def test_separated_graphs_fail_at_every_horizon(self):
        # incomplete graphs with kappa <= 2f carry a real separator, and
        # injections at the cut can mask any difference beyond it for
        # any weights; a 6-cycle (kappa = 2) and a path (kappa = 1)
        for pairs in ([(i, (i + 1) % 6) for i in range(6)],
                      [(0, 1), (1, 2), (2, 3)]):
            g = Graph.from_edges(max(max(p) for p in pairs) + 1, pairs)
            rng = np.random.default_rng(9)
            w = synthesize_weights(g, 0, rng)
            assert verify_rank_condition(w, 1) is None

    def test_necessity_exhaustive_up_to_five_nodes(self):
        # every incomplete graph with kappa <= 2f, all edge subsets on
        # 3..5 nodes, random weights on the pattern: never verifiable
        rng = np.random.default_rng(314)
        checked = 0
        for n in (3, 4, 5):
            pairs = list(combinations(range(n), 2))
            for bits in range(2 ** len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                if len(edges) == len(pairs):
                    continue
                g = Graph.from_edges(n, edges)
                kappa = brute_force_connectivity(n, g.edges)
                for f in (1, 2):
                    if kappa <= 2 * f:
                        checked += 1
                        w = _random_pattern_weights(g, rng)
                        assert verify_rank_condition(w, f) is None, \
                            f"n={n} edges={edges} kappa={kappa} f={f}"
        assert checked > 2000

    def test_necessity_sampled_on_six_nodes(self):
        rng = np.random.default_rng(2718)
        pairs = list(combinations(range(6), 2))
        checked = 0
        for _ in range(400):
            if checked >= 300:
                break
            mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.7)
            edges = [p for p, keep in zip(pairs, mask) if keep]
            if len(edges) == len(pairs):
                continue
            g = Graph.from_edges(6, edges)
            kappa = brute_force_connectivity(6, g.edges)
            for f in (1, 2):
                if kappa <= 2 * f and checked < 300:
                    checked += 1
                    w = _random_pattern_weights(g, rng)
                    assert verify_rank_condition(w, f) is None, \
                        f"edges={edges} kappa={kappa} f={f}"
        assert checked == 300

    def test_argument_validation(self, ref_weights):
        with pytest.raises(ValueError):
            verify_rank_condition(ref_weights, -1)
        for floor in (0, ref_weights.n + 3):
            with pytest.raises(ValueError, match=r"outside 1\.\.8, the cap n \+ 2"):
                verify_rank_condition(ref_weights, 1, floor=floor)
            with pytest.raises(ValueError, match=r"outside 1\.\.8, the cap n \+ 2"):
                verify_candidate_uniqueness(ref_weights, 1, floor=floor)
        # the floor is keyword-only: a third positional argument is no floor
        with pytest.raises(TypeError):
            verify_rank_condition(ref_weights, 1, 8)
        with pytest.raises(TypeError):
            verify_candidate_uniqueness(ref_weights, 1, 8)

    def test_floor_at_the_cap_builds_one_operator_per_observer(self, ref_graph, operator_builds):
        # a floor past the cap builds nothing; one at the cap scans only K = n + 2,
        # on one operator per observer, built at n + 2
        w = WeightMatrix(np.array(REF_W, dtype=float), ref_graph)
        with pytest.raises(ValueError):
            verify_rank_condition(w, 0, floor=10**6)
        assert operator_builds == []
        assert verify_rank_condition(w, 0, floor=w.n + 2) == w.n + 2
        assert sorted(operator_builds) == list(range(w.n))
        cap = w.n + 2
        assert [w._operators[i].shape for i in range(w.n)] == [
            (len(w.selector(i)) * (cap + 1), w.n * (cap + 1)) for i in range(w.n)]

    def test_both_splits_match_the_per_pair_oracle(self):
        rng = np.random.default_rng(4242)
        outcomes = []
        for _ in range(20):
            n, f = int(rng.integers(4, 8)), int(rng.integers(0, 3))
            if n >= 2 * f + 1 and rng.random() < 0.5:
                g = generate_preventive(n, f, rng)
            else:
                pairs = list(combinations(range(n), 2))
                g = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.6])
            w = _random_pattern_weights(g, rng)
            full = verify_rank_condition(w, f)
            weak = verify_candidate_uniqueness(w, f)
            # the oracle runs past the cap and finds no horizon the cap missed
            for found, size in ((full, min(2 * f, n)), (weak, min(f, n))):
                exact = split_horizon_oracle(w.entries, size, n + 4, RANK_RTOL)
                assert exact is None or exact <= n + 2
                assert found == exact
            outcomes += [full, weak]
        assert None in outcomes and any(k is not None for k in outcomes)

    @pytest.mark.parametrize("n, f", [(7, 1), (8, 1), (9, 1), (8, 2), (10, 2), (14, 1)])
    def test_float_horizon_equals_the_exact_one(self, n, f):
        # the smallest K under random weights in GF(p), where a rank has no
        # tolerance, against the float scan on synthesized weights; (10, 2) and
        # (14, 1) are the shapes of the resilient benchmark workloads
        rng = np.random.default_rng(1000 + 10 * n + f)
        g = generate_preventive(n, f, rng)
        w = synthesize_weights(g, f, rng)
        exact = gf_split_horizon_oracle(random_field_weights(n, g.edges, rng), 2 * f, n + 2)
        assert exact == n - 2 * f - 2
        assert verify_rank_condition(w, f) == exact

    def test_rank_mod_p(self):
        assert rank_mod_p(np.zeros((3, 3), dtype=np.int64)) == 0
        assert rank_mod_p(np.array([[1, 2], [2, 4]])) == 1
        assert rank_mod_p(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == 3
        # singular over GF(p) although not over the reals: det = p
        assert rank_mod_p(np.array([[1, 0], [0, 33554393]])) == 1

    def test_uniqueness_split_is_implied_by_the_full_split(self):
        for seed in (21, 22):
            _, w = _synthesized_instance(seed)
            full = verify_rank_condition(w, 1)
            weak = verify_candidate_uniqueness(w, 1)
            assert full is not None
            assert weak is not None and weak <= full


class TestSplitHorizonMemo:
    """Each matrix scans its rank split once per fault-set size and floor and
    builds each observer's operator once for all of them."""

    @pytest.fixture
    def scans(self, monkeypatch):
        keys = []
        scan = consensus._scan_split_horizons
        monkeypatch.setattr(consensus, "_scan_split_horizons",
                            lambda w, size, floor: keys.append((size, floor)) or scan(w, size, floor))
        return keys

    @pytest.fixture
    def fresh(self, ref_graph):
        # a new matrix per test, so no other test can have warmed its memo
        return WeightMatrix(np.array(REF_W, dtype=float), ref_graph)

    def test_repeated_check_builds_nothing(self, fresh, operator_builds, scans):
        assert verify_rank_condition(fresh, 1, floor=1) is None
        assert sorted(operator_builds) == list(range(fresh.n)) and scans == [(2, 1)]
        assert verify_rank_condition(fresh, 1, floor=1) is None
        # the default floor is 1, the key already scanned
        assert verify_rank_condition(fresh, 1) is None
        assert scans == [(2, 1)]
        # the size-0 scan reads the operators the size-2 scan built
        assert verify_rank_condition(fresh, 0) == 1
        assert verify_rank_condition(fresh, 0) == 1
        # f=0 asks both splits for size-0 fault sets: one scan serves them
        assert verify_candidate_uniqueness(fresh, 0) == 1
        assert scans == [(2, 1), (0, 1)] and len(operator_builds) == fresh.n

    def test_another_key_scans_again(self, fresh, operator_builds, scans):
        assert verify_rank_condition(fresh, 1) is None
        operators = dict(fresh._operators)
        # another floor is another key, scanned from that floor
        assert verify_rank_condition(fresh, 1, floor=4) is None
        assert scans == [(2, 1), (2, 4)]
        # size-1 sets are another key too; both scan on the operators already built
        assert verify_candidate_uniqueness(fresh, 1) == 1
        assert scans == [(2, 1), (2, 4), (1, 1)] and len(operator_builds) == fresh.n
        assert all(fresh._operators[i] is operators[i] for i in range(fresh.n))

    def test_floor_starts_the_scan(self, operator_builds):
        g, synthesized = _synthesized_instance(30, n=7, f=1)
        w = WeightMatrix(synthesized.entries, g)
        operator_builds.clear()
        smallest = verify_rank_condition(w, 1)
        assert smallest == 3
        for floor in range(1, w.n + 3):
            # the first passing K in floor..n+2, as a per-pair scan from the floor finds it
            expected = split_horizon_oracle(w.entries, 2, w.n + 2, RANK_RTOL, floor=floor)
            assert verify_rank_condition(w, 1, floor=floor) == expected
            assert expected == max(floor, smallest)
        assert len(operator_builds) == w.n

    def test_entries_are_a_read_only_copy(self, ref_graph):
        src = np.array(REF_W, dtype=float)
        w = WeightMatrix(src, ref_graph)
        with pytest.raises(ValueError):
            w.entries[0, 0] = 1.0
        assert src.flags.writeable
        assert np.array_equal(src, REF_W)
        src[0, 0] = 1.0
        assert w.entries[0, 0] == REF_W[0][0]


# (n, f) of the `split` set of tools/artifact_digest.py; (14, 1) and (10, 2) are the
# resilient benchmark workloads' shapes, so their draws are the workloads' own
SPLIT_SHAPES = [(10, 1), (14, 1), (18, 1), (8, 2), (10, 2), (12, 2)]


def _split_draws(n: int, f: int, seed: int) -> list[WeightMatrix]:
    """The first three weight draws of period 0's synthesis in the resilient_f<f>
    recipe at n nodes, as the digest tool's `split` set takes them."""
    workloads = bench_workloads()
    inputs = {**workloads.load_specs()[f"resilient_f{f}"]["inputs"], "n": n}
    scenario, agent = workloads.build(inputs, seed)
    g = simulator._topology(scenario, agent, 0)
    rng = simulator._rng(scenario.seed, 0, simulator._WEIGHT_STREAM)
    return [consensus.draw_weights(g, rng) for _ in range(3)]


# graphs below 2f+1 connectivity, on which the full split fails to the cap
CAP_FAILING_GRAPHS = [
    pytest.param(Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]), 1, id="cycle8-f1"),
    pytest.param(generate_preventive(8, 1, np.random.default_rng(8)), 2, id="kappa3-n8-f2"),
]


class TestSplitPin:
    """The split test is its definition: one SVD of each [O M] gives its rank
    r, any r below n fails with no further SVD, and otherwise numerical_rank of
    M decides r = n + rank(M)."""

    @pytest.fixture
    def rank_of_m(self, monkeypatch):
        batches = []
        rank = consensus.numerical_rank
        def counted(a):
            if len(a):
                batches.append(len(a))
            return rank(a)
        monkeypatch.setattr(consensus, "numerical_rank", counted)
        return batches

    @pytest.fixture
    def split_calls(self, monkeypatch):
        # (a, n, s, verdict) of every call of _split_holds, and the unpatched rule
        calls = []
        holds = consensus._split_holds
        def recorded(a, n, s=None):
            calls.append((a, n, s, holds(a, n, s)))
            return calls[-1][3]
        monkeypatch.setattr(consensus, "_split_holds", recorded)
        return calls, holds

    @staticmethod
    def _assert_each_matrix_is_the_definition(calls, holds):
        for a, n, s, verdict in calls:
            expected = split_by_definition(a, n, RANK_RTOL)
            assert verdict == expected.all()
            if a.ndim == 3:
                assert [holds(m[None], n) for m in a] == expected.tolist()

    @pytest.mark.parametrize("n, f", SPLIT_SHAPES)
    def test_every_scanned_matrix_is_decided_by_the_definition(self, n, f, split_calls):
        # the digest's split draws, seeds 1-2, scanned at sizes 2f and f
        calls, holds = split_calls
        for seed in (1, 2):
            for w in _split_draws(n, f, seed):
                for size in (2 * f, f):
                    consensus._scan_split_horizons(w, size)
        assert any(verdict for *_, verdict in calls) and not all(verdict for *_, verdict in calls)
        self._assert_each_matrix_is_the_definition(calls, holds)

    @pytest.mark.parametrize("weights, split", [("fixed", "per_candidate"), ("random", "full")])
    def test_every_decoded_matrix_is_decided_by_the_definition(self, weights, split, split_calls):
        # golden decodes under the per-candidate split with its own weights at
        # k = 3, and under the full split with weights synthesized on a preventive
        # graph, as the digest's golden and pinned sets run it; each decoder
        # checks its split with the singular values of its least-squares solve
        calls, holds = split_calls
        data = scenario_to_dict(load_golden_scenario())
        if weights == "random":
            data["graph"] = {"strategy": "preventive", "regenerate_per_period": False}
            data["weights"] = {"type": "random"}
            data["consensus"]["k"] = None
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        for mode in ("known_faults", "unknown_faults"):
            assert run_period(sc, agent, mode).diagnostics["rank_split"] == split
        assert any(s is not None for _, _, s, _ in calls)
        self._assert_each_matrix_is_the_definition(calls, holds)

    @pytest.mark.parametrize("n, f, seed", [(14, 1, 5), (10, 2, 6)])
    def test_scan_matches_the_per_pair_oracle(self, n, f, seed):
        rng = np.random.default_rng(seed)
        w = synthesize_weights(generate_preventive(n, f, rng), f, rng)
        assert verify_rank_condition(w, f) == split_horizon_oracle(
            w.entries, 2 * f, n + 2, RANK_RTOL) == n - 2 * f - 2
        assert verify_candidate_uniqueness(w, f) == split_horizon_oracle(
            w.entries, f, n + 2, RANK_RTOL)

    @pytest.mark.parametrize("g, f", CAP_FAILING_GRAPHS)
    def test_draws_that_fail_to_the_cap_match_the_oracle(self, g, f):
        # below 2f+1 connectivity the full split fails at every horizon
        w = consensus.draw_weights(g, np.random.default_rng(9))
        assert verify_rank_condition(w, f) is None
        assert split_horizon_oracle(w.entries, 2 * f, w.n + 2, RANK_RTOL) is None
        assert verify_candidate_uniqueness(w, f) == split_horizon_oracle(
            w.entries, f, w.n + 2, RANK_RTOL)

    def test_zero_columns_count_toward_neither_rank(self):
        # O = e1 and M = [0.5 e2, 0.25 e3, c]. With c = 0, rank(M) = 2 and
        # rank([O M]) = 3, so the split holds; with c a copy of M's last column
        # it still holds, and with c a copy of O's column M gains a rank that
        # [O M] does not, so it fails, alone and in a batch with the others
        a = np.zeros((5, 4))
        a[0, 0], a[1, 1], a[2, 2] = 1.0, 0.5, 0.25
        batch = []
        for c in (np.zeros(5), a[:, 2].copy(), a[:, 0].copy()):
            a[:, 3] = c
            batch.append(a.copy())
        assert [consensus._split_holds(m, 1) for m in batch] == [True, True, False]
        assert split_by_definition(np.stack(batch), 1, RANK_RTOL).tolist() == [True, True, False]
        assert consensus._split_holds(np.stack(batch[:2]), 1)
        assert not consensus._split_holds(np.stack(batch), 1)

    def test_rank_below_n_fails_without_rank_of_m(self, rank_of_m):
        # [O M] of all ones has rank 1 < n = 2
        assert not consensus._split_holds(np.ones((1, 4, 3)), 2)
        assert rank_of_m == []

    def test_no_singular_values_of_an_empty_stack(self, monkeypatch):
        # the scan sends _split_holds only the sets the bound leaves open, and
        # nothing when it settles them all; no SVD ever runs on an empty batch
        leading = []
        svd = np.linalg.svd
        def recorded(a, *args, **kwargs):
            leading.append(a.shape[0])
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recorded)
        rng = np.random.default_rng(5)
        w = synthesize_weights(generate_preventive(10, 1, rng), 1, rng)
        k = verify_rank_condition(w, 1)
        inj = InjectionSchedule.from_values({3: rng.normal(0, 40, k).tolist()}, k)
        traj = run_updates(w, rng.uniform(0, 100, w.n), inj, k)
        for i in range(w.n):
            decode_unknown_faults(build_observability_stack(w, i, k), _observed(w, traj, i), 1)
        assert leading and 0 not in leading


class TestCertifiedSplit:
    """At every horizon and observer, the first included, the scan skips the SVD
    of every fault set whose split a lower bound on sigma_min([O M^Y]) proves,
    and sends only the rest to _split_holds: every verdict stays the plain scan's."""

    @pytest.fixture
    def checks(self, monkeypatch):
        # (stacked rows, verdict) of every (K, observer) check the scan makes
        made = []
        splits = consensus._observer_splits
        def recorded(rows, cols, n):
            made.append((len(rows), splits(rows, cols, n)))
            return made[-1][1]
        monkeypatch.setattr(consensus, "_observer_splits", recorded)
        return made

    @pytest.fixture
    def bounds(self, monkeypatch):
        # (o, injection, fault_cols, accepted) of every call of the bound
        calls = []
        certified = consensus._split_certified
        def recorded(o, injection, fault_cols):
            calls.append((o, injection, fault_cols, certified(o, injection, fault_cols)))
            return calls[-1][3]
        monkeypatch.setattr(consensus, "_split_certified", recorded)
        return calls

    def _assert_plain_verdicts(self, w, size, checks):
        expected, verdicts = plain_split_scan(w, size, lambda i: consensus._operator(w, i),
                                              consensus._split_holds)
        checks.clear()
        assert consensus._scan_split_horizons(w, size) == expected
        assert checks == [(len(w.selector(i)) * (k + 1), ok) for k, i, ok in verdicts]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n, f", SPLIT_SHAPES)
    def test_verdicts_equal_the_plain_scan_on_the_split_draws(self, n, f, seed, checks):
        for w in _split_draws(n, f, seed):
            for size in (2 * f, f):
                self._assert_plain_verdicts(w, size, checks)

    @pytest.mark.parametrize("n, f, seed", [(14, 1, 5), (10, 2, 6)])
    def test_verdicts_equal_the_plain_scan_on_synthesized_draws(self, n, f, seed, checks):
        rng = np.random.default_rng(seed)
        w = synthesize_weights(generate_preventive(n, f, rng), f, rng)
        for size in (2 * f, f):
            self._assert_plain_verdicts(w, size, checks)

    @pytest.mark.parametrize("g, f", CAP_FAILING_GRAPHS)
    def test_verdicts_equal_the_plain_scan_where_no_horizon_passes(self, g, f, checks):
        w = consensus.draw_weights(g, np.random.default_rng(9))
        for size in (2 * f, f):
            self._assert_plain_verdicts(w, size, checks)

    @pytest.mark.parametrize("instance", ["golden", "preventive"])
    def test_verdicts_equal_the_plain_scan_for_size_zero(self, instance, ref_weights, checks,
                                                         bounds):
        # f = 0: one fault set, the empty one, which the bound leaves open at every
        # observer with n rows; the digest's verify set reaches f = 0 only by the CLI
        if instance == "golden":
            w = ref_weights
        else:
            rng = np.random.default_rng(27)
            w = consensus.draw_weights(generate_preventive(10, 1, rng), rng)
        self._assert_plain_verdicts(w, 0, checks)
        assert len(bounds) == sum(rows >= w.n for rows, _ in checks)
        assert not any(accepted.any() for *_, accepted in bounds)

    @pytest.mark.parametrize("n, f", SPLIT_SHAPES)
    def test_every_accepted_set_passes_split_holds(self, n, f, bounds):
        # every accepted set passes the definition, each on its own, at sizes 2f
        # and f; _split_holds passes a batch exactly when it passes each matrix
        # of it, so one call over the accepted sets agrees
        for w in _split_draws(n, f, 1):
            for size in (2 * f, f):
                consensus._scan_split_horizons(w, size)
        assert bounds and any(accepted.any() for *_, accepted in bounds)
        for o, injection, fault_cols, accepted in bounds:
            a = np.hstack([o, injection])
            cols = np.hstack([np.broadcast_to(np.arange(n), (len(fault_cols), n)), n + fault_cols])
            if accepted.any():
                batch = np.moveaxis(a[:, cols[accepted]], 1, 0)
                assert split_by_definition(batch, n, RANK_RTOL).all()
                assert consensus._split_holds(batch, n)

    def test_exactly_dependent_projected_columns_fall_back(self):
        # M = [c, c + O v]: both columns leave col(O) along the same direction, so
        # [O M] has rank n + 1 with z = 2 and fails. The projected Gram matrix is
        # singular only up to its rounding, about eps times its trace, which can
        # exceed the b*^2 of a b* ~ 1e-8 ||M||, far above the cut; the rounding
        # allowance in the threshold and the Cholesky's own shift, each of a few
        # eps times the trace, keep the set open
        rng = np.random.default_rng(26)
        for _ in range(40):
            o = rng.standard_normal((8, 3))
            c = rng.standard_normal(8)
            injection = np.column_stack([c, c + o @ rng.standard_normal(3)])
            a = np.hstack([o, injection])
            assert not consensus._split_holds(a, 3)
            assert not consensus._split_certified(o, injection, np.array([[0, 1]])).any()

    @pytest.mark.parametrize("n, f", SPLIT_SHAPES)
    def test_accepted_sets_equal_the_eigvalsh_rule(self, n, f, bounds):
        # the Cholesky decision accepts no set the whole spectrum would leave open
        # (soundness), and on these draws not one set fewer
        for w in _split_draws(n, f, 1):
            for size in (2 * f, f):
                consensus._scan_split_horizons(w, size)
        assert bounds
        for o, injection, fault_cols, accepted in bounds:
            expected = eigvalsh_split_bound(o, injection, fault_cols, RANK_RTOL)
            assert not (accepted & ~expected).any()
            assert np.array_equal(accepted, expected)

    def test_one_orthogonal_column_is_accepted_above_the_documented_threshold(self):
        # O = [I; 0] has a = 1 and O^+ M = 0, so zeta ~ 0 and b = c for a column
        # of norm c outside col(O): the bound c / (c + 1) exceeds
        # t = (RANK_RTOL + rows (n + 1) eps) ||A||_F exactly when c > c* = t / (1 - t),
        # where ||A||_F = sqrt(n) to within 1e-17. sigma_1(A) = 1, so the rank cut
        # is RANK_RTOL: the accepted column passes, one left open between the cut
        # and c* still passes by the SVDs, and one below the cut fails
        rows, n = 6, 3
        o = np.vstack([np.eye(n), np.zeros((rows - n, n))])
        eps = np.finfo(float).eps
        t = (RANK_RTOL + rows * (n + 1) * eps) * np.sqrt(n)
        c_star = t / (1 - t)
        for c, accepted, passes in ((2 * c_star, True, True), ((RANK_RTOL + c_star) / 2, False, True),
                                    (RANK_RTOL / 2, False, False)):
            injection = np.zeros((rows, 1))
            injection[n + 1, 0] = c
            assert consensus._split_certified(o, injection, np.array([[0]])).tolist() == [accepted]
            a = np.hstack([o, injection])
            assert consensus._split_holds(a[None], n) == split_by_definition(a, n, RANK_RTOL) == passes

    def test_one_orthogonal_column_is_bracketed_at_the_documented_tau(self):
        # the same set at 1000 rows, where the Gram rounding allowance (rows + 1) eps
        # trace is about 500 times the Cholesky's own 2 eps trace shift. O's SVD is
        # exact here (U is a signed identity), so G = c^2 exactly, zeta rounds to 0,
        # and c^2 is accepted exactly when c^2 > tau + 2 eps c^2 / (1 - 2 eps) with
        # tau = b*^2 + (rows + 1) eps c^2, that is c^2 > lam. Points rows eps / 4 on
        # either side of lam settle on either side; without the allowance the lower
        # one would be accepted too. Both lie above the rank cut, so both pass
        rows, n = 1000, 3
        o = np.vstack([np.eye(n), np.zeros((rows - n, n))])
        eps = np.finfo(float).eps
        t = (RANK_RTOL + rows * (n + 1) * eps) * np.sqrt(n)
        b_star = (1 + 4 * eps) * t / (1 - t)
        lam = b_star ** 2 / (1 - (rows + 1) * eps - 2 * eps / (1 - 2 * eps))
        for side, accepted in ((1, True), (-1, False)):
            injection = np.zeros((rows, 1))
            injection[n + 1, 0] = np.sqrt(lam * (1 + side * rows * eps / 4))
            assert consensus._split_certified(o, injection, np.array([[0]])).tolist() == [accepted]
            assert consensus._split_holds(np.hstack([o, injection])[None], n)

    @pytest.mark.parametrize("p", [4, 8])
    def test_blocks_just_below_the_threshold_stay_open(self, p):
        # G = Q diag(lam) Q^T with lambda_min(G) = tau - 1e-17 trace: an unshifted
        # floating-point Cholesky of G - tau I finishes on a share of these, and
        # only the (p+1) eps trace shift keeps every one of them open
        rng = np.random.default_rng(28)
        q = np.linalg.qr(rng.standard_normal((200, p, p)))[0]
        lam = rng.uniform(0.5, 1.0, (200, p))
        gram = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
        trace = np.trace(gram, axis1=1, axis2=2)
        tau = lam.min(axis=1) + 1e-17 * trace
        assert not consensus._eigenvalues_clear(gram, tau, trace).any()

    def test_bound_settles_most_pairs_at_the_passing_horizon(self, bounds):
        # the resilient_f1 workload's first draw of seed 1, period 0
        w = _split_draws(14, 1, 1)[0]
        k = consensus._scan_split_horizons(w, 2)
        assert k == 10
        passing = [accepted for o, injection, _, accepted in bounds if injection.shape[1] == w.n * k]
        # every observer: 14 of them, 91 pairs each
        assert len(passing) == w.n
        settled = sum(int(a.sum()) for a in passing)
        assert settled >= 0.8 * sum(a.size for a in passing)

    @pytest.fixture
    def chunks(self, monkeypatch):
        # [rows, cols, accepted, [(chunk, verdict) of each _split_holds call],
        # verdict] of every (K, observer) check the scan makes
        made = []
        splits, certified = consensus._observer_splits, consensus._split_certified
        holds = consensus._split_holds
        def check(rows, cols, n):
            made.append([rows, cols, None, [], None])
            made[-1][4] = splits(rows, cols, n)
            return made[-1][4]
        def bound(o, injection, fault_cols):
            made[-1][2] = certified(o, injection, fault_cols)
            return made[-1][2]
        def sent(a, n, s=None):
            made[-1][3].append((a, holds(a, n, s)))
            return made[-1][3][-1][1]
        monkeypatch.setattr(consensus, "_observer_splits", check)
        monkeypatch.setattr(consensus, "_split_certified", bound)
        monkeypatch.setattr(consensus, "_split_holds", sent)
        return made

    def test_first_observer_bounds_before_its_svds(self, chunks):
        # the resilient_f2 workload's first draw of seed 1, period 0
        w = _split_draws(10, 2, 1)[0]
        assert consensus._scan_split_horizons(w, 4) == 4
        # K, sets the bound left open and sets sent to _split_holds over all of
        # the check's chunks, of every check
        made = [(rows.shape[1] // w.n - 1,
                 None if accepted is None else int(np.count_nonzero(~accepted)),
                 sum(len(a) for a, _ in calls)) for rows, _, accepted, calls, _ in chunks]
        first = {}
        for k, left_open, batch in made:
            first.setdefault(k, (left_open, batch))
        assert sorted(first) == [1, 2, 3, 4]
        assert all(left_open is not None for left_open, _ in first.values())
        # at K = 2 the bound settles 165 of the 210 sets and leaves 45 open; the
        # first chunk of 4 already fails, so only it reaches the SVDs
        assert first[2] == (45, 4)
        # at the passing K = 4 every observer sends each open set exactly once
        assert all(batch == left_open for k, left_open, batch in made if k == 4)

    @pytest.mark.parametrize("n, f", SPLIT_SHAPES)
    def test_open_sets_go_to_the_svds_in_doubling_chunks(self, n, f, chunks):
        # the chunks are non-empty, disjoint and in the open sets' order, of sizes
        # 4, 8, 16, ...; a passing check covers every open set, and a failing one
        # stops at its first failing chunk
        for w in _split_draws(n, f, 1):
            for size in (2 * f, f):
                consensus._scan_split_horizons(w, size)
        assert any(verdict for *_, verdict in chunks) and not all(verdict for *_, verdict in chunks)
        for rows, cols, accepted, calls, verdict in chunks:
            if len(rows) < n:
                assert accepted is None and calls == [] and not verdict
                continue
            batch = np.moveaxis(rows[:, cols[~accepted]], 1, 0)
            start = 0
            for j, (chunk, passes) in enumerate(calls):
                size = min(4 * 2 ** j, len(batch) - start)
                assert size > 0 and np.array_equal(chunk, batch[start:start + size])
                assert passes == (verdict or j < len(calls) - 1)
                start += size
            assert start == len(batch) if verdict else calls
        # the n >= 14 draws leave checks more than 4 open sets that pass the first
        # chunk; at the smaller shapes every check ends within it
        assert any(len(calls) > 1 for *_, calls, _ in chunks) == (n >= 14)


class TestSynthesizeWeights:
    def test_result_passes_verification(self):
        g, w = _synthesized_instance(77, n=6, f=1)
        assert w.graph == g
        assert verify_rank_condition(w, 1) is not None

    def test_entries_respect_dead_zone(self):
        _, w = _synthesized_instance(78)
        on_pattern = [abs(w.entries[i, j]) for i in range(w.n)
                      for j in list(w.graph.neighbors(i)) + [i]]
        assert min(on_pattern) >= WEIGHT_DEAD_ZONE

    def test_deterministic_under_seed(self):
        g = generate_preventive(5, 1, np.random.default_rng(1))
        a = synthesize_weights(g, 1, np.random.default_rng(2))
        b = synthesize_weights(g, 1, np.random.default_rng(2))
        assert np.array_equal(a.entries, b.entries)

    def test_infeasible_graph_raises(self, monkeypatch):
        # synthesis certifies the graph itself, before any draw
        draws = []
        monkeypatch.setattr(consensus, "draw_weights", lambda *args: draws.append(args))
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InfeasibleTopologyError,
                           match=r"^graph has vertex connectivity 1 < 2f\+1 = 3; witness cut \[\d\]$"):
            synthesize_weights(path, 1, np.random.default_rng(0))
        assert draws == []

    def test_failure_on_a_certified_graph_names_float64(self, monkeypatch):
        # a certified graph leaves float64 ranks as the one cause of exhausted draws
        g = generate_preventive(6, 1, np.random.default_rng(5))
        draws = []
        real = consensus.draw_weights
        monkeypatch.setattr(consensus, "draw_weights", lambda *args: draws.append(args) or real(*args))
        monkeypatch.setattr(consensus, "verify_rank_condition", lambda w, f, floor: None)
        with pytest.raises(SynthesisError) as caught:
            synthesize_weights(g, 1, np.random.default_rng(0))
        assert len(draws) == SYNTHESIS_ATTEMPTS
        message = str(caught.value)
        assert f"rank condition for f=1 after {SYNTHESIS_ATTEMPTS} attempts" in message
        assert "float64" in message and "n=6" in message and "connectivity" not in message

    def test_result_is_the_first_passing_draw(self):
        g = generate_preventive(7, 1, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        draws = [consensus.draw_weights(g, rng) for _ in range(3)]
        first = next(w for w in draws if verify_rank_condition(w, 1) is not None)
        assert synthesize_weights(g, 1, np.random.default_rng(4)) == first

    @pytest.mark.parametrize("floor", [1, 5, 9])
    def test_result_is_the_first_draw_passing_from_the_floor(self, floor, monkeypatch):
        # a draw is kept only when the split holds at some K in floor..n+2, and the
        # horizon the simulator then reads for it is the one synthesis found
        g = generate_preventive(7, 1, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        draws = [consensus.draw_weights(g, rng) for _ in range(SYNTHESIS_ATTEMPTS)]
        first = next(w for w in draws if verify_rank_condition(w, 1, floor=floor) is not None)
        scans = []
        scan = consensus._scan_split_horizons
        monkeypatch.setattr(consensus, "_scan_split_horizons",
                            lambda w, size, start: scans.append(start) or scan(w, size, start))
        w = synthesize_weights(g, 1, np.random.default_rng(4), floor=floor)
        assert w == first and set(scans) == {floor}
        assert floor <= verify_rank_condition(w, 1, floor=floor) <= g.node_count + 2


class TestRunUpdates:
    def test_identity_weights_hold_state(self):
        g = Graph(3, frozenset())
        w = WeightMatrix(np.eye(3), g)
        traj = run_updates(w, [1.0, 2.0, 3.0], InjectionSchedule.empty(4), 4)
        assert np.array_equal(traj, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_swap_weights_permute(self):
        w = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), Graph.from_edges(2, [(0, 1)]))
        traj = run_updates(w, [3.0, 7.0], InjectionSchedule.empty(2), 2)
        assert np.array_equal(traj, [[3.0, 7.0], [7.0, 3.0], [3.0, 7.0]])

    def test_reference_trajectory_matches_oracle(self, ref_weights):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        expected = matrix_iteration_oracle(ref_weights.entries, REF_SUPPLIES, REF_INJECTION, 3)
        assert np.allclose(traj, expected, rtol=1e-13, atol=1e-10)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(314)
        for seed in range(6):
            _, w = _synthesized_instance(seed + 50, n=int(rng.integers(4, 7)))
            s0 = rng.uniform(0, 1000, w.n)
            node = int(rng.integers(0, w.n))
            series = rng.normal(0, 50, 4).tolist()
            inj = InjectionSchedule.from_values({node: series}, 4)
            traj = run_updates(w, s0, inj, 4)
            expected = matrix_iteration_oracle(w.entries, s0, {node: series}, 4)
            assert np.allclose(traj, expected, rtol=1e-12, atol=1e-9)

    def test_horizon_mismatch_rejected(self, ref_weights):
        with pytest.raises(ValueError, match="horizon"):
            run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(2), 3)

    @pytest.mark.parametrize("node", [-1, 6])
    def test_injection_node_outside_the_graph_rejected(self, ref_weights, node):
        # a negative node must not index from the end, as the engine's arrays would
        inj = InjectionSchedule.from_values({node: [30.0, -45.0, 60.0]}, 3)
        with pytest.raises(ValueError, match=rf"node {node} is outside 0\.\.5"):
            run_updates(ref_weights, REF_SUPPLIES, inj, 3)


def _observed(w, trajectory, observer):
    sel = w.selector(observer)
    return ObservationRecord(observer, sel, np.asarray(trajectory, dtype=float)[:, list(sel)])


class TestDecodeKnownFaults:
    def test_fault_free_recovery_is_exact(self):
        _, w = _synthesized_instance(60)
        rng = np.random.default_rng(61)
        s0 = rng.uniform(0, 1000, w.n)
        k = verify_rank_condition(w, 1)
        traj = run_updates(w, s0, InjectionSchedule.empty(k), k)
        for i in range(w.n):
            stack = build_observability_stack(w, i, k)
            res = decode_known_faults(stack, _observed(w, traj, i), ())
            assert np.allclose(res.initial_values, s0, rtol=1e-9)
            assert res.total == pytest.approx(s0.sum(), rel=1e-9)

    def test_reference_scenario_recovers_supplies(self, ref_weights):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        for i in range(6):
            stack = build_observability_stack(ref_weights, i, 3)
            res = decode_known_faults(stack, _observed(ref_weights, traj, i), (3,))
            assert np.allclose(res.initial_values, REF_SUPPLIES, atol=1e-8)
            assert res.total == pytest.approx(441.44, abs=1e-8)
            assert not res.ill_conditioned

    def test_unreachable_injection_column_keeps_condition_finite(self, ref_weights):
        # observer 2 never hears node 3 directly; the last injection
        # step cannot reach its window, the stacked block loses a
        # column, and the reported condition number must still be the
        # effective (finite) one
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        stack = build_observability_stack(ref_weights, 2, 3)
        res = decode_known_faults(stack, _observed(ref_weights, traj, 2), (3,))
        assert np.isfinite(res.condition_number)
        assert not res.ill_conditioned

    @pytest.mark.parametrize("fault_set, message", [
        ((-3,), r"node -3 is outside 0\.\.5"),
        ((6,), r"node 6 is outside 0\.\.5"),
        ((3, 3), "node 3 is repeated"),
    ], ids=["negative", "past-n", "repeated"])
    def test_fault_node_outside_the_graph_or_repeated_rejected(self, ref_weights, fault_set,
                                                               message):
        # -3 would index node 3's columns one step early and fit the data, 6 lies
        # past the operator's columns, and (3, 3) names one node twice
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(ValueError, match=message):
            decode_known_faults(stack, _observed(ref_weights, traj, 0), fault_set)

    def test_wrong_declared_set_is_inconsistent(self, ref_weights):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(DecodeInconsistencyError, match="residual"):
            decode_known_faults(stack, _observed(ref_weights, traj, 0), (5,))

    def test_non_finite_residual_is_inconsistent(self, ref_weights):
        # a NaN residual compares false against any tolerance: it must fail closed
        traj = run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(3), 3)
        traj[2, 1] = np.nan
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(DecodeInconsistencyError, match="nan"):
            decode_known_faults(stack, _observed(ref_weights, traj, 0), (3,))

    def test_underdetermined_state_raises_invariant_error(self):
        # two isolated nodes: observer 0 can never learn node 1's value,
        # and a silent minimum-norm answer would be wrong
        w = WeightMatrix(np.diag([0.5, 0.7]), Graph(2, frozenset()))
        traj = run_updates(w, [10.0, 20.0], InjectionSchedule.empty(2), 2)
        stack = build_observability_stack(w, 0, 2)
        with pytest.raises(InternalInvariantError, match="pin down"):
            decode_known_faults(stack, _observed(w, traj, 0), ())

    def test_conditioning_flag_respects_limit(self, ref_weights, monkeypatch):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        obs = _observed(ref_weights, traj, 0)
        assert not decode_known_faults(stack, obs, (3,)).ill_conditioned
        # the limit is read when the decoder runs, not when it is defined
        monkeypatch.setattr(consensus, "CONDITION_LIMIT", 1.0)
        assert decode_known_faults(stack, obs, (3,)).ill_conditioned

    def test_record_stack_mismatch_rejected(self, ref_weights):
        traj = run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(3), 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(ValueError, match="belong"):
            decode_known_faults(stack, _observed(ref_weights, traj, 1), ())

    @pytest.mark.parametrize("instance", ["golden", "n10-f2"])
    def test_empty_fault_set_solves_o_alone(self, instance, ref_weights):
        # [O M^()] is O itself: the decode must be lstsq on O, byte for byte
        if instance == "golden":
            w, k = ref_weights, 3
        else:
            rng = np.random.default_rng(6)
            w = synthesize_weights(generate_preventive(10, 2, rng), 2, rng)
            k = verify_rank_condition(w, 2)
        s0 = np.random.default_rng(7).uniform(0, 1000, w.n)
        traj = run_updates(w, s0, InjectionSchedule.empty(k), k)
        for i in range(w.n):
            stack = build_observability_stack(w, i, k)
            obs = _observed(w, traj, i)
            res = decode_known_faults(stack, obs, ())
            solution, _, _, svals = np.linalg.lstsq(stack.o, obs.samples.reshape(-1), rcond=None)
            assert res.initial_values.tobytes() == solution.tobytes()
            assert res.total == float(solution.sum())
            assert res.condition_number == float(svals[0] / svals[-1])

    def test_linearity_in_observations(self, ref_weights):
        rng = np.random.default_rng(73)
        k = 3
        s0a, s0b = rng.uniform(0, 100, 6), rng.uniform(0, 100, 6)
        ua = {3: rng.normal(0, 10, k).tolist()}
        ub = {3: rng.normal(0, 10, k).tolist()}
        ta = run_updates(ref_weights, s0a, InjectionSchedule.from_values(ua, k), k)
        tb = run_updates(ref_weights, s0b, InjectionSchedule.from_values(ub, k), k)
        alpha, beta = 2.5, -1.25
        stack = build_observability_stack(ref_weights, 1, k)
        sel = list(ref_weights.selector(1))
        mixed = ObservationRecord(1, tuple(sel), alpha * ta[:, sel] + beta * tb[:, sel])
        res = decode_known_faults(stack, mixed, (3,))
        expected = alpha * s0a + beta * s0b
        assert np.allclose(res.initial_values, expected, rtol=1e-6, atol=1e-8)


class TestDecodeUnknownFaults:
    def test_non_finite_samples_explain_nothing(self, ref_weights):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        traj[3, 0] = np.inf
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(DecodeFailureError), np.errstate(invalid="ignore"):
            decode_unknown_faults(stack, _observed(ref_weights, traj, 0), 1)

    def test_non_finite_gap_is_disagreement(self, ref_weights, monkeypatch):
        # fault-free samples: every candidate is consistent, and a NaN gap
        # between any two must not pass the agreement check
        traj = run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(3), 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        obs = _observed(ref_weights, traj, 0)
        assert len(decode_unknown_faults(stack, obs, 1).consistent_fault_sets) > 1
        monkeypatch.setattr(consensus, "_relative_gap", lambda a, b: float("nan"))
        with pytest.raises(InternalInvariantError, match="disagree"):
            decode_unknown_faults(stack, obs, 1)

    def test_true_fault_set_is_found(self):
        rng = np.random.default_rng(90)
        for seed in range(4):
            _, w = _synthesized_instance(seed + 200, n=5, f=1)
            k = verify_rank_condition(w, 1)
            s0 = rng.uniform(0, 1000, w.n)
            node = int(rng.integers(0, w.n))
            series = rng.normal(0, 40, k).tolist()
            traj = run_updates(w, s0, InjectionSchedule.from_values({node: series}, k), k)
            observer = int(rng.integers(0, w.n))
            stack = build_observability_stack(w, observer, k)
            res = decode_unknown_faults(stack, _observed(w, traj, observer), 1)
            assert (node,) in res.consistent_fault_sets
            assert np.allclose(res.initial_values, s0, rtol=1e-6)

    def test_no_injection_leaves_every_candidate_consistent(self):
        _, w = _synthesized_instance(210)
        k = verify_rank_condition(w, 1)
        rng = np.random.default_rng(211)
        s0 = rng.uniform(0, 1000, w.n)
        traj = run_updates(w, s0, InjectionSchedule.empty(k), k)
        stack = build_observability_stack(w, 0, k)
        res = decode_unknown_faults(stack, _observed(w, traj, 0), 1)
        assert len(res.consistent_fault_sets) == 1 + w.n
        assert np.allclose(res.initial_values, s0, rtol=1e-8)

    def test_zero_injection_equivalence_is_exact(self):
        _, w = _synthesized_instance(220)
        k = verify_rank_condition(w, 1)
        rng = np.random.default_rng(221)
        s0 = rng.uniform(0, 1000, w.n)
        traj = run_updates(w, s0, InjectionSchedule.empty(k), k)
        stack = build_observability_stack(w, 2, k)
        known = decode_known_faults(stack, _observed(w, traj, 2), ())
        unknown = decode_unknown_faults(stack, _observed(w, traj, 2), 1)
        assert np.array_equal(known.initial_values, unknown.initial_values)
        assert known.total == unknown.total
        assert known.residual == unknown.residual

    def test_faults_beyond_bound_fail(self):
        _, w = _synthesized_instance(230, n=6, f=1)
        k = verify_rank_condition(w, 1)
        rng = np.random.default_rng(231)
        s0 = rng.uniform(0, 1000, w.n)
        inj = InjectionSchedule.from_values(
            {0: rng.normal(0, 30, k).tolist(), 3: rng.normal(0, 30, k).tolist()}, k)
        traj = run_updates(w, s0, inj, k)
        stack = build_observability_stack(w, 1, k)
        with pytest.raises(DecodeFailureError, match="no fault set"):
            decode_unknown_faults(stack, _observed(w, traj, 1), 1)

    @staticmethod
    def _engineered_disagreement(ref_weights):
        """Observer 2's stack and observations that fault sets (0,) and (1,)
        both explain, with initial states a vector of norm 100 apart: the reference matrix's
        structural deficiency puts a null vector in [O M^(0,1)]."""
        k = 3
        stack = build_observability_stack(ref_weights, 2, k)
        o = stack.o
        m_pair = stack.m((0, 1))
        a = np.hstack([o, m_pair])
        _, svals, vt = np.linalg.svd(a)
        null = vt[-1]
        assert svals[-1] < 1e-12 * svals[0]
        s_dir, u_pair = null[:6], null[6:]
        scale = 100.0 / np.linalg.norm(s_dir)
        s_dir, u_pair = s_dir * scale, u_pair * scale
        # columns of the pair block interleave (node0, node1) per step
        u0, u1 = u_pair[0::2], u_pair[1::2]
        rng = np.random.default_rng(240)
        s0 = rng.uniform(0, 100, 6)
        y = o @ s0 - stack.m((0,)) @ u0
        sel = stack.selector
        return stack, ObservationRecord(2, sel, y.reshape(k + 1, len(sel)))

    def test_engineered_hypothesis_disagreement_is_caught(self, ref_weights):
        # two different single-node hypotheses explain observer 2's
        # observations with different initial states; the decoder must
        # refuse rather than pick one
        stack, obs = self._engineered_disagreement(ref_weights)
        with pytest.raises(InternalInvariantError, match="disagree"):
            decode_unknown_faults(stack, obs, 1)

    def test_disagreement_names_the_observer_and_both_fault_sets(self, ref_weights):
        stack, obs = self._engineered_disagreement(ref_weights)
        results = {c: decode_known_faults(stack, obs, c) for c in ((0,), (1,))}
        with pytest.raises(InternalInvariantError) as caught:
            decode_unknown_faults(stack, obs, 1)
        message = str(caught.value)
        assert message.startswith("observer 2: consistent fault hypotheses disagree")
        for c, res in results.items():
            assert f"fault set {c} gives total {res.total!r} at residual {res.residual:.3e}" in message
        gap = consensus._relative_gap(results[(0,)].initial_values, results[(1,)].initial_values)
        assert gap > AGREEMENT_RTOL
        assert message.endswith(f"relative gap {gap:.3e} is not within AGREEMENT_RTOL = 1.0e-06")

    @pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                       reason="an aimed in-budget injection denies the decision (ROADMAP item 11)")
    def test_aimed_in_budget_injection_still_decides(self):
        # resilient_f1's seed-1 draw at period 0 (K = 10) passes the full split, yet
        # observer 6 sees col(O) and col(M^Y), Y = (0, 3), at a sine of about 1.4e-8:
        # the split's RANK_RTOL cut accepts what the decoder's RESIDUAL_TOL cannot
        # separate. Node 0 alone, within f = 1, injects its part of the aimed u at
        # max |u| = 10; the rank condition's promise that all consistent hypotheses
        # agree then fails in float64, and the period raises instead of deciding
        workloads = bench_workloads()
        inputs = workloads.load_specs()["resilient_f1"]["inputs"]
        sc, agent = workloads.build(inputs, 1)
        w, k, split = simulator._weights_and_horizon(sc, simulator._topology(sc, agent, 0), 0)
        assert (k, split) == (10, "full")
        sine, u = aimed_injection(w.entries, 6, k, (0, 3), RANK_RTOL)
        assert sine < 10 * RESIDUAL_TOL
        data = workloads.scenario_dict(inputs, 1)
        data["attack"]["controllers"] = [{"node": 0, "injection": {
            "type": "explicit", "values": (10 * u[0::2] / np.abs(u).max()).tolist()}}]
        aimed = scenario_from_dict(data)
        rec = run_period(aimed, agent, "unknown_faults", 0)
        truth = evaluate_criterion(*aimed.true_totals())
        assert set(rec.per_controller_verdict.values()) == {truth}

    def test_bound_past_n_decodes_as_the_bound_n(self):
        # no fault set has more than n nodes, so f = n + 1 sweeps the sizes f = n does;
        # on this draw some observers find a large fault set that explains the data
        # without pinning the state and raise, the others return
        _, w = _synthesized_instance(230, n=6, f=1)
        k = verify_rank_condition(w, 1)
        rng = np.random.default_rng(231)
        inj = InjectionSchedule.from_values({0: rng.normal(0, 30, k).tolist()}, k)
        traj = run_updates(w, rng.uniform(0, 1000, w.n), inj, k)
        def outcome(stack, obs, f):
            try:
                res = decode_unknown_faults(stack, obs, f)
            except (DecodeFailureError, InternalInvariantError, ValueError) as exc:
                return type(exc), str(exc)
            return res.initial_values.tobytes(), res.total, res.consistent_fault_sets
        kinds = set()
        for i in range(w.n):
            stack = build_observability_stack(w, i, k)
            obs = _observed(w, traj, i)
            at_n = outcome(stack, obs, w.n)
            assert outcome(stack, obs, w.n + 1) == at_n
            kinds.add(at_n[0] is InternalInvariantError)
        assert kinds == {True, False}

    def test_negative_bound_rejected(self, ref_weights):
        traj = run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(3), 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(ValueError):
            decode_unknown_faults(stack, _observed(ref_weights, traj, 0), -1)


def _all_candidates(n: int, f: int) -> list[tuple[int, ...]]:
    return [c for size in range(f + 1) for c in combinations(range(n), size)]


def _screen_instance(n: int, f: int, injected: int, seed: int):
    """Synthesized weights at the split horizon and one run of them with
    random injections at `injected` random nodes (none when 0)."""
    _, w = _synthesized_instance(seed, n=n, f=f)
    k = verify_rank_condition(w, f)
    rng = np.random.default_rng(seed + 1)
    nodes = rng.choice(n, size=injected, replace=False)
    inj = InjectionSchedule.from_values({int(v): rng.normal(0, 30, k).tolist() for v in nodes}, k)
    return w, run_updates(w, rng.uniform(0, 1000, n), inj, k), k


SCREEN_CASES = [(8, 1, 1, 300), (9, 1, 1, 310), (8, 2, 1, 320), (8, 2, 2, 330),
                (8, 1, 0, 340), (8, 2, 0, 350)]


class TestDecodeScreen:
    """decode_unknown_faults solves only the candidates its screen keeps;
    the answer must be the unscreened sweep's, byte for byte."""

    @staticmethod
    def _outcomes(w, traj, k, f, observer):
        stack = build_observability_stack(w, observer, k)
        obs = _observed(w, traj, observer)
        try:
            screened = json.dumps(decode_unknown_faults(stack, obs, f).to_json_dict())
        except DecodeFailureError:
            screened = "no consistent fault set"
        except InternalInvariantError as exc:
            assert "disagree" in str(exc)
            screened = "disagreement"
        reference = unscreened_unknown_decode(
            lambda cand: decode_known_faults(stack, obs, cand), DecodeInconsistencyError,
            w.n, f, AGREEMENT_RTOL)
        return screened, reference

    @pytest.mark.parametrize("n, f, injected, seed", SCREEN_CASES)
    def test_screened_sweep_equals_the_unscreened_one(self, n, f, injected, seed):
        w, traj, k = _screen_instance(n, f, injected, seed)
        for observer in range(n):
            screened, reference = self._outcomes(w, traj, k, f, observer)
            assert screened == reference
            if injected == 0:
                # every candidate explains a clean run, so none may be skipped
                found = json.loads(screened)["consistent_fault_sets"]
                assert found == [list(c) for c in _all_candidates(n, f)]

    @pytest.mark.parametrize("n, f, seed", [(8, 1, 360), (8, 2, 370)])
    def test_faults_beyond_the_bound_fail_both_sweeps(self, n, f, seed):
        w, traj, k = _screen_instance(n, f, f + 1, seed)
        for observer in range(n):
            assert self._outcomes(w, traj, k, f, observer) == ("no consistent fault set",) * 2

    @pytest.mark.parametrize("n, f, injected, seed", SCREEN_CASES)
    def test_every_dropped_candidate_is_inconsistent(self, n, f, injected, seed):
        w, traj, k = _screen_instance(n, f, injected, seed)
        dropped = 0
        for observer in range(n):
            stack = build_observability_stack(w, observer, k)
            obs = _observed(w, traj, observer)
            kept = consensus._screened_candidates(stack, obs.samples.reshape(-1), f)
            assert kept == [c for c in _all_candidates(n, f) if c in kept]
            for cand in set(_all_candidates(n, f)) - set(kept):
                with pytest.raises(DecodeInconsistencyError):
                    decode_known_faults(stack, obs, cand)
                dropped += 1
        # with an attacker the screen must actually spare exact solves
        assert (dropped > 0) == (injected > 0)

    def test_no_complement_of_the_state_block_screens_nothing(self):
        # q(k+1) <= n rows leave O no complement to project on, so every
        # candidate is kept whatever the observation
        _, w = _synthesized_instance(380, n=9, f=1)
        observer = min(range(w.n), key=lambda i: len(w.selector(i)))
        q = len(w.selector(observer))
        k = w.n // q - 1
        stack = build_observability_stack(w, observer, k)
        assert stack.o.shape[0] <= w.n
        y = np.random.default_rng(381).normal(0, 100, stack.o.shape[0])
        assert consensus._screened_candidates(stack, y, 2) == _all_candidates(w.n, 2)


class TestBaseline:
    def test_metropolis_is_doubly_stochastic_on_pattern(self, ref_graph):
        w = metropolis_weights(ref_graph)
        assert np.allclose(w.entries.sum(axis=0), 1.0)
        assert np.allclose(w.entries.sum(axis=1), 1.0)
        assert np.array_equal(w.entries != 0, w.entries.T != 0)
        assert all(w.entries[i, i] >= 0 for i in range(6))

    @pytest.mark.parametrize("seed", range(5))
    def test_metropolis_diagonal_is_each_row_summed_alone(self, seed):
        # the per-row reference: 1 minus the row's off-diagonal entries, one row at a time
        w = metropolis_weights(generate_preventive(120, 2, np.random.default_rng(seed)))
        off = w.entries.copy()
        np.fill_diagonal(off, 0.0)
        assert np.diag(w.entries).tolist() == [1.0 - off[i].sum() for i in range(120)]

    @pytest.mark.parametrize("seed", range(3))
    def test_metropolis_off_diagonal_is_the_pair_formula(self, seed):
        g = generate_preventive(120, 2, np.random.default_rng(seed))
        w = metropolis_weights(g)
        want = np.zeros((120, 120))
        for i, j in g.edges:
            want[i, j] = want[j, i] = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
        np.fill_diagonal(want, np.diag(w.entries))
        assert w.entries.tobytes() == want.tobytes()

    def test_no_injection_converges_to_mean(self, ref_graph):
        rng = np.random.default_rng(55)
        s0 = rng.uniform(0, 100, 6)
        traj = run_updates(metropolis_weights(ref_graph), s0, InjectionSchedule.empty(60), 60)
        dev = np.abs(traj - s0.mean()).max(axis=1)
        assert dev[-1] < 1e-6 * max(1.0, abs(s0.mean()))
        assert np.all(np.diff(dev[10:]) <= 1e-12)

    def test_injection_shifts_the_conserved_sum(self, ref_graph):
        s0 = np.array(REF_SUPPLIES)
        inj = InjectionSchedule.from_values(REF_INJECTION, 30)
        traj = run_updates(metropolis_weights(ref_graph), s0, inj, 30)
        assert traj[-1].sum() == pytest.approx(s0.sum() + 45.0, abs=1e-8)
        estimates = 6 * traj[-1]
        assert np.all(np.abs(estimates - s0.sum()) > 5.0)

    def test_single_node_is_constant(self):
        g = Graph(1, frozenset())
        traj = run_updates(metropolis_weights(g), [4.2], InjectionSchedule.empty(5), 5)
        assert np.array_equal(traj, np.full((6, 1), 4.2))


class TestNumericsHelpers:
    def test_numerical_rank(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.zeros((0, 4))) == 0
        assert numerical_rank(np.eye(5) * 1e-30) == 5
        a = np.diag([1.0, 1e-6, 1e-12])
        assert numerical_rank(a) == 2
        # a stack gets one rank per matrix, each against its own largest value
        stack = np.stack([np.zeros((3, 3)), a, np.eye(3) * 1e-30])
        assert numerical_rank(stack).tolist() == [0, 2, 3]
        assert numerical_rank(np.zeros((4, 3, 0))).tolist() == [0, 0, 0, 0]
