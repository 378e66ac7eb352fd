"""Weight synthesis, rank verification, the update law, and both decoders."""

from itertools import combinations

import numpy as np
import pytest

from mgnet import consensus
from mgnet import (
    DecodeFailureError,
    DecodeInconsistencyError,
    Graph,
    InjectionSchedule,
    InternalInvariantError,
    ObservationRecord,
    SynthesisError,
    WeightMatrix,
    build_observability_stack,
    decode_known_faults,
    decode_unknown_faults,
    generate_preventive,
    metropolis_weights,
    run_average_consensus_baseline,
    run_updates,
    synthesize_weights,
    verify_candidate_uniqueness,
    verify_rank_condition,
)
from mgnet.consensus import RANK_RTOL, WEIGHT_DEAD_ZONE, combine_neighborhood, numerical_rank

from conftest import REF_SUPPLIES
from oracles import (
    brute_force_connectivity,
    matrix_iteration_oracle,
    observability_index_oracle,
    split_horizon_oracle,
    stacked_operators,
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
        g = Graph.from_edges(3, [(0, 1)])
        entries = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            WeightMatrix(entries, g)

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
        assert inj.value(2, 1) == 6.0
        assert inj.value(4, 1) == 0.0
        assert inj.value(0, 0) == 0.0

    def test_series_longer_than_horizon_rejected(self):
        with pytest.raises(ValueError, match="longer than horizon"):
            InjectionSchedule.from_values({0: [1.0, 2.0]}, horizon=1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            InjectionSchedule((1, 1), np.zeros((2, 2)), 2)

    def test_empty(self):
        inj = InjectionSchedule.empty(4)
        assert inj.is_empty
        assert not InjectionSchedule.from_values({0: [0.5]}, 2).is_empty
        assert InjectionSchedule.from_values({0: [0.0]}, 2).is_empty


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
                assert np.allclose(long.o[:rows], short.o, rtol=0, atol=1e-12)
                assert np.allclose(long.injection[:rows, :w.n * k], short.injection,
                                   rtol=0, atol=1e-12)

    def test_argument_validation(self, ref_weights):
        with pytest.raises(ValueError):
            build_observability_stack(ref_weights, 0, 0)
        with pytest.raises(ValueError):
            build_observability_stack(ref_weights, 9, 2)


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
        assert numerical_rank(np.hstack([stack.o, m])) == 13
        assert 6 + numerical_rank(m) == 14

    def test_fault_free_equals_observability_index(self):
        for seed in (11, 12, 13):
            _, w = _synthesized_instance(seed, n=5, f=0)
            smallest = verify_rank_condition(w, 0)
            per_observer = [observability_index_oracle(w.entries, i, w.n + 2) for i in range(w.n)]
            assert smallest == max(per_observer)
            assert smallest <= w.n - 1

    def test_complete_graph_decodes_immediately_at_any_bound(self):
        # complete graphs have no separator: every observer sees the
        # whole state directly, so the split holds at K = 1 whatever f
        g = Graph.complete(3)
        rng = np.random.default_rng(4)
        w = synthesize_weights(g, 0, rng)
        assert verify_rank_condition(w, 1, k_max=6) == 1
        assert verify_rank_condition(w, 3, k_max=6) == 1

    def test_separated_graphs_fail_at_every_horizon(self):
        # incomplete graphs with kappa <= 2f carry a real separator, and
        # injections at the cut can mask any difference beyond it for
        # any weights; a 6-cycle (kappa = 2) and a path (kappa = 1)
        for pairs in ([(i, (i + 1) % 6) for i in range(6)],
                      [(0, 1), (1, 2), (2, 3)]):
            g = Graph.from_edges(max(max(p) for p in pairs) + 1, pairs)
            rng = np.random.default_rng(9)
            w = synthesize_weights(g, 0, rng)
            assert verify_rank_condition(w, 1, k_max=8) is None

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
                        assert verify_rank_condition(w, f, n + 2) is None, \
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
                    assert verify_rank_condition(w, f, 8) is None, \
                        f"edges={edges} kappa={kappa} f={f}"
        assert checked == 300

    def test_argument_validation(self, ref_weights):
        with pytest.raises(ValueError):
            verify_rank_condition(ref_weights, -1)
        with pytest.raises(ValueError):
            verify_rank_condition(ref_weights, 1, k_max=0)

    def test_large_k_max_builds_only_the_horizons_scanned(self, ref_weights, monkeypatch):
        # stacks at k_max itself would need ~175 TiB here, which no allocator grants
        horizons = []
        build = consensus.build_observability_stack
        monkeypatch.setattr(consensus, "build_observability_stack",
                            lambda w, i, k: horizons.append(k) or build(w, i, k))
        assert verify_rank_condition(ref_weights, 0, k_max=10**6) == 1
        assert set(horizons) == {ref_weights.n + 2}

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
            # past the default n + 2, so the check also grows its stacks
            k_max = n + 4
            full = verify_rank_condition(w, f, k_max)
            weak = verify_candidate_uniqueness(w, f, k_max)
            assert full == split_horizon_oracle(w.entries, min(2 * f, n), k_max, RANK_RTOL)
            assert weak == split_horizon_oracle(w.entries, min(f, n), k_max, RANK_RTOL)
            outcomes += [full, weak]
        assert None in outcomes and any(k is not None for k in outcomes)

    def test_uniqueness_split_is_implied_by_the_full_split(self):
        for seed in (21, 22):
            _, w = _synthesized_instance(seed)
            full = verify_rank_condition(w, 1)
            weak = verify_candidate_uniqueness(w, 1)
            assert full is not None
            assert weak is not None and weak <= full


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

    def test_infeasible_graph_raises(self):
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(SynthesisError, match="rank condition"):
            synthesize_weights(path, 1, np.random.default_rng(0), max_attempts=3)


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


def _observed(w, trajectory, observer):
    return ObservationRecord.from_trajectory(w, observer, trajectory)


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

    def test_wrong_declared_set_is_inconsistent(self, ref_weights):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(DecodeInconsistencyError, match="residual"):
            decode_known_faults(stack, _observed(ref_weights, traj, 0), (5,))

    def test_underdetermined_state_raises_invariant_error(self):
        # two isolated nodes: observer 0 can never learn node 1's value,
        # and a silent minimum-norm answer would be wrong
        w = WeightMatrix(np.diag([0.5, 0.7]), Graph(2, frozenset()))
        traj = run_updates(w, [10.0, 20.0], InjectionSchedule.empty(2), 2)
        stack = build_observability_stack(w, 0, 2)
        with pytest.raises(InternalInvariantError, match="pin down"):
            decode_known_faults(stack, _observed(w, traj, 0), ())

    def test_conditioning_flag_respects_limit(self, ref_weights):
        inj = InjectionSchedule.from_values(REF_INJECTION, 3)
        traj = run_updates(ref_weights, REF_SUPPLIES, inj, 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        res = decode_known_faults(stack, _observed(ref_weights, traj, 0), (3,), condition_limit=1.0)
        assert res.ill_conditioned

    def test_record_stack_mismatch_rejected(self, ref_weights):
        traj = run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(3), 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(ValueError, match="belong"):
            decode_known_faults(stack, _observed(ref_weights, traj, 1), ())

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

    def test_engineered_hypothesis_disagreement_is_caught(self, ref_weights):
        # the reference matrix's structural deficiency lets observer 2
        # build observations that two different single-node hypotheses
        # explain with different initial states; the decoder must refuse
        # rather than pick one
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
        obs = ObservationRecord(2, sel, y.reshape(k + 1, len(sel)))
        with pytest.raises(InternalInvariantError, match="disagree"):
            decode_unknown_faults(stack, obs, 1)

    def test_negative_bound_rejected(self, ref_weights):
        traj = run_updates(ref_weights, REF_SUPPLIES, InjectionSchedule.empty(3), 3)
        stack = build_observability_stack(ref_weights, 0, 3)
        with pytest.raises(ValueError):
            decode_unknown_faults(stack, _observed(ref_weights, traj, 0), -1)


class TestBaseline:
    def test_metropolis_is_doubly_stochastic_on_pattern(self, ref_graph):
        w = metropolis_weights(ref_graph)
        assert np.allclose(w.entries.sum(axis=0), 1.0)
        assert np.allclose(w.entries.sum(axis=1), 1.0)
        assert np.array_equal(w.entries != 0, w.entries.T != 0)
        assert all(w.entries[i, i] >= 0 for i in range(6))

    def test_no_injection_converges_to_mean(self, ref_graph):
        rng = np.random.default_rng(55)
        s0 = rng.uniform(0, 100, 6)
        traj = run_average_consensus_baseline(ref_graph, s0, InjectionSchedule.empty(60), 60)
        dev = np.abs(traj - s0.mean()).max(axis=1)
        assert dev[-1] < 1e-6 * max(1.0, abs(s0.mean()))
        assert np.all(np.diff(dev[10:]) <= 1e-12)

    def test_injection_shifts_the_conserved_sum(self, ref_graph):
        s0 = np.array(REF_SUPPLIES)
        inj = InjectionSchedule.from_values(REF_INJECTION, 30)
        traj = run_average_consensus_baseline(ref_graph, s0, inj, 30)
        assert traj[-1].sum() == pytest.approx(s0.sum() + 45.0, abs=1e-8)
        estimates = 6 * traj[-1]
        assert np.all(np.abs(estimates - s0.sum()) > 5.0)

    def test_single_node_is_constant(self):
        g = Graph(1, frozenset())
        traj = run_average_consensus_baseline(g, [4.2], InjectionSchedule.empty(5), 5)
        assert np.array_equal(traj, np.full((6, 1), 4.2))

    def test_disconnected_graph_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            run_average_consensus_baseline(g, np.zeros(4), InjectionSchedule.empty(3), 3)


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

    def test_combine_neighborhood_is_a_masked_dot(self):
        row = np.array([2.0, 0.0, -1.0, 0.5])
        sel = np.array([0, 2, 3])
        vals = np.array([10.0, 3.0, 4.0])
        assert combine_neighborhood(row, sel, vals) == 2.0 * 10.0 + (-1.0) * 3.0 + 0.5 * 4.0
