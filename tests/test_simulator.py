"""Round engine faithfulness, the gather medium, and campaign behavior."""

import itertools
import json

import numpy as np
import pytest

from mgnet import consensus, simulator
from mgnet import graph as graph_module
from mgnet import (
    ConfigError,
    Graph,
    InfeasibleTopologyError,
    InjectionSchedule,
    MicrogridProfile,
    RoundEngine,
    SynthesisError,
    WeightMatrix,
    generate_preventive,
    generate_responsive,
    load_golden_scenario,
    metropolis_weights,
    run_campaign,
    run_period,
    run_updates,
)
from mgnet.graph import check_edges
from mgnet.scenario import scenario_from_dict, scenario_to_dict
from mgnet.simulator import CommunicationAgent, trajectory_csv_text, write_run_artifacts

from conftest import REF_SUPPLIES, REF_DEMANDS, bench_workloads
from oracles import split_by_definition


def golden():
    return load_golden_scenario()


def bench_profiles(n, rng):
    """Profiles drawn as the benchmark's recipes draw them: 5..50 kWh, two decimals."""
    return tuple(MicrogridProfile(i, round(float(rng.uniform(5.0, 50.0)), 2),
                                  round(float(rng.uniform(5.0, 50.0)), 2)) for i in range(n))


def random_scenario(seed=5, n=5, f=1):
    return scenario_from_dict({
        "microgrids": [
            {"id": i, "supply": 20.0 + 3.0 * i, "critical_demand": 10.0 + 2.0 * i}
            for i in range(n)
        ],
        "f": f,
        "seed": seed,
        "attack": {"controllers": [
            {"node": 2, "injection": {"type": "normal", "mean": 0.0, "std": 25.0}}]},
    })


class TestEngineFaithfulness:
    def test_trajectories_match_compact_iteration_bitwise(self, ref_weights):
        sc = golden()
        k = 3
        inj = InjectionSchedule.from_values({3: [30.0, -45.0, 60.0]}, k)
        run = RoundEngine(ref_weights, sc.microgrids, inj).run()
        for q, start in (("supply", REF_SUPPLIES), ("demand", REF_DEMANDS)):
            expected = run_updates(ref_weights, start, inj, k)
            assert np.array_equal(run.trajectories[q], expected)

    def test_baseline_engine_matches_compact_iteration_bitwise(self, ref_graph):
        sc = golden()
        steps = 30
        w = metropolis_weights(ref_graph)
        inj = InjectionSchedule.from_values({3: [30.0, -45.0, 60.0]}, steps)
        run = RoundEngine(w, sc.microgrids, inj).run()
        expected = run_updates(w, REF_SUPPLIES, inj, steps)
        assert np.array_equal(run.trajectories["supply"], expected)

    @pytest.mark.parametrize("node", [-1, 6])
    def test_injection_node_outside_the_graph_rejected(self, ref_weights, node):
        # position[-1] is node 5's place: a negative node must not index from the end
        inj = InjectionSchedule.from_values({node: [30.0, -45.0, 60.0]}, 3)
        with pytest.raises(ValueError, match=rf"node {node} is outside 0\.\.5"):
            RoundEngine(ref_weights, golden().microgrids, inj)

    @pytest.mark.parametrize("kind", ["golden", "metropolis"])
    def test_controllers_hold_their_restricted_row(self, kind, ref_weights):
        w = ref_weights if kind == "golden" else metropolis_weights(ref_weights.graph)
        engine = RoundEngine(w, golden().microgrids, InjectionSchedule.empty(3))
        for c in engine.classes:
            for i, row in zip(c.nodes, c.weights):
                assert row.tobytes() == w.entries[i, list(w.selector(i))].tobytes()

    def test_delivery_count_is_every_edge_both_ways_each_round(self, ref_weights):
        sc = golden()
        run = RoundEngine(ref_weights, sc.microgrids, InjectionSchedule.empty(3)).run()
        # 2 quantities x 2 directions x 10 edges x 4 rounds
        assert run.deliveries == 2 * 2 * 10 * 4

    def test_bench_size_engine_matches_compact_iteration_bitwise(self):
        # the baseline_large shape: plain averaging on a responsive n=120, f=2 graph
        rng = np.random.default_rng(11)
        g = generate_responsive(120, 2, frozenset(), rng)
        w = metropolis_weights(g)
        steps = 30
        profiles = bench_profiles(120, rng)
        inj = InjectionSchedule.from_values(
            {int(v): rng.normal(0.0, 40.0, steps).tolist() for v in rng.choice(120, 2, replace=False)},
            steps)
        run = RoundEngine(w, profiles, inj).run()
        starts = {"supply": [p.supply for p in profiles],
                  "demand": [p.critical_demand for p in profiles]}
        for q, start in starts.items():
            assert run.trajectories[q].tobytes() == run_updates(w, start, inj, steps).tobytes()
        assert run.deliveries == 2 * 2 * len(g.edges) * (steps + 1)

    def test_class_ordered_states_are_returned_in_node_order(self):
        # classes whose order is not node order, nor an involution of it, and injections
        # at a node of the smallest and of the largest class
        rng = np.random.default_rng(4)
        w = metropolis_weights(generate_responsive(30, 1, frozenset(), rng))
        profiles = bench_profiles(30, rng)
        classes = RoundEngine(w, profiles, InjectionSchedule.empty(1)).classes
        order = np.concatenate([c.nodes for c in classes])
        assert len(classes) >= 3 and not np.array_equal(order[order], np.arange(30))
        injected = (int(classes[0].nodes[-1]), int(classes[-1].nodes[0]))
        steps = 12
        inj = InjectionSchedule.from_values(
            {j: rng.normal(0.0, 40.0, steps).tolist() for j in injected}, steps)
        run = RoundEngine(w, profiles, inj).run()
        starts = {"supply": [p.supply for p in profiles],
                  "demand": [p.critical_demand for p in profiles]}
        for q, start in starts.items():
            assert run.trajectories[q].flags.c_contiguous
            assert run.trajectories[q].tobytes() == run_updates(w, start, inj, steps).tobytes()

    def test_engine_validates_its_inputs(self, ref_weights):
        sc = golden()
        with pytest.raises(ValueError, match="profiles"):
            RoundEngine(ref_weights, sc.microgrids[:5], InjectionSchedule.empty(3))

    @pytest.mark.parametrize("horizon", [2, 5])
    def test_engine_takes_graph_and_horizon_from_its_inputs(self, horizon, ref_weights):
        # the attributes the benchmark's faithfulness gate hands to run_updates
        schedule = InjectionSchedule.from_values({3: [30.0, -45.0]}, horizon)
        engine = RoundEngine(ref_weights, golden().microgrids, schedule)
        assert engine.graph is ref_weights.graph and engine.weights is ref_weights
        assert engine.schedule is schedule and engine.horizon == schedule.horizon == horizon
        run = engine.run()
        assert run.trajectories["supply"].shape == (horizon + 1, 6)
        assert np.array_equal(run.trajectories["supply"],
                              run_updates(engine.weights, REF_SUPPLIES, engine.schedule,
                                          engine.horizon))


class TestGatherMedium:
    """Locality holds by construction: the controllers are rows of neighbourhood-size
    classes built once from the graph, and each round every class gathers its rows
    of the round's states in one contiguous block."""

    @pytest.mark.parametrize("kind", ["golden", "preventive", "responsive"])
    def test_selector_is_the_closed_neighbourhood(self, kind, ref_weights):
        rng = np.random.default_rng(3)
        if kind == "golden":
            w = ref_weights
        elif kind == "preventive":
            w = metropolis_weights(generate_preventive(40, 2, rng))
        else:
            w = metropolis_weights(generate_responsive(40, 2, check_edges(
                [(0, 1), (2, 3), (5, 9)]), rng))
        n = w.graph.node_count
        engine = RoundEngine(w, bench_profiles(n, rng), InjectionSchedule.empty(2))
        seen = []
        for c in engine.classes:
            assert c.selectors.shape == (len(c.nodes), c.weights.shape[1])
            for i, sel in zip(c.nodes.tolist(), c.selectors.tolist()):
                assert sel == sorted({i} | set(w.graph.neighbors(i)))
                seen.append(i)
        assert sorted(seen) == list(range(n))

    def test_each_recorded_row_is_one_contiguous_gather(self, monkeypatch, ref_weights):
        vecdot, stepped = np.vecdot, []

        def spy(weights, rows, **kwargs):
            stepped.append(rows.shape)
            assert rows.flags.c_contiguous and weights.flags.c_contiguous
            return vecdot(weights, rows, **kwargs)

        monkeypatch.setattr(np, "vecdot", spy)
        engine = RoundEngine(ref_weights, golden().microgrids, InjectionSchedule.empty(3))
        engine.run()
        # one step per class and update round, each over (quantity, row, L)
        assert stepped == [(2, *c.selectors.shape) for _ in range(3) for c in engine.classes]

    def test_deliveries_are_the_neighbour_entries_gathered(self, ref_weights):
        inj = InjectionSchedule.from_values({3: [30.0, -45.0, 60.0]}, 3)
        engine = RoundEngine(ref_weights, golden().microgrids, inj)
        run = engine.run()
        # each class of m rows of L entries reads m(L-1) neighbour entries per quantity and round
        m_l = [c.selectors.shape for c in engine.classes]
        gathered = 2 * (3 + 1) * sum(m * (size - 1) for m, size in m_l)
        # 2 quantities x 2 directions x 10 edges x 4 rounds
        assert run.deliveries == gathered == 2 * 2 * 10 * 4

    @pytest.mark.parametrize("mode", ["baseline", "known_faults", "unknown_faults"])
    def test_decoders_get_each_controllers_selector_columns_once(self, mode, monkeypatch):
        decoded = []

        def recorded(decode):
            def call(stack, samples, arg):
                decoded.append((stack.observer, stack.selector, samples))
                return decode(stack, samples, arg)
            return call

        for name in ("decode_known_faults", "decode_unknown_faults"):
            monkeypatch.setattr(simulator, name, recorded(getattr(simulator, name)))
        sc = golden()
        rec = run_period(sc, CommunicationAgent("preventive", sc.f, sc.seed), mode)
        if mode == "baseline":
            assert decoded == []
            return
        # a resilient period decodes each controller's two quantities once, from a
        # C-contiguous copy of the trajectory's columns its neighbourhood names
        assert [i for i, _, _ in decoded] == [i for i in range(sc.n) for _ in simulator.QUANTITIES]
        for (i, sel, samples), q in zip(decoded, simulator.QUANTITIES * sc.n):
            assert sel == rec.graph.closed_neighborhood(i)
            assert samples.flags.c_contiguous
            assert samples.tobytes() == rec.trajectories[q][:, list(sel)].tobytes()

    @pytest.mark.parametrize("size", range(1, 41))
    def test_vecdot_over_gathered_rows_is_the_per_row_dot(self, size):
        # the BLAS contract the engine rests on, across OpenBLAS's 16-entry block
        rng = np.random.default_rng(size)
        states = rng.normal(0.0, 1.0, (2, 3, 50)) * 10.0 ** rng.integers(-6, 7, (2, 3, 50))
        sel = np.sort(rng.permuted(np.tile(np.arange(50), (7, 1)), axis=1)[:, :size], axis=1)
        weights = rng.normal(0.0, 1.0, (7, size))
        rows = np.take(states[:, 1], sel, axis=1)
        got = np.vecdot(weights, rows)
        want = np.array([[np.dot(weights[j], states[q, 1, sel[j]]) for j in range(7)]
                         for q in range(2)])
        assert got.tobytes() == want.tobytes()
        # the engine's form: a (quantity, row, L) view, at an odd offset, of one flat take over
        # a round's states, stepped through out= into a strided (quantity, row) view
        round_states = np.ascontiguousarray(states[:, 1])
        flat = np.concatenate([rng.integers(0, 100, 5), sel.ravel(), (sel + 50).ravel()])
        gathered = np.empty(flat.size)
        np.take(round_states.reshape(-1), flat, out=gathered, mode="wrap")
        nxt = np.full((2, 50), np.nan)
        np.vecdot(weights, gathered[5:].reshape(2, 7, size), out=nxt[:, 20:27])
        assert nxt[:, 20:27].tobytes() == want.tobytes()


class TestAgentBlindness:
    def test_call_log_records_only_topology_inputs(self):
        sc = random_scenario()
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        run_period(sc, agent, "unknown_faults")
        assert len(agent.calls) == 1
        assert set(agent.calls[0]) == {"n", "f", "link_attacks", "seed", "period", "strategy"}

    def test_fixed_topology_scenarios_never_consult_the_agent(self):
        agent = CommunicationAgent("preventive", 1, 0)
        run_period(golden(), agent, "known_faults")
        assert agent.calls == []

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            CommunicationAgent("adaptive", 1, 0)

    def test_link_attacks_reach_agent_only_when_disclosed(self):
        base = scenario_to_dict(random_scenario())
        base["attack"]["links"] = [[0, 1]]
        for known, expected in ((False, []), (True, [(0, 1)])):
            base["attack"]["known_to_agent"] = known
            base["graph"]["strategy"] = "responsive"
            sc = scenario_from_dict(base)
            agent = CommunicationAgent("responsive", sc.f, sc.seed)
            run_period(sc, agent, "unknown_faults")
            assert agent.calls[0]["link_attacks"] == expected


class TestRunPeriod:
    def test_golden_known_and_unknown_agree(self):
        sc = golden()
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        known = run_period(sc, agent, "known_faults")
        unknown = run_period(sc, agent, "unknown_faults")
        for rec in (known, unknown):
            assert rec.unanimous()
            assert rec.recovered_supply_total == pytest.approx(441.44, abs=1e-9)
            assert rec.recovered_demand_total == pytest.approx(380.06, abs=1e-9)
            assert rec.diagnostics["rank_split"] == "per_candidate"
            assert rec.diagnostics["k"] == 3
            assert rec.diagnostics["audit"] == {"deliveries": 2 * 2 * 10 * 4}
        sets = unknown.diagnostics["controllers"]["0"]["supply"]["consistent_fault_sets"]
        assert sets == [[3]]

    def test_synthesized_weights_take_the_full_split(self):
        sc = random_scenario()
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        rec = run_period(sc, agent, "unknown_faults")
        assert rec.diagnostics["rank_split"] == "full"
        supply, demand = sc.true_totals()
        assert rec.recovered_supply_total == pytest.approx(supply, rel=1e-9)
        assert rec.recovered_demand_total == pytest.approx(demand, rel=1e-9)
        assert rec.unanimous()

    def test_supplied_complete_graph_with_drawn_weights_decodes_exactly(self):
        # K3 is the bare clique at f=1: complete, so the one rule passes it
        sc = random_scenario(n=3).with_fixed_graph(Graph.complete(3))
        rec = run_period(sc, CommunicationAgent("preventive", sc.f, sc.seed), "unknown_faults")
        assert rec.diagnostics["rank_split"] == "full"
        assert rec.diagnostics["weights_source"] == "random"
        supply, demand = sc.true_totals()
        assert rec.recovered_supply_total == pytest.approx(supply, rel=1e-9)
        assert rec.recovered_demand_total == pytest.approx(demand, rel=1e-9)
        assert rec.unanimous()

    @pytest.mark.parametrize("mode", ["known_faults", "unknown_faults", "baseline"])
    def test_one_microgrid_at_f_zero_completes(self, mode):
        # K_1 is complete, and its generator and the simulator certify it by convention
        sc = scenario_from_dict({"microgrids": [{"id": 0, "supply": 30.0, "critical_demand": 20.0}],
                                 "f": 0, "seed": 3})
        rec = run_period(sc, CommunicationAgent("preventive", sc.f, sc.seed), mode)
        assert rec.diagnostics["error"] is None and rec.graph == Graph(1, frozenset())
        assert rec.recovered_supply_total == pytest.approx(30.0, rel=1e-9)
        assert rec.recovered_demand_total == pytest.approx(20.0, rel=1e-9)
        assert rec.unanimous()

    def test_one_split_scan_per_weight_draw(self, monkeypatch, operator_builds):
        # the golden system with synthesized weights: the horizon pick reads
        # synthesis's certificate instead of scanning the winning draw again
        data = scenario_to_dict(golden())
        data["weights"] = {"type": "random"}
        sc = scenario_from_dict(data)
        draws = []
        check = consensus.verify_rank_condition
        monkeypatch.setattr(consensus, "verify_rank_condition",
                            lambda *args, **kwargs: draws.append(args) or check(*args, **kwargs))
        rec = run_period(sc, CommunicationAgent(sc.graph.strategy, sc.f, sc.seed),
                         "unknown_faults")
        assert rec.diagnostics["rank_split"] == "full"
        # one operator per observer and draw, the decoders' stacks included
        assert draws and len(operator_builds) == sc.n * len(draws)

    def test_decode_stacks_are_the_scanned_operators(self, monkeypatch, operator_builds):
        # every stack a controller decodes from is a view of the operator the
        # scan built on the period's matrix; decoding builds none
        sc = random_scenario(n=6)
        drawn, stacks = [], []
        draw, build = consensus.draw_weights, simulator.build_observability_stack
        monkeypatch.setattr(consensus, "draw_weights",
                            lambda g, rng: drawn.append(draw(g, rng)) or drawn[-1])
        monkeypatch.setattr(simulator, "build_observability_stack",
                            lambda w, i, k: stacks.append((w, i, build(w, i, k))) or stacks[-1][2])
        for mode in ("unknown_faults", "known_faults"):
            for log in (drawn, stacks, operator_builds):
                log.clear()
            rec = run_period(sc, CommunicationAgent("preventive", sc.f, sc.seed), mode)
            assert rec.diagnostics["error"] is None
            assert [i for _, i, _ in stacks] == list(range(sc.n))
            assert len(operator_builds) == sc.n * len(drawn)
            for w, i, stack in stacks:
                assert w is drawn[-1]
                assert np.shares_memory(stack.o, w._operators[i])
                assert np.shares_memory(stack.injection, w._operators[i])

    def test_fixed_weights_scanned_once_per_campaign(self, operator_builds):
        # golden's fixed matrix fails the full split and passes the per-candidate
        # one; both scans, and every period's decoding, read the n operators
        # built on the scenario's matrix in period 0
        sc = golden()
        records = run_campaign(sc, 4, CommunicationAgent(sc.graph.strategy, sc.f, sc.seed),
                               "unknown_faults")
        assert all(r.diagnostics["error"] is None for r in records)
        assert len(operator_builds) == sc.n

    def test_baseline_mode_reports_estimate_deviation(self):
        sc = golden()
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        rec = run_period(sc, agent, "baseline")
        dev = rec.diagnostics["max_estimate_deviation"]
        assert max(dev["supply"], dev["demand"]) > 5.0
        assert not rec.diagnostics["estimates_reliable"]

    def test_baseline_record_names_each_quantity_from_its_trajectory(self):
        # each controller's estimate is n times its own final value of that quantity,
        # and the truth and deviation fields are keyed by the same names
        sc = golden()
        rec = run_period(sc, CommunicationAgent(sc.graph.strategy, sc.f, sc.seed), "baseline")
        diag = rec.diagnostics
        truth = dict(zip(("supply", "demand"), sc.true_totals()))
        assert diag["true_totals"] == truth
        for q in ("supply", "demand"):
            estimates = [diag["controllers"][str(i)][f"{q}_estimate"] for i in range(sc.n)]
            assert estimates == [sc.n * rec.trajectories[q][-1, i] for i in range(sc.n)]
            assert diag["max_estimate_deviation"][q] == max(abs(e - truth[q]) for e in estimates)
        assert truth["supply"] != truth["demand"]
        assert not np.array_equal(rec.trajectories["supply"], rec.trajectories["demand"])

    def test_run_period_is_deterministic(self):
        sc = random_scenario()
        records = [
            run_period(sc, CommunicationAgent("preventive", sc.f, sc.seed), "unknown_faults")
            for _ in range(2)
        ]
        a, b = (json.dumps(r.to_json_dict(), sort_keys=True) for r in records)
        assert a == b
        assert np.array_equal(records[0].trajectories["supply"], records[1].trajectories["supply"])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="decode_mode"):
            run_period(golden(), CommunicationAgent("preventive", 1, 0), "oracle")

    def test_fixed_graph_override_must_match_size(self):
        sc = random_scenario()
        with pytest.raises(ConfigError, match="nodes"):
            sc.with_fixed_graph(Graph.complete(4))

    def test_with_fixed_graph_replaces_the_topology(self):
        sc = random_scenario()
        g = Graph.complete(5)
        pinned = sc.with_fixed_graph(g)
        assert sc.graph.fixed is None
        assert pinned.graph.fixed is g
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        rec = run_period(pinned, agent, "unknown_faults", 2)
        assert rec.graph is g
        assert agent.calls == []

    def test_with_fixed_graph_moves_fixed_weights_onto_it(self):
        sc = golden()
        g = Graph.complete(6)
        moved = sc.with_fixed_graph(g)
        assert moved.weights.graph is g
        assert np.array_equal(moved.weights.entries, sc.weights.entries)
        with pytest.raises(ConfigError, match=r"weights\.matrix does not fit the fixed graph: "
                                              r"entry \(0, 2\) is nonzero"):
            sc.with_fixed_graph(Graph.from_edges(6, [(i, i + 1) for i in range(5)]))

    def test_supplied_graph_below_two_f_plus_one_fails_before_synthesis(self, monkeypatch):
        # a 10-node cycle is 2-connected and f=1 needs 3: synthesis certifies it
        # and tries no weight draw
        cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
        sc = random_scenario(n=10).with_fixed_graph(cycle)
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        draws = []
        real = consensus.draw_weights
        monkeypatch.setattr(consensus, "draw_weights", lambda *args: draws.append(args) or real(*args))
        with pytest.raises(InfeasibleTopologyError,
                           match=r"connectivity 2 < 2f\+1 = 3; witness cut \[1, 9\]"):
            run_period(sc, agent, "unknown_faults")
        assert draws == []
        # plain averaging needs no certificate
        assert run_period(sc, agent, "baseline").diagnostics["error"] is None

    def test_supplied_graph_is_certified_once_per_campaign(self, monkeypatch):
        # a newly built graph, so no generator has certified this instance
        drawn = generate_preventive(7, 1, np.random.default_rng(2024))
        sc = random_scenario(n=7).with_fixed_graph(Graph(7, drawn.edges))
        calls = []
        real = graph_module.vertex_connectivity
        monkeypatch.setattr(graph_module, "vertex_connectivity",
                            lambda g: calls.append(g) or real(g))
        records = run_campaign(sc, 3, CommunicationAgent("preventive", sc.f, sc.seed),
                               "unknown_faults")
        assert all(r.diagnostics["error"] is None for r in records)
        assert len(calls) == 1

        # a pinned first draw keeps the instance its generator certified
        calls.clear()
        data = scenario_to_dict(random_scenario(n=8))
        data["graph"]["regenerate_per_period"] = False
        pinned = scenario_from_dict(data)
        records = run_campaign(pinned, 4, CommunicationAgent("preventive", pinned.f, pinned.seed),
                               "unknown_faults")
        assert all(r.diagnostics["error"] is None for r in records)
        assert len({id(r.graph) for r in records}) == 1
        assert len(calls) == 1

    def test_fixed_weights_without_pinned_horizon_fall_back_to_the_per_candidate_split(self):
        # a null k is 1; golden's matrix fails the full split at every K, so it
        # runs where the per-candidate split first holds from the series' floor 3
        data = scenario_to_dict(golden())
        data["consensus"]["k"] = None
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        assert consensus.verify_rank_condition(sc.weights, sc.f) is None
        for mode in ("known_faults", "unknown_faults"):
            rec = run_period(sc, agent, mode)
            assert rec.unanimous()
            assert (rec.diagnostics["k"], rec.diagnostics["rank_split"]) == (3, "per_candidate")

    def test_supplied_matrix_that_splits_fully_records_the_full_split(self):
        # a matrix synthesis would keep, supplied as fixed with no consensus.k,
        # is certified by the full split and runs where synthesis found it
        rng = np.random.default_rng(11)
        g = generate_preventive(8, 1, rng)
        w = consensus.synthesize_weights(g, 1, rng)
        data = scenario_to_dict(random_scenario(n=8))
        data["graph"] = {"fixed_edges": [list(e) for e in sorted(g.edges)]}
        data["weights"] = {"type": "fixed", "matrix": w.entries.tolist()}
        data["consensus"]["k"] = None
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        rec = run_period(sc, agent, "unknown_faults")
        assert rec.diagnostics["error"] is None and rec.unanimous()
        assert rec.diagnostics["rank_split"] == "full"
        assert rec.diagnostics["k"] == consensus.verify_rank_condition(w, 1)

    def test_fixed_weights_with_undecodable_hypothesis_fail(self):
        # at f = 2 one hypothesis pair shares a stacked direction, so
        # even the weaker per-hypothesis split cannot certify the run
        data = scenario_to_dict(golden())
        data["f"] = 2
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        with pytest.raises(SynthesisError,
                           match="hypothesis of size <= 2 undecodable at every k from 3 to the cap 8"):
            run_period(sc, agent, "unknown_faults")

    def test_horizon_past_the_cap_is_a_config_error(self):
        # golden has n = 6, so no horizon past K = 8 is ever scanned
        data = scenario_to_dict(golden())
        data["consensus"]["k"] = 9
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        with pytest.raises(ConfigError, match=r"horizon 9 exceeds the horizon cap n \+ 2 = 8"):
            run_period(sc, agent, "unknown_faults")

    @pytest.mark.parametrize("k", [11, 13, 16])
    def test_recorded_horizon_is_one_where_the_split_holds(self, monkeypatch, k):
        # the resilient_f1 recipe at seed 1, period 0, with consensus.k raised to
        # the floor k: the period's first draw passes the full split at K = 10 and
        # at no K in 11..16, so it must not run at k; the kept draw splits every
        # observer's every pair by the definition at the K its record names
        workloads = bench_workloads()
        data = workloads.scenario_dict(workloads.load_specs()["resilient_f1"]["inputs"], 1)
        data["consensus"]["k"] = k
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        kept = []
        synthesize = simulator.synthesize_weights
        monkeypatch.setattr(simulator, "synthesize_weights",
                            lambda *args, **kwargs: kept.append(synthesize(*args, **kwargs)) or kept[-1])
        rec = run_period(sc, agent, "unknown_faults")
        assert rec.diagnostics["error"] is None
        assert (rec.diagnostics["k"], rec.diagnostics["rank_split"]) == (k, "full")
        (w,) = kept
        pairs = list(itertools.combinations(range(w.n), 2))
        for i in range(w.n):
            stack = simulator.build_observability_stack(w, i, k)
            batch = np.stack([np.hstack([stack.o, stack.m(y)]) for y in pairs])
            assert split_by_definition(batch, w.n, consensus.RANK_RTOL).all(), f"observer {i}"
        first = consensus.draw_weights(simulator._topology(sc, agent, 0),
                                       simulator._rng(sc.seed, 0, simulator._WEIGHT_STREAM))
        assert first != w
        assert consensus.verify_rank_condition(first, 1) == 10
        assert consensus.verify_rank_condition(first, 1, floor=11) is None

    def test_series_longer_than_the_baseline_steps_is_a_config_error(self):
        data = scenario_to_dict(golden())
        data["attack"]["controllers"][0]["injection"] = {"type": "explicit",
                                                         "values": [1.0] * 31}
        sc = scenario_from_dict(data)
        assert sc.consensus.baseline_steps == 30
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        with pytest.raises(ConfigError, match="node 3 of length 31 exceeds the 30-step horizon"):
            run_period(sc, agent, "baseline")


class TestRunCampaign:
    def test_pinned_topology_reuses_the_first_draw(self):
        data = scenario_to_dict(random_scenario())
        data["graph"]["regenerate_per_period"] = False
        sc = scenario_from_dict(data)
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        records = run_campaign(sc, 3, agent, "unknown_faults")
        edges = {tuple(map(tuple, r.diagnostics["graph_edges"])) for r in records}
        assert len(edges) == 1
        assert len(agent.calls) == 1

    def test_regenerating_topology_redraws_each_period(self):
        sc = random_scenario(seed=11, n=7)
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        records = run_campaign(sc, 4, agent, "unknown_faults")
        assert len(agent.calls) == 4
        edges = {tuple(map(tuple, r.diagnostics["graph_edges"])) for r in records}
        assert len(edges) > 1

    def test_infeasible_periods_become_error_records(self):
        data = scenario_to_dict(golden())
        data["f"] = 2
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        records = run_campaign(sc, 2, agent, "unknown_faults")
        for rec in records:
            assert "SynthesisError" in rec.diagnostics["error"]
            assert rec.recovered_supply_total is None
            assert set(rec.per_controller_verdict.values()) == {"undecided"}
            assert not rec.unanimous()

    def test_overflowing_baseline_period_becomes_an_error_record(self):
        # plain averaging under a 1e308 injection overflows; each period fails on its own
        data = scenario_to_dict(golden())
        data["attack"]["controllers"][0]["injection"] = {"type": "constant", "value": 1e308}
        sc = scenario_from_dict(data)
        with np.errstate(all="ignore"):
            records = run_campaign(sc, 2, CommunicationAgent(sc.graph.strategy, sc.f, sc.seed),
                                   "baseline")
        assert [rec.period.index for rec in records] == [0, 1]
        for rec in records:
            assert rec.diagnostics["error"].startswith("DecodeError: plain averaging overflowed")
            assert set(rec.per_controller_verdict.values()) == {"undecided"}

    def test_period_count_validated(self):
        with pytest.raises(ValueError):
            run_campaign(golden(), 0, CommunicationAgent("preventive", 1, 0), "baseline")


class TestArtifacts:
    def test_artifact_bundle_round_trips(self, tmp_path):
        sc = golden()
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        rec = run_period(sc, agent, "unknown_faults")
        written = write_run_artifacts(rec, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {"decision_record.json", "trajectory.csv", "graph.edges", "graph.dot"}

        loaded = json.loads((tmp_path / "decision_record.json").read_text())
        assert loaded["unanimous"] is True
        assert loaded["recovered_supply_total"] == pytest.approx(441.44)

        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "step,controller,quantity,value"
        assert len(lines) == 1 + 2 * 6 * 4

        g = Graph.from_edge_list_text((tmp_path / "graph.edges").read_text())
        assert g == rec.graph
        assert (tmp_path / "graph.dot").read_text() == rec.graph.to_dot()

    def test_csv_values_round_trip_bitwise(self, tmp_path):
        sc = random_scenario()
        agent = CommunicationAgent("preventive", sc.f, sc.seed)
        rec = run_period(sc, agent, "known_faults")
        text = trajectory_csv_text(rec)
        for line in text.strip().splitlines()[1:]:
            step, node, q, value = line.split(",")
            assert float(value) == rec.trajectories[q][int(step), int(node)]

    def test_error_record_writes_without_trajectories(self, tmp_path):
        data = scenario_to_dict(golden())
        data["f"] = 2
        sc = scenario_from_dict(data)
        agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
        (rec,) = run_campaign(sc, 1, agent, "unknown_faults")
        written = write_run_artifacts(rec, tmp_path)
        assert [p.split("/")[-1] for p in written] == ["decision_record.json"]
        with pytest.raises(ValueError, match="no trajectories"):
            trajectory_csv_text(rec)
