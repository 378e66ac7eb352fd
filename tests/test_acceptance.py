"""Acceptance suite: one test per shipped guarantee, run with -v for a
pass/fail line per criterion. Each test pins its tolerance and, where a
budget applies, asserts its own wall-clock limit.
"""

import csv
import io
import time
from itertools import combinations

import numpy as np
import pytest

from mgnet import (
    Graph,
    InfeasibleTopologyError,
    InjectionSchedule,
    MicrogridProfile,
    RoundEngine,
    build_observability_stack,
    decode_known_faults,
    decode_unknown_faults,
    extend_graph,
    generate_preventive,
    generate_responsive,
    load_golden_scenario,
    run_period,
    run_updates,
    synthesize_weights,
    verify_rank_condition,
    vertex_connectivity,
)
from mgnet.consensus import ObservationRecord
from mgnet.graph import check_edges
from mgnet.simulator import CommunicationAgent, trajectory_csv_text

from conftest import REF_W, REF_SUPPLIES, REF_DEMANDS
from oracles import brute_force_connectivity, stacked_decode_oracle

SUPPLY_TRUTH = 441.44
DEMAND_TRUTH = 380.06


def _report(num, detail, t0, budget=None):
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"
        print(f"criterion {num} PASS: {detail} [{dt:.2f}s < {budget}s]")
    else:
        print(f"criterion {num} PASS: {detail} [{dt:.2f}s]")


def _golden_record(mode):
    sc = load_golden_scenario()
    agent = CommunicationAgent(sc.graph.strategy, sc.f, sc.seed)
    return run_period(sc, agent, mode)


def test_criterion_1_golden_run_recovers_reference_totals():
    t0 = time.perf_counter()
    for mode in ("known_faults", "unknown_faults"):
        rec = _golden_record(mode)
        verdicts = rec.per_controller_verdict
        assert len(verdicts) == 6
        assert set(verdicts.values()) == {"interconnect"}
        for i in range(6):
            per = rec.diagnostics["controllers"][str(i)]
            assert per["supply"]["total"] == pytest.approx(SUPPLY_TRUTH, abs=0.15)
            assert per["demand"]["total"] == pytest.approx(DEMAND_TRUTH, abs=0.15)
        assert rec.recovered_supply_total == pytest.approx(SUPPLY_TRUTH, abs=0.15)
        assert rec.recovered_demand_total == pytest.approx(DEMAND_TRUTH, abs=0.15)
    _report(1, "six-node golden run, both resilient modes, all verdicts interconnect",
            t0, budget=1.0)


def test_criterion_2_plain_averaging_fails_under_the_same_attack(tmp_path):
    t0 = time.perf_counter()
    resilient = _golden_record("unknown_faults")
    baseline = _golden_record("baseline")

    controllers = baseline.diagnostics["controllers"]
    true = baseline.diagnostics["true_totals"]
    worst = max(
        max(abs(c["supply_estimate"] - true["supply"]),
            abs(c["demand_estimate"] - true["demand"]))
        for c in controllers.values())
    assert worst > 5.0
    deviated = [
        i for i, c in controllers.items()
        if abs(c["supply_estimate"] - true["supply"]) > 5.0
        or abs(c["demand_estimate"] - true["demand"]) > 5.0
    ]
    assert deviated

    # side-by-side artifacts: raw trajectories plus a final-step comparison
    (tmp_path / "resilient_trajectory.csv").write_text(trajectory_csv_text(resilient))
    (tmp_path / "baseline_trajectory.csv").write_text(trajectory_csv_text(baseline))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["controller", "resilient_supply", "baseline_supply",
                     "resilient_demand", "baseline_demand"])
    for i in range(6):
        res = resilient.diagnostics["controllers"][str(i)]
        writer.writerow([i, res["supply"]["total"], controllers[str(i)]["supply_estimate"],
                         res["demand"]["total"], controllers[str(i)]["demand_estimate"]])
    (tmp_path / "comparison.csv").write_text(buf.getvalue())

    rows = list(csv.DictReader((tmp_path / "comparison.csv").read_text().splitlines()))
    assert len(rows) == 6
    for row in rows:
        assert abs(float(row["resilient_supply"]) - SUPPLY_TRUTH) <= 0.15
    assert any(abs(float(r["baseline_supply"]) - SUPPLY_TRUTH) > 5.0 for r in rows)
    _report(2, f"baseline off by {worst:.1f} kVA*h at {len(deviated)} controllers "
               f"while resilient decode stays exact; comparison CSVs written", t0)


def _assert_no_small_cut(g, m):
    kappa = brute_force_connectivity(g.node_count, g.edges)
    assert kappa >= m, f"exhaustive check found a cut of size {kappa} < {m}"


def test_criterion_3_extension_preserves_connectivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)

    for trial in range(500):
        m = int(rng.integers(2, 5))
        g = Graph.complete(m + 1)
        target = int(rng.integers(m + 2, 11))
        while g.node_count < target:
            g = extend_graph(g, m, rng=rng)
        cert = vertex_connectivity(g)
        assert cert.kappa >= m, f"trial {trial}: kappa={cert.kappa} < m={m}"

    # every graph reachable by up to three extensions from K3 (m=2) and
    # K4 (m=3), attachment sets enumerated exhaustively
    checked = 0
    for m in (2, 3):
        level = [Graph.complete(m + 1)]
        for _ in range(3):
            nxt = []
            for g in level:
                for targets in combinations(range(g.node_count), m):
                    grown = extend_graph(g, m, targets=targets)
                    assert vertex_connectivity(grown).kappa >= m
                    _assert_no_small_cut(grown, m)
                    nxt.append(grown)
            checked += len(nxt)
            level = nxt
    assert checked == (3 + 18 + 180) + (4 + 40 + 800)
    _report(3, f"500 randomized extension trials plus {checked} exhaustive "
               f"small-graph extensions all keep kappa >= m", t0, budget=30.0)


def test_criterion_4_topology_generators_meet_the_connectivity_bar():
    t0 = time.perf_counter()
    pairs = [(n, f) for f in (1, 2) for n in range(4, 13) if n >= 2 * f + 2]
    assert len(pairs) == 16

    responsive_ok = 0
    responsive_with_forbidden = 0
    responsive_total = 0
    for seed in range(100):
        for n, f in pairs:
            rng = np.random.default_rng([seed, n, f])
            g = generate_preventive(n, f, rng)
            assert vertex_connectivity(g).kappa >= 2 * f + 1

            link_count = int(rng.integers(0, f + 1))
            forbidden = set()
            while len(forbidden) < link_count:
                a, b = rng.choice(n, size=2, replace=False)
                forbidden.add((min(int(a), int(b)), max(int(a), int(b))))
            attacks = check_edges(sorted(forbidden))
            responsive_total += 1
            try:
                r = generate_responsive(n, f, attacks, rng)
            except InfeasibleTopologyError:
                continue
            assert not (set(r.edges) & forbidden), "responsive graph used an attacked link"
            assert vertex_connectivity(r).kappa >= 2 * f + 1
            responsive_ok += 1
            if forbidden:
                responsive_with_forbidden += 1

    assert responsive_ok >= 0.7 * responsive_total
    assert responsive_with_forbidden >= 100
    _report(4, f"1600 preventive graphs certified kappa >= 2f+1; "
               f"{responsive_ok}/{responsive_total} responsive builds succeeded, "
               f"none using an attacked link", t0, budget=60.0)


def test_criterion_5_unknown_fault_decoding_is_exact_end_to_end():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    trials = 200
    for trial in range(trials):
        f = int(rng.integers(0, 2))
        n = int(rng.integers(5, 9))
        g = generate_preventive(n, max(f, 1), rng)
        w = synthesize_weights(g, f, rng)
        k = verify_rank_condition(w, f)
        assert k is not None

        s0 = rng.uniform(0.0, 1000.0, size=n)
        count = int(rng.integers(0, f + 1))
        nodes = sorted(int(v) for v in rng.choice(n, size=count, replace=False))
        series = {
            v: (rng.uniform(1.0, 60.0, size=k) * rng.choice([-1.0, 1.0], size=k)).tolist()
            for v in nodes
        }
        schedule = InjectionSchedule.from_values(series, k)
        traj = run_updates(w, s0, schedule, k)
        true_set = tuple(nodes)

        for observer in range(n):
            sel = w.selector(observer)
            obs = ObservationRecord(observer, sel, traj[:, list(sel)])
            stack = build_observability_stack(w, observer, k)
            result = decode_unknown_faults(stack, obs, f)
            rel = np.linalg.norm(result.initial_values - s0) / np.linalg.norm(s0)
            assert rel <= 1e-6, f"trial {trial} observer {observer}: rel err {rel:.2e}"
            assert true_set in result.consistent_fault_sets
    _report(5, f"{trials} randomized runs decoded back to the exact initial state "
               f"at every controller, true fault set always listed", t0, budget=120.0)


def test_criterion_6_known_fault_decoder_matches_brute_force_least_squares():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for trial in range(50):
        n = int(rng.integers(4, 7))
        g = generate_preventive(n, 1, rng)
        w = synthesize_weights(g, 1, rng)
        k = verify_rank_condition(w, 1)
        s0 = rng.uniform(0.0, 1000.0, size=n)
        node = int(rng.integers(0, n))
        series = {node: (rng.uniform(1.0, 60.0, size=k)
                         * rng.choice([-1.0, 1.0], size=k)).tolist()}
        schedule = InjectionSchedule.from_values(series, k)
        traj = run_updates(w, s0, schedule, k)

        observer = int(rng.integers(0, n))
        sel = w.selector(observer)
        obs = ObservationRecord(observer, sel, traj[:, list(sel)])
        stack = build_observability_stack(w, observer, k)
        result = decode_known_faults(stack, obs, (node,))

        oracle_s0, _ = stacked_decode_oracle(w.entries, observer, traj, (node,))
        rel = np.linalg.norm(result.initial_values - oracle_s0) / np.linalg.norm(oracle_s0)
        assert rel <= 1e-9, f"trial {trial}: decoder vs oracle rel diff {rel:.2e}"
    _report(6, "50 instances: decoder output equals an independently assembled "
               "least-squares solve to 1e-9", t0)


def test_criterion_7_round_engine_is_bitwise_faithful_and_blind():
    t0 = time.perf_counter()

    # golden run: distributed trajectories vs the compact matrix iteration
    rec = _golden_record("unknown_faults")
    w_ref = np.array(REF_W, dtype=float)
    g_ref = rec.graph
    from mgnet import WeightMatrix
    wm = WeightMatrix(w_ref, g_ref)
    schedule = InjectionSchedule.from_values({3: [30.0, -45.0, 60.0]}, 3)
    assert np.array_equal(rec.trajectories["supply"],
                          run_updates(wm, REF_SUPPLIES, schedule, 3))
    assert np.array_equal(rec.trajectories["demand"],
                          run_updates(wm, REF_DEMANDS, schedule, 3))
    # 2 quantities x 2 directions x 10 edges x 4 rounds
    assert rec.diagnostics["audit"] == {"deliveries": 2 * 2 * 10 * 4}

    # randomized runs: same dual route, direct engine construction
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(4, 10))
        g = generate_preventive(n, 1, rng)
        w = synthesize_weights(g, 1, rng)
        k = verify_rank_condition(w, 1)
        profiles = [
            MicrogridProfile(i, float(rng.uniform(10, 200)), float(rng.uniform(10, 200)))
            for i in range(n)
        ]
        node = int(rng.integers(0, n))
        schedule = InjectionSchedule.from_values(
            {node: rng.uniform(-40, 40, size=k).tolist()}, k)
        run = RoundEngine(w, profiles, schedule).run()
        starts = {
            "supply": np.array([p.supply for p in profiles]),
            "demand": np.array([p.critical_demand for p in profiles]),
        }
        for q in ("supply", "demand"):
            assert np.array_equal(run.trajectories[q], run_updates(w, starts[q], schedule, k))
        assert run.deliveries == 2 * 2 * len(g.edges) * (k + 1)

    # the coordinator sees topology inputs only, never profiles or values
    sc = load_golden_scenario()
    from mgnet.scenario import scenario_from_dict, scenario_to_dict
    data = scenario_to_dict(sc)
    data["graph"] = {"strategy": "preventive", "regenerate_per_period": True}
    data["weights"] = {"type": "random"}
    data["consensus"]["k"] = None
    blind_sc = scenario_from_dict(data)
    agent = CommunicationAgent("preventive", blind_sc.f, blind_sc.seed)
    run_period(blind_sc, agent, "unknown_faults")
    assert all(set(call) == {"n", "f", "link_attacks", "seed", "period", "strategy"}
               for call in agent.calls)
    _report(7, "distributed rounds equal the centralized iteration bit-for-bit "
               "on golden plus 15 randomized runs; every edge carries each "
               "value once per round", t0)
