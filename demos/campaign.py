"""Multi-period decision campaign with per-period topologies.

Eight microgrids, one unknown compromised controller, six hourly
periods. The coordinator redraws the communication graph every period
so an attacker cannot plan around a fixed layout; weights are
resynthesized to match. Artifacts land in out/campaign/period_NNN/.
"""

from pathlib import Path

from mgnet import run_campaign
from mgnet.scenario import scenario_from_dict
from mgnet.simulator import CommunicationAgent, write_run_artifacts

OUT = Path("out/campaign")
PERIODS = 6

SCENARIO = {
    "microgrids": [
        {"id": i, "supply": s, "critical_demand": d}
        for i, (s, d) in enumerate([
            (62.0, 40.0), (18.5, 33.0), (41.0, 27.5), (55.0, 61.0),
            (29.0, 18.0), (73.5, 52.0), (12.0, 24.5), (48.0, 39.0),
        ])
    ],
    "f": 1,
    "seed": 90210,
    "attack": {"controllers": [
        {"node": 5, "injection": {"type": "uniform", "low": -30.0, "high": 30.0}},
    ]},
    "graph": {"strategy": "preventive", "regenerate_per_period": True},
    "weights": {"type": "random"},
}


def main():
    scenario = scenario_from_dict(SCENARIO)
    supply, demand = scenario.true_totals()
    print(f"true totals: supply {supply:.2f}, demand {demand:.2f} "
          f"({'interconnect' if supply > demand else 'island'} is the right call)")

    agent = CommunicationAgent("preventive", scenario.f, scenario.seed)
    records = run_campaign(scenario, PERIODS, agent, "unknown_faults")

    for rec in records:
        edges = len(rec.diagnostics["graph_edges"])
        verdicts = sorted(set(rec.per_controller_verdict.values()))
        print(f"period {rec.period.index}: {edges} edges, k={rec.diagnostics['k']}, "
              f"verdicts {verdicts}, supply {rec.recovered_supply_total:.4f}")
        write_run_artifacts(rec, OUT / f"period_{rec.period.index:03d}")

    assert all(r.unanimous() for r in records)
    distinct = {tuple(map(tuple, r.diagnostics["graph_edges"])) for r in records}
    print(f"\n{len(distinct)} distinct topologies across {PERIODS} periods; "
          f"every period decoded the exact totals despite the injection")
    print(f"artifacts under {OUT}/")


if __name__ == "__main__":
    main()
