"""Scenario recipes of the benchmark, turned into scenarios from a seed.

The recipes live in workloads.json next to this file. The program under
test only ever receives the scenario built here, through the public
scenario_from_dict parser.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np

from mgnet.scenario import Scenario, scenario_from_dict
from mgnet.simulator import CommunicationAgent

SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_specs() -> dict:
    return json.loads(SPEC_PATH.read_text())["workloads"]


def scenario_dict(inputs: dict, seed: int) -> dict:
    """Scenario JSON for one recipe; the same seed gives the same dict."""
    rng = np.random.default_rng([seed, 0x6D676E6574])
    n, f = inputs["n"], inputs["f"]
    s_lo, s_hi = inputs["supply_kwh"]
    d_lo, d_hi = inputs["critical_demand_kwh"]
    grids = [{"id": i,
              "supply": round(float(rng.uniform(s_lo, s_hi)), 2),
              "critical_demand": round(float(rng.uniform(d_lo, d_hi)), 2)}
             for i in range(n)]
    bad = sorted(int(v) for v in rng.choice(n, size=inputs["compromised"], replace=False))
    pairs = list(combinations(range(n), 2))
    picks = rng.choice(len(pairs), size=inputs["attacked_links"], replace=False)
    return {
        "microgrids": grids,
        "f": f,
        "seed": int(rng.integers(2**31)),
        "attack": {
            "controllers": [{"node": v, "injection": dict(inputs["injection"])} for v in bad],
            "links": [list(pairs[int(p)]) for p in sorted(picks)],
            "known_to_agent": inputs["known_to_agent"],
        },
        "graph": {"strategy": inputs["strategy"],
                  "regenerate_per_period": inputs["regenerate_per_period"]},
        "weights": {"type": inputs["weights"]},
        "consensus": {"baseline_steps": inputs.get("baseline_steps", 30)},
    }


def build(inputs: dict, seed: int) -> tuple[Scenario, CommunicationAgent]:
    """The set-up a user pays before the first period: scenario and agent."""
    scenario = scenario_from_dict(scenario_dict(inputs, seed))
    return scenario, CommunicationAgent(scenario.graph.strategy, scenario.f, scenario.seed)
