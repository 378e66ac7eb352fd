"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
from workloads import load_specs  # noqa: E402

TINY = {
    "resilient": {"n": 6, "f": 1, "strategy": "preventive", "regenerate_per_period": True,
                  "weights": "random", "mode": "unknown_faults", "compromised": 1,
                  "injection": {"type": "uniform", "low": -50.0, "high": 50.0},
                  "attacked_links": 0, "known_to_agent": False,
                  "supply_kwh": [5.0, 50.0], "critical_demand_kwh": [5.0, 50.0]},
    "baseline": {"n": 9, "f": 1, "strategy": "responsive", "regenerate_per_period": True,
                 "weights": "random", "mode": "baseline", "baseline_steps": 5, "compromised": 1,
                 "injection": {"type": "normal", "mean": 0.0, "std": 40.0},
                 "attacked_links": 2, "known_to_agent": True,
                 "supply_kwh": [5.0, 50.0], "critical_demand_kwh": [5.0, 50.0]},
}
REQUIRED = {
    "resilient": load_specs()["resilient_f1"]["required_layers"],
    "baseline": load_specs()["baseline_large"]["required_layers"],
}


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("shape", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(shape, trace):
    spec = {"inputs": TINY[shape], "required_layers": REQUIRED[shape]}
    result = harness.measure(spec, seed=1, seconds=0.3, trace=trace)
    emitted = {name: unit for name, (_, unit) in result.metrics.items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert result.attempted >= 1 and result.failed == 0
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
    elif shape == "resilient":
        m = {name: value for name, (value, _) in result.metrics.items()}
        assert m["consensus.rank_check_calls"] == m["consensus.synthesis_attempts"] + 1
        assert m["consensus.recovery_exact_share"] == 1.0


def test_benchmark_workloads_match_the_recipes():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = load_specs()
    assert [w["name"] for w in doc["workloads"]] == list(specs)
    assert all(w["why"] == specs[w["name"]]["why"] for w in doc["workloads"])


def test_missing_program_exits_nonzero_without_numbers(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "resilient_f1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
