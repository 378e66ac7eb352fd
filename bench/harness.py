"""Measurement loop of the period-latency benchmark.

One caller runs decision periods back to back through the public API
(a closed loop: the next period starts when the previous one returns).
End-to-end numbers come from an untraced loop, with each time rescaled
by a fixed reference computation timed around it (see REFERENCE_S).
The traced run first repeats that untraced loop for half its time, then
replays the same period indices with layer spans on, so the tracing
overhead compares like with like.

Before anything is timed, the bundled golden scenario must decode
exactly in both resilient modes and one period of the workload must
match the compact iteration bit for bit; a failure there, or a wrong
verdict or inexact total in a resilient period, raises GateError and no
numbers are reported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mgnet import evaluate_criterion, load_golden_scenario, run_period, run_updates, simulator
from mgnet.errors import DecodeError, InfeasibleTopologyError, InternalInvariantError, SynthesisError
from mgnet.simulator import CommunicationAgent

from tracer import PERIOD, LayerTotals, Tracer
from workloads import build

BENCH_DIR = Path(__file__).resolve().parent
EXACT_RTOL = 1e-9
TAIL_BEYOND = 10
SETUP_STARTS = 5
SETUP_TIMEOUT_S = 60
# On a shared 2-vCPU host, identical runs a few minutes apart differed in
# wall time by up to 1.9x. Every end-to-end time is therefore rescaled to a
# host on which reference_work() takes REFERENCE_S, using reference timings
# taken right around the measured work.
REFERENCE_S = 0.020
REFERENCE_WINDOW = 2
_REFERENCE_MATRIX = np.add.outer(np.arange(30.0), np.arange(14.0)) % 7.0 + np.eye(30, 14)
# the failures run_campaign turns into error records
PERIOD_FAILURES = (InfeasibleTopologyError, SynthesisError, DecodeError, InternalInvariantError)

END_TO_END_UNITS = {"period_s_p50": "s", "period_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "consensus.rank_check_s": "s",
    "consensus.rank_check_calls": "count",
    "consensus.rank_check_horizon_s": "s",
    "consensus.synthesis_s": "s",
    "consensus.synthesis_attempts": "count",
    "consensus.horizon_k": "steps",
    "consensus.stack_s": "s",
    "consensus.decode_s": "s",
    "consensus.decode_candidates": "count",
    "consensus.decode_consistent_ratio": "ratio",
    "consensus.recovery_exact_share": "ratio",
    "simulator.engine_s": "s",
    "simulator.engine_deliveries": "count",
    "simulator.engine_deliveries_per_s": "1/s",
    "graph.certificate_s": "s",
    "graph.certificate_calls": "count",
    "graph.topology_s": "s",
    "simulator.period_self_s": "s",
    "simulator.decision_correct_share": "ratio",
    "simulator.failed_period_share": "ratio",
    "trace_overhead_share": "ratio",
    "simulator.run_peak_rss_mb": "MB",
}


class GateError(Exception):
    """A correctness check failed; the run must report no numbers."""


@dataclass
class Period:
    index: int
    seconds: float
    failed: bool
    scaled_s: float = 0.0
    horizon: int = 0
    deliveries: int = 0
    verdicts_correct: int = 0
    verdicts: int = 0
    exact: int = 0
    decodes: int = 0
    layers: dict[str, LayerTotals] = field(default_factory=dict)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: list[str]


def _recovered_totals(record, mode: str, node: int) -> tuple[float, float]:
    per = record.diagnostics["controllers"][str(node)]
    if mode == "baseline":
        return per["supply_estimate"], per["demand_estimate"]
    return per["supply"]["total"], per["demand"]["total"]


def score_record(period: Period, record, scenario, mode: str) -> None:
    """Verdicts against the truth and per-(controller, quantity) exactness."""
    truth = scenario.true_totals()
    true_verdict = evaluate_criterion(*truth)
    for node, verdict in record.per_controller_verdict.items():
        period.verdicts += 1
        period.verdicts_correct += verdict == true_verdict
        for got, want in zip(_recovered_totals(record, mode, node), truth):
            period.decodes += 1
            period.exact += abs(got - want) <= EXACT_RTOL * abs(want)
    if mode != "baseline" and (period.verdicts_correct != period.verdicts
                               or period.exact != period.decodes):
        raise GateError(
            f"period {period.index}: {period.verdicts - period.verdicts_correct} wrong verdicts "
            f"and {period.decodes - period.exact} inexact totals in a resilient mode")


def golden_gate() -> None:
    scenario = load_golden_scenario()
    for mode in ("known_faults", "unknown_faults"):
        agent = CommunicationAgent(scenario.graph.strategy, scenario.f, scenario.seed)
        score_record(Period(0, 0.0, False), run_period(scenario, agent, mode), scenario, mode)


def faithful_period(scenario, agent, mode: str) -> None:
    """Run period 0 and require the engine to match run_updates bit for bit."""
    seen = []
    original = simulator.RoundEngine.run

    def capture(engine):
        out = original(engine)
        seen.append((engine, out))
        return out

    simulator.RoundEngine.run = capture
    try:
        record = run_period(scenario, agent, mode, 0)
    finally:
        simulator.RoundEngine.run = original
    if len(seen) != 1:
        raise GateError(f"period 0 ran the round engine {len(seen)} times, expected once")
    engine, out = seen[0]
    initial = {"supply": [p.supply for p in scenario.microgrids],
               "demand": [p.critical_demand for p in scenario.microgrids]}
    for q, start in initial.items():
        ref = run_updates(engine.weights, start, engine.schedule, engine.horizon)
        if ref.tobytes() != out.trajectories[q].tobytes():
            raise GateError(f"round engine {q} trajectory differs from run_updates")
    score_record(Period(0, 0.0, False), record, scenario, mode)


def reference_work() -> None:
    """Fixed small-LAPACK and interpreter work, a mix like a period's; none of it is mgnet."""
    for _ in range(400):
        np.linalg.svd(_REFERENCE_MATRIX, compute_uv=False)
    counts: dict[int, float] = {}
    for i in range(120_000):
        counts[i % 97] = counts.get(i % 97, 0.0) + 0.5 * i


def reference_time() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def run_periods(scenario, agent, mode: str, indices, tracer: Tracer | None = None,
                deadline: float | None = None, between=None) -> list[Period]:
    """Time one run_period call per index; stop early once past the deadline.

    `between` is called after each period, outside the timed region.
    """
    out = []
    refs = [reference_time()]
    for p in indices:
        if deadline is not None and perf_counter() >= deadline:
            break
        record = None
        t0 = perf_counter()
        try:
            if tracer is None:
                record = run_period(scenario, agent, mode, p)
            else:
                record = tracer.call(PERIOD, run_period, scenario, agent, mode, p)
        except PERIOD_FAILURES:
            pass
        dt = perf_counter() - t0
        failed = record is None or record.diagnostics.get("error") is not None
        period = Period(p, dt, failed, layers=tracer.take() if tracer is not None else {})
        if not failed:
            period.horizon = record.diagnostics["k"]
            period.deliveries = record.diagnostics["audit"]["deliveries"]
            score_record(period, record, scenario, mode)
        out.append(period)
        refs.append(reference_time())
        if between is not None:
            between()
    # refs[i] and refs[i + 1] bracket period i; a short window of them gives
    # the host's speed at that moment
    for i, period in enumerate(out):
        local = refs[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 2]
        period.scaled_s = period.seconds * REFERENCE_S / statistics.median(local)
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND periods above it.

    With fewer than 2 * TAIL_BEYOND periods that rank would fall below
    the median, so the rank just above the middle is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def setup_probe(inputs: dict, seed: int) -> tuple[float, float]:
    """Wall and rescaled time of one cold interpreter importing mgnet and building the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(inputs), str(seed)]
    before = reference_time()
    t0 = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = perf_counter() - t0
    after = reference_time()
    if done.returncode != 0:
        raise GateError(f"set-up probe failed: {done.stderr.strip()}")
    return elapsed, elapsed * REFERENCE_S * 2 / (before + after)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(periods: list[Period], untraced: list[Period],
                  required: list[str]) -> dict[str, float]:
    ok = [p for p in periods if not p.failed]
    if not ok:
        raise GateError("every traced period failed")
    names = {name for p in ok for name in p.layers}
    missing = [name for name in required if name not in names]
    if missing:
        raise GateError(f"layers the workload must call recorded no calls: {missing}")

    def per_period(name: str, attr: str) -> float:
        return _mean(getattr(p.layers.get(name, LayerTotals()), attr) for p in ok)

    rank_names = ("consensus.rank_check_synthesis", "consensus.rank_check_horizon")
    engine_s = sum(p.layers.get("simulator.engine", LayerTotals()).total_s for p in ok)
    decodes = [p.layers.get("consensus.decode_candidate", LayerTotals()) for p in ok]
    candidates = sum(t.calls for t in decodes)
    inconsistent = sum(t.raised for t in decodes)
    traced_p50 = statistics.median(p.scaled_s for p in ok)
    untraced_p50 = statistics.median(p.scaled_s for p in untraced if not p.failed)
    return {
        "consensus.rank_check_s": sum(per_period(n, "total_s") for n in rank_names),
        "consensus.rank_check_calls": sum(per_period(n, "calls") for n in rank_names),
        "consensus.rank_check_horizon_s": per_period("consensus.rank_check_horizon", "total_s"),
        "consensus.synthesis_s": per_period("consensus.synthesis", "self_s"),
        "consensus.synthesis_attempts": per_period("consensus.rank_check_synthesis", "calls"),
        "consensus.horizon_k": _mean(p.horizon for p in ok),
        "consensus.stack_s": per_period("consensus.stack", "total_s"),
        "consensus.decode_s": per_period("consensus.decode", "total_s"),
        "consensus.decode_candidates": candidates / len(ok),
        "consensus.decode_consistent_ratio": _share(candidates - inconsistent, candidates),
        "consensus.recovery_exact_share": _share(sum(p.exact for p in ok),
                                                 sum(p.decodes for p in ok)),
        "simulator.engine_s": engine_s / len(ok),
        "simulator.engine_deliveries": _mean(p.deliveries for p in ok),
        "simulator.engine_deliveries_per_s": sum(p.deliveries for p in ok) / engine_s,
        "graph.certificate_s": per_period("graph.certificate", "total_s"),
        "graph.certificate_calls": per_period("graph.certificate", "calls"),
        "graph.topology_s": per_period("graph.topology", "self_s"),
        "simulator.period_self_s": per_period(PERIOD, "self_s"),
        "simulator.decision_correct_share": _share(sum(p.verdicts_correct for p in ok),
                                                   sum(p.verdicts for p in ok)),
        "simulator.failed_period_share": _share(len(periods) - len(ok), len(periods)),
        "trace_overhead_share": traced_p50 / untraced_p50 - 1.0,
        "simulator.run_peak_rss_mb": _peak_rss_mb(),
    }


def measure(spec: dict, seed: int, seconds: float, trace: bool) -> Result:
    """Gate, then time periods for about `seconds`; end-to-end or per-layer metrics."""
    inputs, mode = spec["inputs"], spec["inputs"]["mode"]
    golden_gate()
    scenario, agent = build(inputs, seed)
    faithful_period(scenario, agent, mode)
    # Peak memory of set-up plus one period. The high-water mark of a whole
    # run is not steady: a rare weight draw that fails the rank check all the
    # way to k_max lifts it by a third, and a run sees such a draw or not.
    setup_rss_mb = _peak_rss_mb()
    notes = []
    if trace:
        untraced = run_periods(scenario, agent, mode, range(1, 2**31),
                               deadline=perf_counter() + seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_periods(scenario, agent, mode, [p.index for p in untraced], tracer)
        periods = untraced + traced
        values = layer_metrics(traced, untraced, spec["required_layers"])
        units = PER_LAYER_UNITS
        notes.append(f"{len(untraced)} untraced periods, then the same {len(traced)} traced")
    else:
        # cold starts spread over the run, so they meet the host in several moods
        setup: list[tuple[float, float]] = []
        start = perf_counter()

        def probe_when_due() -> None:
            if len(setup) < SETUP_STARTS and perf_counter() >= start + len(setup) * seconds / SETUP_STARTS:
                setup.append(setup_probe(inputs, seed))

        periods = run_periods(scenario, agent, mode, range(1, 2**31),
                              deadline=perf_counter() + seconds, between=probe_when_due)
        while len(setup) < SETUP_STARTS:
            setup.append(setup_probe(inputs, seed))
        ok = [p for p in periods if not p.failed]
        if not ok:
            raise GateError("every timed period failed")
        tail_s, pct = tail([p.scaled_s for p in ok])
        values = {
            "period_s_p50": statistics.median(p.scaled_s for p in ok),
            "period_s_tail": tail_s,
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "peak_rss_mb": setup_rss_mb,
        }
        units = END_TO_END_UNITS
        wall_tail, _ = tail([p.seconds for p in ok])
        notes.append(f"period_s_tail is p{pct:.1f} of {len(ok)} periods")
        notes.append(f"wall clock, not rescaled: period_s_p50 "
                     f"{statistics.median(p.seconds for p in ok):.6g} s, period_s_tail "
                     f"{wall_tail:.6g} s, setup_s {statistics.median(w for w, _ in setup):.6g} s")
        notes.append(f"run_peak_rss_mb {_peak_rss_mb()} MB")
    failed = sum(p.failed for p in periods)
    verdicts = sum(p.verdicts for p in periods)
    notes.append(f"failed_period_share {failed / len(periods)} ratio")
    notes.append(f"decision_correct_share "
                 f"{_share(sum(p.verdicts_correct for p in periods), verdicts)} ratio")
    if mode != "baseline":
        notes.append(f"recovery_exact_share "
                     f"{_share(sum(p.exact for p in periods), sum(p.decodes for p in periods))} ratio")
    return Result({name: (values[name], unit) for name, unit in units.items()},
                  len(periods), failed, notes)
