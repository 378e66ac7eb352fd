"""Synchronous round engine with per-controller isolation.

Each microgrid controller is a little state machine that sees only its
own profile and the messages arriving over edges of the period's graph.
The engine is the delivery medium: it routes messages strictly along
edges (and keeps an audit trail proving it), holds the attack schedule,
and corrupts the compromised controllers' updates. It also keeps a
medium-level copy of every step's state so a run can be checked
bit-for-bit against the compact-form iteration.

Record conventions: in resilient modes the record's scalar totals are
the mean of the per-controller decoded totals (which agree to the
configured tolerance); in baseline mode they are the mean of the
per-controller estimates n * own final value, which is what plain
averaging offers in place of a decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .consensus import (
    InjectionSchedule,
    ObservationRecord,
    WeightMatrix,
    build_observability_stack,
    combine_neighborhood,
    decode_known_faults,
    decode_unknown_faults,
    metropolis_weights,
    run_updates,
    synthesize_weights,
    verify_candidate_uniqueness,
    verify_rank_condition,
)
from .errors import (
    ConfigError,
    DecodeError,
    InfeasibleTopologyError,
    InternalInvariantError,
    SynthesisError,
)
from .graph import Graph, LinkAttackSet, generate_preventive, generate_responsive
from .scenario import (
    UNDECIDED,
    DecisionPeriod,
    DecisionRecord,
    MicrogridProfile,
    Scenario,
    evaluate_criterion,
    sample_injections,
)

QUANTITIES = ("supply", "demand")
MODES = ("known_faults", "unknown_faults", "baseline")

_GRAPH_STREAM, _WEIGHT_STREAM, _ATTACK_STREAM = 0, 1, 2


def _rng(seed: int, period: int, stream: int) -> np.random.Generator:
    # period-derived child streams keep campaigns reproducible and independent
    return np.random.default_rng([seed, period, stream])


@dataclass
class Message:
    sender: int
    step: int
    quantity: str
    value: float


@dataclass
class EngineAudit:
    deliveries: int = 0
    locality_violations: int = 0
    duplicate_deliveries: int = 0


class ControllerState:
    """One microgrid's controller; knows its profile and nothing else.

    Protocol constants (graph, weight matrix, horizon, fault knowledge)
    are public configuration every node carries; other grids' profiles
    and states are not, and never enter here except through messages.
    """

    def __init__(self, node: int, profile: MicrogridProfile, weight_row: np.ndarray,
                 selector: tuple[int, ...], horizon: int):
        self.id = node
        self.profile = profile
        self.weight_row = np.asarray(weight_row, dtype=float)
        self.selector = np.asarray(selector, dtype=int)
        self.horizon = horizon
        self.values = {"supply": float(profile.supply), "demand": float(profile.critical_demand)}
        self.inbox: dict[str, dict[int, dict[int, float]]] = {q: {} for q in QUANTITIES}
        self.samples: dict[str, list[list[float]]] = {q: [] for q in QUANTITIES}
        self.verdict = UNDECIDED
        self._peers = {int(v) for v in selector} - {node}

    def outgoing(self, step: int) -> list[Message]:
        return [Message(self.id, step, q, self.values[q]) for q in QUANTITIES]

    def deliver(self, msg: Message) -> None:
        if msg.sender not in self._peers:
            raise InternalInvariantError(
                f"controller {self.id} received a message from non-neighbor {msg.sender}")
        bucket = self.inbox[msg.quantity].setdefault(msg.step, {})
        if msg.sender in bucket:
            raise InternalInvariantError(
                f"controller {self.id} received a duplicate from {msg.sender} at step {msg.step}")
        bucket[msg.sender] = msg.value

    def _neighborhood_row(self, quantity: str, step: int) -> list[float]:
        bucket = self.inbox[quantity].get(step, {})
        row = []
        for j in self.selector:
            if j == self.id:
                row.append(self.values[quantity])
            else:
                if int(j) not in bucket:
                    raise InternalInvariantError(
                        f"controller {self.id} is missing step-{step} input from {j}")
                row.append(bucket[int(j)])
        return row

    def record_observation(self, step: int) -> None:
        for q in QUANTITIES:
            if len(self.samples[q]) > self.horizon:
                raise InternalInvariantError("observation window exceeded the horizon")
            self.samples[q].append(self._neighborhood_row(q, step))

    def advance(self, step: int, injection: float | None) -> None:
        for q in QUANTITIES:
            vals = np.array(self._neighborhood_row(q, step), dtype=float)
            nxt = combine_neighborhood(self.weight_row, self.selector, vals)
            if injection is not None:
                nxt = nxt + injection
            self.values[q] = nxt

    def observation_record(self, quantity: str) -> ObservationRecord:
        return ObservationRecord(self.id, tuple(int(v) for v in self.selector),
                                 np.array(self.samples[quantity], dtype=float))


@dataclass
class EngineRun:
    observations: dict[str, list[ObservationRecord]]
    trajectories: dict[str, np.ndarray]
    audit: EngineAudit


class RoundEngine:
    """Lockstep executor: K update rounds plus a final observation round."""

    def __init__(self, graph: Graph, weights: WeightMatrix,
                 profiles: tuple[MicrogridProfile, ...], schedule: InjectionSchedule,
                 horizon: int):
        n = graph.node_count
        if len(profiles) != n:
            raise ValueError(f"{len(profiles)} profiles for a {n}-node graph")
        if weights.graph != graph:
            raise ValueError("weight matrix was built for a different graph")
        if schedule.horizon != horizon:
            raise ValueError("injection schedule horizon must match the run horizon")
        self.graph = graph
        self.weights = weights
        self.schedule = schedule
        self.horizon = horizon
        self.audit = EngineAudit()
        self.controllers = [
            ControllerState(i, profiles[i], weights.entries[i], weights.selector(i), horizon)
            for i in range(n)
        ]
        self._faulty = set(schedule.faulty_nodes)

    def _exchange(self, step: int) -> None:
        for sender in self.controllers:
            for msg in sender.outgoing(step):
                for nb in sorted(self.graph.neighbors(msg.sender)):
                    if not self.graph.has_edge(msg.sender, nb):
                        self.audit.locality_violations += 1
                        raise InternalInvariantError("delivery attempted off-graph")
                    self.audit.deliveries += 1
                    self.controllers[nb].deliver(msg)

    def run(self) -> EngineRun:
        n = self.graph.node_count
        states = {q: np.zeros((self.horizon + 1, n)) for q in QUANTITIES}
        for k in range(self.horizon + 1):
            self._exchange(k)
            for c in self.controllers:
                c.record_observation(k)
            for q in QUANTITIES:
                # medium-level snapshot for the faithfulness check; controllers
                # themselves never see this array
                states[q][k] = [c.values[q] for c in self.controllers]
            if k < self.horizon:
                for c in self.controllers:
                    u = self.schedule.value(c.id, k) if c.id in self._faulty else None
                    c.advance(k, u)
        observations = {
            q: [c.observation_record(q) for c in self.controllers] for q in QUANTITIES
        }
        return EngineRun(observations, states, self.audit)


@dataclass
class CommunicationAgent:
    """Topology planner; deliberately blind to everything but (n, f, links, seed).

    The call log is the blindness audit: each entry lists exactly the
    inputs a topology was derived from.
    """

    strategy: str
    f: int
    seed: int
    calls: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.strategy not in ("preventive", "responsive"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def build_graph(self, n: int, link_attacks: LinkAttackSet | None = None,
                    period: int = 0) -> Graph:
        attacks = link_attacks if link_attacks is not None else LinkAttackSet()
        self.calls.append({
            "n": n,
            "f": self.f,
            "link_attacks": sorted(attacks.forbidden_edges),
            "seed": self.seed,
            "period": period,
            "strategy": self.strategy,
        })
        rng = _rng(self.seed, period, _GRAPH_STREAM)
        if self.strategy == "preventive":
            return generate_preventive(n, self.f, rng)
        return generate_responsive(n, self.f, attacks, rng)


def _topology(scenario: Scenario, agent: CommunicationAgent, period: int,
              fixed_graph: Graph | None) -> Graph:
    if fixed_graph is not None:
        if fixed_graph.node_count != scenario.n:
            raise ConfigError(
                f"fixed graph has {fixed_graph.node_count} nodes, scenario has {scenario.n}")
        return fixed_graph
    configured = scenario.fixed_graph()
    if configured is not None:
        return configured
    links = scenario.attack.links if scenario.attack.known_to_agent else LinkAttackSet()
    return agent.build_graph(scenario.n, links, period)


def _resilient_weights(scenario: Scenario, g: Graph, period: int) -> WeightMatrix:
    if scenario.weights.kind == "fixed":
        try:
            return WeightMatrix(np.array(scenario.weights.matrix, dtype=float), g)
        except ValueError as exc:
            raise ConfigError(f"weights.matrix does not fit the period graph: {exc}") from None
    return synthesize_weights(
        g, scenario.f, _rng(scenario.seed, period, _WEIGHT_STREAM),
        scenario.consensus.k_max_for(scenario.n), scenario.consensus.synthesis_attempts)


def _pick_horizon(scenario: Scenario, w: WeightMatrix) -> tuple[int, str]:
    """Operating horizon plus which rank split certified it.

    Synthesized weights always pass the full 2f split (synthesis retries
    until they do). A fixed, externally supplied matrix may not: a pair
    of fault hypotheses can share stacked directions even though every
    single hypothesis decodes uniquely. When such a matrix comes with an
    explicit consensus.k, the run proceeds under the weaker size-f split
    and the unknown-fault decoder's runtime agreement check carries the
    cross-hypothesis guarantee; without an explicit k there is no
    principled horizon to fall back to, so the full split is required.
    """
    cc = scenario.consensus
    k_max = cc.k_max_for(scenario.n)
    floor = max(cc.k or 0, scenario.attack.longest_explicit())
    if floor > k_max:
        raise ConfigError(
            f"required horizon {floor} exceeds consensus.k_max={k_max}; raise k_max "
            f"or shorten the explicit injection series")
    smallest = verify_rank_condition(w, scenario.f, k_max)
    if smallest is not None:
        return max(smallest, floor), "full"
    if scenario.weights.kind == "fixed" and cc.k is not None:
        if verify_candidate_uniqueness(w, scenario.f, floor) is not None:
            return floor, "per_candidate"
        raise SynthesisError(
            f"fixed weights leave some fault hypothesis of size <= {scenario.f} "
            f"undecodable at k={floor}")
    raise SynthesisError(
        f"weights do not satisfy the recovery rank condition for f={scenario.f} "
        f"within k_max={k_max}" + (
            "; supply consensus.k to run a fixed matrix under the weaker "
            "per-hypothesis split" if scenario.weights.kind == "fixed" else ""))


def run_period(scenario: Scenario, agent: CommunicationAgent, decode_mode: str,
               period_index: int = 0, fixed_graph: Graph | None = None) -> DecisionRecord:
    """Execute one decision period end to end and return its record."""
    if decode_mode not in MODES:
        raise ValueError(f"decode_mode must be one of {MODES}")
    g = _topology(scenario, agent, period_index, fixed_graph)
    if decode_mode == "baseline":
        return _run_baseline_period(scenario, g, period_index)
    return _run_resilient_period(scenario, g, decode_mode, period_index)


def _run_resilient_period(scenario: Scenario, g: Graph, decode_mode: str,
                          period_index: int) -> DecisionRecord:
    cc = scenario.consensus
    w = _resilient_weights(scenario, g, period_index)
    k, rank_split = _pick_horizon(scenario, w)
    schedule = sample_injections(scenario.attack, k, _rng(scenario.seed, period_index, _ATTACK_STREAM))
    engine = RoundEngine(g, w, scenario.microgrids, schedule, k)
    run = engine.run()

    declared = scenario.attack.compromised_nodes
    per_controller: dict[str, dict] = {}
    verdicts: dict[int, str] = {}
    totals = {q: [] for q in QUANTITIES}
    for i in range(scenario.n):
        stack = build_observability_stack(w, i, k)
        decoded = {}
        for q in QUANTITIES:
            obs = run.observations[q][i]
            if decode_mode == "known_faults":
                decoded[q] = decode_known_faults(stack, obs, declared,
                                                 cc.residual_tol, cc.condition_limit)
            else:
                decoded[q] = decode_unknown_faults(stack, obs, scenario.f, cc.residual_tol,
                                                   cc.agreement_tol, cc.condition_limit)
            totals[q].append(decoded[q].total)
        verdicts[i] = evaluate_criterion(decoded["supply"].total, decoded["demand"].total)
        per_controller[str(i)] = {
            "supply": decoded["supply"].to_json_dict(),
            "demand": decoded["demand"].to_json_dict(),
            "verdict": verdicts[i],
        }

    return _period_record(scenario, g, period_index, run, verdicts, totals, {
        "mode": decode_mode,
        "k": k,
        "rank_split": rank_split,
        "weights_source": scenario.weights.kind,
        "declared_fault_set": list(declared) if decode_mode == "known_faults" else None,
        "controllers": per_controller,
    })


def _run_baseline_period(scenario: Scenario, g: Graph, period_index: int) -> DecisionRecord:
    steps = scenario.consensus.baseline_steps
    w = metropolis_weights(g)
    schedule = sample_injections(scenario.attack, steps,
                                 _rng(scenario.seed, period_index, _ATTACK_STREAM))
    engine = RoundEngine(g, w, scenario.microgrids, schedule, steps)
    run = engine.run()

    n = scenario.n
    true_supply, true_demand = scenario.true_totals()
    verdicts: dict[int, str] = {}
    estimates = {q: [] for q in QUANTITIES}
    for c in engine.controllers:
        est_supply = n * c.values["supply"]
        est_demand = n * c.values["demand"]
        estimates["supply"].append(est_supply)
        estimates["demand"].append(est_demand)
        verdicts[c.id] = evaluate_criterion(est_supply, est_demand)

    dev_supply = max(abs(e - true_supply) for e in estimates["supply"])
    dev_demand = max(abs(e - true_demand) for e in estimates["demand"])
    return _period_record(scenario, g, period_index, run, verdicts, estimates, {
        "mode": "baseline",
        "k": steps,
        "weights_source": "metropolis",
        "controllers": {
            str(i): {
                "supply_estimate": estimates["supply"][i],
                "demand_estimate": estimates["demand"][i],
                "verdict": verdicts[i],
            }
            for i in range(n)
        },
        "true_totals": {"supply": true_supply, "demand": true_demand},
        "max_estimate_deviation": {"supply": dev_supply, "demand": dev_demand},
        "estimates_reliable": bool(max(dev_supply, dev_demand) <= 1e-6 * max(true_supply, true_demand, 1.0)),
    })


def _period_record(scenario: Scenario, g: Graph, period_index: int, run: EngineRun,
                   verdicts: dict[int, str], totals: dict[str, list[float]],
                   diagnostics: dict) -> DecisionRecord:
    """Record of a completed period; the recorded totals are the per-controller means.

    diagnostics holds the mode's own fields; the graph, the engine audit
    and the empty error every completed period carries are added here.
    """
    return DecisionRecord(
        period=DecisionPeriod(period_index, scenario.period_hours),
        per_controller_verdict=verdicts,
        recovered_supply_total=float(np.mean(totals["supply"])),
        recovered_demand_total=float(np.mean(totals["demand"])),
        diagnostics={
            **diagnostics,
            "graph_edges": [list(e) for e in sorted(g.edges)],
            "audit": {
                "deliveries": run.audit.deliveries,
                "locality_violations": run.audit.locality_violations,
                "duplicate_deliveries": run.audit.duplicate_deliveries,
            },
            "error": None,
        },
        trajectories=run.trajectories,
        graph=g,
    )


def run_campaign(scenario: Scenario, periods: int, agent: CommunicationAgent,
                 decode_mode: str, fixed_graph: Graph | None = None) -> list[DecisionRecord]:
    """Run several decision periods; per-period failures become error records."""
    if periods < 1:
        raise ValueError("periods must be at least 1")
    records: list[DecisionRecord] = []
    pinned: Graph | None = fixed_graph
    for p in range(periods):
        try:
            record = run_period(scenario, agent, decode_mode, p, pinned)
            if not scenario.graph.regenerate_per_period and pinned is None:
                pinned = record.graph
        except (InfeasibleTopologyError, SynthesisError, DecodeError, InternalInvariantError) as exc:
            record = DecisionRecord(
                period=DecisionPeriod(p, scenario.period_hours),
                per_controller_verdict={i: UNDECIDED for i in range(scenario.n)},
                recovered_supply_total=None,
                recovered_demand_total=None,
                diagnostics={"mode": decode_mode, "error": f"{type(exc).__name__}: {exc}"},
            )
        records.append(record)
    return records


def trajectory_csv_text(record: DecisionRecord) -> str:
    if record.trajectories is None:
        raise ValueError("record carries no trajectories")
    lines = ["step,controller,quantity,value"]
    for q in QUANTITIES:
        traj = record.trajectories[q]
        for step in range(traj.shape[0]):
            for node in range(traj.shape[1]):
                lines.append(f"{step},{node},{q},{repr(float(traj[step, node]))}")
    return "\n".join(lines) + "\n"


def write_run_artifacts(record: DecisionRecord, out_dir) -> list[str]:
    """decision_record.json, trajectory.csv, graph.edges, graph.dot."""
    import json
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    rec_path = out / "decision_record.json"
    rec_path.write_text(json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n")
    written.append(str(rec_path))
    if record.trajectories is not None:
        csv_path = out / "trajectory.csv"
        csv_path.write_text(trajectory_csv_text(record))
        written.append(str(csv_path))
    if record.graph is not None:
        edges_path = out / "graph.edges"
        edges_path.write_text(record.graph.to_edge_list_text())
        written.append(str(edges_path))
        dot_path = out / "graph.dot"
        dot_path.write_text(record.graph.to_dot())
        written.append(str(dot_path))
    return written
