"""Synchronous round engine over neighbourhood-size classes.

Each microgrid controller starts from its own profile and sees only what
its neighbours in the period's graph broadcast. Its state is the payload
it broadcasts, its values in QUANTITIES order: inside the engine a
quantity is a position in that payload, and names are given only where
the period records are built.
The engine is the broadcast medium. A controller is a row of its
neighbourhood-size class: the class holds, for every controller whose
closed neighbourhood has L nodes, its selector (that neighbourhood, as
the graph computed it once) and its restricted row of W, so locality
holds by construction. The states are kept in class order, so each round
one np.take gathers every class's rows and each class steps them with
one np.vecdot. The rows must stay C-contiguous: vecdot then sums each
with the same BLAS dot as the per-node np.dot of run_updates, the
reference, and the trajectories agree with it bit for bit.
The engine counts the neighbour entries each gather reads, and adds the
attack schedule's at(node, step) to the compromised controllers'
updates. The trajectories, in node order, are its one record: a
controller's observation is its neighbourhood's columns of them.

Record conventions: in resilient modes the record's scalar totals are
the mean of the per-controller decoded totals (every controller recovers
the same initial state, so they differ only by rounding); in baseline
mode they are the mean of the per-controller estimates n * own final
value, which is what plain averaging offers in place of a decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .consensus import (
    BASELINE_RTOL,
    InjectionSchedule,
    ObservationRecord,
    WeightMatrix,
    build_observability_stack,
    decode_known_faults,
    decode_unknown_faults,
    horizon_cap,
    metropolis_weights,
    synthesize_weights,
    verify_candidate_uniqueness,
    verify_rank_condition,
)
from .errors import PERIOD_FAILURES, ConfigError, DecodeError, SynthesisError
from .graph import Edge, Graph, check_nodes, generate_preventive, generate_responsive
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


@dataclass(frozen=True)
class SizeClass:
    """The controllers whose closed neighbourhoods have one size L.

    nodes holds their ids (m,); row j of selectors (m, L) is node j's
    sorted closed neighbourhood in the graph, and row j of weights (m, L)
    its restricted row of W on that neighbourhood, byte-equal to
    entries[node, selector].
    """

    nodes: np.ndarray
    selectors: np.ndarray
    weights: np.ndarray


@dataclass
class EngineRun:
    """A run's node-ordered, C-contiguous trajectories on its graph, and its delivery count."""

    trajectories: dict[str, np.ndarray]
    deliveries: int
    graph: Graph

    def observation(self, quantity: str, node: int) -> ObservationRecord:
        """Node's K+1 snapshots of quantity: its neighbourhood's columns, one C-contiguous copy."""
        sel = self.graph.closed_neighborhood(node)
        return ObservationRecord(node, sel, np.take(self.trajectories[quantity], sel, axis=1))


class RoundEngine:
    """Lockstep executor: K update rounds plus a final observation round, on the
    weight matrix's graph and over the injection schedule's horizon K.

    The controllers are rows of neighbourhood-size classes, built once from
    the graph, and the states are kept in class order, each class on one
    range of positions (position[node]). flat maps every class's selectors,
    quantity by quantity, into a round's flattened states: each round one
    np.take gathers every row, and deliveries counts the neighbour entries
    each gather reads, the observation round's too.
    """

    def __init__(self, weights: WeightMatrix, profiles: tuple[MicrogridProfile, ...],
                 schedule: InjectionSchedule):
        self.graph = weights.graph
        self.weights = weights
        self.schedule = schedule
        self.horizon = schedule.horizon
        n = self.graph.node_count
        if len(profiles) != n:
            raise ValueError(f"{len(profiles)} profiles for a {n}-node graph")
        check_nodes(schedule.faulty_nodes, n)
        by_size: dict[int, list[int]] = {}
        for i in range(n):
            by_size.setdefault(len(weights.selector(i)), []).append(i)
        classes = []
        for size in sorted(by_size):
            nodes = np.array(by_size[size])
            sel = np.array([weights.selector(i) for i in by_size[size]])
            classes.append(SizeClass(nodes, sel, weights.entries[nodes[:, None], sel]))
        self.classes = tuple(classes)
        order = np.concatenate([c.nodes for c in classes])
        # not np.argsort(order): its first call maps in about 0.4 MB of sort code
        self.position = np.empty(n, dtype=np.intp)
        self.position[order] = np.arange(n)
        self.flat = np.concatenate([(self.position[c.selectors] + q * n).ravel()
                                    for c in classes for q in range(len(QUANTITIES))])
        self.initial = np.array([(p.supply, p.critical_demand) for p in profiles], float).T[:, order]

    def run(self) -> EngineRun:
        q, n = len(QUANTITIES), self.graph.node_count
        # states[k] is round k's (quantity, position) states, in class order
        states = np.empty((self.horizon + 1, q, n))
        states[0] = self.initial
        rows, nxt = np.empty(self.flat.size), np.empty((q, n))
        # per class: a C-contiguous (quantity, m, L) view of rows and a (quantity, m) one of nxt
        blocks = np.split(rows, np.cumsum([q * c.selectors.size for c in self.classes])[:-1])
        outs = np.split(nxt, np.cumsum([c.nodes.size for c in self.classes])[:-1], axis=1)
        steps = [(c.weights, block.reshape(q, *c.selectors.shape), out)
                 for c, block, out in zip(self.classes, blocks, outs)]
        deliveries = 0
        # an overflowing run is reported by the period's finiteness checks, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(self.horizon + 1):
                # flat is in range by construction; mode="raise" would gather into a temporary
                np.take(states[k].reshape(-1), self.flat, out=rows, mode="wrap")
                deliveries += rows.size - q * n
                if k < self.horizon:
                    for w, block, out in steps:
                        np.vecdot(w, block, out=out)
                    states[k + 1] = nxt
                    for j in self.schedule.faulty_nodes:
                        states[k + 1, :, self.position[j]] += self.schedule.at(j, k)
        trajectories = np.take(states.transpose(1, 0, 2), self.position, axis=2)
        return EngineRun(dict(zip(QUANTITIES, trajectories)), deliveries, self.graph)


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

    def build_graph(self, n: int, link_attacks: frozenset[Edge] = frozenset(),
                    period: int = 0) -> Graph:
        self.calls.append({
            "n": n,
            "f": self.f,
            "link_attacks": sorted(link_attacks),
            "seed": self.seed,
            "period": period,
            "strategy": self.strategy,
        })
        rng = _rng(self.seed, period, _GRAPH_STREAM)
        if self.strategy == "preventive":
            return generate_preventive(n, self.f, rng)
        return generate_responsive(n, self.f, link_attacks, rng)


def _topology(scenario: Scenario, agent: CommunicationAgent, period: int) -> Graph:
    if scenario.graph.fixed is not None:
        return scenario.graph.fixed
    links = scenario.attack.links if scenario.attack.known_to_agent else frozenset()
    return agent.build_graph(scenario.n, links, period)


def _weights_and_horizon(scenario: Scenario, g: Graph,
                         period: int) -> tuple[WeightMatrix, int, str]:
    """The period's weights, operating horizon and the rank split that certified it.

    K is the first horizon from the floor, max(consensus.k, longest explicit
    series), to the cap n + 2 at which the full 2f split holds; a floor past
    the cap is a configuration error, found before any certificate or draw.
    Synthesis certifies the graph first (a supplied one once per campaign: the
    scenario's Graph keeps its certificate) and draws until the full split
    holds at such a K, read back here from the matrix's memo. A fixed, supplied
    matrix may fail it, as two fault hypotheses can share stacked directions
    while each decodes uniquely; it then runs at the first such K where the
    size-f split holds, the unknown-fault decoder checking agreement at run time.
    """
    f = scenario.f
    cap = horizon_cap(scenario.n)
    floor = max(scenario.consensus.k, scenario.attack.longest_explicit())
    if floor > cap:
        raise ConfigError(
            f"required horizon {floor} exceeds the horizon cap n + 2 = {cap}; lower "
            f"consensus.k or shorten the explicit injection series")
    w = scenario.weights
    if w is None:
        w = synthesize_weights(g, f, _rng(scenario.seed, period, _WEIGHT_STREAM), floor=floor)
    k = verify_rank_condition(w, f, floor=floor)
    if k is not None:
        return w, k, "full"
    k = verify_candidate_uniqueness(w, f, floor=floor)
    if k is None:
        raise SynthesisError(
            f"fixed weights leave some fault hypothesis of size <= {f} undecodable "
            f"at every k from {floor} to the cap {cap}")
    return w, k, "per_candidate"


def run_period(scenario: Scenario, agent: CommunicationAgent, decode_mode: str,
               period_index: int = 0) -> DecisionRecord:
    """Execute one decision period end to end and return its record."""
    if decode_mode not in MODES:
        raise ValueError(f"decode_mode must be one of {MODES}")
    g = _topology(scenario, agent, period_index)
    if decode_mode == "baseline":
        return _run_baseline_period(scenario, g, period_index)
    return _run_resilient_period(scenario, g, decode_mode, period_index)


def _run_resilient_period(scenario: Scenario, g: Graph, decode_mode: str,
                          period_index: int) -> DecisionRecord:
    w, k, rank_split = _weights_and_horizon(scenario, g, period_index)
    schedule = sample_injections(scenario.attack, k, _rng(scenario.seed, period_index, _ATTACK_STREAM))
    run = RoundEngine(w, scenario.microgrids, schedule).run()

    declared = scenario.attack.compromised_nodes
    per_controller: dict[str, dict] = {}
    verdicts: dict[int, str] = {}
    totals = {q: [] for q in QUANTITIES}
    for i in range(scenario.n):
        stack = build_observability_stack(w, i, k)
        entry = per_controller[str(i)] = {}
        for q in QUANTITIES:
            obs = run.observation(q, i)
            if not np.isfinite(obs.samples).all():
                raise DecodeError(f"controller {i}'s {q} observations are not finite (float64 overflow)")
            if decode_mode == "known_faults":
                decoded = decode_known_faults(stack, obs, declared)
            else:
                decoded = decode_unknown_faults(stack, obs, scenario.f)
            totals[q].append(decoded.total)
            entry[q] = decoded.to_json_dict()
        verdicts[i] = evaluate_criterion(*(totals[q][i] for q in QUANTITIES))
        entry["verdict"] = verdicts[i]

    return _period_record(scenario, g, period_index, run, verdicts, totals, {
        "mode": decode_mode,
        "k": k,
        "rank_split": rank_split,
        "weights_source": "random" if scenario.weights is None else "fixed",
        "declared_fault_set": list(declared) if decode_mode == "known_faults" else None,
        "controllers": per_controller,
    })


def _run_baseline_period(scenario: Scenario, g: Graph, period_index: int) -> DecisionRecord:
    steps = scenario.consensus.baseline_steps
    w = metropolis_weights(g)
    schedule = sample_injections(scenario.attack, steps,
                                 _rng(scenario.seed, period_index, _ATTACK_STREAM))
    run = RoundEngine(w, scenario.microgrids, schedule).run()

    n = scenario.n
    truth = dict(zip(QUANTITIES, scenario.true_totals()))
    estimates = {q: [n * v for v in run.trajectories[q][-1].tolist()] for q in QUANTITIES}
    if not np.isfinite(list(estimates.values())).all():
        raise DecodeError("plain averaging overflowed: some estimates are not finite")
    verdicts = {i: evaluate_criterion(*(estimates[q][i] for q in QUANTITIES)) for i in range(n)}
    controllers = {}
    for i in range(n):
        controllers[str(i)] = {f"{q}_estimate": estimates[q][i] for q in QUANTITIES}
        controllers[str(i)]["verdict"] = verdicts[i]
    deviation = {q: max(abs(e - truth[q]) for e in estimates[q]) for q in QUANTITIES}
    return _period_record(scenario, g, period_index, run, verdicts, estimates, {
        "mode": "baseline",
        "k": steps,
        "weights_source": "metropolis",
        "controllers": controllers,
        "true_totals": truth,
        "max_estimate_deviation": deviation,
        "estimates_reliable": bool(max(deviation.values()) <= BASELINE_RTOL * max(*truth.values(), 1.0)),
    })


def _period_record(scenario: Scenario, g: Graph, period_index: int, run: EngineRun,
                   verdicts: dict[int, str], totals: dict[str, list[float]],
                   diagnostics: dict) -> DecisionRecord:
    """Record of a completed period; the recorded totals are the per-controller means.

    diagnostics holds the mode's own fields; the graph, the engine's
    measured delivery count and the empty error every completed period
    carries are added here.
    """
    return DecisionRecord(
        period=DecisionPeriod(period_index, scenario.period_hours),
        per_controller_verdict=verdicts,
        recovered_supply_total=float(np.mean(totals["supply"])),
        recovered_demand_total=float(np.mean(totals["demand"])),
        diagnostics={
            **diagnostics,
            "graph_edges": [list(e) for e in sorted(g.edges)],
            "audit": {"deliveries": run.deliveries},
            "error": None,
        },
        trajectories=run.trajectories,
        graph=g,
    )


def run_campaign(scenario: Scenario, periods: int, agent: CommunicationAgent,
                 decode_mode: str) -> list[DecisionRecord]:
    """Run several decision periods; per-period failures become error records.

    Without regeneration or a fixed graph, the first completed period's graph is pinned.
    """
    if periods < 1:
        raise ValueError("periods must be at least 1")
    records: list[DecisionRecord] = []
    for p in range(periods):
        try:
            record = run_period(scenario, agent, decode_mode, p)
            if not scenario.graph.regenerate_per_period and scenario.graph.fixed is None:
                scenario = scenario.with_fixed_graph(record.graph)
        except PERIOD_FAILURES as exc:
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
    files = {"decision_record.json":
             json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n"}
    if record.trajectories is not None:
        files["trajectory.csv"] = trajectory_csv_text(record)
    if record.graph is not None:
        files["graph.edges"] = record.graph.to_edge_list_text()
        files["graph.dot"] = record.graph.to_dot()
    for name, text in files.items():
        (out / name).write_text(text)
    return [str(out / name) for name in files]
