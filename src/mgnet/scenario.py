"""Scenario model: microgrid profiles, attacks, and the interconnection test.

A scenario file pins everything one decision campaign needs: per-grid
surplus supply and critical demand over the period, the attack (which
controllers get corrupted and how, which links are unusable, whether the
agent knows about the links), the fault bound f, seeds, and consensus
tuning. The decision itself is the strict comparison: interconnect only
when the recovered total supply exceeds the recovered total critical
demand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .consensus import InjectionSchedule
from .errors import ConfigError
from .graph import Graph, LinkAttackSet

INTERCONNECT = "interconnect"
STAND_ALONE = "stand_alone"
UNDECIDED = "undecided"

# fields each injection type takes besides "type"
_INJECTION_FIELDS = {
    "explicit": ("values",),
    "constant": ("value",),
    "uniform": ("low", "high"),
    "normal": ("mean", "std"),
}


def evaluate_criterion(supply_total: float, demand_total: float) -> str:
    """Strict comparison; a tie is not enough evidence to interconnect."""
    if not (math.isfinite(supply_total) and math.isfinite(demand_total)):
        raise ValueError("totals must be finite")
    return INTERCONNECT if supply_total > demand_total else STAND_ALONE


@dataclass(frozen=True)
class MicrogridProfile:
    id: int
    supply: float
    critical_demand: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("microgrid id must be non-negative")
        for name, v in (("supply", self.supply), ("critical_demand", self.critical_demand)):
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class DecisionPeriod:
    index: int
    period_hours: float = 1.0


@dataclass(frozen=True)
class InjectionPlan:
    """How one compromised controller's corruption is produced."""

    node: int
    kind: str
    values: tuple[float, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str) -> float:
        return dict(self.params)[name]


@dataclass(frozen=True)
class AttackSpec:
    controllers: tuple[InjectionPlan, ...] = ()
    links: LinkAttackSet = LinkAttackSet()
    known_to_agent: bool = False

    @property
    def compromised_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(p.node for p in self.controllers))

    def longest_explicit(self) -> int:
        return max((len(p.values) for p in self.controllers if p.kind == "explicit"), default=0)


def sample_injections(attack: AttackSpec, steps: int, rng: np.random.Generator) -> InjectionSchedule:
    """Materialize the attack as per-step values over the horizon.

    Plans are drawn in sorted node order so the schedule depends only on
    the seed, not on config file ordering. Explicit series shorter than
    the horizon are zero-padded; longer ones are a config error.
    """
    per_node: dict[int, list[float]] = {}
    for plan in sorted(attack.controllers, key=lambda p: p.node):
        if plan.kind == "explicit":
            if len(plan.values) > steps:
                raise ConfigError(
                    f"attack.controllers[node={plan.node}]: explicit series of length "
                    f"{len(plan.values)} exceeds the {steps}-step horizon")
            series = list(plan.values)
        elif plan.kind == "constant":
            series = [plan.param("value")] * steps
        elif plan.kind == "uniform":
            series = [float(v) for v in rng.uniform(plan.param("low"), plan.param("high"), steps)]
        elif plan.kind == "normal":
            series = [float(v) for v in rng.normal(plan.param("mean"), plan.param("std"), steps)]
        else:
            raise ConfigError(
                f"attack.controllers[node={plan.node}]: unknown injection kind {plan.kind!r}")
        per_node[plan.node] = series
    return InjectionSchedule.from_values(per_node, steps)


@dataclass(frozen=True)
class ConsensusConfig:
    k_max: int | None = None
    k: int | None = None
    residual_tol: float = 1e-8
    agreement_tol: float = 1e-6
    condition_limit: float = 1e12
    baseline_steps: int = 30
    synthesis_attempts: int = 40

    def k_max_for(self, n: int) -> int:
        return self.k_max if self.k_max is not None else n + 2


@dataclass(frozen=True)
class GraphConfig:
    strategy: str = "preventive"
    fixed_edges: tuple[tuple[int, int], ...] | None = None
    regenerate_per_period: bool = True


@dataclass(frozen=True)
class WeightsConfig:
    kind: str = "random"
    matrix: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class Scenario:
    microgrids: tuple[MicrogridProfile, ...]
    attack: AttackSpec
    f: int
    period_hours: float
    seed: int
    consensus: ConsensusConfig = ConsensusConfig()
    graph: GraphConfig = GraphConfig()
    weights: WeightsConfig = WeightsConfig()

    @property
    def n(self) -> int:
        return len(self.microgrids)

    def profile(self, node: int) -> MicrogridProfile:
        return self.microgrids[node]

    def true_totals(self) -> tuple[float, float]:
        return (sum(p.supply for p in self.microgrids),
                sum(p.critical_demand for p in self.microgrids))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def fixed_graph(self) -> Graph | None:
        if self.graph.fixed_edges is None:
            return None
        return Graph.from_edges(self.n, self.graph.fixed_edges)


@dataclass
class DecisionRecord:
    """Outcome of one decision period, everything a postmortem needs.

    trajectories and graph ride along for artifact writers but stay out
    of the JSON form.
    """

    period: DecisionPeriod
    per_controller_verdict: dict[int, str]
    recovered_supply_total: float | None
    recovered_demand_total: float | None
    diagnostics: dict
    trajectories: dict[str, np.ndarray] | None = field(default=None, repr=False)
    graph: Graph | None = field(default=None, repr=False)

    def unanimous(self) -> bool:
        verdicts = set(self.per_controller_verdict.values())
        return len(verdicts) == 1 and UNDECIDED not in verdicts

    def to_json_dict(self) -> dict:
        return {
            "period": {"index": self.period.index, "period_hours": self.period.period_hours},
            "per_controller_verdict": {str(k): v for k, v in sorted(self.per_controller_verdict.items())},
            "recovered_supply_total": self.recovered_supply_total,
            "recovered_demand_total": self.recovered_demand_total,
            "unanimous": self.unanimous(),
            "diagnostics": self.diagnostics,
        }


def _reject_unknown(data: dict, allowed, ctx: str) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(
                f"{ctx}.{key}: unknown field (expected one of: {', '.join(sorted(allowed))})")


def _require(data: dict, key: str, ctx: str):
    if key not in data:
        raise ConfigError(f"{ctx}.{key}: missing required field")
    return data[key]


def _as_number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{ctx}: must be finite")
    return float(value)


def _as_int(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}: expected an integer, got {value!r}")
    return value


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be a JSON object")
    _reject_unknown(data, ("microgrids", "f", "seed", "period_hours", "attack", "consensus",
                           "graph", "weights"), "scenario")

    raw_grids = _require(data, "microgrids", "scenario")
    if not isinstance(raw_grids, list) or not raw_grids:
        raise ConfigError("scenario.microgrids: must be a non-empty list")
    grids = []
    for pos, item in enumerate(raw_grids):
        ctx = f"microgrids[{pos}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{ctx}: must be an object")
        _reject_unknown(item, ("id", "supply", "critical_demand", "label"), ctx)
        gid = _as_int(_require(item, "id", ctx), f"{ctx}.id")
        supply = _as_number(_require(item, "supply", ctx), f"{ctx}.supply")
        demand = _as_number(_require(item, "critical_demand", ctx), f"{ctx}.critical_demand")
        if supply < 0:
            raise ConfigError(f"{ctx}.supply: must be non-negative")
        if demand < 0:
            raise ConfigError(f"{ctx}.critical_demand: must be non-negative")
        grids.append(MicrogridProfile(gid, supply, demand, str(item.get("label", ""))))
    if sorted(p.id for p in grids) != list(range(len(grids))):
        raise ConfigError("scenario.microgrids: ids must be exactly 0..n-1")
    grids.sort(key=lambda p: p.id)
    n = len(grids)

    f = _as_int(_require(data, "f", "scenario"), "scenario.f")
    if f < 0:
        raise ConfigError("scenario.f: must be non-negative")
    seed = _as_int(_require(data, "seed", "scenario"), "scenario.seed")
    period_hours = _as_number(data.get("period_hours", 1.0), "scenario.period_hours")
    if period_hours <= 0:
        raise ConfigError("scenario.period_hours: must be positive")

    raw_attack = data.get("attack", {})
    if not isinstance(raw_attack, dict):
        raise ConfigError("scenario.attack: must be an object")
    _reject_unknown(raw_attack, ("controllers", "links", "known_to_agent"), "attack")
    plans = []
    for pos, item in enumerate(raw_attack.get("controllers", [])):
        ctx = f"attack.controllers[{pos}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{ctx}: must be an object")
        _reject_unknown(item, ("node", "injection"), ctx)
        node = _as_int(_require(item, "node", ctx), f"{ctx}.node")
        if not 0 <= node < n:
            raise ConfigError(f"{ctx}.node: {node} out of range for {n} microgrids")
        inj = _require(item, "injection", ctx)
        if not isinstance(inj, dict):
            raise ConfigError(f"{ctx}.injection: must be an object")
        kind = _require(inj, "type", f"{ctx}.injection")
        if not isinstance(kind, str) or kind not in _INJECTION_FIELDS:
            raise ConfigError(f"{ctx}.injection.type: unknown kind {kind!r}")
        _reject_unknown(inj, ("type",) + _INJECTION_FIELDS[kind], f"{ctx}.injection")
        values: tuple[float, ...] = ()
        params: tuple[tuple[str, float], ...] = ()
        if kind == "explicit":
            raw_vals = _require(inj, "values", f"{ctx}.injection")
            if not isinstance(raw_vals, list) or not raw_vals:
                raise ConfigError(f"{ctx}.injection.values: must be a non-empty list")
            values = tuple(_as_number(v, f"{ctx}.injection.values[{i}]")
                           for i, v in enumerate(raw_vals))
        else:
            params = tuple((name, _as_number(_require(inj, name, f"{ctx}.injection"),
                                             f"{ctx}.injection.{name}"))
                           for name in _INJECTION_FIELDS[kind])
        plans.append(InjectionPlan(node, kind, values, params))
    nodes = [p.node for p in plans]
    if len(set(nodes)) != len(nodes):
        raise ConfigError("attack.controllers: duplicate node entries")
    if len(plans) > f:
        raise ConfigError(
            f"attack.controllers: {len(plans)} compromised controllers exceed the fault bound f={f}")
    raw_links = raw_attack.get("links", [])
    if not isinstance(raw_links, list):
        raise ConfigError("attack.links: must be a list of [i, j] pairs")
    try:
        links = LinkAttackSet.from_pairs(raw_links)
        links.validate_range(n)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"attack.links: {exc}") from None
    attack = AttackSpec(tuple(plans), links, bool(raw_attack.get("known_to_agent", False)))

    raw_cons = data.get("consensus", {})
    if not isinstance(raw_cons, dict):
        raise ConfigError("scenario.consensus: must be an object")
    _reject_unknown(raw_cons, ("k_max", "k", "residual_tol", "agreement_tol", "condition_limit",
                               "baseline_steps", "synthesis_attempts"), "consensus")
    cons = ConsensusConfig(
        k_max=None if raw_cons.get("k_max") is None else _as_int(raw_cons["k_max"], "consensus.k_max"),
        k=None if raw_cons.get("k") is None else _as_int(raw_cons["k"], "consensus.k"),
        residual_tol=_as_number(raw_cons.get("residual_tol", 1e-8), "consensus.residual_tol"),
        agreement_tol=_as_number(raw_cons.get("agreement_tol", 1e-6), "consensus.agreement_tol"),
        condition_limit=_as_number(raw_cons.get("condition_limit", 1e12), "consensus.condition_limit"),
        baseline_steps=_as_int(raw_cons.get("baseline_steps", 30), "consensus.baseline_steps"),
        synthesis_attempts=_as_int(raw_cons.get("synthesis_attempts", 40), "consensus.synthesis_attempts"),
    )
    if cons.k_max is not None and cons.k_max < 1:
        raise ConfigError("consensus.k_max: must be at least 1")
    if cons.k is not None and cons.k < 1:
        raise ConfigError("consensus.k: must be at least 1")
    if cons.baseline_steps < 1:
        raise ConfigError("consensus.baseline_steps: must be at least 1")

    raw_graph = data.get("graph", {})
    if not isinstance(raw_graph, dict):
        raise ConfigError("scenario.graph: must be an object")
    _reject_unknown(raw_graph, ("strategy", "fixed_edges", "regenerate_per_period"), "graph")
    strategy = raw_graph.get("strategy", "preventive")
    if strategy not in ("preventive", "responsive"):
        raise ConfigError(f"graph.strategy: must be 'preventive' or 'responsive', got {strategy!r}")
    fixed_edges = None
    if raw_graph.get("fixed_edges") is not None:
        raw_edges = raw_graph["fixed_edges"]
        if not isinstance(raw_edges, list):
            raise ConfigError("graph.fixed_edges: must be a list of [i, j] pairs")
        try:
            fixed_edges = tuple(sorted(Graph.from_edges(n, raw_edges).edges))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"graph.fixed_edges: {exc}") from None
    graph_cfg = GraphConfig(strategy, fixed_edges,
                            bool(raw_graph.get("regenerate_per_period", True)))

    raw_weights = data.get("weights", {})
    if not isinstance(raw_weights, dict):
        raise ConfigError("scenario.weights: must be an object")
    _reject_unknown(raw_weights, ("type", "matrix"), "weights")
    wkind = raw_weights.get("type", "random")
    if wkind not in ("random", "fixed"):
        raise ConfigError(f"weights.type: must be 'random' or 'fixed', got {wkind!r}")
    matrix = None
    if wkind == "fixed":
        raw_matrix = _require(raw_weights, "matrix", "weights")
        if (not isinstance(raw_matrix, list) or len(raw_matrix) != n
                or any(not isinstance(r, list) or len(r) != n for r in raw_matrix)):
            raise ConfigError(f"weights.matrix: must be an {n}x{n} array of numbers")
        matrix = tuple(tuple(_as_number(v, f"weights.matrix[{i}][{j}]")
                             for j, v in enumerate(row))
                       for i, row in enumerate(raw_matrix))
        if fixed_edges is None:
            raise ConfigError("weights.type 'fixed' requires graph.fixed_edges, since a "
                              "regenerated topology would not match the matrix pattern")
    weights_cfg = WeightsConfig(wkind, matrix)

    return Scenario(tuple(grids), attack, f, period_hours, seed, cons, graph_cfg, weights_cfg)


def scenario_to_dict(s: Scenario) -> dict:
    out: dict = {
        "microgrids": [
            {"id": p.id, "label": p.label, "supply": p.supply, "critical_demand": p.critical_demand}
            for p in s.microgrids
        ],
        "f": s.f,
        "period_hours": s.period_hours,
        "seed": s.seed,
        "attack": {
            "known_to_agent": s.attack.known_to_agent,
            "links": [list(e) for e in sorted(s.attack.links.forbidden_edges)],
            "controllers": [],
        },
        "consensus": {
            "k_max": s.consensus.k_max,
            "k": s.consensus.k,
            "residual_tol": s.consensus.residual_tol,
            "agreement_tol": s.consensus.agreement_tol,
            "condition_limit": s.consensus.condition_limit,
            "baseline_steps": s.consensus.baseline_steps,
            "synthesis_attempts": s.consensus.synthesis_attempts,
        },
        "graph": {
            "strategy": s.graph.strategy,
            "fixed_edges": None if s.graph.fixed_edges is None
            else [list(e) for e in s.graph.fixed_edges],
            "regenerate_per_period": s.graph.regenerate_per_period,
        },
        "weights": {
            "type": s.weights.kind,
            "matrix": None if s.weights.matrix is None else [list(r) for r in s.weights.matrix],
        },
    }
    for plan in s.attack.controllers:
        inj: dict = {"type": plan.kind}
        if plan.kind == "explicit":
            inj["values"] = list(plan.values)
        else:
            inj.update({k: v for k, v in plan.params})
        out["attack"]["controllers"].append({"node": plan.node, "injection": inj})
    return out


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from None
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")


def golden_scenario_path() -> Path:
    """Bundled six-microgrid demonstration scenario."""
    return Path(str(resources.files("mgnet") / "data" / "golden.json"))


def load_golden_scenario() -> Scenario:
    return load_scenario(golden_scenario_path())
