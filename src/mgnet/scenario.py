"""Scenario model: microgrid profiles, attacks, and the interconnection test.

A scenario file pins everything one decision campaign needs: per-grid
surplus supply and critical demand over the period, the attack (which
controllers get corrupted and how, which links are unusable, whether the
agent knows about the links), the fault bound f, seeds, and the consensus
horizons. Each injection type is one row of INJECTION_TYPES: the
fields a scenario gives it and the series it adds over a horizon. The
decision itself is the strict comparison: interconnect only when the
recovered total supply exceeds the recovered total critical demand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .consensus import BASELINE_STEPS, InjectionSchedule, WeightMatrix
from .errors import ConfigError
from .graph import Edge, Graph, check_edges, check_nodes

INTERCONNECT = "interconnect"
STAND_ALONE = "stand_alone"
UNDECIDED = "undecided"

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
    """How one compromised controller's corruption is produced: kind names an
    INJECTION_TYPES row, params holds its fields (explicit's "values" as a tuple)."""

    node: int
    kind: str
    params: tuple[tuple[str, float | tuple[float, ...]], ...] = ()


@dataclass(frozen=True)
class AttackSpec:
    controllers: tuple[InjectionPlan, ...] = ()
    links: frozenset[Edge] = frozenset()
    known_to_agent: bool = False

    @property
    def compromised_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(p.node for p in self.controllers))

    def longest_explicit(self) -> int:
        return max((len(dict(p.params).get("values", ())) for p in self.controllers), default=0)


@dataclass(frozen=True)
class ConsensusConfig:
    """Horizons a scenario may set; the numerical policy lives in consensus."""

    k: int = 1  # the horizon floor; null in a scenario file is 1
    baseline_steps: int = BASELINE_STEPS


@dataclass(frozen=True)
class GraphConfig:
    strategy: str = "preventive"
    fixed: Graph | None = None  # the supplied topology of every period
    regenerate_per_period: bool = True


def _fit_weights(entries, g: Graph) -> WeightMatrix:
    try:
        return WeightMatrix(entries, g)
    except ValueError as exc:
        raise ConfigError(f"weights.matrix does not fit the fixed graph: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    microgrids: tuple[MicrogridProfile, ...]
    attack: AttackSpec
    f: int
    period_hours: float
    seed: int
    consensus: ConsensusConfig = ConsensusConfig()
    graph: GraphConfig = GraphConfig()
    weights: WeightMatrix | None = None  # fixed, on graph.fixed; None draws them per period

    @property
    def n(self) -> int:
        return len(self.microgrids)

    def true_totals(self) -> tuple[float, float]:
        return (sum(p.supply for p in self.microgrids),
                sum(p.critical_demand for p in self.microgrids))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def with_fixed_graph(self, g: Graph) -> "Scenario":
        """This scenario with g itself as graph.fixed, so a certificate g holds
        or computes serves the whole campaign; a fixed matrix moves onto g and
        must fit it."""
        if g.node_count != self.n:
            raise ConfigError(f"fixed graph has {g.node_count} nodes, scenario has {self.n}")
        weights = None if self.weights is None else _fit_weights(self.weights.entries, g)
        return replace(self, graph=replace(self.graph, fixed=g), weights=weights)


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


def _as_object(value, allowed, ctx: str) -> dict:
    """value, a dict with only allowed keys; a section's fields drop its "scenario." prefix."""
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: must be an object")
    _reject_unknown(value, allowed, ctx.removeprefix("scenario."))
    return value


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


def _non_negative(value, ctx: str):
    if value < 0:
        raise ConfigError(f"{ctx}: must be non-negative")
    return value


def _as_pairs(value, ctx: str) -> list[tuple[int, int]]:
    if not isinstance(value, list):
        raise ConfigError(f"{ctx}: must be a list of [i, j] pairs")
    pairs = []
    for pos, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{ctx}[{pos}]: expected an [i, j] pair, got {item!r}")
        pairs.append((_as_int(item[0], f"{ctx}[{pos}]"), _as_int(item[1], f"{ctx}[{pos}]")))
    return pairs


def _as_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected true or false, got {value!r}")
    return value


def _as_series(value, ctx: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{ctx}: must be a non-empty list")
    return tuple(_as_number(v, f"{ctx}[{i}]") for i, v in enumerate(value))


# each injection type: (its fields besides "type", each with its parser; its series
# over steps, built from the parsed fields and the period's attack stream)
INJECTION_TYPES = {
    "explicit": ({"values": _as_series}, lambda p, steps, rng: list(p["values"])),
    "constant": ({"value": _as_number}, lambda p, steps, rng: [p["value"]] * steps),
    "uniform": ({"low": _as_number, "high": _as_number},
                lambda p, steps, rng: rng.uniform(p["low"], p["high"], steps).tolist()),
    "normal": ({"mean": _as_number, "std": lambda v, ctx: _non_negative(_as_number(v, ctx), ctx)},
               lambda p, steps, rng: rng.normal(p["mean"], p["std"], steps).tolist()),
}


def sample_injections(attack: AttackSpec, steps: int, rng: np.random.Generator) -> InjectionSchedule:
    """Materialize the attack as per-step values over the horizon.

    Plans are drawn in sorted node order so the schedule depends only on
    the seed, not on config file ordering. A series shorter than the
    horizon (only explicit's can be) is zero-padded; from_values raises
    ConfigError for a longer one.
    """
    per_node: dict[int, list[float]] = {}
    for plan in sorted(attack.controllers, key=lambda p: p.node):
        if plan.kind not in INJECTION_TYPES:
            raise ConfigError(f"attack.controllers[node={plan.node}]: "
                              f"unknown injection kind {plan.kind!r}")
        per_node[plan.node] = INJECTION_TYPES[plan.kind][1](dict(plan.params), steps, rng)
    return InjectionSchedule.from_values(per_node, steps)


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
        _as_object(item, ("id", "supply", "critical_demand", "label"), ctx)
        gid = _as_int(_require(item, "id", ctx), f"{ctx}.id")
        supply = _as_number(_require(item, "supply", ctx), f"{ctx}.supply")
        demand = _as_number(_require(item, "critical_demand", ctx), f"{ctx}.critical_demand")
        _non_negative(supply, f"{ctx}.supply")
        _non_negative(demand, f"{ctx}.critical_demand")
        label = item.get("label", "")
        if not isinstance(label, str):
            raise ConfigError(f"{ctx}.label: expected a string, got {label!r}")
        grids.append(MicrogridProfile(_non_negative(gid, f"{ctx}.id"), supply, demand, label))
    if sorted(p.id for p in grids) != list(range(len(grids))):
        raise ConfigError("scenario.microgrids: ids must be exactly 0..n-1")
    grids.sort(key=lambda p: p.id)
    n = len(grids)

    f = _non_negative(_as_int(_require(data, "f", "scenario"), "scenario.f"), "scenario.f")
    seed = _non_negative(_as_int(_require(data, "seed", "scenario"), "scenario.seed"), "scenario.seed")
    period_hours = _as_number(data.get("period_hours", 1.0), "scenario.period_hours")
    if period_hours <= 0:
        raise ConfigError("scenario.period_hours: must be positive")

    raw_attack = _as_object(data.get("attack", {}), ("controllers", "links", "known_to_agent"),
                            "scenario.attack")
    raw_plans = raw_attack.get("controllers", [])
    if not isinstance(raw_plans, list):
        raise ConfigError("attack.controllers: must be a list")
    plans = []
    for pos, item in enumerate(raw_plans):
        ctx = f"attack.controllers[{pos}]"
        _as_object(item, ("node", "injection"), ctx)
        node = _as_int(_require(item, "node", ctx), f"{ctx}.node")
        inj = _require(item, "injection", ctx)
        if not isinstance(inj, dict):
            raise ConfigError(f"{ctx}.injection: must be an object")
        kind = _require(inj, "type", f"{ctx}.injection")
        if not isinstance(kind, str) or kind not in INJECTION_TYPES:
            raise ConfigError(f"{ctx}.injection.type: unknown kind {kind!r}")
        fields, _ = INJECTION_TYPES[kind]
        _reject_unknown(inj, ("type", *fields), f"{ctx}.injection")
        got = {name: parse(_require(inj, name, f"{ctx}.injection"), f"{ctx}.injection.{name}")
               for name, parse in fields.items()}
        if got.get("low", 0.0) > got.get("high", 0.0):
            raise ConfigError(f"{ctx}.injection.low: must not exceed {ctx}.injection.high")
        plans.append(InjectionPlan(node, kind, tuple(got.items())))
    try:
        check_nodes([p.node for p in plans], n)
    except ValueError as exc:
        raise ConfigError(f"attack.controllers: {exc}") from None
    if len(plans) > f:
        raise ConfigError(
            f"attack.controllers: {len(plans)} compromised controllers exceed the fault bound f={f}")
    link_pairs = _as_pairs(raw_attack.get("links", []), "attack.links")
    try:
        links = check_edges(link_pairs, n)
    except ValueError as exc:
        raise ConfigError(f"attack.links: {exc}") from None
    attack = AttackSpec(tuple(plans), links,
                        _as_bool(raw_attack.get("known_to_agent", False), "attack.known_to_agent"))

    raw_cons = _as_object(data.get("consensus", {}), ("k", "baseline_steps"), "scenario.consensus")
    cons = ConsensusConfig(
        k=_as_int(1 if raw_cons.get("k") is None else raw_cons["k"], "consensus.k"),
        baseline_steps=_as_int(raw_cons.get("baseline_steps", BASELINE_STEPS),
                               "consensus.baseline_steps"),
    )
    for name in ("k", "baseline_steps"):
        value = getattr(cons, name)
        if value < 1:
            raise ConfigError(f"consensus.{name}: must be at least 1")

    raw_graph = _as_object(data.get("graph", {}), ("strategy", "fixed_edges", "regenerate_per_period"),
                           "scenario.graph")
    strategy = raw_graph.get("strategy", "preventive")
    if strategy not in ("preventive", "responsive"):
        raise ConfigError(f"graph.strategy: must be 'preventive' or 'responsive', got {strategy!r}")
    fixed = None
    if raw_graph.get("fixed_edges") is not None:
        edge_pairs = _as_pairs(raw_graph["fixed_edges"], "graph.fixed_edges")
        try:
            fixed = Graph.from_edges(n, edge_pairs)
        except ValueError as exc:
            raise ConfigError(f"graph.fixed_edges: {exc}") from None
    graph_cfg = GraphConfig(strategy, fixed,
                            _as_bool(raw_graph.get("regenerate_per_period", True),
                                     "graph.regenerate_per_period"))

    raw_weights = _as_object(data.get("weights", {}), ("type", "matrix"), "scenario.weights")
    wkind = raw_weights.get("type", "random")
    if wkind not in ("random", "fixed"):
        raise ConfigError(f"weights.type: must be 'random' or 'fixed', got {wkind!r}")
    if wkind == "random" and raw_weights.get("matrix") is not None:
        raise ConfigError("weights.matrix: only weights.type 'fixed' reads a matrix; "
                          "'random' draws new weights every period")
    weights = None
    if wkind == "fixed":
        raw_matrix = _require(raw_weights, "matrix", "weights")
        if (not isinstance(raw_matrix, list) or len(raw_matrix) != n
                or any(not isinstance(r, list) or len(r) != n for r in raw_matrix)):
            raise ConfigError(f"weights.matrix: must be an {n}x{n} array of numbers")
        matrix = [[_as_number(v, f"weights.matrix[{i}][{j}]") for j, v in enumerate(row)]
                  for i, row in enumerate(raw_matrix)]
        if fixed is None:
            raise ConfigError("weights.type 'fixed' requires graph.fixed_edges, since a "
                              "regenerated topology would not match the matrix pattern")
        weights = _fit_weights(matrix, fixed)

    return Scenario(tuple(grids), attack, f, period_hours, seed, cons, graph_cfg, weights)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "microgrids": [
            {"id": p.id, "label": p.label, "supply": p.supply, "critical_demand": p.critical_demand}
            for p in s.microgrids
        ],
        "f": s.f,
        "period_hours": s.period_hours,
        "seed": s.seed,
        "attack": {
            "known_to_agent": s.attack.known_to_agent,
            "links": [list(e) for e in sorted(s.attack.links)],
            "controllers": [
                {"node": p.node, "injection": {"type": p.kind, **{
                    name: list(v) if isinstance(v, tuple) else v for name, v in p.params}}}
                for p in s.attack.controllers],
        },
        "consensus": {"k": s.consensus.k, "baseline_steps": s.consensus.baseline_steps},
        "graph": {
            "strategy": s.graph.strategy,
            "fixed_edges": None if s.graph.fixed is None
            else [list(e) for e in sorted(s.graph.fixed.edges)],
            "regenerate_per_period": s.graph.regenerate_per_period,
        },
        "weights": {
            "type": "random" if s.weights is None else "fixed",
            "matrix": None if s.weights is None else s.weights.entries.tolist(),
        },
    }


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
