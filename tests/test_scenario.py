"""Scenario files: parsing, validation, round trips, injection sampling."""

import json

import numpy as np
import pytest

from mgnet import (
    INTERCONNECT,
    STAND_ALONE,
    AttackSpec,
    ConfigError,
    InjectionPlan,
    MicrogridProfile,
    evaluate_criterion,
    load_golden_scenario,
    load_scenario,
    sample_injections,
    save_scenario,
)
from mgnet.scenario import scenario_from_dict, scenario_to_dict

from conftest import REF_DEMANDS, REF_EDGES, REF_SUPPLIES, REF_W


def minimal_dict(n=4, f=1, **overrides):
    data = {
        "microgrids": [
            {"id": i, "supply": 10.0 * (i + 1), "critical_demand": 5.0} for i in range(n)
        ],
        "f": f,
        "seed": 7,
    }
    data.update(overrides)
    return data


class TestDecisionCriterion:
    def test_strict_inequality(self):
        assert evaluate_criterion(10.0, 9.9) == INTERCONNECT
        assert evaluate_criterion(10.0, 10.0) == STAND_ALONE
        assert evaluate_criterion(9.0, 10.0) == STAND_ALONE

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            evaluate_criterion(float("nan"), 1.0)


class TestProfileValidation:
    def test_negative_quantities_rejected(self):
        with pytest.raises(ValueError):
            MicrogridProfile(0, -1.0, 5.0)
        with pytest.raises(ValueError):
            MicrogridProfile(0, 1.0, float("inf"))


class TestScenarioParsing:
    def test_minimal_scenario_parses(self):
        sc = scenario_from_dict(minimal_dict())
        assert sc.n == 4
        assert sc.true_totals() == (100.0, 20.0)
        assert sc.graph.strategy == "preventive"
        assert sc.weights.kind == "random"

    def test_ids_must_cover_range(self):
        data = minimal_dict()
        data["microgrids"][2]["id"] = 9
        with pytest.raises(ConfigError, match="ids must be exactly"):
            scenario_from_dict(data)

    def test_missing_field_names_its_path(self):
        data = minimal_dict()
        del data["microgrids"][1]["supply"]
        with pytest.raises(ConfigError, match=r"microgrids\[1\]\.supply"):
            scenario_from_dict(data)

    def test_plans_beyond_fault_bound_rejected(self):
        data = minimal_dict(attack={"controllers": [
            {"node": 0, "injection": {"type": "constant", "value": 1.0}},
            {"node": 1, "injection": {"type": "constant", "value": 1.0}},
        ]})
        with pytest.raises(ConfigError, match="exceed the fault bound"):
            scenario_from_dict(data)

    def test_duplicate_attack_nodes_rejected(self):
        data = minimal_dict(f=2, attack={"controllers": [
            {"node": 0, "injection": {"type": "constant", "value": 1.0}},
            {"node": 0, "injection": {"type": "constant", "value": 2.0}},
        ]})
        with pytest.raises(ConfigError, match="duplicate"):
            scenario_from_dict(data)

    def test_unknown_injection_kind(self):
        data = minimal_dict(attack={"controllers": [
            {"node": 0, "injection": {"type": "ramp"}}]})
        with pytest.raises(ConfigError, match="unknown kind"):
            scenario_from_dict(data)

    def test_non_string_injection_kind(self):
        data = minimal_dict(attack={"controllers": [
            {"node": 0, "injection": {"type": ["uniform"]}}]})
        with pytest.raises(ConfigError, match="unknown kind"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path, overrides", [
        ("scenario.periods", {"periods": 3}),
        (r"microgrids\[0\]\.name", {"microgrids": [
            {"id": 0, "supply": 1.0, "critical_demand": 1.0, "name": "a"}]}),
        ("attack.nodes", {"attack": {"nodes": [0]}}),
        (r"attack\.controllers\[0\]\.kind", {"attack": {"controllers": [
            {"node": 0, "kind": "constant", "injection": {"type": "constant", "value": 1.0}}]}}),
        (r"attack\.controllers\[0\]\.injection\.value", {"attack": {"controllers": [
            {"node": 0, "injection": {"type": "uniform", "low": 0.0, "high": 1.0, "value": 1.0}}]}}),
        (r"attack\.controllers\[0\]\.injection\.values", {"attack": {"controllers": [
            {"node": 0, "injection": {"type": "constant", "value": 1.0, "values": [1.0]}}]}}),
        ("consensus.horizon", {"consensus": {"horizon": 4}}),
        ("graph.edges", {"graph": {"edges": [[0, 1]]}}),
        ("weights.seed", {"weights": {"type": "random", "seed": 3}}),
        # a misspelt "type" must fail, not silently load as random weights
        ("weights.kind", {"weights": {"kind": "fixed", "matrix": REF_W}}),
    ])
    def test_unknown_field_names_its_path(self, path, overrides):
        with pytest.raises(ConfigError, match=rf"^{path}: unknown field"):
            scenario_from_dict(minimal_dict(**overrides))

    def test_attack_link_out_of_range(self):
        data = minimal_dict(attack={"links": [[0, 9]]})
        with pytest.raises(ConfigError, match=r"attack\.links"):
            scenario_from_dict(data)

    def test_fixed_weights_require_fixed_edges(self):
        data = minimal_dict(n=6, weights={"type": "fixed", "matrix": REF_W})
        with pytest.raises(ConfigError, match="fixed_edges"):
            scenario_from_dict(data)

    def test_fixed_weights_shape_checked(self):
        data = minimal_dict(
            n=6,
            graph={"fixed_edges": [list(e) for e in REF_EDGES]},
            weights={"type": "fixed", "matrix": [[1.0]]},
        )
        with pytest.raises(ConfigError, match="6x6"):
            scenario_from_dict(data)

    def test_consensus_bounds(self):
        with pytest.raises(ConfigError, match=r"consensus\.k:"):
            scenario_from_dict(minimal_dict(consensus={"k": 0}))
        with pytest.raises(ConfigError, match=r"consensus\.k_max"):
            scenario_from_dict(minimal_dict(consensus={"k_max": 0}))

    def test_round_trip_preserves_everything(self):
        data = minimal_dict(
            n=6,
            f=1,
            attack={
                "controllers": [
                    {"node": 3, "injection": {"type": "explicit", "values": [30.0, -45.0, 60.0]}}
                ],
                "links": [[0, 1]],
                "known_to_agent": True,
            },
            consensus={"k": 3, "baseline_steps": 25},
            graph={"strategy": "responsive", "fixed_edges": [list(e) for e in REF_EDGES],
                   "regenerate_per_period": False},
            weights={"type": "fixed", "matrix": REF_W},
        )
        sc = scenario_from_dict(data)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_save_and_load(self, tmp_path):
        sc = scenario_from_dict(minimal_dict())
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "microgrids": [,]\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")


class TestSampleInjections:
    def test_explicit_pads_to_horizon(self):
        attack = AttackSpec((InjectionPlan(2, "explicit", (1.0, 2.0)),))
        inj = sample_injections(attack, 4, np.random.default_rng(0))
        assert inj.faulty_nodes == (2,)
        assert inj.values[:, 0].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_explicit_longer_than_horizon_rejected(self):
        attack = AttackSpec((InjectionPlan(2, "explicit", (1.0, 2.0, 3.0)),))
        with pytest.raises(ConfigError, match="exceeds"):
            sample_injections(attack, 2, np.random.default_rng(0))

    def test_constant_kind(self):
        attack = AttackSpec((InjectionPlan(1, "constant", params=(("value", 4.5),)),))
        inj = sample_injections(attack, 3, np.random.default_rng(0))
        assert inj.values[:, 0].tolist() == [4.5, 4.5, 4.5]

    def test_random_kinds_are_seed_deterministic(self):
        attack = AttackSpec((
            InjectionPlan(0, "uniform", params=(("low", -1.0), ("high", 1.0))),
            InjectionPlan(3, "normal", params=(("mean", 0.0), ("std", 2.0))),
        ))
        a = sample_injections(attack, 5, np.random.default_rng(42))
        b = sample_injections(attack, 5, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_plan_order_in_config_does_not_matter(self):
        plans = (
            InjectionPlan(0, "uniform", params=(("low", -1.0), ("high", 1.0))),
            InjectionPlan(3, "normal", params=(("mean", 0.0), ("std", 2.0))),
        )
        a = sample_injections(AttackSpec(plans), 5, np.random.default_rng(9))
        b = sample_injections(AttackSpec(plans[::-1]), 5, np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)

    def test_longest_explicit(self):
        attack = AttackSpec((
            InjectionPlan(0, "explicit", (1.0, 2.0, 3.0)),
            InjectionPlan(1, "constant", params=(("value", 1.0),)),
        ))
        assert attack.longest_explicit() == 3


class TestGoldenScenario:
    def test_loads_and_matches_reference_tables(self):
        sc = load_golden_scenario()
        assert sc.n == 6
        assert [p.supply for p in sc.microgrids] == REF_SUPPLIES
        assert [p.critical_demand for p in sc.microgrids] == REF_DEMANDS
        assert sc.true_totals() == (pytest.approx(441.44), pytest.approx(380.06))
        assert sc.attack.compromised_nodes == (3,)
        assert sc.consensus.k == 3
        assert sc.fixed_graph() is not None
        assert sorted(sc.fixed_graph().edges) == sorted(REF_EDGES)
        assert np.array_equal(np.array(sc.weights.matrix), np.array(REF_W, dtype=float))
