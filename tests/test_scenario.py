"""Scenario files: parsing, validation, round trips, injection sampling."""

import dataclasses
import json
import re

import numpy as np
import pytest

from mgnet import consensus
from mgnet import (
    INTERCONNECT,
    STAND_ALONE,
    AttackSpec,
    ConfigError,
    ConsensusConfig,
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
        assert sc.graph.fixed is None
        assert sc.weights is None

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
        with pytest.raises(ConfigError, match="attack.controllers: node 0 is repeated"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("node", [-1, 4])
    def test_attack_node_outside_the_microgrids_rejected(self, node):
        data = minimal_dict(attack={"controllers": [
            {"node": node, "injection": {"type": "constant", "value": 1.0}}]})
        with pytest.raises(ConfigError, match=rf"^attack\.controllers: node {node} is outside 0\.\.3$"):
            scenario_from_dict(data)

    def test_unknown_injection_kind(self):
        data = minimal_dict(attack={"controllers": [
            {"node": 0, "injection": {"type": "ramp"}}]})
        with pytest.raises(ConfigError, match="unknown kind"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("injection, message", [
        ({"type": "normal", "mean": 0.0, "std": -5.0},
         r"attack\.controllers\[0\]\.injection\.std: must be non-negative"),
        ({"type": "uniform", "low": 50.0, "high": -50.0},
         r"attack\.controllers\[0\]\.injection\.low: must not exceed "
         r"attack\.controllers\[0\]\.injection\.high"),
    ])
    def test_impossible_injection_parameters(self, injection, message):
        data = minimal_dict(attack={"controllers": [{"node": 0, "injection": injection}]})
        with pytest.raises(ConfigError, match=message):
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

    @pytest.mark.parametrize("controllers", [5, None, "ab", {"node": 3}],
                             ids=["int", "null", "string", "object"])
    def test_attack_controllers_must_be_a_list(self, controllers):
        with pytest.raises(ConfigError, match=r"^attack\.controllers: must be a list$"):
            scenario_from_dict(minimal_dict(attack={"controllers": controllers}))

    def test_attack_link_out_of_range(self):
        data = minimal_dict(attack={"links": [[0, 9]]})
        with pytest.raises(ConfigError, match=r"^attack\.links: node 9 is outside 0\.\.3$"):
            scenario_from_dict(data)

    def test_attack_links_are_checked_pair_by_pair_against_n(self):
        # one check_edges pass at n names the first offending pair: the range
        # error at [0, 9], not the self-loop after it
        data = minimal_dict(attack={"links": [[0, 9], [1, 1]]})
        with pytest.raises(ConfigError, match=r"^attack\.links: node 9 is outside 0\.\.3$"):
            scenario_from_dict(data)
        links = scenario_from_dict(minimal_dict(attack={"links": [[3, 1], [0, 2]]})).attack.links
        assert type(links) is frozenset and links == {(1, 3), (0, 2)}

    @pytest.mark.parametrize("path", ["attack.links", "graph.fixed_edges"])
    @pytest.mark.parametrize("pair", [[0, 4.9], "05", [True, 5], [0, "5"], [0, 1, 2], [3]],
                             ids=["float", "string", "bool", "digit-string", "triple", "single"])
    def test_node_pairs_must_be_two_integers(self, path, pair):
        # each of these once loaded as a pair of different nodes, or failed
        # without naming the offending entry
        section, key = path.split(".")
        data = minimal_dict(n=6, **{section: {key: [[0, 1], pair]}})
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\[1\]: expected"):
            scenario_from_dict(data)

    def test_random_weights_refuse_a_matrix(self):
        # the matrix was once dropped without a word and the weights drawn anyway
        data = minimal_dict(n=6, graph={"fixed_edges": [list(e) for e in REF_EDGES]},
                            weights={"type": "random", "matrix": REF_W})
        with pytest.raises(ConfigError, match=r"^weights\.matrix: only weights\.type 'fixed'"):
            scenario_from_dict(data)
        # the null matrix that scenario_to_dict writes for random weights still loads
        data["weights"]["matrix"] = None
        assert scenario_from_dict(data).weights is None

    def test_fixed_weights_require_fixed_edges(self):
        data = minimal_dict(n=6, weights={"type": "fixed", "matrix": REF_W})
        with pytest.raises(ConfigError, match="fixed_edges"):
            scenario_from_dict(data)

    def test_fixed_weights_must_fit_the_fixed_graph(self):
        # REF_W couples nodes 0 and 2; without that edge the file fails at load
        edges = [list(e) for e in REF_EDGES if e != (0, 2)] + [[0, 4]]
        data = minimal_dict(n=6, graph={"fixed_edges": edges},
                            weights={"type": "fixed", "matrix": REF_W})
        with pytest.raises(ConfigError, match=re.escape(
                "weights.matrix does not fit the fixed graph: entry (0, 2) is nonzero "
                "but the nodes are not neighbors")):
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
        with pytest.raises(ConfigError, match=r"consensus\.k: must be at least 1"):
            scenario_from_dict(minimal_dict(consensus={"k": 0}))
        with pytest.raises(ConfigError, match=r"consensus\.baseline_steps: must be at least 1"):
            scenario_from_dict(minimal_dict(consensus={"baseline_steps": 0}))

    def test_consensus_defaults_come_from_the_consensus_module(self):
        cons = scenario_from_dict(minimal_dict()).consensus
        assert cons == ConsensusConfig()
        # tolerances, retries and the horizon cap are not scenario settings
        assert [f.name for f in dataclasses.fields(ConsensusConfig)] == ["k", "baseline_steps"]
        assert (cons.k, cons.baseline_steps) == (1, consensus.BASELINE_STEPS)
        assert scenario_from_dict(minimal_dict(consensus={"k": None})).consensus == cons
        assert consensus.horizon_cap(6) == 8

    @pytest.mark.parametrize("path, overrides", [
        ("graph.regenerate_per_period", {"graph": {"regenerate_per_period": "false"}}),
        ("attack.known_to_agent", {"attack": {"known_to_agent": "no"}}),
        ("attack.known_to_agent", {"attack": {"known_to_agent": 0}}),
    ])
    def test_flags_must_be_booleans(self, path, overrides):
        with pytest.raises(ConfigError, match=rf"^{path}: expected true or false"):
            scenario_from_dict(minimal_dict(**overrides))

    @pytest.mark.parametrize("label", [None, 5, ["MG1"]])
    def test_label_must_be_a_string(self, label):
        data = minimal_dict()
        data["microgrids"][1]["label"] = label
        with pytest.raises(ConfigError, match=r"^microgrids\[1\]\.label: expected a string"):
            scenario_from_dict(data)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError, match=r"^scenario\.seed: must be non-negative"):
            scenario_from_dict(minimal_dict(seed=-5))
        assert scenario_from_dict(minimal_dict(seed=0)).seed == 0

    def test_negative_microgrid_id_names_its_path(self):
        data = minimal_dict()
        data["microgrids"][0]["id"] = -1
        with pytest.raises(ConfigError, match=r"^microgrids\[0\]\.id: must be non-negative$"):
            scenario_from_dict(data)
        # checked where the profile is built, after the item's other fields
        data["microgrids"][0]["supply"] = -1.0
        with pytest.raises(ConfigError, match=r"^microgrids\[0\]\.supply: must be non-negative$"):
            scenario_from_dict(data)

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
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again == sc and hash(again) == hash(sc)
        assert again.weights is not sc.weights and again.weights == sc.weights
        assert again.weights.graph is again.graph.fixed
        assert scenario_to_dict(again) == scenario_to_dict(sc)
        tweaked = [row[:] for row in REF_W]
        tweaked[0][0] = 6
        assert scenario_from_dict({**data, "weights": {"type": "fixed", "matrix": tweaked}}) != sc
        assert hash(load_golden_scenario()) == hash(load_golden_scenario())

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
        attack = AttackSpec((InjectionPlan(2, "explicit", (("values", (1.0, 2.0)),)),))
        inj = sample_injections(attack, 4, np.random.default_rng(0))
        assert inj.faulty_nodes == (2,)
        assert inj.values[:, 0].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_explicit_longer_than_horizon_rejected(self):
        attack = AttackSpec((InjectionPlan(2, "explicit", (("values", (1.0, 2.0, 3.0)),)),))
        with pytest.raises(ConfigError, match="exceeds"):
            sample_injections(attack, 2, np.random.default_rng(0))

    def test_constant_kind(self):
        attack = AttackSpec((InjectionPlan(1, "constant", (("value", 4.5),)),))
        inj = sample_injections(attack, 3, np.random.default_rng(0))
        assert inj.values[:, 0].tolist() == [4.5, 4.5, 4.5]

    def test_random_kinds_are_seed_deterministic(self):
        attack = AttackSpec((
            InjectionPlan(0, "uniform", (("low", -1.0), ("high", 1.0))),
            InjectionPlan(3, "normal", (("mean", 0.0), ("std", 2.0))),
        ))
        a = sample_injections(attack, 5, np.random.default_rng(42))
        b = sample_injections(attack, 5, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_plan_order_in_config_does_not_matter(self):
        plans = (
            InjectionPlan(0, "uniform", (("low", -1.0), ("high", 1.0))),
            InjectionPlan(3, "normal", (("mean", 0.0), ("std", 2.0))),
        )
        a = sample_injections(AttackSpec(plans), 5, np.random.default_rng(9))
        b = sample_injections(AttackSpec(plans[::-1]), 5, np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)
        # node order: node 0's plan takes the stream's first draws, node 3's the next
        rng = np.random.default_rng(9)
        first, second = rng.uniform(-1.0, 1.0, 5), rng.normal(0.0, 2.0, 5)
        assert b.values.T.tolist() == [first.tolist(), second.tolist()]

    # each type's series at node 3 over 4 steps from default_rng(7); a change to any
    # type's draws moves every artifact of a scenario that uses it
    SERIES = {
        "explicit": ({"values": [30.0, -45.0, 60.0]}, [30.0, -45.0, 60.0, 0.0]),
        "constant": ({"value": 25.0}, [25.0, 25.0, 25.0, 25.0]),
        "uniform": ({"low": -50.0, "high": 50.0},
                    [12.509546660466697, 39.721380096957546, 27.56856902451935,
                     -27.479281000940816]),
        "normal": ({"mean": 0.0, "std": 40.0},
                   [0.04920613429930297, 11.949821500338796, -10.965514214488703,
                    -35.62367355029097]),
    }

    @staticmethod
    def scenario_with(kind, fields):
        return scenario_from_dict(minimal_dict(attack={"controllers": [
            {"node": 3, "injection": {"type": kind, **fields}}]}))

    @pytest.mark.parametrize("kind", sorted(SERIES))
    def test_each_type_series_is_pinned(self, kind):
        fields, expected = self.SERIES[kind]
        rng = np.random.default_rng(7)
        inj = sample_injections(self.scenario_with(kind, fields).attack, 4, rng)
        assert inj.faulty_nodes == (3,)
        assert inj.values[:, 0].tolist() == expected
        # explicit and constant draw nothing from the stream
        moved = rng.random() != np.random.default_rng(7).random()
        assert moved == (kind in ("uniform", "normal"))

    @pytest.mark.parametrize("kind", sorted(SERIES))
    def test_each_type_survives_a_round_trip(self, kind):
        fields, _ = self.SERIES[kind]
        sc = self.scenario_with(kind, fields)
        data = scenario_to_dict(sc)
        assert data["attack"]["controllers"] == [
            {"node": 3, "injection": {"type": kind, **fields}}]
        again = scenario_from_dict(json.loads(json.dumps(data)))
        assert again == sc and scenario_to_dict(again) == data

    def test_unknown_kind_in_a_built_plan_rejected(self):
        # the parser refuses unknown types; a plan built in code meets the same table
        attack = AttackSpec((InjectionPlan(2, "ramp", (("slope", 1.0),)),))
        with pytest.raises(ConfigError, match=r"^attack\.controllers\[node=2\]: unknown "
                                              r"injection kind 'ramp'$"):
            sample_injections(attack, 3, np.random.default_rng(0))

    def test_longest_explicit(self):
        attack = AttackSpec((
            InjectionPlan(0, "explicit", (("values", (1.0, 2.0, 3.0)),)),
            InjectionPlan(1, "constant", (("value", 1.0),)),
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
        assert sorted(sc.graph.fixed.edges) == sorted(REF_EDGES)
        assert np.array_equal(sc.weights.entries, np.array(REF_W, dtype=float))
        assert sc.weights.graph is sc.graph.fixed
