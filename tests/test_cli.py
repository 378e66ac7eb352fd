"""End-to-end command line checks via main(argv)."""

import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mgnet import consensus
from mgnet import graph as graph_module
from mgnet.cli import main
from mgnet.graph import Graph
from mgnet.scenario import load_golden_scenario, save_scenario, scenario_to_dict
from mgnet.scenario import scenario_from_dict

from conftest import checkout_env, ref_csv_text

# keys that once tuned the numerical policy, each with the value in force on golden
REMOVED_CONSENSUS_KEYS = {"k_max": 8, "residual_tol": 1e-8, "agreement_tol": 1e-6,
                          "condition_limit": 1e12, "synthesis_attempts": 40}


class TestRun:
    @pytest.mark.parametrize("mode", ["resilient-known", "resilient-unknown", "baseline"])
    def test_golden_modes_succeed(self, mode, tmp_path, capsys):
        out = tmp_path / mode
        code = main(["run", "--scenario", "golden", "--mode", mode, "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "period 0: verdicts=" in text
        assert f"artifacts written under {out}" in text
        expected = {"resilient-known": "known_faults",
                    "resilient-unknown": "unknown_faults",
                    "baseline": "baseline"}[mode]
        record = json.loads((out / "decision_record.json").read_text())
        assert record["diagnostics"]["mode"] == expected
        assert (out / "trajectory.csv").exists()
        assert (out / "graph.edges").exists()

    def test_golden_unknown_recovers_reference_totals(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--scenario", "golden", "--out", str(out)]) == 0
        record = json.loads((out / "decision_record.json").read_text())
        assert record["unanimous"] is True
        assert abs(record["recovered_supply_total"] - 441.44) < 1e-6
        assert abs(record["recovered_demand_total"] - 380.06) < 1e-6
        assert "supply_total=441.4400" in capsys.readouterr().out

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--scenario", "golden", "--out", str(out)]) == 0
        for name in ("decision_record.json", "trajectory.csv", "graph.edges", "graph.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("mode", ["resilient-known", "resilient-unknown"])
    def test_consensus_k_is_only_the_floor(self, mode, tmp_path):
        # golden's explicit series sets the floor to 3, so a null k (which is
        # 1) and every k up to 3 run its fixed matrix at the same horizon
        data = scenario_to_dict(load_golden_scenario())

        def artifacts(k):
            data["consensus"]["k"] = k
            path = tmp_path / f"k{k}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / f"out-k{k}"
            assert main(["run", "--scenario", str(path), "--mode", mode,
                         "--periods", "2", "--out", str(out)]) == 0
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        pinned = artifacts(3)
        assert len(pinned) == 8
        for k in (None, 1, 2):
            assert artifacts(k) == pinned

    def test_multi_period_layout(self, tmp_path):
        data = scenario_to_dict(load_golden_scenario())
        path = tmp_path / "s.json"
        save_scenario(scenario_from_dict(data), path)
        out = tmp_path / "camp"
        code = main(["run", "--scenario", str(path), "--periods", "3", "--out", str(out)])
        assert code == 0
        for p in range(3):
            assert (out / f"period_{p:03d}" / "decision_record.json").exists()

    def test_infeasible_period_exits_two(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["f"] = 2
        path = tmp_path / "hard.json"
        save_scenario(scenario_from_dict(data), path)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "FAILED (SynthesisError" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["resilient-known", "resilient-unknown"])
    def test_overflowing_attack_fails_the_decode(self, tmp_path, capsys, mode):
        # an injection of 1e308 overflows the rounds to inf and NaN; no fault
        # hypothesis may be called consistent with such samples
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"][0]["injection"] = {"type": "constant", "value": 1e308}
        path = tmp_path / "overflow.json"
        save_scenario(scenario_from_dict(data), path)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["run", "--scenario", str(path), "--mode", mode, "--out", str(out)]) == 2
        assert "period 0: FAILED (Decode" in capsys.readouterr().out
        record = json.loads((out / "decision_record.json").read_text())
        assert record["diagnostics"]["error"].startswith("Decode")

    @pytest.mark.parametrize("mode", ["resilient-known", "resilient-unknown"])
    def test_overflowing_attack_names_the_non_finite_observations(self, tmp_path, capsys, mode):
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"][0]["injection"] = {"type": "constant", "value": 1e308}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["run", "--scenario", str(path), "--mode", mode, "--out", str(out)]) == 2
        error = "DecodeError: controller 0's supply observations are not finite (float64 overflow)"
        assert f"period 0: FAILED ({error})" in capsys.readouterr().out
        record = json.loads((out / "decision_record.json").read_text())
        assert record["diagnostics"]["error"] == error

    @pytest.mark.parametrize("mode", ["resilient-known", "resilient-unknown"])
    def test_overflowing_attack_prints_no_numpy_warning(self, tmp_path, capsys, mode):
        # the period's error names the overflow; numpy stays silent about it
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"][0]["injection"] = {"type": "constant", "value": 1e308}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--scenario", str(path), "--mode", mode,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        error = "DecodeError: controller 0's supply observations are not finite (float64 overflow)"
        assert f"period 0: FAILED ({error})" in capsys.readouterr().out

    def test_overflowing_baseline_fails_the_period(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"][0]["injection"] = {"type": "constant", "value": 1e308}
        path = tmp_path / "overflow.json"
        save_scenario(scenario_from_dict(data), path)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["run", "--scenario", str(path), "--mode", "baseline",
                         "--out", str(out)]) == 2
        assert "period 0: FAILED (DecodeError: plain averaging overflowed" in capsys.readouterr().out
        record = json.loads((out / "decision_record.json").read_text())
        assert record["diagnostics"]["error"].startswith("DecodeError: plain averaging overflowed")

    def test_series_longer_than_the_baseline_steps_exits_one(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"][0]["injection"] = {"type": "explicit", "values": [1.0] * 31}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--mode", "baseline",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert ("error: injection series at node 3 of length 31 exceeds the 30-step horizon"
                in capsys.readouterr().err)

    def test_attack_controllers_not_a_list_exits_one(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"] = 5
        path = tmp_path / "controllers.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "error: attack.controllers: must be a list" in capsys.readouterr().err

    def test_missing_scenario_exits_one(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_scenario_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"microgrids": [,]}\n')
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_weights_kind_scenario_exits_one(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["weights"]["kind"] = data["weights"].pop("type")
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "weights.kind: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_matrix_with_random_weights_exits_one(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["weights"]["type"] = "random"
        path = tmp_path / "random.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "weights.matrix: only weights.type 'fixed'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_injection_std_exits_one(self, tmp_path, capsys):
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"][0]["injection"] = {"type": "normal", "mean": 0.0, "std": -5.0}
        path = tmp_path / "std.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: attack.controllers[0].injection.std: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", sorted(REMOVED_CONSENSUS_KEYS))
    def test_removed_consensus_key_exits_one(self, tmp_path, capsys, key):
        # the numerical policy is fixed in mgnet.consensus; a scenario that
        # sets one of its values, even to the value in force, is rejected
        data = scenario_to_dict(load_golden_scenario())
        data["consensus"][key] = REMOVED_CONSENSUS_KEYS[key]
        path = tmp_path / "knob.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"consensus.{key}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fixed_graph_override(self, tmp_path):
        ref = load_golden_scenario().graph.fixed
        gfile = tmp_path / "ref.edges"
        gfile.write_text(ref.to_edge_list_text())
        out = tmp_path / "o"
        code = main(["run", "--scenario", "golden", "--fixed-graph", str(gfile),
                     "--out", str(out)])
        assert code == 0
        assert Graph.from_edge_list_text((out / "graph.edges").read_text()) == ref

    def test_fixed_supergraph_is_allowed(self, tmp_path):
        # zero weight on an available link just means the link is unused
        gfile = tmp_path / "complete.edges"
        gfile.write_text(Graph.complete(6).to_edge_list_text())
        code = main(["run", "--scenario", "golden", "--fixed-graph", str(gfile),
                     "--out", str(tmp_path / "o")])
        assert code == 0

    def test_fixed_graph_pattern_mismatch_exits_one(self, tmp_path, capsys):
        # the golden matrix couples 0 and 2, which the path graph lacks
        gfile = tmp_path / "path.edges"
        path = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        gfile.write_text(path.to_edge_list_text())
        code = main(["run", "--scenario", "golden", "--fixed-graph", str(gfile),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "does not fit" in capsys.readouterr().err


    def test_fixed_graph_below_two_f_plus_one_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "ten.json"
        scenario.write_text(json.dumps({
            "microgrids": [{"id": i, "supply": 10.0 + i, "critical_demand": 5.0}
                           for i in range(10)],
            "f": 1,
            "seed": 1,
        }))
        gfile = tmp_path / "cycle.edges"
        gfile.write_text(Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
                         .to_edge_list_text())
        code = main(["run", "--scenario", str(scenario), "--fixed-graph", str(gfile),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("FAILED (InfeasibleTopologyError: graph has vertex connectivity "
                "2 < 2f+1 = 3; witness cut [1, 9])") in capsys.readouterr().out

    def test_horizon_past_the_cap_exits_one_before_any_certificate(self, tmp_path, capsys,
                                                                  monkeypatch):
        # drawn weights on the 6-node path graph (connectivity 1 < 3) with
        # consensus.k = 99: the horizon cap is a configuration error, reported
        # before synthesis certifies the graph or draws a weight
        calls = []
        monkeypatch.setattr(graph_module, "vertex_connectivity",
                            lambda g: calls.append("certificate"))
        monkeypatch.setattr(consensus, "draw_weights", lambda g, rng: calls.append("draw"))
        data = scenario_to_dict(load_golden_scenario())
        data["weights"] = {"type": "random"}
        data["consensus"]["k"] = 99
        scenario = tmp_path / "k99.json"
        scenario.write_text(json.dumps(data))
        gfile = tmp_path / "path.edges"
        gfile.write_text(Graph.from_edges(6, [(i, i + 1) for i in range(5)]).to_edge_list_text())
        code = main(["run", "--scenario", str(scenario), "--fixed-graph", str(gfile),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: required horizon 99 exceeds the horizon cap n + 2 = 8; lower "
            "consensus.k or shorten the explicit injection series\n")
        assert calls == []

    def test_fixed_graph_of_another_size_exits_one(self, tmp_path, capsys):
        gfile = tmp_path / "k4.edges"
        gfile.write_text(Graph.complete(4).to_edge_list_text())
        code = main(["run", "--scenario", "golden", "--fixed-graph", str(gfile),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "fixed graph has 4 nodes, scenario has 6" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestGraphCommand:
    def test_writes_certified_bundle(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(["graph", "--n", "8", "--f", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["kappa"] >= 5
        g = Graph.from_edge_list_text((out / "graph.edges").read_text())
        assert g.node_count == 8
        assert "certified kappa=" in capsys.readouterr().out

    def test_responsive_respects_attacked_links(self, tmp_path):
        out = tmp_path / "g"
        code = main(["graph", "--n", "9", "--f", "1", "--strategy", "responsive",
                     "--attacked-links", "0-1, 2-3", "--seed", "3", "--out", str(out)])
        assert code == 0
        g = Graph.from_edge_list_text((out / "graph.edges").read_text())
        assert (0, 1) not in g.edges and (2, 3) not in g.edges

    def test_preventive_with_attacked_links_exits_one(self, tmp_path, capsys):
        # the preventive generator never reads attacked links, so asking for
        # them is refused rather than ignored
        out = tmp_path / "g"
        code = main(["graph", "--n", "8", "--f", "1", "--strategy", "preventive",
                     "--attacked-links", "0-1,2-99", "--seed", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--attacked-links" in err and "--strategy responsive" in err
        assert not out.exists()

    def test_bad_link_syntax_exits_one(self, tmp_path, capsys):
        code = main(["graph", "--n", "6", "--f", "1", "--strategy", "responsive",
                     "--attacked-links", "0:1", "--out", str(tmp_path)])
        assert code == 1
        assert "expected 'i-j' pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--n", "120", "--f", "2", "--strategy", "responsive"],
        ["--n", "12", "--f", "1", "--strategy", "preventive"],
        # the bare seed clique: its generator certifies it with no search, the CLI reads the memo
        ["--n", "5", "--f", "2", "--strategy", "preventive"],
    ])
    def test_one_run_certifies_once(self, tmp_path, monkeypatch, argv):
        calls = []
        real = graph_module.vertex_connectivity
        monkeypatch.setattr(graph_module, "vertex_connectivity",
                            lambda g: calls.append(g) or real(g))
        out = tmp_path / "g"
        assert main(["graph", *argv, "--seed", "1", "--out", str(out)]) == 0
        assert len(calls) == 1
        cert = real(calls[0])
        witness = None if cert.witness_cut is None else sorted(cert.witness_cut)
        assert json.loads((out / "certificate.json").read_text()) == {
            "kappa": cert.kappa, "witness_cut": witness}

    def test_infeasible_size_exits_two(self, tmp_path, capsys):
        code = main(["graph", "--n", "2", "--f", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "need at least 3 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("n, f", [("0", "0"), ("-3", "1")])
    def test_non_positive_node_count_exits_one(self, tmp_path, capsys, n, f):
        out = tmp_path / "g"
        assert main(["graph", "--n", n, "--f", f, "--out", str(out)]) == 1
        assert "n >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_reference_matrix_passes_without_faults(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text(ref_csv_text())
        code = main(["verify", "--weights", str(path), "--f", "0"])
        assert code == 0
        assert "smallest feasible horizon K=1" in capsys.readouterr().out

    def test_reference_matrix_fails_the_two_f_split(self, tmp_path, capsys):
        # one observer/hypothesis-pair stays rank deficient at every horizon,
        # so the universal check must reject this matrix for f=1
        path = tmp_path / "w.csv"
        path.write_text(ref_csv_text())
        code = main(["verify", "--weights", str(path), "--f", "1"])
        assert code == 2
        assert "FAILS for f=1 at every K <= 8" in capsys.readouterr().out

    def test_identity_matrix_never_mixes(self, tmp_path, capsys):
        path = tmp_path / "eye.csv"
        path.write_text("\n".join(",".join("1.0" if i == j else "0.0" for j in range(6))
                                  for i in range(6)) + "\n")
        code = main(["verify", "--weights", str(path), "--f", "0"])
        assert code == 2
        assert "FAILS" in capsys.readouterr().out

    def test_fault_bound_beyond_any_topology_fails(self, tmp_path, capsys):
        # f=3 would need connectivity 7 on six nodes
        path = tmp_path / "w.csv"
        path.write_text(ref_csv_text())
        code = main(["verify", "--weights", str(path), "--f", "3"])
        assert code == 2
        assert "FAILS for f=3" in capsys.readouterr().out

    def test_k_max_flag_is_respected(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text(ref_csv_text())
        code = main(["verify", "--weights", str(path), "--f", "1", "--k-max", "4"])
        assert code == 2
        assert "K <= 4" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k_max, code, line", [
        ("3", 2, "rank condition FAILS for f=1 at every K <= 3"),
        ("4", 0, "rank condition holds for f=1; smallest feasible horizon K=4"),
        ("99", 0, "rank condition holds for f=1; smallest feasible horizon K=4"),
    ], ids=["below", "at", "past-the-cap"])
    def test_k_max_bounds_a_passing_horizon(self, tmp_path, capsys, seed, k_max, code, line):
        # a synthesized n=8, f=1 draw first splits at K=4; 99 is clamped to the cap n + 2
        rng = np.random.default_rng(seed)
        w = consensus.synthesize_weights(graph_module.generate_preventive(8, 1, rng), 1, rng)
        assert consensus.verify_rank_condition(w, 1) == 4
        path = tmp_path / "w.csv"
        path.write_text(w.to_csv_text())
        assert main(["verify", "--weights", str(path), "--f", "1", "--k-max", k_max]) == code
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_k_max_below_one_names_the_flag(self, tmp_path, capsys, k_max):
        path = tmp_path / "w.csv"
        path.write_text(ref_csv_text())
        assert main(["verify", "--weights", str(path), "--f", "1", "--k-max", k_max]) == 1
        assert capsys.readouterr().err == f"error: --k-max {k_max}: must be at least 1\n"

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("1.0,2.0\n3.0\n")
        assert main(["verify", "--weights", str(path), "--f", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["verify", "--weights", str(tmp_path / "w.csv"), "--f", "1"]) == 1
        assert "cannot read weights file" in capsys.readouterr().err


class TestSeedPrecedence:
    def run_graph(self, tmp_path, tag, extra):
        out = tmp_path / tag
        assert main(["graph", "--n", "9", "--f", "2", "--out", str(out), *extra]) == 0
        return (out / "graph.edges").read_text()

    @staticmethod
    def drawn_scenario(tmp_path):
        # resilient totals are seed independent; the drawn topology is not
        data = scenario_to_dict(load_golden_scenario())
        data["graph"] = {"strategy": "preventive", "regenerate_per_period": True}
        data["weights"] = {"type": "random"}
        data["consensus"]["k"] = None
        data["attack"]["controllers"] = [
            {"node": 3, "injection": {"type": "constant", "value": 40.0}}]
        path = tmp_path / "s.json"
        save_scenario(scenario_from_dict(data), path)
        return path

    def test_flag_beats_default_seed(self, tmp_path):
        default = self.run_graph(tmp_path, "default", [])
        flagged = self.run_graph(tmp_path, "flag", ["--seed", "99"])
        direct = self.run_graph(tmp_path, "direct", ["--seed", "99"])
        zero = self.run_graph(tmp_path, "zero", ["--seed", "0"])
        assert flagged == direct
        assert default == zero
        assert flagged != default

    def test_flag_beats_scenario_seed(self, tmp_path):
        path = self.drawn_scenario(tmp_path)

        def edges(tag, extra):
            out = tmp_path / tag
            assert main(["run", "--scenario", str(path), "--out", str(out), *extra]) == 0
            return (out / "graph.edges").read_text()

        scenario_default = edges("plain", [])
        overridden = edges("flag", ["--seed", "4242"])
        same_as_scenario = edges("pinned", ["--seed", "20260817"])
        assert same_as_scenario == scenario_default
        assert overridden != scenario_default

    def test_seed_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        # --seed is the one override: an exported MGNET_SEED changes no output
        path = self.drawn_scenario(tmp_path)
        argvs = {"run": ["run", "--scenario", str(path)],
                 "graph": ["graph", "--n", "9", "--f", "2"]}

        def outputs(tag):
            files = {}
            for name, argv in argvs.items():
                out = tmp_path / tag / name
                assert main([*argv, "--out", str(out)]) == 0
                files[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return files

        plain = outputs("plain")
        monkeypatch.setenv("MGNET_SEED", "4242")
        assert outputs("env") == plain

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "golden", "--seed", "-3"],
        ["graph", "--n", "6", "--f", "1", "--seed", "-3"],
    ], ids=["run", "graph"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--seed -3" in err and "must be non-negative" in err
        assert not out.exists()


class TestParser:
    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--f", "1"])
        assert exc.value.code == 2

    def test_installed_entrypoint_runs(self, tmp_path):
        exe = shutil.which("mgnet")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "run", "--scenario", "golden", "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "supply_total=441.4400" in proc.stdout

    @pytest.mark.parametrize("argv, code, marker", [
        (["run", "--scenario", "golden", "--out", "o"], 0, "supply_total=441.4400"),
        (["run", "--scenario", "missing.json", "--out", "o"], 1, "missing.json"),
        (["verify", "--weights", "w.csv", "--f", "1"], 2, "FAILS for f=1"),
    ])
    def test_module_entrypoint_exit_codes(self, tmp_path, argv, code, marker):
        # the process-level path: entrypoint() turns main()'s result into the exit status
        (tmp_path / "w.csv").write_text(ref_csv_text())
        proc = subprocess.run(
            [sys.executable, "-m", "mgnet.cli", *argv], cwd=tmp_path, env=checkout_env(),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert marker in proc.stdout + proc.stderr
