"""End-to-end command line checks via main(argv)."""

import json
import shutil
import subprocess
import sys

import pytest

from mgnet.cli import SEED_ENV_VAR, main
from mgnet.graph import Graph
from mgnet.scenario import load_golden_scenario, save_scenario, scenario_to_dict
from mgnet.scenario import scenario_from_dict

from conftest import REF_W


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def ref_csv_text():
    return "\n".join(",".join(repr(float(v)) for v in row) for row in REF_W) + "\n"


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

    def test_fixed_graph_override(self, tmp_path):
        ref = load_golden_scenario().fixed_graph()
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

    def test_bad_link_syntax_exits_one(self, tmp_path, capsys):
        code = main(["graph", "--n", "6", "--f", "1", "--strategy", "responsive",
                     "--attacked-links", "0:1", "--out", str(tmp_path)])
        assert code == 1
        assert "expected 'i-j' pairs" in capsys.readouterr().err

    def test_infeasible_size_exits_two(self, tmp_path, capsys):
        code = main(["graph", "--n", "2", "--f", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "need at least 3 nodes" in capsys.readouterr().err


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

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1")
        env_only = self.run_graph(tmp_path, "env", [])
        flagged = self.run_graph(tmp_path, "flag", ["--seed", "99"])
        direct = self.run_graph(tmp_path, "direct", ["--seed", "99"])
        monkeypatch.delenv(SEED_ENV_VAR)
        env_one = self.run_graph(tmp_path, "one", ["--seed", "1"])
        assert flagged == direct
        assert env_only == env_one
        assert flagged != env_only

    def test_environment_beats_scenario_seed(self, tmp_path, monkeypatch):
        # resilient totals are seed independent; the drawn topology is not
        data = scenario_to_dict(load_golden_scenario())
        data["graph"] = {"strategy": "preventive", "regenerate_per_period": True}
        data["weights"] = {"type": "random"}
        data["consensus"]["k"] = None
        data["attack"]["controllers"] = [
            {"node": 3, "injection": {"type": "constant", "value": 40.0}}]
        path = tmp_path / "s.json"
        save_scenario(scenario_from_dict(data), path)

        def edges(tag, env):
            if env is not None:
                monkeypatch.setenv(SEED_ENV_VAR, str(env))
            else:
                monkeypatch.delenv(SEED_ENV_VAR, raising=False)
            out = tmp_path / tag
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
            return (out / "graph.edges").read_text()

        scenario_default = edges("plain", None)
        overridden = edges("env", 4242)
        same_as_scenario = edges("pinned", 20260817)
        assert same_as_scenario == scenario_default
        assert overridden != scenario_default

    def test_garbage_environment_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "many")
        code = main(["graph", "--n", "6", "--f", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "not an integer seed" in capsys.readouterr().err


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
