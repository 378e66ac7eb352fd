"""tools/artifact_digest.py: the byte-identity check between two checkouts."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from mgnet import Graph, InjectionSchedule, MicrogridProfile, RoundEngine, metropolis_weights
from mgnet.cli import main

from conftest import checkout_env, ref_csv_text

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
LINE = re.compile(r"^(?:[0-9a-f]{64}|exit=\d+)  \S+$")


def digest(*args, cwd):
    proc = subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd, env=checkout_env(),
                          capture_output=True, text=True, timeout=300)
    return proc


def test_golden_set_hashes_what_the_cli_writes(tmp_path):
    proc = digest("golden", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # 3 modes x (one period + four periods) x 4 artifacts, plus an exit line per run
    assert len(lines) == 3 * 5 * 4 + 6
    assert sum(line.startswith("exit=0  ") for line in lines) == 6
    assert list(tmp_path.iterdir()) == []

    out = tmp_path / "o"
    assert main(["run", "--scenario", "golden", "--mode", "resilient-unknown",
                 "--out", str(out)]) == 0
    for name in ("decision_record.json", "trajectory.csv", "graph.edges", "graph.dot"):
        sha = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert f"{sha}  golden/resilient-unknown/p1/{name}" in lines
    assert digest("golden", cwd=tmp_path).stdout == proc.stdout


def test_verify_set_hashes_what_the_cli_prints(tmp_path, capsys):
    proc = digest("verify", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # f in (0, 1) x four bounds, an exit line and a stdout digest each
    assert len(lines) == 2 * 4 * 2
    assert list(tmp_path.iterdir()) == []

    weights = tmp_path / "w.csv"
    weights.write_text(ref_csv_text())
    for f, bound, code in ((0, None, 0), (1, None, 2), (1, 3, 2)):
        capsys.readouterr()
        extra = [] if bound is None else ["--k-max", str(bound)]
        assert main(["verify", "--weights", str(weights), "--f", str(f), *extra]) == code
        name = f"verify/f{f}/" + ("cap" if bound is None else f"k{bound}")
        sha = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert f"exit={code}  {name}" in lines
        assert f"{sha}  {name}/stdout" in lines


def test_unknown_set_is_refused(tmp_path):
    proc = digest("golden", "nonsense", cwd=tmp_path)
    assert proc.returncode == 2
    assert "nonsense" in proc.stderr and proc.stdout == ""


def test_overflow_set_digests_the_error_records(tmp_path):
    proc = digest("overflow", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # every period of every mode fails: an exit line and two error records per mode
    assert [line for line in lines if line.startswith("exit=")] == [
        f"exit=2  overflow/{mode}" for mode in ("resilient-known", "resilient-unknown", "baseline")]
    assert len(lines) == 3 * 3
    assert list(tmp_path.iterdir()) == []


def test_graph_set_pins_the_generators_refusals(tmp_path, capsys):
    proc = digest("graph", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # two graphs with three artifacts each, five refusals with their stderr, an exit line per run
    assert [line for line in lines if line.startswith("exit=")] == [
        "exit=0  graph/preventive-n40-f2", "exit=0  graph/responsive-n60-f2",
        "exit=2  graph/n4-f2", "exit=2  graph/responsive-n6-f1-seed-pool", "exit=1  graph/n0-f0",
        "exit=1  graph/responsive-n6-f1-range", "exit=2  graph/responsive-n3-f2-range"]
    assert len(lines) == 2 * 4 + 5 * 2
    assert list(tmp_path.iterdir()) == []

    # an attacked link's ends go through the node-id rule
    capsys.readouterr()
    assert main(["graph", "--n", "6", "--f", "1", "--strategy", "responsive",
                 "--attacked-links", "0-9", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: node 9 is outside 0..5\n"
    assert f"{hashlib.sha256(err.encode()).hexdigest()}  graph/responsive-n6-f1-range/stderr" in lines

    # (n, f) is checked before the attacked links' range
    assert main(["graph", "--n", "3", "--f", "2", "--strategy", "responsive",
                 "--attacked-links", "0-9", "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: need at least 5 nodes for fault bound 2, got 3\n"
    assert f"{hashlib.sha256(err.encode()).hexdigest()}  graph/responsive-n3-f2-range/stderr" in lines


def test_cert_set_prints_each_certificate(tmp_path):
    proc = digest("cert", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # five baseline_large periods, the pivot-cut graph, the reroute graph, four planted
    # graphs, the joined halves, two disconnected
    assert len(lines) == 5 + 1 + 1 + 4 + 1 + 2
    assert all(re.match(r"^kappa=\d+ cut=\[[\d, ]*\]  cert/\S+$", line) for line in lines), lines
    assert "kappa=2 cut=[0, 1]  cert/pivot-cut-n12" in lines
    assert "kappa=2 cut=[1, 3]  cert/reroute-n8" in lines
    assert "kappa=3 cut=[60, 61, 62]  cert/halves-n30-f2-sep3" in lines
    assert lines[-2:] == ["kappa=0 cut=[]  cert/n120-plus-isolated", "kappa=0 cut=[]  cert/two-n60"]
    assert list(tmp_path.iterdir()) == []


def test_attack_set_runs_every_injection_type(tmp_path):
    proc = digest("attack", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    kinds = ("explicit", "constant", "uniform", "normal")
    # every run completes both periods (exit 0) and each period writes four artifacts
    assert [line for line in lines if line.startswith("exit=")] == [
        f"exit=0  attack/{kind}" for kind in kinds]
    assert [line.split("  ")[1] for line in lines if line.endswith("scenario.json")] == [
        f"attack/{kind}/scenario.json" for kind in kinds]
    assert len(lines) == 4 * (1 + 1 + 2 * 4)
    assert list(tmp_path.iterdir()) == []


def test_bench_set_pins_three_baseline_large_seeds(tmp_path):
    proc = digest("bench", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    runs = {}
    for line in lines:
        workload, seed, period, name = line.split("  ")[1].split("/")[1:]
        runs.setdefault((workload, seed), []).append((period, name))
    # resilient_f1 8 periods, resilient_f2 4 and baseline_large 3, each at seeds 1-3
    # and every period writing four artifacts
    periods = {"resilient_f1": 8, "resilient_f2": 4, "baseline_large": 3}
    assert sorted(runs) == sorted((w, f"s{s}") for w in periods for s in (1, 2, 3))
    for (workload, _), files in runs.items():
        assert files == [(f"p{p}", name) for p in range(periods[workload])
                         for name in ("decision_record.json", "graph.dot", "graph.edges",
                                      "trajectory.csv")]
    # each n=120 engine run is its own trajectory
    trajectories = [line.split()[0] for line in lines
                    if "baseline_large" in line and line.endswith("trajectory.csv")]
    assert len(trajectories) == len(set(trajectories)) == 9
    assert list(tmp_path.iterdir()) == []


def test_engine_set_runs_baseline_on_the_wheel(tmp_path):
    proc = digest("engine", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # one run completing both periods, each writing four artifacts
    assert [line for line in lines if line.startswith("exit=")] == ["exit=0  engine/wheel48"]
    assert [line.split("  ")[1] for line in lines[1:]] == [
        f"engine/wheel48/period_00{p}/{name}" for p in (0, 1)
        for name in ("decision_record.json", "graph.dot", "graph.edges", "trajectory.csv")]
    assert list(tmp_path.iterdir()) == []

    # the run's graph is the wheel, whose engine steps one class of 47 rows of
    # 4 entries and one of a single row of 48
    rim = range(1, 48)
    wheel = Graph.from_edges(48, [*((0, v) for v in rim), *((v, v % 47 + 1) for v in rim)])
    sha = hashlib.sha256(wheel.to_edge_list_text().encode()).hexdigest()
    assert f"{sha}  engine/wheel48/period_000/graph.edges" in lines
    profiles = tuple(MicrogridProfile(i, 1.0, 1.0) for i in range(48))
    engine = RoundEngine(metropolis_weights(wheel), profiles, InjectionSchedule.empty(1))
    assert [c.selectors.shape for c in engine.classes] == [(47, 4), (1, 48)]


def test_setup_set_pins_the_period_set_up_checks(tmp_path):
    proc = digest("setup", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    assert [line for line in lines if line.startswith("exit=")] == [
        "exit=0  setup/k3-f1-drawn", "exit=0  setup/one-microgrid-f0",
        "exit=0  setup/preventive-n7-f1-supplied", "exit=0  setup/golden-no-k",
        "exit=2  setup/golden-f2", "exit=1  setup/golden-k9", "exit=0  setup/graph-n1-f0",
        "exit=0  setup/resilient_f1-s1-k11", "exit=1  setup/golden-path6-k99"]
    # five two-period runs of four artifacts a period, one run of two error records,
    # K_1's three graph artifacts, and an exit line and a stderr digest per run
    assert len(lines) == 5 * 2 * 4 + 1 * 2 + 3 + 9 * 2
    empty = hashlib.sha256(b"").hexdigest()
    assert sum(line == f"{empty}  setup/{run}/stderr" for line in lines
               for run in ("k3-f1-drawn", "one-microgrid-f0", "preventive-n7-f1-supplied",
                           "golden-no-k", "golden-f2", "graph-n1-f0",
                           "resilient_f1-s1-k11")) == 7
    # the path graph would fail its certificate, but the horizon cap is checked first
    cap = ("error: required horizon 99 exceeds the horizon cap n + 2 = 8; lower "
           "consensus.k or shorten the explicit injection series\n")
    assert f"{hashlib.sha256(cap.encode()).hexdigest()}  setup/golden-path6-k99/stderr" in lines
    assert list(tmp_path.iterdir()) == []

    # K_1 is complete: its certificate is kappa 0 with no cut
    certificate = '{\n  "kappa": 0,\n  "witness_cut": null\n}\n'
    sha = hashlib.sha256(certificate.encode()).hexdigest()
    assert f"{sha}  setup/graph-n1-f0/certificate.json" in lines
