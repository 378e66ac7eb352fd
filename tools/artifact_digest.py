"""Print one sha256 per artifact mgnet writes for a fixed set of runs.

Run it in two checkouts and diff the outputs: identical lines mean
byte-identical artifacts (`tools/digest_diff.sh REV` does both runs and
the diff against a git revision). It imports mgnet from the `src/` and the
workload recipes from the `bench/` next to this file, and writes only
into temporary directories.

    python3 tools/artifact_digest.py [SET ...] > digests.txt

Sets (all of them when none is named):

  golden  `mgnet run --scenario golden`, three modes, `--periods` 1 and 4
  fixed   the same with `--fixed-graph` set to K6, three modes, 3 periods;
          and once, resilient-unknown, on the 6-node path graph, which the
          golden weight matrix does not fit (a configuration error, exit 1)
  pinned  golden's microgrids on a preventive graph drawn once and kept
          (`regenerate_per_period: false`), random weights, three modes,
          4 periods
  bench   `run_period` on the benchmark workloads: resilient_f1 seeds 1-3
          periods 0-7, resilient_f2 seeds 1-3 periods 0-3, baseline_large
          seeds 1-3 periods 0-2 (n=120 round-engine runs with injections)
  graph   `mgnet graph` preventive n=40 f=2 and responsive n=60 f=2 with
          attacked links; and five requests the generators refuse, which pin
          the order of their checks: n=4 f=2 (too few nodes, exit 2),
          responsive n=6 f=1 with every node on an attacked link (seed pool,
          exit 2), n=0 f=0 (exit 1), responsive n=6 f=1 with a link out of
          range (exit 1), and responsive n=3 f=2 with a link out of range
          ((n, f) before range, exit 2)
  verify  `mgnet verify` on golden's weight matrix (`scenario.weights`) as
          CSV, f 0 and 1, with no `--k-max` and with `--k-max` 1, 3 and 8
  split   the rank-split scan on the first three weight draws of period 0's
          synthesis, seeds 1-2 of the resilient_f<f> recipe at (n, f) =
          (10,1), (14,1), (18,1), (8,2), (10,2), (12,2): thin-margin shapes
          the bench set does not reach, n=18 seed 2's first draw among
          them, where the scan finds no horizon
  overflow  golden with controller 0's injection a constant 1e308, three
          modes, 2 periods: every period overflows float64 and fails (exit 2)
  attack  golden with node 3's injection set to each type in turn (explicit as
          golden has it, constant 25, uniform -50..50, normal mean 0 std 40),
          saved with `save_scenario` and run resilient-unknown for 2 periods;
          the saved file is digested as `attack/<type>/scenario.json`
  cert    `vertex_connectivity` on the baseline_large seed-1 graphs of
          periods 0-4; the 12-node graph whose only minimum cut holds the
          pivot; the 8-node graph whose only shortest path from node 0 to
          node 7 the second unit of flow must reroute; four planted-separator
          graphs (two cliques joined through a k-clique, each of whose nodes
          links one port of each side, so the ports on either side are
          minimum cuts as well), the last with sides of 20 and 30; two
          preventive n=30 f=2 graphs joined through 3 nodes, so kappa drops
          below the minimum degree after the pivot's first pairs; and two
          disconnected shapes: a preventive n=120 f=2 graph plus an isolated
          node, and two disjoint preventive n=60 f=2 graphs
  engine  `mgnet run` baseline, 2 periods, on a supplied 48-node wheel (hub 0
          joined to the rim cycle 1-47) with 48 microgrids, f=2, and golden's
          explicit injection at the hub and at rim node 3: one neighbourhood
          of 48 nodes beside 47 of 4
  setup   the period set-up's checks, each CLI run with its stderr, each
          `mgnet run` resilient-unknown for 2 periods: a supplied K3 at f=1
          with drawn weights (complete, so it passes), one microgrid at f=0,
          a supplied preventive n=7 f=1 draw (incomplete, kappa >= 3); golden
          without `consensus.k` (a null k is 1, and the floor is still 3 from
          the explicit series, so it runs as golden does), at f=2 (the
          per-candidate split fails at every k from 3 to the cap 8, exit 2)
          and with k=9 (past the horizon cap, exit 1);
          `mgnet graph --n 1 --f 0` (K_1's certificate); the resilient_f1
          recipe at seed 1 with k=11, whose first draw of period 0 splits at
          K=10 and at no K from 11, so synthesis draws again; and golden with
          drawn weights on the 6-node path graph and k=99 (past the cap, exit 1,
          before the graph's certificate and any draw)

Each line is `<sha256>  <set>/<run>/<file>`; a CLI run also prints its
exit code and a period that raises prints its error instead of digests.
A refused graph request writes no files: its digest is of its error, `<run>/stderr`.
A verify run writes no files: its digest is of what it prints, `<run>/stdout`.
A split line gives the horizons themselves, `k2f=<K or None> kf=<K or None>`,
for fault sets of size 2f and f. A cert line gives the certificate itself,
`kappa=<k> cut=<sorted witness cut or None>`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from mgnet import simulator  # noqa: E402
from mgnet.cli import main as mgnet_main  # noqa: E402
from mgnet.consensus import draw_weights, verify_candidate_uniqueness, verify_rank_condition  # noqa: E402
from mgnet.errors import MgnetError  # noqa: E402
from mgnet.graph import Graph, generate_preventive, vertex_connectivity  # noqa: E402
from mgnet.scenario import (  # noqa: E402
    load_golden_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from mgnet.simulator import run_period, write_run_artifacts  # noqa: E402

import workloads  # noqa: E402

MODES = ("resilient-known", "resilient-unknown", "baseline")
BENCH_RUNS = (("resilient_f1", (1, 2, 3), 8), ("resilient_f2", (1, 2, 3), 4),
              ("baseline_large", (1, 2, 3), 3))
ATTACKED_LINKS = "0-1,2-3,5-9,10-20,30-31,40-59"
REFUSED_GRAPHS = (
    ("n4-f2", ["--n", "4", "--f", "2"]),
    ("responsive-n6-f1-seed-pool", ["--n", "6", "--f", "1", "--strategy", "responsive",
                                    "--attacked-links", "0-1,2-3,4-5"]),
    ("n0-f0", ["--n", "0", "--f", "0"]),
    ("responsive-n6-f1-range", ["--n", "6", "--f", "1", "--strategy", "responsive",
                                "--attacked-links", "0-9"]),
    ("responsive-n3-f2-range", ["--n", "3", "--f", "2", "--strategy", "responsive",
                                "--attacked-links", "0-9"]),
)
SPLIT_SHAPES = ((10, 1), (14, 1), (18, 1), (8, 2), (10, 2), (12, 2))
PIVOT_CUT_EDGES = [*combinations(range(2, 7), 2), *combinations(range(7, 12), 2),
                   (0, 2), (0, 3), (0, 7), (0, 8), *((1, v) for v in (4, 5, 6, 9, 10, 11))]
PLANTED_SHAPES = ((2, 5, 6), (3, 6, 5), (4, 7, 7), (4, 20, 30))
INJECTIONS = ({"type": "explicit", "values": [30.0, -45.0, 60.0]},
              {"type": "constant", "value": 25.0},
              {"type": "uniform", "low": -50.0, "high": 50.0},
              {"type": "normal", "mean": 0.0, "std": 40.0})
WHEEL_RIM = 47
REROUTE_EDGES = [(0, 1), (0, 3), (1, 2), (2, 7), (1, 4), (4, 5), (5, 7), (3, 6), (6, 2)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path, prefix: str) -> list[str]:
    return [f"{sha256(p.read_bytes())}  {prefix}/{p.relative_to(root)}"
            for p in sorted(root.rglob("*")) if p.is_file()]


def quiet_main(argv: list[str]) -> tuple[int, str, str]:
    """mgnet's exit code, standard output and standard error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = mgnet_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def cli_run(name: str, argv: list[str], work: Path) -> list[str]:
    out = work / name
    code, _, _ = quiet_main([*argv, "--out", str(out)])
    return [f"exit={code}  {name}"] + (digests(out, name) if out.exists() else [])


def golden_set(work: Path) -> list[str]:
    return [line for mode in MODES for periods in (1, 4)
            for line in cli_run(f"golden/{mode}/p{periods}",
                                ["run", "--scenario", "golden", "--mode", mode,
                                 "--periods", str(periods)], work)]


def fixed_set(work: Path) -> list[str]:
    k6, path6 = work / "k6.edges", work / "path6.edges"
    k6.write_text(Graph.complete(6).to_edge_list_text())
    path6.write_text(Graph.from_edges(6, [(i, i + 1) for i in range(5)]).to_edge_list_text())
    runs = [(f"fixed/{mode}", mode, k6) for mode in MODES]
    runs.append(("fixed/path6", "resilient-unknown", path6))
    return [line for name, mode, edges in runs
            for line in cli_run(name, ["run", "--scenario", "golden", "--mode", mode,
                                       "--periods", "3", "--fixed-graph", str(edges)], work)]


def pinned_set(work: Path) -> list[str]:
    data = scenario_to_dict(load_golden_scenario())
    data["graph"] = {"strategy": "preventive", "regenerate_per_period": False}
    data["weights"] = {"type": "random"}
    data["consensus"]["k"] = None
    path = work / "pinned.json"
    path.write_text(json.dumps(data))
    return [line for mode in MODES
            for line in cli_run(f"pinned/{mode}",
                                ["run", "--scenario", str(path), "--mode", mode, "--periods", "4"],
                                work)]


def overflow_set(work: Path) -> list[str]:
    data = scenario_to_dict(load_golden_scenario())
    data["attack"]["controllers"][0]["injection"] = {"type": "constant", "value": 1e308}
    path = work / "overflow.json"
    path.write_text(json.dumps(data))
    return [line for mode in MODES
            for line in cli_run(f"overflow/{mode}",
                                ["run", "--scenario", str(path), "--mode", mode, "--periods", "2"],
                                work)]


def attack_set(work: Path) -> list[str]:
    lines = []
    for injection in INJECTIONS:
        name = f"attack/{injection['type']}"
        data = scenario_to_dict(load_golden_scenario())
        data["attack"]["controllers"] = [{"node": 3, "injection": injection}]
        path = work / f"attack-{injection['type']}.json"
        save_scenario(scenario_from_dict(data), path)
        lines.append(f"{sha256(path.read_bytes())}  {name}/scenario.json")
        lines += cli_run(name, ["run", "--scenario", str(path), "--mode", "resilient-unknown",
                                "--periods", "2"], work)
    return lines


def bench_set(work: Path) -> list[str]:
    specs = workloads.load_specs()
    lines = []
    for workload, seeds, periods in BENCH_RUNS:
        inputs = specs[workload]["inputs"]
        for seed in seeds:
            scenario, agent = workloads.build(inputs, seed)
            for p in range(periods):
                name = f"bench/{workload}/s{seed}/p{p}"
                try:
                    record = run_period(scenario, agent, inputs["mode"], p)
                except MgnetError as exc:
                    lines.append(f"error={type(exc).__name__}: {exc}  {name}")
                    continue
                write_run_artifacts(record, work / name)
                lines.extend(digests(work / name, name))
    return lines


def graph_set(work: Path) -> list[str]:
    lines = (cli_run("graph/preventive-n40-f2",
                     ["graph", "--n", "40", "--f", "2", "--strategy", "preventive", "--seed", "1"],
                     work)
             + cli_run("graph/responsive-n60-f2",
                       ["graph", "--n", "60", "--f", "2", "--strategy", "responsive",
                        "--attacked-links", ATTACKED_LINKS, "--seed", "1"], work))
    for run, argv in REFUSED_GRAPHS:
        name = f"graph/{run}"
        code, _, stderr = quiet_main(["graph", *argv, "--seed", "1", "--out", str(work / name)])
        lines += [f"exit={code}  {name}", f"{sha256(stderr.encode())}  {name}/stderr"]
    return lines


def verify_set(work: Path) -> list[str]:
    weights = work / "golden.csv"
    weights.write_text(load_golden_scenario().weights.to_csv_text())
    lines = []
    for f in (0, 1):
        for bound in (None, 1, 3, 8):
            name = f"verify/f{f}/" + ("cap" if bound is None else f"k{bound}")
            extra = [] if bound is None else ["--k-max", str(bound)]
            code, stdout, _ = quiet_main(["verify", "--weights", str(weights), "--f", str(f), *extra])
            lines += [f"exit={code}  {name}", f"{sha256(stdout.encode())}  {name}/stdout"]
    return lines


def split_set(work: Path) -> list[str]:
    specs = workloads.load_specs()
    lines = []
    for n, f in SPLIT_SHAPES:
        inputs = {**specs[f"resilient_f{f}"]["inputs"], "n": n}
        for seed in (1, 2):
            scenario, agent = workloads.build(inputs, seed)
            g = simulator._topology(scenario, agent, 0)
            rng = simulator._rng(scenario.seed, 0, simulator._WEIGHT_STREAM)
            for draw in range(3):
                w = draw_weights(g, rng)
                lines.append(f"k2f={verify_rank_condition(w, f)} "
                             f"kf={verify_candidate_uniqueness(w, f)}  "
                             f"split/n{n}-f{f}/s{seed}/draw{draw}")
    return lines


def planted_separator(k: int, p: int, q: int) -> Graph:
    """Cliques on p and q nodes joined through a k-clique whose node i links
    port i of each, relabelled by a permutation drawn from seed k."""
    sep, a, b = range(k), range(k, k + p), range(k + p, k + p + q)
    edges = [*combinations(sep, 2), *combinations(a, 2), *combinations(b, 2),
             *((i, a[i]) for i in sep), *((i, b[i]) for i in sep)]
    perm = np.random.default_rng(k).permutation(k + p + q)
    return Graph.from_edges(k + p + q, ((perm[i], perm[j]) for i, j in edges))


def separated_halves(k: int) -> Graph:
    """Two preventive n=30 f=2 graphs (minimum degree 5) drawn from seed k, on
    nodes 0-29 and 30-59, joined through nodes 60 to 59+k, of which node 60+i
    links nodes 5i..5i+4 of either half."""
    rng = np.random.default_rng(k)
    a, b = generate_preventive(30, 2, rng), generate_preventive(30, 2, rng)
    edges = [*a.edges, *((i + 30, j + 30) for i, j in b.edges),
             *((60 + i, side + 5 * i + v) for i in range(k) for side in (0, 30) for v in range(5))]
    return Graph.from_edges(60 + k, edges)


def cert_set(work: Path) -> list[str]:
    inputs = workloads.load_specs()["baseline_large"]["inputs"]
    scenario, agent = workloads.build(inputs, 1)
    graphs = [(f"baseline_large/s1/p{p}", simulator._topology(scenario, agent, p))
              for p in range(5)]
    graphs.append(("pivot-cut-n12", Graph.from_edges(12, PIVOT_CUT_EDGES)))
    graphs.append(("reroute-n8", Graph.from_edges(8, REROUTE_EDGES)))
    graphs += [(f"planted-k{k}-p{p}-q{q}", planted_separator(k, p, q))
               for k, p, q in PLANTED_SHAPES]
    graphs.append(("halves-n30-f2-sep3", separated_halves(3)))
    big = generate_preventive(120, 2, np.random.default_rng(1))
    half = generate_preventive(60, 2, np.random.default_rng(1))
    graphs.append(("n120-plus-isolated", Graph(121, big.edges)))
    graphs.append(("two-n60", Graph(120, half.edges | {(i + 60, j + 60) for i, j in half.edges})))
    lines = []
    for name, g in graphs:
        cert = vertex_connectivity(g)
        cut = None if cert.witness_cut is None else sorted(cert.witness_cut)
        lines.append(f"kappa={cert.kappa} cut={cut}  cert/{name}")
    return lines


def engine_set(work: Path) -> list[str]:
    rim = range(1, WHEEL_RIM + 1)
    wheel = work / "wheel.edges"
    wheel.write_text(Graph.from_edges(WHEEL_RIM + 1, [*((0, v) for v in rim),
                                                      *((v, v % WHEEL_RIM + 1) for v in rim)])
                     .to_edge_list_text())
    data = scenario_to_dict(load_golden_scenario())
    injection = data["attack"]["controllers"][0]["injection"]
    data["microgrids"] = [{"id": i, "supply": 5.0 + (37 * i) % 451 / 10,
                           "critical_demand": 5.0 + (53 * i) % 449 / 10}
                          for i in range(WHEEL_RIM + 1)]
    data["f"] = 2
    data["attack"]["controllers"] = [{"node": v, "injection": injection} for v in (0, 3)]
    data["weights"] = {"type": "random"}
    data["consensus"]["k"] = None
    path = work / "wheel.json"
    path.write_text(json.dumps(data))
    return cli_run("engine/wheel48", ["run", "--scenario", str(path), "--mode", "baseline",
                                      "--periods", "2", "--fixed-graph", str(wheel)], work)


def setup_set(work: Path) -> list[str]:
    golden = scenario_to_dict(load_golden_scenario())
    drawn = {**golden, "graph": {"strategy": "preventive"}, "weights": {"type": "random"},
             "consensus": {**golden["consensus"], "k": None}}
    seventh = {"id": 6, "supply": 40.0, "critical_demand": 30.0}
    scenarios = {
        "k3-f1-drawn": {**drawn, "microgrids": golden["microgrids"][:3],
                        "attack": {**golden["attack"], "controllers": [
                            {**golden["attack"]["controllers"][0], "node": 2}]}},
        "one-microgrid-f0": {"microgrids": golden["microgrids"][:1], "f": 0, "seed": 1},
        "preventive-n7-f1-supplied": {**drawn, "microgrids": [*golden["microgrids"], seventh]},
        "golden-no-k": {**golden, "consensus": {**golden["consensus"], "k": None}},
        "golden-f2": {**golden, "f": 2},
        "golden-k9": {**golden, "consensus": {**golden["consensus"], "k": 9}},
    }
    resilient = workloads.scenario_dict(workloads.load_specs()["resilient_f1"]["inputs"], 1)
    later = {
        "resilient_f1-s1-k11": {**resilient, "consensus": {**resilient["consensus"], "k": 11}},
        "golden-path6-k99": {**drawn, "consensus": {**golden["consensus"], "k": 99}},
    }
    graphs = {"k3-f1-drawn": Graph.complete(3),
              "preventive-n7-f1-supplied": generate_preventive(7, 1, np.random.default_rng(7)),
              "golden-path6-k99": Graph.from_edges(6, [(i, i + 1) for i in range(5)])}

    def scenario_run(run: str, data: dict) -> tuple[str, list[str]]:
        path = work / f"setup-{run}.json"
        path.write_text(json.dumps(data))
        argv = ["run", "--scenario", str(path), "--mode", "resilient-unknown", "--periods", "2"]
        if run in graphs:
            edges = work / f"setup-{run}.edges"
            edges.write_text(graphs[run].to_edge_list_text())
            argv += ["--fixed-graph", str(edges)]
        return f"setup/{run}", argv

    runs = [scenario_run(run, data) for run, data in scenarios.items()]
    runs.append(("setup/graph-n1-f0", ["graph", "--n", "1", "--f", "0", "--seed", "1"]))
    runs += [scenario_run(run, data) for run, data in later.items()]
    lines = []
    for name, argv in runs:
        code, _, stderr = quiet_main([*argv, "--out", str(work / name)])
        lines.append(f"exit={code}  {name}")
        lines += digests(work / name, name) if (work / name).exists() else []
        lines.append(f"{sha256(stderr.encode())}  {name}/stderr")
    return lines


SETS = {"golden": golden_set, "fixed": fixed_set, "pinned": pinned_set,
        "bench": bench_set, "graph": graph_set, "verify": verify_set, "split": split_set,
        "overflow": overflow_set, "attack": attack_set, "cert": cert_set, "engine": engine_set,
        "setup": setup_set}


def run(names) -> int:
    unknown = [n for n in names if n not in SETS]
    if unknown:
        print(f"unknown set(s): {', '.join(unknown)}; choose from {', '.join(SETS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or SETS:
            for line in SETS[name](Path(tmp)):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
