"""Command line front end: run campaigns, generate topologies, check weights.

Exit codes: 0 success (unanimous decisions for resilient runs), 1 for
configuration problems (missing or malformed files, bad values), 2 when
the request is mathematically infeasible or decoding fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import PERIOD_FAILURES, ConfigError
from .graph import Edge, Graph, check_edges, generate_preventive, generate_responsive
from .consensus import WeightMatrix, horizon_cap, verify_rank_condition
from .scenario import golden_scenario_path, load_scenario
from .simulator import CommunicationAgent, run_campaign, write_run_artifacts

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

_MODE_MAP = {
    "resilient-known": "known_faults",
    "resilient-unknown": "unknown_faults",
    "baseline": "baseline",
}

def _resolve_seed(cli_seed: int | None, fallback: int) -> int:
    if cli_seed is None:
        return fallback
    if cli_seed < 0:
        raise ConfigError(f"--seed {cli_seed}: seed must be non-negative")
    return cli_seed


def _parse_attacked_links(raw: str | None) -> frozenset[Edge]:
    if not raw:
        return frozenset()
    pairs = []
    for chunk in raw.split(","):
        part = chunk.strip()
        if not part:
            continue
        bits = part.split("-")
        if len(bits) != 2 or not all(b.strip().isdigit() for b in bits):
            raise ConfigError(f"--attacked-links: expected 'i-j' pairs, got {part!r}")
        pairs.append((int(bits[0]), int(bits[1])))
    try:
        return check_edges(pairs)
    except ValueError as exc:
        raise ConfigError(f"--attacked-links: {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    scenario_path = golden_scenario_path() if args.scenario == "golden" else args.scenario
    scenario = load_scenario(scenario_path)
    seed = _resolve_seed(args.seed, scenario.seed)
    scenario = scenario.with_seed(seed)
    if args.fixed_graph is not None:
        try:
            fixed = Graph.from_edge_list_text(Path(args.fixed_graph).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read fixed graph {args.fixed_graph}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"fixed graph {args.fixed_graph}: {exc}") from None
        scenario = scenario.with_fixed_graph(fixed)

    agent = CommunicationAgent(scenario.graph.strategy, scenario.f, seed)
    records = run_campaign(scenario, args.periods, agent, _MODE_MAP[args.mode])

    out = Path(args.out)
    failed = False
    for record in records:
        target = out if len(records) == 1 else out / f"period_{record.period.index:03d}"
        write_run_artifacts(record, target)
        error = record.diagnostics.get("error")
        verdicts = sorted(set(record.per_controller_verdict.values()))
        if error is not None:
            failed = True
            print(f"period {record.period.index}: FAILED ({error})")
        else:
            print(f"period {record.period.index}: verdicts={verdicts} "
                  f"supply_total={record.recovered_supply_total:.4f} "
                  f"demand_total={record.recovered_demand_total:.4f}")
    print(f"artifacts written under {out}")
    if failed:
        return EXIT_INFEASIBLE
    if args.mode != "baseline" and any(not r.unanimous() for r in records):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed, 0)
    rng = np.random.default_rng(seed)
    if args.strategy == "preventive":
        if args.attacked_links:
            raise ConfigError("--attacked-links applies only to --strategy responsive")
        g = generate_preventive(args.n, args.f, rng)
    else:
        g = generate_responsive(args.n, args.f, _parse_attacked_links(args.attacked_links), rng)
    cert = g.certificate()
    kappa = cert.kappa
    witness = None if cert.witness_cut is None else sorted(cert.witness_cut)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.edges").write_text(g.to_edge_list_text())
    (out / "graph.dot").write_text(g.to_dot())
    (out / "certificate.json").write_text(
        json.dumps({"kappa": kappa, "witness_cut": witness}, indent=2) + "\n")
    print(f"{args.strategy} graph on {g.node_count} nodes, {len(g.edges)} edges, "
          f"certified kappa={kappa}")
    print(f"artifacts written under {out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        text = Path(args.weights).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read weights file {args.weights}: {exc}") from None
    try:
        w = WeightMatrix.from_csv_text(text)
    except ValueError as exc:
        raise ConfigError(f"weights file {args.weights}: {exc}") from None
    # the first passing K in 1..n+2 is at most k_max iff it is the first in 1..k_max
    cap = horizon_cap(w.n)
    k_max = cap if args.k_max is None else min(args.k_max, cap)
    if k_max < 1:
        raise ConfigError("k_max must be at least 1")
    k = verify_rank_condition(w, args.f)
    if k is None or k > k_max:
        print(f"rank condition FAILS for f={args.f} at every K <= {k_max}")
        return EXIT_INFEASIBLE
    print(f"rank condition holds for f={args.f}; smallest feasible horizon K={k}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgnet",
        description="Attack-resilient interconnection decisions for networked microgrids")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a decision campaign from a scenario file")
    run_p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON file, or the literal 'golden'")
    run_p.add_argument("--mode", choices=sorted(_MODE_MAP), default="resilient-unknown")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="master seed; falls back to the scenario's seed")
    run_p.add_argument("--periods", type=int, default=1)
    run_p.add_argument("--fixed-graph", default=None,
                       help="edge-list file replacing the scenario's graph.fixed_edges")
    run_p.set_defaults(func=cmd_run)

    graph_p = sub.add_parser("graph", help="generate and certify a communication topology")
    graph_p.add_argument("--n", type=int, required=True)
    graph_p.add_argument("--f", type=int, required=True)
    graph_p.add_argument("--strategy", choices=("preventive", "responsive"), default="preventive")
    graph_p.add_argument("--attacked-links", default=None, help="comma list of i-j pairs")
    graph_p.add_argument("--seed", type=int, default=None)
    graph_p.add_argument("--out", default="out")
    graph_p.set_defaults(func=cmd_graph)

    verify_p = sub.add_parser("verify", help="check a weight matrix against the rank condition")
    verify_p.add_argument("--weights", required=True, help="dense CSV weight matrix")
    verify_p.add_argument("--f", type=int, required=True)
    verify_p.add_argument("--k-max", type=int, default=None)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PERIOD_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
