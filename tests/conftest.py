"""Shared fixtures (the six-microgrid reference system) and test helpers."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from mgnet import Graph, WeightMatrix, consensus

# Integer weight matrix of the bundled six-grid scenario. Its pattern
# implies the 10-edge, connectivity-3 reference graph below.
REF_W = [
    [5, 4, 1, 1, 0, 0],
    [1, -3, -2, 1, 4, 0],
    [-3, -3, -4, 0, 0, -3],
    [-1, -2, 0, 5, -1, -3],
    [0, 4, 0, 5, -1, -4],
    [0, 0, -3, -1, 1, -3],
]

REF_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

REF_SUPPLIES = [24.17, 64.31, 89.19, 134.43, 49.65, 79.69]
REF_DEMANDS = [22.30, 44.72, 111.80, 89.44, 89.44, 22.36]


@pytest.fixture(scope="session")
def ref_graph() -> Graph:
    return Graph.from_edges(6, REF_EDGES)


@pytest.fixture(scope="session")
def ref_weights(ref_graph) -> WeightMatrix:
    return WeightMatrix(np.array(REF_W, dtype=float), ref_graph)


@pytest.fixture
def operator_builds(monkeypatch) -> list:
    """The observer of every operator build: each call of consensus._operator,
    from the scan or build_observability_stack, that finds no memo entry."""
    built = []
    operator = consensus._operator

    def counted(w, observer):
        if observer not in w._operators:
            built.append(observer)
        return operator(w, observer)

    monkeypatch.setattr(consensus, "_operator", counted)
    return built


def ref_csv_text() -> str:
    """The reference matrix as the dense CSV that `mgnet verify` reads."""
    return "\n".join(",".join(repr(float(v)) for v in row) for row in REF_W) + "\n"


def relabeled(g: Graph, perm) -> Graph:
    """g with node i renamed perm[i]."""
    return Graph.from_edges(g.node_count, ((int(perm[i]), int(perm[j])) for i, j in g.edges))


def survivors_graph(g: Graph, cut) -> Graph:
    """What is left of g once the nodes in cut are removed, relabelled 0..m-1 in order."""
    keep = sorted(set(range(g.node_count)) - cut)
    index = {v: pos for pos, v in enumerate(keep)}
    return Graph.from_edges(len(keep), ((index[i], index[j]) for i, j in g.edges
                                        if i in index and j in index))


def bench_workloads():
    """The benchmark's recipe module, bench/workloads.py, loaded from this checkout."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def checkout_env() -> dict:
    """The current environment with this checkout's src/ first on PYTHONPATH.

    Subprocesses started from another working directory then import this
    checkout's mgnet, not an installed one or none at all.
    """
    env = dict(os.environ)
    paths = [str(SRC_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
