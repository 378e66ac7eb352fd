"""Independent oracles the tests check the implementation against.

Everything here is built from first principles on plain ints, sets and
dense numpy arrays. No imports from the package under test: the whole
point is that these share no code path with what they certify.
"""

from itertools import combinations

import numpy as np


def brute_force_connectivity(n: int, edges) -> int:
    """Vertex connectivity by exhaustive removal; fine for n <= 7.

    Complete graphs report n - 1; disconnected graphs report 0;
    otherwise the smallest vertex set whose removal disconnects what
    remains.
    """
    edge_set = {(min(i, j), max(i, j)) for i, j in edges}

    def connected(nodes):
        nodes = set(nodes)
        if not nodes:
            return True
        adj = {v: set() for v in nodes}
        for i, j in edge_set:
            if i in nodes and j in nodes:
                adj[i].add(j)
                adj[j].add(i)
        start = next(iter(nodes))
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen == nodes

    if len(edge_set) == n * (n - 1) // 2:
        return n - 1
    if not connected(range(n)):
        return 0
    for size in range(1, n - 1):
        for cut in combinations(range(n), size):
            rest = set(range(n)) - set(cut)
            if len(rest) >= 2 and not connected(rest):
                return size
    return n - 1


def matrix_iteration_oracle(w: np.ndarray, initial, injections: dict, k: int) -> np.ndarray:
    """Hand-rolled S(k+1) = W S(k) + injections, full matrix products.

    injections maps node -> list of per-step values (shorter lists are
    zero-padded). Returns the (k+1, n) trajectory.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    traj = np.zeros((k + 1, n))
    traj[0] = np.asarray(initial, dtype=float)
    for step in range(k):
        nxt = w @ traj[step]
        for node, series in injections.items():
            if step < len(series):
                nxt[node] = nxt[node] + series[step]
        traj[step + 1] = nxt
    return traj


def stacked_operators(w: np.ndarray, observer: int, k: int, fault_nodes) -> tuple[np.ndarray, np.ndarray]:
    """Observation operators assembled directly from matrix powers.

    Row block L holds the step-L snapshot of the observer's closed
    neighborhood; the injection block's (L, t) entry is C W^(L-1-t)
    restricted to the fault columns, zero for t >= L. This is the
    closed form, not the recursion the implementation uses.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    nbrs = {j for j in range(n) if j != observer and (w[observer, j] != 0 or w[j, observer] != 0)}
    sel = sorted({observer} | nbrs)
    c = np.eye(n)[sel, :]
    q = len(sel)
    powers = [np.linalg.matrix_power(w, p) for p in range(k + 1)]
    o = np.vstack([c @ powers[L] for L in range(k + 1)])
    faults = sorted(fault_nodes)
    m = np.zeros((q * (k + 1), k * len(faults)))
    for L in range(k + 1):
        for t in range(L):
            block = (c @ powers[L - 1 - t])[:, faults]
            m[q * L:q * (L + 1), len(faults) * t:len(faults) * (t + 1)] = block
    return o, m


def stacked_decode_oracle(w: np.ndarray, observer: int, trajectory: np.ndarray,
                          fault_nodes) -> tuple[np.ndarray, float]:
    """Brute-force least squares for the initial state seen by one node.

    Slices the observer's window out of the full trajectory, stacks it,
    and solves [O M] [s0; u] = y directly. Returns (s0, residual norm).
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    k = trajectory.shape[0] - 1
    nbrs = {j for j in range(n) if j != observer and (w[observer, j] != 0 or w[j, observer] != 0)}
    sel = sorted({observer} | nbrs)
    y = np.asarray(trajectory, dtype=float)[:, sel].reshape(-1)
    o, m = stacked_operators(w, observer, k, fault_nodes)
    a = np.hstack([o, m]) if m.shape[1] else o
    sol = np.linalg.lstsq(a, y, rcond=None)[0]
    return sol[:n], float(np.linalg.norm(a @ sol - y))


def observability_index_oracle(w: np.ndarray, observer: int, k_max: int) -> int | None:
    """Smallest K at which the observer's window pins the whole state."""
    n = np.asarray(w).shape[0]
    for k in range(1, k_max + 1):
        o, _ = stacked_operators(w, observer, k, ())
        if np.linalg.matrix_rank(o) == n:
            return k
    return None


def split_horizon_oracle(w: np.ndarray, subset_size: int, k_max: int, rtol: float) -> int | None:
    """Smallest K <= k_max at which every observer splits every node set of subset_size.

    One (observer, node set) pair at a time: rank([O M]) must equal
    n + rank(M), ranks counted from the SVD as singular values above
    rtol times the largest, operators from stacked_operators.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]

    def rank(a):
        if a.size == 0:
            return 0
        s = np.linalg.svd(a, compute_uv=False)
        return int(np.sum(s > rtol * s[0]))

    for k in range(1, k_max + 1):
        feasible = True
        for observer in range(n):
            for ys in combinations(range(n), subset_size):
                o, m = stacked_operators(w, observer, k, ys)
                if rank(np.hstack([o, m])) != n + rank(m):
                    feasible = False
        if feasible:
            return k
    return None
