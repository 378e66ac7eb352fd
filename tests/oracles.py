"""Independent oracles the tests check the implementation against.

Everything here is built from first principles on plain ints, sets and
dense numpy arrays. No imports from the package under test: the whole
point is that these share no code path with what they certify. The two
exceptions are handed package code as arguments and certify only what is
built around it: unscreened_unknown_decode gets the single-hypothesis
solve and checks the sweep, and plain_split_scan gets the operators and
the batch split test and checks the rank-split scan's order and verdicts.
"""

import json
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


def brute_force_certificate(n: int, edges) -> tuple[int, frozenset[int] | None]:
    """Connectivity and witness cut by exhaustive search over node subsets.

    Walks the max-flow certificate's pairs in its order, every one of them,
    where the certificate skips the pivot pairs proven unable to improve the
    cut: a minimum-degree pivot (the lowest such id) against each
    non-neighbour in id order, then each non-adjacent pair of its neighbours
    in sorted order.
    Each pair's cut is its smallest separator S, and among those the one
    leaving s the fewest nodes reachable in G - S. Starting from the
    pivot's neighbourhood, a pair's cut replaces the best only when it is
    strictly smaller. Complete graphs report (n - 1, None). Fine for n <= 15.
    """
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1, None

    def reach(s, removed):
        seen = {s}
        stack = [s]
        while stack:
            for w in adj[stack.pop()] - removed - seen:
                seen.add(w)
                stack.append(w)
        return seen

    def pair_cut(s, t):
        others = [v for v in range(n) if v not in (s, t)]
        for size in range(len(others) + 1):
            sides = [(len(side), cut) for cut in map(frozenset, combinations(others, size))
                     for side in [reach(s, cut)] if t not in side]
            if sides:
                return min(sides, key=lambda entry: entry[0])[1]
        raise AssertionError("an adjacent pair has no separator")

    pivot = min(range(n), key=lambda v: len(adj[v]))
    nbrs = sorted(adj[pivot])
    pairs = [(pivot, w) for w in range(n) if w != pivot and w not in adj[pivot]]
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if y not in adj[x]]
    best = frozenset(nbrs)
    for s, t in pairs:
        cut = pair_cut(s, t)
        if len(cut) < len(best):
            best = cut
    return len(best), best


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


def aimed_injection(w: np.ndarray, observer: int, k: int, fault_nodes,
                    rtol: float) -> tuple[float, np.ndarray]:
    """The injection on fault_nodes that best hides a state direction from one
    observer at horizon k, and how well it hides it.

    With U_O an orthonormal basis of col(O) and Q_M one of col(M), cut at
    singular values above rtol times the largest, the smallest singular value
    of (I - Q_M Q_M^T) U_O is the sine of the smallest principal angle between
    the two spaces (Bjorck & Golub 1973). Its right singular vector is O dx in
    U_O's coordinates, for a state direction dx, and u solves M u ~ O dx by
    least squares. Returns (sine, u), u step-major over the sorted fault_nodes
    as M's columns are. O must have full column rank.
    """
    o, m = stacked_operators(w, observer, k, fault_nodes)
    u_o, s_o, vt_o = np.linalg.svd(o, full_matrices=False)
    u_m, s_m, _ = np.linalg.svd(m, full_matrices=False)
    q_m = u_m[:, s_m > rtol * s_m[0]]
    _, sines, vt = np.linalg.svd(u_o - q_m @ (q_m.T @ u_o))
    dx = vt_o.T @ (vt[-1] / s_o)
    return float(sines[-1]), np.linalg.lstsq(m, o @ dx, rcond=None)[0]


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


def unscreened_unknown_decode(decode_known, inconsistent, n: int, f: int,
                              agreement_rtol: float) -> str:
    """The unknown-fault sweep with no screen: every node set of size <= f,
    in combinations order, goes through decode_known, which returns a
    result with initial_values and to_json_dict() or raises inconsistent.

    Returns the JSON text of the first consistent result with every
    consistent set listed; "no consistent fault set" when none is; and
    "disagreement" when a consistent result's initial state differs from
    the first one's by more than agreement_rtol relative to the larger
    infinity norm of the two.
    """
    kept = []
    for size in range(f + 1):
        for cand in combinations(range(n), size):
            try:
                kept.append((cand, decode_known(cand)))
            except inconsistent:
                continue
    if not kept:
        return "no consistent fault set"
    first = kept[0][1].initial_values
    for _, res in kept[1:]:
        scale = max(np.abs(first).max(), np.abs(res.initial_values).max())
        if scale > 0 and np.abs(first - res.initial_values).max() / scale > agreement_rtol:
            return "disagreement"
    answer = kept[0][1].to_json_dict()
    answer["consistent_fault_sets"] = [list(c) for c, _ in kept]
    return json.dumps(answer)


def observability_index_oracle(w: np.ndarray, observer: int, k_max: int) -> int | None:
    """Smallest K at which the observer's window pins the whole state."""
    n = np.asarray(w).shape[0]
    for k in range(1, k_max + 1):
        o, _ = stacked_operators(w, observer, k, ())
        if np.linalg.matrix_rank(o) == n:
            return k
    return None


def split_horizon_oracle(w: np.ndarray, subset_size: int, k_max: int, rtol: float,
                         floor: int = 1) -> int | None:
    """Smallest K in floor..k_max at which every observer splits every node set of subset_size.

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

    for k in range(floor, k_max + 1):
        feasible = True
        for observer in range(n):
            for ys in combinations(range(n), subset_size):
                o, m = stacked_operators(w, observer, k, ys)
                if rank(np.hstack([o, m])) != n + rank(m):
                    feasible = False
        if feasible:
            return k
    return None


def split_by_definition(a: np.ndarray, n: int, rtol: float) -> np.ndarray:
    """rank([O M]) == n + rank(M) for each a = [O M] of a stack, shape
    (..., rows, cols), O its first n columns: two SVDs, one of a and one of
    M, each rank counting the singular values above rtol times the largest
    (an M with no columns has rank 0). A plain matrix gets a 0-d array."""
    def rank(x):
        s = np.linalg.svd(x, compute_uv=False)
        return np.sum(s > rtol * s[..., :1], axis=-1)

    return rank(a) == n + rank(a[..., n:])


def plain_split_scan(w, subset_size: int, operator, split_holds) -> tuple[int | None, list]:
    """The rank-split scan with no bound: the first K in 1..n+2 at which every
    observer splits every node set of subset_size, or None, and the
    (K, observer, verdict) of every check it made, in order.

    w needs only n and selector(i). Observers go by how many nodes they see,
    fewest first, and a horizon stops at its first failing observer. An
    observer with fewer than n stacked rows fails; otherwise its verdict is
    split_holds(batch, n) on the [O M^Y] of every set Y at once, gathered
    from operator(i), its [O | injection] at the cap, with Y's injection
    columns step-major.
    """
    n = w.n
    subsets = list(combinations(range(n), subset_size))
    observers = sorted(range(n), key=lambda i: len(w.selector(i)))
    verdicts = []
    for k in range(1, n + 3):
        cols = np.array([[*range(n), *(n + s * n + y for s in range(k) for y in ys)]
                         for ys in subsets], dtype=int).reshape(len(subsets), -1)
        for i in observers:
            rows = len(w.selector(i)) * (k + 1)
            ok = rows >= n and bool(split_holds(np.moveaxis(operator(i)[:rows, cols], 1, 0), n))
            verdicts.append((k, i, ok))
            if not ok:
                break
        else:
            return k, verdicts
    return None, verdicts


def eigvalsh_split_bound(o: np.ndarray, injection: np.ndarray, fault_cols: np.ndarray,
                         rtol: float) -> np.ndarray:
    """The certified split bound decided from the whole spectrum: which fault
    sets (rows of fault_cols, columns of injection) have

        a b / (b + a (1 + zeta)) - rows (n + z) eps ||A||_F > rtol ||A||_F,

    a = sigma_n(O), zeta = ||O^+ M||_F + rows eps ||M||_F / a, and b^2 the
    smallest eigenvalue from eigvalsh of the set's Gram block of P^T M, P the
    complement of col(O), less (rows + z) eps trace; z counts the set's columns
    that are not exactly zero, and a zero column's diagonal entry is the trace.
    Sets of size 0, and every set when O is singular, are left open.
    """
    eps = np.finfo(float).eps
    rows, n = o.shape
    u, s, vt = np.linalg.svd(o)
    a = s[-1]
    if not (a > 0 and fault_cols.size):
        return np.zeros(len(fault_cols), dtype=bool)
    projected = u[:, n:].T @ injection
    coeffs = (vt.T / s) @ (u[:, :n].T @ injection)
    nonzero = np.any(injection != 0, axis=0)[fault_cols]
    gram = (projected.T @ projected)[fault_cols[:, :, None], fault_cols[:, None, :]]
    trace = np.trace(gram, axis1=1, axis2=2)
    diag = np.arange(fault_cols.shape[1])
    gram[:, diag, diag] = np.where(nonzero, gram[:, diag, diag], trace[:, None])
    z = np.count_nonzero(nonzero, axis=-1)
    b = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, 0] - (rows + z) * eps * trace, 0.0))
    m_fro = np.sqrt(np.einsum("ij,ij->j", injection, injection)[fault_cols].sum(-1))
    a_fro = np.sqrt(np.vdot(o, o) + m_fro ** 2)
    zeta = np.sqrt(np.einsum("ij,ij->j", coeffs, coeffs)[fault_cols].sum(-1)) + rows * eps * m_fro / a
    bound = a * b / (b + a * (1 + zeta))
    return bound - rows * (n + z) * eps * a_fro > rtol * a_fro


# the largest prime below 2**25: a product of two residues is below 2**50, so
# int64 holds it, and sums of up to 2**13 such products, without overflow
GF_PRIME = 33554393


def random_field_weights(n: int, edges, rng: np.random.Generator, p: int = GF_PRIME) -> np.ndarray:
    """Independent nonzero residues mod p on the diagonal and on both
    directions of every edge; zero everywhere else."""
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        w[i, i] = rng.integers(1, p)
    for i, j in edges:
        w[i, j] = rng.integers(1, p)
        w[j, i] = rng.integers(1, p)
    return w


def rank_mod_p(a: np.ndarray, p: int = GF_PRIME) -> int:
    """Exact rank over GF(p) by Gaussian elimination on int64 residues."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivots = np.nonzero(a[rank:, c])[0]
        if pivots.size == 0:
            continue
        r = rank + int(pivots[0])
        a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        a[rank + 1:] = (a[rank + 1:] - a[rank + 1:, c, None] * a[rank]) % p
        rank += 1
    return rank


def gf_split_horizon_oracle(w: np.ndarray, subset_size: int, k_max: int,
                            p: int = GF_PRIME) -> int | None:
    """split_horizon_oracle in exact arithmetic: the smallest K <= k_max at
    which rank([O M]) = n + rank(M) over GF(p) for every observer and every
    node set of subset_size, with no tolerance anywhere.

    w holds residues mod p; an observer sees itself and every node it
    shares a nonzero entry with. Operators come from explicit matrix
    powers mod p, laid out as in stacked_operators.
    """
    w = np.asarray(w, dtype=np.int64) % p
    n = w.shape[0]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(k_max):
        powers.append(powers[-1] @ w % p)
    for k in range(1, k_max + 1):
        feasible = True
        for observer in range(n):
            sel = [j for j in range(n) if j == observer or w[observer, j] or w[j, observer]]
            q = len(sel)
            o = np.vstack([powers[L][sel] for L in range(k + 1)])
            for ys in combinations(range(n), subset_size):
                m = np.zeros((q * (k + 1), k * subset_size), dtype=np.int64)
                for L in range(k + 1):
                    for t in range(L):
                        block = powers[L - 1 - t][sel][:, list(ys)]
                        m[q * L:q * (L + 1), subset_size * t:subset_size * (t + 1)] = block
                if rank_mod_p(np.hstack([o, m]), p) != n + rank_mod_p(m, p):
                    feasible = False
                    break
            if not feasible:
                break
        if feasible:
            return k
    return None
