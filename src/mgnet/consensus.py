"""Resilient linear-iterative consensus and fault-tolerant decoding.

Nodes repeatedly replace their value with a weighted mix of their own
and their neighbors' values, S(k+1) = W S(k) + B u(k), where u is an
additive corruption injected at compromised nodes and B selects those
columns. Each node i only ever sees y_i(k) = C_i S(k), its own value
plus its neighbors' values. Stacking K+1 such snapshots gives

    Y_i = O_{i,K} S(0) + M_{i,K} u(0..K-1)

and recovery of S(0) at every node, whatever <= f nodes the attacker
corrupts, reduces to a rank split between the two column blocks. The
weights are synthesized at random until the split holds; the decoders
then solve the stacked least-squares system, either for a declared
fault set or by sweeping all candidate sets up to the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DecodeFailureError,
    DecodeInconsistencyError,
    InternalInvariantError,
    SynthesisError,
)
from .graph import Graph

RANK_RTOL = 1e-9
RESIDUAL_TOL = 1e-8
AGREEMENT_RTOL = 1e-6
CONDITION_LIMIT = 1e12
WEIGHT_DEAD_ZONE = 1e-3


def numerical_rank(a: np.ndarray, rtol: float = RANK_RTOL) -> int | np.ndarray:
    """Rank by singular values, relative threshold against the largest.

    A stack of matrices, shape (..., rows, cols), gets one rank per
    matrix from a single batched SVD; a plain matrix gets an int.
    """
    if a.size == 0:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        ranks = np.sum(s > rtol * s[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def combine_neighborhood(row: np.ndarray, selector: np.ndarray, values: np.ndarray) -> float:
    """One node's update: weighted mix of its own and neighbor values.

    Shared by the compact iteration and the distributed round engine so
    the two produce bit-identical trajectories.
    """
    return float(np.dot(row[selector], values))


@dataclass(frozen=True)
class WeightMatrix:
    """Update weights constrained to the graph's sparsity pattern.

    entries[i, j] may be nonzero only for j in N(i) or j = i; nothing
    else about the values is assumed (no symmetry, no row sums).
    """

    entries: np.ndarray
    graph: Graph

    def __post_init__(self) -> None:
        w = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", w)
        n = self.graph.node_count
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} does not match {n} nodes")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight entries must be finite")
        for i in range(n):
            for j in range(n):
                if i != j and w[i, j] != 0.0 and not self.graph.has_edge(i, j):
                    raise ValueError(
                        f"entry ({i}, {j}) is nonzero but the nodes are not neighbors")

    @property
    def n(self) -> int:
        return self.graph.node_count

    def selector(self, i: int) -> tuple[int, ...]:
        """Nodes whose values node i sees: itself plus neighbors, sorted."""
        return tuple(sorted({i} | set(self.graph.neighbors(i))))

    @classmethod
    def from_dense(cls, matrix) -> "WeightMatrix":
        """Accept an externally supplied matrix; the graph is its pattern."""
        w = np.asarray(matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        n = w.shape[0]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if w[i, j] != 0.0 or w[j, i] != 0.0]
        return cls(w, Graph.from_edges(n, pairs))

    def to_csv_text(self) -> str:
        rows = (",".join(repr(float(v)) for v in row) for row in self.entries)
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "WeightMatrix":
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"weights csv line {lineno}: {exc}") from None
        if not rows:
            raise ValueError("weights csv is empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows) or len(rows) != width:
            raise ValueError("weights csv must be a square matrix")
        return cls.from_dense(np.array(rows, dtype=float))


@dataclass(frozen=True)
class InjectionSchedule:
    """Additive corruption at the compromised nodes over a fixed horizon.

    values[k, p] is what gets added to faulty_nodes[p]'s update at step
    k; honest nodes never appear. Steps past an explicit plan are zero.
    """

    faulty_nodes: tuple[int, ...]
    values: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if len(set(self.faulty_nodes)) != len(self.faulty_nodes):
            raise ValueError("faulty_nodes must be distinct")
        if vals.shape != (self.horizon, len(self.faulty_nodes)):
            raise ValueError(
                f"values shape {vals.shape} does not match horizon {self.horizon} "
                f"and {len(self.faulty_nodes)} faulty nodes")

    @classmethod
    def empty(cls, horizon: int) -> "InjectionSchedule":
        return cls((), np.zeros((horizon, 0)), horizon)

    @classmethod
    def from_values(cls, per_node: dict[int, list[float]], horizon: int) -> "InjectionSchedule":
        nodes = tuple(sorted(int(v) for v in per_node))
        vals = np.zeros((horizon, len(nodes)))
        for col, node in enumerate(nodes):
            series = list(per_node[node])
            if len(series) > horizon:
                raise ValueError(f"injection series at node {node} longer than horizon {horizon}")
            vals[: len(series), col] = series
        return cls(nodes, vals, horizon)

    def value(self, node: int, step: int) -> float:
        for col, v in enumerate(self.faulty_nodes):
            if v == node:
                return float(self.values[step, col])
        return 0.0

    @property
    def is_empty(self) -> bool:
        return len(self.faulty_nodes) == 0 or not np.any(self.values)


@dataclass(frozen=True)
class ObservationRecord:
    """What one node saw: K+1 snapshots of itself and its neighbors."""

    observer: int
    selector: tuple[int, ...]
    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 2 or s.shape[1] != len(self.selector):
            raise ValueError("samples must be (steps+1) x len(selector)")

    @classmethod
    def from_trajectory(cls, w: WeightMatrix, observer: int, trajectory: np.ndarray) -> "ObservationRecord":
        sel = w.selector(observer)
        return cls(observer, sel, np.asarray(trajectory, dtype=float)[:, list(sel)])

    def stacked(self) -> np.ndarray:
        return self.samples.reshape(-1)


def _injection_columns(n: int, k: int, fault_sets: np.ndarray) -> np.ndarray:
    """Injection-operator columns of fault sets, step-major over each set's nodes.

    fault_sets has shape (..., size); the result has shape (..., k*size).
    """
    steps = np.arange(k)[:, None] * n
    return (steps + fault_sets[..., None, :]).reshape(*fault_sets.shape[:-1], -1)


@dataclass
class ObservabilityStack:
    """Stacked observation operators for one observer over horizon k.

    With C the observer's selector rows and q = len(selector), row block
    t = 0..k of o is C W^t: o maps the initial state to the k+1 stacked
    snapshots. injection maps every node's injections at steps 0..k-1 to
    the same snapshots: column s*n + j is node j's injection at step s,
    and block (t, s) is C W^(t-1-s) for t > s and zero otherwise, so
    column block s is (s+1)q zero rows over O_{k-1-s}. No block depends
    on k, so the operators of any shorter horizon K are, up to rounding
    in the matrix products, the leading q(K+1) rows and n*K columns.
    """

    o: np.ndarray
    injection: np.ndarray
    k: int
    observer: int
    selector: tuple[int, ...]

    def m(self, fault_nodes) -> np.ndarray:
        """M^Y: the injection columns of fault set Y, step-major over sorted Y."""
        key = np.array(sorted(int(v) for v in fault_nodes), dtype=int)
        return self.injection[:, _injection_columns(self.o.shape[1], self.k, key)]


def build_observability_stack(w: WeightMatrix, observer: int, k: int) -> ObservabilityStack:
    if k < 1:
        raise ValueError("horizon k must be at least 1")
    if not 0 <= observer < w.n:
        raise ValueError(f"observer {observer} out of range")
    sel = w.selector(observer)
    q, n = len(sel), w.n
    c = np.eye(n)[list(sel), :]
    o = c
    injection = np.zeros((q * (k + 1), n * k))
    for level in range(k):
        # o is O_level here: the operator seen by the injection at step k-1-level
        step = k - 1 - level
        injection[(step + 1) * q:, step * n:(step + 1) * n] = o
        o = np.vstack([c, o @ w.entries])
    return ObservabilityStack(o=o, injection=injection, k=k, observer=observer, selector=sel)


def verify_rank_condition(w: WeightMatrix, f: int, k_max: int | None = None,
                          rank_rtol: float = RANK_RTOL) -> int | None:
    """Smallest horizon K <= k_max at which every node can decode.

    For each observer i and each candidate corrupted set Y of size
    min(2f, n), the stacked system must satisfy
    rank([O_{i,K} M_{i,K}^Y]) = n + rank(M_{i,K}^Y): the state block has
    full column rank and shares nothing with the injection block.
    Checking size-2f sets covers all smaller ones (their M is a column
    subset). The scan returns the first K in 1..k_max that passes; in
    floating point a horizon that passes need not pass at K+1, so later
    horizons are not implied. Returns None when no K qualifies.
    """
    if f < 0:
        raise ValueError("fault bound f must be non-negative")
    return _smallest_split_horizon(w, min(2 * f, w.n), k_max, rank_rtol)


def verify_candidate_uniqueness(w: WeightMatrix, f: int, k_max: int | None = None,
                                rank_rtol: float = RANK_RTOL) -> int | None:
    """Smallest K <= k_max at which each fault hypothesis decodes uniquely.

    Same rank split as verify_rank_condition but over sets of size f
    rather than 2f: enough for every candidate decode of size <= f to
    have one answer, not enough to promise two consistent hypotheses
    agree a priori. Externally supplied weight matrices sometimes pass
    only this weaker split; the unknown-fault decoder then enforces
    cross-candidate agreement at runtime instead of by construction.
    """
    if f < 0:
        raise ValueError("fault bound f must be non-negative")
    return _smallest_split_horizon(w, min(f, w.n), k_max, rank_rtol)


def _smallest_split_horizon(w: WeightMatrix, subset_size: int, k_max: int | None,
                            rank_rtol: float) -> int | None:
    n = w.n
    if k_max is None:
        k_max = n + 2
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    subsets = np.array(list(combinations(range(n), subset_size)), dtype=int)
    # shorter horizons are prefixes of a stack; an explicit k_max far past
    # the default n + 2 grows the stacks by doubling rather than up front
    built = min(k_max, n + 2)
    stacks = [build_observability_stack(w, i, built) for i in range(n)]
    for k in range(1, k_max + 1):
        if k > built:
            built = min(k_max, 2 * built)
            stacks = [build_observability_stack(w, i, built) for i in range(n)]
        cols = _injection_columns(n, k, subsets)
        for stack in stacks:
            rows = len(stack.selector) * (k + 1)
            m = np.moveaxis(stack.injection[:rows, cols], 1, 0)
            o = np.broadcast_to(stack.o[:rows], (len(subsets), rows, n))
            split = numerical_rank(np.concatenate([o, m], axis=2), rank_rtol)
            if np.any(split != n + numerical_rank(m, rank_rtol)):
                break
        else:
            return k
    return None


def _sample_weight(rng: np.random.Generator) -> float:
    # uniform on [-1, 1] with a dead zone so no entry is numerically "almost zero"
    while True:
        v = float(rng.uniform(-1.0, 1.0))
        if abs(v) >= WEIGHT_DEAD_ZONE:
            return v


def synthesize_weights(g: Graph, f: int, rng: np.random.Generator,
                       k_max: int | None = None, max_attempts: int = 40,
                       rank_rtol: float = RANK_RTOL) -> WeightMatrix:
    """Draw random pattern-respecting weights until the rank split holds.

    Almost any draw works when the graph is (2f+1)-connected, so the
    retry cap only trips on graphs that cannot support the fault bound;
    the caller certifies connectivity beforehand.
    """
    n = g.node_count
    for _ in range(max_attempts):
        entries = np.zeros((n, n))
        for i in range(n):
            for j in sorted({i} | set(g.neighbors(i))):
                entries[i, j] = _sample_weight(rng)
        w = WeightMatrix(entries, g)
        if verify_rank_condition(w, f, k_max, rank_rtol) is not None:
            return w
    raise SynthesisError(
        f"no weight draw satisfied the rank condition for f={f} after "
        f"{max_attempts} attempts; the graph likely lacks 2f+1 connectivity")


def run_updates(w: WeightMatrix, initial, inj: InjectionSchedule, k: int) -> np.ndarray:
    """Compact-form iteration: rows (K+1, n), row k is the state at step k."""
    start = np.asarray(initial, dtype=float)
    if start.shape != (w.n,):
        raise ValueError(f"initial state must have shape ({w.n},)")
    if inj.horizon != k:
        raise ValueError(f"injection horizon {inj.horizon} must equal k={k}")
    selectors = [np.array(w.selector(i), dtype=int) for i in range(w.n)]
    traj = np.zeros((k + 1, w.n))
    traj[0] = start
    for step in range(k):
        cur = traj[step]
        nxt = np.empty(w.n)
        for i in range(w.n):
            nxt[i] = combine_neighborhood(w.entries[i], selectors[i], cur[selectors[i]])
        for col, node in enumerate(inj.faulty_nodes):
            nxt[node] = nxt[node] + inj.values[step, col]
        traj[step + 1] = nxt
    return traj


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(a, np.inf)), float(np.linalg.norm(b, np.inf)))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b, np.inf)) / scale


@dataclass(frozen=True)
class DecodeResult:
    """Recovered initial state plus the evidence behind it."""

    initial_values: np.ndarray
    total: float
    consistent_fault_sets: tuple[tuple[int, ...], ...]
    residual: float
    condition_number: float
    ill_conditioned: bool

    def to_json_dict(self) -> dict:
        cond = float(self.condition_number)
        return {
            "initial_values": [float(v) for v in self.initial_values],
            "total": float(self.total),
            "consistent_fault_sets": [list(s) for s in self.consistent_fault_sets],
            "residual": float(self.residual),
            "condition_number": cond if np.isfinite(cond) else None,
            "ill_conditioned": bool(self.ill_conditioned),
        }


def _check_observation(stack: ObservabilityStack, obs: ObservationRecord) -> None:
    if obs.observer != stack.observer or obs.selector != stack.selector:
        raise ValueError("observation record does not belong to this stack")
    if obs.samples.shape[0] != stack.k + 1:
        raise ValueError(
            f"observation has {obs.samples.shape[0]} snapshots, stack expects {stack.k + 1}")


def decode_known_faults(stack: ObservabilityStack, obs: ObservationRecord, fault_set,
                        residual_tol: float = RESIDUAL_TOL,
                        condition_limit: float = CONDITION_LIMIT) -> DecodeResult:
    """Joint least squares for the initial state and a declared fault set's injections.

    The stacked block may be column-deficient without harm: an injection
    step too late to reach the observer's window contributes a zero
    column, leaving u non-unique while S(0) stays pinned. The reported
    condition number is therefore the effective one (largest over
    smallest retained singular value), and a consistent solution whose
    initial-state block is not uniquely determined raises an invariant
    error instead of returning one of many answers.
    """
    _check_observation(stack, obs)
    key = tuple(sorted(int(v) for v in fault_set))
    n = stack.o.shape[1]
    y = obs.stacked()
    m = stack.m(key)
    a = np.hstack([stack.o, m]) if m.shape[1] else stack.o
    solution, _, _, svals = np.linalg.lstsq(a, y, rcond=None)
    misfit = float(np.linalg.norm(a @ solution - y))
    rel = misfit / max(float(np.linalg.norm(y)), 1e-300)
    if rel > residual_tol:
        raise DecodeInconsistencyError(
            f"fault set {key} leaves relative residual {rel:.3e} (tol {residual_tol:.1e})")
    rank_a = int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size and svals[0] > 0 else 0
    if rank_a != n + numerical_rank(m):
        raise InternalInvariantError(
            f"fault hypothesis {key} explains the observations but does not pin down "
            f"the initial state (stacked rank {rank_a}, need {n + numerical_rank(m)})")
    cond = float(svals[0] / svals[rank_a - 1])
    s0 = solution[:n].copy()
    return DecodeResult(
        initial_values=s0,
        total=float(s0.sum()),
        consistent_fault_sets=(key,),
        residual=rel,
        condition_number=cond,
        ill_conditioned=not np.isfinite(cond) or cond > condition_limit,
    )


def decode_unknown_faults(stack: ObservabilityStack, obs: ObservationRecord, f: int,
                          residual_tol: float = RESIDUAL_TOL,
                          agreement_rtol: float = AGREEMENT_RTOL,
                          condition_limit: float = CONDITION_LIMIT) -> DecodeResult:
    """Sweep every candidate fault set of size <= f and require agreement.

    The rank condition at size 2f guarantees all residual-consistent
    candidates decode the same initial state, so disagreement means the
    stacked systems are too ill-conditioned to trust and is raised as an
    invariant violation rather than papered over.
    """
    _check_observation(stack, obs)
    if f < 0:
        raise ValueError("fault bound f must be non-negative")
    n = stack.o.shape[1]
    results: list[DecodeResult] = []
    for size in range(f + 1):
        for cand in combinations(range(n), size):
            try:
                results.append(decode_known_faults(stack, obs, cand, residual_tol, condition_limit))
            except DecodeInconsistencyError:
                continue
    if not results:
        raise DecodeFailureError(f"no fault set of size <= {f} explains the observations")
    ref = results[0]
    for other in results[1:]:
        if _relative_gap(ref.initial_values, other.initial_values) > agreement_rtol:
            raise InternalInvariantError(
                "consistent fault hypotheses disagree on the recovered state; "
                "the stacked systems are too ill-conditioned to trust")
    return DecodeResult(
        initial_values=ref.initial_values,
        total=ref.total,
        consistent_fault_sets=tuple(r.consistent_fault_sets[0] for r in results),
        residual=ref.residual,
        condition_number=ref.condition_number,
        ill_conditioned=ref.ill_conditioned,
    )


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Classic averaging weights: w_ij = 1 / (1 + max degree of the pair)."""
    n = g.node_count
    entries = np.zeros((n, n))
    for i, j in g.edges:
        v = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
        entries[i, j] = entries[j, i] = v
    for i in range(n):
        entries[i, i] = 1.0 - entries[i].sum()
    return WeightMatrix(entries, g)


def run_average_consensus_baseline(g: Graph, initial, inj: InjectionSchedule,
                                   steps: int) -> np.ndarray:
    """Plain averaging under the same injection hook; no recovery stage.

    Converges to the true average only when nothing is injected, which
    is exactly the contrast the resilient decoder is measured against.
    """
    if not g.is_connected():
        raise ValueError("averaging baseline needs a connected graph")
    return run_updates(metropolis_weights(g), initial, inj, steps)
