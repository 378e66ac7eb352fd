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
fault set or by sweeping all candidate sets up to the bound. The sweep
first screens every candidate by its residual outside col(O) and solves
exactly only those the screen cannot rule out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .errors import (
    ConfigError,
    DecodeFailureError,
    DecodeInconsistencyError,
    InternalInvariantError,
    SynthesisError,
)
from .graph import Graph, check_nodes, require_connectivity

# The numerical policy: one set of thresholds for every scenario, looked up
# when each function runs rather than passed down from callers.
RANK_RTOL = 1e-9
RESIDUAL_TOL = 1e-8
AGREEMENT_RTOL = 1e-6
BASELINE_RTOL = 1e-6
CONDITION_LIMIT = 1e12
SCREEN_MARGIN = 1e3
WEIGHT_DEAD_ZONE = 1e-3
BASELINE_STEPS = 30
SYNTHESIS_ATTEMPTS = 40


def horizon_cap(n: int) -> int:
    """Horizon cap of the rank split: no horizon past n + 2 is scanned or run."""
    return n + 2


def _rank_from(s: np.ndarray) -> np.ndarray:
    """The rank cut: how many singular values exceed RANK_RTOL times the largest."""
    return np.sum(s > RANK_RTOL * s[..., :1], axis=-1)


def numerical_rank(a: np.ndarray) -> int | np.ndarray:
    """Rank by singular values above RANK_RTOL times the largest.

    A stack of matrices, shape (..., rows, cols), gets one rank per
    matrix; a plain matrix gets an int.
    """
    ranks = _rank_from(np.linalg.svd(a, compute_uv=False))
    return int(ranks) if ranks.ndim == 0 else ranks


@dataclass(frozen=True)
class WeightMatrix:
    """Update weights constrained to the graph's sparsity pattern.

    entries[i, j] may be nonzero only for j in node i's selector, its
    closed neighbourhood as the graph computed it once; nothing else
    about the values is assumed (no symmetry, no row sums).
    entries is a read-only copy of the array passed in, so each observer's
    operator and the rank-split horizon per fault-set size and floor are
    memoised on it and stay valid. Two matrices are equal when their graphs
    and entry bytes are, and hash alike, so a scenario holding one is a value.
    """

    entries: np.ndarray
    graph: Graph
    _horizons: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.array(self.entries, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "entries", w)
        n = self.graph.node_count
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} does not match {n} nodes")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight entries must be finite")
        off_pattern = w != 0.0
        off_pattern.flat[[i * n + j for i in range(n) for j in self.selector(i)]] = False
        if off_pattern.any():
            i, j = np.argwhere(off_pattern)[0]
            raise ValueError(f"entry ({i}, {j}) is nonzero but the nodes are not neighbors")

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightMatrix) and self.graph == other.graph
                and self.entries.tobytes() == other.entries.tobytes())

    def __hash__(self) -> int:
        return hash((self.graph, self.entries.tobytes()))

    @property
    def n(self) -> int:
        return self.graph.node_count

    def selector(self, i: int) -> tuple[int, ...]:
        """Nodes whose values node i sees: itself plus neighbors, sorted."""
        return self.graph.closed_neighborhood(i)

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
    k; honest nodes never appear, and at(node, step) is the one lookup.
    Steps past an explicit plan are zero.
    """

    faulty_nodes: tuple[int, ...]
    values: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        check_nodes(self.faulty_nodes)
        if vals.shape != (self.horizon, len(self.faulty_nodes)):
            raise ValueError(
                f"values shape {vals.shape} does not match horizon {self.horizon} "
                f"and {len(self.faulty_nodes)} faulty nodes")

    @classmethod
    def empty(cls, horizon: int) -> "InjectionSchedule":
        return cls((), np.zeros((horizon, 0)), horizon)

    @classmethod
    def from_values(cls, per_node: dict[int, list[float]], horizon: int) -> "InjectionSchedule":
        nodes = check_nodes(per_node)
        vals = np.zeros((horizon, len(nodes)))
        for col, node in enumerate(nodes):
            series = list(per_node[node])
            if len(series) > horizon:
                raise ConfigError(f"injection series at node {node} of length {len(series)} "
                                  f"exceeds the {horizon}-step horizon")
            vals[: len(series), col] = series
        return cls(nodes, vals, horizon)

    def at(self, node: int, step: int) -> float | None:
        """What node adds to its update at step, or None for an honest node."""
        if node not in self.faulty_nodes:
            return None
        return float(self.values[step, self.faulty_nodes.index(node)])


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
    on k, so o and injection are exactly the leading q(k+1) rows of the
    observer's operator at the horizon cap, its first n and next n*k columns.
    """

    o: np.ndarray
    injection: np.ndarray
    k: int
    observer: int
    selector: tuple[int, ...]
    _screens: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def m(self, fault_nodes) -> np.ndarray:
        """M^Y: the injection columns of fault set Y, step-major over sorted Y."""
        key = np.array(check_nodes(fault_nodes, self.o.shape[1]), dtype=int)
        return self.injection[:, _injection_columns(self.o.shape[1], self.k, key)]


def _operator(w: WeightMatrix, observer: int) -> np.ndarray:
    """The observer's [O | injection] at the horizon cap, read-only, memoised on w."""
    if observer not in w._operators:
        sel, n, k = w.selector(observer), w.n, horizon_cap(w.n)
        o = c = np.eye(n)[list(sel), :]
        a = np.zeros((len(sel) * (k + 1), n * (k + 1)))
        for step in reversed(range(k)):
            # o is O_{k-1-step} here: the operator seen by the injection at step
            a[(step + 1) * len(sel):, (step + 1) * n:(step + 2) * n] = o
            o = np.vstack([c, o @ w.entries])
        a[:, :n] = o
        a.flags.writeable = False
        w._operators[observer] = a
    return w._operators[observer]


def build_observability_stack(w: WeightMatrix, observer: int, k: int) -> ObservabilityStack:
    """The leading q(k+1) rows and n(k+1) columns of the observer's operator, as views."""
    if not 1 <= k <= horizon_cap(w.n):
        raise ValueError(f"horizon k={k} is outside 1..{horizon_cap(w.n)}, the cap n + 2")
    (observer,) = check_nodes((observer,), w.n)
    a = _operator(w, observer)[:len(w.selector(observer)) * (k + 1), :w.n * (k + 1)]
    return ObservabilityStack(a[:, :w.n], a[:, w.n:], k, observer, w.selector(observer))


def verify_rank_condition(w: WeightMatrix, f: int, *, floor: int = 1) -> int | None:
    """First horizon K in floor..n+2 at which every node can decode, or None.

    For each observer i and each candidate corrupted set Y of size
    min(2f, n), the stacked system must satisfy
    rank([O_{i,K} M_{i,K}^Y]) = n + rank(M_{i,K}^Y): the state block has
    full column rank and shares nothing with the injection block.
    Checking size-2f sets covers all smaller ones (their M is a column
    subset). In floating point a passing K need not pass at K+1, so no
    horizon is taken on trust: the answer is the first K at or above floor,
    up to the cap horizon_cap(n), at which the split was checked and holds.
    The scan runs once per (subset size, floor), memoised on w.
    """
    return _first_split_horizon(w, min(2 * f, w.n), floor)


def verify_candidate_uniqueness(w: WeightMatrix, f: int, *, floor: int = 1) -> int | None:
    """First K in floor..n+2 at which each fault hypothesis decodes uniquely.

    Same rank split, rule and memo as verify_rank_condition but over
    sets of size f rather than 2f: enough for every candidate decode of
    size <= f to have one answer, not enough to promise two consistent
    hypotheses agree a priori. Externally supplied weight matrices
    sometimes pass only this weaker split; the unknown-fault decoder then
    enforces cross-candidate agreement at runtime instead of by
    construction.
    """
    return _first_split_horizon(w, min(f, w.n), floor)


def _first_split_horizon(w: WeightMatrix, subset_size: int, floor: int) -> int | None:
    if subset_size < 0:
        raise ValueError("fault bound f must be non-negative")
    if not 1 <= floor <= horizon_cap(w.n):
        raise ValueError(f"floor {floor} is outside 1..{horizon_cap(w.n)}, the cap n + 2")
    key = (subset_size, floor)
    if key not in w._horizons:
        w._horizons[key] = _scan_split_horizons(w, subset_size, floor)
    return w._horizons[key]


def _split_holds(a: np.ndarray, n: int, s: np.ndarray | None = None) -> bool:
    """Whether rank([O M]) = n + rank(M) for each a = [O M] of a batch, O its
    first n columns, both ranks by the RANK_RTOL cut: r from s, the singular
    values of a (computed if not given), and rank(M) from a second SVD, which
    runs only when no r is below n. A batch passes exactly when each of its
    matrices passes alone, so the scan may send it any subset of the fault
    sets, such as those _split_certified leaves open."""
    s = np.linalg.svd(a, compute_uv=False) if s is None else s
    r = _rank_from(s)
    return bool(np.all(r >= n) and np.all(r == n + numerical_rank(a[..., n:])))


def _eigenvalues_clear(gram: np.ndarray, tau: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Whether the smallest eigenvalue of each symmetric p x p block of a stack
    exceeds its tau, with no eigenvalue computed: gram is overwritten by the
    Cholesky factor of gram - (tau + c) I, c = (p+1) eps trace / (1 - (p+1) eps),
    and a block clears exactly when every pivot is positive. If floating-point
    Cholesky finishes on a matrix shifted by c, the unshifted one is positive
    definite (Rump, "Verification of positive definiteness", BIT 46, 2006; eps
    in place of the unit roundoff also covers rounding the shift). trace may
    leave out the diagonal of a row and column that are zero off the diagonal:
    they factor exactly on their own. Left-looking, one batched matmul per
    column; a block that fails a pivot gets zero columns from then on."""
    eps = np.finfo(float).eps
    p = gram.shape[-1]
    diag = np.arange(p)
    gram[:, diag, diag] -= (tau + (p + 1) * eps * trace / (1 - (p + 1) * eps))[:, None]
    clear = np.ones(len(gram), dtype=bool)
    for j in range(p):
        col = gram[:, j:, j] - (gram[:, j:, :j] @ gram[:, j, :j, None])[..., 0]
        clear &= col[:, 0] > 0
        gram[:, j:, j] = col / np.sqrt(np.where(clear, col[:, 0], np.inf))[:, None]
    return clear


def _split_certified(o: np.ndarray, injection: np.ndarray, fault_cols: np.ndarray) -> np.ndarray:
    """Which fault sets a lower bound on sigma_min([O M^Y]) proves pass _split_holds.

    fault_cols holds each set's columns of injection, one row per set, and
    M_nz is the z columns of M^Y that are not exactly zero, so rank(M) <= z and
    rank([O M]) <= n + z. One full SVD of O gives a = sigma_n(O) and P = U[:, n:],
    a basis of the complement of col(O), and Q = [U[:, :n] P] makes Q^T [O M]
    block triangular, [[R, X], [0, P^T M]] with R = diag(s) V^T. So, with
    b = sigma_min(P^T M_nz) and zeta = ||R^-1 X||_F = ||O^+ M||_F,

        sigma_{n+z}([O M]) >= 1 / (1/a + (1 + zeta) / b) = a b / (b + a (1 + zeta)).

    O^+ injection and the Gram matrix of P^T injection are formed once. Each set's
    zeta gains rows eps ||M||_F / a for rounding, and b^2 is the smallest
    eigenvalue of its z x z principal submatrix G (a zero column's diagonal entry
    is set to the trace, which leaves that eigenvalue alone), less (rows + z) eps
    trace, which bounds the rounding of forming G from sums over rows;
    _eigenvalues_clear's (p+1) eps trace shift covers only the factorisation and
    falls short of it whenever rows > p + 1. A set is accepted when the bound
    exceeds t = RANK_RTOL ||A||_F, which is at least the rank cut RANK_RTOL
    sigma_1(A), plus rows (n + z) eps ||A||_F for the rounding of both SVDs in
    _split_holds. The SVD of A then gives r = n + z; and since deleting O's
    columns interlaces, sigma_z(M) >= sigma_{n+z}(A), while sigma_1(M) <=
    sigma_1(A), the SVD of M gives rank z, so the set passes. The bound
    increases in b toward a, so it exceeds t exactly when a > t and
    b > b* = t a (1 + zeta) / (a - t), that is when lambda_min(G) exceeds
    tau = b*^2 + (rows + z) eps trace, with b* raised by 4 ulps for its own
    rounding; _eigenvalues_clear decides that by Cholesky. Sets of size 0, and
    every set when O is singular, are left open."""
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
    m_fro = np.sqrt(np.einsum("ij,ij->j", injection, injection)[fault_cols].sum(-1))
    a_fro = np.sqrt(np.vdot(o, o) + m_fro ** 2)
    zeta = np.sqrt(np.einsum("ij,ij->j", coeffs, coeffs)[fault_cols].sum(-1)) + rows * eps * m_fro / a
    t = (RANK_RTOL + rows * (n + z) * eps) * a_fro
    spare = a - t
    b_star = (1 + 4 * eps) * t * a * (1 + zeta) / np.where(spare > 0, spare, np.inf)
    return (spare > 0) & _eigenvalues_clear(gram, b_star ** 2 + (rows + z) * eps * trace, trace)


def _observer_splits(rows: np.ndarray, cols: np.ndarray, n: int) -> bool:
    """Whether one observer splits every fault set at one horizon K: rows is the
    leading q(K+1) rows and n(K+1) columns of its operator, and cols holds each
    set's columns of [O M^Y] in it. Fewer than n rows fail with no SVD. Only
    the sets _split_certified leaves open go to _split_holds, in order, in
    chunks of 4, 8, 16, ..., and the check fails at its first failing chunk.
    The verdict is the same as one batch's, since _split_holds passes a batch
    exactly when it passes each of its matrices; a failing check, where
    nearly every open set fails, skips the SVDs of the chunks after it."""
    if len(rows) < n:
        return False
    cols = cols[~_split_certified(rows[:, :n], rows[:, n:], cols[:, n:] - n)]
    start, size = 0, 4
    while start < len(cols):
        if not _split_holds(np.moveaxis(rows[:, cols[start:start + size]], 1, 0), n):
            return False
        start, size = start + size, 2 * size
    return True


def _scan_split_horizons(w: WeightMatrix, subset_size: int, floor: int = 1) -> int | None:
    """First K in floor..n+2 at which every observer splits every node set of
    subset_size, or None. Every [O M^Y] is gathered from the leading rows of
    the observer's memoised operator, the one the decoders read. Observers
    that see the fewest neighbours are the likeliest to fail, so they go
    first, one at a time: a failing horizon stops at its first failing
    observer. Each observer skips the SVDs of the sets _split_certified
    proves, and a failing one those after its first failing chunk, which
    leaves every verdict as it was."""
    n = w.n
    cap = horizon_cap(n)
    subsets = np.array(list(combinations(range(n), subset_size)), dtype=int)
    state = np.broadcast_to(np.arange(n), (len(subsets), n))
    observers = sorted(range(n), key=lambda i: len(w.selector(i)))
    blocks = [(len(w.selector(i)), _operator(w, i)) for i in observers]
    for k in range(floor, cap + 1):
        cols = np.hstack([state, n + _injection_columns(n, k, subsets)])
        if all(_observer_splits(block[:q * (k + 1), :n * (k + 1)], cols, n) for q, block in blocks):
            return k
    return None


def synthesize_weights(g: Graph, f: int, rng: np.random.Generator, *, floor: int = 1) -> WeightMatrix:
    """Draw random pattern-respecting weights until the rank split holds at some
    K in floor..n+2, which verify_rank_condition(w, f, floor=floor) reads back.

    g must first pass require_connectivity, before any draw (for a generated
    graph, a read of the certificate its generator kept). Almost any draw
    passes up to about n = 20 at f = 1, beyond which float64 ranks fail on
    ill-conditioned stacks, the one cause left when all SYNTHESIS_ATTEMPTS
    draws fail.
    """
    require_connectivity(g, f)
    for _ in range(SYNTHESIS_ATTEMPTS):
        w = draw_weights(g, rng)
        if verify_rank_condition(w, f, floor=floor) is not None:
            return w
    raise SynthesisError(
        f"no weight draw satisfied the rank condition for f={f} after {SYNTHESIS_ATTEMPTS} "
        f"attempts: float64 ranks fail on the stacked operators at n={g.node_count}")


def draw_weights(g: Graph, rng: np.random.Generator) -> WeightMatrix:
    """One draw on g's pattern, row by row, each entry uniform on [-1, 1] outside
    a dead zone so that no entry is numerically "almost zero"."""
    n = g.node_count
    entries = np.zeros((n, n))
    for i in range(n):
        for j in g.closed_neighborhood(i):
            while abs(entries[i, j]) < WEIGHT_DEAD_ZONE:
                entries[i, j] = float(rng.uniform(-1.0, 1.0))
    return WeightMatrix(entries, g)


def run_updates(w: WeightMatrix, initial, inj: InjectionSchedule, k: int) -> np.ndarray:
    """Compact-form iteration: rows (K+1, n), row k is the state at step k.

    It is the per-node reference: each node's update is np.dot of its row of W
    on its closed neighbourhood with that neighbourhood's values, both in
    selector order, plus a compromised node's injection, and the round
    engine's batched np.vecdot over contiguous rows must match it bit for bit.
    The values are a contiguous 1-D row (a fancy-indexed copy): a strided view
    changes the order in which BLAS sums the dot product."""
    start = np.asarray(initial, dtype=float)
    if start.shape != (w.n,):
        raise ValueError(f"initial state must have shape ({w.n},)")
    if inj.horizon != k:
        raise ValueError(f"injection horizon {inj.horizon} must equal k={k}")
    check_nodes(inj.faulty_nodes, w.n)
    selectors = [np.array(w.selector(i)) for i in range(w.n)]
    rows = [w.entries[i, sel] for i, sel in enumerate(selectors)]
    traj = np.zeros((k + 1, w.n))
    traj[0] = start
    for step in range(k):
        for i, sel in enumerate(selectors):
            nxt = float(np.dot(rows[i], traj[step, sel]))
            injection = inj.at(i, step)
            traj[step + 1, i] = nxt if injection is None else nxt + injection
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


def decode_known_faults(stack: ObservabilityStack, obs: ObservationRecord, fault_set) -> DecodeResult:
    """Joint least squares for the initial state and a declared fault set's injections.

    The hypothesis is inconsistent when the relative residual exceeds
    RESIDUAL_TOL, and the result is flagged ill-conditioned when its
    condition number exceeds CONDITION_LIMIT.

    The stacked block may be column-deficient without harm: an injection
    step too late to reach the observer's window contributes a zero
    column, leaving u non-unique while S(0) stays unique. The reported
    condition number is therefore the effective one (largest over
    smallest retained singular value), and a consistent solution whose
    initial-state block is not uniquely determined raises an invariant
    error instead of returning one of many answers.
    """
    _check_observation(stack, obs)
    n = stack.o.shape[1]
    key = check_nodes(fault_set, n)
    y = obs.samples.reshape(-1)
    a = np.hstack([stack.o, stack.m(key)])
    solution, _, _, svals = np.linalg.lstsq(a, y, rcond=None)
    misfit = float(np.linalg.norm(a @ solution - y))
    rel = misfit / max(float(np.linalg.norm(y)), 1e-300)
    if not rel <= RESIDUAL_TOL:
        raise DecodeInconsistencyError(
            f"fault set {key} leaves relative residual {rel:.3e} (tol {RESIDUAL_TOL:.1e})")
    rank_a = int(_rank_from(svals))
    if not _split_holds(a, n, svals):
        raise InternalInvariantError(
            f"fault hypothesis {key} explains the observations but does not pin down "
            f"the initial state (stacked rank {rank_a} is not {n} plus the injection rank)")
    cond = float(svals[0] / svals[rank_a - 1])
    s0 = solution[:n].copy()
    return DecodeResult(
        initial_values=s0,
        total=float(s0.sum()),
        consistent_fault_sets=(key,),
        residual=rel,
        condition_number=cond,
        ill_conditioned=not np.isfinite(cond) or cond > CONDITION_LIMIT,
    )


def _screened_candidates(stack: ObservabilityStack, y: np.ndarray, f: int) -> list[tuple[int, ...]]:
    """Candidate fault sets of size <= f, in sweep order, that may be consistent.

    P, an orthonormal basis of part of the complement of col(O), and one
    batched QR per size of P^T M^Y are kept on the stack per bound, so
    every y screened against it gets each candidate's residual of P^T y
    outside col(P^T M^Y) from them. That never exceeds the exact residual
    of [O M^Y], which lstsq's truncated solve cannot beat, and a QR basis
    spanning more than col(P^T M^Y) (zero or dependent columns) only
    lowers it. So a candidate screened above SCREEN_MARGIN times
    RESIDUAL_TOL, the margin covering rounding, is one decode_known_faults
    would reject. Without a complement (rows <= n) or with a block at least
    as wide as it is tall, the residual is zero and nothing is cut.
    """
    n = stack.o.shape[1]
    if f not in stack._screens:
        p = np.linalg.svd(stack.o)[0][:, n:]
        projected = p.T @ stack.injection
        per_size = []
        for size in range(min(f, n) + 1):
            cands = list(combinations(range(n), size))
            cols = _injection_columns(n, stack.k, np.array(cands, dtype=int))
            per_size.append((cands, np.linalg.qr(np.moveaxis(projected[:, cols], 1, 0))[0]))
        stack._screens[f] = p, per_size
    p, per_size = stack._screens[f]
    z = y @ p
    limit = SCREEN_MARGIN * RESIDUAL_TOL * max(float(np.linalg.norm(y)), 1e-300)
    kept: list[tuple[int, ...]] = []
    for cands, q in per_size:
        misfit = np.linalg.norm(z - (q @ (z @ q)[..., None])[..., 0], axis=-1)
        kept += [c for c, r in zip(cands, misfit) if not r > limit]
    return kept


def decode_unknown_faults(stack: ObservabilityStack, obs: ObservationRecord, f: int) -> DecodeResult:
    """Sweep every candidate fault set of size <= f and require agreement.

    A candidate is kept when decode_known_faults finds it consistent; the
    ones _screened_candidates proves inconsistent are never solved, which
    changes no result since decode_known_faults would reject each of them.
    The rank condition at size 2f guarantees all kept candidates decode
    the same initial state, so a relative gap above AGREEMENT_RTOL (a NaN
    gap included) is raised as an invariant violation rather than papered
    over. It names the observer and the first candidate that disagrees with
    the first kept one, both with their totals and residuals, and the gap.
    """
    _check_observation(stack, obs)
    if f < 0:
        raise ValueError("fault bound f must be non-negative")
    results: list[DecodeResult] = []
    for cand in _screened_candidates(stack, obs.samples.reshape(-1), f):
        try:
            results.append(decode_known_faults(stack, obs, cand))
        except DecodeInconsistencyError:
            continue
    if not results:
        raise DecodeFailureError(f"no fault set of size <= {f} explains the observations")
    ref = results[0]
    for other in results[1:]:
        gap = _relative_gap(ref.initial_values, other.initial_values)
        if not gap <= AGREEMENT_RTOL:
            a, b = ref.consistent_fault_sets[0], other.consistent_fault_sets[0]
            raise InternalInvariantError(
                f"observer {obs.observer}: consistent fault hypotheses disagree on the recovered "
                f"state: fault set {a} gives total {ref.total!r} at residual {ref.residual:.3e}, "
                f"fault set {b} gives total {other.total!r} at residual {other.residual:.3e}; "
                f"relative gap {gap:.3e} is not within AGREEMENT_RTOL = {AGREEMENT_RTOL:.1e}")
    return replace(ref, consistent_fault_sets=tuple(r.consistent_fault_sets[0] for r in results))


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Classic averaging weights: w_ij = 1 / (1 + max degree of the pair)."""
    n = g.node_count
    entries = np.zeros((n, n))
    degree = np.array([g.degree(i) for i in range(n)])
    i, j = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T
    entries[i, j] = entries[j, i] = 1.0 / (1.0 + np.maximum(degree[i], degree[j]))
    np.fill_diagonal(entries, 1.0 - entries.sum(axis=1))
    return WeightMatrix(entries, g)

