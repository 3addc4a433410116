"""Partition search: greedy local moving with cluster aggregation, plus an
exhaustive enumeration oracle for small graphs.

Local moving alone can stall on small dense graphs where every single-node
merge loses before the first cluster forms, so each level also runs a
deterministic chained-move phase: apply the best move repeatedly even when it
loses, then roll back to the best prefix and keep it only if it gained.
Aggregation collapses clusters into super-nodes whose edge weights carry the
stationary flows, so objective values at coarser levels equal the flat ones.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .graph import Graph
from .objective import CRITERIA, FRESH, FlowMoveState, ObjectiveReport, evaluate_partition
from .partitions import Partition
from .walk import (
    ClusterAggregates,
    RandomWalk,
    cluster_aggregates,
    mutual_info_clusters,
    transition_matrix,
)

OBJECTIVES = ("synthesis", "modularity", "cluster_mi")

#: Levels at most this large also get the chained-move escape phase.
CHAIN_NODE_CAP = 128

#: Smallest change in value that counts as an improvement.
MIN_GAIN = 1e-12

#: Most refine-then-coarsen rounds one search runs.
MAX_ROUNDS = 100

#: Partitions scored per numpy call by the exhaustive search.
ORACLE_BLOCK = 4096


@dataclass
class OptimizerConfig:
    objective: str = "synthesis"
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")


def _best_move(state: FlowMoveState, node: int, min_gain: float):
    flows = state.flows_to_clusters(node)
    a = state.assignment[node]
    targets = state.active if state.criterion.dense_targets else flows
    targets = [c for c in targets if c != a]
    if state.counts[a] > 1:
        targets.append(FRESH)
    # gains() adds each target's terms after the source side's, in one fixed
    # order: float addition is not associative, so another order would move
    # gains by an ulp, change which near-tied move wins the first strict >,
    # and with it the partitions found
    best_gain, best = min_gain, None
    for c, g in zip(targets, state.gains(node, targets, flows)):
        if g > best_gain:
            best_gain, best = g, c
    return best_gain, best


def _local_moving(state: FlowMoveState, rng: np.random.Generator) -> None:
    n = len(state.assignment)
    order = np.arange(n)
    while True:
        rng.shuffle(order)
        moves = 0
        for node in order.tolist():
            _, target = _best_move(state, node, MIN_GAIN)
            if target is not None:
                state.apply(node, target)
                moves += 1
        if moves == 0:
            return


def _chain_pass(state: FlowMoveState) -> bool:
    """Tentatively chain best moves (each node at most once), then keep the
    best prefix if it improved; otherwise roll everything back."""
    n = len(state.assignment)
    snap = state.snapshot()
    moved: set[int] = set()
    seq: list[tuple[int, int]] = []
    cum = 0.0
    best_cum = 0.0
    best_len = 0
    for _ in range(n):
        best = None
        for node in range(n):
            if node in moved:
                continue
            g, target = _best_move(state, node, -np.inf)
            if target is not None and (best is None or g > best[0]):
                best = (g, node, target)
        if best is None:
            break
        g, node, target = best
        state.apply(node, target)
        moved.add(node)
        seq.append((node, target))
        cum += g
        if cum > best_cum:
            best_cum = cum
            best_len = len(seq)
    state.restore(snap)
    if best_cum <= MIN_GAIN:
        return False
    for node, target in seq[:best_len]:
        state.apply(node, target)
    return True


def _merge_chain(state: FlowMoveState) -> bool:
    """Merge the least-bad adjacent cluster pair all the way down, then keep
    the best prefix if it gained; complements single-node chains, which
    cannot coordinate multi-node regroupings."""
    ids = np.array(state.active)
    k = len(ids)
    if k < 2:
        return False
    F = np.zeros((k, k))
    dense = np.full(len(state.counts), -1)
    dense[ids] = np.arange(k)
    asg = dense[state.assignment]
    coo = state.walk.flows.tocoo()
    np.add.at(F, (asg[coo.row], asg[coo.col]), coo.data)
    F = 0.5 * (F + F.T)
    # the merge sequence is simulated on cluster masses and flows F alone
    m = np.array(state.mass)[ids]
    alive = np.ones(k, dtype=bool)

    seq: list[tuple[int, int]] = []
    cum, best_cum, best_len = 0.0, 0.0, 0
    for _ in range(k - 1):
        deltas = _merge_deltas_live(state.criterion, m, F, alive)
        i, j = np.unravel_index(int(np.argmax(deltas)), deltas.shape)
        if not np.isfinite(deltas[i, j]):
            break
        cum += float(deltas[i, j])
        F[i, :] += F[j, :]
        F[:, i] += F[:, j]
        F[j, :] = 0.0
        F[:, j] = 0.0
        m[i] += m[j]
        m[j] = 0.0
        alive[j] = False
        seq.append((int(ids[i]), int(ids[j])))
        if cum > best_cum:
            best_cum, best_len = cum, len(seq)
    if best_cum <= MIN_GAIN:
        return False
    for target, source in seq[:best_len]:
        for node in [node for node, c in enumerate(state.assignment) if c == source]:
            state.apply(node, target)
    return True


def _merge_deltas_live(criterion, m: np.ndarray, F: np.ndarray, alive: np.ndarray) -> np.ndarray:
    w = np.diag(F)
    M2 = m[:, None] + m[None, :]
    W2 = w[:, None] + w[None, :] + 2.0 * F
    single = criterion.terms(m, w)
    deltas = criterion.terms(M2, W2) - single[:, None] - single[None, :]
    dead = ~alive
    if not criterion.dense_targets:
        deltas[F <= 0.0] = -np.inf
    deltas[dead, :] = -np.inf
    deltas[:, dead] = -np.inf
    deltas[np.tril_indices_from(deltas)] = -np.inf
    return deltas


def _walk_key(walk: RandomWalk) -> tuple[bytes, ...]:
    f = walk.flows
    return (
        f.indptr.astype(np.int64).tobytes(),
        f.indices.astype(np.int64).tobytes(),
        f.data.tobytes(),
        walk.p.tobytes(),
    )


def _state_key(state: FlowMoveState) -> tuple[bytes, ...]:
    return (
        array("q", state.assignment).tobytes(),
        array("d", state.mass).tobytes(),
        array("d", state.within).tobytes(),
        array("q", state.free_ids).tobytes(),
    )


def _refine_level(
    state: FlowMoveState, rng: np.random.Generator, dead_ends: dict[tuple, set[tuple]]
) -> None:
    """Local moving, then on small levels the escapes until both fail.

    ``dead_ends`` maps a walk's key to the keys of the states on it where both
    escapes failed, and is shared by every level of one ``optimize`` call.
    """
    _local_moving(state, rng)
    if len(state.assignment) > CHAIN_NODE_CAP:
        return
    # Skipping a known dead end is exact: both escapes are deterministic in
    # the walk and the state's assignment, mass, within and free ids (the
    # rest of the state follows from these), they draw no random numbers, and
    # a failed escape restores the state bit for bit. The keys are raw bytes,
    # so a match is an exact match.
    dead = dead_ends.setdefault(_walk_key(state.walk), set())
    while True:
        key = _state_key(state)
        if key in dead:
            return
        changed = False
        if _merge_chain(state):
            _local_moving(state, rng)
            changed = True
        if _chain_pass(state):
            _local_moving(state, rng)
            changed = True
        if not changed:
            dead.add(key)
            return


def _partition_value(walk: RandomWalk, part: Partition, criterion) -> float:
    if part.num_clusters == 1:
        return 0.0
    agg = cluster_aggregates(walk, part)
    return float(np.sum(criterion.terms(agg.p_i, np.diag(agg.p_ij))))


def _aggregate_graph(walk: RandomWalk, part: Partition) -> Graph:
    """Super-node graph whose induced walk reproduces the aggregated flows,
    so objective values computed on it equal the flat ones."""
    agg = cluster_aggregates(walk, part)
    f = agg.p_ij
    # row by row, each self-loop ahead of the edges to higher clusters
    u, v = np.nonzero(np.triu(f > 0.0))
    # an undirected self-loop counts twice in its node's degree
    w = np.where(u == v, f[u, v] / 2.0, f[u, v])
    return Graph(n=agg.num_clusters, u=u, v=v, w=w)


def optimize(g: Graph, cfg: OptimizerConfig | None = None) -> tuple[Partition, ObjectiveReport]:
    """Search for a high-value partition of an undirected graph.

    Each round refines the current partition by single-node moves on the
    original walk, then coarsens it through merge-only rounds on aggregated
    graphs. Rounds repeat until the objective stops improving (or the round
    cap is hit). Deterministic for a given config.

    The search settings are fixed: 16 restarts on graphs of at most
    CHAIN_NODE_CAP = 128 nodes (the first from singletons, the rest from
    random partitions) and 4 from singletons on larger ones; the chained-move
    and merge escapes on every level of at most 128 nodes; a minimum gain of
    MIN_GAIN = 1e-12; at most MAX_ROUNDS = 100 rounds per restart.

    ``cfg.objective`` names the criterion searched. Under "cluster_mi" no
    search runs: by the data processing inequality no coarsening raises the
    cluster-level mutual information above the node-level one, so the
    singletons are an optimum.

    Args:
        g: undirected graph with positive degrees.
        cfg: optimizer settings; defaults to the synthesis objective, seed 0.

    Returns:
        (Partition, ObjectiveReport) for the best partition found. The report
        is always the synthesis objective J of that partition with both of
        its bounds, whichever criterion was searched.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    walk0 = transition_matrix(g)
    if cfg.objective == "cluster_mi":
        return Partition.singletons(g.n), evaluate_partition(walk0, Partition.singletons(g.n))
    criterion = CRITERIA[cfg.objective]
    rng = np.random.default_rng(cfg.seed)

    best_part, best_value = None, -np.inf
    dead_ends: dict[tuple, set[tuple]] = {}
    for i in range(16 if g.n <= CHAIN_NODE_CAP else 4):
        if i == 0 or g.n > CHAIN_NODE_CAP:
            init = Partition.singletons(g.n)
        else:
            # small graphs have rugged landscapes where every merge from
            # singletons loses; random starts land in other basins
            k = int(rng.integers(1, g.n + 1))
            init = Partition(rng.integers(0, k, size=g.n))
        part, value = _search_rounds(walk0, init, rng, criterion, dead_ends)
        if value > best_value + MIN_GAIN:
            best_part, best_value = part, value
    return best_part, evaluate_partition(walk0, best_part)


def _search_rounds(
    walk0: RandomWalk,
    init: Partition,
    rng: np.random.Generator,
    criterion,
    dead_ends: dict[tuple, set[tuple]],
) -> tuple[Partition, float]:
    part = init
    value = -np.inf
    for _ in range(MAX_ROUNDS):
        # single-node moves on the original walk; this is also what undoes
        # merges that an earlier round's aggregation locked in
        state = FlowMoveState(walk0, part, criterion)
        _refine_level(state, rng, dead_ends)
        part = state.partition()
        # merge rounds on progressively coarser graphs
        while part.num_clusters > 1:
            level_walk = transition_matrix(_aggregate_graph(walk0, part))
            st = FlowMoveState(level_walk, Partition.singletons(part.num_clusters), criterion)
            _refine_level(st, rng, dead_ends)
            sub = st.partition()
            if sub.num_clusters == part.num_clusters:
                break
            part = Partition(sub.assignment[part.assignment])
        new_value = _partition_value(walk0, part, criterion)
        if new_value <= value + MIN_GAIN:
            break
        value = new_value
    return part, value


def set_partitions(n: int):
    """Yield every partition of n items as a dense assignment array, in
    lexicographic restricted-growth order (single cluster first)."""
    a = np.zeros(n, dtype=np.int64)
    prefix_max = np.zeros(n, dtype=np.int64)
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == prefix_max[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        prefix_max[i] = max(prefix_max[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            prefix_max[j] = prefix_max[i]


def brute_force_optimum(
    g: Graph, objective: str = "synthesis", n_cap: int = 12
) -> tuple[Partition, float]:
    """Exhaustively maximize a criterion over all partitions of a small graph.

    Ties break toward fewer clusters, then the lexicographically smallest
    assignment (enumeration order). The single cluster scores exactly 0
    under synthesis and modularity.

    Args:
        g: the graph; must have at most ``n_cap`` nodes.
        objective: one of OBJECTIVES.
        n_cap: enumeration guard; growth is the Bell number of n.

    Returns:
        (Partition, value) of the exact optimum.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    if g.n > n_cap:
        raise ValueError(f"graph has {g.n} nodes, exceeding the enumeration cap {n_cap}")

    if objective == "cluster_mi":
        score = partial(_block_cluster_mi, transition_matrix(g))
    else:
        criterion = CRITERIA[objective]
        score = partial(_block_values, criterion, criterion.weights(g))

    best_val, best_k, best_a = -np.inf, 0, None
    partitions = set_partitions(g.n)
    while len(block := np.array([a.copy() for a in islice(partitions, ORACLE_BLOCK)])):
        values = score(block)
        ks = block.max(axis=1) + 1
        top = np.flatnonzero(values == values.max())
        i = top[np.argmin(ks[top])]
        if values[i] > best_val or (values[i] == best_val and ks[i] < best_k):
            best_val, best_k, best_a = values[i], ks[i], block[i]
    return Partition(best_a), float(best_val)


def _cluster_sums(labels: np.ndarray, weights: np.ndarray, bins: int) -> np.ndarray:
    """Weights summed by label, row by row of a (B, m) label array, in order."""
    b = len(labels)
    offset = labels + bins * np.arange(b)[:, None]
    summed = np.bincount(offset.ravel(), np.broadcast_to(weights, labels.shape).ravel(), b * bins)
    return summed.reshape(b, bins)


def _block_values(criterion, weights: tuple, block: np.ndarray) -> np.ndarray:
    """Value of each row of a (B, n) assignment array; ``weights`` from ``criterion``."""
    node_w, node_total, tails, heads, edge_w, edge_total = weights
    n = block.shape[1]
    mass = _cluster_sums(block, node_w, n) / node_total
    same = block[:, tails] == block[:, heads]
    within = _cluster_sums(block[:, tails], edge_w * same, n) / edge_total
    terms = criterion.terms(mass, within)
    # add the clusters in index order, as a Python loop would; a pairwise
    # np.sum over the zero-padded rows rounds differently
    values = np.zeros(len(block))
    for column in terms.T:
        values += column
    values[block.max(axis=1) == 0] = 0.0
    return values


def _block_cluster_mi(walk: RandomWalk, block: np.ndarray) -> np.ndarray:
    """Cluster-level mutual information of each row of a (B, n) assignment array."""
    n = block.shape[1]
    f = walk.flows.tocoo()
    p_i = _cluster_sums(block, walk.p, n)
    p_ij = _cluster_sums(block[:, f.row] * n + block[:, f.col], f.data, n * n).reshape(-1, n, n)
    return np.array([
        mutual_info_clusters(ClusterAggregates(p_i[r, :k], p_ij[r, :k, :k]))
        for r, k in enumerate(block.max(axis=1) + 1)
    ])
