"""Partition search: greedy local moving with cluster aggregation, plus an
exhaustive enumeration oracle for small graphs.

Local moving is the fast local moving of Leiden (Traag, Waltman & van Eck
2019, arXiv:1810.08473): one pass over the nodes in random order, then only
the neighbours of moved nodes, ending when that queue is empty.

Local moving alone can stall on small dense graphs where every single-node
merge loses before the first cluster forms, so each level also runs a
deterministic chained-move phase: apply the best move repeatedly even when it
loses, then roll back to the best prefix and keep it only if it gained.
Each coarser level searches the cluster walk of the partition so far, whose
nodes are the clusters and whose edge weights are the stationary flows
between them, so objective values at coarser levels equal the flat ones.
A level that made no move is remembered by its kind and start partition, and
skipped, with the same result, when the search comes back to it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .objective import (
    FlowMoveState, MoveRows, ObjectiveReport, criterion_for, evaluate_partition, partition_terms
)
from .partitions import Partition
from .walk import RandomWalk, cluster_aggregates, transition_matrix

#: Levels at most this large also get the chained-move escape phase.
CHAIN_NODE_CAP = 128

#: Smallest change in value that counts as an improvement.
MIN_GAIN = 1e-12

#: Most refine-then-coarsen rounds one search runs.
MAX_ROUNDS = 100

#: Most rows in one ``set_partitions`` block: bounds the oracle's memory.
ORACLE_BLOCK = 4096


@dataclass
class OptimizerConfig:
    objective: str = "synthesis"
    seed: int = 0

    def __post_init__(self):
        criterion_for(self.objective)


def _local_moving(state: FlowMoveState, rng: np.random.Generator) -> int:
    """Visit every node once in random order, then, after each move, the
    moved node's neighbours outside its new cluster, until the queue is
    empty. Each applied move gains more than MIN_GAIN, so the queue empties.
    Returns the number of moves made."""
    n = len(state.assignment)
    queue = deque(rng.permutation(n).tolist())
    queued = [True] * n
    assignment, nbr_idx = state.assignment, state.nbr_idx
    moves = 0
    while queue:
        node = queue.popleft()
        queued[node] = False
        _, target = state.best_move(node, MIN_GAIN)
        if target is None:
            continue
        joined = state.apply(node, target)
        moves += 1
        for j in nbr_idx[node]:
            if not queued[j] and assignment[j] != joined:
                queued[j] = True
                queue.append(j)
    return moves


def _chain_pass(state: FlowMoveState) -> bool:
    """Tentatively chain best moves (each node at most once), then keep the
    best prefix if it improved; otherwise roll everything back.

    Each step makes the best move of any unmoved node as ``best_move``
    prices it, the first node's on a tie. ``MoveRows`` prices every node once
    and after each step reprices only what the step changed, so every price
    keeps the bits a rescan would give it. Moving x from cluster a0 to b0
    changes the mass and within-cluster flow of a0 and b0 and, for x's
    neighbours, the flow toward them. Every other flow sum adds the same
    flows in the same order, and every other join term has the same inputs.
    So a node outside a0 and b0 keeps all its gains but those into a0 and
    b0, and its other targets keep their order: sparse targets come in order
    of first neighbour, which the move changes only for a0 and b0. If its
    best was elsewhere, it stays best unless a gain into a0 or b0 is at or
    above it, as only a larger gain, or an equal one that wins the tie, can
    displace it. Every other node's best is picked again as ``best_move``
    picks it.

    Raises:
        RuntimeError: a kept prefix did not raise the value; mispriced moves
            would otherwise repeat such passes forever.
    """
    n = len(state.assignment)
    snap = state.snapshot()
    rows = MoveRows(state)
    gains, targets = rows.gains, rows.targets
    seq: list[tuple[int, int]] = []
    cum = 0.0
    best_cum = 0.0
    best_len = 0
    for _ in range(n):
        g = max(gains)
        node = gains.index(g)
        target = targets[node]
        if target is None:
            break
        rows.move(node, target)
        seq.append((node, target))
        cum += g
        if cum > best_cum:
            best_cum = cum
            best_len = len(seq)
    state.restore(snap)
    if best_cum <= MIN_GAIN:
        return False
    before = sum(state.cluster_terms)
    for node, target in seq[:best_len]:
        state.apply(node, target)
    if not (after := sum(state.cluster_terms)) > before:
        raise RuntimeError(f"a kept chain pass on a {n}-node level did not raise "
                           f"its value: {before!r} -> {after!r}")
    return True


def _refine_level(
    walk0: RandomWalk,
    part: Partition,
    coarse: bool,
    rng: np.random.Generator,
    criterion,
    settled: set[tuple[bool, bytes]],
) -> Partition:
    """Search one level: local moving, then on levels of at most
    CHAIN_NODE_CAP nodes the chain escape until it fails. The level is the
    walk ``walk0`` from ``part``, or, when ``coarse`` is set, the cluster walk
    of ``part`` from singletons. Returns the level's partition.

    ``settled`` holds the keys of levels that made no move at all, and is
    shared by every level of one ``optimize`` call. A settled level is
    skipped exactly: it draws the visit order local moving would have drawn
    and returns its start partition, because
    - its start state is a function of its key (``walk0`` and the criterion
      are fixed in one call, and ``part`` is canonical);
    - a local-moving pass that makes no move makes none in any visit order,
      since every node is priced on the same, unchanged state;
    - the chain escape draws no random numbers, and a failed pass restores
      the state bit for bit.
    """
    key = (coarse, part.assignment.tobytes())
    start = Partition.singletons(part.num_clusters) if coarse else part
    if key in settled:
        rng.permutation(start.n)
        return start
    walk = cluster_aggregates(walk0, part) if coarse else walk0
    state = FlowMoveState(walk, start, criterion)
    moves = _local_moving(state, rng)
    while start.n <= CHAIN_NODE_CAP and _chain_pass(state):
        moves += 1 + _local_moving(state, rng)
    if moves == 0:
        settled.add(key)
    return state.partition()


def _partition_value(walk: RandomWalk, part: Partition, criterion) -> float:
    return float(np.sum(partition_terms(walk, part, criterion)))


def optimize(g: Graph, cfg: OptimizerConfig | None = None) -> tuple[Partition, ObjectiveReport]:
    """Search for a high-value partition of an undirected graph.

    Each round refines the current partition by single-node moves on the
    original walk, then coarsens it through merge-only rounds on its cluster
    walks. Rounds repeat until the objective stops improving (or the round
    cap is hit). Deterministic for a given config.

    The search settings are fixed: 16 restarts on graphs of at most
    CHAIN_NODE_CAP = 128 nodes (the first from singletons, the rest from
    random partitions) and 4 from singletons on larger ones; the chained-move
    escape on every level of at most 128 nodes; a minimum gain of
    MIN_GAIN = 1e-12; at most MAX_ROUNDS = 100 rounds per restart. A level
    that made no move is not searched again from the same start partition,
    which leaves the result unchanged.

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
    criterion = criterion_for(cfg.objective)
    rng = np.random.default_rng(cfg.seed)

    best_part, best_value = None, -np.inf
    settled: set[tuple[bool, bytes]] = set()
    for i in range(16 if g.n <= CHAIN_NODE_CAP else 4):
        if i == 0 or g.n > CHAIN_NODE_CAP:
            init = Partition.singletons(g.n)
        else:
            # small graphs have rugged landscapes where every merge from
            # singletons loses; random starts land in other basins
            k = int(rng.integers(1, g.n + 1))
            init = Partition(rng.integers(0, k, size=g.n))
        part, value = _search_rounds(walk0, init, rng, criterion, settled)
        if value > best_value + MIN_GAIN:
            best_part, best_value = part, value
    return best_part, evaluate_partition(walk0, best_part)


def _search_rounds(
    walk0: RandomWalk,
    init: Partition,
    rng: np.random.Generator,
    criterion,
    settled: set[tuple[bool, bytes]],
) -> tuple[Partition, float]:
    part = init
    value = -np.inf
    for _ in range(MAX_ROUNDS):
        # single-node moves on the original walk; this is also what undoes
        # merges that an earlier round's aggregation locked in
        part = _refine_level(walk0, part, False, rng, criterion, settled)
        # merge rounds on progressively coarser cluster walks
        while part.num_clusters > 1:
            sub = _refine_level(walk0, part, True, rng, criterion, settled)
            if sub.num_clusters == part.num_clusters:
                break
            part = Partition(sub.assignment[part.assignment])
        new_value = _partition_value(walk0, part, criterion)
        if new_value <= value + MIN_GAIN:
            break
        value = new_value
    return part, value


def set_partitions(n: int):
    """Every partition of n >= 1 items as dense assignments, in (B, n) int64
    blocks of at most ORACLE_BLOCK rows (read at call time) whose rows run in
    lexicographic restricted-growth order, single cluster first."""
    if n < 1:
        raise ValueError(f"set partitions need at least one item, got {n}")
    return _grow(np.zeros((1, 1), dtype=np.int64), n, ORACLE_BLOCK)


def _grow(prefixes: np.ndarray, n: int, limit: int):
    """Completions of ``prefixes``: one with largest label M gets children 0..M+1."""
    if prefixes.shape[1] == n:
        yield prefixes
        return
    counts = prefixes.max(axis=1) + 2
    ends = np.cumsum(counts)
    for lo in range(0, ends[-1], limit):
        child = np.arange(lo, min(lo + limit, ends[-1]))
        parent = np.searchsorted(ends, child, side="right")
        labels = child - ends[parent] + counts[parent]
        yield from _grow(np.column_stack([prefixes[parent], labels]), n, limit)


def brute_force_optimum(
    g: Graph, objective: str = "synthesis", n_cap: int = 12
) -> tuple[Partition, float]:
    """Exhaustively maximize a criterion over all partitions of a small graph.

    First prices each nonempty proper node subset once with the criterion's
    ``term``, in chunks of ORACLE_BLOCK subsets: a table of 2^n floats, where
    bit i of an index stands for node i and the whole node set scores 0. Then
    scores ``set_partitions`` block by block, each row by adding the table
    entries of its clusters in cluster-index order. Ties break toward fewer
    clusters, then the first assignment in (lexicographic) enumeration order.

    Args:
        g: the graph; must have at most ``n_cap`` nodes.
        objective: one of OBJECTIVES.
        n_cap: enumeration guard; growth is the Bell number of n.

    Returns:
        (Partition, value) of the exact optimum.
    """
    criterion = criterion_for(objective)
    if g.n > n_cap:
        raise ValueError(f"graph has {g.n} nodes, exceeding the enumeration cap {n_cap}")
    node_w, node_total, tails, heads, edge_w, edge_total = criterion.weights(g)
    n, full = g.n, 2**g.n - 1
    table = np.zeros(full + 1)
    for lo in range(1, full, ORACLE_BLOCK):
        # one row per subset, labelled 1 inside it: column 1 sums in the
        # node and stored-edge order a partition row's cluster sums use
        inside = (np.arange(lo, min(lo + ORACLE_BLOCK, full))[:, None] >> np.arange(n)) & 1
        mass = _cluster_sums(inside, node_w, 2)[:, 1] / node_total
        same = inside[:, tails] == inside[:, heads]
        within = _cluster_sums(inside[:, tails], edge_w * same, 2)[:, 1] / edge_total
        table[lo : lo + len(inside)] = list(map(criterion.term, mass.tolist(), within.tolist()))

    bits = 2.0 ** np.arange(n)
    best_val, best_k, best_a = -np.inf, 0, None
    for block in set_partitions(n):
        masks = _cluster_sums(block, bits, n).astype(np.int64)
        # add the clusters in index order, as a Python loop would (a pairwise
        # np.sum rounds differently); an empty one adds table[0] = 0.0
        values = np.zeros(len(block))
        for column in masks.T:
            values += table[column]
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
