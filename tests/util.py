"""Shared fixture builders for the test suite, and reference versions of
package code that the tests check the package against."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from walksynth import FRESH, Graph, Partition, RandomWalk, evaluate_partition, transition_matrix
from walksynth.objective import CRITERIA
from walksynth.optimizer import MIN_GAIN, _cluster_sums
from walksynth.walk import mass_and_within


def gnp_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    a, b = np.triu_indices(n, k=1)
    keep = rng.random(len(a)) < p
    return Graph(n=n, u=a[keep], v=b[keep], w=np.ones(int(keep.sum())))


def random_connected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Rejection-sample G(n, p) until connected (implies positive degrees)."""
    while True:
        g = gnp_graph(rng, n, p)
        if not g.num_edges:
            continue
        indptr, indices, data = g.adjacency
        if connected_components(sparse.csr_matrix((data, indices, indptr), shape=(n, n)))[0] == 1:
            return g


def weighted_version(rng: np.random.Generator, g: Graph) -> Graph:
    """``g`` with random edge weights and self-loops on about half its nodes."""
    loops = np.flatnonzero(rng.random(g.n) < 0.5)
    u, v = np.concatenate([g.u, loops]), np.concatenate([g.v, loops])
    return Graph(n=g.n, u=u, v=v, w=rng.uniform(0.1, 3.0, len(u)))


def dense(walk, values: np.ndarray) -> np.ndarray:
    """A walk's per-transition values (``P`` or ``flows``) as a dense matrix."""
    out = np.zeros((walk.n, walk.n))
    out[walk.rows, walk.indices] = values
    return out


def random_partition(rng: np.random.Generator, n: int, k_max: int | None = None) -> Partition:
    k = int(rng.integers(1, (k_max or n) + 1))
    assignment = rng.integers(0, k, size=n)
    return Partition(assignment)


def triangle() -> Graph:
    return Graph(n=3, u=np.array([0, 0, 1]), v=np.array([1, 2, 2]), w=np.ones(3))


def path3() -> Graph:
    return Graph(n=3, u=np.array([0, 1]), v=np.array([1, 2]), w=np.ones(2))


def reference_cluster_walk(walk, part: Partition):
    """The walk of the graph whose edges are a partition's cluster flows: the
    flows summed one stored transition at a time, in the walk's order, and
    the upper triangle taken as undirected edges, each self-loop at half its
    flow because a self-loop counts twice in its node's degree."""
    k = part.num_clusters
    f = np.zeros((k, k))
    for a, b, x in zip(walk.rows, walk.indices, walk.flows):
        f[part.assignment[a], part.assignment[b]] += x
    u, v = np.nonzero(np.triu(f))
    w = np.where(u == v, f[u, v] / 2.0, f[u, v])
    return transition_matrix(Graph(n=k, u=u, v=v, w=w))


def reference_gain(state, node: int, target: int) -> float:
    """The objective change of moving ``node`` into ``target`` (an active
    cluster or FRESH), priced from the state's cluster sums with the
    criterion's ``term`` in the scan's float order: the source cluster's new
    term, then the target's, less the old terms in the same order. A move
    that changes nothing is worth 0."""
    a = state.assignment[node]
    alone = state.counts[a] == 1
    if target == a or (target == FRESH and alone):
        return 0.0
    term, mass, within = state.criterion.term, state.mass, state.within
    p, sl = state.node_mass[node], state.self_flow[node]
    flows = state.flows_to_clusters(node)
    new = 0.0 if alone else term(mass[a] - p, within[a] - flows.get(a, 0.0) - sl)
    old = term(mass[a], within[a])
    if target == FRESH:
        return (new + term(p, sl)) - old
    new += term(mass[target] + p, within[target] + flows.get(target, 0.0) + sl)
    old += term(mass[target], within[target])
    return new - old


def reference_chain_pass(state) -> bool:
    """The chained-move escape by rescanning: before each step, price every
    unmoved node with ``best_move`` and make the best move, the first node's
    on a tie; then keep the best prefix if it gained more than MIN_GAIN, or
    roll everything back."""
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
            g, target = state.best_move(node, -np.inf)
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


def reference_brute_force(g: Graph, objective: str = "synthesis") -> tuple[Partition, float]:
    """The exhaustive oracle one partition at a time: Knuth's Algorithm H
    (TAOCP 4A, 7.2.1.5) steps through the restricted-growth strings in
    lexicographic order, each is copied, and 4096 at a time are stacked and
    scored row by row: each row's cluster sums, ``criterion.term`` of each,
    added in cluster order. The best value wins, then fewer clusters, then
    the first."""

    def block_values(block: np.ndarray) -> np.ndarray:
        node_w, node_total, tails, heads, edge_w, edge_total = weights
        n = block.shape[1]
        mass = _cluster_sums(block, node_w, n) / node_total
        same = block[:, tails] == block[:, heads]
        within = _cluster_sums(block[:, tails], edge_w * same, n) / edge_total
        values = np.zeros(len(block))
        # add the clusters in index order; an empty cluster adds term(0, 0) = 0
        for mass_c, within_c in zip(mass.T.tolist(), within.T.tolist()):
            values += [criterion.term(m, w) for m, w in zip(mass_c, within_c)]
        values[block.max(axis=1) == 0] = 0.0
        return values

    def restricted_growth_strings(n: int):
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

    criterion = CRITERIA[objective]
    weights = criterion.weights(g)
    best_val, best_k, best_a = -np.inf, 0, None
    partitions = restricted_growth_strings(g.n)
    while len(block := np.array([a.copy() for a in islice(partitions, 4096)])):
        values = block_values(block)
        ks = block.max(axis=1) + 1
        top = np.flatnonzero(values == values.max())
        i = top[np.argmin(ks[top])]
        if values[i] > best_val or (values[i] == best_val and ks[i] < best_k):
            best_val, best_k, best_a = values[i], ks[i], block[i]
    return Partition(best_a), float(best_val)


# The paper's synthetic walk as a dense n x n matrix, and the KL divergence
# rate on dense matrices: the reference side of the divergence identity
# (acceptance criterion 04). The package keeps only the CSR walk.


@dataclass
class SyntheticWalkParams:
    """Parameters of the block-structured synthetic walk.

    ``r`` holds one entry per node: the within-cluster visit distribution of
    the node's own cluster (each cluster's entries sum to 1). ``s`` is the
    per-cluster leave probability, ``u`` the cluster choice distribution used
    after leaving.
    """

    r: np.ndarray
    s: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64)
        self.s = np.asarray(self.s, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if len(self.s) != len(self.u):
            raise ValueError("s and u must have one entry per cluster")

    def validate(self, part: Partition) -> None:
        if len(self.r) != part.n or len(self.s) != part.num_clusters:
            raise ValueError("parameter shapes do not match the partition")
        sums = np.bincount(part.assignment, weights=self.r, minlength=part.num_clusters)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("per-cluster node distributions must sum to 1")
        if np.any((self.s < 0) | (self.s > 1)):
            raise ValueError("leave probabilities must lie in [0, 1]")
        if np.any(self.u < 0) or abs(self.u.sum() - 1.0) > 1e-12:
            raise ValueError("cluster choice distribution must be a probability vector")


def optimal_parameters(walk: RandomWalk, part: Partition) -> SyntheticWalkParams:
    """Divergence-minimizing synthetic-walk parameters for a partition:
    within-cluster distributions proportional to stationary mass, leave
    probabilities matching the walk's, and cluster choice equal to cluster
    mass."""
    mass, within = mass_and_within(walk, part.assignment, part.num_clusters)
    r = walk.p / mass[part.assignment]
    s = np.clip(1.0 - within / mass, 0.0, 1.0)
    # a cluster holding all stationary mass has nowhere to leave to; kill
    # the accumulated-roundoff dust that would otherwise land in s
    s[mass >= 1.0] = 0.0
    return SyntheticWalkParams(r=r, s=s, u=mass)


def synthetic_transition_matrix(part: Partition, params: SyntheticWalkParams) -> np.ndarray:
    """Dense transition matrix of the synthetic walk.

    Within cluster i: q(a -> b) = r_b (1 - s_i). Across clusters i -> j:
    q(a -> b) = r_b s_i u_j / (1 - u_i).

    Raises:
        ValueError: invalid parameters, or u_i = 1 with s_i > 0 (leaving a
            cluster that holds all choice mass is ill-defined).
    """
    params.validate(part)
    m = part.assignment
    s_row = params.s[m]
    u_row = params.u[m]
    remain = 1.0 - u_row
    if np.any((remain <= 0.0) & (s_row > 0.0)):
        raise ValueError("u = 1 with positive leave probability is ill-defined")
    cross = np.where(remain > 0.0, s_row / np.where(remain > 0.0, remain, 1.0), 0.0)
    same = m[:, None] == m[None, :]
    q = params.r[None, :] * np.where(
        same, (1.0 - s_row)[:, None], cross[:, None] * params.u[m][None, :]
    )
    rows = q.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-12):
        raise ValueError("synthetic rows failed to normalize")
    return q


def objective_identity_check(walk: RandomWalk, part: Partition) -> tuple[float, float]:
    """Evaluate both sides of the divergence identity.

    Left side: KL divergence rate between the walk and the optimal synthetic
    walk for this partition. Right side: node-level mutual information minus
    the synthesis objective. The left side never exceeds the right side (up
    to numerics); equality holds when no cluster switches occur or the
    cluster choice distribution is exact.
    """
    params = optimal_parameters(walk, part)
    q = synthetic_transition_matrix(part, params)
    P = np.zeros((walk.n, walk.n))
    P[walk.rows, walk.indices] = walk.P
    lhs = kld_rate(P, q, walk.p)
    report = evaluate_partition(walk, part)
    return lhs, report.bound_node_mi - report.value


def kld_rate(P: np.ndarray, Q: np.ndarray, p: np.ndarray) -> float:
    """KL divergence rate in bits between two walks, given as dense
    transition matrices, sharing the invariant distribution ``p``: sum over
    transitions of p_a P_ab log(P_ab / Q_ab).

    Returns +inf when Q assigns zero probability to a transition that P
    takes with positive stationary flow.

    Raises:
        ValueError: on dimension mismatch.
    """
    p = np.asarray(p, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    n = len(p)
    if P.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("matrix shapes must match the distribution length")
    rows, cols = np.nonzero((P > 0.0) & (p[:, None] > 0.0))
    data = P[rows, cols]
    qvals = Q[rows, cols]
    if np.any(qvals <= 0.0):
        return float("inf")
    return float(np.sum(p[rows] * data * np.log2(data / qvals)))
