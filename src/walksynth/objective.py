"""Partition quality criteria on stationary walks.

The primary criterion ("synthesis") scores a partition by how well a
block-structured synthetic walk can mimic the network's walk: per cluster it
takes the KL divergence between the conditional one-step stay probability and
the cluster's stationary mass, weighted by that mass. Modularity and the
cluster-level mutual information are carried as comparison criteria.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partitions import Partition
from .walk import (
    ClusterAggregates,
    RandomWalk,
    cluster_aggregates,
    kld_rate,
    mutual_info_clusters,
    mutual_info_nodes,
    transition_matrix,
)

#: Sentinel target for moving a node into a brand-new singleton cluster.
FRESH = -1

_BOUND_SLACK = 1e-9


# A criterion sums a term of each cluster's stationary mass and within-cluster
# flow: ``term`` on floats for move gains (numpy costs 60x more per call there),
# ``terms`` elementwise on arrays (a logarithm may differ in its last bit).
# ``dense_targets``: moves may target any cluster, not only flow-adjacent ones.
# ``weights(g)`` gives (node weights, total, edge tails, heads, weights, total):
# summed over a cluster and divided by the totals, mass and within-cluster flow.


class _Synthesis:
    """Mass t times the binary KL divergence in bits between the stay
    probability within / t and t; clusters of mass 0 or 1 score 0."""

    # a low stay probability scores too, so a node can gain by joining a
    # cluster it has no flow to
    dense_targets = True

    @staticmethod
    def term(mass: float, within: float) -> float:
        if mass <= 0.0 or mass >= 1.0:
            return 0.0
        s = within / mass
        if s < 0.0:
            s = 0.0
        elif s > 1.0:
            s = 1.0
        total = 0.0
        if s > 0.0:
            total += s * math.log2(s / mass)
        if s < 1.0:
            total += (1.0 - s) * math.log2((1.0 - s) / (1.0 - mass))
        return mass * total

    @staticmethod
    def terms(mass: np.ndarray, within: np.ndarray) -> np.ndarray:
        live = (mass > 0.0) & (mass < 1.0)
        t = np.where(live, mass, 0.5)
        s = np.clip(within / t, 0.0, 1.0)
        # log 1 = 0 stands in for the dropped 0 * log 0
        stay = s * np.log2(np.where(s > 0.0, s / t, 1.0))
        leave = (1.0 - s) * np.log2(np.where(s < 1.0, (1.0 - s) / (1.0 - t), 1.0))
        return np.where(live, t * (stay + leave), 0.0)

    @staticmethod
    def weights(g: Graph) -> tuple:
        walk = transition_matrix(g)
        f = walk.flows.tocoo()
        return walk.p, 1.0, f.row, f.col, f.data, 1.0


class _Modularity:
    """Flow-form modularity, within - mass**2: Newman's modularity on an
    unweighted undirected graph, and the optimizer's weighted form."""

    # a modularity gain needs shared flow
    dense_targets = False

    @staticmethod
    def term(mass, within):
        return within - mass * mass

    terms = term

    @staticmethod
    def weights(g: Graph) -> tuple:
        # exact edge and degree counts, so equal counts tie exactly (the
        # pairings of a 4-cycle and its single cluster all score 0)
        if not g.is_unweighted:
            raise ValueError("modularity is defined here for unweighted graphs only")
        m_edges = g.num_edges
        if m_edges == 0:
            raise ValueError("modularity needs at least one edge")
        return g.degrees, 2.0 * m_edges, g.u, g.v, np.ones(m_edges), m_edges


SYNTHESIS = _Synthesis()
MODULARITY = _Modularity()
#: the criteria the optimizer searches by moves, by objective name
CRITERIA = {"synthesis": SYNTHESIS, "modularity": MODULARITY}


@dataclass
class ObjectiveReport:
    """Synthesis objective value with its per-cluster terms and upper bounds.

    ``bound_cluster_mi`` is the mutual information of the induced cluster
    process; ``bound_node_mi`` is the node-level mutual information, which
    does not depend on the partition (None when the caller had no access to
    the full walk). The chain value <= bound_cluster_mi <= bound_node_mi
    holds up to numerical slack.
    """

    value: float
    per_cluster: np.ndarray
    bound_cluster_mi: float
    bound_node_mi: float | None = None

    def __post_init__(self):
        self.per_cluster = np.asarray(self.per_cluster, dtype=np.float64)
        if self.value < -_BOUND_SLACK:
            raise ValueError("objective value must be nonnegative")
        if self.value > self.bound_cluster_mi + _BOUND_SLACK:
            raise ValueError("objective value exceeds its cluster-level bound")
        if self.bound_node_mi is not None and self.bound_cluster_mi > self.bound_node_mi + _BOUND_SLACK:
            raise ValueError("cluster-level bound exceeds the node-level bound")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "per_cluster": [float(x) for x in self.per_cluster],
            "bound_cluster_mi": self.bound_cluster_mi,
            "bound_node_mi": self.bound_node_mi,
        }


def synthesis_objective(agg: ClusterAggregates, node_mi: float | None = None) -> ObjectiveReport:
    """Score cluster aggregates: sum over clusters of
    p_i * KLD(stay_probability_i || p_i), in bits.

    A single-cluster partition scores 0 by definition. Pass ``node_mi`` when
    the walk's node-level mutual information is available so the report can
    carry both bounds.

    Raises:
        ValueError: a cluster with zero stationary mass.
    """
    if np.any(agg.p_i <= 0.0):
        raise ValueError("every cluster needs positive stationary mass")
    if agg.num_clusters == 1:
        per = np.zeros(1)
    else:
        per = SYNTHESIS.terms(agg.p_i, np.diag(agg.p_ij))
    return ObjectiveReport(float(per.sum()), per, mutual_info_clusters(agg), node_mi)


def evaluate_partition(walk: RandomWalk, part: Partition) -> ObjectiveReport:
    """Full synthesis report for a partition of a walk, both bounds filled."""
    agg = cluster_aggregates(walk, part)
    return synthesis_objective(agg, node_mi=mutual_info_nodes(walk))


def modularity(g: Graph, part: Partition) -> float:
    """Newman modularity of a partition of an unweighted undirected graph.

    Raises:
        ValueError: weighted input, or node-count mismatch.
    """
    degrees, two_m, u, v, _, m_edges = MODULARITY.weights(g)
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} nodes, graph has {g.n}")
    assign = part.assignment
    internal = np.bincount(
        assign[u], weights=(assign[u] == assign[v]).astype(float), minlength=part.num_clusters
    )
    degree_sums = np.bincount(assign, weights=degrees, minlength=part.num_clusters)
    return float(np.sum(MODULARITY.terms(degree_sums / two_m, internal / m_edges)))


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
    agg = cluster_aggregates(walk, part)
    r = walk.p / agg.p_i[part.assignment]
    s = np.clip(1.0 - agg.stay_probabilities(), 0.0, 1.0)
    # a cluster holding all stationary mass has nowhere to leave to; kill
    # the accumulated-roundoff dust that would otherwise land in s
    s[agg.p_i >= 1.0] = 0.0
    return SyntheticWalkParams(r=r, s=s, u=agg.p_i.copy())


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
    lhs = kld_rate(walk.P, q, walk.p)
    agg = cluster_aggregates(walk, part)
    rhs = mutual_info_nodes(walk) - synthesis_objective(agg).value
    return lhs, rhs


class FlowMoveState:
    """Incremental evaluator for criteria that depend only on each cluster's
    stationary mass and within-cluster flow.

    Tracks the current assignment, each cluster's mass, within-cluster flow,
    size and current criterion term (``cluster_terms``, kept equal to
    ``term(mass[c], within[c])`` bit for bit), and supports O(degree) gain
    evaluation of single-node moves plus exact snapshot/restore, which the
    optimizer uses for its tentative move chains. A move targets an active
    cluster (one with members) or FRESH, a new singleton.

    The scan reads one value at a time, so the per-node state (``assignment``,
    ``node_mass``, ``self_flow``) and the per-cluster state (``mass``,
    ``within``, ``cluster_terms``) are Python lists, whose items are plain
    ints and floats; ``counts`` stays a numpy array. ``active`` lists the
    active cluster ids in ascending order, the dense scan's target order.

    Raises:
        ValueError: a partition of another size, or a walk whose flows are
            not symmetric.
    """

    def __init__(self, walk: RandomWalk, part: Partition, criterion=SYNTHESIS):
        n = walk.n
        if part.n != n:
            raise ValueError(f"partition covers {part.n} nodes, walk has {n}")
        # per node, its other neighbours and twice the flow to each; shared
        # by every state on this walk
        self.nbr_idx, self.nbr_flow = walk.neighbour_flows
        f = walk.flows
        self.walk = walk
        self.criterion = criterion
        self.term = criterion.term
        self.node_mass: list[float] = walk.p.tolist()
        self.self_flow: list[float] = f.diagonal().tolist()

        assignment = part.assignment
        k = part.num_clusters
        mass = np.zeros(n, dtype=np.float64)
        within = np.zeros(n, dtype=np.float64)
        self.counts = np.zeros(n, dtype=np.int64)
        np.add.at(mass, assignment, walk.p)
        coo = f.tocoo()
        same = assignment[coo.row] == assignment[coo.col]
        np.add.at(within, assignment[coo.row[same]], coo.data[same])
        np.add.at(self.counts, assignment, 1)
        self.assignment: list[int] = assignment.tolist()
        self.mass: list[float] = mass.tolist()
        self.within: list[float] = within.tolist()
        self.cluster_terms = [self.term(m, w) for m, w in zip(self.mass, self.within)]
        self.free_ids = [c for c in range(n - 1, k - 1, -1)]
        self.active = list(range(k))

    def flows_to_clusters(self, node: int) -> dict[int, float]:
        """Total stationary flow (both directions) between a node and each
        cluster holding at least one of its walk neighbors."""
        assign = self.assignment
        flows: dict[int, float] = {}
        for j, f in zip(self.nbr_idx[node], self.nbr_flow[node]):
            c = assign[j]
            flows[c] = flows.get(c, 0.0) + f
        return flows

    def _check_target(self, to_cluster: int) -> None:
        if to_cluster != FRESH and not (
            0 <= to_cluster < len(self.counts) and self.counts[to_cluster] > 0
        ):
            raise ValueError(f"move target {to_cluster} is neither FRESH nor an active cluster")

    def gains(self, node: int, targets: Iterable[int], flows: dict[int, float]) -> Iterator[float]:
        """Yield the objective change from moving ``node`` into each of
        ``targets`` in turn: active clusters other than its own, or FRESH.
        ``flows`` is ``flows_to_clusters(node)``. The source side is priced
        once, and each target by one criterion term."""
        a = self.assignment[node]
        p = self.node_mass[node]
        sl = self.self_flow[node]
        term, mass, within, cluster_terms = self.term, self.mass, self.within, self.cluster_terms
        old_a = cluster_terms[a]
        if self.counts[a] == 1:
            new_a = 0.0
        else:
            new_a = term(mass[a] - p, within[a] - flows.get(a, 0.0) - sl)
        for c in targets:
            new = new_a
            old = old_a
            if c == FRESH:
                new += term(p, sl)
            else:
                new += term(mass[c] + p, within[c] + flows.get(c, 0.0) + sl)
                old += cluster_terms[c]
            yield new - old

    def gain(self, node: int, to_cluster: int, flows: dict[int, float] | None = None) -> float:
        """Objective change from moving ``node`` into ``to_cluster`` (an
        active cluster, or FRESH for a new singleton), leaving everything
        else fixed.

        Raises:
            ValueError: a target that is neither FRESH nor an active cluster.
        """
        self._check_target(to_cluster)
        if to_cluster == self.assignment[node]:
            return 0.0
        if flows is None:
            flows = self.flows_to_clusters(node)
        return next(self.gains(node, (to_cluster,), flows))

    def apply(self, node: int, to_cluster: int) -> int:
        """Move the node into an active cluster or FRESH; returns the
        concrete target cluster id.

        Raises:
            ValueError: a target that is neither FRESH nor an active cluster.
        """
        self._check_target(to_cluster)
        a = self.assignment[node]
        if to_cluster == FRESH:
            # a singleton is already alone: it keeps its id
            if self.counts[a] == 1:
                return a
            to_cluster = self.free_ids.pop()
            insort(self.active, to_cluster)
        if to_cluster == a:
            return a
        flows = self.flows_to_clusters(node)
        p = self.node_mass[node]
        sl = self.self_flow[node]
        if self.counts[a] == 1:
            self.mass[a] = 0.0
            self.within[a] = 0.0
            self.counts[a] = 0
            self.free_ids.append(a)
            self.active.remove(a)
        else:
            self.mass[a] -= p
            self.within[a] -= flows.get(a, 0.0) + sl
            self.counts[a] -= 1
        self.mass[to_cluster] += p
        self.within[to_cluster] += flows.get(to_cluster, 0.0) + sl
        self.counts[to_cluster] += 1
        self.assignment[node] = to_cluster
        for c in (a, to_cluster):
            self.cluster_terms[c] = self.term(self.mass[c], self.within[c])
        return to_cluster

    def value(self) -> float:
        mass, within = np.array(self.mass)[self.active], np.array(self.within)[self.active]
        return float(np.sum(self.criterion.terms(mass, within)))

    def partition(self) -> Partition:
        return Partition(self.assignment)

    def snapshot(self) -> tuple:
        return (
            list(self.assignment),
            list(self.mass),
            list(self.within),
            self.counts.copy(),
            list(self.free_ids),
            list(self.cluster_terms),
            list(self.active),
        )

    def restore(self, snap: tuple) -> None:
        self.assignment, self.mass, self.within = list(snap[0]), list(snap[1]), list(snap[2])
        self.counts = snap[3].copy()
        self.free_ids, self.cluster_terms, self.active = list(snap[4]), list(snap[5]), list(snap[6])
