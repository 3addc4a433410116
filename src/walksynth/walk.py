"""Stationary random walk induced by an undirected graph, cluster-level
aggregates of its flows, and the information-theoretic quantities defined on
both.

All entropies, divergences, and mutual informations are in bits, with the
usual 0*log(0) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .graph import Graph
from .partitions import Partition


class IsolatedNodeError(ValueError):
    """A node with zero degree has no outgoing transition row."""


@dataclass(eq=False)
class RandomWalk:
    """Row-stochastic transition matrix plus its invariant distribution."""

    P: sparse.csr_matrix
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        n = self.P.shape[0]
        if self.P.shape != (n, n) or len(self.p) != n:
            raise ValueError("transition matrix and distribution sizes differ")
        rows = np.asarray(self.P.sum(axis=1)).ravel()
        if np.any(np.abs(rows - 1.0) > 1e-10):
            raise ValueError("transition rows must sum to 1")
        if np.any(self.p < 0) or abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("invariant distribution must be a probability vector")
        drift = np.abs(self.p @ self.P - self.p)
        if drift.max(initial=0.0) > 1e-10:
            raise ValueError("distribution is not invariant under the transition matrix")

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def flows(self) -> sparse.csr_matrix:
        """Stationary edge flows F = diag(p) P; F sums to 1."""
        return sparse.csr_matrix(self.P.multiply(self.p[:, None]))

    @cached_property
    def neighbour_flows(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per node, its other neighbours and twice the stationary flow to
        each (the flow both ways), as Python lists for scalar move scans.

        Raises:
            ValueError: flows that are not symmetric, as only an undirected
                walk's are.
        """
        f = self.flows
        if (abs(f - f.T) > 1e-15).nnz:
            raise ValueError("move gains need the symmetric flows of an undirected walk")
        rows = np.repeat(np.arange(self.n), np.diff(f.indptr))
        keep = f.indices != rows
        bounds = np.concatenate(([0], np.cumsum(keep)))[f.indptr].tolist()
        idx = f.indices[keep].tolist()
        flow = (2.0 * f.data[keep]).tolist()
        spans = list(zip(bounds, bounds[1:]))
        return [idx[lo:hi] for lo, hi in spans], [flow[lo:hi] for lo, hi in spans]


def transition_matrix(g: Graph) -> RandomWalk:
    """Build the walk induced by edge weights: p_step(a -> b) proportional to
    w(a, b) among a's incident weights, with the exact degree-proportional
    invariant distribution (valid on disconnected graphs too).

    Raises:
        IsolatedNodeError: some node has zero degree.
    """
    a = g.adjacency
    degrees = np.asarray(a.sum(axis=1)).ravel()
    if np.any(degrees <= 0.0):
        bad = int(np.argmin(degrees))
        raise IsolatedNodeError(f"node {bad} has zero degree")
    inv = sparse.diags(1.0 / degrees)
    P = sparse.csr_matrix(inv @ a)
    return RandomWalk(P=P, p=degrees / degrees.sum())


@dataclass(eq=False)
class ClusterAggregates:
    """Cluster masses p_i and joint one-step cluster flows p_ij."""

    p_i: np.ndarray
    p_ij: np.ndarray

    def __post_init__(self):
        self.p_i = np.asarray(self.p_i, dtype=np.float64)
        self.p_ij = np.asarray(self.p_ij, dtype=np.float64)
        k = len(self.p_i)
        if self.p_ij.shape != (k, k):
            raise ValueError("joint matrix shape must match cluster count")

    @property
    def num_clusters(self) -> int:
        return len(self.p_i)

    def stay_probabilities(self) -> np.ndarray:
        """Conditional one-step stay probability per cluster."""
        return np.diag(self.p_ij) / self.p_i


def cluster_aggregates(walk: RandomWalk, part: Partition) -> ClusterAggregates:
    """Aggregate stationary node flows over a partition.

    Raises:
        ValueError: partition does not cover the walk's node set, or some
            cluster carries zero stationary mass.
    """
    if part.n != walk.n:
        raise ValueError(f"partition covers {part.n} nodes, walk has {walk.n}")
    k = part.num_clusters
    m = part.assignment
    p_i = np.bincount(m, weights=walk.p, minlength=k)
    if np.any(p_i <= 0.0):
        bad = int(np.argmin(p_i))
        raise ValueError(f"cluster {bad} has zero stationary mass")
    f = walk.flows.tocoo()
    p_ij = np.zeros((k, k))
    np.add.at(p_ij, (m[f.row], m[f.col]), f.data)
    return ClusterAggregates(p_i=p_i, p_ij=p_ij)


def mutual_info_nodes(walk: RandomWalk) -> float:
    """Mutual information in bits between consecutive walker positions."""
    coo = walk.P.tocoo()
    mask = (coo.data > 0.0) & (walk.p[coo.row] > 0.0)
    data = coo.data[mask]
    rows = coo.row[mask]
    cols = coo.col[mask]
    return float(np.sum(walk.p[rows] * data * np.log2(data / walk.p[cols])))


def mutual_info_clusters(agg: ClusterAggregates) -> float:
    """Mutual information in bits between consecutive cluster occupancies."""
    p_ij = agg.p_ij
    outer = agg.p_i[:, None] * agg.p_i[None, :]
    mask = p_ij > 0.0
    return float(np.sum(p_ij[mask] * np.log2(p_ij[mask] / outer[mask])))


def kld_rate(P, Q, p: np.ndarray) -> float:
    """KL divergence rate in bits between two walks sharing the invariant
    distribution ``p``: sum over transitions of p_a P_ab log(P_ab / Q_ab).

    Returns +inf when Q assigns zero probability to a transition that P
    takes with positive stationary flow.

    Raises:
        ValueError: on dimension mismatch.
    """
    p = np.asarray(p, dtype=np.float64)
    n = len(p)
    q = np.asarray(Q.todense()) if sparse.issparse(Q) else np.asarray(Q, dtype=np.float64)
    if q.shape != (n, n):
        raise ValueError("matrix shapes must match the distribution length")
    coo = sparse.coo_matrix(P) if not sparse.issparse(P) else P.tocoo()
    if coo.shape != (n, n):
        raise ValueError("matrix shapes must match the distribution length")
    mask = (coo.data > 0.0) & (p[coo.row] > 0.0)
    data = coo.data[mask]
    rows = coo.row[mask]
    cols = coo.col[mask]
    qvals = q[rows, cols]
    if np.any(qvals <= 0.0):
        return float("inf")
    return float(np.sum(p[rows] * data * np.log2(data / qvals)))
