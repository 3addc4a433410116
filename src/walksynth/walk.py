"""Stationary random walk induced by an undirected graph, the cluster walk
of a partition, and the mutual information of a walk's consecutive steps,
in bits, with the usual 0*log(0) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, row_sums
from .partitions import Partition


class IsolatedNodeError(ValueError):
    """A node with zero degree has no outgoing transition row."""


@dataclass(eq=False)
class RandomWalk:
    """Row-stochastic transition matrix plus its invariant distribution.

    The matrix is held as CSR arrays: row a's columns
    ``indices[indptr[a]:indptr[a + 1]]`` ascend, each once, with transition
    probabilities ``P`` at the same positions; transitions of probability 0
    are not stored.
    """

    indptr: np.ndarray
    indices: np.ndarray
    P: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        n = len(self.p)
        if len(self.indptr) != n + 1 or len(self.indices) != len(self.P):
            raise ValueError("transition matrix and distribution sizes differ")
        cols = self.indices
        if len(cols) and (
            cols.min() < 0 or cols.max() >= n or np.any(np.diff(self.rows * n + cols) <= 0)
        ):
            raise ValueError("each row's columns must lie in 0..n-1 and ascend")
        sums = row_sums(self.indptr, self.P)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValueError("transition rows must sum to 1")
        if np.any(self.p < 0) or abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("invariant distribution must be a probability vector")
        drift = np.abs(np.bincount(self.indices, weights=self.flows, minlength=n) - self.p)
        if drift.max(initial=0.0) > 1e-10:
            raise ValueError("distribution is not invariant under the transition matrix")

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of each stored transition."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @cached_property
    def flows(self) -> np.ndarray:
        """Stationary edge flows F = diag(p) P at the positions of ``P``; F
        sums to 1."""
        return self.p[self.rows] * self.P

    @cached_property
    def neighbour_flows(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per node, its other neighbours and twice the stationary flow to
        each (the flow both ways), as Python lists for scalar move scans.

        Raises:
            ValueError: flows that are not symmetric, as only an undirected
                walk's are.
        """
        rows, cols, f = self.rows, self.indices, self.flows
        # the transposed entries, sorted into the rows' order
        flipped = np.argsort(cols * self.n + rows)
        if not (
            np.array_equal(cols[flipped], rows)
            and np.array_equal(rows[flipped], cols)
            and np.all(np.abs(f[flipped] - f) <= 1e-15)
        ):
            raise ValueError("move gains need the symmetric flows of an undirected walk")
        keep = cols != rows
        bounds = np.concatenate(([0], np.cumsum(keep)))[self.indptr].tolist()
        idx = cols[keep].tolist()
        flow = (2.0 * f[keep]).tolist()
        spans = list(zip(bounds, bounds[1:]))
        return [idx[lo:hi] for lo, hi in spans], [flow[lo:hi] for lo, hi in spans]


def transition_matrix(g: Graph) -> RandomWalk:
    """Build the walk induced by edge weights: p_step(a -> b) proportional to
    w(a, b) among a's incident weights, with the exact degree-proportional
    invariant distribution (valid on disconnected graphs too).

    Raises:
        IsolatedNodeError: some node has zero degree.
    """
    return _walk_from_weights(*g.adjacency)


def _walk_from_weights(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> RandomWalk:
    """The walk of a symmetric weighted CSR adjacency, as in ``transition_matrix``."""
    degrees = row_sums(indptr, weights)
    if np.any(degrees <= 0.0):
        bad = int(np.argmin(degrees))
        raise IsolatedNodeError(f"node {bad} has zero degree")
    rows = np.repeat(np.arange(len(degrees)), np.diff(indptr))
    P = (1.0 / degrees)[rows] * weights
    # a zero-weight edge is no transition
    taken = P != 0.0
    if not taken.all():
        indptr = np.concatenate(([0], np.cumsum(taken)))[indptr]
        indices, P = indices[taken], P[taken]
    return RandomWalk(indptr, indices, P, degrees / degrees.sum())


def mass_and_within(walk: RandomWalk, assignment: np.ndarray, k: int) -> tuple:
    """Stationary mass and within-cluster flow of clusters 0..k-1; raises
    ValueError on a wrong-length assignment or a cluster of zero mass."""
    if len(assignment) != walk.n:
        raise ValueError(f"partition covers {len(assignment)} nodes, walk has {walk.n}")
    # bincount adds in stored order, as a Python loop would
    mass = np.bincount(assignment, weights=walk.p, minlength=k)
    if (mass <= 0.0).any():
        raise ValueError("every cluster needs positive stationary mass")
    same = assignment[walk.rows] == assignment[walk.indices]
    within = np.bincount(assignment[walk.rows[same]], weights=walk.flows[same], minlength=k)
    return mass, within


def cluster_aggregates(walk: RandomWalk, part: Partition) -> RandomWalk:
    """The cluster walk: one node per cluster, with the walk's stationary
    flows summed over each pair of clusters as its edge weights, so criteria
    of its singletons equal those of the partition on the node walk.

    Raises:
        ValueError: partition does not cover the walk's node set.
        IsolatedNodeError: some cluster carries no stationary flow.
    """
    if part.n != walk.n:
        raise ValueError(f"partition covers {part.n} nodes, walk has {walk.n}")
    k = part.num_clusters
    m = part.assignment
    # bincount adds each cell's flows in stored order, as a Python loop would
    cells = np.bincount(m[walk.rows] * k + m[walk.indices], weights=walk.flows, minlength=k * k)
    # the upper triangle stands for both directions, so the weights are symmetric
    f = np.triu(cells.reshape(k, k))
    f += np.triu(f, 1).T
    rows, cols = np.nonzero(f)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=k))))
    return _walk_from_weights(indptr, cols, f[rows, cols])


def mutual_info_nodes(walk: RandomWalk) -> float:
    """Mutual information in bits between consecutive walker positions."""
    # each row's columns are summed in descending order, so that reports keep
    # the bits of bound_node_mi that earlier versions wrote: the order of a
    # pairwise sum sets its last bits
    rows = walk.rows
    desc = walk.indptr[rows] + walk.indptr[rows + 1] - 1 - np.arange(len(rows))
    data, cols = walk.P[desc], walk.indices[desc]
    mask = (data > 0.0) & (walk.p[rows] > 0.0)
    data, rows, cols = data[mask], rows[mask], cols[mask]
    return float(np.sum(walk.p[rows] * data * np.log2(data / walk.p[cols])))
