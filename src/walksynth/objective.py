"""Partition quality criteria on stationary walks.

The primary criterion ("synthesis") scores a partition by how well a
block-structured synthetic walk can mimic the network's walk: per cluster it
takes the KL divergence between the conditional one-step stay probability and
the cluster's stationary mass, weighted by that mass. Modularity is carried
as a comparison criterion, and the cluster-level mutual information as the
synthesis value's upper bound.

The search moves one node at a time through ``FlowMoveState``. A move is
priced by ``best_move``, which scans a node's targets, prices each from the
cached cluster sums and returns the best; ``apply`` then makes it.
``MoveRows`` runs the same scan on cached join terms, to keep every node's
best move current across the steps of a chained-move escape.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partitions import Partition
from .walk import (
    RandomWalk,
    cluster_aggregates,
    mass_and_within,
    mutual_info_nodes,
    transition_matrix,
)

#: Sentinel target for moving a node into a brand-new singleton cluster.
FRESH = -1

_BOUND_SLACK = 1e-9


# A criterion sums a term of each cluster's stationary mass and within-cluster
# flow. ``term`` on floats is its one formula: moves, reports, round values and
# the oracle all price a cluster with it, so they agree bit for bit.
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
    def weights(g: Graph) -> tuple:
        walk = transition_matrix(g)
        return walk.p, 1.0, walk.rows, walk.indices, walk.flows, 1.0


class _Modularity:
    """Flow-form modularity, within - mass**2: Newman's modularity, with edge
    weights on a weighted graph."""

    # a modularity gain needs shared flow
    dense_targets = False

    @staticmethod
    def term(mass, within):
        # plain arithmetic, so also elementwise on arrays, with the same bits
        return within - mass * mass

    @staticmethod
    def weights(g: Graph) -> tuple:
        # exact edge and degree counts on an unweighted graph, so equal counts
        # tie exactly (the pairings of a 4-cycle and its single cluster all score 0)
        total = g.w.sum()
        if not total > 0.0:
            raise ValueError("modularity needs positive total edge weight")
        return g.degrees, 2.0 * total, g.u, g.v, g.w, total


SYNTHESIS = _Synthesis()
MODULARITY = _Modularity()
#: the criteria the optimizer searches by moves, by objective name
CRITERIA = {"synthesis": SYNTHESIS, "modularity": MODULARITY}
OBJECTIVES = tuple(CRITERIA)


def criterion_for(objective: str):
    """The criterion of an objective name.

    Raises:
        ValueError: a name not in OBJECTIVES.
    """
    if objective not in CRITERIA:
        raise ValueError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    return CRITERIA[objective]


@dataclass
class ObjectiveReport:
    """Synthesis objective value with its per-cluster terms and upper bounds.

    ``bound_cluster_mi`` is the mutual information of the induced cluster
    process; ``bound_node_mi`` is the node-level mutual information, which
    does not depend on the partition. The chain value <= bound_cluster_mi
    <= bound_node_mi holds up to numerical slack.
    """

    value: float
    per_cluster: np.ndarray
    bound_cluster_mi: float
    bound_node_mi: float

    def __post_init__(self):
        self.per_cluster = np.asarray(self.per_cluster, dtype=np.float64)
        if self.value < -_BOUND_SLACK:
            raise ValueError("objective value must be nonnegative")
        if self.value > self.bound_cluster_mi + _BOUND_SLACK:
            raise ValueError("objective value exceeds its cluster-level bound")
        if self.bound_cluster_mi > self.bound_node_mi + _BOUND_SLACK:
            raise ValueError("cluster-level bound exceeds the node-level bound")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "per_cluster": [float(x) for x in self.per_cluster],
            "bound_cluster_mi": self.bound_cluster_mi,
            "bound_node_mi": self.bound_node_mi,
        }


def evaluate_partition(walk: RandomWalk, part: Partition) -> ObjectiveReport:
    """Synthesis objective of a partition, sum over clusters of
    p_i * KLD(stay_probability_i || p_i) in bits (0 for a single cluster),
    with both of its bounds: the node mutual information of the cluster walk
    and of the walk itself.

    Raises:
        ValueError: a partition of another size, or a cluster with zero
            stationary mass.
    """
    per = partition_terms(walk, part, SYNTHESIS)
    cluster_mi = mutual_info_nodes(cluster_aggregates(walk, part))
    return ObjectiveReport(float(per.sum()), per, cluster_mi, mutual_info_nodes(walk))


def partition_terms(walk: RandomWalk, part: Partition, criterion) -> np.ndarray:
    """Each cluster's ``criterion.term``, in cluster order; [0.0] for a
    single cluster. Raises ``mass_and_within``'s ``ValueError``s."""
    mass, within = mass_and_within(walk, part.assignment, part.num_clusters)
    if part.num_clusters == 1:
        return np.zeros(1)
    return np.array(list(map(criterion.term, mass.tolist(), within.tolist())))


def modularity(g: Graph, part: Partition) -> float:
    """Newman modularity of a partition of an undirected graph, with edge
    weights in place of edge counts on a weighted graph.

    Raises:
        ValueError: zero total edge weight, or node-count mismatch.
    """
    degrees, two_m, u, v, w, m = MODULARITY.weights(g)
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} nodes, graph has {g.n}")
    assign = part.assignment
    internal = np.bincount(
        assign[u], weights=w * (assign[u] == assign[v]), minlength=part.num_clusters
    )
    degree_sums = np.bincount(assign, weights=degrees, minlength=part.num_clusters)
    return float(np.sum(MODULARITY.term(degree_sums / two_m, internal / m)))


class FlowMoveState:
    """Incremental evaluator for criteria that depend only on each cluster's
    stationary mass and within-cluster flow.

    Tracks the current assignment, each cluster's mass, within-cluster flow,
    size and current criterion term (``cluster_terms``, kept equal to
    ``term(mass[c], within[c])`` bit for bit). ``best_move`` prices all of a
    node's moves in one scan and ``apply`` makes one; exact snapshot/restore
    serves the optimizer's tentative move chains. A move targets an active
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
        n, k = walk.n, part.num_clusters
        assignment = part.assignment
        mass, within = mass_and_within(walk, assignment, k)
        # per node, its other neighbours and twice the flow to each; shared
        # by every state on this walk
        self.nbr_idx, self.nbr_flow = walk.neighbour_flows
        self.walk = walk
        self.criterion = criterion
        self.term = criterion.term
        # a node's mass and self-loop flow are those of its singleton
        node_mass, self_flow = mass_and_within(walk, np.arange(n), n)
        self.node_mass: list[float] = node_mass.tolist()
        self.self_flow: list[float] = self_flow.tolist()

        self.counts = np.bincount(assignment, minlength=n)
        self.assignment: list[int] = assignment.tolist()
        # the free ids k..n-1 hold no cluster
        self.mass: list[float] = mass.tolist() + [0.0] * (n - k)
        self.within: list[float] = within.tolist() + [0.0] * (n - k)
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

    def best_move(self, node: int, min_gain: float) -> tuple[float, int | None]:
        """The best single move of ``node``: (gain, target) for the first
        target whose objective change is the strict maximum above
        ``min_gain``, or (min_gain, None) if no move beats it.

        Targets come in one fixed order: under ``dense_targets`` the active
        clusters in ascending order, else the clusters the node has flow to,
        in order of first neighbour; the node's own cluster is skipped; FRESH
        comes last, unless the node is alone. The source side is priced once,
        and each target by one criterion term added after it: float addition
        is not associative, so another order would move gains by an ulp,
        change which near-tied move wins, and with it the partitions found.
        ``MoveRows._pick`` repeats this scan on cached terms; change both
        together.
        """
        flows = self.flows_to_clusters(node)
        a = self.assignment[node]
        p = self.node_mass[node]
        sl = self.self_flow[node]
        term, mass, within, cluster_terms = self.term, self.mass, self.within, self.cluster_terms
        old_a = cluster_terms[a]
        alone = self.counts[a] == 1
        new_a = 0.0 if alone else term(mass[a] - p, within[a] - flows.get(a, 0.0) - sl)
        best_gain, best = min_gain, None
        for c in self.active if self.criterion.dense_targets else flows:
            if c == a:
                continue
            gain = (new_a + term(mass[c] + p, within[c] + flows.get(c, 0.0) + sl)) - (
                old_a + cluster_terms[c]
            )
            if gain > best_gain:
                best_gain, best = gain, c
        if not alone:
            gain = (new_a + term(p, sl)) - old_a
            if gain > best_gain:
                best_gain, best = gain, FRESH
        return best_gain, best

    def apply(self, node: int, to_cluster: int) -> int:
        """Move the node into an active cluster or FRESH; returns the
        concrete target cluster id.

        Raises:
            ValueError: a target that is neither FRESH nor an active cluster.
        """
        a = self.assignment[node]
        if to_cluster == FRESH:
            # a singleton is already alone: it keeps its id
            if self.counts[a] == 1:
                return a
            to_cluster = self.free_ids.pop()
            insort(self.active, to_cluster)
        elif not (0 <= to_cluster < len(self.counts) and self.counts[to_cluster] > 0):
            raise ValueError(f"move target {to_cluster} is neither FRESH nor an active cluster")
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


class MoveRows:
    """The best move of each node of ``state`` not yet moved by ``move``:
    ``gains[node]`` and ``targets[node]``; (-inf, None) for a moved node or
    one with no move.

    Per node it caches its flows to clusters, its join term
    ``term(mass[c] + p, within[c] + flow to c + sl)`` for each target c, and
    the new term of its own cluster without it. ``_pick`` is ``best_move``'s
    scan on these terms, with its targets, their order, its gain expression
    and its strict ``>``, so it returns what ``best_move(node, -inf)`` does;
    a change to one needs the same change to the other.
    """

    def __init__(self, state: FlowMoveState):
        self.state = state
        self.dense = state.criterion.dense_targets
        n = len(state.assignment)
        # nodes of equal mass and self-loop flow have equal join terms for
        # every cluster they have no flow to
        kinds: dict[tuple[float, float], int] = {}
        self.kind = [kinds.setdefault(ps, len(kinds)) for ps in zip(state.node_mass, state.self_flow)]
        self.num_kinds = len(kinds)
        fresh = [state.term(p, sl) for p, sl in kinds]
        self.fresh = [fresh[k] for k in self.kind]
        self.flows = [state.flows_to_clusters(y) for y in range(n)]
        self.joins = [[0.0] * n for _ in range(n)]
        self.new_a, self.alone = [0.0] * n, [False] * n
        self.gains, self.targets = [-math.inf] * n, [None] * n
        self.unmoved, self.moved = list(range(n)), [False] * n
        for c in state.active:
            self._column(c)
        for y in self.unmoved:
            self._own(y)
            self._pick(y)

    def _column(self, c: int) -> None:
        """Price cluster ``c``'s join terms for the unmoved nodes that can join it."""
        st = self.state
        term, assignment, node_mass, self_flow = st.term, st.assignment, st.node_mass, st.self_flow
        mc, wc = st.mass[c], st.within[c]
        dense, kind, flows, joins = self.dense, self.kind, self.flows, self.joins
        shared: list[float | None] = [None] * self.num_kinds
        for y in self.unmoved:
            if assignment[y] == c:
                continue
            f = flows[y].get(c)
            if f is not None:
                joins[y][c] = term(mc + node_mass[y], wc + f + self_flow[y])
            elif dense:
                t = shared[kind[y]]
                if t is None:
                    # best_move adds the missing flow as 0.0
                    t = shared[kind[y]] = term(mc + node_mass[y], wc + 0.0 + self_flow[y])
                joins[y][c] = t

    def _own(self, y: int) -> None:
        st = self.state
        a = st.assignment[y]
        self.alone[y] = alone = st.counts[a] == 1
        self.new_a[y] = 0.0 if alone else st.term(
            st.mass[a] - st.node_mass[y], st.within[a] - self.flows[y].get(a, 0.0) - st.self_flow[y]
        )

    def _pick(self, y: int) -> None:
        st = self.state
        a = st.assignment[y]
        cluster_terms, row, new_a = st.cluster_terms, self.joins[y], self.new_a[y]
        old_a = cluster_terms[a]
        best_gain, best = -math.inf, None
        for c in st.active if self.dense else self.flows[y]:
            if c == a:
                continue
            gain = (new_a + row[c]) - (old_a + cluster_terms[c])
            if gain > best_gain:
                best_gain, best = gain, c
        if not self.alone[y]:
            gain = (new_a + self.fresh[y]) - old_a
            if gain > best_gain:
                best_gain, best = gain, FRESH
        self.gains[y], self.targets[y] = best_gain, best

    def move(self, x: int, target: int) -> None:
        """Apply the move of unmoved node ``x`` to ``target``, then reprice
        what it changed: the flows of ``x``'s neighbours, the join terms of
        its old and new cluster, the own terms of their members, and the best
        move of every node whose best may have changed."""
        st = self.state
        a0 = st.assignment[x]
        b0 = st.apply(x, target)
        self.unmoved.remove(x)
        self.moved[x] = True
        self.gains[x], self.targets[x] = -math.inf, None
        moved, flows = self.moved, self.flows
        for y in st.nbr_idx[x]:
            if not moved[y]:
                flows[y] = st.flows_to_clusters(y)
        changed = (a0, b0) if st.counts[a0] else (b0,)
        for c in changed:
            self._column(c)
        assignment, cluster_terms, joins = st.assignment, st.cluster_terms, self.joins
        gains, targets, new_a, dense = self.gains, self.targets, self.new_a, self.dense
        for y in self.unmoved:
            a = assignment[y]
            if a == a0 or a == b0:
                self._own(y)
            elif targets[y] != a0 and targets[y] != b0:
                # every other gain kept its bits: the best changes only if
                # a changed cluster now prices at or above it
                best, na, old_a, row = gains[y], new_a[y], cluster_terms[a], joins[y]
                for c in changed:
                    if (dense or c in flows[y]) and (na + row[c]) - (old_a + cluster_terms[c]) >= best:
                        break
                else:
                    continue
            self._pick(y)
