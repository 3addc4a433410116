"""Random-walk construction and the information quantities defined on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksynth import (
    Graph,
    IsolatedNodeError,
    Partition,
    RandomWalk,
    cluster_aggregates,
    disconnected_cliques,
    mutual_info_nodes,
    transition_matrix,
)
from walksynth.objective import SYNTHESIS
from walksynth.walk import mass_and_within
from util import (
    dense,
    kld_rate,
    random_connected_graph,
    random_partition,
    reference_cluster_walk,
    triangle,
    path3,
)

LOG2_3_OVER_2 = math.log2(1.5)  # 0.5849625007211562


def mi_nodes_oracle(walk) -> float:
    # independent summation straight from the definition
    P = dense(walk, walk.P)
    total = 0.0
    for a in range(walk.n):
        for b in range(walk.n):
            if P[a, b] > 0 and walk.p[a] > 0:
                total += walk.p[a] * P[a, b] * math.log2(P[a, b] / walk.p[b])
    return total


def lazy_power_iteration(P, n: int) -> np.ndarray:
    # (P + I)/2 shares the invariant distribution and kills periodicity
    p = np.full(n, 1.0 / n)
    for _ in range(200_000):
        nxt = 0.5 * (p @ P) + 0.5 * p
        nxt = np.asarray(nxt).ravel()
        nxt /= nxt.sum()
        if np.abs(nxt - p).sum() < 1e-14:
            return nxt
        p = nxt
    raise AssertionError("oracle power iteration did not converge")


# ------------------------------------------------------------ construction

def test_triangle_walk():
    w = transition_matrix(triangle())
    P = dense(w, w.P)
    expected = np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    assert np.array_equal(P, expected)
    assert np.array_equal(w.p, np.full(3, 1.0 / 3.0))


def test_path_walk_is_degree_proportional():
    w = transition_matrix(path3())
    assert np.array_equal(w.p, np.array([0.25, 0.5, 0.25]))


def test_two_triangles_uniform_stationary():
    g, _ = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    assert np.allclose(w.p, 1.0 / 6.0)


def test_self_loop_clique_rows_are_uniform():
    g, _ = disconnected_cliques([3, 3], with_self_loops=True)
    w = transition_matrix(g)
    P = dense(w, w.P)
    block = np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(P[:3, :3], block)
    assert np.all(P[:3, 3:] == 0.0)


def test_walk_rejects_rows_out_of_column_order():
    # a transition stored twice, or columns out of order, would be summed
    # wrong by the node mutual information
    for indices in ([1, 0, 0, 1], [0, 0, 0, 1], [0, 2, 0, 1]):
        with pytest.raises(ValueError, match="ascend"):
            RandomWalk(np.array([0, 2, 4]), np.array(indices), np.full(4, 0.5), np.full(2, 0.5))


def test_isolated_node_is_rejected():
    g = Graph(n=3, u=np.array([0]), v=np.array([1]), w=np.array([1.0]))
    with pytest.raises(IsolatedNodeError):
        transition_matrix(g)


def test_closed_form_matches_power_iteration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 25)), 0.3)
        w = transition_matrix(g)
        oracle = lazy_power_iteration(dense(w, w.P), g.n)
        assert np.abs(w.p - oracle).max() < 1e-9


def test_stationarity_on_random_graphs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 30)), 0.4)
        w = transition_matrix(g)
        assert np.abs(w.p @ dense(w, w.P) - w.p).max() < 1e-12


def test_flows_sum_to_one():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 12, 0.3)
    w = transition_matrix(g)
    assert abs(w.flows.sum() - 1.0) < 1e-12


# -------------------------------------------------------------- aggregates

def test_aggregates_two_triangles_true_partition():
    g, part = disconnected_cliques([3, 3])
    cw = cluster_aggregates(transition_matrix(g), part)
    assert np.allclose(cw.p, [0.5, 0.5])
    assert np.allclose(dense(cw, cw.flows), [[0.5, 0.0], [0.0, 0.5]])
    # each cluster's stay probability
    assert np.allclose(np.diag(dense(cw, cw.P)), 1.0)


def test_aggregates_triangle_singletons():
    w = transition_matrix(triangle())
    cw = cluster_aggregates(w, Partition.singletons(3))
    flows = dense(cw, cw.flows)
    assert np.allclose(np.diag(flows), 0.0)
    off = flows[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.0 / 6.0)


def test_aggregates_single_cluster():
    w = transition_matrix(path3())
    cw = cluster_aggregates(w, Partition.single_cluster(3))
    assert cw.p[0] == pytest.approx(1.0, abs=1e-15)
    assert dense(cw, cw.flows)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_aggregates_of_singletons_reproduce_flows_exactly():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 15, 0.3)
    w = transition_matrix(g)
    part = Partition.singletons(g.n)
    mass, within = mass_and_within(w, part.assignment, part.num_clusters)
    assert np.array_equal(mass, w.p)
    assert np.array_equal(within, np.diag(dense(w, w.flows)))
    cw, ref = cluster_aggregates(w, part), reference_cluster_walk(w, part)
    for name in ("indptr", "indices", "P", "p"):
        assert np.array_equal(getattr(cw, name), getattr(ref, name)), name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    st.lists(st.integers(1, 8), min_size=4 * n, max_size=4 * n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.booleans(),
)))
def test_cluster_walk_is_the_walk_of_the_cluster_flow_graph(case):
    # the optimizer's coarse levels search this walk, so any change in its
    # bits can change the partitions found; a path through the drawn node
    # order keeps every degree positive, and the extra pairs may repeat or be
    # self-loops
    order, extra, weights, labels, weighted = case
    pairs = [tuple(sorted(pair)) for pair in [*zip(order, order[1:]), *extra]]
    if not pairs:
        pairs = [(order[0], order[0])]
    u, v = np.array(pairs).T
    w = np.array(weights[:len(pairs)]) / 3.0 if weighted else np.ones(len(pairs))
    walk = transition_matrix(Graph(n=len(order), u=u, v=v, w=w))
    part = Partition(labels)
    cw, ref = cluster_aggregates(walk, part), reference_cluster_walk(walk, part)
    for name in ("indptr", "indices", "P", "p"):
        assert np.array_equal(getattr(cw, name), getattr(ref, name)), name


def test_aggregates_row_sums_match_masses():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 25)), 0.35)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        mass, _ = mass_and_within(w, part.assignment, part.num_clusters)
        cw = cluster_aggregates(w, part)
        assert abs(mass.sum() - 1.0) < 1e-12
        assert np.abs(dense(cw, cw.flows).sum(axis=1) - mass).max() < 1e-10
        assert np.abs(cw.p - mass).max() < 1e-10


def test_aggregates_require_matching_node_count():
    w = transition_matrix(triangle())
    with pytest.raises(ValueError):
        cluster_aggregates(w, Partition.singletons(4))


# ------------------------------------------------------------- divergences

# the synthesis term of a cluster of mass t and within-cluster flow s * t is
# t times the binary KL divergence in bits between stay probability s and t

def test_binary_kld_fixtures():
    assert SYNTHESIS.term(0.5, 0.25) == 0.0
    assert SYNTHESIS.term(0.5, 0.5) == 0.5
    assert SYNTHESIS.term(1.0 / 3.0, 0.0) == pytest.approx(LOG2_3_OVER_2 / 3.0, abs=1e-15)


def test_binary_kld_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = float(rng.uniform(0, 1))
        t = float(rng.uniform(1e-6, 1 - 1e-6))
        assert SYNTHESIS.term(t, s * t) >= 0.0
    assert SYNTHESIS.term(0.25, 0.0625) == 0.0


def test_mutual_info_triangle():
    w = transition_matrix(triangle())
    assert mutual_info_nodes(w) == pytest.approx(LOG2_3_OVER_2, abs=1e-12)


def test_mutual_info_two_triangles():
    g, _ = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    # H(X) - H(X|X') = log2(6) - 1
    assert mutual_info_nodes(w) == pytest.approx(math.log2(6.0) - 1.0, abs=1e-12)


def test_mutual_info_uniform_rows_is_zero():
    g, _ = disconnected_cliques([5], with_self_loops=True)
    w = transition_matrix(g)
    assert mutual_info_nodes(w) == 0.0


def test_mutual_info_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 20)), 0.35)
        w = transition_matrix(g)
        assert mutual_info_nodes(w) == pytest.approx(mi_nodes_oracle(w), abs=1e-12)


def test_cluster_mi_fixtures():
    g, part = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    assert mutual_info_nodes(cluster_aggregates(w, part)) == pytest.approx(1.0, abs=1e-12)
    assert mutual_info_nodes(
        cluster_aggregates(w, Partition.single_cluster(6))
    ) == pytest.approx(0.0, abs=1e-12)


def test_cluster_mi_of_singletons_equals_node_mi():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 12, 0.4)
    w = transition_matrix(g)
    cw = cluster_aggregates(w, Partition.singletons(g.n))
    assert mutual_info_nodes(cw) == pytest.approx(mutual_info_nodes(w), abs=1e-12)


def test_data_processing_inequality():
    # coarse-graining the chain can only lose information
    rng = np.random.default_rng(23)
    for _ in range(1000):
        g = random_connected_graph(rng, int(rng.integers(3, 50)), 0.25)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        cw = cluster_aggregates(w, part)
        assert mutual_info_nodes(cw) <= mutual_info_nodes(w) + 1e-9


def test_kld_rate_identical_chains():
    w = transition_matrix(triangle())
    assert kld_rate(dense(w, w.P), dense(w, w.P), w.p) == 0.0


def test_kld_rate_zero_iff_equal_on_support():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 15)), 0.4)
        w = transition_matrix(g)
        q = dense(w, w.P).copy()
        assert kld_rate(dense(w, w.P), q, w.p) == pytest.approx(0.0, abs=1e-15)
        # shift mass within one positive row: rate must become positive
        row = int(rng.integers(0, g.n))
        idx = np.nonzero(q[row] > 0)[0]
        if len(idx) < 2:
            continue
        q[row, idx[0]] *= 0.5
        q[row, idx[1]] += q[row, idx[0]]
        assert kld_rate(dense(w, w.P), q, w.p) > 0.0


def test_kld_rate_absolute_continuity_violation():
    w = transition_matrix(triangle())
    q = dense(w, w.P).copy()
    q[0, 1] = 0.0
    q[0, 2] = 1.0
    assert kld_rate(dense(w, w.P), q, w.p) == math.inf


def test_kld_rate_dimension_mismatch():
    w = transition_matrix(triangle())
    with pytest.raises(ValueError):
        kld_rate(dense(w, w.P), np.eye(4), w.p)

