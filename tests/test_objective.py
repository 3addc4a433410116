"""Synthesis objective, synthetic-walk parameters, modularity, and the
incremental move evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksynth import (
    FRESH,
    ClusterAggregates,
    FlowMoveState,
    ObjectiveReport,
    Partition,
    SyntheticWalkParams,
    cluster_aggregates,
    disconnected_cliques,
    evaluate_partition,
    kld_rate,
    modularity,
    mutual_info_clusters,
    mutual_info_nodes,
    objective_identity_check,
    optimal_parameters,
    synthesis_objective,
    synthetic_transition_matrix,
    transition_matrix,
)
from walksynth.objective import MODULARITY, SYNTHESIS
from walksynth.optimizer import _best_move
from util import random_connected_graph, random_partition, triangle

LOG2_3_OVER_2 = math.log2(1.5)


def full_value(walk, assignment) -> float:
    # independent of the incremental state: fresh aggregates every time
    return synthesis_objective(cluster_aggregates(walk, Partition(assignment))).value


# ---------------------------------------------------------------- objective

def test_objective_two_triangles_true_partition():
    g, part = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    report = evaluate_partition(w, part)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(report.per_cluster, 0.5, atol=1e-12)
    assert report.bound_cluster_mi == pytest.approx(1.0, abs=1e-12)
    assert report.bound_node_mi == pytest.approx(math.log2(6.0) - 1.0, abs=1e-12)


def test_objective_single_cluster_is_exactly_zero():
    g, _ = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    report = evaluate_partition(w, Partition.single_cluster(6))
    assert report.value == 0.0


def test_objective_triangle_singletons():
    w = transition_matrix(triangle())
    report = evaluate_partition(w, Partition.singletons(3))
    assert report.value == pytest.approx(LOG2_3_OVER_2, abs=1e-12)
    assert report.per_cluster == pytest.approx([LOG2_3_OVER_2 / 3] * 3, abs=1e-12)


def test_objective_value_sums_per_cluster_terms():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 20)), 0.35)
        w = transition_matrix(g)
        report = evaluate_partition(w, random_partition(rng, g.n))
        assert report.value == pytest.approx(report.per_cluster.sum(), abs=1e-10)


def test_objective_rejects_zero_mass_cluster():
    agg = ClusterAggregates(p_i=np.array([1.0, 0.0]), p_ij=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        synthesis_objective(agg)


def test_objective_label_permutation_invariance():
    rng = np.random.default_rng(37)
    g = random_connected_graph(rng, 14, 0.3)
    w = transition_matrix(g)
    part = random_partition(rng, g.n, k_max=5)
    perm = rng.permutation(part.num_clusters)
    relabeled = Partition(perm[part.assignment])
    a = evaluate_partition(w, part)
    b = evaluate_partition(w, relabeled)
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert modularity(g, part) == pytest.approx(modularity(g, relabeled), abs=1e-12)
    assert mutual_info_clusters(cluster_aggregates(w, part)) == pytest.approx(
        mutual_info_clusters(cluster_aggregates(w, relabeled)), abs=1e-12
    )


def test_report_validates_bound_chain():
    with pytest.raises(ValueError):
        ObjectiveReport(value=-0.5, per_cluster=np.array([-0.5]), bound_cluster_mi=1.0)
    with pytest.raises(ValueError):
        ObjectiveReport(value=1.0, per_cluster=np.array([1.0]), bound_cluster_mi=0.5)
    with pytest.raises(ValueError):
        ObjectiveReport(
            value=0.1, per_cluster=np.array([0.1]), bound_cluster_mi=1.0, bound_node_mi=0.5
        )


def test_report_to_json():
    g, part = disconnected_cliques([3, 3])
    report = evaluate_partition(transition_matrix(g), part)
    data = report.to_json()
    assert set(data) == {"value", "per_cluster", "bound_cluster_mi", "bound_node_mi"}
    assert isinstance(data["per_cluster"], list)
    partial = synthesis_objective(cluster_aggregates(transition_matrix(g), part))
    assert partial.to_json()["bound_node_mi"] is None


# --------------------------------------------------------- synthetic walks

def test_optimal_parameters_two_triangles():
    g, part = disconnected_cliques([3, 3])
    params = optimal_parameters(transition_matrix(g), part)
    assert np.allclose(params.r, 1.0 / 3.0)
    assert np.allclose(params.s, 0.0)
    assert np.allclose(params.u, 0.5)
    params.validate(part)


def test_optimal_parameters_single_cluster():
    w = transition_matrix(triangle())
    params = optimal_parameters(w, Partition.single_cluster(3))
    assert np.array_equal(params.r, w.p)
    assert np.allclose(params.s, 0.0)
    assert np.allclose(params.u, [1.0])


def test_optimal_parameters_triangle_split():
    # cluster {0} always leaves; cluster {1, 2} keeps half its flow
    w = transition_matrix(triangle())
    part = Partition([0, 1, 1])
    params = optimal_parameters(w, part)
    assert params.s[0] == pytest.approx(1.0, abs=1e-12)
    assert params.s[1] == pytest.approx(0.5, abs=1e-12)
    assert params.r == pytest.approx([1.0, 0.5, 0.5], abs=1e-12)
    assert params.u == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)


def test_synthetic_matrix_rank_one_for_single_cluster():
    w = transition_matrix(triangle())
    part = Partition.single_cluster(3)
    q = synthetic_transition_matrix(part, optimal_parameters(w, part))
    for row in q:
        assert np.allclose(row, w.p, atol=1e-12)


def test_synthetic_matrix_two_triangles_block_uniform():
    g, part = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    q = synthetic_transition_matrix(part, optimal_parameters(w, part))
    expected = np.zeros((6, 6))
    expected[:3, :3] = 1.0 / 3.0
    expected[3:, 3:] = 1.0 / 3.0
    assert np.allclose(q, expected, atol=1e-12)


def test_synthetic_matrix_rows_sum_to_one_for_random_params():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        part = random_partition(rng, n, k_max=max(2, n // 2))
        k = part.num_clusters
        r = np.empty(n)
        for members in part.members():
            r[members] = rng.dirichlet(np.ones(len(members)))
        s = rng.uniform(0, 1, size=k)
        u = rng.dirichlet(np.ones(k))
        if k == 1:
            s[:] = 0.0
            u[:] = 1.0
        q = synthetic_transition_matrix(part, SyntheticWalkParams(r=r, s=s, u=u))
        assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-10
        assert np.all(q >= 0.0)


def test_synthetic_matrix_rejects_total_mass_cluster_with_leave():
    part = Partition([0, 0, 1])
    r = np.array([0.5, 0.5, 1.0])
    params = SyntheticWalkParams(r=r, s=np.array([0.5, 0.0]), u=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        synthetic_transition_matrix(part, params)


def test_params_validation_catches_bad_shapes():
    part = Partition([0, 0, 1])
    with pytest.raises(ValueError):
        SyntheticWalkParams(r=np.ones(3), s=np.zeros(2), u=np.ones(1))
    params = SyntheticWalkParams(
        r=np.array([0.7, 0.7, 1.0]), s=np.zeros(2), u=np.array([0.5, 0.5])
    )
    with pytest.raises(ValueError):
        params.validate(part)  # cluster 0's r sums to 1.4


# ----------------------------------------------------------- the identity

def test_identity_two_triangles_equality():
    g, part = disconnected_cliques([3, 3])
    lhs, rhs = objective_identity_check(transition_matrix(g), part)
    assert lhs == pytest.approx(LOG2_3_OVER_2, abs=1e-12)
    assert rhs == pytest.approx(LOG2_3_OVER_2, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_identity_single_cluster_gives_node_mi():
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 10, 0.4)
    w = transition_matrix(g)
    lhs, rhs = objective_identity_check(w, Partition.single_cluster(g.n))
    assert lhs == pytest.approx(mutual_info_nodes(w), abs=1e-10)
    assert rhs == pytest.approx(mutual_info_nodes(w), abs=1e-10)


def test_identity_inequality_on_random_pairs():
    rng = np.random.default_rng(47)
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(3, 20)), 0.35)
        w = transition_matrix(g)
        lhs, rhs = objective_identity_check(w, random_partition(rng, g.n))
        assert lhs <= rhs + 1e-9


def test_identity_lhs_is_a_kld_rate():
    g, part = disconnected_cliques([3, 4])
    w = transition_matrix(g)
    params = optimal_parameters(w, part)
    q = synthetic_transition_matrix(part, params)
    lhs, _ = objective_identity_check(w, part)
    assert lhs == pytest.approx(kld_rate(w.P, q, w.p), abs=1e-15)


# ---------------------------------------------------------------- modularity

def test_modularity_fixtures():
    g, part = disconnected_cliques([3, 3])
    assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)
    assert modularity(g, Partition.single_cluster(6)) == pytest.approx(0.0, abs=1e-15)
    t = triangle()
    assert modularity(t, Partition.singletons(3)) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_modularity_four_cycle_adjacent_pairs():
    g = load_four_cycle()
    assert modularity(g, Partition([0, 0, 1, 1])) == pytest.approx(0.0, abs=1e-15)
    assert modularity(g, Partition([0, 1, 1, 0])) == pytest.approx(0.0, abs=1e-15)
    assert modularity(g, Partition([0, 1, 0, 1])) == pytest.approx(-0.5, abs=1e-15)


def load_four_cycle():
    from walksynth import Graph

    return Graph(n=4, u=np.array([0, 1, 2, 3]), v=np.array([1, 2, 3, 0]), w=np.ones(4))


def test_modularity_input_restrictions():
    from walksynth import Graph

    weighted = Graph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([2.0]))
    with pytest.raises(ValueError):
        modularity(weighted, Partition.single_cluster(2))
    g, part = disconnected_cliques([3, 3])
    with pytest.raises(ValueError):
        modularity(g, Partition.singletons(5))


def test_modularity_and_its_exhaustive_optimum_match_networkx():
    nx = pytest.importorskip("networkx")
    from walksynth import brute_force_optimum, set_partitions

    def nx_modularity(g, assignment):
        graph = nx.Graph()
        graph.add_nodes_from(range(g.n))
        graph.add_edges_from(zip(g.u.tolist(), g.v.tolist()))
        return nx.community.modularity(graph, Partition(assignment).members())

    rng = np.random.default_rng(97)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 30)), 0.3)
        part = random_partition(rng, g.n)
        assert modularity(g, part) == pytest.approx(nx_modularity(g, part.assignment), abs=1e-12)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 8)), 0.4)
        part, value = brute_force_optimum(g, objective="modularity")
        best = max(nx_modularity(g, a) for a in set_partitions(g.n))
        assert value == pytest.approx(best, abs=1e-12)
        assert nx_modularity(g, part.assignment) == pytest.approx(value, abs=1e-12)


# ------------------------------------------------------------ move deltas

def test_delta_true_partition_degrades_when_split():
    g, part = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    state = FlowMoveState(w, part)
    for node in range(6):
        other = 1 - int(part.assignment[node])
        assert state.gain(node, other) < 0.0
        assert state.gain(node, FRESH) < 0.0


def test_delta_move_and_back_cancels():
    rng = np.random.default_rng(53)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(4, 15)), 0.4)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        state = FlowMoveState(w, part)
        node = int(rng.integers(0, g.n))
        a = int(state.assignment[node])
        targets = [c for c in np.unique(state.assignment) if c != a]
        if not targets:
            continue
        b = int(targets[rng.integers(0, len(targets))])
        d1 = state.gain(node, b)
        state.apply(node, b)
        # a move into an emptied cluster is a FRESH move
        d2 = state.gain(node, a if state.counts[a] else FRESH)
        assert d1 + d2 == pytest.approx(0.0, abs=1e-12)


def test_delta_matches_recompute_on_random_moves():
    # both criteria the optimizer moves by, each against a recomputation that
    # shares no code with the move state (modularity against the edge-count
    # form, which the flow form equals on unweighted graphs)
    recompute = {
        SYNTHESIS: lambda g, w, assignment: full_value(w, assignment),
        MODULARITY: lambda g, w, assignment: modularity(g, Partition(assignment)),
    }
    for criterion, value_of in recompute.items():
        rng = np.random.default_rng(59)
        kinds = {"fresh": 0, "emptying": 0, "same": 0, "other": 0}
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(4, 16)), 0.35)
            w = transition_matrix(g)
            part = random_partition(rng, g.n)
            state = FlowMoveState(w, part, criterion)
            for _ in range(20):
                node = int(rng.integers(0, g.n))
                a = int(state.assignment[node])
                candidates = [int(c) for c in np.unique(state.assignment)]
                if state.counts[a] > 1:
                    candidates.append(FRESH)
                target = candidates[rng.integers(0, len(candidates))]
                if target == a:
                    kinds["same"] += 1
                elif target == FRESH:
                    kinds["fresh"] += 1
                elif state.counts[a] == 1:
                    kinds["emptying"] += 1
                else:
                    kinds["other"] += 1
                before = value_of(g, w, state.assignment)
                gain = state.gain(node, target)
                state.apply(node, target)
                after = value_of(g, w, state.assignment)
                assert gain == pytest.approx(after - before, abs=1e-9)
        assert min(kinds.values()) > 0, kinds


def test_scalar_and_array_terms_agree():
    masses = [0.0, 1e-12, 0.05, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0]
    for criterion in (SYNTHESIS, MODULARITY):
        pairs = []
        for mass in masses:
            # stay probabilities below 0 and above 1 (roundoff) clip to 0 and 1
            for stay in (-1e-3, 0.0, 1e-9, 0.3, mass, 0.99, 1.0, 1.0 + 1e-3):
                pairs.append((mass, stay * mass))
        mass_arr, within_arr = np.array(pairs).T
        arr = criterion.terms(mass_arr, within_arr)
        assert arr.shape == mass_arr.shape
        for (mass, within), got in zip(pairs, arr):
            assert abs(criterion.term(mass, within) - got) <= 1e-15, (mass, within)


def test_state_value_matches_fresh_evaluation():
    rng = np.random.default_rng(61)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 18)), 0.3)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        state = FlowMoveState(w, part)
        assert state.value() == pytest.approx(full_value(w, state.assignment), abs=1e-10)


def test_state_fresh_move_opens_new_cluster():
    g, part = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    state = FlowMoveState(w, part)
    k_before = int((state.counts > 0).sum())
    concrete = state.apply(0, FRESH)
    assert state.assignment[0] == concrete
    assert int((state.counts > 0).sum()) == k_before + 1
    assert state.counts[concrete] == 1


def test_state_fresh_move_of_a_singleton_keeps_its_id():
    # with every node alone no id is free, and none is needed: the move
    # changes nothing, and gain() prices it at 0
    g, _ = disconnected_cliques([3, 3])
    state = FlowMoveState(transition_matrix(g), Partition.singletons(6))
    before = state.snapshot()
    assert state.gain(0, FRESH) == 0.0
    assert state.apply(0, FRESH) == 0
    assert np.array_equal(state.assignment, before[0])
    assert state.free_ids == before[4] == []
    assert state.cluster_terms == before[5]


def test_state_emptying_move_frees_cluster():
    g, _ = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    state = FlowMoveState(w, Partition([0, 0, 0, 1, 1, 2]))
    state.apply(5, 1)  # node 5 was the only member of cluster 2
    assert state.counts[2] == 0
    assert state.mass[2] == 0.0
    assert state.within[2] == 0.0
    assert int((state.counts > 0).sum()) == 2


def test_state_snapshot_restore_is_exact():
    rng = np.random.default_rng(67)
    g = random_connected_graph(rng, 12, 0.4)
    w = transition_matrix(g)
    state = FlowMoveState(w, random_partition(rng, g.n))
    snap = state.snapshot()
    before = state.value()
    terms_before = list(state.cluster_terms)
    for _ in range(10):
        node = int(rng.integers(0, g.n))
        if rng.random() < 0.3:
            state.apply(node, FRESH)
        else:
            active = np.flatnonzero(state.counts > 0)
            state.apply(node, int(active[rng.integers(0, len(active))]))
    state.restore(snap)
    assert state.value() == before
    assert np.array_equal(state.assignment, snap[0])
    assert state.cluster_terms == terms_before


def test_state_rejects_moves_into_inactive_clusters():
    # an empty id is not a target: moving into one used to leave it among
    # the free ids, so a later FRESH move landed in an occupied cluster and
    # its gain priced the wrong move
    g, _ = disconnected_cliques([3, 3])
    state = FlowMoveState(transition_matrix(g), Partition([0, 0, 0, 1, 1, 1]))
    before = state.snapshot()
    for target in (5, 2, 6, -2):
        with pytest.raises(ValueError, match="neither FRESH nor an active cluster"):
            state.gain(0, target)
        with pytest.raises(ValueError, match="neither FRESH nor an active cluster"):
            state.apply(0, target)
    assert np.array_equal(state.assignment, before[0])
    assert state.free_ids == before[4]
    for node in (1, 3, 4):
        state.apply(node, FRESH)
    value = state.value()
    gain = state.gain(5, FRESH)
    fresh = state.apply(5, FRESH)
    assert state.counts[fresh] == 1
    assert len(np.unique(state.assignment)) == int((state.counts > 0).sum()) == 5
    assert state.value() - value == pytest.approx(gain, abs=1e-12)


_STATE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["move", "fresh", "snapshot", "restore"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([SYNTHESIS, MODULARITY]), st.integers(0, 2**32 - 1), st.integers(3, 12),
       _STATE_OPS)
def test_cached_terms_and_best_move_match_lone_gains(criterion, seed, n, ops):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, 0.4)
    state = FlowMoveState(transition_matrix(g), random_partition(rng, n), criterion)
    snap = state.snapshot()

    def apply_checked(target):
        # every move kind changes the value by exactly its priced gain
        before, gain = state.value(), state.gain(node, target)
        state.apply(node, target)
        assert state.value() == pytest.approx(before + gain, abs=1e-9), target

    for op, i, j in ops:
        node = i % n
        if op == "move":
            # any active cluster: the node's own, another, or one it empties
            active = np.flatnonzero(state.counts > 0)
            apply_checked(int(active[j % len(active)]))
        elif op == "fresh":
            apply_checked(FRESH)
        elif op == "snapshot":
            snap = state.snapshot()
        elif op == "restore":
            state.restore(snap)
        for c in range(n):
            assert state.cluster_terms[c] == criterion.term(state.mass[c], state.within[c]), c
        # the scan reads Python ints: the active ids, the flow keys, the target
        assert state.active == np.flatnonzero(state.counts > 0).tolist()

        # the scan's choice is the first strict maximum of gain() in scan order
        node = j % n
        a = int(state.assignment[node])
        if criterion.dense_targets:
            order = np.flatnonzero(state.counts > 0).tolist()
        else:
            order = list(state.flows_to_clusters(node))
        order = [c for c in order if c != a] + ([FRESH] if state.counts[a] > 1 else [])
        best_gain, best = -math.inf, None
        for c in order:
            gain = state.gain(node, c)
            if gain > best_gain:
                best_gain, best = gain, c
        got_gain, got = _best_move(state, node, -math.inf)
        assert (got, repr(got_gain)) == (best, repr(best_gain))
        assert all(type(c) is int for c in state.flows_to_clusters(node))
        assert got is None or type(got) is int
