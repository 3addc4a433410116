"""Synthesis objective, synthetic-walk parameters, modularity, and the
incremental move evaluator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walksynth import (
    FRESH,
    FlowMoveState,
    IsolatedNodeError,
    ObjectiveReport,
    Partition,
    PlantedPartitionParams,
    RandomWalk,
    cluster_aggregates,
    evaluate_partition,
    modularity,
    mutual_info_nodes,
    planted_partition,
    transition_matrix,
)
from walksynth.objective import MODULARITY, SYNTHESIS
from walksynth.optimizer import MIN_GAIN, _local_moving, _partition_value
from util import (
    SyntheticWalkParams,
    dense,
    disconnected_cliques,
    kld_rate,
    objective_identity_check,
    optimal_parameters,
    random_connected_graph,
    random_partition,
    reference_gain,
    synthetic_transition_matrix,
    triangle,
    weighted_version,
)

LOG2_3_OVER_2 = math.log2(1.5)


def full_value(walk, assignment) -> float:
    # independent of the incremental state: fresh cluster sums every time
    return evaluate_partition(walk, Partition(assignment)).value


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
    # node 1 carries no stationary mass: it steps to node 0, which stays put
    walk = RandomWalk(
        indptr=np.array([0, 1, 2]), indices=np.array([0, 0]), P=np.array([1.0, 1.0]),
        p=np.array([1.0, 0.0]),
    )
    with pytest.raises(ValueError, match="positive stationary mass"):
        evaluate_partition(walk, Partition([0, 1]))


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
    assert mutual_info_nodes(cluster_aggregates(w, part)) == pytest.approx(
        mutual_info_nodes(cluster_aggregates(w, relabeled)), abs=1e-12
    )


def test_report_validates_bound_chain():
    with pytest.raises(ValueError):
        ObjectiveReport(
            value=-0.5, per_cluster=np.array([-0.5]), bound_cluster_mi=1.0, bound_node_mi=2.0
        )
    with pytest.raises(ValueError):
        ObjectiveReport(
            value=1.0, per_cluster=np.array([1.0]), bound_cluster_mi=0.5, bound_node_mi=2.0
        )
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
    assert lhs == pytest.approx(kld_rate(dense(w, w.P), q, w.p), abs=1e-15)


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

    # edge weights count in place of edges, a self-loop once inside its
    # cluster and twice in its node's degree: 3/6 - (9/12)**2 - (3/12)**2
    weighted = Graph(n=3, u=np.array([0, 0, 1]), v=np.array([0, 1, 2]), w=np.array([1.0, 2.0, 3.0]))
    assert modularity(weighted, Partition([0, 0, 1])) == pytest.approx(-0.125, abs=1e-15)
    weightless = Graph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([0.0]))
    with pytest.raises(ValueError):
        modularity(weightless, Partition.single_cluster(2))
    g, part = disconnected_cliques([3, 3])
    with pytest.raises(ValueError):
        modularity(g, Partition.singletons(5))


def test_modularity_and_its_exhaustive_optimum_match_networkx():
    nx = pytest.importorskip("networkx")
    from walksynth import brute_force_optimum, set_partitions

    def nx_modularity(g, assignment):
        graph = nx.Graph()
        graph.add_nodes_from(range(g.n))
        graph.add_weighted_edges_from(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
        return nx.community.modularity(graph, Partition(assignment).members())

    rng = np.random.default_rng(97)
    small, large = [], []
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 30)), 0.3)
        large.append((g, random_partition(rng, g.n)))
    for _ in range(5):
        small.append(random_connected_graph(rng, int(rng.integers(4, 8)), 0.4))
    weights = np.random.default_rng(98)
    large += [(weighted_version(weights, g), part) for g, part in large]
    small += [weighted_version(weights, g) for g in small]
    for g, part in large:
        assert modularity(g, part) == pytest.approx(nx_modularity(g, part.assignment), abs=1e-12)
        # the search's flow form scores the same partition alike
        flow = _partition_value(transition_matrix(g), part, MODULARITY)
        assert modularity(g, part) == pytest.approx(flow, abs=1e-12)
    for g in small:
        part, value = brute_force_optimum(g, objective="modularity")
        best = max(nx_modularity(g, a) for block in set_partitions(g.n) for a in block)
        assert value == pytest.approx(best, abs=1e-12)
        assert nx_modularity(g, part.assignment) == pytest.approx(value, abs=1e-12)


# ------------------------------------------------------------ move deltas

def test_delta_true_partition_degrades_when_split():
    g, part = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    state = FlowMoveState(w, part)
    for node in range(6):
        # the best move, into the other clique or FRESH, loses
        gain, target = state.best_move(node, -math.inf)
        assert target in (1 - int(part.assignment[node]), FRESH)
        assert gain < 0.0


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
        d1 = reference_gain(state, node, b)
        state.apply(node, b)
        # a move into an emptied cluster is a FRESH move
        d2 = reference_gain(state, node, a if state.counts[a] else FRESH)
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
        kinds = {"fresh": 0, "emptying": 0, "other": 0}
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
                # the best move changes the value by exactly its gain
                gain, best = state.best_move(node, -math.inf)
                if best is not None:
                    if best == FRESH:
                        kinds["fresh"] += 1
                    elif state.counts[a] == 1:
                        kinds["emptying"] += 1
                    else:
                        kinds["other"] += 1
                    snap = state.snapshot()
                    before = value_of(g, w, state.assignment)
                    state.apply(node, best)
                    after = value_of(g, w, state.assignment)
                    state.restore(snap)
                    assert gain == pytest.approx(after - before, abs=1e-9)
                state.apply(node, target)
        assert min(kinds.values()) > 0, kinds


def test_term_edges_clipping_and_modularity_on_arrays():
    masses = [0.0, 1e-12, 0.05, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0]
    pairs = []
    for mass in masses:
        # stay probabilities below 0 and above 1 (roundoff) score as 0 and 1
        stays = (-1e-3, 0.0, 1e-9, 0.3, mass, 0.99, 1.0, 1.0 + 1e-3)
        pairs += [(mass, stay * mass) for stay in stays]
        terms = [SYNTHESIS.term(mass, stay * mass) for stay in stays]
        assert all(math.isfinite(t) and t >= 0.0 for t in terms), mass
        if mass in (0.0, 1.0):
            assert terms == [0.0] * len(stays)
        assert repr(terms[0]) == repr(SYNTHESIS.term(mass, 0.0))
        assert repr(terms[-1]) == repr(SYNTHESIS.term(mass, mass))
    assert MODULARITY.term(0.0, 0.0) == 0.0
    # modularity() applies the scalar term to arrays, which must keep its bits
    mass_arr, within_arr = np.array(pairs).T
    arr = MODULARITY.term(mass_arr, within_arr)
    for (mass, within), got in zip(pairs, arr.tolist()):
        assert repr(got) == repr(MODULARITY.term(mass, within)), (mass, within)


def test_state_value_matches_fresh_evaluation():
    rng = np.random.default_rng(61)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 18)), 0.3)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        state = FlowMoveState(w, part)
        # the cached terms of the active clusters sum to the value
        cached = sum(state.cluster_terms[c] for c in state.active)
        assert cached == pytest.approx(full_value(w, state.assignment), abs=1e-10)


def test_reports_carry_the_search_prices():
    # reports, round values and moves price a cluster with one formula, so
    # they agree bit for bit on whatever CPU runs them
    rng = np.random.default_rng(67)
    checked = 0
    for seed in range(1, 21):
        g, _ = planted_partition(PlantedPartitionParams([10] * 20, 6, 0.3), seed)
        try:
            walk = transition_matrix(g)
        except IsolatedNodeError:
            continue
        for _ in range(20):
            part = random_partition(rng, g.n, 40)
            per = evaluate_partition(walk, part).per_cluster
            assert _partition_value(walk, part, SYNTHESIS) == float(np.sum(per))
            if part.num_clusters == 1:
                # scored 0 by definition; its summed mass may miss 1 by an ulp
                assert per.tolist() == [0.0]
                continue
            prices = FlowMoveState(walk, part).cluster_terms
            for c, term in enumerate(per.tolist()):
                assert repr(term) == repr(prices[c]), (seed, c)
            checked += 1
    assert checked >= 200


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
    # changes nothing, and best_move() never offers it
    g, _ = disconnected_cliques([3, 3])
    state = FlowMoveState(transition_matrix(g), Partition.singletons(6))
    before = state.snapshot()
    assert state.best_move(0, -math.inf)[1] not in (0, FRESH)
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
    before = _partition_value(w, state.partition(), SYNTHESIS)
    terms_before = list(state.cluster_terms)
    for _ in range(10):
        node = int(rng.integers(0, g.n))
        if rng.random() < 0.3:
            state.apply(node, FRESH)
        else:
            active = np.flatnonzero(state.counts > 0)
            state.apply(node, int(active[rng.integers(0, len(active))]))
    state.restore(snap)
    assert _partition_value(w, state.partition(), SYNTHESIS) == before
    assert np.array_equal(state.assignment, snap[0])
    assert state.cluster_terms == terms_before


def test_state_rejects_moves_into_inactive_clusters():
    # an empty id is not a target: moving into one used to leave it among
    # the free ids, so a later FRESH move landed in an occupied cluster and
    # its gain priced the wrong move
    g, _ = disconnected_cliques([3, 3])
    w = transition_matrix(g)
    state = FlowMoveState(w, Partition([0, 0, 0, 1, 1, 1]))
    before = state.snapshot()
    for target in (5, 2, 6, -2):
        with pytest.raises(ValueError, match="neither FRESH nor an active cluster"):
            state.apply(0, target)
    assert np.array_equal(state.assignment, before[0])
    assert state.free_ids == before[4]
    for node in (1, 3, 4):
        state.apply(node, FRESH)
    value = _partition_value(w, state.partition(), SYNTHESIS)
    gain = reference_gain(state, 5, FRESH)
    fresh = state.apply(5, FRESH)
    assert state.counts[fresh] == 1
    assert len(np.unique(state.assignment)) == int((state.counts > 0).sum()) == 5
    after = _partition_value(w, state.partition(), SYNTHESIS)
    assert after - value == pytest.approx(gain, abs=1e-12)


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

    def value():
        return _partition_value(state.walk, state.partition(), criterion)

    def apply_checked(target):
        # every move kind changes the value by exactly its priced gain
        before, gain = value(), reference_gain(state, node, target)
        state.apply(node, target)
        assert value() == pytest.approx(before + gain, abs=1e-9), target

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

        # the scan's choice is the first strict maximum of the reference gains
        # in scan order, bit for bit
        node = j % n
        a = int(state.assignment[node])
        if criterion.dense_targets:
            order = np.flatnonzero(state.counts > 0).tolist()
        else:
            order = list(state.flows_to_clusters(node))
        order = [c for c in order if c != a] + ([FRESH] if state.counts[a] > 1 else [])
        best_gain, best = -math.inf, None
        for c in order:
            gain = reference_gain(state, node, c)
            if gain > best_gain:
                best_gain, best = gain, c
        got_gain, got = state.best_move(node, -math.inf)
        assert (got, repr(got_gain)) == (best, repr(best_gain))
        assert all(type(c) is int for c in state.flows_to_clusters(node))
        assert got is None or type(got) is int


@pytest.mark.parametrize("criterion", [SYNTHESIS, MODULARITY])
def test_best_move_keeps_min_gain_and_offers_no_null_move(criterion):
    # on the clique truth every move loses, so nothing beats a gain of 0
    g, truth = disconnected_cliques([3, 3])
    state = FlowMoveState(transition_matrix(g), truth, criterion)
    for node in range(6):
        assert state.best_move(node, 0.0) == (0.0, None)
    rng = np.random.default_rng(71)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(3, 12)), 0.4)
        state = FlowMoveState(transition_matrix(g), random_partition(rng, g.n), criterion)
        for node in range(g.n):
            a = state.assignment[node]
            gain, target = state.best_move(node, -math.inf)
            # never the node's own cluster, never FRESH for a node alone
            assert target != a
            assert not (target == FRESH and state.counts[a] == 1)
            # a move only counts if it beats min_gain strictly
            assert state.best_move(node, gain) == (gain, None)
            assert state.best_move(node, math.inf) == (math.inf, None)


def _ascending_scan(state, node: int, min_gain: float) -> tuple[float, int | None]:
    """best_move's choice by pricing every active cluster in ascending order,
    then FRESH: the first strict maximum above ``min_gain``."""
    a = state.assignment[node]
    best_gain, best = min_gain, None
    targets = [c for c in state.active if c != a] + ([FRESH] if state.counts[a] > 1 else [])
    for c in targets:
        gain = reference_gain(state, node, c)
        if gain > best_gain:
            best_gain, best = gain, c
    return best_gain, best


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 80), st.booleans(),
       st.sampled_from(["singletons", "shuffled", "random", "settled", "coarse"]))
def test_best_move_matches_the_ascending_scan(seed, n, weighted, start):
    # unweighted nodes have no self-loop flow and take the pruned scan;
    # about half the weighted ones have a self-loop and scan every cluster
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, min(0.5, 5.0 / n))
    if weighted:
        g = weighted_version(rng, g)
    if start == "shuffled":
        # singletons whose ids do not follow node order, so flow targets
        # that tie exactly come in another order than their ids
        state = FlowMoveState(transition_matrix(g), Partition.single_cluster(n))
        for node in rng.permutation(n)[1:].tolist():
            state.apply(node, FRESH)
    else:
        part = Partition.singletons(n) if start == "singletons" else random_partition(rng, n)
        state = FlowMoveState(transition_matrix(g), part)
    if start == "settled":
        _local_moving(state, rng)
    if start == "coarse":
        # a random partition of the walk of the clusters that modularity's
        # local moving settles on: they share flow inside, so every node of
        # that walk has self-loop flow, as on the search's coarse levels (the
        # synthesis clusters of a random graph often have none). No keys are
        # kept there, and every node prices every cluster.
        settled = FlowMoveState(state.walk, part, MODULARITY)
        _local_moving(settled, rng)
        walk = cluster_aggregates(state.walk, settled.partition())
        n = walk.n
        state = FlowMoveState(walk, random_partition(rng, n))
        assert 0.0 not in state.self_flow
    assert (state.keys is None) == (start == "coarse")
    calls = [0]

    def counting(mass, within):
        calls[0] += 1
        return SYNTHESIS.term(mass, within)

    skipped = 0
    for node in range(n):
        full_gain, _ = _ascending_scan(state, node, -math.inf)
        for min_gain in (-math.inf, MIN_GAIN, full_gain):
            expected = _ascending_scan(state, node, min_gain)
            state.term, calls[0] = counting, 0
            got = state.best_move(node, min_gain)
            state.term = SYNTHESIS.term
            assert repr(got) == repr(expected), (node, min_gain)
            # the full scan prices every other active cluster, and the source
            # and FRESH unless the node is alone
            alone = state.counts[state.assignment[node]] == 1
            full = len(state.active) - 1 + (0 if alone else 2)
            assert calls[0] <= full
            skipped += full - calls[0]
            if state.self_flow[node] != 0.0:
                assert calls[0] == full
    if start in ("singletons", "shuffled") and not weighted:
        assert skipped > 0


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-9, 1.0, exclude_max=True), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
@example(0.3, 0.0, 0.5, 1.0)  # s = 0
@example(0.5, 0.0, 1.0 - 1e-12, 1.0)  # m + p_max next to 1, s = 0
@example(0.5, 0.8, 1.0 - 1e-12, 1.0)  # m + p_max next to 1
@example(0.5, 0.8, 1.0, 1.0)  # m + p_max = 1: an infinite key
@example(1e-4, 0.0, 1e-4, 1.0)
def test_slope_key_bounds_every_join_without_flow(m, s, share, frac):
    # a cluster of mass m and within-flow w = s m, and a node of mass
    # p <= p_max joining it with no flow to it
    w = s * m
    p_max = share * (1.0 - m)
    p = frac * p_max
    key = SYNTHESIS.slope(m + p_max, w)
    rise = SYNTHESIS.term(m + p, w) - SYNTHESIS.term(m, w)
    assert rise <= p * key / math.log(2.0) + 1e-12
