"""Multi-level greedy optimizer, exhaustive reference search, and the
partition enumerator."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from walksynth import (
    FlowMoveState,
    Graph,
    OptimizerConfig,
    Partition,
    ami,
    brute_force_optimum,
    cluster_aggregates,
    complete_graph,
    disconnected_cliques,
    evaluate_partition,
    mutual_info_clusters,
    mutual_info_nodes,
    optimize,
    planted_partition,
    set_partitions,
    transition_matrix,
    PlantedPartitionParams,
    RandomWalk,
)
from walksynth.objective import MODULARITY, SYNTHESIS
from walksynth.optimizer import _aggregate_graph, _chain_pass, _local_moving, _merge_chain
from util import random_connected_graph, random_partition, triangle

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


# ------------------------------------------------------------- end to end

def test_two_triangles_recovered_across_seeds():
    g, truth = disconnected_cliques([3, 3])
    for seed in range(8):
        part, report = optimize(g, OptimizerConfig(seed=seed))
        assert part == truth
        assert report.value == pytest.approx(1.0, abs=1e-12)


def test_uneven_cliques_recovered():
    g, truth = disconnected_cliques([3, 4, 5])
    part, report = optimize(g)
    assert part == truth


def test_determinism_same_seed_same_result():
    rng = np.random.default_rng(71)
    g = random_connected_graph(rng, 25, 0.2)
    a_part, a_report = optimize(g, OptimizerConfig(seed=5))
    b_part, b_report = optimize(g, OptimizerConfig(seed=5))
    assert np.array_equal(a_part.assignment, b_part.assignment)
    assert a_report.value == b_report.value


def test_complete_graph_keeps_singletons():
    # uniform rows: every node is its own best cluster, J hits the node MI
    g = complete_graph(6)
    part, report = optimize(g)
    assert part == Partition.singletons(6)
    assert report.value == pytest.approx(math.log2(6.0 / 5.0), abs=1e-12)
    assert report.value == pytest.approx(report.bound_node_mi, abs=1e-12)


def test_modularity_objective_two_triangles():
    g, truth = disconnected_cliques([3, 3])
    part, report = optimize(g, OptimizerConfig(objective="modularity"))
    assert part == truth
    from walksynth import modularity

    assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)
    # report always carries the synthesis value of the found partition
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_cluster_mi_objective_prefers_singletons():
    # coarse-graining never increases mutual information, so the raw
    # cluster MI objective stalls at the singleton start
    g, _ = disconnected_cliques([3, 3])
    part, _ = optimize(g, OptimizerConfig(objective="cluster_mi"))
    assert part == Partition.singletons(6)
    w = transition_matrix(g)
    agg = cluster_aggregates(w, part)
    assert mutual_info_clusters(agg) == pytest.approx(mutual_info_nodes(w), abs=1e-12)


def test_move_state_rejects_directed_walks():
    # gains count each neighbour's flow both ways as twice the one-way flow,
    # which holds only on a symmetric walk; the directed 3-cycle is not one
    cycle = RandomWalk(sparse.csr_matrix(np.roll(np.eye(3), 1, axis=1)), np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="symmetric"):
        FlowMoveState(cycle, Partition.singletons(3))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(objective="louvain")


def test_planted_partition_midnoise_recovery():
    params = PlantedPartitionParams(community_sizes=[20, 20, 20], k_avg=10.0, mu=0.1)
    g, truth = planted_partition(params, seed=7)
    part, _ = optimize(g, OptimizerConfig(seed=7))
    assert ami(truth, part) >= 0.95


def test_value_never_below_singleton_start():
    rng = np.random.default_rng(73)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(5, 25)), 0.25)
        w = transition_matrix(g)
        start = evaluate_partition(w, Partition.singletons(g.n)).value
        _, report = optimize(g, OptimizerConfig(seed=int(rng.integers(0, 100))))
        assert report.value >= start - 1e-9


# ----------------------------------------------------------------- escapes

def _bits(assignment, mass, within, counts, free_ids, cluster_terms, active) -> tuple:
    # floats as bit patterns: 0.0 and -0.0, or two roundings of a sum, differ
    return (list(assignment), array("d", mass).tobytes(), array("d", within).tobytes(),
            np.asarray(counts).tolist(), list(free_ids), array("d", cluster_terms).tobytes(),
            list(active))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([SYNTHESIS, MODULARITY]), st.integers(0, 2**32 - 1), st.integers(3, 20),
       st.booleans())
def test_failed_escapes_leave_the_state_bit_for_bit(criterion, seed, n, settle):
    # the premise that lets a level skip a state on which both escapes
    # already failed: a failed escape changes nothing
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, 0.4)
    state = FlowMoveState(transition_matrix(g), random_partition(rng, n), criterion)
    if settle:
        _local_moving(state, rng)
    failed = 0
    while failed < 2:
        failed = 0
        for escape in (_merge_chain, _chain_pass):
            before = _bits(*state.snapshot())
            if not escape(state):
                after = _bits(state.assignment, state.mass, state.within, state.counts,
                              state.free_ids, state.cluster_terms, state.active)
                assert after == before, escape.__name__
                failed += 1


# ------------------------------------------------------ level aggregation

def test_aggregated_graph_reproduces_coarse_walk():
    rng = np.random.default_rng(79)
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(5, 20)), 0.35)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        coarse = _aggregate_graph(w, part)
        cw = transition_matrix(coarse)
        flat = evaluate_partition(w, part)
        lifted = evaluate_partition(cw, Partition.singletons(part.num_clusters))
        assert lifted.value == pytest.approx(flat.value, abs=1e-12)
        assert lifted.bound_cluster_mi == pytest.approx(flat.bound_cluster_mi, abs=1e-12)


def test_aggregated_graph_respects_coarser_partitions():
    # the optimizer coarsens under both criteria it searches by moves
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, 18, 0.3)
    w = transition_matrix(g)
    part = random_partition(rng, g.n, k_max=8)
    cw = transition_matrix(_aggregate_graph(w, part))
    merge = Partition(np.arange(part.num_clusters) % 2)
    flat_merge = Partition(merge.assignment[part.assignment])
    for criterion in (SYNTHESIS, MODULARITY):
        flat = FlowMoveState(w, flat_merge, criterion).value()
        coarse = FlowMoveState(cw, merge, criterion).value()
        assert coarse == pytest.approx(flat, abs=1e-12), criterion


# -------------------------------------------------------- exhaustive search

def test_partition_enumeration_counts():
    for n, count in BELL.items():
        assert sum(1 for _ in set_partitions(n)) == count


def test_partition_enumeration_order_and_reuse():
    seen = [p.copy() for p in set_partitions(3)]
    assert np.array_equal(seen[0], [0, 0, 0])
    assert np.array_equal(seen[-1], [0, 1, 2])
    assert len(seen) == 5
    # the generator reuses its buffer; callers who keep them must copy
    raw = list(set_partitions(3))
    assert all(arr is raw[0] for arr in raw)


def test_brute_force_triangle_synthesis():
    part, value = brute_force_optimum(triangle())
    assert part == Partition.singletons(3)
    assert value == pytest.approx(math.log2(1.5), abs=1e-12)


def test_brute_force_two_triangles():
    g, truth = disconnected_cliques([3, 3])
    part, value = brute_force_optimum(g)
    assert part == truth
    assert value == pytest.approx(1.0, abs=1e-12)


def test_brute_force_modularity_tie_prefers_fewer_clusters():
    # every pairing of a 4-cycle ties at Q = 0, so the single cluster wins
    g = Graph(n=4, u=np.array([0, 1, 2, 3]), v=np.array([1, 2, 3, 0]), w=np.ones(4))
    part, value = brute_force_optimum(g, objective="modularity")
    assert part == Partition.single_cluster(4)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_brute_force_agrees_with_optimizer_on_small_graphs():
    rng = np.random.default_rng(89)
    hits = 0
    for trial in range(20):
        g = random_connected_graph(rng, 7, 0.45)
        ref_part, ref_value = brute_force_optimum(g)
        part, report = optimize(g, OptimizerConfig(seed=trial))
        assert report.value <= ref_value + 1e-9
        if abs(report.value - ref_value) <= 1e-9:
            hits += 1
    assert hits >= 16


def test_brute_force_cap():
    g = complete_graph(13)
    with pytest.raises(ValueError, match="cap"):
        brute_force_optimum(g)
    part, _ = brute_force_optimum(complete_graph(4), n_cap=4)
    assert part == Partition.singletons(4)


def test_brute_force_cluster_mi_matches_node_mi_ceiling():
    g, _ = disconnected_cliques([3, 3])
    part, value = brute_force_optimum(g, objective="cluster_mi")
    assert part == Partition.singletons(6)
    assert value == pytest.approx(mutual_info_nodes(transition_matrix(g)), abs=1e-12)
