"""Multi-level greedy optimizer, exhaustive reference search, and the
partition enumerator."""

import hashlib
import math
import signal
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksynth import (
    OBJECTIVES,
    FlowMoveState,
    Graph,
    OptimizerConfig,
    Partition,
    ami,
    brute_force_optimum,
    cluster_aggregates,
    evaluate_partition,
    modularity,
    optimize,
    planted_partition,
    set_partitions,
    transition_matrix,
    PlantedPartitionParams,
    RandomWalk,
)
from walksynth import optimizer
from walksynth.objective import FRESH, MODULARITY, SYNTHESIS, MoveRows
from walksynth.optimizer import _chain_pass, _local_moving, _partition_value, _refine_level
from util import (
    disconnected_cliques,
    random_connected_graph,
    random_partition,
    reference_brute_force,
    reference_chain_pass,
    triangle,
    weighted_version,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975,
        11: 678570}


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
    g, _ = disconnected_cliques([6])
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


def test_move_state_rejects_directed_walks():
    # gains count each neighbour's flow both ways as twice the one-way flow,
    # which holds only on a symmetric walk; the directed 3-cycle is not one
    cycle = RandomWalk(np.arange(4), np.array([1, 2, 0]), np.ones(3), np.full(3, 1 / 3))
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


def test_synthesis_finds_many_small_communities_that_modularity_merges():
    # the paper's small-communities claim: 100 communities of 10 at mean
    # degree 6, where modularity's resolution limit merges communities
    g, truth = planted_partition(PlantedPartitionParams([10] * 100, 6, 0.2), seed=1)
    found = {
        objective: ami(truth, optimize(g, OptimizerConfig(objective, seed=1))[0])
        for objective in OBJECTIVES
    }
    assert found["synthesis"] >= 0.95
    assert found["synthesis"] >= found["modularity"] + 0.2


def test_a_thousand_node_search_keeps_its_partition_and_value():
    # n = 1000 at mu 0.3, where nearly every visit skips most clusters the
    # node has no flow to: the pruned scan makes the moves the full scan made
    g, _ = planted_partition(PlantedPartitionParams([100] * 10, k_avg=15, mu=0.3), seed=1)
    part, report = optimize(g, OptimizerConfig(seed=1))
    digest = hashlib.sha256(part.assignment.astype("<i8").tobytes()).hexdigest()
    assert digest == "bf7dcea752acc6abbfafe9e56d355f5d34c3498dde2916d967c74652f904ad08"
    assert repr(report.value) == "1.4975489368852226"


def test_value_never_below_singleton_start():
    rng = np.random.default_rng(73)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(5, 25)), 0.25)
        w = transition_matrix(g)
        start = evaluate_partition(w, Partition.singletons(g.n)).value
        _, report = optimize(g, OptimizerConfig(seed=int(rng.integers(0, 100))))
        assert report.value >= start - 1e-9


# ------------------------------------------------------------ local moving

@pytest.mark.parametrize("criterion", [SYNTHESIS, MODULARITY])
def test_local_moving_revisits_only_the_neighbours_of_moved_nodes(monkeypatch, criterion):
    # one pass in random order, then a queue: re-sweeping every node until a
    # whole sweep moves none priced 12n (synthesis) and 7n (modularity) here
    calls = []
    best_move = FlowMoveState.best_move

    def counting_best_move(state, node, min_gain):
        calls.append(node)
        return best_move(state, node, min_gain)

    monkeypatch.setattr(FlowMoveState, "best_move", counting_best_move)
    g, _ = planted_partition(PlantedPartitionParams([50] * 10, k_avg=15, mu=0.3), 1)
    walk = transition_matrix(g)
    state = FlowMoveState(walk, Partition.singletons(g.n), criterion)
    before = _partition_value(walk, state.partition(), criterion)
    _local_moving(state, np.random.default_rng(1))
    assert len(calls) <= 6 * g.n
    # the first pass visits every node
    assert set(calls) == set(range(g.n))
    assert _partition_value(walk, state.partition(), criterion) >= before - 1e-12


# ----------------------------------------------------------------- escapes

def _bits(assignment, mass, within, counts, free_ids, cluster_terms, active, keys) -> tuple:
    # floats as bit patterns: 0.0 and -0.0, or two roundings of a sum, differ
    return (list(assignment), array("d", mass).tobytes(), array("d", within).tobytes(),
            np.asarray(counts).tolist(), list(free_ids), array("d", cluster_terms).tobytes(),
            list(active), None if keys is None else array("d", keys).tobytes())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([SYNTHESIS, MODULARITY]), st.integers(0, 2**32 - 1), st.integers(3, 20),
       st.booleans())
def test_failed_escapes_leave_the_state_bit_for_bit(criterion, seed, n, settle):
    # the premise that lets a settled level be skipped: a failed escape
    # changes nothing
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, 0.4)
    state = FlowMoveState(transition_matrix(g), random_partition(rng, n), criterion)
    if settle:
        _local_moving(state, rng)
    # each kept pass raises the value, so one of n passes fails
    for _ in range(n):
        before = _bits(*state.snapshot())
        if not _chain_pass(state):
            break
    else:
        pytest.fail(f"{n} chain passes in a row were all kept")
    after = _bits(state.assignment, state.mass, state.within, state.counts, state.free_ids,
                  state.cluster_terms, state.active, state.keys)
    assert after == before


def _chain_input(criterion, seed: int, n: int, weighted: bool, settle: bool) -> FlowMoveState:
    """A state on a random connected graph of ``n`` nodes, weighted with
    self-loops or not, from a random partition with about a third of its
    nodes alone, settled by local moving or not."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, min(0.6, 4.0 / n))
    if weighted:
        g = weighted_version(rng, g)
    assignment = random_partition(rng, n).assignment
    lone = rng.random(n) < 0.3
    assignment[lone] = n + np.flatnonzero(lone)
    state = FlowMoveState(transition_matrix(g), Partition(assignment), criterion)
    if settle:
        _local_moving(state, rng)
    return state


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([SYNTHESIS, MODULARITY]), st.integers(0, 2**32 - 1), st.integers(3, 40),
       st.booleans(), st.booleans())
def test_chain_pass_matches_the_rescanning_pass(criterion, seed, n, weighted, settle):
    # the cached rows make every move a rescan of every node would make, so
    # passes in a row keep returning the same and leave bit-equal states;
    # FRESH moves, emptied clusters and reused ids all occur here
    state = _chain_input(criterion, seed, n, weighted, settle)
    reference = FlowMoveState(state.walk, state.partition(), criterion)
    reference.restore(state.snapshot())
    for _ in range(4):
        kept = _chain_pass(state)
        assert kept == reference_chain_pass(reference)
        assert _bits(*state.snapshot()) == _bits(*reference.snapshot())
        if not kept:
            break


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([SYNTHESIS, MODULARITY]), st.integers(0, 2**32 - 1), st.integers(3, 30),
       st.booleans())
def test_move_rows_keep_every_best_move_current(criterion, seed, n, weighted):
    # after any moves, not only best ones, each unmoved node's cached best is
    # best_move's to the bit
    state = _chain_input(criterion, seed, n, weighted, False)
    rng = np.random.default_rng(seed)
    rows = MoveRows(state)
    for x in rng.permutation(n).tolist():
        for y in range(n):
            got = (repr(rows.gains[y]), rows.targets[y])
            if rows.moved[y]:
                assert got == (repr(-math.inf), None)
            else:
                gain, target = state.best_move(y, -math.inf)
                assert got == (repr(gain), target)
        a = state.assignment[x]
        targets = [c for c in state.active if c != a]
        if state.counts[a] > 1:
            targets.append(FRESH)
        if targets:
            rows.move(x, targets[rng.integers(len(targets))])


@pytest.mark.parametrize("criterion", [SYNTHESIS, MODULARITY])
def test_chain_pass_prices_each_node_once(monkeypatch, criterion):
    # flows_to_clusters: the first pricing (n), one apply per step (n), the
    # kept prefix applied again (n) and one rebuild per unmoved neighbour of
    # each moved node; rescanning every node per step took about n^2 / 2
    calls = [0]
    flows_to_clusters = FlowMoveState.flows_to_clusters

    def counting(state, node):
        calls[0] += 1
        return flows_to_clusters(state, node)

    monkeypatch.setattr(FlowMoveState, "flows_to_clusters", counting)
    for seed, sizes in enumerate(([8, 8, 8], [6, 7, 8, 9], [9, 10, 11])):
        g, _ = planted_partition(PlantedPartitionParams(sizes, k_avg=5, mu=0.2), seed)
        rng = np.random.default_rng(seed)
        state = FlowMoveState(transition_matrix(g), random_partition(rng, g.n), criterion)
        _local_moving(state, rng)
        calls[0] = 0
        _chain_pass(state)
        assert calls[0] <= 3 * g.n + sum(len(nbrs) for nbrs in state.nbr_idx), sizes


def _timeout(signum, frame):
    raise TimeoutError("the search did not stop within 10 s")


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_a_mispriced_chain_pass_fails_loudly(monkeypatch, objective):
    # MoveRows that leaves the join terms of a moved node's old cluster
    # stale keeps passes that do not gain, and a level that chains passes
    # until one fails would loop forever; the kept pass's check raises
    move, column = MoveRows.move, MoveRows._column

    def stale_move(rows, x, target):
        rows.stale = rows.state.assignment[x]
        move(rows, x, target)
        rows.stale = None

    def stale_column(rows, c):
        if c != getattr(rows, "stale", None):
            column(rows, c)

    monkeypatch.setattr(MoveRows, "move", stale_move)
    monkeypatch.setattr(MoveRows, "_column", stale_column)
    g, _ = planted_partition(PlantedPartitionParams([6, 8, 10], k_avg=5, mu=0.2), seed=1)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match="24-node level did not raise its value"):
            optimize(g, OptimizerConfig(objective, seed=1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _settled_level(walk0, part, coarse, rng, criterion) -> tuple[Partition, set]:
    """A walk-0 partition from which the level of kind ``coarse`` settles:
    refine ``part`` (or merge its clusters) until a level makes no move."""
    for _ in range(20):
        settled: set = set()
        sub = _refine_level(walk0, part, coarse, rng, criterion, settled)
        if settled:
            return part, settled
        part = Partition(sub.assignment[part.assignment]) if coarse else sub
    raise AssertionError("no level settled")


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("criterion", [SYNTHESIS, MODULARITY])
def test_refine_level_skips_a_settled_level(monkeypatch, criterion, coarse):
    rng = np.random.default_rng(83)
    for n in (6, 12, 20, 140):
        g = random_connected_graph(rng, n, min(0.4, 6 / n))
        walk = transition_matrix(g)
        part, settled = _settled_level(walk, random_partition(rng, n), coarse, rng, criterion)
        # the same level searched from scratch, with an empty memo
        searched = np.random.default_rng(n)
        expected = _refine_level(walk, part, coarse, searched, criterion, set())

        def refuse(*args, **kwargs):
            raise AssertionError("a settled level was searched")

        with monkeypatch.context() as patch:
            patch.setattr(FlowMoveState, "__init__", refuse)
            patch.setattr(optimizer, "cluster_aggregates", refuse)
            patch.setattr(optimizer, "_local_moving", refuse)
            patch.setattr(optimizer, "_chain_pass", refuse)
            skipped = np.random.default_rng(n)
            got = _refine_level(walk, part, coarse, skipped, criterion, settled)
        assert got == expected
        # the skip draws what local moving would have drawn
        assert skipped.bit_generator.state == searched.bit_generator.state


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_settled_levels_leave_the_search_unchanged(monkeypatch, objective):
    # the memo is exact: the same search with a fresh memo on every level
    # finds the same partition and value in every restart, after more state
    # builds
    rng = np.random.default_rng(97)
    graphs = [random_connected_graph(rng, int(rng.integers(8, 31)), 0.25) for _ in range(5)]
    graphs.append(planted_partition(PlantedPartitionParams([15] * 10, k_avg=8, mu=0.3), 2)[0])
    refine, rounds, init = optimizer._refine_level, optimizer._search_rounds, FlowMoveState.__init__
    builds, restarts = [0], []

    def counting_init(state, *args):
        builds[0] += 1
        init(state, *args)

    def recorded_rounds(*args):
        part, value = rounds(*args)
        restarts.append((part.assignment.tolist(), repr(value)))
        return part, value

    def forgetful_refine(walk0, part, coarse, rng, criterion, settled):
        return refine(walk0, part, coarse, rng, criterion, set())

    monkeypatch.setattr(FlowMoveState, "__init__", counting_init)
    monkeypatch.setattr(optimizer, "_search_rounds", recorded_rounds)
    for seed, g in enumerate(graphs):
        cfg = OptimizerConfig(objective, seed=seed)
        builds[0] = 0
        restarts.clear()
        part, report = optimize(g, cfg)
        with_memo, memo_restarts = builds[0], list(restarts)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_refine_level", forgetful_refine)
            builds[0] = 0
            restarts.clear()
            ref_part, ref_report = optimize(g, cfg)
        assert memo_restarts == restarts
        assert np.array_equal(part.assignment, ref_part.assignment)
        assert repr(report.value) == repr(ref_report.value)
        assert with_memo < builds[0], g.n


# ------------------------------------------------------ level aggregation

def test_aggregated_graph_reproduces_coarse_walk():
    rng = np.random.default_rng(79)
    for _ in range(15):
        g = random_connected_graph(rng, int(rng.integers(5, 20)), 0.35)
        w = transition_matrix(g)
        part = random_partition(rng, g.n)
        cw = cluster_aggregates(w, part)
        flat = evaluate_partition(w, part)
        lifted = evaluate_partition(cw, Partition.singletons(part.num_clusters))
        assert lifted.value == pytest.approx(flat.value, abs=1e-12)
        assert lifted.bound_cluster_mi == pytest.approx(flat.bound_cluster_mi, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 18).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
)))
def test_aggregated_graph_respects_coarser_partitions(case):
    # the optimizer coarsens under both criteria it searches by moves; a path
    # through the drawn node order keeps each graph connected, and the extra
    # pairs may be self-loops
    order, extra, labels, merge_labels = case
    edges = sorted({tuple(sorted(pair)) for pair in [*zip(order, order[1:]), *extra]})
    u, v = np.array(edges).T
    g = Graph(n=len(order), u=u, v=v, w=np.ones(len(edges)))
    w = transition_matrix(g)
    part = Partition(labels)
    cw = cluster_aggregates(w, part)
    merge = Partition(merge_labels[:part.num_clusters])
    flat_merge = Partition(merge.assignment[part.assignment])
    for criterion in (SYNTHESIS, MODULARITY):
        flat = _partition_value(w, flat_merge, criterion)
        coarse = _partition_value(cw, merge, criterion)
        assert coarse == pytest.approx(flat, abs=1e-12), criterion


# -------------------------------------------------------- exhaustive search

def test_partition_enumeration_counts():
    for n, count in BELL.items():
        assert sum(len(block) for block in set_partitions(n)) == count


def _restricted_growth(n: int, prefix: tuple = (0,)):
    if len(prefix) == n:
        yield prefix
        return
    for label in range(max(prefix) + 2):
        yield from _restricted_growth(n, prefix + (label,))


def test_partition_enumeration_order_and_reuse():
    # every block is a fresh array, so blocks kept in a list stay intact
    for n in range(1, 10):
        blocks = list(set_partitions(n))
        assert all(len(block) <= optimizer.ORACLE_BLOCK for block in blocks)
        assert np.array_equal(np.concatenate(blocks), list(_restricted_growth(n)))
    with pytest.raises(ValueError, match="at least one item"):
        set_partitions(0)


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


def _oracle_graphs() -> list[Graph]:
    """Graphs of 1-9 nodes, plain and weighted with self-loops, and the
    4-cycle, whose pairings tie its single cluster at Q = 0."""
    rng = np.random.default_rng(53)
    graphs = [Graph(n=1, u=np.array([0]), v=np.array([0]), w=np.ones(1)),
              Graph(n=4, u=np.array([0, 1, 2, 3]), v=np.array([1, 2, 3, 0]), w=np.ones(4))]
    for n in range(2, 10):
        plain = [random_connected_graph(rng, n, 0.5) for _ in range(2)]
        graphs += plain + [weighted_version(rng, g) for g in plain]
    return graphs


@pytest.mark.parametrize("block", [None, 5])
def test_brute_force_matches_the_one_partition_at_a_time_oracle(monkeypatch, block):
    # blocks of 5 rows put tied optima on both sides of block boundaries
    if block is not None:
        monkeypatch.setattr(optimizer, "ORACLE_BLOCK", block)
    for g in _oracle_graphs():
        for objective in OBJECTIVES:
            part, value = brute_force_optimum(g, objective)
            ref_part, ref_value = reference_brute_force(g, objective)
            assert part == ref_part, (g.n, objective)
            assert repr(value) == repr(ref_value), (g.n, objective)


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
    g, _ = disconnected_cliques([13])
    with pytest.raises(ValueError, match="cap"):
        brute_force_optimum(g)
    part, _ = brute_force_optimum(disconnected_cliques([4])[0], n_cap=4)
    assert part == Partition.singletons(4)


@pytest.mark.parametrize("mu", [0.3, 0.5])
@pytest.mark.parametrize("n, seed", [(200, 1), (500, 2), (1000, 3)])
def test_modularity_search_reaches_louvain(n, seed, mu):
    # a differential check against networkx's Louvain (Blondel et al. 2008);
    # the 0.01 tolerance was fixed before the first run
    nx = pytest.importorskip("networkx")
    g, _ = planted_partition(PlantedPartitionParams([n // 10] * 10, k_avg=15, mu=mu), seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_weighted_edges_from(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
    assignment = np.empty(g.n, dtype=np.int64)
    for label, members in enumerate(nx.community.louvain_communities(graph, seed=seed)):
        assignment[list(members)] = label
    found, _ = optimize(g, OptimizerConfig("modularity", seed))
    assert modularity(g, found) >= modularity(g, Partition(assignment)) - 0.01
