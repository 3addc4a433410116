"""Partition comparison scores, node classification, and per-cluster
structural statistics."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksynth import (
    Graph,
    Partition,
    PlantedPartitionParams,
    ami,
    classify_nodes,
    cluster_stats,
    contingency,
    disconnected_cliques,
    evaluate_partition,
    greedy_match,
    modularity,
    planted_partition,
    transition_matrix,
    write_cluster_stats_csv,
)
from walksynth.metrics import TRIANGLE_BLOCK_ROWS, ClusterStatsRow, _expected_mi
from util import gnp_graph, random_connected_graph, random_partition


def ami_permutation_oracle(a: list[int], b: list[int]) -> float:
    """AMI computed from first principles: the expected MI under the
    permutation model is literally averaged over all n! relabelings."""

    def mi(x, y):
        n = len(x)
        total = 0.0
        for i in set(x):
            for j in set(y):
                nij = sum(1 for t in range(n) if x[t] == i and y[t] == j)
                if nij == 0:
                    continue
                ai = sum(1 for t in range(n) if x[t] == i)
                bj = sum(1 for t in range(n) if y[t] == j)
                total += (nij / n) * math.log(n * nij / (ai * bj))
        return total

    def entropy(x):
        n = len(x)
        return -sum(
            (c / n) * math.log(c / n)
            for c in (x.count(v) for v in set(x))
        )

    n = len(a)
    expected = 0.0
    for perm in itertools.permutations(range(n)):
        expected += mi(a, [b[p] for p in perm])
    expected /= math.factorial(n)
    actual = mi(a, b)
    h = max(entropy(a), entropy(b))
    if h == expected:
        return 1.0
    return (actual - expected) / (h - expected)


def expected_mi_loop(a_counts, b_counts, n: int) -> float:
    """Exact expected MI (nats) as a triple loop over the (a_i, b_j, n_ij)
    cells (Vinh, Epps & Bailey 2010)."""
    log_fact = [math.lgamma(x + 1) for x in range(n + 1)]
    total = 0.0
    for ai in a_counts:
        ai = int(ai)
        for bj in b_counts:
            bj = int(bj)
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                log_prob = (
                    log_fact[ai]
                    + log_fact[bj]
                    + log_fact[n - ai]
                    + log_fact[n - bj]
                    - log_fact[n]
                    - log_fact[nij]
                    - log_fact[ai - nij]
                    - log_fact[bj - nij]
                    - log_fact[n - ai - bj + nij]
                )
                term = (nij / n) * math.log(n * nij / (ai * bj))
                total += term * math.exp(log_prob)
    return total


def cluster_stats_by_sets(g: Graph, part: Partition, min_size: int) -> list[ClusterStatsRow]:
    """cluster_stats with each clustering coefficient counted pair by pair
    over Python neighbor sets."""
    assign = part.assignment.tolist()
    k = part.num_clusters
    internal, external = [0] * k, [0] * k
    neighbors: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        if a == b:
            internal[assign[a]] += 1
            continue
        neighbors[a].add(b)
        neighbors[b].add(a)
        if assign[a] == assign[b]:
            internal[assign[a]] += 1
        else:
            external[assign[a]] += 1
            external[assign[b]] += 1
    coeff = []
    for node in range(g.n):
        around = sorted(neighbors[node])
        deg = len(around)
        links = sum(
            1 for i in range(deg) for j in range(i + 1, deg) if around[j] in neighbors[around[i]]
        )
        coeff.append(links / (deg * (deg - 1) / 2) if deg >= 2 else 0.0)
    rows = []
    for c in range(k):
        members = [i for i in range(g.n) if assign[i] == c]
        size = len(members)
        if size < min_size:
            continue
        m_s, c_s = internal[c], external[c]
        whole = size == g.n
        rows.append(
            ClusterStatsRow(
                cluster=c,
                size=size,
                density=m_s / (size * (size - 1) / 2) if size > 1 else 0.0,
                clustering=float(np.mean([coeff[i] for i in members])),
                conductance=c_s / (m_s + c_s) if (m_s + c_s) > 0 else 0.0,
                cut_ratio=0.0 if whole else c_s / (size * (g.n - size)),
                whole_graph=whole,
            )
        )
    return rows


@st.composite
def partitions(draw, n: int) -> Partition:
    """A partition of n nodes: one cluster, all singletons, or random labels."""
    kind = draw(st.sampled_from(["single", "singletons", "random"]))
    if kind == "single":
        return Partition.single_cluster(n)
    if kind == "singletons":
        return Partition.singletons(n)
    k = draw(st.integers(1, n))
    return Partition(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))


# --------------------------------------------------------------- contingency

def test_contingency_fixtures():
    t = Partition([0, 0, 0, 1, 1, 1])
    assert np.array_equal(contingency(t, t), np.diag([3, 3]))
    single = Partition.single_cluster(6)
    assert np.array_equal(contingency(t, single), np.array([[3], [3]]))
    crossed = contingency(Partition([0, 0, 1, 1]), Partition([0, 1, 0, 1]))
    assert np.array_equal(crossed, np.ones((2, 2), dtype=np.int64))


def test_contingency_requires_same_length():
    with pytest.raises(ValueError):
        contingency(Partition([0, 1]), Partition([0, 1, 2]))


# ----------------------------------------------------------------------- ami

def test_ami_identical_partitions_is_one():
    part = Partition([0, 0, 1, 1, 2])
    assert ami(part, part) == 1.0


def test_ami_against_single_cluster_is_zero():
    t = Partition([0, 0, 1, 1])
    assert ami(t, Partition.single_cluster(4)) == 0.0
    assert ami(Partition.single_cluster(4), t) == 0.0


def test_ami_identical_single_clusters_is_one():
    a = Partition.single_cluster(5)
    assert ami(a, Partition.single_cluster(5)) == 1.0


def test_ami_crossed_pairs_fixture():
    # zero MI against an expected MI of ln(2)/3 lands exactly on -1/2
    a = Partition([0, 0, 1, 1])
    b = Partition([0, 1, 0, 1])
    assert ami(a, b) == pytest.approx(-0.5, abs=1e-10)


def test_ami_matches_permutation_oracle():
    cases = [
        ([0, 0, 1, 1], [0, 1, 0, 1]),
        ([0, 0, 1, 1], [0, 0, 1, 1]),
        ([0, 0, 0, 1], [0, 1, 1, 1]),
        ([0, 1, 2, 0], [0, 0, 1, 1]),
        ([0, 0, 1, 1, 2], [0, 1, 1, 2, 2]),
        ([0, 1, 0, 1, 0, 1], [0, 0, 0, 1, 1, 1]),
    ]
    for a, b in cases:
        expected = ami_permutation_oracle(a, b)
        got = ami(Partition(a), Partition(b))
        assert got == pytest.approx(expected, abs=1e-10), (a, b)


def test_ami_symmetry_and_relabeling():
    rng = np.random.default_rng(97)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        a = random_partition(rng, n)
        b = random_partition(rng, n)
        assert ami(a, b) == pytest.approx(ami(b, a), abs=1e-12)
        perm = rng.permutation(b.num_clusters)
        assert ami(a, Partition(perm[b.assignment])) == pytest.approx(ami(a, b), abs=1e-12)


_INT64 = st.one_of(
    st.sampled_from([-2**63, -2**63 + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
    st.integers(-2**63, 2**63 - 1),
)


def first_appearance_loop(raw: list[int]) -> tuple[list[int], int]:
    """Dense cluster ids in first-appearance order, one label at a time."""
    remap: dict[int, int] = {}
    dense = [remap.setdefault(c, len(remap)) for c in raw]
    return dense, len(remap)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_INT64, min_size=1, max_size=12, unique=True).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
def test_partition_relabels_in_first_appearance_order(raw):
    dense, k = first_appearance_loop(raw)
    for part in (Partition(raw), Partition(np.array(raw, dtype=np.int64))):
        assert part.assignment.dtype == np.int64
        assert part.assignment.tolist() == dense
        assert part.num_clusters == k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 15), st.data())
def test_partition_relabel_invariance(seed, n, data):
    # any injective relabelling, negative and int64-extreme labels included,
    # is the same partition with the same scores
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, 0.4)
    part = random_partition(rng, n)
    k = part.num_clusters
    labels = data.draw(st.lists(_INT64, min_size=k, max_size=k, unique=True))
    relabelled = Partition([labels[c] for c in part.assignment.tolist()])
    walk = transition_matrix(g)
    assert relabelled == part
    assert evaluate_partition(walk, relabelled).value == evaluate_partition(walk, part).value
    assert modularity(g, relabelled) == modularity(g, part)
    assert ami(part, relabelled) == 1.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(partitions(n), partitions(n))))
def test_expected_mi_matches_triple_loop(pair):
    a, b = pair
    table = contingency(a, b)
    a_counts, b_counts = table.sum(axis=1), table.sum(axis=0)
    got = _expected_mi(a_counts, b_counts, a.n)
    assert abs(got - expected_mi_loop(a_counts, b_counts, a.n)) <= 1e-12
    assert ami(a, a) == 1.0
    if a.num_clusters > 1:
        assert ami(a, Partition.single_cluster(a.n)) == 0.0


def test_ami_requires_same_length():
    with pytest.raises(ValueError):
        ami(Partition([0, 1]), Partition([0, 1, 1]))


# -------------------------------------------------------------- greedy match

def test_greedy_match_fixtures():
    assert greedy_match(np.array([[5, 0], [1, 4]])) == {0: 0, 1: 1}
    assert greedy_match(np.diag([3, 2, 4])) == {0: 0, 1: 1, 2: 2}
    assert greedy_match(np.array([[3], [2], [1]])) == {0: 0}
    # full tie: row-major order wins
    assert greedy_match(np.array([[2, 2], [2, 2]])) == {0: 0, 1: 1}


def test_greedy_match_is_injective_and_sized():
    rng = np.random.default_rng(101)
    for _ in range(30):
        table = rng.integers(0, 6, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        mapping = greedy_match(table)
        assert len(mapping) == min(table.shape)
        assert len(set(mapping.values())) == len(mapping)
        assert all(0 <= r < table.shape[0] and 0 <= c < table.shape[1] for r, c in mapping.items())


# ---------------------------------------------------------- node classification

def test_classify_nodes_identical():
    t = Partition([0, 0, 1, 1, 2])
    assert classify_nodes(t, t).all()


def test_classify_nodes_crossed_fixture():
    got = classify_nodes(Partition([0, 0, 1, 1]), Partition([0, 1, 0, 1]))
    assert np.array_equal(got, [True, False, False, True])


def test_classify_nodes_unmatched_cluster_counts_wrong():
    t = Partition([0, 0, 1, 1, 2, 2])
    p = Partition.single_cluster(6)
    got = classify_nodes(t, p)
    # only one true cluster can be matched to the single predicted one
    assert got.sum() == 2


def test_classify_nodes_accepts_prebuilt_mapping():
    t = Partition([0, 0, 1, 1])
    p = Partition([1, 1, 0, 0])  # canonicalized to [0, 0, 1, 1] on construction
    mapping = greedy_match(contingency(t, p))
    assert mapping == {0: 0, 1: 1}
    assert classify_nodes(t, p, mapping).all()
    # partial mapping: nodes of the unmatched true cluster count as wrong
    partial = classify_nodes(t, p, {0: 0})
    assert partial.tolist() == [True, True, False, False]


# -------------------------------------------------------------- cluster stats

def test_cluster_stats_two_triangles():
    g, part = disconnected_cliques([3, 3])
    rows = cluster_stats(g, part)
    assert [r.cluster for r in rows] == [0, 1]
    for r in rows:
        assert r.size == 3
        assert r.density == 1.0
        assert r.clustering == 1.0
        assert r.conductance == 0.0
        assert r.cut_ratio == 0.0
        assert not r.whole_graph


def test_cluster_stats_star_whole_graph():
    g = Graph(n=4, u=np.array([0, 0, 0]), v=np.array([1, 2, 3]), w=np.ones(3))
    (row,) = cluster_stats(g, Partition.single_cluster(4))
    assert row.size == 4
    assert row.density == pytest.approx(0.5, abs=1e-15)
    assert row.clustering == 0.0
    assert row.conductance == 0.0
    assert row.cut_ratio == 0.0
    assert row.whole_graph


def test_cluster_stats_pair_cluster():
    g = Graph(
        n=6,
        u=np.array([0, 0, 1, 2, 4]),
        v=np.array([1, 2, 3, 3, 5]),
        w=np.ones(5),
    )
    rows = cluster_stats(g, Partition([0, 0, 1, 1, 2, 2]), min_size=2)
    first = rows[0]
    assert first.cluster == 0 and first.size == 2
    assert first.density == 1.0
    assert first.conductance == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert first.cut_ratio == pytest.approx(0.25, abs=1e-15)
    assert first.clustering == 0.0


def test_cluster_stats_min_size_filter():
    g = Graph(
        n=6,
        u=np.array([0, 0, 1, 2, 4]),
        v=np.array([1, 2, 3, 3, 5]),
        w=np.ones(5),
    )
    assert cluster_stats(g, Partition([0, 0, 1, 1, 2, 2])) == []


def test_cluster_stats_rejects_weighted_and_directed():
    weighted = Graph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([2.0]))
    with pytest.raises(ValueError):
        cluster_stats(weighted, Partition.single_cluster(2))


def test_cluster_stats_fields_stay_in_unit_range():
    rng = np.random.default_rng(103)
    for _ in range(20):
        g = gnp_graph(rng, int(rng.integers(4, 20)), 0.3)
        part = random_partition(rng, g.n)
        for r in cluster_stats(g, part, min_size=1):
            for field in (r.density, r.clustering, r.conductance, r.cut_ratio):
                assert 0.0 <= field <= 1.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)),
    partitions(n),
)))
def test_cluster_stats_matches_neighbor_sets(case):
    # simple graphs, self-loops included
    n, edges, part = case
    u, v = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T
    g = Graph(n=n, u=u, v=v, w=np.ones(len(edges)))
    assert cluster_stats(g, part, min_size=1) == cluster_stats_by_sets(g, part, min_size=1)


def test_cluster_stats_matches_neighbor_sets_across_blocks():
    # more nodes than TRIANGLE_BLOCK_ROWS, with communities and hubs whose
    # triangles span the block edges, and self-loops
    assert TRIANGLE_BLOCK_ROWS < 1500
    for seed in (1, 2):
        g, part = planted_partition(PlantedPartitionParams([30] * 50, 8.0, 0.3), seed=seed)
        rng = np.random.default_rng(seed)
        hubs = np.repeat(rng.choice(g.n, 4, replace=False), 60)
        ends = rng.integers(0, g.n, len(hubs))
        loops = rng.choice(g.n, 20, replace=False)
        pairs = np.concatenate([
            np.column_stack([g.u, g.v]),
            np.column_stack([np.minimum(hubs, ends), np.maximum(hubs, ends)]),
            np.column_stack([loops, loops]),
        ])
        u, v = np.unique(pairs, axis=0).T
        g = Graph(n=g.n, u=u, v=v, w=np.ones(len(u)))
        links = u != v
        assert np.bincount(np.concatenate([u[links], v[links]])).max() >= 50
        assert cluster_stats(g, part, min_size=1) == cluster_stats_by_sets(g, part, min_size=1)


def test_cluster_stats_csv_layout():
    g, part = disconnected_cliques([3, 3])
    sink = io.StringIO()
    write_cluster_stats_csv(cluster_stats(g, part), sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "cluster,size,density,clustering_coefficient,conductance,cut_ratio"
    assert lines[1] == "0,3,1.0,1.0,0.0,0.0"
    assert len(lines) == 3
