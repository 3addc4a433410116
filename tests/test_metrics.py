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
    ami,
    classify_nodes,
    cluster_stats,
    contingency,
    disconnected_cliques,
    evaluate_partition,
    greedy_match,
    mixing_parameter,
    modularity,
    nld,
    transition_matrix,
    write_cluster_stats_csv,
)
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


# ------------------------------------------------------------------- mixing

def test_mixing_fixture_two_fifths():
    # node 0: three links inside its cluster, two leaving it
    g = Graph(
        n=6,
        u=np.array([0, 0, 0, 0, 0]),
        v=np.array([1, 2, 3, 4, 5]),
        w=np.ones(5),
    )
    part = Partition([0, 0, 0, 0, 1, 1])
    assert mixing_parameter(g, part, 0) == pytest.approx(0.4, abs=1e-15)


def test_mixing_zero_within_clique():
    g, part = disconnected_cliques([3, 3])
    for node in range(6):
        assert mixing_parameter(g, part, node) == 0.0


def test_mixing_one_for_isolated_singleton_cluster():
    g, _ = disconnected_cliques([3, 3])
    part = Partition([0, 1, 1, 2, 2, 2])
    assert mixing_parameter(g, part, 0) == 1.0


def test_mixing_rejects_weighted_and_zero_degree():
    weighted = Graph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([2.0]))
    with pytest.raises(ValueError):
        mixing_parameter(weighted, Partition.single_cluster(2), 0)
    lonely = Graph(n=3, u=np.array([0]), v=np.array([1]), w=np.ones(1))
    with pytest.raises(ValueError):
        mixing_parameter(lonely, Partition.single_cluster(3), 2)


# ---------------------------------------------------------------------- nld

def test_nld_fixtures():
    g = Graph(
        n=6,
        u=np.array([0, 0, 0, 0]),
        v=np.array([1, 2, 3, 4]),
        w=np.ones(4),
    )
    part = Partition([0, 0, 0, 0, 0, 1])
    # degree 4 inside a 5-node cluster: 4 / C(5, 2)
    assert nld(g, part, 0) == pytest.approx(0.4, abs=1e-15)
    clique, cpart = disconnected_cliques([4, 4])
    assert nld(clique, cpart, 0) == pytest.approx(0.5, abs=1e-15)  # 3 / C(4,2) = 2/4


def test_nld_rejects_singleton_cluster():
    g, _ = disconnected_cliques([3, 3])
    with pytest.raises(ValueError):
        nld(g, Partition([0, 1, 1, 2, 2, 2]), 0)


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


def test_cluster_stats_csv_layout():
    g, part = disconnected_cliques([3, 3])
    sink = io.StringIO()
    write_cluster_stats_csv(cluster_stats(g, part), sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "cluster,size,density,clustering_coefficient,conductance,cut_ratio"
    assert lines[1] == "0,3,1.0,1.0,0.0,0.0"
    assert len(lines) == 3
