"""Parsing, structural quantities, and the planted benchmark generator."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksynth import (
    EdgeListParseError,
    Graph,
    InfeasibleModelError,
    PlantedPartitionParams,
    disconnected_cliques,
    dump_edge_list,
    load_edge_list,
    planted_partition,
    write_label_map,
)


def parse(text: str) -> Graph:
    return load_edge_list(io.StringIO(text))


# ---------------------------------------------------------------- parsing

def test_parse_triangle():
    g = parse("0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.num_edges == 3
    assert np.all(g.w == 1.0)


def test_parse_merges_duplicate_edges():
    g = parse("5 7 2.5\n5 7 1.5\n")
    assert g.n == 2
    assert g.num_edges == 1
    assert g.w[0] == 4.0
    assert list(g.labels) == [5, 7]


def test_parse_merges_reversed_duplicates_when_undirected():
    g = parse("0 1 1\n1 0 2\n")
    assert g.num_edges == 1
    assert g.w[0] == 3.0


def test_parse_skips_comments_and_blanks():
    g = parse("# header\n\n0 1\n   \n# more\n1 2\n")
    assert g.n == 3
    assert g.num_edges == 2


def test_parse_remaps_labels_in_first_appearance_order():
    g = parse("10 3\n3 42\n")
    assert list(g.labels) == [10, 3, 42]
    assert (g.u.tolist(), g.v.tolist()) == ([0, 1], [1, 2])


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0 1 -3\n", 1),
        ("0\n", 1),
        ("0 1 2 3\n", 1),
        ("0 1\na b\n", 2),
        ("0 1\n1 2 w\n", 2),
        ("0 -1\n", 1),
        ("0 1\n2 3 inf\n", 2),
        ("0 1\n0 100000000000000000000000\n", 2),
        ("0 1 1e308\n1 0 1e308\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(EdgeListParseError) as info:
        parse(text)
    assert info.value.line == lineno


def test_parse_empty_input_is_an_error():
    with pytest.raises(EdgeListParseError):
        parse("# nothing here\n")


_TOKENS = st.one_of(
    # the int64 limits are drawn on their own: a plain draw from a range this
    # wide reaches 2**63 in about 1 % of tokens
    st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([2**63 - 1, 2**63, 2**70])).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789-+.eEx#_", min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_TOKENS, min_size=1, max_size=4), max_size=6))
def test_parse_returns_a_graph_or_raises_a_parse_error(rows):
    text = "\n".join(" ".join(tokens) for tokens in rows)
    try:
        g = parse(text)
    except EdgeListParseError:
        return
    assert isinstance(g, Graph)


def test_roundtrip_is_idempotent():
    g = parse("5 7 2.5\n5 7 1.5\n7 9\n9 9 0.5\n")
    out = io.StringIO()
    dump_edge_list(g, out)
    g2 = parse(out.getvalue())
    assert list(g2.labels) == list(g.labels)
    assert np.array_equal(g2.u, g.u)
    assert np.array_equal(g2.v, g.v)
    assert np.array_equal(g2.w, g.w)


def test_unit_weights_dump_without_weight_column():
    g = parse("0 1\n1 2\n")
    out = io.StringIO()
    dump_edge_list(g, out)
    assert out.getvalue() == "0 1\n1 2\n"


def test_label_map_output():
    g = parse("10 3\n3 42\n")
    out = io.StringIO()
    write_label_map(g, out)
    assert out.getvalue() == "10 0\n3 1\n42 2\n"


# ------------------------------------------------------------- structure

def test_degree_triangle():
    g = parse("0 1\n1 2\n2 0\n")
    assert g.degrees.tolist() == [2.0, 2.0, 2.0]


def test_degree_merged_edge():
    g = parse("5 7 2.5\n5 7 1.5\n")
    assert g.degrees.tolist() == [4.0, 4.0]


def test_degree_counts_self_loop_twice():
    g = parse("0 0 1\n0 1\n")
    assert g.degrees.tolist() == [3.0, 1.0]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(n=0, u=np.array([]), v=np.array([]), w=np.array([]))
    with pytest.raises(ValueError):
        Graph(n=2, u=np.array([0]), v=np.array([2]), w=np.array([1.0]))
    with pytest.raises(ValueError):
        Graph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([-1.0]))


def test_graph_rejects_a_negative_endpoint_on_either_side():
    for u, v in (([-1, 1], [0, 2]), ([0, 1], [-1, 2])):
        with pytest.raises(ValueError, match="endpoint out of range"):
            Graph(n=3, u=np.array(u), v=np.array(v), w=np.ones(2))


# ------------------------------------------------------------- generator

def test_planted_params_validation():
    with pytest.raises(ValueError):
        PlantedPartitionParams(community_sizes=[], k_avg=5, mu=0.1)
    with pytest.raises(ValueError):
        PlantedPartitionParams(community_sizes=[1, 5], k_avg=2, mu=0.1)
    with pytest.raises(ValueError):
        PlantedPartitionParams(community_sizes=[5, 5], k_avg=3, mu=1.0)
    with pytest.raises(ValueError):
        PlantedPartitionParams(community_sizes=[5, 5], k_avg=-1, mu=0.1)
    with pytest.raises(ValueError):
        PlantedPartitionParams(community_sizes=[5, 5], k_avg=10, mu=0.1)
    # NaN fails every comparison, so it must fail the range test too
    with pytest.raises(ValueError, match=r"k_avg must lie in \(0, n\)"):
        PlantedPartitionParams(community_sizes=[5, 5], k_avg=math.nan, mu=0.1)


def test_planted_mu_zero_has_no_cross_edges():
    params = PlantedPartitionParams(community_sizes=[20, 20, 20], k_avg=10, mu=0.0)
    g, truth = planted_partition(params, seed=1)
    assign = truth.assignment
    assert np.all(assign[g.u] == assign[g.v])
    assert truth.num_clusters == 3
    assert list(truth.sizes()) == [20, 20, 20]


def test_planted_determinism():
    params = PlantedPartitionParams(community_sizes=[20, 20, 20], k_avg=10, mu=0.3)
    g1, t1 = planted_partition(params, seed=1)
    g2, t2 = planted_partition(params, seed=1)
    assert np.array_equal(g1.u, g2.u)
    assert np.array_equal(g1.v, g2.v)
    assert t1 == t2
    g3, _ = planted_partition(params, seed=2)
    assert (len(g3.u) != len(g1.u)) or not np.array_equal(g3.u, g1.u)


def test_planted_graphs_are_simple():
    params = PlantedPartitionParams(community_sizes=[15, 25], k_avg=8, mu=0.4)
    g, _ = planted_partition(params, seed=9)
    assert np.all(g.u != g.v)
    assert np.all(g.w == 1.0)
    pairs = set(zip(g.u.tolist(), g.v.tolist()))
    assert len(pairs) == g.num_edges


def test_planted_empirical_mixing_matches_mu():
    params = PlantedPartitionParams(community_sizes=[20, 20, 20], k_avg=10, mu=0.3)
    g, truth = planted_partition(params, seed=1)
    # each node's fraction of links that leave its community
    cut = truth.assignment[g.u] != truth.assignment[g.v]
    external = np.bincount(g.u[cut], minlength=g.n) + np.bincount(g.v[cut], minlength=g.n)
    mix = external / g.degrees
    assert abs(mix.mean() - 0.3) <= 0.05


def test_planted_mean_degree_is_near_target():
    params = PlantedPartitionParams(community_sizes=[100] * 6, k_avg=15, mu=0.4)
    g, _ = planted_partition(params, seed=3)
    assert abs(g.degrees.mean() - 15.0) < 1.5


def test_planted_infeasible_internal_degree():
    params = PlantedPartitionParams(community_sizes=[3, 3], k_avg=4, mu=0.0)
    with pytest.raises(InfeasibleModelError):
        planted_partition(params, seed=0)


def test_clique_fixtures():
    g, part = disconnected_cliques([3, 4])
    assert g.n == 7
    assert g.num_edges == 3 + 6
    assert list(part.sizes()) == [3, 4]
    gl, _ = disconnected_cliques([3, 3], with_self_loops=True)
    assert np.any(gl.u == gl.v)
    # half-weight self-loops double to 1 inside the degree, so every
    # member of a clique of size s has degree s
    assert np.all(gl.degrees == 3.0)
