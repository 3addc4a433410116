"""Reference computations, written apart from walksynth and never importing it.

Everything here follows the definitions in walksynth's documentation, built
again from numpy, scipy and networkx:

- the stationary walk of an undirected graph, its node-level mutual
  information I(X;X') and, per partition, the cluster-level I(Y;Y') and the
  synthesis objective J (per cluster: mass times the binary KL divergence, in
  bits, between the stay probability and the mass);
- Newman modularity through networkx;
- AMI with the exact expected mutual information (Vinh, Epps & Bailey 2010),
  vectorised with ``gammaln`` and normalised by the larger entropy;
- the greedy cluster match (largest overlap first, ties to the smallest row,
  then column) and the per-node classification it implies;
- per-cluster density, clustering, conductance and cut ratio;
- the exhaustive J optimum over all set partitions of a small graph.

Graphs are unweighted simple edge lists. Node order and cluster numbering
follow the convention the documentation fixes for inputs: nodes are numbered
by first appearance in the edge file, clusters by first appearance in that
node order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.special import gammaln


@dataclass
class RefGraph:
    """Undirected graph over dense indices with its original labels.

    ``adj`` is symmetric; a self-loop of weight w sits on the diagonal as 2w
    so that row sums are degrees.
    """

    labels: np.ndarray
    adj: sparse.csr_matrix

    @property
    def n(self) -> int:
        return len(self.labels)


def read_edge_file(path: Path) -> np.ndarray:
    """Edge list as an (m, 2) array of labels, in file order."""
    rows = [line.split() for line in Path(path).read_text().splitlines() if line.strip()]
    if any(len(r) != 2 for r in rows):
        raise ValueError(f"{path}: expected 'u v' lines only")
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def graph_from_edges(edges: np.ndarray) -> RefGraph:
    """Graph of an unweighted label edge list, nodes in first-appearance order."""
    flat = edges.ravel()
    _, first = np.unique(flat, return_index=True)
    labels = flat[np.sort(first)]
    index = {int(lab): i for i, lab in enumerate(labels)}
    u = np.array([index[int(x)] for x in edges[:, 0]], dtype=np.int64)
    v = np.array([index[int(x)] for x in edges[:, 1]], dtype=np.int64)
    n = len(labels)
    a = sparse.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)).tocsr()
    return RefGraph(labels=labels, adj=(a + a.T).tocsr())


def load_graph(path: Path) -> RefGraph:
    return graph_from_edges(read_edge_file(path))


def read_partition_file(path: Path) -> dict[int, int]:
    out: dict[int, int] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            label, cluster = line.split()
            out[int(label)] = int(cluster)
    return out


def dense_clusters(raw: np.ndarray) -> np.ndarray:
    """Relabel clusters 0..K-1 by first appearance."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def aligned_partition(g: RefGraph, mapping: dict[int, int]) -> np.ndarray:
    """Dense cluster index per graph node from a label -> cluster mapping."""
    if set(mapping) != {int(x) for x in g.labels}:
        raise ValueError("partition and graph cover different nodes")
    return dense_clusters(np.array([mapping[int(lab)] for lab in g.labels]))


# -- stationary walk and information quantities ---------------------------


def _plogp_ratio(x: np.ndarray, y: np.ndarray) -> float:
    """sum x log2(x / y) over x > 0."""
    mask = x > 0
    return float(np.sum(x[mask] * np.log2(x[mask] / y[mask])))


def node_mi(g: RefGraph) -> float:
    """I(X;X') in bits of the degree-proportional walk."""
    deg = np.asarray(g.adj.sum(axis=1)).ravel()
    coo = g.adj.tocoo()
    flow = coo.data / deg.sum()
    p = deg / deg.sum()
    return _plogp_ratio(flow, p[coo.row] * p[coo.col])


def cluster_flows(g: RefGraph, assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cluster masses p_i and the joint one-step flow matrix p_ij."""
    k = int(assign.max()) + 1
    deg = np.asarray(g.adj.sum(axis=1)).ravel()
    total = deg.sum()
    member = sparse.csr_matrix((np.ones(g.n), (np.arange(g.n), assign)), shape=(g.n, k))
    p_ij = (member.T @ g.adj @ member).toarray() / total
    return np.bincount(assign, weights=deg, minlength=k) / total, p_ij


def cluster_mi(g: RefGraph, assign: np.ndarray) -> float:
    p_i, p_ij = cluster_flows(g, assign)
    return _plogp_ratio(p_ij, np.outer(p_i, p_i))


def synthesis_terms(mass: np.ndarray, within: np.ndarray) -> np.ndarray:
    """mass * KL2(stay || mass) elementwise; 0 where mass is 0 or 1."""
    mass = np.asarray(mass, dtype=np.float64)
    ok = (mass > 0) & (mass < 1)
    m = np.where(ok, mass, 0.5)
    s = np.clip(np.where(ok, within / m, 0.5), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        stay = np.where(s > 0, s * np.log2(s / m), 0.0)
        leave = np.where(s < 1, (1 - s) * np.log2((1 - s) / (1 - m)), 0.0)
    return np.where(ok, m * (stay + leave), 0.0)


def synthesis_per_cluster(g: RefGraph, assign: np.ndarray) -> np.ndarray:
    p_i, p_ij = cluster_flows(g, assign)
    return synthesis_terms(p_i, np.diag(p_ij))


def modularity_q(g: RefGraph, assign: np.ndarray) -> float:
    """Newman Q through networkx."""
    coo = sparse.triu(g.adj, k=1).tocoo()
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    groups = [set(np.flatnonzero(assign == c).tolist()) for c in range(int(assign.max()) + 1)]
    return float(nx.community.modularity(nxg, groups))


# -- partition comparison -------------------------------------------------


def contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    c = counts[counts > 0].astype(np.float64)
    return float(-np.sum((c / n) * np.log(c / n)))


def expected_mi(a_counts: np.ndarray, b_counts: np.ndarray, n: int) -> float:
    """Exact E[MI] in nats under the hypergeometric model, one row of the
    contingency table at a time, each row vectorised over columns and cell
    values."""
    a = np.asarray(a_counts, dtype=np.float64)
    b = np.asarray(b_counts, dtype=np.float64)
    top = int(min(a.max(), b.max()))
    nij = np.arange(1, top + 1, dtype=np.float64)[None, :]
    bj = b[:, None]
    total = 0.0
    for ai in a:
        lo = np.maximum(1.0, ai + bj - n)
        hi = np.minimum(ai, bj)
        valid = (nij >= lo) & (nij <= hi)
        x = np.where(valid, nij, 1.0)
        log_p = (
            gammaln(ai + 1) + gammaln(bj + 1) + gammaln(n - ai + 1) + gammaln(n - bj + 1)
            - gammaln(n + 1) - gammaln(x + 1) - gammaln(ai - x + 1)
            - gammaln(np.where(valid, bj - x, 0.0) + 1)
            - gammaln(np.where(valid, n - ai - bj + x, 0.0) + 1)
        )
        term = (x / n) * np.log(n * x / (ai * bj))
        total += float(np.sum(term * np.exp(np.where(valid, log_p, -np.inf))))
    return total


def ami(a: np.ndarray, b: np.ndarray) -> float:
    """AMI normalised by max(H(a), H(b)); 1 for two single-cluster labelings."""
    n = len(a)
    table = contingency(a, b)
    a_counts, b_counts = table.sum(axis=1), table.sum(axis=0)
    if len(a_counts) == 1 and len(b_counts) == 1:
        return 1.0
    rows, cols = np.nonzero(table)
    nz = table[rows, cols].astype(np.float64)
    mi = float(np.sum((nz / n) * np.log(n * nz / (a_counts[rows] * b_counts[cols]))))
    emi = expected_mi(a_counts, b_counts, n)
    return (mi - emi) / (max(_entropy(a_counts, n), _entropy(b_counts, n)) - emi)


def greedy_match(table: np.ndarray) -> dict[int, int]:
    """Largest overlap first, ties to the smallest row, then column, until
    min(rows, columns) pairs are fixed."""
    rows, cols = np.indices(table.shape)
    order = np.lexsort((cols.ravel(), rows.ravel(), -table.ravel()))
    used_r, used_c, match = set(), set(), {}
    for flat in order.tolist():
        r, c = divmod(flat, table.shape[1])
        if r in used_r or c in used_c:
            continue
        match[r] = c
        used_r.add(r)
        used_c.add(c)
        if len(match) == min(table.shape):
            break
    return match


def eval_payload(truth: np.ndarray, pred: np.ndarray) -> dict:
    match = greedy_match(contingency(truth, pred))
    expected = np.array([match.get(int(c), -1) for c in truth])
    return {
        "ami": ami(truth, pred),
        "matches": len(match),
        "misclassified": int(np.sum(expected != pred)),
        "k_true": int(truth.max()) + 1,
        "k_pred": int(pred.max()) + 1,
    }


# -- cluster statistics -----------------------------------------------------


def cluster_stats_rows(g: RefGraph, assign: np.ndarray, min_size: int = 3) -> list[tuple]:
    """(cluster, size, density, clustering, conductance, cut_ratio) for every
    cluster of at least ``min_size`` nodes; conductance is c_s / (m_s + c_s)
    and the cut ratio is 0 for a cluster covering the whole graph."""
    a = (g.adj > 0).astype(np.float64)
    deg = np.asarray(a.sum(axis=1)).ravel()
    triangles = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0
    pairs = deg * (deg - 1) / 2.0
    coeff = np.divide(triangles, pairs, out=np.zeros(g.n), where=deg >= 2)
    upper = sparse.triu(a, k=1).tocoo()
    same = assign[upper.row] == assign[upper.col]
    k = int(assign.max()) + 1
    internal = np.bincount(assign[upper.row[same]], minlength=k)
    external = np.bincount(assign[upper.row[~same]], minlength=k) + np.bincount(
        assign[upper.col[~same]], minlength=k
    )
    sizes = np.bincount(assign, minlength=k)
    rows = []
    for c in range(k):
        size = int(sizes[c])
        if size < min_size:
            continue
        m_s, c_s = int(internal[c]), int(external[c])
        rows.append((
            c,
            size,
            m_s / (size * (size - 1) / 2),
            float(coeff[assign == c].mean()),
            c_s / (m_s + c_s) if m_s + c_s else 0.0,
            0.0 if size == g.n else c_s / (size * (g.n - size)),
        ))
    return rows


# -- exhaustive optimum -----------------------------------------------------


@lru_cache(maxsize=4)
def all_set_partitions(n: int) -> np.ndarray:
    """Every restricted-growth string of length n, one per row."""
    rgs = np.zeros((1, 1), dtype=np.int8)
    for _ in range(1, n):
        top = rgs.max(axis=1).astype(np.int64) + 2
        reps = np.repeat(np.arange(len(rgs)), top)
        nxt = np.concatenate([np.arange(t) for t in top]).astype(np.int8)
        rgs = np.column_stack([rgs[reps], nxt])
    return rgs


def synthesis_all(g: RefGraph, parts: np.ndarray) -> np.ndarray:
    """J of every row of ``parts`` (dense assignments of g's nodes)."""
    deg = np.asarray(g.adj.sum(axis=1)).ravel()
    total = deg.sum()
    coo = g.adj.tocoo()
    values = np.zeros(len(parts))
    for c in range(g.n):
        inside = parts == c
        mass = inside.astype(np.float64) @ (deg / total)
        within = np.zeros(len(parts))
        for r, s, w in zip(coo.row, coo.col, coo.data):
            within += (inside[:, r] & inside[:, s]) * (w / total)
        values += synthesis_terms(mass, within)
    return values


def exhaustive_optimum(g: RefGraph) -> float:
    if g.n > 10:
        raise ValueError("exhaustive search is kept to graphs of at most 10 nodes")
    return float(synthesis_all(g, all_set_partitions(g.n)).max())


# -- planted-model expectations --------------------------------------------


def planted_edge_moments(sizes: list[int], k_avg: float, mu: float) -> dict:
    """Mean and variance of the internal and external edge counts under the
    documented planted model: pair rate (1 - mu) k / (|c| - 1) inside a
    community, the mean of mu k / (n - |c|) and mu k / (n - |d|) across."""
    s = np.asarray(sizes, dtype=np.float64)
    n = s.sum()
    pairs_in = s * (s - 1) / 2
    p_in = (1 - mu) * k_avg / (s - 1)
    one_sided = mu * k_avg / (n - s)
    p_out = 0.5 * (one_sided[:, None] + one_sided[None, :])
    pairs_out = np.triu(np.outer(s, s), k=1)
    return {
        "internal": (float(np.sum(pairs_in * p_in)), float(np.sum(pairs_in * p_in * (1 - p_in)))),
        "external": (
            float(np.sum(pairs_out * p_out)),
            float(np.sum(pairs_out * p_out * (1 - p_out))),
        ),
    }


# -- self-test --------------------------------------------------------------


def self_test() -> None:
    """Known answers; raises AssertionError on the first miss."""
    # a single cluster scores 0
    ring = graph_from_edges(np.array([[i, (i + 1) % 7] for i in range(7)]))
    assert synthesis_per_cluster(ring, np.zeros(7, dtype=np.int64)).sum() == 0.0

    # disconnected cliques whose walk is uniform over each clique (self-loops
    # included): the clique partition reaches I(X;X') = I(Y;Y') = log2(K)
    sizes = [4, 4, 4]
    blocks = sparse.block_diag([np.ones((s, s)) for s in sizes]).tocsr()
    cliques = RefGraph(labels=np.arange(sum(sizes)), adj=blocks)
    truth = np.repeat(np.arange(len(sizes)), sizes)
    j = synthesis_per_cluster(cliques, truth).sum()
    assert abs(j - node_mi(cliques)) < 1e-12, (j, node_mi(cliques))
    assert abs(j - cluster_mi(cliques, truth)) < 1e-12
    assert abs(j - math.log2(3)) < 1e-12

    # AMI of a labeling with itself is 1; relabeling changes nothing
    rng = np.random.default_rng(7)
    labels = dense_clusters(rng.integers(0, 6, size=300))
    assert abs(ami(labels, labels) - 1.0) < 1e-12
    assert abs(ami(labels, dense_clusters((labels * 7 + 3) % 11)) - 1.0) < 1e-12

    # the exhaustive search finds the clique partition of cliques with a
    # uniform walk, and agrees with the per-partition route everywhere
    pair = RefGraph(labels=np.arange(6), adj=sparse.block_diag([np.ones((3, 3))] * 2).tocsr())
    every = all_set_partitions(6)
    assert len(every) == 203 and len(all_set_partitions(8)) == 4140  # Bell numbers
    best = synthesis_all(pair, every)
    assert abs(best.max() - 1.0) < 1e-12
    assert abs(best[every.tolist().index([0, 0, 0, 1, 1, 1])] - 1.0) < 1e-12
    bridge = graph_from_edges(np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]))
    routes = synthesis_all(bridge, every)
    for row, value in zip(every[::17], routes[::17]):
        assert abs(synthesis_per_cluster(bridge, dense_clusters(row)).sum() - value) < 1e-12

    # greedy match tie rule
    assert greedy_match(np.array([[2, 2], [2, 1]])) == {0: 0, 1: 1}

    # networkx Q equals the closed form on two joined triangles
    q = modularity_q(bridge, np.array([0, 0, 0, 1, 1, 1]))
    assert abs(q - (2 * (3 / 7 - (7 / 14) ** 2))) < 1e-12

    # a clique has clustering 1 and density 1
    k5 = graph_from_edges(np.array(list(itertools.combinations(range(5), 2))))
    assert cluster_stats_rows(k5, np.zeros(5, dtype=np.int64)) == [(0, 5, 1.0, 1.0, 0.0, 0.0)]
