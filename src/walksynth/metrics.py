"""Partition comparison and per-node / per-cluster structure statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .graph import Graph, write_lines
from .partitions import Partition

#: adjacency rows per block of the triangle count, which bounds its memory
TRIANGLE_BLOCK_ROWS = 1024


def contingency(a: Partition, b: Partition) -> np.ndarray:
    """Cluster overlap counts; rows index a's clusters, columns b's.

    Raises:
        ValueError: partitions cover different node counts.
    """
    if a.n != b.n:
        raise ValueError(f"partitions cover {a.n} and {b.n} nodes")
    table = np.zeros((a.num_clusters, b.num_clusters), dtype=np.int64)
    np.add.at(table, (a.assignment, b.assignment), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    c = counts[counts > 0]
    # mirror the term shape of the mutual-information sum (exact integer
    # ratios inside the log) so a perfect match cancels bit-exactly to 1.0
    return float(np.sum((c / n) * np.log(n / c)))


def _expected_mi(a_counts: np.ndarray, b_counts: np.ndarray, n: int) -> float:
    """Exact expectation of the mutual information (nats) over random
    contingency tables with these fixed marginals (Vinh, Epps & Bailey 2010),
    summed in loop order one row of at most n cells (b_j, n_ij) at a time."""
    log_fact = np.array([math.lgamma(x + 1) for x in range(n + 1)])
    total = 0.0
    for ai in a_counts.tolist():
        lo = np.maximum(1, ai + b_counts - n)
        cells = np.minimum(ai, b_counts) - lo + 1
        bj = b_counts.repeat(cells)
        # n_ij runs lo..hi within each column's block of cells
        nij = np.arange(len(bj)) + (lo - (cells.cumsum() - cells)).repeat(cells)
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
        terms = (nij / n) * np.log(n * nij / (ai * bj)) * np.exp(log_prob)
        # carrying the running sum in keeps the additions in the loop's order
        terms[0] += total
        total = float(terms.cumsum()[-1])
    return total


def ami(a: Partition, b: Partition) -> float:
    """Adjusted mutual information: mutual information centered by its exact
    expectation under random labelings with the same cluster sizes, scaled by
    the larger entropy. 1.0 for identical partitions, about 0 for independent
    ones, slightly negative below chance.

    Two identical single-cluster partitions score 1.0 by convention, and so
    do two all-singleton ones, where the formula is 0 / 0.
    """
    table = contingency(a, b)
    n = a.n
    a_counts = table.sum(axis=1)
    b_counts = table.sum(axis=0)
    h_a = _entropy(a_counts, n)
    h_b = _entropy(b_counts, n)
    if a.num_clusters == b.num_clusters and a.num_clusters in (1, n):
        return 1.0
    nz = table[table > 0]
    rows, cols = np.nonzero(table)
    mi = float(
        np.sum((nz / n) * np.log(n * nz / (a_counts[rows] * b_counts[cols])))
    )
    emi = _expected_mi(a_counts, b_counts, n)
    return float((mi - emi) / (max(h_a, h_b) - emi))


def greedy_match(table: np.ndarray) -> dict[int, int]:
    """Greedy one-to-one matching of clusters by descending overlap.

    Repeatedly takes the largest remaining entry whose row and column are
    both unmatched (ties to the smallest row, then column) until
    min(rows, columns) pairs are fixed. Returns row cluster -> column
    cluster.
    """
    table = np.asarray(table)
    rows_left = list(range(table.shape[0]))
    cols_left = list(range(table.shape[1]))
    matches: dict[int, int] = {}
    for _ in range(min(table.shape)):
        sub = table[np.ix_(rows_left, cols_left)]
        flat = int(np.argmax(sub))
        ri, ci = divmod(flat, sub.shape[1])
        matches[rows_left[ri]] = cols_left[ci]
        rows_left.pop(ri)
        cols_left.pop(ci)
    return matches


def classify_nodes(
    y_true: Partition, y_pred: Partition, mapping: dict[int, int] | None = None
) -> np.ndarray:
    """Boolean per-node correctness: a node counts as correctly classified
    when its predicted cluster is the greedy match of its true cluster.
    Nodes of unmatched true clusters are never correct."""
    if mapping is None:
        mapping = greedy_match(contingency(y_true, y_pred))
    expected = np.array([mapping.get(int(c), -1) for c in y_true.assignment])
    return expected == y_pred.assignment


def _neighbour_links(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per node, its number of other neighbours and the number of links among
    them (the triangles through it); self-loops and parallel edges count as
    no link and one link.

    Each triangle a < b < c is found once, as a link a - b followed by a link
    b - c whose end closes back to a. A block of TRIANGLE_BLOCK_ROWS values
    of a takes a fixed number of numpy calls.
    """
    n = g.n
    indptr, indices, _ = g.adjacency
    rows = np.repeat(np.arange(n), np.diff(indptr))
    deg = np.bincount(rows[indices != rows], minlength=n)
    up = indices > rows
    tails, heads = rows[up], indices[up]
    starts = np.concatenate(([0], np.cumsum(up)))[indptr]
    fans = np.diff(starts)
    # every upward link as a sorted key, and n * n after them, which no
    # lookup matches, to catch lookups past the last link
    keys = np.append(tails * n + heads, n * n)
    links = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, TRIANGLE_BLOCK_ROWS):
        first, last = starts[lo], starts[min(lo + TRIANGLE_BLOCK_ROWS, n)]
        a, b = tails[first:last], heads[first:last]
        fan = fans[b]
        # the links b - c of every a - b, one run after another
        at = np.repeat(starts[b] - (np.cumsum(fan) - fan), fan) + np.arange(fan.sum())
        a, b, c = np.repeat(a, fan), np.repeat(b, fan), heads[at]
        closing = a * n + c
        closed = keys[np.searchsorted(keys, closing)] == closing
        links += np.bincount(np.concatenate((a[closed], b[closed], c[closed])), minlength=n)
    return deg, links


@dataclass
class ClusterStatsRow:
    cluster: int
    size: int
    density: float
    clustering: float
    conductance: float
    cut_ratio: float
    whole_graph: bool = False


def cluster_stats(g: Graph, part: Partition, min_size: int = 3) -> list[ClusterStatsRow]:
    """Structural statistics for every cluster of at least ``min_size`` nodes.

    Per cluster S with m_s internal and c_s external links: density
    m_s / C(|S|, 2); mean member clustering coefficient (0 for members with
    fewer than two neighbors); conductance c_s / (m_s + c_s) (0 when S has no
    links at all); cut ratio c_s / (|S| (n - |S|)), reported as 0 with the
    ``whole_graph`` flag when S covers the whole graph.

    Raises:
        ValueError: weighted graph.
    """
    if not g.is_unweighted:
        raise ValueError("cluster statistics is defined here for unweighted graphs only")
    if part.n != g.n:
        raise ValueError("partition does not cover the graph")
    assign = part.assignment
    k = part.num_clusters
    sizes = part.sizes()

    ca, cb = assign[g.u], assign[g.v]
    inside = ca == cb  # self-loops included
    internal = np.bincount(ca[inside], minlength=k)
    external = np.bincount(ca[~inside], minlength=k) + np.bincount(cb[~inside], minlength=k)

    deg, links = _neighbour_links(g)
    coeff = np.divide(links, deg * (deg - 1) / 2, out=np.zeros(g.n), where=deg >= 2)

    rows = []
    members = part.members()
    for c in range(k):
        size = int(sizes[c])
        if size < min_size:
            continue
        m_s = int(internal[c])
        c_s = int(external[c])
        rho = m_s / (size * (size - 1) / 2) if size > 1 else 0.0
        cbar = float(coeff[members[c]].mean())
        kappa = c_s / (m_s + c_s) if (m_s + c_s) > 0 else 0.0
        whole = size == g.n
        xi = 0.0 if whole else c_s / (size * (g.n - size))
        rows.append(
            ClusterStatsRow(
                cluster=c,
                size=size,
                density=rho,
                clustering=cbar,
                conductance=kappa,
                cut_ratio=xi,
                whole_graph=whole,
            )
        )
    return rows


def write_cluster_stats_csv(rows: list[ClusterStatsRow], sink: str | Path | IO[str]) -> None:
    lines = ["cluster,size,density,clustering_coefficient,conductance,cut_ratio"]
    for r in rows:
        lines.append(
            f"{r.cluster},{r.size},{r.density!r},{r.clustering!r},{r.conductance!r},{r.cut_ratio!r}"
        )
    write_lines(lines, sink)
