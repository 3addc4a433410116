"""Benchmark inputs, made from the run's seed without importing walksynth.

LFR graphs come from networkx; small planted graphs and the random 8-10-node
graphs come from the samplers below. Every graph is written as an edge list
(``u v`` per line) and, where it has one, its truth as ``node cluster`` lines.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import numpy as np

#: resampling attempts before a graph spec is declared unrealisable
MAX_ATTEMPTS = 200
#: LFR power-law exponents of the degree and community-size distributions
TAU1, TAU2 = 2.5, 1.5


def sub_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one input of a run."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def lfr_graph(n: int, mu: float, seed: int, *, average_degree: float, max_degree: int,
              min_community: int, max_community: int):
    """LFR graph (Lancichinetti, Fortunato & Radicchi 2008) and its communities.

    networkx adds a self-loop now and then; those are dropped, and an attempt
    that leaves a node without neighbours is redrawn with the next sub-seed,
    so every node of the truth appears in the edge list.
    """
    for attempt in range(MAX_ATTEMPTS):
        try:
            g = nx.LFR_benchmark_graph(
                n, TAU1, TAU2, mu, average_degree=average_degree, max_degree=max_degree,
                min_community=min_community, max_community=max_community,
                seed=sub_seed(seed, attempt), max_iters=1000,
            )
        except nx.ExceededMaxIterations:
            continue
        g.remove_edges_from(list(nx.selfloop_edges(g)))
        if min(d for _, d in g.degree()) == 0:
            continue
        communities = sorted({frozenset(g.nodes[v]["community"]) for v in g}, key=min)
        truth = np.empty(n, dtype=np.int64)
        for c, members in enumerate(communities):
            truth[list(members)] = c
        edges = np.array(sorted((min(u, v), max(u, v)) for u, v in g.edges()), dtype=np.int64)
        return edges, truth
    raise RuntimeError(f"LFR n={n} mu={mu} not realised in {MAX_ATTEMPTS} attempts")


def planted_graph(sizes: list[int], k_avg: float, mu: float, seed: int):
    """Planted partition with every node's expected internal degree
    (1 - mu) k_avg and external degree mu k_avg, redrawn until no node is
    isolated."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    truth = np.repeat(np.arange(len(sizes)), sizes)
    p_in = (1.0 - mu) * k_avg / (sizes[truth] - 1)
    p_out = mu * k_avg / (n - sizes[truth])
    iu, iv = np.triu_indices(n, k=1)
    same = truth[iu] == truth[iv]
    prob = np.where(same, 0.5 * (p_in[iu] + p_in[iv]), 0.5 * (p_out[iu] + p_out[iv]))
    if prob.max() > 1.0:
        raise ValueError("planted rates above 1")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        keep = rng.random(len(iu)) < prob
        edges = np.stack([iu[keep], iv[keep]], axis=1)
        if np.all(np.bincount(edges.ravel(), minlength=n) > 0):
            return edges, truth
    raise RuntimeError("planted graph kept an isolated node")


def random_connected_graph(n: int, p: float, seed: int) -> np.ndarray:
    """G(n, p) redrawn until connected."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    for _ in range(MAX_ATTEMPTS):
        keep = rng.random(len(iu)) < p
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(iu[keep].tolist(), iv[keep].tolist()))
        if nx.is_connected(g):
            return np.stack([iu[keep], iv[keep]], axis=1)
    raise RuntimeError("no connected G(n, p) drawn")


def write_edges(path: Path, edges: np.ndarray) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))


def write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("".join(f"{i} {c}\n" for i, c in enumerate(labels.tolist())))
