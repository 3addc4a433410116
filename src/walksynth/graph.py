"""Graph container, edge-list I/O, basic structure queries, and a planted
block-model generator for benchmark networks.

Node labels from input files are remapped to dense indices 0..n-1 in first
appearance order; the original labels are kept on the graph for round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable

import numpy as np


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InfeasibleModelError(ValueError):
    """Planted-partition parameters that cannot be realized as probabilities."""


def read_text(source: str | Path | IO[str]) -> str:
    """Whole text of a file path or of an open text stream."""
    return source.read() if hasattr(source, "read") else Path(source).read_text()


def write_lines(lines: Iterable[str], sink: str | Path | IO[str]) -> None:
    """Write newline-terminated lines to a file path or an open text stream."""
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text)


@dataclass(eq=False)
class Graph:
    """Weighted graph over dense node indices 0..n-1.

    Edges are undirected and stored once with u <= v. Self-loops are allowed
    and contribute their weight twice to a degree, so that the lazy random
    walk's stationary distribution stays proportional to degree.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.int64)
        self.v = np.asarray(self.v, dtype=np.int64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        if not (len(self.u) == len(self.v) == len(self.w)):
            raise ValueError("edge arrays differ in length")
        if len(self.u) and (
            min(self.u.min(), self.v.min()) < 0 or max(self.u.max(), self.v.max()) >= self.n
        ):
            raise ValueError("edge endpoint out of range")
        if np.any(self.w < 0) or not np.all(np.isfinite(self.w)):
            raise ValueError("edge weights must be finite and nonnegative")
        if self.labels is None:
            self.labels = np.arange(self.n, dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != self.n:
                raise ValueError("label array length must equal n")

    @property
    def num_edges(self) -> int:
        return len(self.u)

    @cached_property
    def is_unweighted(self) -> bool:
        return bool(np.all(self.w == 1.0))

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric weighted adjacency as CSR arrays ``(indptr, indices,
        data)``: row a's columns ``indices[indptr[a]:indptr[a + 1]]`` ascend,
        each once (parallel edges summed, zero weights kept), and self-loop
        entries are doubled so row sums equal degrees."""
        loops = self.u == self.v
        data = np.concatenate([self.w[~loops], self.w[~loops], 2.0 * self.w[loops]])
        rows = np.concatenate([self.u[~loops], self.v[~loops], self.u[loops]])
        cols = np.concatenate([self.v[~loops], self.u[~loops], self.u[loops]])
        # sorted, the keys row * n + col put the entries in CSR order
        key, slot = np.unique(rows * self.n + cols, return_inverse=True)
        # parallel edges add up one after another, in input order
        summed = np.zeros(len(key))
        np.add.at(summed, slot, data)
        indptr = np.searchsorted(key, np.arange(self.n + 1) * self.n)
        return indptr, key % self.n, summed

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree: incident weight sum, self-loops counted twice."""
        indptr, _, data = self.adjacency
        return row_sums(indptr, data)


def row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Sum of each CSR row's entries in stored order, 0 for an empty row."""
    sums = np.zeros(len(indptr) - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    if len(nonempty):
        sums[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return sums


def load_edge_list(source: str | Path | IO[str]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Each data line is ``u v`` or ``u v weight`` with nonnegative integer
    labels; lines starting with ``#`` and blank lines are skipped. Edges are
    undirected: duplicates in either orientation have their weights summed.

    Raises:
        EdgeListParseError: on malformed tokens, labels outside [0, 2**63),
            negative weights or summed weights that overflow, with the
            offending line number.
    """
    lines = read_text(source).splitlines()

    label_to_dense: dict[int, int] = {}
    order: dict[tuple[int, int], int] = {}
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []

    def dense(label: int) -> int:
        if label not in label_to_dense:
            label_to_dense[label] = len(label_to_dense)
        return label_to_dense[label]

    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(lineno, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"node labels must be integers: {parts[:2]}") from None
        if a < 0 or b < 0:
            raise EdgeListParseError(lineno, "node labels must be nonnegative")
        if a >= 2**63 or b >= 2**63:
            # labels are kept in an int64 array
            raise EdgeListParseError(lineno, "node labels must be below 2**63")
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad weight {parts[2]!r}") from None
            if not math.isfinite(weight) or weight < 0:
                raise EdgeListParseError(lineno, f"weight must be finite and nonnegative, got {weight}")
        else:
            weight = 1.0
        x, y = dense(a), dense(b)
        key = (x, y) if x <= y else (y, x)
        if key in order:
            ws[order[key]] += weight
            if math.isinf(ws[order[key]]):
                raise EdgeListParseError(lineno, f"summed weight of edge {a} {b} overflows")
        else:
            order[key] = len(us)
            us.append(key[0])
            vs.append(key[1])
            ws.append(weight)

    if not label_to_dense:
        raise EdgeListParseError(max(len(lines), 1), "no edges found")
    labels = np.empty(len(label_to_dense), dtype=np.int64)
    for lab, idx in label_to_dense.items():
        labels[idx] = lab
    return Graph(
        n=len(label_to_dense),
        u=np.array(us, dtype=np.int64),
        v=np.array(vs, dtype=np.int64),
        w=np.array(ws, dtype=np.float64),
        labels=labels,
    )


def dump_edge_list(g: Graph, sink: str | Path | IO[str]) -> None:
    """Write the graph back out with its original labels; unit weights are
    omitted so unweighted files stay unweighted."""
    edges = zip(g.labels[g.u].tolist(), g.labels[g.v].tolist(), g.w.tolist())
    write_lines(
        (f"{la} {lb}" if weight == 1.0 else f"{la} {lb} {weight!r}" for la, lb, weight in edges),
        sink,
    )


def write_label_map(g: Graph, sink: str | Path | IO[str]) -> None:
    """Persist the original-to-dense label map as two-column text."""
    write_lines((f"{label} {i}" for i, label in enumerate(g.labels.tolist())), sink)


@dataclass
class PlantedPartitionParams:
    """Parameters for the planted block-model benchmark generator.

    ``mu`` is the target mixing: the expected fraction of a node's links that
    leave its community. Every node gets expected internal degree
    ``(1 - mu) * k_avg`` and expected external degree ``mu * k_avg``.
    """

    community_sizes: list[int]
    k_avg: float
    mu: float

    def __post_init__(self):
        if not self.community_sizes:
            raise ValueError("at least one community required")
        if any(s < 2 for s in self.community_sizes):
            raise ValueError("each community needs at least two nodes")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if not 0 < self.k_avg < self.n:
            raise ValueError("k_avg must lie in (0, n)")

    @property
    def n(self) -> int:
        return int(sum(self.community_sizes))


def planted_partition(params: PlantedPartitionParams, seed: int):
    """Sample an unweighted planted-partition graph and its ground truth.

    Within community ``c`` each distinct pair is linked independently with
    probability ``(1 - mu) * k_avg / (|c| - 1)``; a pair spanning communities
    ``c, d`` is linked with the mean of the two one-sided rates
    ``mu * k_avg / (n - |c|)`` and ``mu * k_avg / (n - |d|)`` (identical when
    sizes match). mu = 0 therefore yields no inter-community edges at all.

    Args:
        params: model parameters; infeasible rates (> 1) raise
            InfeasibleModelError.
        seed: generator seed; the same seed reproduces the same edge list.

    Returns:
        (Graph, Partition) with the ground-truth community assignment.
    """
    from .partitions import Partition

    sizes = [int(s) for s in params.community_sizes]
    n = params.n
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    assignment = np.repeat(np.arange(len(sizes)), sizes)

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []

    for ci, size in enumerate(sizes):
        p_in = (1.0 - params.mu) * params.k_avg / (size - 1)
        if p_in > 1.0:
            raise InfeasibleModelError(
                f"community of size {size} cannot host internal degree "
                f"{(1.0 - params.mu) * params.k_avg:.3f}"
            )
        lo = offsets[ci]
        a, b = np.triu_indices(size, k=1)
        keep = rng.random(len(a)) < p_in
        us.append(a[keep] + lo)
        vs.append(b[keep] + lo)

    if params.mu > 0.0:
        for ci in range(len(sizes)):
            for cj in range(ci + 1, len(sizes)):
                p_out = params.mu * params.k_avg * 0.5 * (
                    1.0 / (n - sizes[ci]) + 1.0 / (n - sizes[cj])
                )
                if p_out > 1.0:
                    raise InfeasibleModelError(
                        f"inter-community rate {p_out:.3f} exceeds 1 "
                        f"for sizes {sizes[ci]}, {sizes[cj]}"
                    )
                block = rng.random((sizes[ci], sizes[cj])) < p_out
                a, b = np.nonzero(block)
                us.append(a + offsets[ci])
                vs.append(b + offsets[cj])

    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    g = Graph(n=n, u=u, v=v, w=np.ones(len(u)))
    return g, Partition(assignment)

