"""Partition type shared by the optimizer, metrics, and benchmark code,
plus the two-column text format used to persist assignments."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .graph import read_text, write_lines


class Partition:
    """Assignment of dense node indices to clusters 0..K-1.

    Cluster indices are always dense (every index below K occupied); arbitrary
    labels are remapped in first-appearance order on construction.
    """

    __slots__ = ("assignment", "num_clusters")

    def __init__(self, assignment: Sequence[int] | np.ndarray):
        raw = np.asarray(assignment, dtype=np.int64)
        if raw.ndim != 1 or len(raw) == 0:
            raise ValueError("assignment must be a nonempty 1-d sequence")
        labels, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        # rank each label by where it first appears
        rank = np.empty(len(labels), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(labels))
        self.assignment = rank[inverse]
        self.num_clusters = len(labels)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def members(self) -> list[np.ndarray]:
        """Node indices per cluster, ascending within each cluster."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.num_clusters + 1))
        return [order[bounds[k]:bounds[k + 1]] for k in range(self.num_clusters)]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_clusters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.assignment, other.assignment)

    def __len__(self) -> int:
        return self.num_clusters

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, clusters={self.num_clusters})"

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition(np.arange(n))

    @staticmethod
    def single_cluster(n: int) -> "Partition":
        return Partition(np.zeros(n, dtype=np.int64))


def write_partition(sink: str | Path | IO[str], labels: np.ndarray, part: Partition) -> None:
    """Write one ``node_label cluster_index`` line per node in dense order."""
    if len(labels) != part.n:
        raise ValueError("label array and partition cover different node counts")
    write_lines((f"{lab} {c}" for lab, c in zip(labels.tolist(), part.assignment.tolist())), sink)


def read_partition_labels(source: str | Path | IO[str]) -> dict[int, int]:
    """Read a partition file into an original-label -> cluster mapping."""
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(read_text(source).splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'label cluster', got {len(parts)} fields")
        try:
            label, cluster = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: labels and clusters must be integers") from None
        if not -(2**63) <= cluster < 2**63:
            # a Partition keeps its clusters in an int64 array
            raise ValueError(f"line {lineno}: cluster {cluster} does not fit in 64 bits")
        if label in mapping:
            raise ValueError(f"line {lineno}: duplicate node label {label}")
        mapping[label] = cluster
    if not mapping:
        raise ValueError("empty partition file")
    return mapping


def partition_for_graph(mapping: dict[int, int], labels: np.ndarray) -> Partition:
    """Align a label -> cluster mapping with a graph's dense node order.

    Raises:
        ValueError: when the mapping's node set differs from the graph's.
    """
    nodes = labels.tolist()
    if set(mapping) != set(nodes):
        raise ValueError("partition node set does not match the graph")
    return Partition(np.array([mapping[lab] for lab in nodes]))
