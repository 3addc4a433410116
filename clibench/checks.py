"""Checks of each command's output against the reference, or against a
property the method must have. Never against a stored copy.

Each check takes the op (with its ``check`` fields) and the parsed stdout
payload, raises ``CheckError`` on the first mismatch, and returns the
figures the end-to-end metrics need.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

TOL = 1e-9


class CheckError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(got: float, want: float, what: str) -> None:
    expect(abs(got - want) <= TOL, f"{what}: got {got!r}, reference {want!r}")


def one_json_document(stdout: str):
    """The CLI contract: stdout is exactly one JSON document, else None."""
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


class Checker:
    """Caches parsed graphs; one instance per run."""

    def __init__(self):
        self._graphs: dict[str, ref.RefGraph] = {}

    def graph(self, path: str) -> ref.RefGraph:
        if path not in self._graphs:
            self._graphs[path] = ref.load_graph(Path(path))
        return self._graphs[path]

    def partition(self, g: ref.RefGraph, path: str) -> np.ndarray:
        """The file's own cluster ids per graph node, after checking that it
        lists each node exactly once with dense ids."""
        lines = [line.split() for line in Path(path).read_text().splitlines()]
        expect(len(lines) == g.n, f"{path}: {len(lines)} lines for {g.n} nodes")
        mapping = {int(a): int(b) for a, b in lines}
        expect(len(mapping) == g.n, f"{path}: a node is listed twice")
        expect(set(mapping) == {int(x) for x in g.labels}, f"{path}: node set differs")
        raw = np.array([mapping[int(lab)] for lab in g.labels])
        expect(set(raw.tolist()) == set(range(raw.max() + 1)), f"{path}: cluster ids not dense")
        return raw

    def detect(self, op: dict, payload: dict) -> dict:
        c = op["check"]
        g = self.graph(c["graph"])
        part = self.partition(g, c["partition"])
        expect(payload["objective"] == c["objective"] and payload["seed"] == c["seed"],
               "objective or seed not echoed")
        expect(payload["k"] == part.max() + 1, "k is not the partition's cluster count")
        per = ref.synthesis_per_cluster(g, part)
        j = float(per.sum())
        close(payload["value"], j, "J")
        close(float(sum(payload["per_cluster"])), j, "sum of per_cluster")
        expect(len(payload["per_cluster"]) == len(per), "per_cluster length")
        for cluster, (got, want) in enumerate(zip(payload["per_cluster"], per)):
            close(got, float(want), f"J of cluster {cluster}")
        i_yy, i_xx = ref.cluster_mi(g, part), ref.node_mi(g)
        close(payload["bound_cluster_mi"], i_yy, "I(Y;Y')")
        close(payload["bound_node_mi"], i_xx, "I(X;X')")
        expect(-TOL <= j <= i_yy + TOL <= i_xx + 2 * TOL, "bound chain 0 <= J <= I(Y;Y') <= I(X;X')")
        report = json.loads(Path(c["report"]).read_text())
        expect(report == payload, "report file differs from stdout")
        out = {"J": j}
        if c["objective"] == "modularity":
            out["Q"] = ref.modularity_q(g, part)
        return out

    def eval(self, op: dict, payload: dict) -> dict:
        c = op["check"]
        g = self.graph(c["graph"])
        truth = ref.aligned_partition(g, ref.read_partition_file(Path(c["truth"])))
        pred = ref.aligned_partition(g, ref.read_partition_file(Path(c["partition"])))
        want = ref.eval_payload(truth, pred)
        expect(set(payload) == set(want), f"eval keys {sorted(payload)}")
        close(payload["ami"], want["ami"], "AMI")
        for key in ("matches", "misclassified", "k_true", "k_pred"):
            expect(payload[key] == want[key], f"{key}: got {payload[key]}, reference {want[key]}")
        return {"ami": payload["ami"]}

    def stats(self, op: dict, payload: dict) -> dict:
        c = op["check"]
        g = self.graph(c["graph"])
        part = ref.aligned_partition(g, ref.read_partition_file(Path(c["partition"])))
        rows = ref.cluster_stats_rows(g, part, c["min_size"])
        k = int(part.max()) + 1
        expect(payload["clusters"] == k, "clusters")
        expect(payload["nontrivial_clusters"] == len(rows), "nontrivial_clusters")
        close(payload["nontrivial_fraction"], len(rows) / k, "nontrivial_fraction")
        close(payload["modularity"], ref.modularity_q(g, part), "modularity")
        lines = Path(c["csv"]).read_text().splitlines()
        expect(lines[0] == "cluster,size,density,clustering_coefficient,conductance,cut_ratio",
               "CSV header")
        expect(len(lines) - 1 == len(rows), "CSV row count")
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            expect(int(fields[0]) == row[0] and int(fields[1]) == row[1], f"CSV row {line}")
            for got, want, name in zip(fields[2:], row[2:], ("density", "clustering", "conductance", "cut_ratio")):
                close(float(got), want, f"cluster {row[0]} {name}")
        return {}

    def gen(self, op: dict, payload: dict) -> dict:
        c = op["check"]
        sizes = c["sizes"]
        n = sum(sizes)
        expect(payload["n"] == n and payload["communities"] == len(sizes), "n or communities")
        expect(payload["mu"] == c["mu"] and payload["k_avg"] == c["k_avg"]
               and payload["seed"] == c["seed"], "parameters not echoed")
        truth = ref.read_partition_file(Path(c["truth"]))
        expect(sorted(truth) == list(range(n)), "truth does not list nodes 0..n-1")
        labels = np.array([truth[i] for i in range(n)])
        expect(np.bincount(labels).tolist() == list(sizes), "community sizes")
        edges = ref.read_edge_file(Path(c["graph"]))
        expect(payload["edges"] == len(edges), "edge count")
        expect(np.all((edges >= 0) & (edges < n)), "edge endpoint out of range")
        expect(np.all(edges[:, 0] != edges[:, 1]), "self-loop")
        keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
        expect(len(np.unique(keys)) == len(keys), "duplicate edge")
        internal = int(np.sum(labels[edges[:, 0]] == labels[edges[:, 1]]))
        counts = {"internal": internal, "external": len(edges) - internal}
        for kind, (mean, var) in ref.planted_edge_moments(sizes, c["k_avg"], c["mu"]).items():
            expect(abs(counts[kind] - mean) <= 6 * math.sqrt(var) + 1e-9,
                   f"{kind} edges {counts[kind]} against expectation {mean:.1f} +- {math.sqrt(var):.1f}")
        return {}

    def sweep(self, op: dict, payload: dict) -> dict:
        """Counts only: the one sweep in the benchmark has an infeasible grid
        point, whose row the CSV keeps with nan values."""
        spec = op["check"]["spec"]
        points = len(spec["mu"]) * spec["realizations"]
        expect(payload == {"rows": points, "grid_points": points, "objectives": ["synthesis"]},
               f"sweep summary {payload}")
        raw = Path(op["check"]["raw"]).read_text().splitlines()
        expect(len(raw) == 1 + points, "raw CSV row count")
        return {}

    def oracle(self, op: dict, payload: dict) -> dict:
        g = self.graph(op["check"]["graph"])
        best = ref.exhaustive_optimum(g)
        close(payload["value"], best, "oracle optimum")
        assignment = np.array(payload["assignment"])
        expect(len(assignment) == g.n, "assignment length")
        expect(payload["k"] == len(set(assignment.tolist())), "k")
        attained = float(ref.synthesis_per_cluster(g, ref.dense_clusters(assignment)).sum())
        close(attained, best, "J of the returned assignment")
        return {"optimum": best}
