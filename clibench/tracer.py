"""Layer tracing for the benchmark, installed on walksynth from outside.

Public functions of each module get spans (name, start, end, parent), kept in
memory and written out when the run ends. Methods called millions of times
get count-and-time counters instead. Every wrapper keeps a frame on one stack,
so each name's self time is its elapsed time minus that of the wrapped calls
it made. The optimizer phases have no public entry point and are wrapped by
their private names; a name missing from the program is listed as absent.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: (module, attribute path, layer name, span or counter)
TARGETS = [
    ("walksynth.cli", "cmd_detect", "cli.detect", True),
    ("walksynth.cli", "cmd_eval", "cli.eval", True),
    ("walksynth.cli", "cmd_stats", "cli.stats", True),
    ("walksynth.cli", "cmd_gen", "cli.gen", True),
    ("walksynth.cli", "cmd_oracle", "cli.oracle", True),
    ("walksynth.cli", "cmd_sweep", "cli.sweep", True),
    ("walksynth.graph", "load_edge_list", "graph.load_edge_list", True),
    ("walksynth.graph", "planted_partition", "graph.planted_partition", True),
    ("walksynth.graph", "dump_edge_list", "graph.dump_edge_list", True),
    ("walksynth.walk", "transition_matrix", "walk.transition_matrix", True),
    ("walksynth.walk", "cluster_aggregates", "walk.cluster_aggregates", True),
    ("walksynth.objective", "FlowMoveState.__init__", "objective.move_state_init", True),
    ("walksynth.objective", "FlowMoveState.gain", "objective.gain", False),
    ("walksynth.objective", "FlowMoveState.flows_to_clusters", "objective.flows_to_clusters", False),
    ("walksynth.objective", "FlowMoveState.apply", "objective.apply", False),
    ("walksynth.objective", "FlowMoveState.snapshot", "objective.snapshot", False),
    ("walksynth.objective", "FlowMoveState.restore", "objective.restore", False),
    ("walksynth.objective", "evaluate_partition", "objective.evaluate_partition", True),
    ("walksynth.objective", "modularity", "objective.modularity", True),
    ("walksynth.optimizer", "optimize", "optimizer.optimize", True),
    ("walksynth.optimizer", "_local_moving", "optimizer.local_moving", True),
    ("walksynth.optimizer", "_chain_pass", "optimizer.chain_pass", True),
    ("walksynth.optimizer", "_merge_chain", "optimizer.merge_chain", True),
    ("walksynth.optimizer", "_aggregate_graph", "optimizer.aggregate_graph", True),
    ("walksynth.optimizer", "brute_force_optimum", "optimizer.brute_force_optimum", True),
    ("walksynth.partitions", "Partition.__init__", "partitions.Partition", False),
    ("walksynth.partitions", "read_partition_labels", "partitions.read_partition_labels", True),
    ("walksynth.partitions", "partition_for_graph", "partitions.partition_for_graph", True),
    ("walksynth.partitions", "write_partition", "partitions.write_partition", True),
    ("walksynth.metrics", "ami", "metrics.ami", True),
    ("walksynth.metrics", "greedy_match", "metrics.greedy_match", True),
    ("walksynth.metrics", "classify_nodes", "metrics.classify_nodes", True),
    ("walksynth.metrics", "cluster_stats", "metrics.cluster_stats", True),
    ("walksynth.bench", "run_sweep", "bench.run_sweep", True),
]


#: layers whose call counts are reported besides their self time
COUNTED = (
    "walk.transition_matrix",
    "objective.move_state_init",
    "objective.gain",
    "objective.flows_to_clusters",
    "objective.apply",
    "objective.snapshot",
    "objective.restore",
    "optimizer.chain_pass",
    "optimizer.merge_chain",
    "partitions.Partition",
)
#: escape phases that return whether they kept their moves
ACCEPTING = ("optimizer.chain_pass", "optimizer.merge_chain")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.accepted: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = [[0.0, None]]  # [child seconds, span id]
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, span: bool):
        stack, self_s, calls, accepted, spans = (
            self._stack, self.self_s, self.calls, self.accepted, self.spans
        )
        count_true = name in ACCEPTING

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans) if span else parent[1]]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                parent[0] += elapsed
                if span:
                    spans[frame[1]] = (name, start, end, parent[1])
            if count_true and result:
                accepted[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in place, in each walksynth module that holds it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "walksynth"]
        for module_name, path, name, span in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, attr = path.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(original, name, span)
            if cls_name:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            for span_id, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
