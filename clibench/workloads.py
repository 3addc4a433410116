"""The benchmark's workloads: the inputs each one makes from the seed, and the
walksynth commands of one round.

Every workload runs every command kind, so each end-to-end metric has real
work behind it everywhere, but each gives most of its time to one layer:

- ``lfr-mid``: synthesis ``detect`` on LFR graphs above the optimizer's chain
  cap (128 nodes), mixing 0.2 to 0.5. Dense-target local moving is nearly all
  of the time.
- ``small-escapes``: synthesis ``detect`` on small planted graphs (communities
  of 6-11 nodes, mean degree 5), where the 16 restarts of chain and merge
  escapes dominate, and ``oracle`` plus ``detect`` on random 8-9-node graphs.
  It also holds the one ``sweep`` call, which fails every time.
- ``lfr-large``: modularity ``detect`` on 1000-node LFR graphs (the sparse
  move path), and ``eval``, ``stats`` and ``gen`` at 10,000 nodes: the O(m)
  layers.

A round is a fixed sequence of calls. A command may be called more than once
per round: three times in a row when it takes milliseconds, so that its median
sheds a stray pause, or at several places in the round, so that the calls
behind its median are spread over the run (the host's speed drifts within
seconds). Light commands sit between the heavy ones for the same reason.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import (
    lfr_graph,
    planted_graph,
    random_connected_graph,
    sub_seed,
    write_edges,
    write_labels,
)

#: the sweep whose stdout carries a warning line ahead of its JSON
FAILING_SWEEP = {"community_sizes": [3, 3], "k_avg": 4, "mu": [0.2], "realizations": 1}

LFR_MID = dict(average_degree=20, max_degree=50, min_community=20, max_community=50)
LFR_MID_GRAPHS = [(n, mu) for mu in (0.2, 0.35, 0.5) for n in (150, 200)]

SMALL_K_AVG = 5.0
SMALL_PLANTED = [(sizes, mu) for mu in (0.1, 0.2) for sizes in ([6, 8, 10], [7, 9, 11], [6, 7, 8, 9])]
RANDOM_GRAPH_P = 0.35

LFR_LARGE_DETECT = dict(average_degree=10, max_degree=50, min_community=20, max_community=100)
LFR_LARGE_DETECT_GRAPHS = [(1000, mu) for mu in (0.2, 0.3, 0.4)]
LFR_LARGE = dict(average_degree=8, max_degree=50, min_community=50, max_community=200)
LFR_LARGE_GRAPH = (10_000, 0.2)
#: share of the large graph's nodes moved to another community to make the
#: partition that eval and stats read there
LARGE_PRED_NOISE = 0.1

#: calls in a row of a command that takes milliseconds
LIGHT_REPEAT = 3

WORKLOADS = ("lfr-mid", "small-escapes", "lfr-large")
#: every run measures at least this many whole rounds
MIN_ROUNDS = 2


class Round:
    """Builds one round: the distinct commands (``ops``, with what their
    checks need) and the order of their calls (``calls``, op names)."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.ops: list[dict] = []
        self.calls: list[str] = []
        self._tag = 0

    def path(self, stem: str) -> str:
        return str(self.dir / stem)

    def next_seed(self) -> int:
        self._tag += 1
        return sub_seed(self.seed, self._tag)

    def graph(self, stem: str, edges: np.ndarray, truth: np.ndarray | None = None) -> dict:
        g = {"graph": self.path(stem + ".edges"), "stem": stem}
        write_edges(Path(g["graph"]), edges)
        if truth is not None:
            g["truth"] = self.path(stem + ".truth")
            write_labels(Path(g["truth"]), truth)
        return g

    def _add(self, name: str, kind: str, argv: list[str], outputs: list[str], repeat: int = 1,
             **check) -> dict:
        op = {"name": name, "kind": kind, "argv": argv, "outputs": outputs, "check": check}
        self.ops.append(op)
        self.again(op, repeat)
        return op

    def again(self, op: dict, repeat: int = 1) -> None:
        """Call an op already in the round again, here."""
        self.calls += [op["name"]] * repeat

    def detect(self, g: dict, objective: str = "synthesis", evaluate: bool = True) -> dict:
        name = f"detect.{objective}.{g['stem']}"
        out, report = self.path(name + ".part"), self.path(name + ".json")
        opt_seed = self.next_seed() % 1000
        op = self._add(
            name, "detect",
            ["detect", "--graph", g["graph"], "--objective", objective, "--seed", str(opt_seed),
             "--out", out, "--report", report],
            [out, report], graph=g["graph"], objective=objective, seed=opt_seed,
            partition=out, report=report,
        )
        if evaluate and "truth" in g:
            self.eval(g, out, f"{objective}.{g['stem']}", from_detect=True)
        return op

    def eval(self, g: dict, partition: str, stem: str, from_detect: bool,
             repeat: int = LIGHT_REPEAT) -> dict:
        return self._add(f"eval.{stem}", "eval",
                         ["eval", "--graph", g["graph"], "--truth", g["truth"], "--pred", partition],
                         [], repeat, graph=g["graph"], truth=g["truth"], partition=partition,
                         from_detect=from_detect)

    def stats(self, g: dict, partition: str, repeat: int = LIGHT_REPEAT) -> dict:
        csv = self.path(f"stats.{g['stem']}.csv")
        return self._add(f"stats.{g['stem']}", "stats",
                         ["stats", "--graph", g["graph"], "--partition", partition, "--csv", csv],
                         [csv], repeat, graph=g["graph"], partition=partition, csv=csv,
                         min_size=3)

    def gen(self, stem: str, sizes: list[int], k_avg: float, mu: float, repeat: int = 1) -> dict:
        graph, truth = self.path(stem + ".edges"), self.path(stem + ".truth")
        gen_seed = self.next_seed() % 100_000
        return self._add(f"gen.{stem}", "gen",
                         ["gen", "--sizes", ",".join(map(str, sizes)), "--k-avg", repr(k_avg),
                          "--mu", repr(mu), "--seed", str(gen_seed),
                          "--out-graph", graph, "--out-truth", truth],
                         [graph, truth], repeat, sizes=sizes, k_avg=k_avg, mu=mu, seed=gen_seed,
                         graph=graph, truth=truth)

    def oracle_pair(self, stem: str, n: int) -> None:
        """``oracle`` and synthesis ``detect`` on one random connected graph.
        Enumeration takes milliseconds at 8 nodes and a second at 9."""
        g = self.graph(stem, random_connected_graph(n, RANDOM_GRAPH_P, self.next_seed()))
        self._add(f"oracle.{stem}", "oracle", ["oracle", "--graph", g["graph"]], [],
                  LIGHT_REPEAT if n <= 8 else 1, graph=g["graph"])
        self.detect(g)

    def sweep(self) -> None:
        config = self.path("sweep.json")
        Path(config).write_text(json.dumps(FAILING_SWEEP))
        raw, agg = self.path("sweep.raw.csv"), self.path("sweep.agg.csv")
        self._add("sweep.failing", "sweep",
                  ["sweep", "--config", config, "--out-raw", raw, "--out-agg", agg], [raw, agg],
                  spec=FAILING_SWEEP, raw=raw)


def spread(items: list, slots: int) -> dict[int, list]:
    """Place ``items`` evenly after ``slots`` positions: item j goes after
    position (j + 1) * slots // len(items) - 1."""
    out: dict[int, list] = {}
    for j, item in enumerate(items):
        out.setdefault((j + 1) * slots // len(items) - 1, []).append(item)
    return out


def perturbed(truth: np.ndarray, share: float, seed: int) -> np.ndarray:
    """The truth with ``share`` of the nodes moved to a uniformly drawn
    other community."""
    rng = np.random.default_rng(seed)
    k = int(truth.max()) + 1
    moved = rng.random(len(truth)) < share
    shift = rng.integers(1, k, size=len(truth))
    return np.where(moved, (truth + shift) % k, truth)


def build(workload: str, workdir: Path, seed: int) -> Round:
    """Write the workload's inputs under ``workdir``; return its round."""
    r = Round(workdir, seed)
    if workload == "lfr-mid":
        oracles = spread([8, 8, 8], len(LFR_MID_GRAPHS))
        for i, (n, mu) in enumerate(LFR_MID_GRAPHS):
            edges, truth = lfr_graph(n, mu, r.next_seed(), **LFR_MID)
            g = r.graph(f"lfr{i}-n{n}-mu{mu}", edges, truth)
            r.stats(g, r.detect(g)["check"]["partition"])
            if mu == 0.2:
                r.detect(g, "modularity")
            r.gen(f"gen{i}-n500", [25] * 20, 10.0, 0.3)
            for j, size in enumerate(oracles.get(i, [])):
                r.oracle_pair(f"rand{i}.{j}-n{size}", size)
    elif workload == "small-escapes":
        oracles = spread([8, 8, 8, 9, 9], len(SMALL_PLANTED))
        for i, (sizes, mu) in enumerate(SMALL_PLANTED):
            edges, truth = planted_graph(sizes, SMALL_K_AVG, mu, r.next_seed())
            g = r.graph(f"planted{i}-n{sum(sizes)}-mu{mu}", edges, truth)
            r.stats(g, r.detect(g)["check"]["partition"])
            if mu == 0.1:
                r.detect(g, "modularity")
            r.gen(f"gen{i}-n500", [25] * 20, 10.0, 0.3)
            for j, size in enumerate(oracles.get(i, [])):
                r.oracle_pair(f"rand{i}.{j}-n{size}", size)
        r.sweep()
    elif workload == "lfr-large":
        n, mu = LFR_LARGE_GRAPH
        edges, truth = lfr_graph(n, mu, r.next_seed(), **LFR_LARGE)
        big = r.graph(f"lfr-n{n}-mu{mu}", edges, truth)
        pred = r.path(big["stem"] + ".pred")
        write_labels(Path(pred), perturbed(truth, LARGE_PRED_NOISE, r.next_seed()))
        heavy: list[dict] = []
        for i, (n_mid, mu_mid) in enumerate(LFR_LARGE_DETECT_GRAPHS):
            edges, truth = lfr_graph(n_mid, mu_mid, r.next_seed(), **LFR_LARGE_DETECT)
            r.detect(r.graph(f"lfr{i}-n{n_mid}-mu{mu_mid}", edges, truth), "modularity")
            # the 10,000-node commands take tenths of a second: one call after
            # each detect, so that their medians span the round
            if not heavy:
                heavy = [
                    r.eval(big, pred, big["stem"], from_detect=False, repeat=1),
                    r.stats(big, pred, repeat=1),
                    r.gen(f"gen-n{n}", [100] * 100, 10.0, 0.3),
                ]
            else:
                for op in heavy:
                    r.again(op)
            r.oracle_pair(f"rand{i}-n8", 8)
        # this synthesis detect gives synthesis_bits its figure here: 130
        # nodes, above the chain cap, in ten clear communities, so that J
        # varies little from seed to seed
        edges, truth = planted_graph([13] * 10, 10.0, 0.1, r.next_seed())
        r.detect(r.graph("planted-n130-mu0.1", edges, truth), evaluate=False)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return r
