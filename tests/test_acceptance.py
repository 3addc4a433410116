"""Acceptance suite: eleven end-to-end checks covering the exact clique
guarantees, the bound chain, incremental-move consistency, optimizer
quality against exhaustive enumeration, benchmark recovery curves, the
fixture values, and byte-level CLI determinism.

Each test prints one summary line, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from test_metrics import ami_permutation_oracle
from util import objective_identity_check, random_connected_graph, random_partition

import walksynth
from walksynth import (
    FRESH,
    FlowMoveState,
    OptimizerConfig,
    Partition,
    ami,
    brute_force_optimum,
    cluster_stats,
    disconnected_cliques,
    evaluate_partition,
    greedy_match,
    modularity,
    mutual_info_nodes,
    optimize,
    transition_matrix,
)
from walksynth.bench import SweepSpec, run_sweep

CLIQUE_MULTISETS = [(3, 3), (3, 4), (2, 2, 3), (4, 4)]


def _recomputed_value(walk, assignment) -> float:
    """Objective via from-scratch cluster sums, independent of move states."""
    return evaluate_partition(walk, Partition(assignment)).value


def test_criterion_01_clique_partitions_are_global_optima():
    started = time.perf_counter()
    for sizes in CLIQUE_MULTISETS:
        g, truth = disconnected_cliques(sizes, with_self_loops=True)
        part, value = brute_force_optimum(g, "synthesis")
        assert np.array_equal(part.assignment, truth.assignment), sizes
        # at the optimum the synthetic walk reproduces the original exactly,
        # so the objective meets its information ceiling
        assert value == pytest.approx(mutual_info_nodes(transition_matrix(g)), abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"[criterion 01] PASS exhaustive optimum is the clique partition "
          f"for all {len(CLIQUE_MULTISETS)} size multisets ({elapsed:.2f}s)")


def test_criterion_02_full_merge_scores_zero_and_loses():
    values = {}
    for sizes in ((3, 3), (4, 4)):
        g, truth = disconnected_cliques(sizes, with_self_loops=True)
        walk = transition_matrix(g)
        j_true = evaluate_partition(walk, truth).value
        j_merged = evaluate_partition(walk, Partition(np.zeros(g.n, dtype=np.int64))).value
        assert j_merged == 0.0
        assert j_merged < j_true
        values[sizes] = j_true
    # equal 4-cliques keep every intermediate quantity dyadic, so one bit
    # comes out exact; the 3-clique node mass 1/6 is not representable and
    # the sum lands a few ulps short
    assert values[(4, 4)] == 1.0
    assert values[(3, 3)] == pytest.approx(1.0, abs=1e-12)
    print("[criterion 02] PASS merging both cliques scores exactly 0.0, "
          "one bit below the true split")


def test_criterion_03_bound_chain_on_random_pairs():
    rng = np.random.default_rng(3)
    started = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        report = evaluate_partition(transition_matrix(g), random_partition(rng, n))
        assert report.value >= -1e-9
        assert report.value <= report.bound_cluster_mi + 1e-9
        assert report.bound_cluster_mi <= report.bound_node_mi + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"[criterion 03] PASS 0 <= value <= cluster MI <= node MI "
          f"on 1000 random pairs ({elapsed:.1f}s)")


def test_criterion_04_divergence_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        g = random_connected_graph(rng, n, float(rng.uniform(0.25, 0.9)))
        lhs, rhs = objective_identity_check(transition_matrix(g), random_partition(rng, n))
        assert lhs <= rhs + 1e-9
    for sizes in CLIQUE_MULTISETS:
        g, truth = disconnected_cliques(sizes, with_self_loops=True)
        lhs, rhs = objective_identity_check(transition_matrix(g), truth)
        assert lhs == pytest.approx(rhs, abs=1e-9), sizes
    print("[criterion 04] PASS divergence never beats the MI gap on 200 "
          "random pairs; equality on all clique truths")


def test_criterion_05_incremental_deltas_match_recomputation():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(5, 25))
        g = random_connected_graph(rng, n, float(rng.uniform(0.25, 0.8)))
        walk = transition_matrix(g)
        state = FlowMoveState(walk, random_partition(rng, n))
        for _ in range(200):
            node = int(rng.integers(n))
            a = int(state.assignment[node])
            targets = [c for c in np.flatnonzero(state.counts > 0).tolist() if c != a]
            if state.counts[a] > 1:
                targets.append(FRESH)
            to = int(targets[rng.integers(len(targets))])
            # the best move's gain is the change its move makes
            delta, best = state.best_move(node, -math.inf)
            snap = state.snapshot()
            before = _recomputed_value(walk, state.assignment)
            state.apply(node, best)
            after = _recomputed_value(walk, state.assignment)
            state.restore(snap)
            assert delta == pytest.approx(after - before, abs=1e-9)
            state.apply(node, to)
            checked += 1
    assert checked == 10_000
    print(f"[criterion 05] PASS {checked} best-move gains equal "
          f"full recomputation within 1e-9")


def test_criterion_06_optimizer_matches_enumeration():
    started = time.perf_counter()
    exact = 0
    worst_ratio = 1.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 8, 0.35)
        _, ref = brute_force_optimum(g, "synthesis")
        _, report = optimize(g, OptimizerConfig(seed=seed))
        if abs(report.value - ref) <= 1e-9:
            exact += 1
        ratio = report.value / ref
        worst_ratio = min(worst_ratio, ratio)
        assert ratio >= 0.95, f"seed {seed}: {report.value} vs oracle {ref}"
    elapsed = time.perf_counter() - started
    assert exact >= 90
    assert elapsed < 60.0
    print(f"[criterion 06] PASS {exact}/100 exact oracle matches, worst "
          f"ratio {worst_ratio:.4f} ({elapsed:.1f}s)")


def test_criterion_07_recovery_degrades_gracefully_with_mixing():
    spec = SweepSpec(
        community_sizes=[30] * 10,
        k_avg=15.0,
        mu_values=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        realizations=20,
    )
    started = time.perf_counter()
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - started

    by_mu: dict[float, list[float]] = {}
    for row in rows:
        by_mu.setdefault(row.mu, []).append(row.ami)
    assert all(len(v) == 20 for v in by_mu.values())
    mean = {mu: float(np.mean(v)) for mu, v in by_mu.items()}
    sem = {mu: float(np.std(v, ddof=1)) / math.sqrt(20) for mu, v in by_mu.items()}

    assert mean[0.1] >= 0.90
    assert mean[0.3] >= 0.75
    mus = sorted(mean)
    for lo, hi in zip(mus, mus[1:]):
        slack = 2.0 * math.hypot(sem[lo], sem[hi])
        assert mean[hi] <= mean[lo] + slack, (lo, hi, mean)
    assert elapsed < 600.0
    curve = " ".join(f"{mu}:{mean[mu]:.3f}" for mu in mus)
    print(f"[criterion 07] PASS mean AMI {curve} ({elapsed:.0f}s)")


def test_criterion_08_zero_mixing_recovered_exactly():
    spec = SweepSpec(community_sizes=[30] * 10, k_avg=15.0, mu_values=[0.0], realizations=20)
    rows = run_sweep(spec)
    assert len(rows) == 20
    assert all(row.ami == 1.0 for row in rows)
    print("[criterion 08] PASS AMI is exactly 1.0 on all 20 realizations "
          "with no inter-community links")


def test_criterion_09_ami_fixture_and_edge_cases():
    a = Partition(np.array([0, 0, 1, 1]))
    b = Partition(np.array([0, 1, 0, 1]))
    assert ami(a, b) == pytest.approx(ami_permutation_oracle([0, 0, 1, 1], [0, 1, 0, 1]), abs=1e-10)
    assert ami(a, a) == 1.0
    single = Partition(np.zeros(4, dtype=np.int64))
    assert ami(a, single) == 0.0
    assert ami(single, a) == 0.0
    print("[criterion 09] PASS AMI matches the exhaustive permutation "
          "oracle; identity and single-cluster cases exact")


def test_criterion_10_matching_and_cluster_stats_fixtures():
    assert greedy_match(np.array([[5, 0], [1, 4]])) == {0: 0, 1: 1}
    g, truth = disconnected_cliques((3, 3))
    assert modularity(g, truth) == 0.5
    rows = cluster_stats(g, truth)
    assert len(rows) == 2
    for row in rows:
        assert row.density == 1.0
        assert row.conductance == 0.0
        assert row.cut_ratio == 0.0
    print("[criterion 10] PASS greedy matching and two-triangle cluster "
          "statistics are exact")


def _run_cli(args, cwd):
    # The child runs in `cwd`, where a relative PYTHONPATH entry such as `src`
    # resolves to nothing; give it the absolute root of the package imported
    # here, so it runs the same code whether that comes from `src/` or an install.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(walksynth.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "walksynth", *args], capture_output=True, cwd=cwd, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_11_cli_outputs_are_byte_identical(tmp_path):
    gen_args = [
        "gen", "--sizes", "10,10,10", "--k-avg", "6", "--mu", "0.2", "--seed", "5",
        "--out-graph", "g.txt", "--out-truth", "t.txt",
    ]
    runs = []
    for rep in ("a", "b"):
        d = tmp_path / f"gen_{rep}"
        d.mkdir()
        out = _run_cli(gen_args, d)
        runs.append((out, (d / "g.txt").read_bytes(), (d / "t.txt").read_bytes()))
    assert runs[0] == runs[1]

    graph = tmp_path / "gen_a" / "g.txt"
    runs = []
    for rep in ("a", "b"):
        d = tmp_path / f"det_{rep}"
        d.mkdir()
        out = _run_cli(
            ["detect", "--graph", str(graph), "--seed", "1", "--out", "p.txt", "--report", "r.json"], d
        )
        runs.append((out, (d / "p.txt").read_bytes(), (d / "r.json").read_bytes()))
    assert runs[0] == runs[1]

    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"community_sizes": [8, 8, 8], "k_avg": 5, "mu": [0.2], "realizations": 2})
    )
    runs = []
    for rep in ("a", "b"):
        d = tmp_path / f"sweep_{rep}"
        d.mkdir()
        out = _run_cli(
            ["sweep", "--config", str(config), "--out-raw", "raw.csv", "--out-agg", "agg.csv"], d
        )
        runs.append((out, (d / "raw.csv").read_bytes(), (d / "agg.csv").read_bytes()))
    assert runs[0] == runs[1]
    print("[criterion 11] PASS generation, detection, and sweep outputs "
          "are byte-identical across repeated runs")
